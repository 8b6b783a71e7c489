"""Minimal standalone SVG scatter/polyline documents, no plotting dependency.

Fixed viewport: data bounding box (over every group) padded by 5% and
mapped onto a square canvas with the y axis flipped. Output is plain text
and deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

CANVAS = 480
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _bounds(arrays):
    pts = np.concatenate([np.asarray(a, dtype=float).reshape(-1, 2) for a in arrays], axis=0)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * span
    return lo - pad, hi + pad


def _mapper(lo, hi):
    span = hi - lo

    def to_px(xy):
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        u = (xy - lo) / span * CANVAS
        u[:, 1] = CANVAS - u[:, 1]
        return u

    return to_px


def _document(body) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">\n'
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>\n'
    )
    return head + body + "</svg>\n"


def scatter_svg(path, groups):
    """Write a scatter plot; ``groups`` is a list of (points (m,2), label)."""
    arrays = [g[0] for g in groups if len(g[0])]
    if not arrays:
        raise ValueError("nothing to plot")
    to_px = _mapper(*_bounds(arrays))
    rows = []
    for gi, (pts, label) in enumerate(groups):
        color = PALETTE[gi % len(PALETTE)]
        rows.append(f'<g fill="{color}" fill-opacity="0.55" data-label="{label}">')
        for x, y in to_px(pts):
            rows.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.0"/>')
        rows.append("</g>")
        rows.append(
            f'<text x="8" y="{18 * (gi + 1)}" font-size="13" fill="{color}">{label}</text>'
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_document("\n".join(rows) + "\n"))


def trajectories_svg(path, trajectories, points=None):
    """Write particle trajectories as polylines, optionally over endpoints."""
    arrays = list(trajectories) + ([points] if points is not None and len(points) else [])
    to_px = _mapper(*_bounds(arrays))
    rows = []
    if points is not None and len(points):
        rows.append('<g fill="#bbbbbb" fill-opacity="0.6">')
        for x, y in to_px(points):
            rows.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5"/>')
        rows.append("</g>")
    for ti, traj in enumerate(trajectories):
        color = PALETTE[ti % len(PALETTE)]
        px = to_px(traj)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in px)
        rows.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        rows.append(f'<circle cx="{px[-1,0]:.2f}" cy="{px[-1,1]:.2f}" r="3" fill="{color}"/>')
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_document("\n".join(rows) + "\n"))

