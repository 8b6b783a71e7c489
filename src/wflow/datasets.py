"""Analytic densities, synthetic 2-D samplers, and particle ensembles.

Gaussians and Gaussian mixtures carry exact log-pdfs, exact samplers, and
closed-form scores; they serve simultaneously as sources, targets, and
oracles. Name-keyed presets package the standard experiment inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wflow import numcore as nc

LOG_2PI = float(np.log(2.0 * np.pi))


class ParticleEnsemble:
    """m x d particle positions plus an optional per-particle log-density."""

    def __init__(self, positions, logdens=None):
        self.positions = np.asarray(positions, dtype=np.float64)
        if self.positions.ndim != 2:
            raise ValueError(f"positions must be (m, d), got {self.positions.shape}")
        self.logdens = None if logdens is None else np.asarray(logdens, dtype=np.float64)
        if self.logdens is not None and self.logdens.shape != (self.m,):
            raise ValueError("logdens must be one value per particle")

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(
            self.positions.copy(), None if self.logdens is None else self.logdens.copy()
        )

    def __repr__(self):
        return f"ParticleEnsemble(m={self.m}, d={self.d})"


def save_particles_csv(path, ensemble: ParticleEnsemble):
    """Headerless CSV, one particle per row, locale-independent formatting."""
    np.savetxt(path, ensemble.positions, delimiter=",", fmt="%.17g")


def load_particles_csv(path) -> ParticleEnsemble:
    """Read a particle CSV; a NaN or infinite cell raises ValueError naming the file."""
    data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"{path}: non-finite value {data[row, col]!r} at row {row + 1}, "
                         f"column {col + 1}")
    return ParticleEnsemble(data)


class Gaussian:
    """Multivariate normal with exact log-pdf, sampler, and score."""

    kind = "gaussian"

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        self.d = self.mean.shape[0]
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(self.d)
        elif cov.ndim == 1:
            cov = np.diag(cov)
        self.cov = cov
        self._chol = np.linalg.cholesky(cov)  # raises on non-PD input
        self._prec = np.linalg.inv(cov)
        self._logdet = 2.0 * np.sum(np.log(np.diag(self._chol)))

    def log_pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        delta = np.atleast_2d(x) - self.mean
        maha = np.einsum("ij,jk,ik->i", delta, self._prec, delta)
        out = -0.5 * (self.d * LOG_2PI + self._logdet + maha)
        return float(out[0]) if single else out

    def log_pdf_expr(self, x: nc.Tensor) -> nc.Tensor:
        """log-pdf as a tape expression over a batch (m, d)."""
        # whiten with the constant inverse Cholesky factor, then sum squares
        inv_l_t = np.linalg.inv(self._chol).T
        delta = x - nc.Tensor(self.mean)
        u = nc.matmul(delta, nc.Tensor(inv_l_t))
        maha = nc.tsum(nc.square(u), axis=1)
        const = -0.5 * (self.d * LOG_2PI + self._logdet)
        return nc.add(nc.mul(maha, -0.5), const)

    def sample(self, n, rng) -> np.ndarray:
        z = rng.standard_normal((n, self.d))
        return self.mean + z @ self._chol.T

    def score(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        out = -(np.atleast_2d(x) - self.mean) @ self._prec.T
        return out[0] if single else out

    def potential_expr(self, x: nc.Tensor) -> nc.Tensor:
        """V with density proportional to exp(-V): the negative log-pdf minus its constant."""
        inv_l_t = np.linalg.inv(self._chol).T
        delta = x - nc.Tensor(self.mean)
        u = nc.matmul(delta, nc.Tensor(inv_l_t))
        return nc.mul(nc.tsum(nc.square(u), axis=1), 0.5)

    def kl_to(self, other: "Gaussian") -> float:
        """Closed-form KL(self || other)."""
        delta = other.mean - self.mean
        prec = other._prec
        trace = float(np.trace(prec @ self.cov))
        maha = float(delta @ prec @ delta)
        return 0.5 * (trace + maha - self.d + other._logdet - self._logdet)

    def spec(self):
        return {"kind": "gaussian", "mean": self.mean.tolist(), "cov": self.cov.tolist()}


class GaussianMixture:
    """Weighted Gaussian mixture; log-pdf via log-sum-exp, exact posterior score."""

    kind = "mixture"

    def __init__(self, weights, components):
        self.weights = np.asarray(weights, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if np.any(self.weights <= 0):
            raise ValueError("mixture weights must be positive")
        self.components = list(components)
        self.d = self.components[0].d
        if any(c.d != self.d for c in self.components):
            raise ValueError("mixture components must share a dimension")

    def _component_logs(self, x) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        logs = np.stack([c.log_pdf(x2) for c in self.components], axis=1)
        return logs + np.log(self.weights)

    def log_pdf(self, x):
        single = np.asarray(x).ndim == 1
        logs = self._component_logs(x)
        out = _logsumexp(logs, axis=1)
        return float(out[0]) if single else out

    def sample(self, n, rng) -> np.ndarray:
        counts = rng.multinomial(n, self.weights)
        parts = [c.sample(k, rng) for c, k in zip(self.components, counts) if k > 0]
        samples = np.concatenate(parts, axis=0)
        rng.shuffle(samples, axis=0)
        return samples

    def score(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        logs = self._component_logs(x)
        resp = np.exp(logs - _logsumexp(logs, axis=1)[:, None])
        comp_scores = np.stack([c.score(np.atleast_2d(x)) for c in self.components], axis=1)
        out = np.einsum("ik,ikj->ij", resp, comp_scores)
        return out[0] if single else out

    def spec(self):
        return {
            "kind": "mixture",
            "weights": self.weights.tolist(),
            "components": [c.spec() for c in self.components],
        }


def _logsumexp(a, axis):
    amax = np.max(a, axis=axis, keepdims=True)
    return (amax + np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True))).squeeze(axis)


def standard_gaussian(d) -> Gaussian:
    return Gaussian(np.zeros(d), np.eye(d))


def fig10_p() -> GaussianMixture:
    """Three-component mixture living in the upper-left quadrant."""
    return GaussianMixture(
        [1 / 3, 1 / 3, 1 / 3],
        [
            Gaussian([-2.0, 2.0], 0.75),
            Gaussian([-1.5, 1.5], 0.25),
            Gaussian([-1.0, 1.0], 0.75),
        ],
    )


def fig10_q() -> GaussianMixture:
    """Two-component mixture with support well below fig10_p's."""
    return GaussianMixture(
        [0.5, 0.5],
        [Gaussian([0.75, -1.5], 0.5), Gaussian([-2.0, -3.0], 0.5)],
    )


def branch_tree(depth=4, sigma=0.12) -> GaussianMixture:
    """Recursive branching mixture: blobs along a binary tree of segments.

    A qualitative 2-D "tree" distribution: the trunk splits in two at each
    level, segment length and blob spread shrink geometrically. Purely a
    documented construction of this package, not tied to any external dataset.
    """
    means, spreads = [], []

    def grow(origin, angle, length, level):
        tip = origin + length * np.array([np.cos(angle), np.sin(angle)])
        for frac in (0.25, 0.5, 0.75, 1.0):
            means.append(origin + frac * (tip - origin))
            spreads.append(sigma * length)
        if level < depth:
            for turn in (-0.55, 0.55):
                grow(tip, angle + turn, 0.62 * length, level + 1)

    grow(np.array([0.0, -2.0]), np.pi / 2, 1.6, 1)
    weights = np.full(len(means), 1.0 / len(means))
    comps = [Gaussian(m, s**2) for m, s in zip(means, spreads)]
    return GaussianMixture(weights, comps)


class TwoMoons:
    """Two interleaving noisy half-circles; sampler only, no closed-form pdf."""

    kind = "two-moons"
    d = 2

    def __init__(self, noise=0.08):
        self.noise = noise

    def sample(self, n, rng) -> np.ndarray:
        theta = rng.uniform(0.0, np.pi, size=n)
        upper = rng.integers(0, 2, size=n).astype(bool)
        x = np.where(upper, np.cos(theta), 1.0 - np.cos(theta))
        y = np.where(upper, np.sin(theta) - 0.25, 0.25 - np.sin(theta))
        pts = np.stack([x, y], axis=1) + self.noise * rng.standard_normal((n, 2))
        return pts

    def log_pdf(self, x):
        raise NotImplementedError("two-moons has no closed-form density")


class Checkerboard:
    """Uniform density over the black cells of a 4x4 board on [-2, 2]^2."""

    kind = "checkerboard"
    d = 2

    def __init__(self):
        cells = []
        for i in range(4):
            for j in range(4):
                if (i + j) % 2 == 0:
                    cells.append((-2.0 + i, -2.0 + j))
        self.cells = np.asarray(cells)
        self._log_density = -np.log(float(len(cells)))  # unit cells

    def sample(self, n, rng) -> np.ndarray:
        idx = rng.integers(0, len(self.cells), size=n)
        return self.cells[idx] + rng.uniform(0.0, 1.0, size=(n, 2))

    def log_pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        inside = np.zeros(len(pts), dtype=bool)
        for cx, cy in self.cells:
            inside |= (
                (pts[:, 0] >= cx) & (pts[:, 0] < cx + 1)
                & (pts[:, 1] >= cy) & (pts[:, 1] < cy + 1)
            )
        out = np.where(inside, self._log_density, -np.inf)
        return float(out[0]) if single else out


@dataclass
class DatasetSpec:
    """Named preset (or inline mixture) plus a sample count and seed."""

    preset: str
    count: int
    dim: int = 2
    seed: int = 0
    shift: tuple = ()
    mixture: GaussianMixture | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


PRESETS = ("standard-gaussian", "fig10-p", "fig10-q", "two-moons", "checkerboard", "branch-tree")


def preset_density(name, dim=2, shift=()):
    """Density/sampler object for a preset name; raises on unknown names."""
    if name == "standard-gaussian":
        mean = np.zeros(dim)
        if shift:
            mean = mean + np.asarray(shift, dtype=np.float64)
        return Gaussian(mean, np.eye(dim))
    if name == "fig10-p":
        return fig10_p()
    if name == "fig10-q":
        return fig10_q()
    if name == "two-moons":
        return TwoMoons()
    if name == "checkerboard":
        return Checkerboard()
    if name == "branch-tree":
        return branch_tree()
    raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")


def sample_dataset(spec: DatasetSpec, rng=None) -> ParticleEnsemble:
    """Draw spec.count particles; deterministic given spec.seed."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    density = spec.mixture if spec.mixture is not None else preset_density(
        spec.preset, spec.dim, spec.shift)
    return ParticleEnsemble(density.sample(spec.count, rng))


def log_pdf(density, x):
    """Exact log-density of ``density`` at x (module-level convenience)."""
    return density.log_pdf(x)


def density_from_spec(spec: dict):
    """Rebuild a Gaussian/mixture from its serialized spec dict."""
    if spec["kind"] == "gaussian":
        return Gaussian(np.asarray(spec["mean"]), np.asarray(spec["cov"]))
    if spec["kind"] == "mixture":
        comps = [density_from_spec(c) for c in spec["components"]]
        return GaussianMixture(np.asarray(spec["weights"]), comps)
    raise ValueError(f"cannot rebuild density of kind {spec['kind']!r}")
