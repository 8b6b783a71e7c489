"""Evaluation metrics plus exact small-instance oracles.

Model NLL on held-out points, moment-matched Gaussian Frechet distance,
exact Wasserstein-2 on small particle sets (assignment solver), unbiased
RBF-kernel MMD with a permutation null, and Monte-Carlo KL. Everything is
a pure function of its inputs and an explicit seed/rng.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from wflow import _kernels
from wflow import chain as flowchain
from wflow import numcore as nc
from wflow.datasets import Gaussian, ParticleEnsemble

W2_MAX_PARTICLES = 512
_MEDIAN_ROW_BLOCK = 256


def _pos(x) -> np.ndarray:
    if isinstance(x, ParticleEnsemble):
        return x.positions
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


@dataclass
class MetricReport:
    """A single metric value with enough context to reproduce it."""

    name: str
    value: float
    sample_sizes: dict = dc_field(default_factory=dict)
    seed: int | None = None
    config: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise nc.NumericError(f"metric {self.name} produced a non-finite value")

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "value": self.value,
            "sample_sizes": self.sample_sizes,
            "seed": self.seed,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True)


def nll_eval(chain, test_set, est=None, rng=None) -> float:
    """Mean negative model log-density over held-out points.

    The caller is responsible for keeping the test set disjoint from
    training data; reports flag this assumption rather than checking it.
    """
    x = _pos(test_set)
    return float(-np.mean(flowchain.log_density(chain, x, est, rng)))


def gauss_fid(ens_a, ens_b, return_details=False):
    """Frechet distance between moment-matched Gaussians of two ensembles.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through the symmetric product S_a^{1/2} S_b S_a^{1/2}
    and eigenvalues clamped at zero (the clamp is flagged in the details).
    """
    a, b = _pos(ens_a), _pos(ens_b)
    d = a.shape[1]
    if len(a) < d + 1 or len(b) < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} points per ensemble")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))

    ev_a, vec_a = np.linalg.eigh(cov_a)
    clamped = bool(np.any(ev_a < 0))
    root_a = (vec_a * np.sqrt(np.clip(ev_a, 0.0, None))) @ vec_a.T
    inner = root_a @ cov_b @ root_a
    ev_m = np.linalg.eigvalsh(inner)
    clamped = clamped or bool(np.any(ev_m < -1e-10))
    trace_root = float(np.sum(np.sqrt(np.clip(ev_m, 0.0, None))))

    value = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b)
                  - 2.0 * trace_root)
    value = max(value, 0.0)
    if return_details:
        return value, {"clamped_eigenvalues": clamped}
    return value


def w2_exact(ens_a, ens_b) -> float:
    """Exact Wasserstein-2 between equal-size empirical measures (m <= 512)."""
    a, b = _pos(ens_a), _pos(ens_b)
    if len(a) != len(b):
        raise ValueError(f"particle counts differ: {len(a)} vs {len(b)}")
    if len(a) > W2_MAX_PARTICLES:
        raise ValueError(f"w2_exact capped at {W2_MAX_PARTICLES} particles, got {len(a)}")
    cost = sq_dists(a, b)
    cols = _kernels.solve_assignment(cost)
    total = float(cost[np.arange(len(a)), cols].sum())
    return float(np.sqrt(total / len(a)))


def sq_dists(a, b) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.clip(aa + bb - 2.0 * (a @ b.T), 0.0, None)


class MmdResult(NamedTuple):
    value: float
    bandwidth: float
    bandwidth_fallback: bool


def median_bandwidth(a, b) -> tuple[float, bool]:
    """Median pairwise distance over the joint sample; falls back to 1.0 at zero.

    The strict upper triangle of the distance matrix is filled into one
    buffer a block of rows at a time, so the full matrix, its temporaries
    and the triangle's index arrays never exist at once.
    """
    joint = np.concatenate([a, b], axis=0)
    total = len(joint)
    upper = np.empty(total * (total - 1) // 2)
    pos = 0
    for r0 in range(0, total, _MEDIAN_ROW_BLOCK):
        r1 = min(r0 + _MEDIAN_ROW_BLOCK, total)
        dists = np.sqrt(sq_dists(joint[r0:r1], joint[r0:]))
        above = np.arange(r0, total)[None, :] > np.arange(r0, r1)[:, None]
        row_major = dists[above]
        upper[pos:pos + row_major.size] = row_major
        pos += row_major.size
    med = float(np.median(upper, overwrite_input=True))
    if med <= 0.0:
        return 1.0, True
    return med, False


def _rbf(sq, bandwidth):
    return np.exp(-sq / (2.0 * bandwidth**2))


def mmd_rbf(ens_a, ens_b, bandwidth="median") -> MmdResult:
    """Unbiased U-statistic estimate of squared MMD with an RBF kernel."""
    a, b = _pos(ens_a), _pos(ens_b)
    m, n = len(a), len(b)
    if m < 2 or n < 2:
        raise ValueError("mmd needs at least two points per ensemble")
    if bandwidth == "median":
        bw, fellback = median_bandwidth(a, b)
    else:
        bw, fellback = float(bandwidth), False
    kxx = _rbf(sq_dists(a, a), bw)
    kyy = _rbf(sq_dists(b, b), bw)
    kxy = _rbf(sq_dists(a, b), bw)
    value = (
        (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
        + (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
        - 2.0 * kxy.mean()
    )
    return MmdResult(float(value), bw, fellback)


def mmd_permutation_null(ens_a, ens_b, n_perms=200, bandwidth="median", rng=None) -> np.ndarray:
    """MMD^2 values under random relabelings of the joint sample."""
    a, b = _pos(ens_a), _pos(ens_b)
    if rng is None:
        rng = np.random.default_rng(0)
    if bandwidth == "median":
        bw, _ = median_bandwidth(a, b)
    else:
        bw = float(bandwidth)
    joint = np.concatenate([a, b], axis=0)
    K = _rbf(sq_dists(joint, joint), bw)
    perms = np.stack([rng.permutation(len(joint)) for _ in range(n_perms)])
    return _kernels.mmd2_permutations(K, len(a), perms)


class KlResult(NamedTuple):
    value: float
    std_err: float
    n_nonfinite: int


def kl_mc(logp, logq, samples_of_p) -> KlResult:
    """Monte-Carlo KL(p||q) = mean(log p - log q) over samples of p.

    Non-finite terms are dropped and counted; more than 0.1% of them
    aborts the estimate.
    """
    x = _pos(samples_of_p)
    terms = np.asarray(logp(x), dtype=np.float64) - np.asarray(logq(x), dtype=np.float64)
    finite = np.isfinite(terms)
    n_bad = int(np.sum(~finite))
    if n_bad > max(1, len(terms)) * 1e-3:
        raise nc.NumericError(f"{n_bad}/{len(terms)} non-finite KL terms")
    good = terms[finite]
    value = float(np.mean(good))
    std_err = float(np.std(good, ddof=1) / np.sqrt(len(good)))
    return KlResult(value, std_err, n_bad)


def moment_fit_kl(ensemble, target: Gaussian) -> float:
    """Closed-form KL of the ensemble's Gaussian moment fit to a Gaussian target."""
    x = _pos(ensemble)
    fit = Gaussian(x.mean(axis=0), np.atleast_2d(np.cov(x, rowvar=False)))
    return fit.kl_to(target)
