"""Evaluation metrics plus exact small-instance oracles.

Model NLL on held-out points, moment-matched Gaussian Frechet distance,
exact Wasserstein-2 on small particle sets (assignment solver), unbiased
RBF-kernel MMD with a permutation null, and Monte-Carlo KL. Everything is
a pure function of its inputs and an explicit seed/rng.

The pairwise kernels (median bandwidth, MMD, W2's cost, the null's joint
kernel matrix) build the squared distances in blocks of 32 rows and keep
only what they reduce to: none holds an (m, n) or (N, N) temporary that it
only sums over, and none a whole a @ b.T. On 2048 + 2048 points in d=2 the
tracemalloc peak of `mmd_rbf` and of `median_bandwidth` is 2.9 MiB (160 and
96 MiB with full matrices). W2 keeps its (m, m) cost, which the assignment
reads whole (2.1 MiB peak at m = 512). The permutation null keeps its
(perms, N) permutations and no kernel matrix: it scores blocks of
permutations, and each block rebuilds K a row block at a time. At 400 + 400
points and 200 permutations its peak is 2.7 MiB, where the whole K alone
was 4.9 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from wflow import _kernels
from wflow._kernels import _ROW_BLOCK, _rbf, _sq_dists
from wflow import chain as flowchain
from wflow import numcore as nc
from wflow.datasets import Gaussian, ParticleEnsemble, as_positions

# scipy's assignment on the eval distributions (N((1.5, 0), I) against N(0, I),
# d=2, one BLAS thread, 2-core x86-64 host) takes about 0.15 s at 512 points,
# 1.3 s at 1024 and 9 s at 2048: the cubic solve, not memory, sets the cap
W2_MAX_PARTICLES = 512
_LOWER = np.tril(np.ones((_ROW_BLOCK, _ROW_BLOCK), dtype=bool))
# median_bandwidth bins a squared distance by the top bits of its float64
# pattern (exponent and 4 mantissa bits): for non-negative doubles the bins
# are ordered like the values and about 6% wide relative to them, at any
# scale. Finite values fill bins below 0x7FF0; the last bin marks entries
# outside the strict upper triangle.
_MEDIAN_SHIFT = 48
_MEDIAN_BINS = 1 << (63 - _MEDIAN_SHIFT)


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


def nll_eval(chain, test_set) -> float:
    """Mean negative model log-density over held-out points.

    The caller is responsible for keeping the test set disjoint from
    training data; reports flag this assumption rather than checking it.
    A 1-D array is one point, as in ``chain.log_density``.
    """
    x = test_set.positions if isinstance(test_set, ParticleEnsemble) else test_set
    return float(-np.mean(flowchain.log_density(chain, x)))


def gauss_fid(ens_a, ens_b) -> float:
    """Frechet distance between moment-matched Gaussians of two ensembles.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through the symmetric product S_a^{1/2} S_b S_a^{1/2}
    and eigenvalues clamped at zero.
    """
    a, b = as_positions(ens_a), as_positions(ens_b)
    d = a.shape[1]
    if len(a) < d + 1 or len(b) < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} points per ensemble")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b, rowvar=False))

    ev_a, vec_a = np.linalg.eigh(cov_a)
    root_a = (vec_a * np.sqrt(np.clip(ev_a, 0.0, None))) @ vec_a.T
    inner = root_a @ cov_b @ root_a
    ev_m = np.linalg.eigvalsh(inner)
    trace_root = float(np.sum(np.sqrt(np.clip(ev_m, 0.0, None))))

    value = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b)
                  - 2.0 * trace_root)
    return max(value, 0.0)


def w2_exact(ens_a, ens_b) -> float:
    """Exact Wasserstein-2 between equal-size empirical measures (1 <= m <= 512).

    The (m, m) cost is filled in place a row block at a time.
    """
    a, b = as_positions(ens_a), as_positions(ens_b)
    if len(a) != len(b):
        raise ValueError(f"particle counts differ: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("w2_exact needs at least one particle per ensemble")
    if len(a) > W2_MAX_PARTICLES:
        raise ValueError(f"w2_exact capped at {W2_MAX_PARTICLES} particles, got {len(a)}")
    cost = _pairwise_matrix(a, b)
    cols = _kernels.solve_assignment(cost)
    total = float(cost[np.arange(len(a)), cols].sum())
    return float(np.sqrt(total / len(a)))


def _pairwise_matrix(a, b):
    """The squared distances of a to b, filled _ROW_BLOCK rows at a time.

    The only temporary is one row block of a @ b.T, not the whole product.
    """
    out = np.empty((len(a), len(b)))
    b_sq = np.sum(b * b, axis=1)
    for r0 in range(0, len(a), _ROW_BLOCK):
        _sq_dists(a[r0:r0 + _ROW_BLOCK], b, b_sq, out[r0:r0 + _ROW_BLOCK])
    return out


def _row_blocks(a, b=None):
    """Yield the squared distances of a to b in blocks of _ROW_BLOCK rows of a.

    Against b, every block covers all of b's columns. Without b, the blocks
    cover the upper triangle of a against itself: rows r0:r0+B against
    columns r0:, so each block's leading square holds its diagonal. The
    columns' squared norms are computed once, not once per block.
    """
    cols = a if b is None else b
    cols_sq = np.sum(cols * cols, axis=1)
    for r0 in range(0, len(a), _ROW_BLOCK):
        c0 = r0 if b is None else 0
        yield _sq_dists(a[r0:r0 + _ROW_BLOCK], cols[c0:], cols_sq[c0:], None)


def _drop_lower(block, fill):
    """Overwrite an upper-triangle block's entries on and below the diagonal."""
    rows = len(block)
    block[:, :rows][_LOWER[:rows, :rows]] = fill


class MmdResult(NamedTuple):
    value: float
    bandwidth: float
    bandwidth_fallback: bool


def median_bandwidth(a, b) -> tuple[float, bool]:
    """Median pairwise distance over the joint sample; falls back to 1.0 at zero.

    Exact, without the N(N-1)/2 buffer of the strict upper triangle: two
    passes over its row blocks. The first counts the squared distances per
    bin (see _MEDIAN_SHIFT), shifting each block's bit pattern in place. The
    second copies out only the values in the bins that hold ranks (n-1)//2
    and n//2, found by comparing against the bins' float bounds, into one
    array sized from the counts, and selects those two ranks. sqrt is
    monotone, so the mean of their square roots is np.median of the
    distances, bit for bit. Each pass drops its block before it builds the
    next, and the counts go before the second pass, so at most one block,
    the next one's a @ b.T and the kept values are alive. Non-finite input,
    or squared distances that overflow, give a NaN bandwidth.
    """
    joint = np.concatenate([a, b], axis=0)
    n_pairs = len(joint) * (len(joint) - 1) // 2
    if n_pairs == 0:
        return float("nan"), False

    counts = np.zeros(_MEDIAN_BINS, dtype=np.int64)
    for sq in _row_blocks(joint):
        if not np.isfinite(sq.max()):
            return float("nan"), False
        bins = sq.view(np.int64)
        bins >>= _MEDIAN_SHIFT
        _drop_lower(bins, _MEDIAN_BINS - 1)
        counts += np.bincount(bins.ravel(), minlength=_MEDIAN_BINS)
        # drop the block before the next one is built beside its a @ b.T
        del sq, bins
    lo, hi = (n_pairs - 1) // 2, n_pairs // 2
    cum = np.cumsum(counts)
    b_lo, b_hi = np.searchsorted(cum, [lo, hi], side="right")
    below = cum[b_lo] - counts[b_lo]
    # non-negative doubles order like their bit patterns, so bins b_lo..b_hi
    # hold exactly the values in [floor, ceil); ceil is inf when b_hi is the
    # last finite bin
    floor, ceil = (np.array([b_lo, b_hi + 1], dtype=np.int64) << _MEDIAN_SHIFT).view(np.float64)
    kept = np.empty(cum[b_hi] - below)
    del counts, cum
    start = 0
    for sq in _row_blocks(joint):
        _drop_lower(sq, -1.0)
        inside = sq >= floor
        inside &= sq < ceil
        values = sq[inside]
        kept[start:start + len(values)] = values
        start += len(values)
        del sq, inside, values
    ranks = [lo - below, hi - below]
    kept.partition(ranks)
    med = float(np.mean(np.sqrt(kept[ranks])))
    if med <= 0.0:
        return 1.0, True
    return med, False


def _kernel_sum(a, b, bandwidth) -> float:
    """Sum of the RBF kernel over a x b; without b, over the pairs i != j of a."""
    total = 0.0
    for sq in _row_blocks(a, b):
        k = _rbf(sq, bandwidth)
        if b is None:
            _drop_lower(k, 0.0)
        total += float(k.sum())
    return total if b is not None else 2.0 * total


def _two_samples(ens_a, ens_b):
    a, b = as_positions(ens_a), as_positions(ens_b)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("mmd needs at least two points per ensemble")
    return a, b


def mmd_rbf(ens_a, ens_b) -> MmdResult:
    """Unbiased U-statistic estimate of squared MMD with an RBF kernel at the
    median-heuristic bandwidth.

    The within-sample sums run over the upper triangles and the cross sum
    over a x b, each streamed in row blocks: no kernel matrix is built.
    """
    a, b = _two_samples(ens_a, ens_b)
    m, n = len(a), len(b)
    bw, fellback = median_bandwidth(a, b)
    value = (
        _kernel_sum(a, None, bw) / (m * (m - 1))
        + _kernel_sum(b, None, bw) / (n * (n - 1))
        - 2.0 * _kernel_sum(a, b, bw) / (m * n)
    )
    return MmdResult(float(value), bw, fellback)


def mmd_permutation_null(ens_a, ens_b, n_perms=200, rng=None) -> np.ndarray:
    """MMD^2 values under random relabelings of the joint sample, at the
    median-heuristic bandwidth.

    The permutations, drawn into one (n_perms, N) array, are scored a block
    of permutations at a time against the joint kernel matrix K, which each
    block rebuilds a row block at a time: K is never held whole.
    """
    a, b = _two_samples(ens_a, ens_b)
    if n_perms < 1:
        raise ValueError(f"n_perms must be at least 1, got {n_perms}")
    if rng is None:
        rng = np.random.default_rng(0)
    bw, _ = median_bandwidth(a, b)
    joint = np.concatenate([a, b], axis=0)
    # rng.permutation(N) shuffles arange(N): the same draws, made in place
    perms = np.empty((n_perms, len(joint)), dtype=np.int64)
    perms[:] = np.arange(len(joint))
    for row in perms:
        rng.shuffle(row)
    return _kernels.mmd2_permutations(joint, len(a), perms, bw)


class KlResult(NamedTuple):
    value: float
    std_err: float
    n_nonfinite: int


def kl_mc(logp, logq, samples_of_p) -> KlResult:
    """Monte-Carlo KL(p||q) = mean(log p - log q) over samples of p.

    Non-finite terms are dropped and counted; more than 0.1% of them
    aborts the estimate.
    """
    x = as_positions(samples_of_p)
    if len(x) < 2:
        raise ValueError(f"samples_of_p needs at least 2 samples for a standard error, "
                         f"got {len(x)}")
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
    x = as_positions(ensemble)
    fit = Gaussian(x.mean(axis=0), np.atleast_2d(np.cov(x, rowvar=False)))
    return fit.kl_to(target)
