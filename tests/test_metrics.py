"""Metric values against closed forms and exhaustive small-instance oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import gaussian_kl, sq_dists
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wflow import _kernels
from wflow import chain as fc
from wflow import datasets as ds
from wflow import metrics
from wflow import numcore as nc


# --- nll_eval ----------------------------------------------------------------

def test_nll_identity_chain_at_origin():
    chn = fc.identity_chain(2, 1, steps=2)
    assert metrics.nll_eval(chn, np.zeros((3, 2))) == pytest.approx(np.log(2 * np.pi))


def test_nll_matches_gaussian_entropy():
    chn = fc.identity_chain(2, 1, steps=2)
    x = ds.standard_gaussian(2).sample(10_000, np.random.default_rng(0))
    entropy = 1 + np.log(2 * np.pi)
    assert metrics.nll_eval(chn, x) == pytest.approx(entropy, abs=0.05)


def test_nll_of_one_point_is_minus_its_log_density():
    # a 1-D array is one d-dimensional point, as log_density reads it
    chn = fc.identity_chain(2, 2, steps=2, widths=(4,))
    rng = np.random.default_rng(5)
    for block in chn.blocks:
        block.field.layers[-1].w += 0.3 * rng.normal(size=block.field.layers[-1].w.shape)
    x = np.array([0.3, -0.7])
    assert metrics.nll_eval(chn, x) == -fc.log_density(chn, x)


# --- gauss_fid ---------------------------------------------------------------

def test_fid_identical_ensembles_zero():
    x = np.random.default_rng(1).normal(size=(100, 2))
    assert metrics.gauss_fid(x, x) == pytest.approx(0.0, abs=1e-12)


def test_fid_mean_shift():
    rng = np.random.default_rng(2)
    a = ds.standard_gaussian(2).sample(40_000, rng)
    b = ds.Gaussian([1.0, 0.0], np.eye(2)).sample(40_000, rng)
    assert metrics.gauss_fid(a, b) == pytest.approx(1.0, abs=0.05)


def test_fid_scalar_variance():
    rng = np.random.default_rng(3)
    a = ds.standard_gaussian(1).sample(40_000, rng)
    b = ds.Gaussian([0.0], [[4.0]]).sample(40_000, rng)
    # scalar Frechet formula gives (sigma_a - sigma_b)^2 = 1
    assert metrics.gauss_fid(a, b) == pytest.approx(1.0, abs=0.05)


def test_fid_symmetry():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(300, 3))
    b = rng.normal(size=(300, 3)) @ np.diag([1.0, 2.0, 0.5]) + 1.0
    assert metrics.gauss_fid(a, b) == pytest.approx(metrics.gauss_fid(b, a), abs=1e-10)


def test_fid_closed_form_full_covariance():
    # population-level formula on exactly matched moments
    rng = np.random.default_rng(5)
    cov_a = np.array([[2.0, 0.5], [0.5, 1.0]])
    cov_b = np.array([[1.0, -0.2], [-0.2, 0.7]])
    mu_a, mu_b = np.array([1.0, 0.0]), np.array([-0.5, 2.0])
    a = ds.Gaussian(mu_a, cov_a).sample(400_000, rng)
    b = ds.Gaussian(mu_b, cov_b).sample(400_000, rng)
    # reference via eigvals of cov_a^{1/2} cov_b cov_a^{1/2}
    ev_a, vec_a = np.linalg.eigh(cov_a)
    sqrt_a = (vec_a * np.sqrt(ev_a)) @ vec_a.T
    middle = sqrt_a @ cov_b @ sqrt_a
    want = (np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b)
            - 2 * np.sum(np.sqrt(np.linalg.eigvalsh(middle))))
    assert metrics.gauss_fid(a, b) == pytest.approx(want, abs=0.02)


def test_fid_rank_deficient_flagged():
    a = np.zeros((10, 2))
    a[:, 0] = np.arange(10.0)  # second coordinate constant: singular covariance
    b = np.random.default_rng(6).normal(size=(50, 2))
    value = metrics.gauss_fid(a, b)
    assert np.isfinite(value) and value >= 0.0


def test_fid_requires_enough_points():
    with pytest.raises(ValueError):
        metrics.gauss_fid(np.zeros((2, 2)), np.zeros((10, 2)))


# --- w2_exact ----------------------------------------------------------------

def test_w2_single_pair():
    assert metrics.w2_exact(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_w2_two_points_1d():
    assert metrics.w2_exact(np.array([0.0, 1.0]), np.array([2.0, 3.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_w2_equals_exhaustive_permutation_minimum(m):
    rng = np.random.default_rng(m)
    a, b = rng.normal(size=(m, 2)), rng.normal(size=(m, 2))
    cost = sq_dists(a, b)
    brute = min(
        sum(cost[i, perm[i]] for i in range(m))
        for perm in itertools.permutations(range(m)))
    assert metrics.w2_exact(a, b) == pytest.approx(np.sqrt(brute / m), abs=1e-12)


@pytest.mark.parametrize("m", [3, 100, 512])
def test_w2_1d_equals_sorted_matching(m):
    # in one dimension the monotone (sorted) coupling is optimal
    rng = np.random.default_rng(m)
    a, b = rng.normal(size=m), rng.standard_t(3, size=m) + 0.7
    want = np.sqrt(np.mean((np.sort(a) - np.sort(b)) ** 2))
    assert metrics.w2_exact(a, b) == pytest.approx(want, rel=1e-12)


def test_w2_gaussian_mean_shift():
    rng = np.random.default_rng(8)
    a = ds.standard_gaussian(1).sample(512, rng)
    b = ds.Gaussian([2.0], [[1.0]]).sample(512, rng)
    assert metrics.w2_exact(a, b) == pytest.approx(2.0, abs=0.15)


def test_w2_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.normal(size=(16, 2))
        b = rng.normal(size=(16, 2)) + 1.0
        c = rng.normal(size=(16, 2)) - 0.5
        ab = metrics.w2_exact(a, b)
        bc = metrics.w2_exact(b, c)
        ac = metrics.w2_exact(a, c)
        assert ac <= ab + bc + 1e-12


def test_w2_validation():
    with pytest.raises(ValueError):
        metrics.w2_exact(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        metrics.w2_exact(np.zeros((600, 2)), np.zeros((600, 2)))
    with pytest.raises(ValueError, match="at least one particle"):
        metrics.w2_exact(np.zeros((0, 2)), np.zeros((0, 2)))


# --- mmd ----------------------------------------------------------------------

def test_mmd_same_distribution_within_null():
    rng = np.random.default_rng(10)
    x = ds.standard_gaussian(2).sample(400, rng)
    res = metrics.mmd_rbf(x[:200], x[200:])
    null = metrics.mmd_permutation_null(x[:200], x[200:], 200, rng=rng)
    assert abs(res.value) <= 3 * null.std() + abs(null.mean())


def test_mmd_separated_distributions():
    rng = np.random.default_rng(11)
    a = ds.standard_gaussian(2).sample(200, rng)
    b = ds.Gaussian([3.0, 0.0], np.eye(2)).sample(200, rng)
    res = metrics.mmd_rbf(a, b)
    null = metrics.mmd_permutation_null(a, b, 200, rng=rng)
    assert res.value > 10 * null.std()


def test_mmd_infinite_bandwidth_vanishes():
    # the null's kernel, the one path that still takes a bandwidth: at an
    # effectively infinite one every kernel value is 1, so every
    # relabeling's MMD^2 vanishes
    rng = np.random.default_rng(12)
    joint = np.concatenate([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + 5])
    perms = np.stack([np.arange(100)] + [rng.permutation(100) for _ in range(4)])
    assert np.abs(_kernels.mmd2_permutations(joint, 50, perms, 1e9)).max() <= 1e-12


def test_mmd_zero_median_fallback():
    a = np.zeros((10, 2))
    b = np.zeros((10, 2))
    res = metrics.mmd_rbf(a, b)
    assert res.bandwidth == 1.0
    assert res.bandwidth_fallback


@pytest.mark.parametrize("total", [2, 3, 255, 256, 257, 600])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_median_bandwidth_matches_full_triangle(total, d):
    # the row-blocked buffer holds exactly the strict upper triangle
    rng = np.random.default_rng(total * 10 + d)
    joint = rng.normal(size=(total, d))
    split = total // 2
    dists = np.sqrt(sq_dists(joint, joint))
    want = float(np.median(dists[np.triu_indices(total, k=1)]))
    assert metrics.median_bandwidth(joint[:split], joint[split:]) == (want, False)


# The kernels stream the squared distances in row blocks; the references below
# reduce over whole matrices or the whole triangle.

def _full_triangle_median(joint):
    # np.median over the strict upper triangle of the kernel's own squared
    # distances: BLAS may sum a @ b.T for a whole matrix in another order
    # than for a row block, and a whole-matrix reference then differs from
    # the kernel in the last bit (d=4, `grid` points at scale 1e-3)
    upper = [blk[np.triu_indices(len(blk), 1, blk.shape[1])] for blk in metrics._row_blocks(joint)]
    med = float(np.median(np.sqrt(np.concatenate(upper))))
    return (1.0, True) if med <= 0.0 else (med, False)


def _joint_sample(kind, total, d, seed, scale):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        joint = rng.normal(size=(total, d))
    elif kind == "grid":  # few distinct values: duplicate points and tied distances
        joint = rng.integers(0, 4, size=(total, d)).astype(float)
    elif kind == "bin_edges":
        # integer coordinates in [0, 6) on one axis, constant on the others:
        # every squared distance is a square up to 25, whose float64 pattern
        # has at most 4 mantissa bits, so it sits exactly on a bin edge
        joint = np.zeros((total, d))
        joint[:, 0] = rng.integers(0, 6, size=total)
    elif kind == "outliers":  # a few far points: bins must not depend on the span
        joint = rng.normal(size=(total, d))
        joint[rng.integers(total, size=2)] *= 1e4
    elif kind == "zero_span":
        joint = rng.normal(size=(total, d))
        joint[:, rng.integers(d)] = 2.5
    elif kind == "duplicates":
        distinct = rng.normal(size=(max(1, total // 8), d))
        joint = distinct[rng.integers(len(distinct), size=total)]
    else:  # all points equal: the median is zero, or round-off above it
        joint = np.tile(rng.normal(size=d), (total, 1))
    return joint * scale


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(["normal", "grid", "bin_edges", "outliers", "zero_span",
                             "duplicates", "equal"]),
       total=st.one_of(st.integers(2, 140), st.sampled_from([63, 64, 65, 127, 128, 129])),
       d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-3, 1e3, 1e-155]),
       split=st.floats(0.0, 1.0))
@example(kind="grid", total=127, d=4, seed=4, scale=1e-3, split=0.0)
def test_median_bandwidth_bit_identical_to_np_median(kind, total, d, seed, scale, split):
    joint = _joint_sample(kind, total, d, seed, scale)
    k = int(split * total)
    assert metrics.median_bandwidth(joint[:k], joint[k:]) == _full_triangle_median(joint)


@pytest.mark.parametrize("kind", ["normal", "grid", "outliers", "duplicates", "equal"])
@pytest.mark.parametrize("scale", [1.0, 1e-155, 1e160])
def test_sq_dists_in_place_bit_identical_to_formula(kind, scale):
    # the kernels' in-place build against clip(|a|^2 + |b|^2 - 2 a b^T, 0),
    # NaN and inf included
    joint = _joint_sample(kind, 130, 3, 5, scale)
    joint[7, 1] = np.nan
    a, b = joint[:70], joint[40:]
    with np.errstate(over="ignore", invalid="ignore"):
        want = sq_dists(a, b)
        b_sq = np.sum(b * b, axis=1)
        out = np.empty((len(a), len(b)))
        assert _kernels._sq_dists(a, b, b_sq, None).tobytes() == want.tobytes()
        assert _kernels._sq_dists(a, b, b_sq, out) is out
    assert out.tobytes() == want.tobytes()


def test_median_bandwidth_stops_below_the_next_bins_first_value():
    # squared distances 1, 16 and 17: the median 16 opens its bin and 17,
    # 16 (1 + 1/16), opens the next one, so 17 is the bound the second pass
    # must exclude
    joint = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0]])
    assert metrics.median_bandwidth(joint[:1], joint[1:]) == (4.0, False)


def test_median_bandwidth_all_equal_points_fall_back():
    assert metrics.median_bandwidth(np.full((70, 2), 0.5), np.full((3, 2), 0.5)) == (1.0, True)


def _full_mmd(a, b, bw):
    m, n = len(a), len(b)
    kxx = np.exp(-sq_dists(a, a) / (2.0 * bw**2))
    kyy = np.exp(-sq_dists(b, b) / (2.0 * bw**2))
    kxy = np.exp(-sq_dists(a, b) / (2.0 * bw**2))
    return ((kxx.sum() - np.trace(kxx)) / (m * (m - 1))
            + (kyy.sum() - np.trace(kyy)) / (n * (n - 1)) - 2.0 * kxy.mean())


@pytest.mark.parametrize("m, n", [(m, n) for m in (2, 63, 64, 65) for n in (2, 63, 64, 65)
                                  if m != n])
@pytest.mark.parametrize("bandwidth", ["median", 0.4])
def test_mmd_matches_full_matrix_formula(m, n, bandwidth):
    # the median through mmd_rbf; a fixed bandwidth through the null's kernel,
    # which alone still takes one, at the identity relabeling
    rng = np.random.default_rng(m * 100 + n)
    a, b = rng.normal(size=(m, 3)), rng.normal(size=(n, 3)) + 0.3
    if bandwidth == "median":
        res = metrics.mmd_rbf(a, b)
        bw = _full_triangle_median(np.concatenate([a, b]))[0]
        assert res.bandwidth == bw
        value = res.value
    else:
        bw = bandwidth
        identity = np.arange(m + n)[None, :]
        value = _kernels.mmd2_permutations(np.concatenate([a, b]), m, identity, bw)[0]
    assert abs(value - _full_mmd(a, b, bw)) <= 1e-12


@pytest.mark.parametrize("m, n", [(2, 3), (63, 65), (64, 64), (100, 165)])
def test_mmd_permutation_null_bit_identical_to_full_kernel(m, n):
    # the median bandwidth and rng.permutation's draws, handed to the kernel
    rng = np.random.default_rng(m + n)
    a, b = rng.normal(size=(m, 2)), rng.normal(size=(n, 2)) + 0.5
    got = metrics.mmd_permutation_null(a, b, 30, rng=np.random.default_rng(7))
    joint = np.concatenate([a, b])
    bw = _full_triangle_median(joint)[0]
    perm_rng = np.random.default_rng(7)
    perms = np.stack([perm_rng.permutation(m + n) for _ in range(30)])
    assert got.tobytes() == _kernels.mmd2_permutations(joint, m, perms, bw).tobytes()


def test_nan_input_gives_nan_bandwidth_and_values():
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(70, 2)), rng.normal(size=(66, 2))
    a[5, 1] = np.nan
    bw, fellback = metrics.median_bandwidth(a, b)
    assert np.isnan(bw) and fellback is False
    res = metrics.mmd_rbf(a, b)
    assert np.isnan(res.value) and np.isnan(res.bandwidth) and not res.bandwidth_fallback
    assert np.isnan(metrics.mmd_permutation_null(a, b, 5)).all()


@pytest.mark.parametrize("sizes", [(1, 6), (5, 1)])
@pytest.mark.parametrize("kernel", ["mmd_rbf", "mmd_permutation_null"])
def test_mmd_needs_two_points_per_side(kernel, sizes):
    rng = np.random.default_rng(19)
    a, b = rng.normal(size=(sizes[0], 2)), rng.normal(size=(sizes[1], 2))
    with pytest.raises(ValueError, match="at least two points per ensemble"):
        getattr(metrics, kernel)(a, b)


@pytest.mark.parametrize("n_perms", [0, -3])
def test_null_needs_a_permutation(n_perms):
    rng = np.random.default_rng(20)
    with pytest.raises(ValueError, match="n_perms"):
        metrics.mmd_permutation_null(rng.normal(size=(6, 2)), rng.normal(size=(5, 2)), n_perms)


@pytest.mark.parametrize("outliers", [False, True])
@pytest.mark.parametrize("kernel", ["mmd_rbf", "median_bandwidth"])
def test_pairwise_kernels_hold_no_quadratic_buffer(kernel, outliers):
    # a 4096-point joint sample: its N(N-1)/2 distances alone are 64 MiB
    rng = np.random.default_rng(18)
    a, b = rng.normal(size=(2048, 2)), rng.normal(size=(2048, 2)) + 1.0
    if outliers:  # two far points stretch the sample's bounding box 10^4-fold
        b[:2] *= 1e4
    tracemalloc.start()
    try:
        getattr(metrics, kernel)(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _budget_case(kernel):
    """(call, budget in bytes) at the sizes the CLI eval and the benchmark use."""
    rng = np.random.default_rng(22)
    if kernel in ("median_bandwidth", "mmd_rbf"):
        a, b = rng.normal(size=(2048, 2)), rng.normal(size=(2048, 2)) + 1.0
        return lambda: getattr(metrics, kernel)(a, b), 3.5 * 2**20
    if kernel == "w2_exact":
        a, b = rng.normal(size=(512, 2)), rng.normal(size=(512, 2)) + 1.0
        metrics.w2_exact(a[:4], b[:4])  # loads the solver outside the traced call
        return lambda: metrics.w2_exact(a, b), 2.5 * 2**20
    a, b = rng.normal(size=(400, 2)) + 0.3, rng.normal(size=(400, 2))
    return (lambda: metrics.mmd_permutation_null(a, b, 200, rng=np.random.default_rng(1)),
            4 * 2**20)


# Each budget sits at least a third of a MiB above the tracemalloc peak measured
# with numpy 2.4: 2.97 MiB for the median and mmd_rbf, 2.13 MiB for W2, and
# 2.66 MiB for the null, which holds no (N, N) kernel matrix (4.88 MiB here).
@pytest.mark.parametrize("kernel", ["median_bandwidth", "mmd_rbf", "w2_exact",
                                    "mmd_permutation_null"])
def test_pairwise_kernels_stay_within_budget(kernel):
    call, budget = _budget_case(kernel)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


# --- kl_mc ----------------------------------------------------------------------

def test_kl_same_density_near_zero():
    p = ds.standard_gaussian(2)
    res = metrics.kl_mc(p.log_pdf, p.log_pdf, p.sample(5000, np.random.default_rng(13)))
    assert res.value == 0.0


def test_kl_mean_shift():
    p = ds.standard_gaussian(1)
    q = ds.Gaussian([1.0], [[1.0]])
    res = metrics.kl_mc(p.log_pdf, q.log_pdf, p.sample(10_000, np.random.default_rng(14)))
    assert res.value == pytest.approx(0.5, abs=0.02)


def test_kl_variance_ratio():
    p = ds.standard_gaussian(1)
    q = ds.Gaussian([0.0], [[4.0]])
    res = metrics.kl_mc(p.log_pdf, q.log_pdf, p.sample(10_000, np.random.default_rng(15)))
    assert res.value == pytest.approx(0.5 * (0.25 - 1 + np.log(4)), abs=0.02)


@pytest.mark.parametrize("seed", range(20))
def test_kl_matches_closed_form_within_three_se(seed):
    rng = np.random.default_rng(1000 + seed)
    d = int(rng.integers(1, 4))
    mean_p, mean_q = rng.normal(size=d), rng.normal(size=d)
    cov_p = np.diag(rng.uniform(0.5, 2.0, size=d))
    cov_q = np.diag(rng.uniform(0.5, 2.0, size=d))
    p = ds.Gaussian(mean_p, cov_p)
    q = ds.Gaussian(mean_q, cov_q)
    res = metrics.kl_mc(p.log_pdf, q.log_pdf, p.sample(20_000, rng))
    want = gaussian_kl(mean_p, cov_p, mean_q, cov_q)
    assert abs(res.value - want) <= 3 * res.std_err


def test_kl_aborts_on_many_nonfinite():
    p = ds.standard_gaussian(1)

    def broken_logq(x):
        out = p.log_pdf(x)
        out[::2] = np.nan
        return out

    with pytest.raises(nc.NumericError):
        metrics.kl_mc(p.log_pdf, broken_logq, p.sample(1000, np.random.default_rng(16)))


# --- report -------------------------------------------------------------------

def test_metric_report_rejects_nonfinite():
    with pytest.raises(nc.NumericError):
        metrics.MetricReport("bad", float("nan"))


def test_kl_mc_mixture_pair_against_quadrature():
    # dense-grid quadrature as the independent oracle for the mixture KL
    p, q = ds.fig10_p(), ds.fig10_q()
    xs = np.linspace(-7.0, 4.5, 581)
    ys = np.linspace(-7.5, 6.5, 701)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    logp, logq = p.log_pdf(pts), q.log_pdf(pts)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert np.exp(logp).sum() * cell == pytest.approx(1.0, abs=1e-4)
    kl_quad = float(np.sum(np.exp(logp) * (logp - logq)) * cell)
    res = metrics.kl_mc(p.log_pdf, q.log_pdf, p.sample(20_000, np.random.default_rng(3)))
    assert abs(res.value - kl_quad) <= 3 * res.std_err
