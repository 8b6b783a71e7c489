"""The exact metric kernels against references computed independently here."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import sq_dists
from hypothesis import given, settings
from hypothesis import strategies as st

import wflow
from wflow import _kernels


def _assignment_cost(cost, cols):
    return float(cost[np.arange(len(cols)), cols].sum())


def _has_improving_cycle(cost, cols, tol=1e-9):
    """Bellman-Ford over columns: does some cyclic reassignment lower the cost?

    The edge c -> j moves the row held by column c over to column j, at
    cost[row, j] - cost[row, c]. Every other assignment differs from this
    one by disjoint cycles of such moves, so it is optimal exactly when the
    graph has no negative cycle.
    """
    m = len(cols)
    rows = np.empty(m, np.int64)
    rows[cols] = np.arange(m)
    weight = cost[rows, :] - cost[rows, cols[rows]][:, None]
    dist = np.zeros(m)
    for _ in range(m + 1):
        relaxed = np.minimum(dist, (dist[:, None] + weight).min(axis=0))
        if np.all(relaxed > dist - tol):
            return False
        dist = relaxed
    return True


@pytest.mark.parametrize("m", [1, 2, 5, 8, 40, 128])
def test_assignment_has_no_improving_cycle(m):
    rng = np.random.default_rng(m)
    cost = sq_dists(rng.normal(size=(m, 2)), rng.normal(size=(m, 2)) + 0.5)
    cols = _kernels.solve_assignment(cost)
    assert sorted(cols) == list(range(m))
    assert not _has_improving_cycle(cost, cols)
    # the check itself: a swap of two rows of the optimum is caught
    if m >= 2 and cost[0, cols[1]] + cost[1, cols[0]] > cost[0, cols[0]] + cost[1, cols[1]] + 1e-6:
        assert _has_improving_cycle(cost, cols[[1, 0] + list(range(2, m))])


def test_assignment_exhaustive_small():
    rng = np.random.default_rng(99)
    for m in (2, 3, 4, 5, 6):
        cost = rng.uniform(size=(m, m))
        best = min(
            sum(cost[i, p[i]] for i in range(m))
            for p in itertools.permutations(range(m)))
        got = _kernels.solve_assignment(cost)
        assert _assignment_cost(cost, got) == pytest.approx(best, rel=1e-12)


def test_assignment_handles_ties():
    cost = np.zeros((4, 4))
    cols = _kernels.solve_assignment(cost)
    assert sorted(cols) == [0, 1, 2, 3]


def test_assignment_rejects_nonsquare():
    with pytest.raises(ValueError):
        _kernels.solve_assignment(np.zeros((3, 4)))


@pytest.mark.parametrize("m", [1, 2, 5, 64, 512])
def test_assignment_matches_scipy_optimize(m):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(m + 7)
    for cost in (rng.uniform(size=(m, m)),
                 rng.integers(0, 3, size=(m, m)).astype(np.float64)):  # ties
        want = linear_sum_assignment(cost)[1]
        np.testing.assert_array_equal(_kernels.solve_assignment(cost), want)


def test_w2_leaves_the_rest_of_scipy_unimported():
    # a fresh interpreter: this one has scipy.linalg from conftest
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from wflow import metrics\n"
        "rng = np.random.default_rng(0)\n"
        "print(metrics.w2_exact(rng.normal(size=(512, 2)), rng.normal(size=(512, 2)) + 1.0))\n"
        "print(' '.join(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse',\n"
        "                           'scipy.special') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(wflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    w2, loaded = proc.stdout.split("\n")[:2]
    assert 0.5 < float(w2) < 2.0
    assert loaded == ""


def test_missing_solver_names_path_and_scipy_version(monkeypatch, tmp_path):
    from importlib.metadata import version

    path = str(tmp_path / "optimize" / "_lsap.so")
    monkeypatch.setattr(_kernels, "_lsap_path", lambda: path)
    monkeypatch.setattr(_kernels, "_linear_sum_assignment", None)
    with pytest.raises(ImportError) as info:
        _kernels.solve_assignment(np.zeros((2, 2)))
    assert path in str(info.value)
    assert f"scipy {version('scipy')}" in str(info.value)


def _mmd2_ix_reference(K, m, perm):
    ia, ib = perm[:m], perm[m:]
    n = len(ib)
    kxx, kyy, kxy = K[np.ix_(ia, ia)], K[np.ix_(ib, ib)], K[np.ix_(ia, ib)]
    return ((kxx.sum() - np.trace(kxx)) / (m * (m - 1))
            + (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
            - 2.0 * kxy.sum() / (m * n))


@pytest.mark.parametrize("m,n,n_perms", [(30, 25, 20), (2, 9, 5), (17, 40, 1), (64, 3, 33)])
def test_mmd_permutations_match_ix_reference(m, n, n_perms):
    rng = np.random.default_rng(m * 100 + n)
    joint = rng.normal(size=(m + n, 2))
    K = np.exp(-sq_dists(joint, joint) / 2.0)
    perms = np.stack([rng.permutation(m + n) for _ in range(n_perms)])
    got = _kernels.mmd2_permutations(joint, m, perms, 1.0)
    want = [_mmd2_ix_reference(K, m, p) for p in perms]
    assert got.shape == (n_perms,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _mmd2_one_product(K, m, perms):
    """The null with every permutation in one product of the whole kernel matrix.

    The oracle of the streamed kernel, which never holds K.
    """
    K = np.asarray(K, dtype=np.float64)
    perms = np.asarray(perms, dtype=np.int64)
    total, n_perms = K.shape[0], perms.shape[0]
    n = total - m
    A = np.zeros((total, n_perms))
    A[perms[:, :m].T, np.arange(n_perms)] = 1.0
    B = 1.0 - A
    KA = K @ A
    KB = K.sum(axis=1)[:, None] - KA
    diag = np.diag(K)
    sxx = np.einsum("ip,ip->p", A, KA) - diag @ A
    syy = np.einsum("ip,ip->p", B, KB) - diag @ B
    sxy = np.einsum("ip,ip->p", B, KA)
    return sxx / (m * (m - 1)) + syy / (n * (n - 1)) - 2.0 * sxy / (m * n)


def _joint_kernel(total, seed, scale=1.0):
    """(rng, joint points, their RBF kernel matrix at bandwidth 1)."""
    rng = np.random.default_rng(seed)
    joint = rng.normal(size=(total, 2)) * scale
    return rng, joint, np.exp(-sq_dists(joint, joint) / 2.0)


_BLOCK = _kernels._PERM_BLOCK


@settings(deadline=None, max_examples=60)
@given(total=st.integers(4, 300), split=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 3.0]),
       n_perms=st.one_of(st.integers(1, _BLOCK - 1),
                         st.integers(_BLOCK + 1, 3 * _BLOCK).filter(lambda p: p % _BLOCK)))
def test_blocked_null_matches_one_product(total, split, seed, scale, n_perms):
    m = 2 + int(split * (total - 4))
    n = total - m
    rng, joint, K = _joint_kernel(total, seed, scale)
    perms = np.stack([rng.permutation(total) for _ in range(n_perms)])
    got = _kernels.mmd2_permutations(joint, m, perms, 1.0)
    want = _mmd2_one_product(K, m, perms)
    # K @ A sums N terms per entry, and BLAS orders them by the product's
    # shape: two orders differ by at most N eps times the largest row sum
    # R, which the three sums carry through their divisions. Measured on
    # OpenBLAS over 300 random cases: within 0.7 of this tolerance's unit
    # (without the factor N), bit for bit in about half and at N = 800.
    row_sum = K.sum(axis=1).max()
    tol = total * np.finfo(float).eps * row_sum * (1 / (m - 1) + 1 / (n - 1) + 2 / m)
    assert got.shape == want.shape == (n_perms,)
    assert np.all(np.abs(got - want) <= tol)


def test_blocked_null_bit_identical_at_benchmark_size():
    # the two-sample-eval workload: 400 points per side, 200 permutations
    rng, joint, K = _joint_kernel(800, 23)
    perms = np.stack([rng.permutation(800) for _ in range(200)])
    assert (_kernels.mmd2_permutations(joint, 400, perms, 1.0).tobytes()
            == _mmd2_one_product(K, 400, perms).tobytes())


def test_mmd_permutation_identity_matches_direct_ustat():
    from wflow.metrics import mmd_rbf

    rng = np.random.default_rng(8)
    a = rng.normal(size=(40, 2))
    b = rng.normal(size=(35, 2)) + 0.3
    res = mmd_rbf(a, b)
    joint = np.concatenate([a, b])
    identity = np.arange(len(joint), dtype=np.int64)[None, :]
    out = _kernels.mmd2_permutations(joint, len(a), identity, res.bandwidth)
    assert out[0] == pytest.approx(res.value, abs=1e-12)


def test_null_bit_identical_to_whole_kernel_at_benchmark_size():
    # the two-sample-eval workload's null, against one product of the whole
    # kernel matrix at the median bandwidth and the same permutations
    from wflow import metrics

    rng = np.random.default_rng(31)
    a, b = rng.normal(size=(400, 2)) + [0.3, 0.0], rng.normal(size=(400, 2))
    got = metrics.mmd_permutation_null(a, b, 200, rng=np.random.default_rng(32))
    joint = np.concatenate([a, b])
    bw = metrics.median_bandwidth(a, b)[0]
    K = np.exp(-sq_dists(joint, joint) / (2.0 * bw**2))
    perm_rng = np.random.default_rng(32)
    perms = np.stack([perm_rng.permutation(800) for _ in range(200)])
    assert got.tobytes() == _mmd2_one_product(K, 400, perms).tobytes()
