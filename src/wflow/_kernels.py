"""Exact metric kernels: the assignment behind W2 and the MMD permutation null.

One exact path per kernel. The assignment is scipy's compiled
``linear_sum_assignment`` extension, ``scipy/optimize/_lsap``, loaded on its
own on the first call: importing ``scipy.optimize`` would pull in about 320
scipy modules (linalg, sparse, special) that W2 never uses, and code that
never computes W2 loads nothing from scipy. The permutation null is a BLAS
product of the joint kernel matrix with a 0/1 indicator matrix, taken one
block of permutations at a time; the kernel matrix is rebuilt a row block
at a time for each block and never held whole.
"""

from __future__ import annotations

import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

# kept for callers that record which kernel path ran; there is only one now
NUMBA_ENABLED = False

_LSAP = "scipy.optimize._lsap"
# most permutations the null scores per product: every block rebuilds all of
# K, and each block holds two (N, block) arrays
_PERM_BLOCK = 80
# rows of the pairwise squared distances a kernel builds at once
_ROW_BLOCK = 32
_linear_sum_assignment = None


def _lsap_path() -> str:
    """Where scipy keeps its compiled assignment extension; imports nothing."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("exact W2 needs scipy, which is not installed")
    return os.path.join(spec.submodule_search_locations[0], "optimize",
                        "_lsap" + EXTENSION_SUFFIXES[0])


def _load_lsap():
    # on a 2-core x86-64 host `import scipy.optimize` takes 0.5-0.6 s and ~49 MB;
    # this extension alone, the same C solver, under 1 ms and ~0.03 MB
    path = _lsap_path()
    if not os.path.isfile(path):
        # importlib.metadata takes ~30 ms to import; only this error needs it
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no compiled assignment "
                          f"solver at {path}")
    loader = ExtensionFileLoader(_LSAP, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_LSAP, path, loader=loader))
    loader.exec_module(module)
    return module.linear_sum_assignment


def solve_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row, minimizing the total cost. Square input."""
    global _linear_sum_assignment
    if _linear_sum_assignment is None:
        _linear_sum_assignment = _load_lsap()
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    return _linear_sum_assignment(cost)[1]


def _sq_dists(a, b, b_sq, out):
    """Pairwise squared distances clip(|a|^2 + |b|^2 - 2 a b^T, 0), given b_sq = |b|^2.

    Built in place in ``out`` (or one fresh array) with a @ b.T the only
    temporary; the row-block kernels compute b_sq once per call.
    """
    t = np.add(np.sum(a * a, axis=1)[:, None], b_sq[None, :], out=out)
    ab = a @ b.T
    ab *= 2.0
    t -= ab
    return np.maximum(t, 0.0, out=t)


def _rbf(sq, bandwidth):
    """exp(-sq / (2 bandwidth^2)), overwriting sq."""
    np.negative(sq, out=sq)
    sq /= 2.0 * bandwidth**2
    return np.exp(sq, out=sq)


def mmd2_permutations(joint: np.ndarray, m: int, perms: np.ndarray,
                      bandwidth: float) -> np.ndarray:
    """Unbiased MMD^2 under each permuted split of a joint sample.

    Row p of ``perms`` puts its first m entries in the first sample. With K
    the RBF kernel matrix of the joint points, A[:, p] the 0/1 indicator of
    that sample and B = 1 - A, the within- and between-sample kernel sums
    of every permutation come out of the product KA = K @ A (and
    KB = K @ B = rowsum(K) - KA):

        sxx = colsum(A * KA) - diag(K) @ A
        syy = colsum(B * KB) - diag(K) @ B
        sxy = colsum(B * KA)

    The permutations are scored in even blocks of at most _PERM_BLOCK
    columns, each in two (N, <= _PERM_BLOCK) arrays (B overwrites A, KB
    overwrites KA). K is never held: each block rebuilds it _ROW_BLOCK rows
    at a time and writes those rows of KA, rowsum(K) and diag(K).
    """
    joint = np.asarray(joint, dtype=np.float64)
    perms = np.asarray(perms, dtype=np.int64)
    joint_sq = np.sum(joint * joint, axis=1)
    # even blocks: a lone last column would go through a matrix-vector
    # product, which sums in another order than the matrix product
    blocks = np.array_split(perms, -(-len(perms) // _PERM_BLOCK))
    return np.concatenate([_score_block(joint, joint_sq, bandwidth, m, block)
                           for block in blocks])


def _score_block(joint, joint_sq, bandwidth, m, perms):
    total, n_perms = joint.shape[0], perms.shape[0]
    n = total - m
    A = np.zeros((total, n_perms))
    A[perms[:, :m].T, np.arange(n_perms)] = 1.0
    KA = np.empty_like(A)
    rowsum, diag = np.empty(total), np.empty(total)
    for r0 in range(0, total, _ROW_BLOCK):
        rows = slice(r0, r0 + _ROW_BLOCK)
        k = _rbf(_sq_dists(joint[rows], joint, joint_sq, None), bandwidth)
        # rows of (A.T @ K.T).T: the sums of one whole product wherever
        # OpenBLAS runs both through its general kernel (as at N = 800), not
        # its small-matrix one, used under about 10^6 multiply-adds
        KA[rows] = (A.T @ k.T).T
        rowsum[rows] = k.sum(axis=1)
        diag[rows] = k[:, r0:].diagonal()
    sxx = np.einsum("ip,ip->p", A, KA) - diag @ A
    B = np.subtract(1.0, A, out=A)
    sxy = np.einsum("ip,ip->p", B, KA)
    KB = np.subtract(rowsum[:, None], KA, out=KA)
    syy = np.einsum("ip,ip->p", B, KB) - diag @ B
    return sxx / (m * (m - 1)) + syy / (n * (n - 1)) - 2.0 * sxy / (m * n)
