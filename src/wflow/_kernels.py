"""Exact metric kernels: the assignment behind W2 and the MMD permutation null.

One exact path per kernel. The assignment is scipy's compiled
``linear_sum_assignment`` extension, ``scipy/optimize/_lsap``, loaded on its
own on the first call: importing ``scipy.optimize`` would pull in about 320
scipy modules (linalg, sparse, special) that W2 never uses, and code that
never computes W2 loads nothing from scipy. The permutation null is a BLAS
product of the joint kernel matrix with a 0/1 indicator matrix, taken one
block of permutations at a time.
"""

from __future__ import annotations

import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

# kept for callers that record which kernel path ran; there is only one now
NUMBA_ENABLED = False

_LSAP = "scipy.optimize._lsap"
# most permutations the null scores per product: every product streams all
# of K again, and each block holds two (N, block) arrays
_PERM_BLOCK = 80
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


def mmd2_permutations(K: np.ndarray, m: int, perms: np.ndarray) -> np.ndarray:
    """Unbiased MMD^2 under each permuted split of a joint kernel matrix.

    Row p of ``perms`` puts its first m entries in the first sample. With
    A[:, p] the 0/1 indicator of that sample and B = 1 - A, the within- and
    between-sample kernel sums of every permutation come out of the product
    KA = K @ A (and KB = K @ B = rowsum(K) - KA):

        sxx = colsum(A * KA) - diag(K) @ A
        syy = colsum(B * KB) - diag(K) @ B
        sxy = colsum(B * KA)

    The permutations are scored in even blocks of at most _PERM_BLOCK
    columns, so A, B, KA and KB exist for one block at a time, in two
    (N, <= _PERM_BLOCK) arrays (B overwrites A, KB overwrites KA), not four
    (N, perms) ones.
    """
    K = np.asarray(K, dtype=np.float64)
    perms = np.asarray(perms, dtype=np.int64)
    rowsum = K.sum(axis=1)[:, None]
    diag = np.diag(K)
    # even blocks: a lone last column would go through a matrix-vector
    # product, which sums in another order than the matrix product
    blocks = np.array_split(perms, -(-len(perms) // _PERM_BLOCK))
    return np.concatenate([_score_block(K, rowsum, diag, m, block) for block in blocks])


def _score_block(K, rowsum, diag, m, perms):
    total, n_perms = K.shape[0], perms.shape[0]
    n = total - m
    A = np.zeros((total, n_perms))
    A[perms[:, :m].T, np.arange(n_perms)] = 1.0
    # K @ A with the same sums; in this orientation OpenBLAS streams K in row
    # panels against the narrow block, 2.1 ms against 2.5 ms for K @ A at
    # N = 800 and 67 columns (one thread, 2-core x86-64 host)
    KA = (A.T @ K.T).T
    sxx = np.einsum("ip,ip->p", A, KA) - diag @ A
    B = np.subtract(1.0, A, out=A)
    sxy = np.einsum("ip,ip->p", B, KA)
    KB = np.subtract(rowsum, KA, out=KA)
    syy = np.einsum("ip,ip->p", B, KB) - diag @ B
    return sxx / (m * (m - 1)) + syy / (n * (n - 1)) - 2.0 * sxy / (m * n)
