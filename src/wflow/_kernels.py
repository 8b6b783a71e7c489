"""Exact metric kernels: the assignment behind W2 and the MMD permutation null.

One exact path per kernel. The assignment is scipy's
``linear_sum_assignment``; scipy is imported on the first call, so code
that never computes W2 never pays for the import. The permutation null is
one BLAS product of the joint kernel matrix with a 0/1 indicator matrix.
"""

from __future__ import annotations

import numpy as np

# kept for callers that record which kernel path ran; there is only one now
NUMBA_ENABLED = False


def solve_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row, minimizing the total cost. Square input."""
    # importing scipy.optimize takes ~0.5 s and ~50 MB, so only W2 pays for it
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    return linear_sum_assignment(cost)[1]


def mmd2_permutations(K: np.ndarray, m: int, perms: np.ndarray) -> np.ndarray:
    """Unbiased MMD^2 under each permuted split of a joint kernel matrix.

    Row p of ``perms`` puts its first m entries in the first sample. With
    A[:, p] the 0/1 indicator of that sample and B = 1 - A, the within- and
    between-sample kernel sums of every permutation come out of one product
    KA = K @ A (and KB = K @ B = rowsum(K) - KA):

        sxx = colsum(A * KA) - diag(K) @ A
        syy = colsum(B * KB) - diag(K) @ B
        sxy = colsum(B * KA)
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
