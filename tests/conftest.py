"""Shared closed-form oracles for the test suite.

The affine-velocity helpers give exact flow maps (matrix exponentials) and
exact Gaussian pushforwards, independent of the numerical integrators they
are used to check. ``affine_field`` builds the velocity field those maps
solve, and ``eval_velocity``/``divergence`` evaluate any field eagerly at a
single point or a batch. ``write_zero_dim_checkpoint`` hand-packs a .wflw
file that no chain the library builds can write, and
``assert_declared_acts_refused`` writes one whose layers declare
activations other than their positions give.
"""

import struct
import zlib

import numpy as np
import pytest
from scipy.linalg import expm

from wflow import chain as fc
from wflow import datasets as ds
from wflow import mlp
from wflow import numcore as nc
from wflow import odeint
from wflow.velocity import VelocityField


def affine_field(a, c=None, t_total=1.0) -> VelocityField:
    """A lone linear output layer realizing v(x) = A x + c, time-independent."""
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    c = np.zeros(d) if c is None else np.asarray(c, dtype=np.float64)
    w = np.zeros((d + 1, d))
    w[:d, :] = a.T  # affine computes x @ w, so rows index input coords
    layers = [mlp.Layer(w, c.copy())]
    return VelocityField(layers, t_total, d)


def write_zero_dim_checkpoint(path):
    """A well-formed .wflw, valid CRC, of a 0-D chain: one block of layers
    (1, 4) and (4, 0) over a 0-D Gaussian base."""
    payload = b"".join([
        struct.pack("<IId", 1, 0, 1.0), struct.pack("<dd", 0.0, 1.0),
        struct.pack("<BIBH", 1, 2, 0, 2),  # rk4, 2 steps, untrained, 2 layers
        struct.pack("<IIB", 1, 4, 0), np.full(8, 0.5).astype("<f8").tobytes(),
        struct.pack("<IIB", 4, 0, 2),
        struct.pack("<BI", 0, 0),  # Gaussian base of dimension 0
    ])
    header = b"WFLW" + struct.pack("<HQ", 1, len(payload))
    path.write_bytes(header + payload + struct.pack("<I", zlib.crc32(payload)))


_ACT_CODE = {"tanh": 0, "softplus": 1, "identity": 2}


def assert_declared_acts_refused(field, hidden, output, tmp_path):
    """A .wflw of ``field`` whose hidden layers declare ``hidden`` and whose
    last layer declares ``output`` does not load.

    A stack's activations follow from position, tanh hidden layers under an
    identity output; any other stack could reach the library only through
    such a file, so the reader's refusal keeps it from every kernel.
    """
    n_layers = len(field.layers)
    declared = [_ACT_CODE[hidden]] * (n_layers - 1) + [_ACT_CODE[output]]
    j = next(j for j, code in enumerate(declared) if code != fc._act_code(j, n_layers))
    cfg = odeint.IntegratorConfig("rk4", 2, (0.0, field.t_total))
    base = ds.Gaussian(np.zeros(field.d), np.eye(field.d))
    path = tmp_path / "declared.wflw"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fc, "_act_code", lambda i, n: declared[i])
        fc.save_checkpoint(fc.FlowChain([fc.FlowBlock(field, cfg)], base), path)
    with pytest.raises(fc.CheckpointError,
                       match=f"unknown activation code {declared[j]} for layer {j} of block 0"):
        fc.load_checkpoint(path)


def _as_batch(x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    return (x[None, :] if single else x), single


def eval_velocity(field: VelocityField, x, t) -> np.ndarray:
    """Eager forward pass; accepts a single point (d,) or a batch (m, d)."""
    xb, single = _as_batch(x)
    if xb.shape[1] != field.d:
        raise nc.ShapeError(f"point dimension {xb.shape[1]} != field dimension {field.d}")
    v = field.bind().velocity(nc.Tensor(xb), t)
    return v.data[0] if single else v.data


def divergence(field: VelocityField, x, t):
    """Eager divergence at (x, t); scalar for a single point, (m,) for a batch."""
    xb, single = _as_batch(x)
    _, div = field.bind().velocity_and_divergence(nc.Tensor(xb), t)
    return float(div.data[0]) if single else div.data


def affine_flow_map(a, c, dt):
    """Exact time-dt flow map of dx/dt = A x + c as (M, b): x -> M x + b."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    d = a.shape[0]
    c = np.zeros(d) if c is None else np.asarray(c, dtype=float)
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = a
    aug[:d, d] = c
    m = expm(aug * dt)
    return m[:d, :d], m[:d, d]


def compose_affine(maps):
    """Compose (M, b) pairs applied left to right."""
    m_total, b_total = None, None
    for m, b in maps:
        if m_total is None:
            m_total, b_total = m, b
        else:
            m_total = m @ m_total
            b_total = m @ b_total + b
    return m_total, b_total


def push_gaussian(mean, cov, m, b):
    """Moments of the exact pushforward of N(mean, cov) through x -> M x + b."""
    mean = np.asarray(mean, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return m @ mean + b, m @ cov @ m.T


def gaussian_logpdf(x, mean, cov):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mean = np.asarray(mean, dtype=float)
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = len(mean)
    delta = x - mean
    prec = np.linalg.inv(cov)
    maha = np.einsum("ij,jk,ik->i", delta, prec, delta)
    return -0.5 * (d * np.log(2 * np.pi) + np.linalg.slogdet(cov)[1] + maha)


def gaussian_kl(mean_a, cov_a, mean_b, cov_b):
    """Closed-form KL between two Gaussians."""
    mean_a = np.asarray(mean_a, dtype=float)
    mean_b = np.asarray(mean_b, dtype=float)
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=float))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=float))
    d = len(mean_a)
    prec_b = np.linalg.inv(cov_b)
    delta = mean_b - mean_a
    return 0.5 * (
        np.trace(prec_b @ cov_a)
        + delta @ prec_b @ delta
        - d
        + np.linalg.slogdet(cov_b)[1]
        - np.linalg.slogdet(cov_a)[1]
    )


def sq_dists(a, b):
    """Pairwise squared Euclidean distances: the textbook clip(|a|^2 + |b|^2 - 2 a b^T, 0)."""
    return np.clip(np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
                   - 2.0 * (a @ b.T), 0.0, None)
