"""Composition of invertible ODE blocks into a full transport map.

Convention fixed once for the whole package: block order runs data -> noise,
so the forward map pushes the data distribution onto the base density and
sampling applies the inverse map to base draws. The model log-density of a
point x is

    log p(x) = log q(F(x)) + integral of div v along the trajectory of x,

with the integral taken forward in time from 0 to T.

A block's interval [t_k, t_{k+1}] lives in its ``IntegratorConfig`` alone.
T lives in each block's field (``t_total``, the time embedding t / T) and
must equal the end of the chain's tiling; a checkpoint stores it once, in
its header.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from wflow import numcore as nc
from wflow import odeint
from wflow.datasets import Gaussian, GaussianMixture, ParticleEnsemble
from wflow.mlp import Layer
from wflow.velocity import VelocityField, init_near_identity

MAGIC = b"WFLW"
FORMAT_VERSION = 1

_SCHEME_CODE = {"euler": 0, "rk4": 1}
_SCHEME_NAME = {v: k for k, v in _SCHEME_CODE.items()}


def _act_code(j, n_layers):
    """Layer j's activation code, set by its position: 0 (tanh) if hidden, 2 (identity) if last."""
    return 2 if j == n_layers - 1 else 0


class CheckpointError(RuntimeError):
    pass


@dataclass
class FlowBlock:
    field: VelocityField
    integrator: odeint.IntegratorConfig
    trained: bool = False

    def parameter_arrays(self):
        return self.field.parameter_arrays()


class FlowChain:
    """Ordered invertible blocks covering [0, T] plus the base density."""

    def __init__(self, blocks, base):
        if not blocks:
            raise ValueError("chain needs at least one block")
        t = blocks[0].integrator.interval[0]
        if abs(t) > 1e-12:
            raise ValueError("first block must start at time 0")
        for block in blocks:
            t_a, t_b = block.integrator.interval
            if abs(t_a - t) > 1e-9:
                raise ValueError(f"block intervals must tile contiguously (gap at t={t})")
            t = t_b
        dims = {block.field.d for block in blocks}
        if len(dims) != 1:
            raise ValueError("blocks disagree on dimension")
        # exact: np.linspace puts the last tiling edge at t_total itself
        if any(block.field.t_total != t for block in blocks):
            raise ValueError(f"every block's t_total must equal the tiling end {t}")
        self.blocks = list(blocks)
        self.base = base
        self.d = blocks[0].field.d
        self.t_total = t

    def parameter_arrays(self):
        out = []
        for block in self.blocks:
            out.extend(block.field.parameter_arrays())
        return out

    def parameter_count(self):
        return sum(p.size for p in self.parameter_arrays())


def identity_chain(d, n_blocks, base=None, widths=(64, 64), steps=32, scheme="rk4",
                   t_total=None, seed=0) -> FlowChain:
    """Chain of near-identity blocks tiling [0, T] with equal intervals."""
    if t_total is None:
        t_total = float(n_blocks)
    edges = np.linspace(0.0, t_total, n_blocks + 1)
    blocks = []
    for i in range(n_blocks):
        interval = (float(edges[i]), float(edges[i + 1]))
        field = init_near_identity(d, widths=widths, seed=seed + i, t_total=t_total)
        blocks.append(FlowBlock(field, odeint.IntegratorConfig(scheme, steps, interval)))
    if base is None:
        base = Gaussian(np.zeros(d), np.eye(d))
    return FlowChain(blocks, base)


def forward_map(chain: FlowChain, ensemble: ParticleEnsemble) -> ParticleEnsemble:
    """Push particles data -> noise through every block in order."""
    x = ensemble.positions
    for block in chain.blocks:
        x = odeint.integrate(block.field, x, block.integrator, direction="forward")
    return ParticleEnsemble(x)


def inverse_map(chain: FlowChain, ensemble: ParticleEnsemble) -> ParticleEnsemble:
    """Pull particles noise -> data: blocks reversed, time reversed."""
    x = ensemble.positions
    for block in reversed(chain.blocks):
        x = odeint.integrate(block.field, x, block.integrator, direction="reverse")
    return ParticleEnsemble(x)


def push_forward_logdet(bound_blocks, x: nc.Tensor):
    """Tape-friendly forward map plus accumulated divergence integral.

    ``bound_blocks`` pairs each block's BoundVelocity with its integrator
    config; returns (end state, summed logdet) as Tensors.
    """
    logdet = None
    for bound, cfg in bound_blocks:
        aug = odeint.integrate_augmented_tensor(bound, x, cfg)
        x = aug.x
        logdet = aug.logdet if logdet is None else nc.add(logdet, aug.logdet)
    return x, logdet


def log_density(chain: FlowChain, x):
    """Exact model log-density via the divergence integral along x's trajectory."""
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim == 1:
        return float(push_log_density(chain, xb[None, :])[0][0])
    return push_log_density(chain, xb)[0]


def push_log_density(chain: FlowChain, x):
    """(log p(x), F(x)) for a batch x of shape (m, d), from one augmented pass.

    F(x) is forward_map's end state bit for bit: the augmented stages take
    the velocity through the same operations as the plain ones.
    """
    z = np.asarray(x, dtype=np.float64)
    logdet = None
    # push_forward_logdet's loop without a tape or kept stage inputs: same values, bit for bit
    for block in chain.blocks:
        aug = odeint.integrate_augmented(block.field, z, block.integrator)
        z = aug.x.data
        logdet = aug.logdet.data if logdet is None else logdet + aug.logdet.data
    out = chain.base.log_pdf(z) + logdet
    if not np.all(np.isfinite(out)):
        raise nc.NumericError("non-finite log-density")
    return out, z


def sample(chain: FlowChain, n, rng) -> ParticleEnsemble:
    """Draw base samples and pull them back through the inverse map."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    z = chain.base.sample(n, rng)
    return inverse_map(chain, ParticleEnsemble(z))


# ---------------------------------------------------------------------------
# checkpoint io: little-endian, length-prefixed payload, trailing CRC32

def _pack_density(parts, density):
    if isinstance(density, Gaussian):
        parts.append(struct.pack("<BI", 0, density.d))
        parts.append(density.mean.astype("<f8").tobytes())
        parts.append(np.ascontiguousarray(density.cov, dtype="<f8").tobytes())
    elif isinstance(density, GaussianMixture):
        parts.append(struct.pack("<BH", 1, len(density.components)))
        parts.append(density.weights.astype("<f8").tobytes())
        for comp in density.components:
            _pack_density(parts, comp)
    else:
        raise CheckpointError(f"base density of kind {type(density).__name__} is not serializable")


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated file")
        out = struct.unpack_from(fmt, self.buf, self.pos)
        self.pos += size
        if not all(np.isfinite(v) for v in out if isinstance(v, float)):
            raise CheckpointError("non-finite time (t_total or a block interval end)")
        return out

    def floats(self, count):
        size = 8 * count
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated file")
        out = np.frombuffer(self.buf, dtype="<f8", count=count, offset=self.pos)
        self.pos += size
        if not np.all(np.isfinite(out)):
            raise CheckpointError("non-finite weight, bias or base-density value")
        return out.astype(np.float64)


def _unpack_density(r: _Reader):
    (kind,) = r.take("<B")
    if kind == 0:
        (d,) = r.take("<I")
        mean = r.floats(d)
        cov = r.floats(d * d).reshape(d, d)
        return Gaussian(mean, cov)
    if kind == 1:
        (k,) = r.take("<H")
        weights = r.floats(k)
        comps = [_unpack_density(r) for _ in range(k)]
        return GaussianMixture(weights, comps)
    raise CheckpointError(f"unknown base-density tag {kind}")


def save_checkpoint(chain: FlowChain, path):
    """Versioned binary checkpoint; bit-exact round trip of all parameters."""
    parts = [struct.pack("<IId", len(chain.blocks), chain.d, chain.t_total)]
    for block in chain.blocks:
        t_a, t_b = block.integrator.interval
        parts.append(struct.pack("<dd", t_a, t_b))
        parts.append(struct.pack("<BIB", _SCHEME_CODE[block.integrator.scheme],
                                 block.integrator.steps, int(block.trained)))
        n_layers = len(block.field.layers)
        parts.append(struct.pack("<H", n_layers))
        for j, layer in enumerate(block.field.layers):
            parts.append(struct.pack("<IIB", *layer.w.shape, _act_code(j, n_layers)))
            parts.append(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
            parts.append(layer.b.astype("<f8").tobytes())
    _pack_density(parts, chain.base)
    payload = b"".join(parts)
    header = MAGIC + struct.pack("<HQ", FORMAT_VERSION, len(payload))
    crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(header + payload + crc)


def load_checkpoint(path) -> FlowChain:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 10 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a flow checkpoint (bad magic)")
    version, payload_len = struct.unpack_from("<HQ", blob, len(MAGIC))
    if version > FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} is newer than supported {FORMAT_VERSION}"
        )
    if version < 1:
        raise CheckpointError(f"checkpoint format version {version} does not exist")
    start = len(MAGIC) + 10
    if len(blob) < start + payload_len + 4:
        raise CheckpointError("truncated file")
    payload = blob[start : start + payload_len]
    (crc,) = struct.unpack_from("<I", blob, start + payload_len)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError("checksum failure")

    r = _Reader(payload)
    try:
        chain = _unpack_chain(r)
    except ValueError as err:  # out-of-range fields, including LinAlgError
        raise CheckpointError(f"invalid checkpoint contents: {err}") from err
    if r.pos != len(payload):
        raise CheckpointError(f"{len(payload) - r.pos} trailing bytes after the base density")
    if chain.base.d != chain.d:
        raise CheckpointError(f"base density dimension {chain.base.d} != chain dimension {chain.d}")
    return chain


def _unpack_chain(r: _Reader) -> FlowChain:
    n_blocks, d, t_total = r.take("<IId")
    blocks = []
    for n in range(n_blocks):
        t_a, t_b = r.take("<dd")
        scheme_code, steps, trained = r.take("<BIB")
        (n_layers,) = r.take("<H")
        layers = []
        for j in range(n_layers):
            fan_in, fan_out, act_code = r.take("<IIB")
            if act_code != _act_code(j, n_layers):
                raise CheckpointError(
                    f"unknown activation code {act_code} for layer {j} of block {n}: a hidden "
                    f"layer has code 0 (tanh), the last layer code 2 (identity)")
            w = r.floats(fan_in * fan_out).reshape(fan_in, fan_out)
            layers.append(Layer(w, r.floats(fan_out)))
        if scheme_code not in _SCHEME_NAME:
            raise CheckpointError(f"unknown integrator scheme code {scheme_code}")
        cfg = odeint.IntegratorConfig(_SCHEME_NAME[scheme_code], steps, (t_a, t_b))
        blocks.append(FlowBlock(VelocityField(layers, t_total, d), cfg, trained=bool(trained)))
    return FlowChain(blocks, _unpack_density(r))
