"""Chain composition, likelihood, sampling, and the checkpoint format."""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from conftest import (affine_field, affine_flow_map, compose_affine, gaussian_kl,
                      gaussian_logpdf, push_gaussian, write_zero_dim_checkpoint)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wflow import chain as fc
from wflow import datasets as ds
from wflow import numcore as nc
from wflow import odeint
from wflow import velocity as vel
from wflow.mlp import Layer, init_layers


def _perturbed_chain(d, n_blocks, seed=0, scale=0.25, steps=32, widths=(12, 12)):
    chn = fc.identity_chain(d, n_blocks, steps=steps, widths=widths, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for block in chn.blocks:
        for layer in block.field.layers:
            layer.w += scale * rng.normal(size=layer.w.shape)
    return chn


def _affine_chain(specs, base, steps=64):
    """Chain of time-independent affine-velocity blocks from (A, c) pairs."""
    blocks = []
    t = 0.0
    for a, c in specs:
        interval = (t, t + 1.0)
        field = affine_field(a, c, t_total=float(len(specs)))
        blocks.append(fc.FlowBlock(field, odeint.IntegratorConfig("rk4", steps, interval)))
        t += 1.0
    return fc.FlowChain(blocks, base)


def test_zero_chain_is_identity():
    chn = fc.identity_chain(2, 3, steps=4)
    ens = ds.ParticleEnsemble(np.random.default_rng(0).normal(size=(9, 2)))
    assert np.array_equal(fc.forward_map(chn, ens).positions, ens.positions)
    assert np.array_equal(fc.inverse_map(chn, ens).positions, ens.positions)


def test_scaling_block_forward_and_inverse():
    chn = _affine_chain([(np.array([[-1.0]]), None)], ds.standard_gaussian(1))
    ens = ds.ParticleEnsemble(np.random.default_rng(1).normal(size=(11, 1)))
    out = fc.forward_map(chn, ens)
    assert np.allclose(out.positions, np.exp(-1.0) * ens.positions, atol=1e-9)
    back = fc.inverse_map(chn, out)
    assert np.abs(back.positions - ens.positions).max() <= 1e-9


def test_round_trip_trained_scale_chain():
    chn = _perturbed_chain(2, 3, seed=3)
    ens = ds.ParticleEnsemble(np.random.default_rng(4).normal(size=(40, 2)))
    back = fc.inverse_map(chn, fc.forward_map(chn, ens))
    assert np.abs(back.positions - ens.positions).max() <= 1e-6


def test_log_density_identity_chain():
    chn = fc.identity_chain(2, 2, steps=4)
    assert fc.log_density(chn, np.zeros(2)) == pytest.approx(-np.log(2 * np.pi))


def test_log_density_scaling_block():
    chn = _affine_chain([(np.array([[-1.0]]), None)], ds.standard_gaussian(1))
    expected = -0.5 * np.log(2 * np.pi) - 1.0
    assert fc.log_density(chn, np.zeros(1)) == pytest.approx(expected, abs=1e-9)


def test_log_density_matches_affine_gaussian_pushforward():
    # model density of an affine chain is the exact pullback of the base
    rng = np.random.default_rng(7)
    specs = [(0.3 * rng.normal(size=(2, 2)), 0.3 * rng.normal(size=2)) for _ in range(2)]
    base = ds.Gaussian([0.2, -0.4], [[1.3, 0.2], [0.2, 0.8]])
    chn = _affine_chain(specs, base)
    maps = [affine_flow_map(a, c, 1.0) for a, c in specs]
    m_tot, b_tot = compose_affine(maps)
    m_inv = np.linalg.inv(m_tot)
    model_mean = m_inv @ (base.mean - b_tot)
    model_cov = m_inv @ base.cov @ m_inv.T
    x = rng.normal(size=(20, 2))
    got = fc.log_density(chn, x)
    want = gaussian_logpdf(x, model_mean, model_cov)
    assert np.abs(got - want).max() <= 1e-4


def test_dpi_equality_for_affine_chains():
    # invertible maps preserve f-divergences: KL(p||q) = KL(Fp||Fq) exactly
    rng = np.random.default_rng(9)
    specs = [(0.4 * rng.normal(size=(2, 2)), 0.2 * rng.normal(size=2)) for _ in range(3)]
    maps = [affine_flow_map(a, c, 1.0) for a, c in specs]
    m_tot, b_tot = compose_affine(maps)
    mean_p, cov_p = np.array([1.0, -0.5]), np.array([[1.0, 0.3], [0.3, 2.0]])
    mean_q, cov_q = np.array([0.0, 0.0]), np.array([[0.5, 0.0], [0.0, 1.5]])
    kl_before = gaussian_kl(mean_p, cov_p, mean_q, cov_q)
    push_p = push_gaussian(mean_p, cov_p, m_tot, b_tot)
    push_q = push_gaussian(mean_q, cov_q, m_tot, b_tot)
    kl_after = gaussian_kl(*push_p, *push_q)
    assert kl_after == pytest.approx(kl_before, rel=1e-6)
    # and the numerically integrated chain realizes the same map
    chn = _affine_chain(specs, ds.standard_gaussian(2))
    x = rng.normal(size=(6, 2))
    got = fc.forward_map(chn, ds.ParticleEnsemble(x)).positions
    assert np.abs(got - (x @ m_tot.T + b_tot)).max() <= 1e-7


def test_sampling_moments_identity_chain():
    chn = fc.identity_chain(2, 1, steps=2)
    n = 40_000
    ens = fc.sample(chn, n, np.random.default_rng(3))
    assert np.abs(ens.positions.mean(axis=0)).max() <= 4 / np.sqrt(n)
    assert np.abs(np.cov(ens.positions, rowvar=False) - np.eye(2)).max() <= 0.05


def test_sampling_determinism():
    chn = _perturbed_chain(2, 2, seed=5, steps=8)
    a = fc.sample(chn, 50, np.random.default_rng(11))
    b = fc.sample(chn, 50, np.random.default_rng(11))
    assert np.array_equal(a.positions, b.positions)


def _fd_log_jacobian(chn, x, h=1e-5):
    """log |det dF/dx| of the chain's forward map at each row of x, by central differences."""
    m, d = x.shape
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        plus = fc.forward_map(chn, ds.ParticleEnsemble(x + e)).positions
        minus = fc.forward_map(chn, ds.ParticleEnsemble(x - e)).positions
        cols.append((plus - minus) / (2 * h))
    return np.linalg.slogdet(np.stack(cols, axis=2))[1]


def test_sampling_with_logdens_above_exact_dim():
    # d = 10 takes the exact trace, as every d does: a zero field keeps the
    # base density, and a perturbed one (closed form for one hidden layer,
    # basis tangents for three) gives the change of variables
    # log q(F(x)) + log |det dF/dx|, up to the RK4 grid's error
    chn = fc.identity_chain(10, 1, widths=(8,), steps=2)
    ens = fc.sample(chn, 20, np.random.default_rng(12))
    assert np.allclose(fc.log_density(chn, ens.positions), chn.base.log_pdf(ens.positions))
    for widths in ((8,), (8, 8, 8)):
        chn = _perturbed_chain(10, 1, seed=2, steps=16, widths=widths)
        x = fc.sample(chn, 5, np.random.default_rng(12)).positions
        z = fc.forward_map(chn, ds.ParticleEnsemble(x)).positions
        want = chn.base.log_pdf(z) + _fd_log_jacobian(chn, x)
        np.testing.assert_allclose(fc.log_density(chn, x), want, rtol=0, atol=1e-6)


def test_eager_log_density_bit_identical_to_taped():
    chn = _perturbed_chain(3, 2, seed=4, steps=5)
    x = np.random.default_rng(5).normal(size=(7, 3))
    got = fc.log_density(chn, x)
    tape = nc.Tape()
    with tape:
        bound = [(block.field.bind(tape), block.integrator) for block in chn.blocks]
        z, logdet = fc.push_forward_logdet(bound, nc.Tensor(x))
    assert np.array_equal(got, chn.base.log_pdf(z.data) + logdet.data)


@pytest.mark.parametrize("widths", [(12, 12), (8, 8, 8)], ids=["closed", "tangent-depth3"])
def test_push_log_density_ends_at_forward_map_bit_for_bit(widths):
    # the CLI's kl_moment reads this end state in place of forward_map's
    chn = _perturbed_chain(3, 2, seed=4, steps=5, widths=widths)
    mode = vel.divergence_mode(len(chn.blocks[0].field.layers))
    assert mode == ("closed" if widths == (12, 12) else "tangent")
    x = np.random.default_rng(5).normal(size=(40, 3))
    logp, end = fc.push_log_density(chn, x)
    assert end.tobytes() == fc.forward_map(chn, ds.ParticleEnsemble(x)).positions.tobytes()
    assert logp.tobytes() == fc.log_density(chn, x).tobytes()


def test_sampling_pushforward_variance():
    chn = _affine_chain([(np.array([[-1.0]]), None)], ds.standard_gaussian(1))
    ens = fc.sample(chn, 40_000, np.random.default_rng(13))
    assert ens.positions.var() == pytest.approx(np.e**2, rel=0.05)


def test_normalization_by_quadrature_1d():
    chn = _perturbed_chain(1, 2, seed=17, scale=0.4, steps=24)
    xs = np.linspace(-9.0, 9.0, 1201)[:, None]
    dens = np.exp(fc.log_density(chn, xs))
    integral = np.trapezoid(dens.ravel(), xs.ravel())
    assert integral == pytest.approx(1.0, abs=0.02)


def test_checkpoint_round_trip_bits(tmp_path):
    chn = _perturbed_chain(2, 2, seed=19, steps=6, widths=(8,))
    chn.blocks[0].trained = True
    path = tmp_path / "chain.wflw"
    fc.save_checkpoint(chn, path)
    loaded = fc.load_checkpoint(path)
    for a, b in zip(chn.parameter_arrays(), loaded.parameter_arrays()):
        assert np.array_equal(a, b)
    assert loaded.blocks[0].trained and not loaded.blocks[1].trained
    assert loaded.blocks[0].integrator.scheme == "rk4"
    ens = ds.ParticleEnsemble(np.random.default_rng(2).normal(size=(5, 2)))
    assert np.array_equal(fc.forward_map(chn, ens).positions,
                          fc.forward_map(loaded, ens).positions)


def test_checkpoint_mixture_base(tmp_path):
    chn = fc.identity_chain(2, 1, base=ds.fig10_p(), steps=4, widths=(4,))
    path = tmp_path / "mix.wflw"
    fc.save_checkpoint(chn, path)
    loaded = fc.load_checkpoint(path)
    x = np.random.default_rng(3).normal(size=(8, 2))
    assert np.allclose(loaded.base.log_pdf(x), chn.base.log_pdf(x))


def test_checkpoint_corruption_detected(tmp_path):
    chn = _perturbed_chain(1, 1, seed=23, steps=4, widths=(4,))
    path = tmp_path / "c.wflw"
    fc.save_checkpoint(chn, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(fc.CheckpointError, match="checksum"):
        fc.load_checkpoint(path)


def test_checkpoint_future_version_rejected(tmp_path):
    chn = _perturbed_chain(1, 1, seed=23, steps=4, widths=(4,))
    path = tmp_path / "c.wflw"
    fc.save_checkpoint(chn, path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(fc.CheckpointError, match="version"):
        fc.load_checkpoint(path)


def test_checkpoint_version_zero_rejected(tmp_path):
    chn = _perturbed_chain(1, 1, seed=23, steps=4, widths=(4,))
    path = tmp_path / "c.wflw"
    fc.save_checkpoint(chn, path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (0).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(fc.CheckpointError, match="version 0"):
        fc.load_checkpoint(path)


# payload offsets of the first block's scheme code and its first layer's
# activation code: chain header <IId, interval <dd, then <BIB; the layer
# count <H and the layer header <IIB follow
_SCHEME_AT = struct.calcsize("<IId") + struct.calcsize("<dd")
_ACT_AT = _SCHEME_AT + struct.calcsize("<BIB") + struct.calcsize("<H") + struct.calcsize("<II")


# a layer's activation code must match its position; with d = 1 and widths
# (4,), the output layer's header follows the hidden layer's (2, 4) weights
# and 4 biases
_OUTPUT_ACT_AT = _ACT_AT + 1 + 8 * (2 * 4 + 4) + struct.calcsize("<II")


@pytest.mark.parametrize("offset,code,match", [
    (_SCHEME_AT, 9, "unknown integrator scheme code 9"),
    (_ACT_AT, 9, "unknown activation code 9 for layer 0 of block 0"),
    (_ACT_AT, 1, "unknown activation code 1 for layer 0 of block 0"),
    (_OUTPUT_ACT_AT, 0, "unknown activation code 0 for layer 1 of block 0"),
], ids=["32-scheme", "48-activation", "softplus_hidden", "tanh_output"])
def test_checkpoint_unknown_code_rejected(tmp_path, offset, code, match):
    chn = _perturbed_chain(1, 1, seed=23, steps=4, widths=(4,))
    path = tmp_path / "c.wflw"
    fc.save_checkpoint(chn, path)
    blob = bytearray(path.read_bytes())
    start = len(fc.MAGIC) + struct.calcsize("<HQ")
    assert blob[start + offset] in (0, 1, 2)  # rk4, tanh and identity are the codes written
    blob[start + offset] = code
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[start:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(fc.CheckpointError, match=match):
        fc.load_checkpoint(path)


def test_checkpoint_zero_dimensional_rejected(tmp_path):
    path = tmp_path / "d0.wflw"
    write_zero_dim_checkpoint(path)
    with pytest.raises(fc.CheckpointError, match="dimension must be positive, got 0"):
        fc.load_checkpoint(path)


@st.composite
def _random_chains(draw):
    """A chain of 1-3 blocks at d 1-3, each of 0-3 hidden layers of widths 1-6."""
    d = draw(st.integers(1, 3))
    n_blocks = draw(st.integers(1, 3))
    t_total = draw(st.sampled_from([0.5, 1.0, 2.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.linspace(0.0, t_total, n_blocks + 1)
    blocks = []
    for i in range(n_blocks):
        widths = draw(st.lists(st.integers(1, 6), max_size=3))
        layers = init_layers([d + 1, *widths, d], rng)
        for layer in layers:
            layer.w += 0.3 * rng.normal(size=layer.w.shape)
            layer.b += 0.3 * rng.normal(size=layer.b.shape)
        cfg = odeint.IntegratorConfig(draw(st.sampled_from(odeint.SCHEMES)),
                                      draw(st.integers(1, 4)), (edges[i], edges[i + 1]))
        blocks.append(fc.FlowBlock(vel.VelocityField(layers, t_total, d), cfg,
                                   trained=draw(st.booleans())))
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        a = rng.normal(size=(d, d))
        comps.append(ds.Gaussian(rng.normal(size=d), a @ a.T + np.eye(d)))
    if len(comps) == 1 and draw(st.booleans()):
        base = comps[0]
    else:
        raw = rng.uniform(0.5, 1.5, size=len(comps))
        base = ds.GaussianMixture(raw / raw.sum(), comps)
    return fc.FlowChain(blocks, base), rng.normal(size=(4, d))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_random_chains())
def test_checkpoint_round_trip_random_chains(tmp_path, case):
    chn, x = case
    path = tmp_path / "c.wflw"
    fc.save_checkpoint(chn, path)
    blob = path.read_bytes()
    loaded = fc.load_checkpoint(path)
    fc.save_checkpoint(loaded, path)
    assert path.read_bytes() == blob
    assert len(loaded.parameter_arrays()) == len(chn.parameter_arrays())
    for a, b in zip(chn.parameter_arrays(), loaded.parameter_arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(fc.log_density(loaded, x), fc.log_density(chn, x))


def test_checkpoint_truncation_detected(tmp_path):
    chn = _perturbed_chain(1, 1, seed=23, steps=4, widths=(4,))
    path = tmp_path / "c.wflw"
    fc.save_checkpoint(chn, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(fc.CheckpointError, match="truncated"):
        fc.load_checkpoint(path)


def _fuzz_checkpoint(tmp_path, base):
    chn = fc.identity_chain(2, 1, base=base, widths=(3,), steps=4, seed=0)
    rng = np.random.default_rng(1)
    for layer in chn.blocks[0].field.layers:
        layer.w += 0.3 * rng.normal(size=layer.w.shape)
    path = tmp_path / "c.wflw"
    fc.save_checkpoint(chn, path)
    return path, path.read_bytes()


_PAYLOAD_START = len(fc.MAGIC) + struct.calcsize("<HQ")


def _write_with_crc(path, mutated):
    start = _PAYLOAD_START
    mutated[-4:] = struct.pack("<I", zlib.crc32(bytes(mutated[start:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(mutated))


def _density_floats(density):
    if isinstance(density, ds.GaussianMixture):
        return [density.weights] + [a for c in density.components for a in _density_floats(c)]
    return [density.mean, density.cov]


def _chain_is_finite(chn):
    arrays = _density_floats(chn.base) + [np.asarray(chn.t_total)]
    for block in chn.blocks:
        arrays.append(np.asarray([*block.integrator.interval, block.field.t_total]))
        arrays.extend(block.parameter_arrays())
    return all(np.all(np.isfinite(a)) for a in arrays)


@pytest.mark.parametrize("base", [ds.standard_gaussian(2), ds.fig10_p()], ids=["gauss", "mix"])
def test_checkpoint_every_byte_mutation_loads_or_is_typed(tmp_path, base):
    # CRC-valid corruption of any one payload byte must either load a finite
    # chain or raise CheckpointError (the CLI's exit 3), never a bare exception
    path, blob = _fuzz_checkpoint(tmp_path, base)
    rejected = 0
    for pos in range(_PAYLOAD_START, len(blob) - 4):
        for value in (0, 2, 9, 255):
            mutated = bytearray(blob)
            mutated[pos] = value
            _write_with_crc(path, mutated)
            try:
                chn = fc.load_checkpoint(path)
            except fc.CheckpointError:
                rejected += 1
                continue
            assert _chain_is_finite(chn), (pos, value)
    assert rejected > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("base", [ds.standard_gaussian(2), ds.fig10_p()], ids=["gauss", "mix"])
def test_checkpoint_nonfinite_float_never_loads(tmp_path, base, bad):
    # a non-finite double written over any 8 payload bytes (t_total, interval
    # ends, weights, biases and base-density values among them) is rejected
    # unless the chain that loads holds only finite values
    path, blob = _fuzz_checkpoint(tmp_path, base)
    rejected = 0
    for pos in range(_PAYLOAD_START, len(blob) - 4 - 8 + 1):
        mutated = bytearray(blob)
        mutated[pos : pos + 8] = struct.pack("<d", bad)
        _write_with_crc(path, mutated)
        try:
            chn = fc.load_checkpoint(path)
        except fc.CheckpointError:
            rejected += 1
            continue
        assert _chain_is_finite(chn), pos
    assert rejected > 0


def test_checkpoint_nonfinite_t_total_rejected(tmp_path):
    path, blob = _fuzz_checkpoint(tmp_path, ds.standard_gaussian(2))
    mutated = bytearray(blob)
    offset = _PAYLOAD_START + struct.calcsize("<II")  # header: n_blocks, d, t_total
    mutated[offset : offset + 8] = struct.pack("<d", np.inf)
    _write_with_crc(path, mutated)
    with pytest.raises(fc.CheckpointError, match="non-finite"):
        fc.load_checkpoint(path)


def test_checkpoint_t_total_off_the_tiling_end_rejected(tmp_path):
    # a header T the blocks' intervals do not end at would load as a chain
    # whose fields embed time differently from the one saved
    path, blob = _fuzz_checkpoint(tmp_path, ds.standard_gaussian(2))
    mutated = bytearray(blob)
    offset = _PAYLOAD_START + struct.calcsize("<II")
    assert struct.unpack_from("<d", mutated, offset) == (1.0,)
    mutated[offset : offset + 8] = struct.pack("<d", 2.0)
    _write_with_crc(path, mutated)
    with pytest.raises(fc.CheckpointError, match="t_total"):
        fc.load_checkpoint(path)


# sha256 of the .wflw that _formula_chain writes; its weights and times are
# dyadic rationals and no rng stream is drawn, so every numpy writes the
# same bytes, and a change to the format changes this digest
_FORMULA_CHAIN_SHA256 = "86a6897835dcc893a84d27b137a946d6296c740951f763bff7039b003faa64d9"


def _formula_chain():
    """Three blocks, one Euler and one trained, over a mixture base; weights from a formula."""
    chn = fc.identity_chain(2, 3, base=ds.fig10_p(), widths=(4, 3), steps=3, t_total=1.5)
    for i, block in enumerate(chn.blocks):
        for layer in block.field.layers:
            for p in (layer.w, layer.b):
                p[...] = ((np.arange(p.size) * (i + 3)) % 17 - 8).reshape(p.shape) / 32.0
    chn.blocks[1].integrator = odeint.IntegratorConfig("euler", 5, (0.5, 1.0))
    chn.blocks[2].trained = True
    return chn


def test_checkpoint_bytes_pinned(tmp_path):
    chn = _formula_chain()
    path = tmp_path / "formula.wflw"
    fc.save_checkpoint(chn, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _FORMULA_CHAIN_SHA256
    x = np.random.default_rng(31).normal(size=(5, 2))
    assert np.array_equal(fc.log_density(fc.load_checkpoint(path), x), fc.log_density(chn, x))


@pytest.mark.parametrize("base", [ds.standard_gaussian(2), ds.fig10_p()], ids=["gauss", "mix"])
def test_checkpoint_every_truncation_rejected(tmp_path, base):
    path, blob = _fuzz_checkpoint(tmp_path, base)
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(fc.CheckpointError):
            fc.load_checkpoint(path)


def test_checkpoint_base_dimension_mismatch_rejected(tmp_path):
    path, _ = _fuzz_checkpoint(tmp_path, ds.standard_gaussian(2))
    chn = fc.load_checkpoint(path)
    chn.base = ds.standard_gaussian(3)
    fc.save_checkpoint(chn, path)
    with pytest.raises(fc.CheckpointError, match="dimension"):
        fc.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.wflw"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(fc.CheckpointError, match="magic"):
        fc.load_checkpoint(path)


def test_chain_requires_contiguous_intervals():
    f1 = vel.init_near_identity(2, widths=(4,), seed=0, t_total=2.0)
    f2 = vel.init_near_identity(2, widths=(4,), seed=1, t_total=2.0)
    b1 = fc.FlowBlock(f1, odeint.IntegratorConfig("rk4", 2, (0.0, 1.0)))
    b2 = fc.FlowBlock(f2, odeint.IntegratorConfig("rk4", 2, (1.5, 2.0)))
    with pytest.raises(ValueError, match="tile"):
        fc.FlowChain([b1, b2], ds.standard_gaussian(2))


def test_chain_requires_fields_to_embed_time_over_the_tiling_end():
    # a field built with the default T = 1 on a chain that ends at 0.5
    field = vel.init_near_identity(2, widths=(4,), seed=0)
    block = fc.FlowBlock(field, odeint.IntegratorConfig("rk4", 2, (0.0, 0.5)))
    with pytest.raises(ValueError, match="t_total"):
        fc.FlowChain([block], ds.standard_gaussian(2))


def test_field_rejects_unchained_layer_widths():
    layers = [Layer(np.zeros((3, 4)), np.zeros(4)), Layer(np.zeros((5, 2)), np.zeros(2))]
    with pytest.raises(ValueError, match="chain"):
        vel.VelocityField(layers, 1.0, 2)
    with pytest.raises(ValueError, match="at least one layer"):
        vel.VelocityField([], 1.0, 2)
