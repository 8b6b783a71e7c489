"""Fixed-step integration: accuracy, invertibility, augmented divergence state."""

import gradcheck
import numpy as np
import pytest
from conftest import affine_field, affine_flow_map, assert_declared_acts_refused
from gradcheck import replay
from stage_oracle import time_column

from wflow import chain as fc
from wflow import datasets as ds
from wflow import metrics, objectives, odeint
from wflow import numcore as nc
from wflow import velocity as vel


def _noisy_field(d, seed, scale=0.35):
    field = vel.init_near_identity(d, widths=(12, 12), seed=seed)
    rng = np.random.default_rng(seed + 7)
    for layer in field.layers:
        layer.w += scale * rng.normal(size=layer.w.shape)
    return field


def test_exponential_growth():
    field = affine_field(np.array([[1.0]]))
    cfg = odeint.IntegratorConfig("rk4", 100, (0.0, 1.0))
    out = odeint.integrate(field, np.array([1.0]), cfg)
    assert out[0] == pytest.approx(np.e, abs=1e-6)


def test_zero_field_is_identity():
    field = vel.init_near_identity(2, widths=(8,), seed=0)
    x0 = np.array([[0.4, -1.0], [2.0, 0.1]])
    for scheme, steps in (("euler", 1), ("euler", 50), ("rk4", 3)):
        cfg = odeint.IntegratorConfig(scheme, steps, (0.0, 1.0))
        assert np.array_equal(odeint.integrate(field, x0, cfg), x0)


def test_round_trip_accuracy():
    field = _noisy_field(2, seed=1)
    cfg = odeint.IntegratorConfig("rk4", 64, (0.0, 1.0))
    x = np.random.default_rng(2).normal(size=(20, 2))
    z = odeint.integrate(field, x, cfg)
    back = odeint.integrate(field, z, cfg, direction="reverse")
    assert np.abs(back - x).max() <= 1e-6


def test_rk4_order():
    # one-way global error against a fine-grid reference sits at order ~4;
    # the round-trip error improves at least that fast when h halves (in
    # practice faster, since the forward and reverse leading error terms
    # cancel, pushing the measured round-trip slope to ~5)
    field = _noisy_field(2, seed=3, scale=0.6)
    x = np.random.default_rng(4).normal(size=(16, 2))
    reference = odeint.integrate(field, x, odeint.IntegratorConfig("rk4", 512, (0.0, 1.0)))
    one_way, round_trip, hs = [], [], []
    for steps in (4, 8, 16, 32):
        cfg = odeint.IntegratorConfig("rk4", steps, (0.0, 1.0))
        z = odeint.integrate(field, x, cfg)
        back = odeint.integrate(field, z, cfg, direction="reverse")
        one_way.append(np.abs(z - reference).max())
        round_trip.append(np.abs(back - x).max())
        hs.append(1.0 / steps)
    slope_one_way = np.polyfit(np.log(hs), np.log(one_way), 1)[0]
    slope_round_trip = np.polyfit(np.log(hs), np.log(round_trip), 1)[0]
    assert 3.5 <= slope_one_way <= 4.5, f"one-way order {slope_one_way:.2f}"
    assert slope_round_trip >= 3.5, f"round-trip order {slope_round_trip:.2f}"


def test_composition_matches_full_interval():
    field = _noisy_field(2, seed=5)
    x = np.random.default_rng(6).normal(size=(8, 2))
    full = odeint.integrate(field, x, odeint.IntegratorConfig("rk4", 32, (0.0, 1.0)))
    half1 = odeint.integrate(field, x, odeint.IntegratorConfig("rk4", 16, (0.0, 0.5)))
    half2 = odeint.integrate(field, half1, odeint.IntegratorConfig("rk4", 16, (0.5, 1.0)))
    assert np.abs(full - half2).max() <= 1e-12


def test_logdet_constant_divergence():
    field = affine_field(np.diag([1.0, 2.0]))
    cfg = odeint.IntegratorConfig("rk4", 32, (0.0, 1.0))
    aug = odeint.integrate_augmented(field, np.array([[1.0, 1.0]]), cfg)
    assert aug.logdet.data[0] == pytest.approx(3.0, abs=1e-6)


def test_logdet_zero_field():
    field = vel.init_near_identity(2, widths=(8,), seed=0)
    cfg = odeint.IntegratorConfig("rk4", 8, (0.0, 1.0))
    aug = odeint.integrate_augmented(field, np.ones((3, 2)), cfg)
    assert np.all(aug.logdet.data == 0.0)
    assert np.all(aug.displacement_sq().data == 0.0)


def test_logdet_additive_across_subintervals():
    field = _noisy_field(2, seed=8)
    x = np.random.default_rng(9).normal(size=(4, 2))
    full = odeint.integrate_augmented(field, x, odeint.IntegratorConfig("rk4", 32, (0.0, 1.0)))
    a = odeint.integrate_augmented(field, x, odeint.IntegratorConfig("rk4", 16, (0.0, 0.5)))
    b = odeint.integrate_augmented(field, a.x.data, odeint.IntegratorConfig("rk4", 16, (0.5, 1.0)))
    assert np.abs(full.logdet.data - (a.logdet.data + b.logdet.data)).max() <= 1e-12


def test_logdet_matches_fd_jacobian_determinant():
    # exp(integral of divergence) against |det| of the numerically
    # differentiated flow map, on a nonlinear field in d = 2
    field = _noisy_field(2, seed=10, scale=0.5)
    cfg = odeint.IntegratorConfig("rk4", 48, (0.0, 1.0))
    x0 = np.array([0.3, -0.2])
    aug = odeint.integrate_augmented(field, x0, cfg)
    h = 1e-5
    jac = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        plus = odeint.integrate(field, x0 + e, cfg)
        minus = odeint.integrate(field, x0 - e, cfg)
        jac[:, j] = (plus - minus) / (2 * h)
    det = abs(np.linalg.det(jac))
    assert np.exp(aug.logdet.data[0]) == pytest.approx(det, rel=1e-4)


def test_logdet_matches_matrix_exponential_oracle():
    a = np.array([[0.2, -0.7], [0.4, -0.1]])
    field = affine_field(a, c=np.array([0.3, 0.1]))
    cfg = odeint.IntegratorConfig("rk4", 64, (0.0, 1.0))
    x0 = np.array([[0.5, 1.0]])
    aug = odeint.integrate_augmented(field, x0, cfg)
    m, b = affine_flow_map(a, np.array([0.3, 0.1]), 1.0)
    assert np.allclose(aug.x.data[0], m @ x0[0] + b, atol=1e-8)
    assert aug.logdet.data[0] == pytest.approx(np.log(np.linalg.det(m)), abs=1e-8)


def test_reverse_logdet_negates_forward():
    field = _noisy_field(2, seed=12)
    cfg = odeint.IntegratorConfig("rk4", 32, (0.0, 1.0))
    x = np.random.default_rng(13).normal(size=(5, 2))
    fwd = odeint.integrate_augmented(field, x, cfg)
    rev = odeint.integrate_augmented(field, fwd.x.data, cfg, direction="reverse")
    assert np.abs(fwd.logdet.data + rev.logdet.data).max() <= 1e-6


def test_nonfinite_state_reports_step():
    # a stiff expanding field overflows float64 partway through the interval
    field = affine_field(np.array([[10_000.0]]))
    cfg = odeint.IntegratorConfig("rk4", 40, (0.0, 1.0))
    with pytest.raises(odeint.IntegrationError) as err:
        odeint.integrate(field, np.array([1.0]), cfg)
    assert err.value.step >= 0


@pytest.mark.parametrize("run", [
    lambda chn, x: odeint.integrate(chn.blocks[0].field, x, chn.blocks[0].integrator),
    lambda chn, x: odeint.integrate(chn.blocks[0].field, x[0], chn.blocks[0].integrator),
    lambda chn, x: fc.log_density(chn, x),
    lambda chn, x: fc.log_density(chn, x[0]),
    lambda chn, x: fc.push_log_density(chn, x),
    lambda chn, x: metrics.nll_eval(chn, x),
    lambda chn, x: metrics.nll_eval(chn, x[0]),
    lambda chn, x: fc.forward_map(chn, ds.ParticleEnsemble(x)),
    lambda chn, x: fc.inverse_map(chn, ds.ParticleEnsemble(x)),
], ids=["integrate", "integrate_point", "log_density", "log_density_point", "push_log_density",
        "nll_eval", "nll_eval_point", "forward_map", "inverse_map"])
def test_eager_dimension_mismatch_is_a_shape_error(run):
    chn = fc.identity_chain(2, 2, steps=2, widths=(4,))
    with pytest.raises(nc.ShapeError, match="point dimension 3 != field dimension 2"):
        run(chn, np.ones((4, 3)))


def test_config_validation():
    with pytest.raises(ValueError):
        odeint.IntegratorConfig("rk4", 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        odeint.IntegratorConfig("rk5", 4, (0.0, 1.0))
    with pytest.raises(ValueError):
        odeint.IntegratorConfig("rk4", 4, (1.0, 1.0))


# ---------------------------------------------------------------------------
# the integrate_block primitive against the per-stage Tensor recording it
# replaced, written out here as the oracle: one stage node per stage (the old
# dense-layer chain for velocity-only stages) and the Euler/RK4 arithmetic as
# add/mul tape ops

def _combine_rk4_oracle(x, k1, k2, k3, k4, h):
    ksum = nc.add(nc.add(k1, nc.mul(nc.add(k2, k3), 2.0)), k4)
    return nc.add(x, nc.mul(ksum, h / 6.0))


def _stage_loop(bound, x0, cfg, direction, est=None):
    t, h = (cfg.interval[0], cfg.h) if direction == "forward" else (cfg.interval[1], -cfg.h)

    def f(x, s):
        if est is None:
            return bound.bound.forward(nc.concat([x, time_column(bound, s, x.shape[0])], 1)), None
        return bound.velocity_and_divergence(x, s)

    x, logdet = x0, nc.Tensor(np.zeros(x0.shape[0]))
    for _ in range(cfg.steps):
        if cfg.scheme == "euler":
            v, div = f(x, t)
            x = nc.add(x, nc.mul(v, h))
            if div is not None:
                logdet = nc.add(logdet, nc.mul(div, h))
        else:
            k1, d1 = f(x, t)
            k2, d2 = f(nc.add(x, nc.mul(k1, h / 2.0)), t + h / 2.0)
            k3, d3 = f(nc.add(x, nc.mul(k2, h / 2.0)), t + h / 2.0)
            k4, d4 = f(nc.add(x, nc.mul(k3, h)), t + h)
            x = _combine_rk4_oracle(x, k1, k2, k3, k4, h)
            if d1 is not None:
                logdet = _combine_rk4_oracle(logdet, d1, d2, d3, d4, h)
        t += h
    return x, (logdet if est is not None else None)


def _assert_round_off(got, want):
    # the dense-layer chain adds the time through its (d+1)-row GEMM, the
    # stage kernel through the first layer's bias: equal up to round-off
    floor = 1e-13 * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=floor)


def _block(bound, x0, cfg, direction, est=None):
    if est is None:
        return odeint.integrate_tensor(bound, x0, cfg, direction), None
    aug = odeint.integrate_augmented_tensor(bound, x0, cfg, direction)
    return aug.x, aug.logdet


def _chain_fields(blocks, scheme, widths=(5, 4)):
    edges = np.linspace(0.0, 1.0, blocks + 1)
    fields, cfgs = [], []
    for i in range(blocks):
        interval = (float(edges[i]), float(edges[i + 1]))
        field = vel.init_near_identity(2, widths=widths, seed=40 + i)
        rng = np.random.default_rng(50 + i)
        for layer in field.layers:
            layer.w += 0.5 * rng.normal(size=layer.w.shape)
            layer.b += 0.3 * rng.normal(size=layer.b.shape)
        fields.append(field)
        cfgs.append(odeint.IntegratorConfig(scheme, 3, interval))
    return fields, cfgs


def _chain_program(fields, cfgs, x, direction, est, run):
    """End state, summed logdet, and the value and gradients (params, then x) of a read-out."""
    m, d = x.shape
    mix = np.random.default_rng(17)
    cx, cl = mix.normal(size=(m, d)), mix.normal(size=m)
    tape = nc.Tape()
    with tape:
        bounds = [f.bind(tape) for f in fields]
        y = tape.watch(nc.Tensor(x.copy()))
        pairs = list(zip(bounds, cfgs))
        total = None
        for bound, cfg in (pairs if direction == "forward" else pairs[::-1]):
            y, logdet = run(bound, y, cfg, direction, est)
            if logdet is not None:
                total = logdet if total is None else nc.add(total, logdet)
        out = nc.tsum(nc.mul(y, cx))
        if total is not None:
            out = nc.add(out, nc.tsum(nc.mul(total, cl)))
    tape.mark_output(out)
    tape.freeze()
    grads = [g.data for g in nc.grad(tape)]
    return y.data, (None if total is None else total.data), float(out.data), grads


# the exact trace, the tangent kernel on 3 Rademacher probes per row (see
# _pin_probes), or the velocity only
_BLOCK_ESTIMATORS = ["exact", 3, None]
_BLOCK_IDS = ["exact", "hutch3", "velocity"]


def _pin_probes(monkeypatch, est):
    """For an int ``est`` K, make every stage take the tangent kernel on K fixed probes.

    The exact rule takes the closed form for one or two hidden layers and the
    d basis vectors otherwise. K Rademacher probes per row, one draw per batch
    shape, run the tangent algebra, forward and adjoint, on directions other
    than the basis and on stacks that would take the closed form; the
    divergence is then the sum of the K quadratic forms eps^T J eps.
    """
    if not isinstance(est, int):
        return

    def probes(mode, m, d):
        if mode != "tangent":
            return None
        return np.random.default_rng(100 * m + d).integers(0, 2, size=(est, m, d)) * 2.0 - 1.0

    monkeypatch.setattr(vel, "divergence_mode", lambda n_layers: "tangent")
    monkeypatch.setattr(vel, "stage_tangents", probes)


# one hidden layer (the closed form's c), two (its coupling B) and three (no
# closed form: the exact trace takes the tangents); the block's stages share
# one workspace, the oracle's stage nodes each build their own
@pytest.mark.parametrize("blocks, widths", [
    (1, (5, 4)), (2, (5, 4)), (1, (7,)), (2, (7,)), (1, (6, 5, 4)), (2, (6, 5, 4)),
], ids=["1", "2", "1-w7", "2-w7", "1-w654", "2-w654"])
@pytest.mark.parametrize("est", _BLOCK_ESTIMATORS, ids=_BLOCK_IDS)
@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_block_adjoint_matches_stage_oracle(monkeypatch, scheme, direction, est, blocks, widths):
    _pin_probes(monkeypatch, est)
    fields, cfgs = _chain_fields(blocks, scheme, widths=widths)
    x = np.random.default_rng(blocks).normal(size=(6, 2))
    want = _chain_program(fields, cfgs, x, direction, est, _stage_loop)
    got = _chain_program(fields, cfgs, x, direction, est, _block)
    assert (got[1] is None) == (est is None)
    if est is None:
        _assert_round_off(got[0], want[0])
        _assert_round_off(got[2], want[2])
    else:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
    assert len(got[3]) == len(want[3]) == 2 * (len(widths) + 1) * blocks + 1
    for g_got, g_want in zip(got[3], want[3]):
        assert np.linalg.norm(g_got - g_want) <= 1e-12 * max(np.linalg.norm(g_want), 1e-300)


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("est", _BLOCK_ESTIMATORS, ids=_BLOCK_IDS)
@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_block_adjoint_matches_finite_differences(monkeypatch, scheme, direction, est, blocks):
    _pin_probes(monkeypatch, est)
    fields, cfgs = _chain_fields(blocks, scheme)
    x = np.random.default_rng(blocks + 10).normal(size=(3, 2))
    params = [p for f in fields for p in f.parameter_arrays()] + [x]

    def loss_fn():
        _, _, value, grads = _chain_program(fields, cfgs, x, direction, est, _block)
        return value, grads

    report = gradcheck.check_loss_gradient_fd(loss_fn, params)
    assert report.passed, str(report)


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_block_output_columns_all_differentiable(scheme):
    # the packed output also carries every stage input; a read-out of all of
    # it must get the same gradient as finite differences
    fields, cfgs = _chain_fields(1, scheme)
    x = np.random.default_rng(21).normal(size=(3, 2))

    def loss_fn():
        tape = nc.Tape()
        with tape:
            bound = fields[0].bind(tape)
            x0 = tape.watch(nc.Tensor(x.copy()))
            out = odeint._integrate_block(bound, x0, cfgs[0], "forward", True)
            mix = np.random.default_rng(22).normal(size=out.shape)
            loss = nc.tsum(nc.mul(out, mix))
        tape.mark_output(loss)
        tape.freeze()
        return float(loss.data), [g.data for g in nc.grad(tape)]

    report = gradcheck.check_loss_gradient_fd(loss_fn, [*fields[0].parameter_arrays(), x])
    assert report.passed, str(report)


def test_block_records_one_node():
    fields, cfgs = _chain_fields(1, "rk4")
    for est, reads in ((None, ["slice"]), ("exact", ["slice", "sum", "slice"])):
        tape = nc.Tape()
        with tape:
            _block(fields[0].bind(tape), nc.Tensor(np.ones((4, 2))), cfgs[0], "forward", est)
        ops = [node.op for node in tape.nodes if node.op not in ("param", "const")]
        assert ops == ["integrate_block", *reads]


def test_jko_loss_tape_is_a_few_dozen_nodes(monkeypatch):
    # one 10-step RK4 block at batch 192: 555 nodes when every stage and every
    # RK4 add/mul was its own node
    sizes = []
    sweep = nc.grad

    def spy(tape):
        sizes.append(len(tape.nodes))
        return sweep(tape)

    monkeypatch.setattr(nc, "grad", spy)
    field = vel.init_near_identity(2, widths=(64, 64), seed=9)
    block = fc.FlowBlock(field, odeint.IntegratorConfig("rk4", 10, (0.0, 1.0)))
    objectives.jko_block_loss(block, np.random.default_rng(2).normal(size=(192, 2)), 0.5)
    assert sizes and sizes[0] <= 30


def _record_block_program(fields, cfgs, x, est):
    tape = nc.Tape()
    with tape:
        bound = fields[0].bind(tape)
        y, logdet = _block(bound, nc.Tensor(x), cfgs[0], "forward", est)
        out = nc.tmean(nc.square(y))
        if logdet is not None:
            out = nc.add(out, nc.tmean(logdet))
    tape.mark_output(out)
    tape.freeze()
    return out.data, tape


@pytest.mark.parametrize("est", _BLOCK_ESTIMATORS, ids=_BLOCK_IDS)
def test_block_replay_matches_fresh_recording(monkeypatch, est):
    _pin_probes(monkeypatch, est)
    fields, cfgs = _chain_fields(1, "rk4")
    x = np.random.default_rng(82).normal(size=(5, 2))
    _, tape = _record_block_program(fields, cfgs, x, est)
    before = [g.data for g in nc.grad(tape)]
    perturbed = [p + 0.125 for p in fields[0].parameter_arrays()]
    replayed = replay(tape, perturbed)
    for layer, (w, b) in zip(fields[0].layers, zip(perturbed[::2], perturbed[1::2])):
        layer.w, layer.b = w, b
    fresh, _ = _record_block_program(fields, cfgs, x, est)
    assert np.array_equal(replayed[0], fresh)
    # the stage inputs live in the node's output, so the replay leaves them as recorded
    after = [g.data for g in nc.grad(tape)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_eager_integration_bit_identical_to_stage_loop(scheme, direction):
    field = _noisy_field(3, seed=14)
    cfg = odeint.IntegratorConfig(scheme, 5, (0.0, 1.0))
    x = np.random.default_rng(15).normal(size=(9, 3))
    want, _ = _stage_loop(field.bind(), nc.Tensor(x), cfg, direction)
    got = odeint.integrate(field, x, cfg, direction)
    _assert_round_off(got, want.data)
    taped = odeint.integrate_tensor(field.bind(), nc.Tensor(x), cfg, direction)
    assert np.array_equal(got, taped.data)
    want_x, want_ld = _stage_loop(field.bind(), nc.Tensor(x), cfg, direction, "exact")
    aug = odeint.integrate_augmented(field, x, cfg, direction)
    assert np.array_equal(aug.x.data, want_x.data)
    assert np.array_equal(aug.logdet.data, want_ld.data)


@pytest.mark.parametrize("widths", [(5,), (5, 4)], ids=["depth1", "depth2"])
@pytest.mark.parametrize("act", ["tanh", "softplus"])
@pytest.mark.parametrize("scheme", ["euler", "rk4"])
def test_closed_form_block_adjoint_matches_finite_differences(tmp_path, scheme, act, widths):
    field = vel.init_near_identity(2, widths=widths, seed=23)
    rng = np.random.default_rng(24)
    for layer in field.layers:
        layer.w += 0.5 * rng.normal(size=layer.w.shape)
        layer.b += 0.3 * rng.normal(size=layer.b.shape)
    if act != "tanh":
        # a stack's hidden layers are tanh, and a .wflw declaring softplus does not load
        assert_declared_acts_refused(field, act, "identity", tmp_path)
        return
    cfg = odeint.IntegratorConfig(scheme, 3, (0.0, 1.0))
    est = "exact"
    assert odeint._block_meta(field.bind(), cfg, "forward", True).mode == "closed"
    x = rng.normal(size=(3, 2))

    def loss_fn():
        _, _, value, grads = _chain_program([field], [cfg], x, "forward", est, _block)
        return value, grads

    report = gradcheck.check_loss_gradient_fd(loss_fn, [*field.parameter_arrays(), x])
    assert report.passed, str(report)
