"""Velocity fields: initialization, evaluation, the exact divergence."""

import gradcheck
import numpy as np
import pytest
import stage_oracle
from conftest import affine_field, assert_declared_acts_refused, divergence, eval_velocity
from gradcheck import replay
from stage_oracle import lean_forward, lean_vjp, time_column

from wflow import numcore as nc
from wflow import odeint
from wflow import velocity as vel


def test_near_identity_init_outputs_zero():
    field = vel.init_near_identity(3, widths=(16, 16), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    assert np.all(eval_velocity(field, x, 0.3) == 0.0)


def test_init_determinism():
    f1 = vel.init_near_identity(2, widths=(8,), seed=42)
    f2 = vel.init_near_identity(2, widths=(8,), seed=42)
    for p1, p2 in zip(f1.parameter_arrays(), f2.parameter_arrays()):
        assert np.array_equal(p1, p2)


def test_init_rejects_bad_dim():
    with pytest.raises(ValueError):
        vel.init_near_identity(0, widths=(8,))
    with pytest.raises(ValueError):
        vel.init_near_identity(2, widths=())


def test_affine_single_layer_evaluation():
    # a lone linear layer acting on (x, t~): A x + c * t~
    a = np.array([[0.5, -1.0], [2.0, 0.25]])
    field = affine_field(a, t_total=2.0)
    # wire the time column by hand to check the embedding scale
    field.layers[0].w[2, :] = np.array([3.0, -3.0])
    x = np.array([1.0, 2.0])
    t = 1.0  # scaled embedding is t / t_total = 0.5
    expected = a @ x + 0.5 * np.array([3.0, -3.0])
    assert np.allclose(eval_velocity(field, x, t), expected)


def test_batch_matches_per_point():
    field = vel.init_near_identity(2, widths=(8,), seed=3)
    for layer in field.layers:
        layer.w += 0.3 * np.random.default_rng(4).normal(size=layer.w.shape)
    pts = np.random.default_rng(5).normal(size=(7, 2))
    batch = eval_velocity(field, pts, 0.4)
    single = np.stack([eval_velocity(field, p, 0.4) for p in pts])
    assert np.allclose(batch, single)


def test_dimension_mismatch():
    field = vel.init_near_identity(2, widths=(4,), seed=0)
    with pytest.raises(nc.ShapeError):
        eval_velocity(field, np.ones(3), 0.0)


def test_divergence_linear_trace():
    assert divergence(affine_field(3.0 * np.eye(2)), np.ones(2), 0.0) == pytest.approx(6.0)
    a = np.array([[0.5, 0.0], [0.0, -0.5]])
    assert divergence(affine_field(a), np.ones(2), 0.0) == pytest.approx(0.0)


def _mlp_field(d, widths, seed, scale=0.5):
    field = vel.init_near_identity(d, widths=widths, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for layer in field.layers:
        layer.w += scale * rng.normal(size=layer.w.shape)
        layer.b += scale * rng.normal(size=layer.b.shape)
    return field


@pytest.mark.parametrize("d", [1, 2, 5, 8, 10, 16])
def test_exact_divergence_matches_fd_jacobian_trace(d):
    # one and two hidden layers take the closed form, three the d basis
    # tangents; both are the exact trace at every d
    rng = np.random.default_rng(d)
    x = rng.normal(size=d)
    t = 0.37
    h = 1e-6
    for widths, mode in (((12,), "closed"), ((12, 12), "closed"), ((12, 12, 12), "tangent")):
        field = _mlp_field(d, widths, seed=d, scale=0.4)
        assert vel.divergence_mode(len(field.layers)) == mode
        trace = 0.0
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            vp = eval_velocity(field, x + e, t)
            vm = eval_velocity(field, x - e, t)
            trace += (vp[j] - vm[j]) / (2 * h)
        exact = divergence(field, x, t)
        assert exact == pytest.approx(trace, rel=1e-5, abs=1e-8), widths


def test_velocity_continuous_in_time():
    # no hidden time discretization: velocity varies smoothly across the interval
    field = _mlp_field(2, (12, 12), seed=33, scale=0.4)
    x = np.array([0.5, 0.5])
    ts = np.linspace(0.0, 1.0, 101)
    vals = np.stack([eval_velocity(field, x, t) for t in ts])
    steps = np.linalg.norm(np.diff(vals, axis=0), axis=1)
    assert steps.max() < 0.1  # ~ Lipschitz * dt for a smooth tanh field


def test_divergence_differentiable_in_parameters():
    field = _mlp_field(2, (12, 12), seed=44, scale=0.4)
    params = field.parameter_arrays()
    x = np.random.default_rng(0).normal(size=(4, 2))

    def loss_fn():
        tape = nc.Tape()
        with tape:
            bound = field.bind(tape)
            _, div = bound.velocity_and_divergence(nc.Tensor(x), 0.3)
            out = nc.tmean(nc.square(div))
        tape.mark_output(out)
        tape.freeze()
        return float(out.data), [g.data for g in nc.grad(tape)]

    report = gradcheck.check_loss_gradient_fd(loss_fn, params)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# the fused velocity_divergence primitive against the per-basis and per-probe
# directional-derivative chains it replaced, written out here as the oracle

def _chain_velocity_and_divergence(bound, x, t, est):
    m, d = x.shape
    h = nc.concat([x, time_column(bound, t, m)], axis=1)
    derivs = []
    for w, b in bound.bound.entries[:-1]:
        h = nc.tanh(nc.affine(h, w, b))
        derivs.append(nc.add(1.0, nc.mul(nc.square(h), -1.0)))
    h = nc.affine(h, *bound.bound.entries[-1])
    derivs.append(None)
    if est is None:
        return h, None

    def chain(u):
        for (w, _), deriv in zip(bound.bound.entries, derivs):
            u = nc.matmul(u, w)
            if deriv is not None:
                u = nc.mul(u, deriv)
        return u

    cols = []
    for j in range(d):
        e = np.zeros((1, d + 1))
        e[0, j] = 1.0
        cols.append(nc.slice_(chain(nc.Tensor(e)), 1, j, j + 1))
    div = nc.tsum(nc.concat(cols, axis=1), axis=1)
    if div.shape[0] == 1 and m > 1:
        div = nc.mul(div, nc.Tensor(np.ones(m)))
    return h, div


def _fused(bound, x, t, est):
    if est is None:
        return bound.velocity(x, t), None
    return bound.velocity_and_divergence(x, t)


def _values_and_grads(field, x, est, evaluate, seed=5):
    """v, div and the gradient of a random linear read-out of both, w.r.t. params and x."""
    m, d = x.shape
    mix = np.random.default_rng(seed)
    cv, cd = mix.normal(size=(m, d)), mix.normal(size=m)
    tape = nc.Tape()
    with tape:
        bound = field.bind(tape)
        xt = tape.watch(nc.Tensor(x.copy()))
        v, div = evaluate(bound, xt, 0.37, est)
        out = nc.tsum(nc.mul(v, cv))
        if div is not None:
            out = nc.add(out, nc.tsum(nc.mul(div, cd)))
    tape.mark_output(out)
    tape.freeze()
    return v.data, (None if div is None else div.data), [g.data for g in nc.grad(tape)]


# the exact trace (closed for one or two hidden layers, tangents for three),
# or the velocity alone; ``act`` is the hidden activation a .wflw of the
# field declares, and only tanh, the one a hidden layer has, loads
@pytest.mark.parametrize("est", ["exact", None], ids=["exact", "velocity"])
@pytest.mark.parametrize("m", [1, 6])
@pytest.mark.parametrize("act", ["tanh", "softplus", "identity"])
@pytest.mark.parametrize("widths", [(7,), (12, 12), (6, 5, 4)])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_fused_matches_chain_oracle(tmp_path, d, widths, act, m, est):
    field = _mlp_field(d, widths, seed=10 * d + len(widths))
    if act != "tanh":
        assert_declared_acts_refused(field, act, "identity", tmp_path)
        return
    x = np.random.default_rng(d + m).normal(size=(m, d))
    want = _values_and_grads(field, x, est, _chain_velocity_and_divergence)
    got = _values_and_grads(field, x, est, _fused)
    assert got[0].shape == (m, d)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-13)
    assert (got[1] is None) == (want[1] is None) == (est is None)
    if est is not None:
        assert got[1].shape == (m,)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-13)
    assert len(got[2]) == len(want[2]) == 2 * len(field.layers) + 1  # params, then x
    for g_got, g_want in zip(got[2], want[2]):
        np.testing.assert_allclose(g_got, g_want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("m", [1, 4])
def test_fused_matches_chain_oracle_affine_field(m):
    rng = np.random.default_rng(31)
    field = affine_field(rng.normal(size=(3, 3)), rng.normal(size=3))
    field.layers[0].w[3] = rng.normal(size=3)  # time column
    x = rng.normal(size=(m, 3))
    want = _values_and_grads(field, x, "exact", _chain_velocity_and_divergence)
    got = _values_and_grads(field, x, "exact", _fused)
    for a, b in zip([got[0], got[1], *got[2]], [want[0], want[1], *want[2]]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("act", ["tanh", "softplus"])
def test_fused_gradient_matches_finite_differences(tmp_path, act):
    field = _mlp_field(2, (5, 4), seed=61, scale=0.4)
    if act != "tanh":
        assert_declared_acts_refused(field, act, "identity", tmp_path)
        return
    x = np.random.default_rng(62).normal(size=(3, 2))
    params = [*field.parameter_arrays(), x]

    def loss_fn():
        tape = nc.Tape()
        with tape:
            bound = field.bind(tape)
            xt = tape.watch(nc.Tensor(x))
            v, div = bound.velocity_and_divergence(xt, 0.6)
            out = nc.add(nc.tmean(nc.square(v)), nc.tmean(nc.mul(div, nc.tsum(v, axis=1))))
        tape.mark_output(out)
        tape.freeze()
        return float(out.data), [g.data for g in nc.grad(tape)]

    report = gradcheck.check_loss_gradient_fd(loss_fn, params)
    assert report.passed, str(report)


def test_fused_node_one_per_call():
    field = _mlp_field(2, (8, 8), seed=71)
    tape = nc.Tape()
    with tape:
        field.bind(tape).velocity_and_divergence(nc.Tensor(np.ones((4, 2))), 0.2)
    ops = [node.op for node in tape.nodes if node.op not in ("param", "const")]
    assert ops == ["velocity_divergence", "slice", "slice", "sum"]


def _record_fused_program(field, x):
    tape = nc.Tape()
    with tape:
        bound = field.bind(tape)
        v, div = bound.velocity_and_divergence(nc.Tensor(x), 0.4)
        out = nc.add(nc.tmean(nc.square(v)), nc.tmean(div))
    tape.mark_output(out)
    tape.freeze()
    return out.data, tape


def test_fused_replay_matches_fresh_recording():
    field = _mlp_field(3, (9, 7), seed=81)
    x = np.random.default_rng(82).normal(size=(5, 3))
    _, tape = _record_fused_program(field, x)
    before = [g.data for g in nc.grad(tape)]
    perturbed = [p + 0.125 for p in field.parameter_arrays()]
    replayed = replay(tape, perturbed)
    for layer, (w, b) in zip(field.layers, zip(perturbed[::2], perturbed[1::2])):
        layer.w, layer.b = w, b
    fresh, _ = _record_fused_program(field, x)
    assert np.array_equal(replayed[0], fresh)
    # the node keeps no residual a replay could overwrite
    after = [g.data for g in nc.grad(tape)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_fused_nonfinite_weight_names_the_op():
    field = _mlp_field(2, (6,), seed=91)
    field.layers[1].w[2, 0] = np.nan
    tape = nc.Tape()
    with pytest.raises(nc.NumericError) as err:
        with tape:
            field.bind(tape).velocity_and_divergence(nc.Tensor(np.ones((3, 2))), 0.0)
    assert err.value.op == "velocity_divergence"
    # the op's inputs are registered first, so the reported index is the slot
    # the op would take; the last node is its time leaf, the op is not recorded
    assert err.value.index == len(tape.nodes)
    assert tape.nodes[-1].op == "const"


def test_fused_nonfinite_weight_through_odeint_reports_step():
    field = _mlp_field(2, (6,), seed=92)
    field.layers[0].b[1] = np.nan
    cfg = odeint.IntegratorConfig("rk4", 4, (0.0, 1.0))
    with pytest.raises(odeint.IntegrationError) as err:
        odeint.integrate_augmented(field, np.ones((3, 2)), cfg)
    assert err.value.step == 0
    assert err.value.__cause__.op == "velocity_divergence"


def test_augmented_overflow_reports_same_step_as_plain():
    # a stiff expanding field overflows partway; the fused stage and the plain
    # velocity stage run the same arithmetic on x, so they fail at the same step
    field = affine_field(np.array([[10_000.0]]))
    cfg = odeint.IntegratorConfig("rk4", 40, (0.0, 1.0))
    with pytest.raises(odeint.IntegrationError) as plain:
        odeint.integrate(field, np.array([1.0]), cfg)
    with pytest.raises(odeint.IntegrationError) as aug:
        odeint.integrate_augmented(field, np.array([1.0]), cfg)
    assert aug.value.step == plain.value.step > 0


# ---------------------------------------------------------------------------
# the closed-form exact trace against the tangent kernel, which stays the
# oracle (and the path for deeper stacks and a lone output layer)

def _stage_case(field, m, seed):
    d = field.d
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, d))
    cotangents = (rng.normal(size=(m, d)), rng.normal(size=m))
    return x, field.parameter_arrays(), cotangents


def _basis(m, d):
    return np.broadcast_to(np.eye(d)[:, None, :], (d, m, d))


def _rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("d", [1, 2, 8, 32])
@pytest.mark.parametrize("widths", [(9,), (9, 7)], ids=["depth1", "depth2"])
@pytest.mark.parametrize("act", ["tanh", "softplus", "identity"])
def test_closed_form_matches_tangent_kernel(tmp_path, d, widths, act):
    m = 6
    field = _mlp_field(d, widths, seed=d + len(widths))
    if act != "tanh":
        assert_declared_acts_refused(field, act, "identity", tmp_path)
        return
    x, params, (v_bar, div_bar) = _stage_case(field, m, seed=d)
    assert vel.divergence_mode(len(field.layers)) == "closed"
    assert vel.stage_tangents("closed", m, d) is None  # no (d, m, d) basis rides along
    want_v, want_div = lean_forward(x, 0.4, params, "tangent")
    got_v, got_div = lean_forward(x, 0.4, params, "closed")
    assert np.array_equal(got_v, want_v)
    want_h, want_g = lean_vjp(x, 0.4, params, "tangent", v_bar, div_bar)
    got_h, got_g = lean_vjp(x, 0.4, params, "closed", v_bar, div_bar)
    assert len(got_g) == len(want_g) == len(params)
    for got, want in zip([got_div, got_h, *got_g], [want_div, want_h, *want_g]):
        assert got.shape == want.shape
        assert _rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("make, output", [
    (lambda: _mlp_field(3, (6, 5, 4), seed=5), "identity"),
    (lambda: _mlp_field(3, (6, 5), seed=6), "tanh"),
    (lambda: affine_field(np.random.default_rng(7).normal(size=(3, 3))), "identity"),
], ids=["depth3", "tanh_output", "affine"])
def test_exact_trace_outside_closed_form_keeps_tangents(tmp_path, make, output):
    field = make()
    if output != "identity":
        # no stack has a tanh output layer, and a .wflw declaring one does not load
        assert_declared_acts_refused(field, "tanh", output, tmp_path)
        return
    m = 5
    x, params, (v_bar, div_bar) = _stage_case(field, m, seed=8)
    assert vel.divergence_mode(len(field.layers)) == "tangent"
    assert np.array_equal(vel.stage_tangents("tangent", m, 3), _basis(m, 3))
    # the fused node runs the tangent kernel on the basis, bit for bit
    v, div = field.bind().velocity_and_divergence(nc.Tensor(x), 0.4)
    want_v, want_div = lean_forward(x, 0.4, params, "tangent")
    assert np.array_equal(v.data, want_v) and np.array_equal(div.data, want_div)
    want_h, want_g = lean_vjp(x, 0.4, params, "tangent", v_bar, div_bar)
    tape = nc.Tape()
    with tape:
        bound = field.bind(tape)
        xt = tape.watch(nc.Tensor(x.copy()))
        v, div = bound.velocity_and_divergence(xt, 0.4)
        out = nc.add(nc.tsum(nc.mul(v, v_bar)), nc.tsum(nc.mul(div, div_bar)))
    tape.mark_output(out)
    tape.freeze()
    grads = [g.data for g in nc.grad(tape)]
    for got, want in zip(grads, [*want_g, want_h]):
        assert np.array_equal(got, want)


# the rule reads the layer count alone, whatever d is: the closed form for
# one or two hidden layers, the K = d basis tangents for three
@pytest.mark.parametrize("d", [8, 9, 16], ids=["d8", "d9", "d16"])
@pytest.mark.parametrize("widths, mode", [((6,), "closed"), ((6, 5), "closed"),
                                          ((6, 5, 4), "tangent")],
                         ids=["depth1", "depth2", "depth3"])
def test_draw_probes_rule(widths, mode, d):
    m = 3
    assert vel.divergence_mode(len(_mlp_field(d, widths, seed=1).layers)) == mode
    basis = vel.stage_tangents(mode, m, d)
    if mode == "closed":
        assert basis is None
    else:
        assert basis.shape == (d, m, d) and np.array_equal(basis, _basis(m, d))


# ---------------------------------------------------------------------------
# the lean kernel (x and its time, the time folded into the first bias, the
# coupling built once, in-place updates) against the concat-input kernel it
# replaced, kept in tests/stage_oracle.py

_KERNEL_CASES = {
    "velocity": ((9, 7), "velocity"),
    "tangent_exact_depth3": ((6, 5, 4), "tangent"),
    "closed_depth1": ((9,), "closed"),
    "closed_depth2": ((9, 7), "closed"),
}


def _assert_close_per_element(got, want):
    # 1e-13 of each element, floored at 1e-13 of the array's largest entry for
    # elements that come out of a cancellation
    assert got.shape == want.shape
    floor = 1e-13 * (np.abs(want).max() if want.size else 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=floor)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 192])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar_t", "per_row_t"])
@pytest.mark.parametrize("act", ["tanh", "softplus", "identity"])
@pytest.mark.parametrize("case", list(_KERNEL_CASES))
def test_lean_kernel_matches_concat_oracle(tmp_path, case, act, per_row, m):
    widths, mode = _KERNEL_CASES[case]
    d = 3
    field = _mlp_field(d, widths, seed=len(widths) + m)
    if act != "tanh":
        assert_declared_acts_refused(field, act, "identity", tmp_path)
        return
    params = field.parameter_arrays()
    rng = np.random.default_rng(m)
    x = rng.normal(size=(m, d))
    tau = rng.uniform(size=m) if per_row else 0.4
    probes = _basis(m, d) if mode == "tangent" else np.empty((0, m, d))
    h = np.concatenate([x, np.broadcast_to(np.reshape(tau, (-1, 1)), (m, 1))], axis=1)
    v_bar, div_bar = rng.normal(size=(m, d)), rng.normal(size=m)
    want_v, want_div = stage_oracle.stage_forward(h, probes, params, mode)
    got_v, got_div = lean_forward(x, tau, params, mode)
    want_h, want_g = stage_oracle.stage_vjp(h, probes, params, mode, v_bar, div_bar)
    got_x, got_g = lean_vjp(x, tau, params, mode, v_bar, div_bar)
    assert (got_div is None) == (want_div is None) == (mode == "velocity")
    assert len(got_g) == len(want_g) == len(params)
    pairs = [(got_v, want_v), (got_x, want_h[:, :d]), *zip(got_g, want_g)]
    if mode != "velocity":
        pairs.append((got_div, want_div))
    for got, want in pairs:
        _assert_close_per_element(got, want)


def test_lean_vjp_leaves_its_cotangents_unchanged():
    # the VJP updates cotangents in place on its own buffers only
    params = _mlp_field(2, (6, 5), seed=12).parameter_arrays()
    rng = np.random.default_rng(13)
    x, v_bar, div_bar = rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), rng.normal(size=4)
    before = [a.copy() for a in (x, v_bar, div_bar, *params)]
    for mode in ("velocity", "tangent", "closed"):
        lean_vjp(x, 0.3, params, mode, v_bar, div_bar)
    assert all(np.array_equal(a, b) for a, b in zip((x, v_bar, div_bar, *params), before))
