"""Velocity fields: initialization, evaluation, divergence estimators."""

import gradcheck
import numpy as np
import pytest
import stage_oracle
from conftest import affine_field, divergence, eval_velocity, pin_estimator
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
    # single identity layer acting on (x, t~): A x + c * t~
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


def _random_field(d, seed, scale=0.4):
    field = vel.init_near_identity(d, widths=(12, 12), seed=seed)
    rng = np.random.default_rng(seed + 100)
    for layer in field.layers:
        layer.w += scale * rng.normal(size=layer.w.shape)
        layer.b += scale * rng.normal(size=layer.b.shape)
    return field


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_exact_divergence_matches_fd_jacobian_trace(d):
    field = _random_field(d, seed=d)
    rng = np.random.default_rng(d)
    x = rng.normal(size=d)
    t = 0.37
    h = 1e-6
    trace = 0.0
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        vp = eval_velocity(field, x + e, t)
        vm = eval_velocity(field, x - e, t)
        trace += (vp[j] - vm[j]) / (2 * h)
    exact = divergence(field, x, t)
    assert exact == pytest.approx(trace, rel=1e-5, abs=1e-8)


def test_hutchinson_within_three_sigma(monkeypatch):
    # Rademacher quadratic-form estimator on a linear field with known trace:
    # variance of one probe is 2 * sum of squared off-diagonal entries
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    a[np.diag_indices(3)] = np.array([1.0, 2.0, 3.0])
    field = affine_field(a)
    probes = 10_000
    pin_estimator(monkeypatch, probes)
    got = divergence(field, np.ones(3), 0.0, np.random.default_rng(0))
    off = a + a.T
    var_one = np.sum((off - np.diag(np.diag(off))) ** 2) / 2.0
    sigma = np.sqrt(var_one / probes)
    assert abs(got - 6.0) <= 3 * sigma


def test_hutchinson_mean_matches_exact_on_mlp(monkeypatch):
    field = _random_field(2, seed=21)
    x = np.array([0.3, -0.8])
    exact = divergence(field, x, 0.5)
    pin_estimator(monkeypatch, 4000)
    approx = divergence(field, x, 0.5, np.random.default_rng(7))
    assert approx == pytest.approx(exact, abs=0.05 * max(1.0, abs(exact)))


def test_velocity_continuous_in_time():
    # no hidden time discretization: velocity varies smoothly across the interval
    field = _random_field(2, seed=33)
    x = np.array([0.5, 0.5])
    ts = np.linspace(0.0, 1.0, 101)
    vals = np.stack([eval_velocity(field, x, t) for t in ts])
    steps = np.linalg.norm(np.diff(vals, axis=0), axis=1)
    assert steps.max() < 0.1  # ~ Lipschitz * dt for a smooth tanh field


def test_divergence_differentiable_in_parameters():
    field = _random_field(2, seed=44)
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
# directional-derivative chains it replaced, written out here as the oracle;
# its sigmoid slope takes an exp primitive that the library does not need

def _exp_fwd(args, meta):
    return np.exp(args[0])


def _exp_bwd(node, inputs, g):
    return (g * node.value,)


nc._primitive("exp", _exp_fwd, _exp_bwd)


def _chain_velocity_and_divergence(bound, x, t, est, rng):
    m, d = x.shape
    h = nc.concat([x, time_column(bound, t, m)], axis=1)
    derivs = []
    for w, b, act in bound.bound.entries:
        z = nc.affine(h, w, b)
        if act == "tanh":
            h = nc.tanh(z)
            derivs.append(nc.add(1.0, nc.mul(nc.square(h), -1.0)))
        elif act == "softplus":
            h = nc.softplus(z)
            log_sigmoid = nc.mul(nc.softplus(nc.mul(z, -1.0)), -1.0)
            derivs.append(nc._apply("exp", (log_sigmoid,)))
        else:
            h = z
            derivs.append(None)
    if est is None:
        return h, None

    def chain(u):
        for (w, _, _), deriv in zip(bound.bound.entries, derivs):
            u = nc.matmul(u, w)
            if deriv is not None:
                u = nc.mul(u, deriv)
        return u

    if est == "exact":
        cols = []
        for j in range(d):
            e = np.zeros((1, d + 1))
            e[0, j] = 1.0
            cols.append(nc.slice_(chain(nc.Tensor(e)), 1, j, j + 1))
        div = nc.tsum(nc.concat(cols, axis=1), axis=1)
        if div.shape[0] == 1 and m > 1:
            div = nc.mul(div, nc.Tensor(np.ones(m)))
    else:
        acc = None
        for _ in range(est):
            eps = rng.integers(0, 2, size=(m, d)).astype(np.float64) * 2.0 - 1.0
            u = chain(nc.Tensor(np.concatenate([eps, np.zeros((m, 1))], axis=1)))
            quad = nc.tsum(nc.mul(u, nc.Tensor(eps)), axis=1)
            acc = quad if acc is None else nc.add(acc, quad)
        div = nc.mul(acc, 1.0 / est)
    return h, div


def _fused(bound, x, t, est, rng):
    if est is None:
        return bound.velocity(x, t), None
    return bound.velocity_and_divergence(x, t, rng)


def _values_and_grads(field, x, est, evaluate, seed=5):
    """v, div and the gradient of a random linear read-out of both, w.r.t. params and x."""
    m, d = x.shape
    mix = np.random.default_rng(seed)
    cv, cd = mix.normal(size=(m, d)), mix.normal(size=m)
    tape = nc.Tape()
    with tape:
        bound = field.bind(tape)
        xt = tape.watch(nc.Tensor(x.copy()))
        v, div = evaluate(bound, xt, 0.37, est, np.random.default_rng(seed))
        out = nc.tsum(nc.mul(v, cv))
        if div is not None:
            out = nc.add(out, nc.tsum(nc.mul(div, cd)))
    tape.mark_output(out)
    tape.freeze()
    return v.data, (None if div is None else div.data), [g.data for g in nc.grad(tape)]


def _mlp_field(d, widths, act, seed, scale=0.5):
    field = vel.init_near_identity(d, widths=widths, seed=seed, hidden_act=act)
    rng = np.random.default_rng(seed + 100)
    for layer in field.layers:
        layer.w += scale * rng.normal(size=layer.w.shape)
        layer.b += scale * rng.normal(size=layer.b.shape)
    return field


# the exact trace, or 3 Hutchinson probes (see conftest.pin_estimator)
_ESTIMATORS = ["exact", 3]


@pytest.mark.parametrize("est", [*_ESTIMATORS, None], ids=["exact", "hutch3", "velocity"])
@pytest.mark.parametrize("m", [1, 6])
@pytest.mark.parametrize("act", ["tanh", "softplus", "identity"])
@pytest.mark.parametrize("widths", [(7,), (12, 12), (6, 5, 4)])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_fused_matches_chain_oracle(monkeypatch, d, widths, act, m, est):
    pin_estimator(monkeypatch, est)
    field = _mlp_field(d, widths, act, seed=10 * d + len(widths))
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


@pytest.mark.parametrize("est", _ESTIMATORS, ids=["exact", "hutch3"])
@pytest.mark.parametrize("m", [1, 4])
def test_fused_matches_chain_oracle_affine_field(monkeypatch, m, est):
    pin_estimator(monkeypatch, est)
    rng = np.random.default_rng(31)
    field = affine_field(rng.normal(size=(3, 3)), rng.normal(size=3))
    field.layers[0].w[3] = rng.normal(size=3)  # time column
    x = rng.normal(size=(m, 3))
    want = _values_and_grads(field, x, est, _chain_velocity_and_divergence)
    got = _values_and_grads(field, x, est, _fused)
    for a, b in zip([got[0], got[1], *got[2]], [want[0], want[1], *want[2]]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("est", _ESTIMATORS, ids=["exact", "hutch3"])
@pytest.mark.parametrize("act", ["tanh", "softplus"])
def test_fused_gradient_matches_finite_differences(monkeypatch, act, est):
    pin_estimator(monkeypatch, est)
    field = _mlp_field(2, (5, 4), act, seed=61, scale=0.4)
    x = np.random.default_rng(62).normal(size=(3, 2))
    params = [*field.parameter_arrays(), x]

    def loss_fn():
        tape = nc.Tape()
        with tape:
            bound = field.bind(tape)
            xt = tape.watch(nc.Tensor(x))
            v, div = bound.velocity_and_divergence(xt, 0.6, np.random.default_rng(63))
            out = nc.add(nc.tmean(nc.square(v)), nc.tmean(nc.mul(div, nc.tsum(v, axis=1))))
        tape.mark_output(out)
        tape.freeze()
        return float(out.data), [g.data for g in nc.grad(tape)]

    report = gradcheck.check_loss_gradient_fd(loss_fn, params)
    assert report.passed, str(report)


def test_fused_node_one_per_call():
    field = _mlp_field(2, (8, 8), "tanh", seed=71)
    tape = nc.Tape()
    with tape:
        field.bind(tape).velocity_and_divergence(nc.Tensor(np.ones((4, 2))), 0.2)
    ops = [node.op for node in tape.nodes if node.op not in ("param", "const")]
    assert ops == ["velocity_divergence", "slice", "slice", "sum"]


def _record_fused_program(field, x):
    tape = nc.Tape()
    with tape:
        bound = field.bind(tape)
        v, div = bound.velocity_and_divergence(nc.Tensor(x), 0.4, np.random.default_rng(3))
        out = nc.add(nc.tmean(nc.square(v)), nc.tmean(div))
    tape.mark_output(out)
    tape.freeze()
    return out.data, tape


@pytest.mark.parametrize("est", _ESTIMATORS, ids=["exact", "hutch3"])
def test_fused_replay_matches_fresh_recording(monkeypatch, est):
    pin_estimator(monkeypatch, est)
    field = _mlp_field(3, (9, 7), "softplus", seed=81)
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
    field = _mlp_field(2, (6,), "tanh", seed=91)
    field.layers[1].w[2, 0] = np.nan
    tape = nc.Tape()
    with pytest.raises(nc.NumericError) as err:
        with tape:
            field.bind(tape).velocity_and_divergence(nc.Tensor(np.ones((3, 2))), 0.0)
    assert err.value.op == "velocity_divergence"
    # the op's inputs are registered first, so the reported index is the slot
    # the op would take; the last node is its probe leaf, the op is not recorded
    assert err.value.index == len(tape.nodes)
    assert tape.nodes[-1].op == "const"


def test_fused_nonfinite_weight_through_odeint_reports_step():
    field = _mlp_field(2, (6,), "tanh", seed=92)
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
# oracle (and the path for deeper stacks, other output layers and Hutchinson)

def _stage_case(field, m, seed):
    d = field.d
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, d))
    acts = tuple(layer.act for layer in field.layers)
    cotangents = (rng.normal(size=(m, d)), rng.normal(size=m))
    return x, field.parameter_arrays(), acts, cotangents


def _basis(m, d):
    return np.broadcast_to(np.eye(d)[:, None, :], (d, m, d))


def _rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("d", [1, 2, 8, 32])
@pytest.mark.parametrize("widths", [(9,), (9, 7)], ids=["depth1", "depth2"])
@pytest.mark.parametrize("act", ["tanh", "softplus", "identity"])
def test_closed_form_matches_tangent_kernel(monkeypatch, d, widths, act):
    pin_estimator(monkeypatch, "exact")
    m = 6
    field = _mlp_field(d, widths, act, seed=d + len(widths))
    x, params, acts, (v_bar, div_bar) = _stage_case(field, m, seed=d)
    mode, empty, scale = vel.draw_probes(acts, m, d, None)
    assert (mode, empty.shape, scale) == ("closed", (0, m, d), 1.0)
    want_v, want_div = lean_forward(x, 0.4, _basis(m, d), params, acts, "tangent", 1.0)
    got_v, got_div = lean_forward(x, 0.4, empty, params, acts, "closed", 1.0)
    assert np.array_equal(got_v, want_v)
    want_h, want_g = lean_vjp(x, 0.4, _basis(m, d), params, acts, "tangent", 1.0, v_bar, div_bar)
    got_h, got_g = lean_vjp(x, 0.4, empty, params, acts, "closed", 1.0, v_bar, div_bar)
    assert len(got_g) == len(want_g) == len(params)
    for got, want in zip([got_div, got_h, *got_g], [want_div, want_h, *want_g]):
        assert got.shape == want.shape
        assert _rel_err(got, want) <= 1e-12


def _tanh_output_field(d, seed):
    field = _mlp_field(d, (6, 5), "softplus", seed=seed)
    field.layers[-1].act = "tanh"
    return field


@pytest.mark.parametrize("make", [
    lambda: _mlp_field(3, (6, 5, 4), "tanh", seed=5),
    lambda: _tanh_output_field(3, seed=6),
    lambda: affine_field(np.random.default_rng(7).normal(size=(3, 3))),
], ids=["depth3", "tanh_output", "affine"])
def test_exact_trace_outside_closed_form_keeps_tangents(make):
    field = make()
    m = 5
    x, params, acts, (v_bar, div_bar) = _stage_case(field, m, seed=8)
    assert not vel.has_closed_form(acts)
    mode, probes, scale = vel.draw_probes(acts, m, 3, None)
    assert mode == "tangent" and scale == 1.0
    assert np.array_equal(probes, _basis(m, 3))
    # the fused node runs the tangent kernel on the basis, bit for bit
    v, div = field.bind().velocity_and_divergence(nc.Tensor(x), 0.4)
    want_v, want_div = lean_forward(x, 0.4, probes, params, acts, "tangent", 1.0)
    assert np.array_equal(v.data, want_v) and np.array_equal(div.data, want_div)
    want_h, want_g = lean_vjp(x, 0.4, probes, params, acts, "tangent", 1.0, v_bar, div_bar)
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


def test_hutchinson_keeps_tangents_on_closed_form_stacks(monkeypatch):
    # Hutchinson never takes the closed form: same Rademacher draws from the
    # rng, in the same order, and the tangent kernel
    field = _mlp_field(4, (8, 8), "tanh", seed=9)
    acts = tuple(layer.act for layer in field.layers)
    assert vel.has_closed_form(acts)
    pin_estimator(monkeypatch, 3)
    mode, probes, scale = vel.draw_probes(acts, 5, 4, np.random.default_rng(10))
    rng = np.random.default_rng(10)
    want = np.stack([rng.integers(0, 2, size=(5, 4)) * 2.0 - 1.0 for _ in range(3)])
    assert mode == "tangent" and scale == 1.0 / 3
    assert np.array_equal(probes, want)
    x = np.random.default_rng(11).normal(size=(5, 4))
    got = divergence(field, x, 0.2, np.random.default_rng(10))
    _, want_div = lean_forward(x, 0.2, want, field.parameter_arrays(), acts, "tangent", 1.0 / 3)
    assert np.array_equal(got, want_div)


# widths, d, then the mode, probe count K and trace scale the rule picks: the
# exact trace up to EXACT_DIVERGENCE_MAX_DIM = 8 (the closed form for one or
# two hidden layers, the d basis vectors for three), 8 Hutchinson probes above
@pytest.mark.parametrize("widths, d, mode, k, scale", [
    ((6,), 8, "closed", 0, 1.0),
    ((6, 5), 8, "closed", 0, 1.0),
    ((6, 5, 4), 8, "tangent", 8, 1.0),
    ((6,), 9, "tangent", 8, 1.0 / 8),
    ((6, 5), 9, "tangent", 8, 1.0 / 8),
    ((6, 5, 4), 9, "tangent", 8, 1.0 / 8),
], ids=["depth1-d8", "depth2-d8", "depth3-d8", "depth1-d9", "depth2-d9", "depth3-d9"])
def test_draw_probes_rule(widths, d, mode, k, scale):
    acts = tuple(layer.act for layer in _mlp_field(d, widths, "tanh", seed=1).layers)
    m = 3
    got_mode, probes, got_scale = vel.draw_probes(acts, m, d, np.random.default_rng(2))
    assert (got_mode, probes.shape, got_scale) == (mode, (k, m, d), scale)
    if d == 8:
        assert mode == "closed" or np.array_equal(probes, _basis(m, d))
    else:
        assert set(np.unique(probes)) == {-1.0, 1.0}
        with pytest.raises(ValueError, match="needs an rng"):
            vel.draw_probes(acts, m, d, None)


# ---------------------------------------------------------------------------
# the lean kernel (x and its time, the time folded into the first bias, the
# coupling built once, in-place updates) against the concat-input kernel it
# replaced, kept in tests/stage_oracle.py

_KERNEL_CASES = {
    "velocity": ((9, 7), "velocity", None),
    "tangent_exact_depth3": ((6, 5, 4), "tangent", "basis"),
    "tangent_hutchinson": ((9, 7), "tangent", "rademacher"),
    "closed_depth1": ((9,), "closed", None),
    "closed_depth2": ((9, 7), "closed", None),
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
def test_lean_kernel_matches_concat_oracle(case, act, per_row, m):
    widths, mode, probe_kind = _KERNEL_CASES[case]
    d = 3
    field = _mlp_field(d, widths, act, seed=len(widths) + m)
    params, acts = field.parameter_arrays(), tuple(layer.act for layer in field.layers)
    rng = np.random.default_rng(m)
    x = rng.normal(size=(m, d))
    tau = rng.uniform(size=m) if per_row else 0.4
    scale, probes = 1.0, np.empty((0, m, d))
    if probe_kind == "basis":
        probes = _basis(m, d)
    elif probe_kind == "rademacher":
        scale, probes = 1.0 / 3, rng.integers(0, 2, size=(3, m, d)) * 2.0 - 1.0
    h = np.concatenate([x, np.broadcast_to(np.reshape(tau, (-1, 1)), (m, 1))], axis=1)
    v_bar, div_bar = rng.normal(size=(m, d)), rng.normal(size=m)
    want_v, want_div = stage_oracle.stage_forward(h, probes, params, acts, mode, scale)
    got_v, got_div = lean_forward(x, tau, probes, params, acts, mode, scale)
    want_h, want_g = stage_oracle.stage_vjp(h, probes, params, acts, mode, scale, v_bar, div_bar)
    got_x, got_g = lean_vjp(x, tau, probes, params, acts, mode, scale, v_bar, div_bar)
    assert (got_div is None) == (want_div is None) == (mode == "velocity")
    assert len(got_g) == len(want_g) == len(params)
    pairs = [(got_v, want_v), (got_x, want_h[:, :d]), *zip(got_g, want_g)]
    if mode != "velocity":
        pairs.append((got_div, want_div))
    for got, want in pairs:
        _assert_close_per_element(got, want)


def test_lean_vjp_leaves_its_cotangents_unchanged():
    # the VJP updates cotangents in place on its own buffers only
    field = _mlp_field(2, (6, 5), "tanh", seed=12)
    params, acts = field.parameter_arrays(), tuple(layer.act for layer in field.layers)
    rng = np.random.default_rng(13)
    x, v_bar, div_bar = rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), rng.normal(size=4)
    before = [a.copy() for a in (x, v_bar, div_bar, *params)]
    for mode in ("velocity", "closed"):
        lean_vjp(x, 0.3, np.empty((0, 4, 2)), params, acts, mode, 1.0, v_bar, div_bar)
    assert all(np.array_equal(a, b) for a, b in zip((x, v_bar, div_bar, *params), before))
