"""Density-ratio fitting, telescoping, flow OT, and worst-case training."""

import gradcheck
import numpy as np
import pytest

from wflow import chain as fc
from wflow import datasets as ds
from wflow import mlp
from wflow import numcore as nc
from wflow import objectives as obj
from wflow import odeint
from wflow import transport as tp
from wflow import velocity as vel

FIT_CFG = obj.TrainConfig(learn_rate=0.006, batch_size=256, iterations=1200, seed=0)


def test_logistic_loss_values_and_gradient():
    rng = np.random.default_rng(0)
    layers = mlp.init_layers([1, 6, 1], rng)
    s0, s1 = rng.normal(size=(12, 1)), rng.normal(size=(12, 1)) + 1
    value, grads = tp.logistic_ratio_loss(layers, s0, s1)
    assert np.isfinite(value) and len(grads) == 4
    report = gradcheck.check_loss_gradient_fd(
        lambda: tp.logistic_ratio_loss(layers, s0, s1),
        mlp.parameter_arrays(layers))
    assert report.passed, str(report)


def test_equal_densities_give_zero_ratio():
    p = ds.standard_gaussian(1)
    rng = np.random.default_rng(1)
    model = tp.fit_logistic_ratio(p.sample(8000, rng), p.sample(8000, rng), FIT_CFG)
    held = p.sample(2000, rng)
    frac_small = np.mean(np.abs(model.log_ratio(held)) <= 0.1)
    assert frac_small >= 0.9


def test_gaussian_shift_ratio():
    p = ds.standard_gaussian(1)
    q = ds.Gaussian([1.0], [[1.0]])
    rng = np.random.default_rng(2)
    model = tp.fit_logistic_ratio(p.sample(10_000, rng), q.sample(10_000, rng), FIT_CFG)
    assert abs(model.log_ratio(np.array([[0.5]]))[0]) <= 0.1
    grid = np.linspace(-1.645, 1.645, 100)[:, None]
    mse = np.mean((model.log_ratio(grid) - (grid[:, 0] - 0.5)) ** 2)
    assert mse <= 0.02


def test_gaussian_variance_ratio():
    p = ds.standard_gaussian(1)
    q = ds.Gaussian([0.0], [[4.0]])
    rng = np.random.default_rng(3)
    model = tp.fit_logistic_ratio(p.sample(10_000, rng), q.sample(10_000, rng), FIT_CFG)
    grid = np.linspace(-1.645, 1.645, 100)[:, None]
    want = -np.log(2.0) + (3.0 / 8.0) * grid[:, 0] ** 2
    mse = np.mean((model.log_ratio(grid) - want) ** 2)
    assert mse <= 0.02


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        tp.fit_logistic_ratio(np.zeros((0, 1)), np.zeros((5, 1)), FIT_CFG)
    with pytest.raises(nc.ShapeError):
        tp.fit_logistic_ratio(np.zeros((5, 1)), np.zeros((5, 2)), FIT_CFG)


def test_telescoping_single_step_equals_direct():
    p = ds.standard_gaussian(1)
    q = ds.Gaussian([0.5], [[1.0]])
    rng = np.random.default_rng(4)
    sp, sq = p.sample(4000, rng), q.sample(4000, rng)
    x = np.linspace(-1, 1, 11)[:, None]
    direct = tp.fit_logistic_ratio(sp, sq, FIT_CFG).log_ratio(x)
    tele = tp.telescopic_log_ratio([sp, sq], x, FIT_CFG)
    assert np.allclose(direct, tele)


def test_telescoping_algebra_with_analytic_bridges():
    # replacing each fitted classifier by the analytic per-step log ratio
    # makes the telescope collapse exactly
    densities = [
        ds.standard_gaussian(1),
        ds.Gaussian([0.6], [[1.3]]),
        ds.Gaussian([1.1], [[0.8]]),
        ds.Gaussian([2.0], [[1.0]]),
    ]
    x = np.linspace(-2, 4, 50)[:, None]
    total = np.zeros(50)
    for a, b in zip(densities[:-1], densities[1:]):
        total += b.log_pdf(x) - a.log_pdf(x)
    want = densities[-1].log_pdf(x) - densities[0].log_pdf(x)
    assert np.abs(total - want).max() <= 1e-12


def test_telescoping_identical_path_near_zero():
    p = ds.standard_gaussian(1)
    rng = np.random.default_rng(5)
    pools = [p.sample(6000, rng) for _ in range(3)]
    x = np.linspace(-1.5, 1.5, 21)[:, None]
    est = tp.telescopic_log_ratio(pools, x, FIT_CFG)
    assert np.abs(est).mean() <= 0.15


def test_telescoping_needs_two_ensembles():
    with pytest.raises(ValueError):
        tp.telescopic_log_ratio([np.zeros((5, 1))], np.zeros((2, 1)), FIT_CFG)


# --- ot ------------------------------------------------------------------------

def test_ot_identity_when_p_equals_q():
    p = ds.standard_gaussian(1)
    rng = np.random.default_rng(6)
    xp, xq = p.sample(1024, rng), p.sample(1024, rng)
    chn = fc.identity_chain(1, 1, steps=6, widths=(16,), t_total=1.0, seed=1)
    cfg = obj.TrainConfig(learn_rate=0.005, batch_size=128, iterations=60, seed=2, gamma=5.0)
    res = tp.ot_train(xp, xq, chn, cfg=cfg, p_density=p, q_density=p)
    assert res.transport_cost <= 0.01
    mapped = fc.forward_map(chn, ds.ParticleEnsemble(xp[:200])).positions
    assert np.abs(mapped - xp[:200]).max() <= 0.15


def test_ot_cost_lower_bounded_by_w2():
    # Monge optimality: the map's particle cost dominates the optimal
    # matching between the source particles and their own images
    from wflow import metrics

    p = ds.standard_gaussian(1)
    q = ds.Gaussian([1.0], [[1.0]])
    rng = np.random.default_rng(7)
    xp, xq = p.sample(512, rng), q.sample(512, rng)
    chn = fc.identity_chain(1, 1, steps=8, widths=(24,), t_total=1.0, seed=3)
    cfg = obj.TrainConfig(learn_rate=0.01, batch_size=128, iterations=250, seed=4,
                          gamma=20.0)
    res = tp.ot_train(xp, xq, chn, cfg=cfg, p_density=p, q_density=q)
    mapped = fc.forward_map(chn, ds.ParticleEnsemble(xp)).positions
    w2_same_particles = metrics.w2_exact(xp, mapped)
    assert res.transport_cost >= w2_same_particles**2 - 1e-9


def test_ot_rejects_bad_gamma():
    chn = fc.identity_chain(1, 1, steps=4, widths=(4,))
    with pytest.raises(ValueError):
        tp.ot_train(np.zeros((4, 1)), np.zeros((4, 1)), chn,
                    cfg=obj.TrainConfig(iterations=1, gamma=0.0))


@pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
def test_ot_and_dro_reject_non_positive_or_non_finite_gamma(gamma):
    # gamma lives in TrainConfig, which checks it for every trainer
    chn = fc.identity_chain(1, 1, steps=4, widths=(4,))
    with pytest.raises(ValueError, match="gamma"):
        tp.ot_train(np.zeros((4, 1)), np.zeros((4, 1)), chn,
                    obj.TrainConfig(iterations=1, gamma=gamma))
    with pytest.raises(ValueError, match="gamma"):
        tp.dro_train(tp.RiskFunction.linear([1.0]), ds.standard_gaussian(1),
                     obj.TrainConfig(iterations=1, gamma=gamma))


def test_ot_divergence_raises_training_diverged():
    # an absurd learning rate overflows the flow after the first update
    p, q = ds.standard_gaussian(1), ds.Gaussian([1.0], [[1.0]])
    rng = np.random.default_rng(9)
    chn = fc.identity_chain(1, 1, steps=2, widths=(4,), t_total=1.0, seed=1)
    cfg = obj.TrainConfig(learn_rate=1e200, batch_size=16, iterations=5, seed=0)
    with pytest.raises(obj.TrainingDiverged) as err:
        tp.ot_train(p.sample(32, rng), q.sample(32, rng), chn, cfg=cfg,
                    p_density=p, q_density=q)
    assert err.value.trace.ndim == 1
    assert 1 <= len(err.value.trace) < 5


def test_ot_loss_gradient_fd():
    p = ds.standard_gaussian(1)
    q = ds.Gaussian([0.5], [[1.0]])
    rng = np.random.default_rng(8)
    chn = fc.identity_chain(1, 1, steps=3, widths=(4,), t_total=1.0, seed=5)
    for layer in chn.blocks[0].field.layers:
        layer.w += 0.2 * rng.normal(size=layer.w.shape)
    xp, xq = p.sample(5, rng), q.sample(5, rng)

    def loss_fn():
        value, grads, *_ = tp._ot_loss(chn.blocks, p, q, xp, xq, 2.0)
        return value, grads

    report = gradcheck.check_loss_gradient_fd(loss_fn, chn.parameter_arrays())
    assert report.passed, str(report)


# --- dro ------------------------------------------------------------------------

def test_dro_constant_risk_keeps_identity():
    risk = tp.RiskFunction(lambda x: nc.mul(nc.tsum(nc.mul(x, 0.0), axis=1), 0.0))
    cfg = obj.TrainConfig(learn_rate=0.01, batch_size=64, iterations=40, seed=0)
    res = tp.dro_train(risk, ds.standard_gaussian(2), cfg=cfg)
    x = ds.standard_gaussian(2).sample(200, np.random.default_rng(1))
    mapped = odeint.integrate(res.transport.field, x, res.transport.integrator)
    assert np.abs(mapped - x).max() <= 0.05
    assert res.movement <= 1e-3


def test_dro_linear_risk_closed_form():
    c = np.array([1.0, -0.5])
    risk = tp.RiskFunction.linear(c)
    gamma = 1.0
    cfg = obj.TrainConfig(learn_rate=0.012, batch_size=256, iterations=500, seed=1,
                          gamma=gamma)
    res = tp.dro_train(risk, ds.standard_gaussian(2), cfg=cfg)
    pts = ds.standard_gaussian(2).sample(1000, np.random.default_rng(2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 2.146]  # central 90% ball
    mapped = odeint.integrate(res.transport.field, pts, res.transport.integrator)
    err = np.linalg.norm(mapped - (pts - gamma * c), axis=1).max()
    assert err <= 0.05 * np.linalg.norm(gamma * c)


def test_dro_quadratic_well_closed_form():
    # R(x) = -||x - mu||^2 / 2 with gamma < 1 has optimum (x - gamma mu) / (1 - gamma)
    mu = np.array([1.0, 0.5])
    gamma = 0.5

    def risk_expr(x):
        delta = x - nc.Tensor(mu)
        return nc.mul(nc.tsum(nc.square(delta), axis=1), -0.5)

    # scalar oracle: solve the pointwise first-order condition numerically
    def pointwise_optimum(x0):
        ys = np.linspace(-8, 8, 4001)
        best = []
        for coord, m_c in zip(x0, mu):
            vals = -0.5 * (ys - m_c) ** 2 + (ys - coord) ** 2 / (2 * gamma)
            best.append(ys[np.argmin(vals)])
        return np.asarray(best)

    risk = tp.RiskFunction(risk_expr)
    cfg = obj.TrainConfig(learn_rate=0.015, batch_size=256, iterations=500, seed=3,
                          gamma=gamma)
    res = tp.dro_train(risk, ds.standard_gaussian(2), cfg=cfg)
    pts = ds.standard_gaussian(2).sample(400, np.random.default_rng(4))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.5]
    mapped = odeint.integrate(res.transport.field, pts, res.transport.integrator)
    want = (pts - gamma * mu) / (1 - gamma)
    oracle = np.stack([pointwise_optimum(x) for x in pts[:10]])
    assert np.abs(want[:10] - oracle).max() <= 0.01  # oracle agrees with algebra
    assert np.linalg.norm(mapped - want, axis=1).mean() <= 0.1


def test_dro_unbounded_risk_detected():
    # R(x) = -||x||^2 with gamma = 2: the movement penalty cannot contain it
    def risk_expr(x):
        return nc.mul(nc.tsum(nc.square(x), axis=1), -1.0)

    risk = tp.RiskFunction(risk_expr)
    cfg = obj.TrainConfig(learn_rate=0.01, batch_size=64, iterations=1500, seed=5, gamma=2.0)
    with pytest.raises(tp.UnboundedRiskError):
        tp.dro_train(risk, ds.standard_gaussian(2), cfg=cfg)


def test_dro_divergence_raises_training_diverged():
    risk = tp.RiskFunction.linear([1.0, 0.0])
    cfg = obj.TrainConfig(learn_rate=1e200, batch_size=16, iterations=5, seed=0)
    with pytest.raises(obj.TrainingDiverged) as err:
        tp.dro_train(risk, ds.standard_gaussian(2), cfg=cfg, widths=(4,), steps=2)
    assert err.value.trace.ndim == 1
    assert 1 <= len(err.value.trace) < 5


def test_dro_classifier_loss_risk_moves_across_boundary():
    # worst-case transport against a frozen classifier drags samples over
    # the decision boundary
    rng = np.random.default_rng(6)
    p = ds.Gaussian([-1.5, 0.0], np.eye(2))
    q = ds.Gaussian([1.5, 0.0], np.eye(2))
    clf = tp.fit_logistic_ratio(p.sample(4000, rng), q.sample(4000, rng),
                                obj.TrainConfig(learn_rate=0.01, batch_size=256,
                                                iterations=400, seed=7))
    # p is the classifier's class 0; minimizing the label-1 logistic loss
    # softplus(-phi) on its samples is adversarial
    def label1_loss(x):
        phi = nc.tsum(mlp.BoundLayers(clf.layers).forward(x), axis=1)
        return nc.softplus(nc.mul(phi, -1.0))

    risk = tp.RiskFunction(label1_loss)
    cfg = obj.TrainConfig(learn_rate=0.02, batch_size=128, iterations=250, seed=8, gamma=4.0)
    res = tp.dro_train(risk, p, cfg=cfg)
    # clean samples score negative logits; worsened ones move positive
    base = clf.log_ratio(p.sample(1000, rng)).mean()
    worst = clf.log_ratio(res.ensemble.positions).mean()
    assert worst > base + 0.5


def test_dro_gradient_fd():
    c = np.array([0.7, -0.2])
    field = vel.init_near_identity(2, widths=(4,), seed=9)
    rng = np.random.default_rng(10)
    for layer in field.layers:
        layer.w += 0.2 * rng.normal(size=layer.w.shape)
    block = fc.FlowBlock(field, odeint.IntegratorConfig("rk4", 3, (0.0, 1.0)))
    x = rng.normal(size=(6, 2))
    risk = tp.RiskFunction.linear(c)

    def loss_fn():
        tape = nc.Tape()
        with tape:
            bound = field.bind(tape)
            y = odeint.integrate_tensor(bound, nc.Tensor(x), block.integrator)
            move = nc.tsum(nc.square(y - nc.Tensor(x)), axis=1)
            out = nc.add(nc.tmean(risk(y)), nc.mul(nc.tmean(move), 0.5))
        tape.mark_output(out)
        tape.freeze()
        return float(out.data), [g.data for g in nc.grad(tape)]

    report = gradcheck.check_loss_gradient_fd(loss_fn, field.parameter_arrays())
    assert report.passed, str(report)


@pytest.mark.slow
def test_ot_variance_scaling_case():
    # N(0,1) -> N(0,4): optimal map is 2x with cost (2 - 1)^2 = 1
    from wflow import metrics

    p = ds.standard_gaussian(1)
    q = ds.Gaussian([0.0], [[4.0]])
    rng = np.random.default_rng(0)
    xp, xq = p.sample(4096, rng), q.sample(4096, rng)
    chain = fc.identity_chain(1, 1, steps=10, widths=(48,), t_total=1.0, seed=3)
    cfg = obj.TrainConfig(learn_rate=0.008, batch_size=256, iterations=800, seed=1,
                          gamma=50.0)
    res = tp.ot_train(xp, xq, chain, cfg=cfg, p_density=p, q_density=q)
    assert res.transport_cost == pytest.approx(1.0, abs=0.2)
    grid = np.linspace(-1.645, 1.645, 41)[:, None]
    mapped = fc.forward_map(chain, ds.ParticleEnsemble(grid)).positions
    assert np.abs(mapped - 2.0 * grid).max() <= 0.15
