"""Training objectives: values against hand computations, gradients, descent."""

import gradcheck
import numpy as np
import pytest
from conftest import affine_field, eval_velocity

from wflow import chain as fc
from wflow import datasets as ds
from wflow import metrics
from wflow import numcore as nc
from wflow import objectives as obj
from wflow import odeint
from wflow import transport as tp
from wflow import velocity as vel


def _tiny_chain(d, n_blocks, seed=0, steps=6, widths=(5,)):
    return fc.identity_chain(d, n_blocks, steps=steps, widths=widths, seed=seed)


def _block(field, interval=(0.0, 1.0)):
    """The field as a block over ``interval``, the span fm_loss matches along."""
    return fc.FlowBlock(field, odeint.IntegratorConfig(interval=interval))


def _perturb(subject, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    for p in subject.parameter_arrays():
        p += scale * rng.normal(size=p.shape)
    return subject


# --- nll -------------------------------------------------------------------

def test_nll_identity_chain_at_origin():
    for d in (1, 2, 3):
        chn = _tiny_chain(d, 1)
        value, _ = obj.nll_loss(chn, np.zeros((4, d)))
        assert value == pytest.approx(d / 2 * np.log(2 * np.pi))


def test_nll_identity_chain_unit_points():
    chn = _tiny_chain(1, 1)
    value, _ = obj.nll_loss(chn, np.array([[1.0], [-1.0]]))
    assert value == pytest.approx(0.5 * np.log(2 * np.pi) + 0.5)


def test_nll_gradient_fd():
    chn = _perturb(_tiny_chain(1, 2, steps=4, widths=(4,)), seed=1)
    batch = np.random.default_rng(2).normal(size=(6, 1))
    report = gradcheck.check_loss_gradient_fd(
        lambda: obj.nll_loss(chn, batch), chn.parameter_arrays())
    assert report.passed, str(report)


# --- jko ---------------------------------------------------------------

def test_jko_zero_block_value():
    block = _tiny_chain(2, 1, steps=8, widths=(8,)).blocks[0]
    x = np.random.default_rng(0).normal(size=(8000, 2))
    value, _ = obj.jko_block_loss(block, x, gamma=1.0)
    # E||x||^2 / 2 = 1 for the standard normal; movement term vanishes
    assert value == pytest.approx(1.0, abs=0.05)


def test_jko_gamma_limit_drops_movement():
    block = _perturb(_tiny_chain(2, 1, steps=6, widths=(6,)).blocks[0], seed=3)
    x = np.random.default_rng(4).normal(size=(64, 2))
    small, _ = obj.jko_block_loss(block, x, gamma=1e12)
    tape = nc.Tape()
    with tape:
        aug = odeint.integrate_augmented_tensor(block.field.bind(tape), nc.Tensor(x),
                                                block.integrator)
        kl_only = nc.tmean(nc.add(
            nc.mul(nc.tsum(nc.square(aug.x), axis=1), 0.5),
            nc.mul(aug.logdet, -1.0)))
    assert small == pytest.approx(float(kl_only.data), rel=1e-9)


def test_jko_rejects_nonpositive_gamma():
    block = _tiny_chain(2, 1).blocks[0]
    with pytest.raises(ValueError):
        obj.jko_block_loss(block, np.zeros((2, 2)), gamma=0.0)


_NOT_POSITIVE_FINITE = [0.0, -1.0, float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("key", ["gamma", "learn_rate"])
@pytest.mark.parametrize("value", _NOT_POSITIVE_FINITE)
def test_train_config_rejects_non_positive_or_non_finite(key, value):
    # a negative learning rate would run gradient ascent, a NaN gamma diverge
    with pytest.raises(ValueError, match=key):
        obj.TrainConfig(**{key: value})


def _zero_logpdf(x):
    return np.zeros(len(x))


@pytest.mark.parametrize("name,make", [
    ("batch_size", lambda: obj.TrainConfig(batch_size=0)),
    ("time_draws", lambda: obj.TrainConfig(time_draws=0)),
    ("samples_of_p", lambda: metrics.kl_mc(_zero_logpdf, _zero_logpdf, np.zeros((1, 2)))),
], ids=["batch_size", "time_draws", "kl_mc"])
def test_sizes_below_one_batch_or_two_samples_rejected(name, make):
    # unchecked, a jko block fails at a reshape on an empty batch, zero time
    # draws train as one, and one KL sample gives a NaN standard error
    with pytest.raises(ValueError, match=name):
        make()


@pytest.mark.parametrize("gamma", _NOT_POSITIVE_FINITE)
def test_jko_rejects_non_positive_or_non_finite_gamma(gamma):
    block = _tiny_chain(2, 1).blocks[0]
    with pytest.raises(ValueError, match="gamma"):
        obj.jko_block_loss(block, np.zeros((2, 2)), gamma=gamma)


def test_one_dimensional_batch_reads_as_one_column():
    # a 1-D array is m points in d=1, as the metrics and transport read it
    chn = _perturb(_tiny_chain(1, 1, steps=2, widths=(4,)), seed=3)
    x = np.linspace(-1.0, 1.0, 8)
    assert obj.nll_loss(chn, x)[0] == obj.nll_loss(chn, x[:, None])[0]
    block = chn.blocks[0]
    assert obj.jko_block_loss(block, x, 1.0)[0] == obj.jko_block_loss(block, x[:, None], 1.0)[0]


def test_jko_gradient_fd():
    block = _perturb(_tiny_chain(2, 1, steps=4, widths=(4,)).blocks[0], seed=5)
    x = np.random.default_rng(6).normal(size=(5, 2))
    report = gradcheck.check_loss_gradient_fd(
        lambda: obj.jko_block_loss(block, x, gamma=0.7), block.parameter_arrays())
    assert report.passed, str(report)


def test_jko_single_block_reduces_gaussian_kl():
    # 1-D N(0, 4) toward N(0, 1): closed-form start KL is (4 - 1 - ln 4)/2
    src = ds.Gaussian([0.0], [[4.0]])
    tgt = ds.standard_gaussian(1)
    start_kl = src.kl_to(tgt)
    assert start_kl == pytest.approx(0.80685, abs=1e-4)
    x = src.sample(2048, np.random.default_rng(1))
    block = fc.FlowBlock(
        vel.init_near_identity(1, widths=(24,), seed=3),
        odeint.IntegratorConfig("rk4", 10, (0.0, 1.0)))
    cfg = obj.TrainConfig(learn_rate=0.02, batch_size=256, iterations=120, seed=0, gamma=1.0)
    obj.train_block("jko", block, x, cfg)
    pushed = obj.push_particles(block, ds.ParticleEnsemble(x))
    fit = ds.Gaussian([pushed.positions.mean()], [[pushed.positions.var()]])
    assert fit.kl_to(tgt) < start_kl


# --- fm ----------------------------------------------------------------

def test_fm_exact_match_is_zero():
    block = _block(affine_field(np.zeros((2, 2)), c=np.array([1.0, -2.0])))
    x0 = np.array([[0.0, 0.0]])
    x1 = np.array([[1.0, -2.0]])
    value, _ = obj.fm_loss(block, x0, x1)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_fm_zero_field_constant_integrand():
    block = _block(vel.init_near_identity(2, widths=(4,), seed=0))
    x0 = np.array([[0.0, 0.0]])
    x1 = np.array([[1.0, -2.0]])
    value, _ = obj.fm_loss(block, x0, x1)
    assert value == pytest.approx(5.0)


def test_fm_rejects_empty_and_mismatched():
    block = _block(vel.init_near_identity(2, widths=(4,), seed=0))
    with pytest.raises(ValueError):
        obj.fm_loss(block, np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(nc.ShapeError):
        obj.fm_loss(block, np.zeros((3, 2)), np.zeros((4, 2)))


def test_fm_pairing_with_an_rng():
    # against v = 0 the loss is the mean squared target x1 - x0 (span 1), so
    # it shows which x1 row each x0 row was paired with
    rng = np.random.default_rng(11)
    x0, x1 = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
    block = _block(affine_field(np.zeros((2, 2))))
    value, _ = obj.fm_loss(block, x0, x1, paired=True, rng=np.random.default_rng(0))
    assert value == pytest.approx(np.mean(np.sum((x1 - x0) ** 2, axis=1)), rel=1e-12)
    shuffled = x1[np.random.default_rng(0).permutation(9)]
    value, _ = obj.fm_loss(block, x0, x1, rng=np.random.default_rng(0))
    assert value == pytest.approx(np.mean(np.sum((shuffled - x0) ** 2, axis=1)), rel=1e-12)


def test_fm_gradient_fd():
    block = _perturb(_tiny_chain(2, 1, widths=(4,)).blocks[0], seed=7)
    rng = np.random.default_rng(8)
    x0, x1 = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    report = gradcheck.check_loss_gradient_fd(
        lambda: obj.fm_loss(block, x0, x1),
        block.parameter_arrays())
    assert report.passed, str(report)


def test_interpolant_endpoint_identities():
    # against v(x) = x with one endpoint at the origin, the gap is a multiple
    # of the other endpoint that pins x_s = (1 - s) x0 + s x1 at the strata
    # midpoints s = (k + 1/2) / 8 used without an rng
    y = np.random.default_rng(9).normal(size=(16, 2))
    s = (np.arange(16) % obj.FM_STRATA + 0.5) / obj.FM_STRATA
    sq = np.sum(y * y, axis=1)
    block = _block(affine_field(np.eye(2)))
    value, _ = obj.fm_loss(block, np.zeros_like(y), y)  # x_s = s y, target y
    assert value == pytest.approx(np.mean((s - 1.0) ** 2 * sq), rel=1e-12)
    value, _ = obj.fm_loss(block, y, np.zeros_like(y))  # x_s = (1 - s) y, target -y
    assert value == pytest.approx(np.mean((2.0 - s) ** 2 * sq), rel=1e-12)


def test_interpolant_derivative_fd():
    # the target is the time derivative of the path t -> x_s, s = (t - t_a) / span:
    # a constant field equal to its central difference matches it on a span of 2
    rng = np.random.default_rng(10)
    x0, x1 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    t_a, t_b = 0.5, 2.5

    def path(t):
        s = (t - t_a) / (t_b - t_a)
        return (1.0 - s) * x0 + s * x1

    h = 1e-6
    fd = (path(1.37 + h) - path(1.37 - h)) / (2 * h)
    value, _ = obj.fm_loss(_block(affine_field(np.zeros((2, 2)), c=fd[0]), (t_a, t_b)), x0, x1)
    assert value == pytest.approx(0.0, abs=1e-12)
    value, _ = obj.fm_loss(_block(affine_field(np.zeros((2, 2)), c=x1[0] - x0[0]), (t_a, t_b)),
                           x0, x1)
    assert value == pytest.approx(0.25 * np.sum((x1 - x0) ** 2), rel=1e-12)


# --- local fm ------------------------------------------------------------

def test_local_fm_targets_zero_step():
    x = np.random.default_rng(0).normal(size=(10, 2))
    x_l, x_r = obj.make_local_fm_targets(x, 0.0, np.random.default_rng(1))
    assert np.array_equal(x_l.positions, x_r.positions)


def test_local_fm_targets_log2_coefficients():
    x = np.ones((200_000, 1))
    x_l, x_r = obj.make_local_fm_targets(x, np.log(2.0), np.random.default_rng(2))
    # x_r = 0.5 x_l + 0.866025 g
    assert x_r.positions.mean() == pytest.approx(0.5, abs=0.01)
    assert x_r.positions.std() == pytest.approx(np.sqrt(1 - 0.25), abs=0.01)


def test_local_fm_targets_large_step_normalizes():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50_000, 2)) * 3.0 + 5.0
    _, x_r = obj.make_local_fm_targets(x, 10.0, rng)
    assert np.abs(x_r.positions.mean(axis=0)).max() <= 0.03
    assert np.abs(np.cov(x_r.positions, rowvar=False) - np.eye(2)).max() <= 0.03


def test_local_fm_targets_reject_negative():
    with pytest.raises(ValueError):
        obj.make_local_fm_targets(np.zeros((2, 2)), -0.1, np.random.default_rng(0))


# --- train_block ---------------------------------------------------------

def test_zero_iterations_leaves_subject_unchanged():
    block = _perturb(_tiny_chain(2, 1).blocks[0], seed=11)
    before = [p.copy() for p in block.parameter_arrays()]
    cfg = obj.TrainConfig(iterations=0)
    obj.train_block("jko", block, np.random.default_rng(0).normal(size=(16, 2)), cfg)
    for b, a in zip(before, block.parameter_arrays()):
        assert np.array_equal(b, a)


def test_adam_zero_gradient_no_move():
    p = np.array([1.0, -2.0])
    opt = obj.Adam([p], lr=0.1)
    opt.step([np.zeros(2)])
    assert np.array_equal(p, [1.0, -2.0])


def test_adam_first_step_magnitude():
    # bias correction makes the first update lr * g / (|g| + eps) ~ lr
    for g in (1e-4, 1.0, 1e6):
        p = np.zeros(1)
        opt = obj.Adam([p], lr=0.01)
        opt.step([np.array([g])])
        assert abs(p[0]) == pytest.approx(0.01, rel=1e-3)


def test_training_determinism():
    def run():
        block = _tiny_chain(2, 1, seed=13, steps=4, widths=(6,)).blocks[0]
        cfg = obj.TrainConfig(learn_rate=0.01, batch_size=16, iterations=10, seed=5)
        res = obj.train_block("jko", block, np.random.default_rng(1).normal(size=(64, 2)), cfg)
        return res.losses, block.parameter_arrays()

    l1, p1 = run()
    l2, p2 = run()
    assert np.array_equal(l1, l2)
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_progressive_purity_earlier_blocks_frozen():
    chn = _tiny_chain(2, 3, seed=15, steps=4, widths=(6,))
    data = ds.ParticleEnsemble(np.random.default_rng(2).normal(size=(128, 2)))
    cfg = obj.TrainConfig(learn_rate=0.01, batch_size=32, iterations=8, seed=1)
    particles = data
    checksums = []
    for block in chn.blocks:
        obj.train_block("jko", block, particles, cfg)
        particles = obj.push_particles(block, particles)
        checksums.append([p.copy() for p in block.parameter_arrays()])
        # training later blocks must not have touched earlier ones
        for earlier, saved in zip(chn.blocks, checksums[:-1]):
            for p, s in zip(earlier.parameter_arrays(), saved):
                assert np.array_equal(p, s)


def test_divergent_training_aborts_with_trace():
    # an absurd learning rate overflows the squared-displacement term
    block = _tiny_chain(1, 1, steps=2, widths=(4,)).blocks[0]
    cfg = obj.TrainConfig(learn_rate=1e200, batch_size=8, iterations=10, seed=0, gamma=1e-6)
    with pytest.raises(obj.TrainingDiverged) as err:
        obj.train_block("jko", block, np.random.default_rng(3).normal(size=(32, 1)), cfg)
    assert err.value.trace.ndim == 1


def test_fit_trace_stops_at_the_failing_iteration():
    draws = []

    def step(rng):
        it = len(draws)
        draws.append(int(rng.integers(2**31)))
        if it == 4:
            raise nc.NumericError("non-finite output")
        return float(it), [np.ones(2)]

    cfg = obj.TrainConfig(learn_rate=0.1, iterations=10, seed=7, optimizer="sgd")
    with pytest.raises(obj.TrainingDiverged, match="iteration 4") as err:
        obj.fit(step, (), [np.zeros(2)], cfg)
    assert err.value.trace.ndim == 1
    assert err.value.trace.tolist() == [0.0, 1.0, 2.0, 3.0]
    # every iteration draws from its own stream [seed, it]
    assert draws == [int(np.random.default_rng([7, it]).integers(2**31)) for it in range(5)]


def test_fit_schedule_scales_the_rate_and_check_can_stop():
    param = np.zeros(1)
    seen = []

    def check(it, losses):
        seen.append((it, len(losses)))
        if it == 2:
            raise RuntimeError("stop")

    cfg = obj.TrainConfig(learn_rate=0.5, iterations=6, optimizer="sgd")
    with pytest.raises(RuntimeError, match="stop"):
        obj.fit(lambda rng: (0.0, [np.ones(1)]), (), [param], cfg,
                schedule=lambda it, n: 1.0 / (it + 1), check=check)
    assert seen == [(0, 1), (1, 2), (2, 3)]
    assert param[0] == -0.5 * (1.0 + 1.0 / 2 + 1.0 / 3)


def _recording_loss(calls):
    def loss(*args):
        *batches, rng = args
        calls.append(([b.copy() for b in batches], int(rng.integers(2**31))))
        return 0.0, [np.zeros(1)]

    return loss


def test_fit_draws_each_source_in_order_then_hands_over_the_stream():
    pool0 = np.arange(20.0).reshape(10, 2)
    pool1 = ds.ParticleEnsemble(100.0 + np.arange(7.0).reshape(7, 1))
    calls = []
    cfg = obj.TrainConfig(batch_size=4, iterations=3, seed=7)
    obj.fit(_recording_loss(calls), (pool0, pool1), [np.zeros(1)], cfg)
    assert len(calls) == 3
    for it, (batches, tail) in enumerate(calls):
        rng = np.random.default_rng([7, it])
        assert np.array_equal(batches[0], pool0[rng.choice(10, size=4, replace=False)])
        assert np.array_equal(batches[1], pool1.positions[rng.choice(7, size=4, replace=False)])
        assert tail == int(rng.integers(2**31))


def test_fit_uses_a_pool_smaller_than_the_batch_whole_and_shuffled():
    pool = np.arange(5.0).reshape(5, 1)
    calls = []
    cfg = obj.TrainConfig(batch_size=8, iterations=4, seed=2)
    obj.fit(_recording_loss(calls), (pool,), [np.zeros(1)], cfg)
    orders = [batches[0][:, 0].tolist() for batches, _ in calls]
    assert all(sorted(order) == pool[:, 0].tolist() for order in orders)
    assert any(order != pool[:, 0].tolist() for order in orders)
    for it, order in enumerate(orders):
        rng = np.random.default_rng([2, it])
        assert order == pool[rng.choice(5, size=5, replace=False), 0].tolist()


def test_fit_draws_a_density_with_its_sample():
    density = ds.Gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]])
    pool = np.arange(6.0).reshape(3, 2)
    calls = []
    cfg = obj.TrainConfig(batch_size=5, iterations=2, seed=4)
    obj.fit(_recording_loss(calls), (density, pool), [np.zeros(1)], cfg)
    for it, (batches, tail) in enumerate(calls):
        rng = np.random.default_rng([4, it])
        assert np.array_equal(batches[0], density.sample(5, rng))
        assert np.array_equal(batches[1], pool[rng.choice(3, size=3, replace=False)])
        assert tail == int(rng.integers(2**31))


@pytest.mark.parametrize("empty", [np.zeros((0, 2)), ds.ParticleEnsemble(np.zeros((0, 2)))])
def test_fit_rejects_an_empty_pool_before_the_first_iteration(empty):
    calls, param = [], np.ones(1)
    cfg = obj.TrainConfig(batch_size=4, iterations=3)
    with pytest.raises(ValueError, match="empty"):
        obj.fit(_recording_loss(calls), (np.ones((4, 2)), empty), [param], cfg)
    assert calls == [] and param[0] == 1.0


def test_trainers_reject_an_empty_pool():
    empty, cfg = np.zeros((0, 1)), obj.TrainConfig(iterations=2)
    block = _tiny_chain(1, 1, steps=2, widths=(4,)).blocks[0]
    for train in (lambda: obj.train_block("jko", block, empty, cfg),
                  lambda: obj.train_block("local_fm", block, empty, cfg),
                  lambda: tp.ot_train(empty, np.ones((4, 1)), _tiny_chain(1, 1), cfg,
                                      p_density=ds.standard_gaussian(1),
                                      q_density=ds.standard_gaussian(1)),
                  lambda: tp.dro_train(tp.RiskFunction.linear([1.0]), empty, cfg,
                                       widths=(4,), steps=2),
                  lambda: tp.fit_logistic_ratio(empty, np.ones((4, 1)), cfg)):
        with pytest.raises(ValueError, match="empty"):
            train()


@pytest.mark.parametrize("floor, half", [(0.1, 0.45), (0.05, 0.475)])
def test_cosine_lr_matches_the_literal_schedules(floor, half):
    # the classifier (floor 0.1) and OT (floor 0.05) schedules, bit for bit
    schedule = obj.cosine_lr(floor)
    for n in (1, 7, 40, 1200):
        for it in range(n):
            assert schedule(it, n) == floor + half * (1.0 + np.cos(np.pi * it / n))


def test_trace_has_one_entry_per_iteration():
    block = _tiny_chain(1, 1, steps=4, widths=(6,)).blocks[0]
    cfg = obj.TrainConfig(learn_rate=0.02, batch_size=32, iterations=30, seed=2)
    res = obj.train_block("jko", block, np.random.default_rng(4).normal(size=(128, 1)), cfg)
    assert len(res.losses) == 30 and len(res.wall_ms) == 30


def test_fm_loss_shift_identity():
    # for fixed candidates, the difference of fm losses equals the difference
    # of their density-weighted squared gaps to the exact velocity
    rng = np.random.default_rng(20)
    m = 60_000
    x0 = rng.normal(size=(m, 1))
    x1 = rng.normal(size=(m, 1))
    cand1 = affine_field(np.array([[0.3]]))
    cand2 = affine_field(np.array([[-0.5]]), c=np.array([0.2]))
    l1, _ = obj.fm_loss(_block(cand1), x0, x1, rng=np.random.default_rng(0))
    l2, _ = obj.fm_loss(_block(cand2), x0, x1, rng=np.random.default_rng(0))

    # oracle: exact velocity of the linear interpolant between two standard
    # normals is v(x, t) = x (2t - 1) / ((1-t)^2 + t^2); integrate the gaps
    # by dense quadrature over (x, t)
    def gap_sq(candidate):
        ts = np.linspace(0.005, 0.995, 199)
        total = 0.0
        for t in ts:
            var = (1 - t) ** 2 + t**2
            xs = np.linspace(-6, 6, 601)
            rho = np.exp(-xs**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
            v_exact = xs * (2 * t - 1) / var
            v_cand = np.stack(
                [eval_velocity(candidate, np.array([x]), t) for x in xs]).ravel()
            total += np.trapezoid((v_cand - v_exact) ** 2 * rho, xs)
        return total * (ts[1] - ts[0])

    diff_losses = l1 - l2
    diff_gaps = gap_sq(cand1) - gap_sq(cand2)
    # Monte-Carlo tolerance: ~3 sigma of the empirical loss difference
    assert diff_losses == pytest.approx(diff_gaps, abs=0.05)


@pytest.mark.slow
def test_movement_regularization_monotone_in_penalty():
    # stronger movement penalties (smaller gamma) never increase the average
    # displacement, seed-for-seed
    src = ds.Gaussian([2.0], [[1.0]])
    displacements = {g: [] for g in (10.0, 1.0, 0.1)}
    for seed in range(5):
        x = src.sample(512, np.random.default_rng(100 + seed))
        for gamma in displacements:
            block = fc.FlowBlock(
                vel.init_near_identity(1, widths=(16,), seed=seed),
                odeint.IntegratorConfig("rk4", 8, (0.0, 1.0)))
            cfg = obj.TrainConfig(learn_rate=0.02, batch_size=128, iterations=80,
                                  seed=seed, gamma=gamma)
            obj.train_block("jko", block, x, cfg)
            pushed = obj.push_particles(block, ds.ParticleEnsemble(x))
            displacements[gamma].append(
                float(np.mean(np.sum((pushed.positions - x) ** 2, axis=1))))
    mean_disp = {g: np.mean(v) for g, v in displacements.items()}
    assert mean_disp[10.0] >= mean_disp[1.0] >= mean_disp[0.1]
