"""Training objectives and the one optimizer loop that minimizes them.

Four ways to train a transport:

* ``nll``      -- end-to-end negative log-likelihood through all blocks;
* ``jko``      -- one block at a time, proximal step against a known target
                  potential: E[V(x_end) - int div v] + mean squared particle
                  movement weighted by 1/(2 gamma);
* ``fm``       -- simulation-free velocity matching along an interpolant
                  between two sample batches;
* ``local_fm`` -- velocity matching against a short mean-reverting
                  (Ornstein-Uhlenbeck) step of the current particles.

Progressive kinds (jko, local_fm) assume earlier blocks are trained, frozen,
and already applied to the data; training block n never touches parameters
of blocks before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from wflow import numcore as nc
from wflow import odeint
from wflow.chain import FlowBlock, FlowChain, push_forward_logdet
from wflow.datasets import ParticleEnsemble, as_positions

FM_STRATA = 8


def check_positive(name, value):
    """Raise ValueError unless ``value`` is a positive finite number."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the trace up to the failing iteration."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class TrainConfig:
    learn_rate: float = 1e-3
    batch_size: int = 128
    iterations: int = 500
    seed: int = 0
    gamma: float = 1.0
    optimizer: str = "adam"
    time_draws: int = 1

    def __post_init__(self):
        check_positive("learn_rate", self.learn_rate)
        check_positive("gamma", self.gamma)
        for name in ("batch_size", "time_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction, at ADAM_BETA1, ADAM_BETA2 and ADAM_EPS."""

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class Sgd:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr

    def step(self, grads):
        for p, g in zip(self.params, grads):
            p -= self.lr * g


def cosine_lr(floor):
    """Learning-rate factor decaying from 1 at the first iteration toward ``floor``."""

    def schedule(it, iterations):
        return floor + 0.5 * (1.0 - floor) * (1.0 + np.cos(np.pi * it / iterations))

    return schedule


def _draw(source, n, rng):
    """One minibatch of ``n`` points: ``source.sample(n, rng)`` from a density,
    ``n`` distinct points from a pool, or the whole pool, shuffled, when it
    holds fewer."""
    if hasattr(source, "sample"):
        return source.sample(n, rng)
    return source[rng.choice(len(source), size=min(n, len(source)), replace=False)]


def fit(loss, sources, params, cfg: TrainConfig, *, schedule=None, check=None):
    """The one minibatch loop behind every trainer; deterministic per seed.

    ``sources`` are sample pools (arrays, ensembles; an empty one is a
    ValueError) or densities. Iteration ``it`` draws a ``cfg.batch_size``
    batch from each source in order (``_draw``) from the stream
    ``default_rng([cfg.seed, it])``, and ``loss(*batches, rng) -> (loss,
    grads)`` gets the rest of it; the optimizer updates ``params`` in place.
    ``schedule(it, iterations)`` scales ``cfg.learn_rate``; ``check(it,
    losses)`` runs after each update and may raise to stop the run. A
    NumericError in a step becomes TrainingDiverged with the losses so far.
    Returns (losses, cumulative wall ms), one entry per iteration.
    """
    sources = [s if hasattr(s, "sample") else as_positions(s) for s in sources]
    if any(not hasattr(s, "sample") and len(s) == 0 for s in sources):
        raise ValueError("cannot train on an empty sample pool")
    opt = Adam(params, cfg.learn_rate) if cfg.optimizer == "adam" else Sgd(params, cfg.learn_rate)
    losses, wall = [], []
    t_start = time.perf_counter()
    for it in range(cfg.iterations):
        rng = np.random.default_rng([cfg.seed, it])
        try:
            value, grads = loss(*[_draw(s, cfg.batch_size, rng) for s in sources], rng)
        except nc.NumericError as err:
            raise TrainingDiverged(
                f"loss became non-finite at iteration {it}: {err}",
                np.asarray(losses)) from err
        if schedule is not None:
            opt.lr = cfg.learn_rate * schedule(it, cfg.iterations)
        opt.step(grads)
        losses.append(value)
        wall.append(1e3 * (time.perf_counter() - t_start))
        if check is not None:
            check(it, losses)
    return np.asarray(losses), np.asarray(wall)


def _resolve_potential(potential):
    """Normalize the target-potential argument to a Tensor -> Tensor callable."""
    if potential is None:
        return lambda x: nc.mul(nc.tsum(nc.square(x), axis=1), 0.5)
    if hasattr(potential, "potential_expr"):
        return potential.potential_expr
    return potential


def nll_loss(chain: FlowChain, batch):
    """Mean negative log-likelihood of the batch, end-to-end through all blocks.

    Returns (loss value, gradients) with gradients ordered like
    ``chain.parameter_arrays()``.
    """
    x = as_positions(batch)
    if not hasattr(chain.base, "log_pdf_expr"):
        raise TypeError("nll training needs a base density with a tape expression (Gaussian)")

    def build(tape):
        bound = [(block.field.bind(tape), block.integrator) for block in chain.blocks]
        z, logdet = push_forward_logdet(bound, nc.Tensor(x))
        loglik = nc.add(chain.base.log_pdf_expr(z), logdet)
        return nc.mul(nc.tmean(loglik), -1.0)

    return nc.value_and_grad(build)


def jko_block_loss(block: FlowBlock, batch_prev, gamma, potential=None):
    """Proximal-step objective for one block against target exp(-V).

    mean[ V(x_end) - int div v ] + (1 / 2 gamma) * mean ||x_end - x_start||^2.
    The first part is the target KL up to an additive constant; the second
    regularizes the amount of particle movement.
    """
    check_positive("gamma", gamma)
    x = as_positions(batch_prev)
    v_of = _resolve_potential(potential)

    def build(tape):
        aug = odeint.integrate_augmented_tensor(block.field.bind(tape), nc.Tensor(x),
                                                block.integrator)
        kl_part = nc.tmean(nc.add(v_of(aug.x), nc.mul(aug.logdet, -1.0)))
        move = nc.tmean(aug.displacement_sq())
        return nc.add(kl_part, nc.mul(move, 1.0 / (2.0 * gamma)))

    return nc.value_and_grad(build)


def fm_loss(block: FlowBlock, batch0, batch1, paired=False, time_draws=1, rng=None):
    """Monte-Carlo velocity-matching loss along x_s = (1 - s) x0 + s x1.

    Unless ``paired``, batch1 is shuffled (when an rng is given) before
    pairing by index; paired endpoints, constructed jointly like
    mean-reverting step targets, keep the given order. Interpolation times
    are stratified uniform over 8 strata, rescaled onto the block's
    interval, ``block.integrator.interval``. With rng=None the strata
    midpoints are used, which keeps tiny fixed examples deterministic. The
    interpolant and its target velocity are data, so only the field's
    velocity is recorded.
    """
    x0 = as_positions(batch0)
    x1 = as_positions(batch1)
    if len(x0) == 0 or len(x1) == 0:
        raise ValueError("empty batch")
    if x0.shape != x1.shape:
        raise nc.ShapeError(f"batch shapes differ: {x0.shape} vs {x1.shape}")
    if rng is not None and not paired:
        x1 = x1[rng.permutation(len(x1))]
    if time_draws > 1:
        x0 = np.tile(x0, (time_draws, 1))
        x1 = np.tile(x1, (time_draws, 1))
    n = len(x0)
    strata = (np.arange(n) % FM_STRATA).astype(np.float64)
    u = rng.uniform(0.0, 1.0, size=n) if rng is not None else np.full(n, 0.5)
    s = (strata + u) / FM_STRATA
    t_a, t_b = block.integrator.interval
    span = t_b - t_a
    col = s.reshape(-1, 1)
    xt = nc.Tensor(x0 * (1.0 - col) + x1 * col)
    target = (x1 - x0) * (1.0 / span)

    def build(tape):
        gap = block.field.bind(tape).velocity(xt, t_a + s * span) - target
        return nc.tmean(nc.tsum(nc.square(gap), axis=1))

    return nc.value_and_grad(build)


def make_local_fm_targets(batch_prev, gamma_n, rng):
    """Pair current particles with their mean-reverting step endpoints.

    x_r = exp(-gamma_n) x_l + sqrt(1 - exp(-2 gamma_n)) g,  g ~ N(0, I).
    gamma_n = 0 reproduces x_l exactly; large gamma_n forgets it.
    """
    if gamma_n < 0:
        raise ValueError("gamma_n must be nonnegative")
    x_l = as_positions(batch_prev)
    decay = np.exp(-gamma_n)
    spread = np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * gamma_n)))
    x_r = decay * x_l + spread * rng.standard_normal(x_l.shape)
    return ParticleEnsemble(x_l.copy()), ParticleEnsemble(x_r)


@dataclass
class TrainResult:
    losses: np.ndarray
    wall_ms: np.ndarray


def train_block(loss_kind, subject, data, cfg: TrainConfig, *, potential=None) -> TrainResult:
    """Minimize one objective with minibatch Adam/SGD; deterministic per seed.

    loss_kind selects the objective and the expected (subject, data) pair:
    nll (chain, ensemble), jko (block, pushed ensemble), fm (block,
    (ensemble0, ensemble1)), local_fm (block, ensemble). A block trains over
    its integrator's interval.
    """
    losses_of = {
        "nll": lambda x, rng: nll_loss(subject, x),
        "jko": lambda x, rng: jko_block_loss(subject, x, cfg.gamma, potential),
        "fm": lambda x0, x1, rng: fm_loss(subject, x0, x1, time_draws=cfg.time_draws, rng=rng),
        # mean-reverting step targets are constructed jointly with their
        # sources, so the local kind pairs them
        "local_fm": lambda x, rng: fm_loss(subject, *make_local_fm_targets(x, cfg.gamma, rng),
                                           paired=True, time_draws=cfg.time_draws, rng=rng),
    }
    if loss_kind not in losses_of:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    sources = data if loss_kind == "fm" else (data,)
    if loss_kind == "fm" and len(as_positions(data[0])) != len(as_positions(data[1])):
        raise nc.ShapeError("fm training expects equal-size sample pools")
    losses, wall = fit(losses_of[loss_kind], sources, subject.parameter_arrays(), cfg)
    for block in (subject.blocks if loss_kind == "nll" else [subject]):
        block.trained = True
    return TrainResult(losses, wall)


def push_particles(block: FlowBlock, ensemble: ParticleEnsemble) -> ParticleEnsemble:
    """Apply one trained block to stored particles (the progressive update step)."""
    out = odeint.integrate(block.field, ensemble.positions, block.integrator)
    return ParticleEnsemble(out)
