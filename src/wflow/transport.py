"""Learned-transport applications: density ratios, optimal transport, worst-case sampling.

* Logistic ratio fitting: a small classifier whose logit estimates
  log(f1/f0); chained over a path of bridging ensembles it telescopes into
  a long-range log-ratio.
* Flow OT: minimize the particle transport cost plus KL penalties pinning
  both endpoints of the flow.
* Flow DRO: a single transport block minimizing
  E[R(F(X)) + ||X - F(X)||^2 / (2 gamma)], yielding a worst-case sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from wflow import mlp
from wflow import numcore as nc
from wflow import odeint
from wflow.chain import FlowBlock, FlowChain
from wflow.datasets import Gaussian, ParticleEnsemble, as_positions
from wflow.objectives import TrainConfig, cosine_lr, fit
from wflow.velocity import init_near_identity

RATIO_WIDTHS = (64, 64)


class UnboundedRiskError(RuntimeError):
    """Sustained linear descent of the DRO objective: the risk is unbounded below."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class RatioModel:
    """Classifier logit phi(x) estimating a log density ratio log(f1/f0)."""

    layers: list

    def log_ratio(self, x) -> np.ndarray:
        out = mlp.BoundLayers(self.layers).forward(nc.Tensor(as_positions(x)))
        return out.data[:, 0]


def logistic_ratio_loss(layers, samples0, samples1):
    """Empirical logistic loss mean[softplus(phi(x0))] + mean[softplus(-phi(x1))].

    Its population minimizer is phi = log(f1/f0). Returns (loss, grads).
    """
    x0, x1 = as_positions(samples0), as_positions(samples1)

    def build(tape):
        bound = mlp.BoundLayers(layers, tape)
        phi0 = bound.forward(nc.Tensor(x0))
        phi1 = bound.forward(nc.Tensor(x1))
        return nc.add(
            nc.tmean(nc.softplus(phi0)),
            nc.tmean(nc.softplus(nc.mul(phi1, -1.0))),
        )

    return nc.value_and_grad(build)


def fit_logistic_ratio(samples0, samples1, cfg: TrainConfig,
                       widths=RATIO_WIDTHS) -> RatioModel:
    """Train phi ~ log(f1/f0) from two sample sets by minibatch logistic loss."""
    x0, x1 = as_positions(samples0), as_positions(samples1)
    if x0.shape[1] != x1.shape[1]:
        raise nc.ShapeError(f"sample dimensions differ: {x0.shape[1]} vs {x1.shape[1]}")
    layers = mlp.init_layers([x0.shape[1], *widths, 1], np.random.default_rng(cfg.seed))
    # cosine decay to a 10% floor settles the late-phase minibatch noise
    fit(lambda b0, b1, rng: logistic_ratio_loss(layers, b0, b1), (x0, x1),
        mlp.parameter_arrays(layers), cfg, schedule=cosine_lr(0.1))
    return RatioModel(layers)


def telescopic_log_ratio(path, x, cfg: TrainConfig) -> np.ndarray:
    """Sum of per-bridge log-ratios along a path of ensembles.

    ``path`` runs from samples of p to samples of q through overlapping
    intermediates; each consecutive pair gets its own classifier and all of
    them are evaluated at the same query points, so the sum estimates
    log q(x) - log p(x).
    """
    if len(path) < 2:
        raise ValueError("telescoping needs at least two ensembles")
    xq = as_positions(x)
    total = np.zeros(len(xq))
    for n in range(len(path) - 1):
        model = fit_logistic_ratio(path[n], path[n + 1], replace(cfg, seed=cfg.seed + n))
        total += model.log_ratio(xq)
    return total


# ---------------------------------------------------------------------------
# flow-based optimal transport

@dataclass
class OtResult:
    transport_cost: float
    kl_p: float
    kl_q: float
    losses: np.ndarray
    wall_ms: np.ndarray


def _ot_loss(chain_blocks, base_p, base_q, xp, xq, gamma):
    """Particle transport cost + gamma * (KL(p||p_hat) + KL(q||q_hat)).

    p_hat is the pullback of q through the inverse map and q_hat the
    pushforward of p; both KLs reduce to log-density differences via the
    divergence integral along the trajectories. Returns (loss, grads, cost,
    kl_p, kl_q).
    """

    def build(tape):
        bound = [(block.field.bind(tape), block.integrator) for block in chain_blocks]
        # forward side: transport cost and KL(p || p_hat)
        x = nc.Tensor(xp)
        cost = None
        logdet_fwd = None
        for bv, cfg in bound:
            aug = odeint.integrate_augmented_tensor(bv, x, cfg)
            span = cfg.interval[1] - cfg.interval[0]
            seg = nc.mul(nc.tmean(aug.displacement_sq()), 1.0 / span)
            cost = seg if cost is None else nc.add(cost, seg)
            logdet_fwd = aug.logdet if logdet_fwd is None else nc.add(logdet_fwd, aug.logdet)
            x = aug.x
        log_p_hat = nc.add(base_q.log_pdf_expr(x), logdet_fwd)
        kl_p = nc.add(float(np.mean(base_p.log_pdf(xp))), nc.mul(nc.tmean(log_p_hat), -1.0))
        # reverse side: KL(q || q_hat) with q_hat the pushforward of p
        y = nc.Tensor(xq)
        logdet_rev = None
        for bv, cfg in reversed(bound):
            aug = odeint.integrate_augmented_tensor(bv, y, cfg, direction="reverse")
            logdet_rev = aug.logdet if logdet_rev is None else nc.add(logdet_rev, aug.logdet)
            y = aug.x
        log_q_hat = nc.add(base_p.log_pdf_expr(y), logdet_rev)
        kl_q = nc.add(float(np.mean(base_q.log_pdf(xq))), nc.mul(nc.tmean(log_q_hat), -1.0))
        return nc.add(cost, nc.mul(nc.add(kl_p, kl_q), gamma)), cost, kl_p, kl_q

    return nc.value_and_grad(build)


def transport_cost(chain: FlowChain, p_samples) -> float:
    """Time-normalized mean squared particle movement, summed over blocks."""
    x = as_positions(p_samples)
    total = 0.0
    for block in chain.blocks:
        x_next = odeint.integrate(block.field, x, block.integrator)
        span = block.integrator.interval[1] - block.integrator.interval[0]
        total += float(np.mean(np.sum((x_next - x) ** 2, axis=1))) / span
        x = x_next
    return total


def ot_train(p_samples, q_samples, chain: FlowChain, cfg: TrainConfig,
             p_density=None, q_density=None) -> OtResult:
    """Fit the chain as a transport from p to q with endpoint KL penalties.

    ``cfg.gamma`` weights the endpoint constraints. Each iteration draws a
    batch from the p pool, then one from the q pool (``objectives.fit``).
    When analytic densities are not supplied, Gaussian moment fits of the
    sample pools stand in for them (exact whenever p and q really are
    Gaussian).
    """
    xp_pool, xq_pool = as_positions(p_samples), as_positions(q_samples)
    base_p = p_density if p_density is not None else Gaussian.moment_fit(xp_pool)
    base_q = q_density if q_density is not None else Gaussian.moment_fit(xq_pool)
    for name, dens in (("p", base_p), ("q", base_q)):
        if not hasattr(dens, "log_pdf_expr"):
            raise TypeError(f"{name} density must expose a tape expression (Gaussian)")
    kls = [float("nan"), float("nan")]  # (kl_p, kl_q) of the latest step

    def loss(xp, xq, rng):
        value, grads, _, kls[0], kls[1] = _ot_loss(chain.blocks, base_p, base_q, xp, xq,
                                                   cfg.gamma)
        return value, grads

    # cosine decay: the penalty weight amplifies late-phase gradient noise
    losses, wall = fit(loss, (xp_pool, xq_pool), chain.parameter_arrays(), cfg,
                       schedule=cosine_lr(0.05))
    for block in chain.blocks:
        block.trained = True
    return OtResult(transport_cost(chain, xp_pool), *kls, losses, wall)


# ---------------------------------------------------------------------------
# flow-based worst-case sampling

class RiskFunction:
    """Differentiable per-sample risk R(x), evaluable on the tape."""

    def __init__(self, expr):
        self.expr = expr

    @classmethod
    def linear(cls, c) -> "RiskFunction":
        c = np.asarray(c, dtype=np.float64)

        def expr(x):
            return nc.tsum(nc.mul(x, nc.Tensor(c)), axis=1)

        return cls(expr)

    def __call__(self, x: nc.Tensor) -> nc.Tensor:
        return self.expr(x)

    def eval(self, x) -> np.ndarray:
        return self.expr(nc.Tensor(as_positions(x))).data


@dataclass
class DroResult:
    transport: FlowBlock
    ensemble: ParticleEnsemble
    risk: float
    movement: float
    losses: np.ndarray
    wall_ms: np.ndarray


_DESCENT_WINDOW = 500


def _sustained_linear_descent(losses) -> bool:
    """True when the last window keeps descending without decelerating."""
    w = np.asarray(losses[-_DESCENT_WINDOW:])
    third = _DESCENT_WINDOW // 3
    drop1 = np.median(w[:third]) - np.median(w[third : 2 * third])
    drop2 = np.median(w[third : 2 * third]) - np.median(w[2 * third :])
    scale = max(1.0, abs(float(np.median(w))))
    return drop1 > 1e-4 * scale and drop2 > 0.7 * drop1


def dro_train(risk: RiskFunction, source, cfg: TrainConfig, *,
              widths=(64, 64), steps=8, seed_offset=0) -> DroResult:
    """Learn the worst-case transport min_F E[R(F(X)) + ||X - F(X)||^2 / (2 gamma)].

    ``gamma`` is ``cfg.gamma``. X comes from ``source``, a sample pool or a
    density with ``sample(n, rng)``; ``objectives.fit`` draws each batch. A
    single near-identity block plays the transport map. Sustained linear
    loss descent (no deceleration over 500 iterations) aborts with a
    diagnosis: the risk is unbounded below at this gamma. The result's
    ensemble maps the whole pool, or 4096 fresh draws of a density.
    """
    density = hasattr(source, "sample")
    pool = None if density else as_positions(source)
    d = source.d if density else pool.shape[1]
    field = init_near_identity(d, widths=widths, seed=cfg.seed + seed_offset)
    block = FlowBlock(field, odeint.IntegratorConfig("rk4", steps, (0.0, 1.0)))

    def loss(x, rng):
        def build(tape):
            y = odeint.integrate_tensor(field.bind(tape), nc.Tensor(x), block.integrator)
            move = nc.tsum(nc.square(y - nc.Tensor(x)), axis=1)
            return nc.add(nc.tmean(risk(y)), nc.mul(nc.tmean(move), 1.0 / (2.0 * cfg.gamma)))

        return nc.value_and_grad(build)

    def check(it, losses):
        if it >= _DESCENT_WINDOW and it % 50 == 0 and _sustained_linear_descent(losses):
            raise UnboundedRiskError(
                f"objective still descending linearly after {it} iterations "
                f"(gamma={cfg.gamma}); risk appears unbounded below",
                np.asarray(losses),
            )

    losses, wall = fit(loss, (source,), block.parameter_arrays(), cfg, check=check)
    block.trained = True
    x_eval = (source.sample(4096, np.random.default_rng([cfg.seed, cfg.iterations]))
              if density else pool)
    y_eval = odeint.integrate(field, x_eval, block.integrator)
    risk_value = float(np.mean(risk.eval(y_eval)))
    movement = float(np.mean(np.sum((y_eval - x_eval) ** 2, axis=1)))
    return DroResult(block, ParticleEnsemble(y_eval), risk_value, movement, losses, wall)
