"""Time-conditioned MLP velocity fields and their divergence.

The field maps (x, t) -> velocity in R^d through a dense stack applied to
(x, t / t_total); it holds T (``t_total``) and no interval. Velocity and
divergence (the Jacobian trace over x) come from the fused stage kernel,
``stage_forward``, whose hand-written VJP ``stage_vjp`` keeps the
divergence differentiable in the parameters and in x with a single reverse
sweep. ``wflow.odeint`` calls it once per stage of a block; the taped
primitive ``velocity_divergence`` is one stage alone (the fm loss's
velocity). The kernel has three modes:

- ``velocity``: the primal sweep alone, no divergence;
- ``tangent``: the sweep also carries K directional derivatives, started
  from the d basis vectors for the exact trace of a deep stack or from K
  Rademacher draws for the Hutchinson estimate (FFJORD, Grathwohl et al.
  2019, arXiv:1810.01367);
- ``closed``: the exact trace in closed form for a stack with one or two
  hidden layers and an identity output layer, at the cost of at most one
  (m, h) @ (h, h) product whatever d is (the kind of architecture Chen &
  Duvenaud 2019, arXiv:1912.03579, make cheap to differentiate).

One rule picks the estimator from d: the exact trace up to
``EXACT_DIVERGENCE_MAX_DIM``, and above it a Hutchinson estimate from
``HUTCHINSON_PROBES`` Rademacher probes, drawn afresh for every stage.
``draw_probes`` applies the rule and picks the mode from d and the stack's
shape. The kernel takes x and the stage's time, a scalar or one time per row, and
folds the time into the first layer's bias; it never builds the (m, d+1)
input. Its closed-form coupling depends on the parameters only, so a block
builds it once (``stage_coupling``) and every stage reuses it. Bias adds,
activations, slopes and the VJP's cotangent updates fill a workspace that
the caller allocates once per block (``stage_workspace``), and the VJP adds
its parameter cotangents into accumulators the caller owns. On a 2-core
x86-64 host (one BLAS thread, pinned core), a closed stage's forward + VJP
at tanh widths 64x2, d=2 takes a median 0.45 ms at m=128, 0.63 ms at m=192
and 0.89 ms at m=256.
"""

from __future__ import annotations

import numpy as np

from wflow import mlp
from wflow import numcore as nc

EXACT_DIVERGENCE_MAX_DIM = 8
HUTCHINSON_PROBES = 8


class VelocityField:
    """Parameterized velocity v(x, t), with t embedded as t / t_total.

    It holds no interval: a block's lives in its ``IntegratorConfig``.
    Immutable during evaluation; training mutates the layer arrays in
    place between evaluation phases (single writer).
    """

    def __init__(self, layers, t_total, d):
        if not layers:
            raise ValueError("velocity field needs at least one layer")
        for prev, layer in zip(layers, layers[1:]):
            if layer.w.shape[0] != prev.w.shape[1]:
                raise ValueError(
                    f"layer widths do not chain: {prev.w.shape[1]} outputs feed "
                    f"{layer.w.shape[0]} inputs"
                )
        if layers[0].w.shape[0] != d + 1:
            raise ValueError(
                f"first layer expects width {layers[0].w.shape[0]}, need d+1 = {d + 1}"
            )
        if layers[-1].w.shape[1] != d:
            raise ValueError("last layer must output d values")
        self.layers = layers
        self.t_total = float(t_total)
        self.d = d

    def parameter_arrays(self):
        return mlp.parameter_arrays(self.layers)

    def bind(self, tape=None) -> "BoundVelocity":
        return BoundVelocity(self, tape)


class BoundVelocity:
    """A field's parameters as Tensors, reusable across many evaluations."""

    def __init__(self, field: VelocityField, tape=None):
        self.field = field
        self.bound = mlp.BoundLayers(field.layers, tape)
        self.params = tuple(p for w, b, _ in self.bound.entries for p in (w, b))
        self.acts = tuple(act for _, _, act in self.bound.entries)

    def _time(self, t, m):
        """The embedded time t / t_total: a float, or (m,) for per-sample times."""
        scale = 1.0 / self.field.t_total
        if np.ndim(t) == 0:
            return float(t) * scale
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (m,):
            raise nc.ShapeError(f"per-sample times must have shape ({m},), got {t.shape}")
        return t * scale

    def _stage(self, x: nc.Tensor, t, mode, probes, scale) -> nc.Tensor:
        """One fused stage node; the output packs [v | div] as (m, d+1)."""
        tau = nc.Tensor(self._time(t, x.shape[0]))
        return nc._apply("velocity_divergence", (x, tau, nc.Tensor(probes), *self.params),
                         (self.acts, mode, scale))

    def velocity(self, x: nc.Tensor, t) -> nc.Tensor:
        """Velocity (m, d) at (x, t): the fused stage with no divergence."""
        m, d = x.shape
        return nc.slice_(self._stage(x, t, "velocity", np.empty((0, m, d)), 1.0), 1, 0, d)

    def velocity_and_divergence(self, x: nc.Tensor, t, rng=None):
        """Velocity (m, d) and divergence (m,) at (x, t), one fused tape node.

        Above ``EXACT_DIVERGENCE_MAX_DIM`` the Hutchinson probes come from ``rng``.
        """
        m, d = x.shape
        out = self._stage(x, t, *draw_probes(self.acts, m, d, rng))
        return nc.slice_(out, 1, 0, d), nc.tsum(nc.slice_(out, 1, d, d + 1), axis=1)


def has_closed_form(acts) -> bool:
    """Whether the exact trace of a stack with these activations has a closed form.

    It does for one or two hidden layers (any activation) under an identity
    output layer; deeper stacks and other output layers take the tangents.
    """
    return len(acts) in (2, 3) and acts[-1] == "identity"


def uses_hutchinson(d) -> bool:
    """Whether the divergence at dimension d is a Hutchinson estimate.

    Its probes are then drawn afresh for every stage; the exact trace is the
    same at every stage.
    """
    return d > EXACT_DIVERGENCE_MAX_DIM


def draw_probes(acts, m, d, rng):
    """One stage's kernel mode, probe stack E (K, m, d) and trace scale.

    Exact trace up to ``EXACT_DIVERGENCE_MAX_DIM``: the closed form with no
    probes when ``has_closed_form(acts)``, else the d basis vectors, scale 1.
    Hutchinson above it: ``HUTCHINSON_PROBES`` Rademacher draws from ``rng``,
    scale 1/K.
    """
    if not uses_hutchinson(d):
        if has_closed_form(acts):
            return "closed", np.empty((0, m, d)), 1.0
        return "tangent", np.broadcast_to(np.eye(d)[:, None, :], (d, m, d)), 1.0
    if rng is None:
        raise nc.MissingRngError(f"hutchinson divergence needs an rng above d = "
                                 f"{EXACT_DIVERGENCE_MAX_DIM}: pass rng")
    probes = np.stack([rng.integers(0, 2, size=(m, d)).astype(np.float64) * 2.0 - 1.0
                       for _ in range(HUTCHINSON_PROBES)])
    return "tangent", probes, 1.0 / HUTCHINSON_PROBES


# ---------------------------------------------------------------------------
# the fused stage kernel: the stage input x (m, d) and its embedded time
# tau = t / t_total (a scalar, or (m,) per-sample times), probes E (K, m, d),
# then w0, b0, w1, b1, ...; activations, mode and trace scale. The time is
# folded into the first layer's bias, z1 = x @ w0[:d] + (b0 + tau * w0[d]),
# so no (m, d+1) input is ever built. It returns v (m, d) and div (m,), by
# mode:
#
# - velocity (K = 0): the primal sweep alone, div None;
# - tangent: div = scale * sum_k rowsum(U[k] * E[k]), with the tangent U
#   started from E through w0[:d] and carried as U <- (U @ w) * act'(z), one
#   GEMM per layer over the K stacked tangents;
# - closed (K = 0): in row-vector notation, W0x = w0[:d] and D_i = act'(z_i)
#   (ones for an identity layer). Two hidden layers give
#   div = rowsum((D1 @ B) * D2) with the (h1, h2) coupling
#   B = w1 * (w2 @ W0x)^T; one hidden layer gives div = D1 @ c with
#   c = rowsum(w1 * W0x^T). The coupling depends on the parameters only, so
#   ``stage_coupling`` builds it once per block (or per stage node) and the
#   kernel takes it as an argument.
#
# Each hidden layer's GEMM writes into its workspace buffer, and the bias
# add, activation and slope, and in the VJP the cotangent updates, work in
# place there. The ``velocity_divergence`` primitive builds a workspace per
# call, packs [v | div] as (m, d+1) and keeps nothing beyond its output, so
# eager callers hold no residuals and a tape re-run leaves none stale; its
# VJP recomputes the sweep, the primal alone in the velocity and closed
# modes. Both divergence modes reach z through act'' (see stage_vjp).
# ``wflow.odeint`` calls the same kernel and VJP once per stage of a block,
# with one workspace for all of them.

def _activate(act, z, want_slope, out):
    """act(z), in place on z but for softplus, and the slope act'(z).

    A tanh slope fills ``out`` (a fresh array when None); the slope is None
    for identity layers or when unwanted.
    """
    if act == "tanh":
        a = np.tanh(z, out=z)
        if not want_slope:
            return a, None
        slope = np.multiply(a, a, out=out)
        return a, np.subtract(1.0, slope, out=slope)
    if act == "softplus":
        slope = nc._sigmoid_np(z) if want_slope else None
        return nc._softplus_fwd((z,), ()), slope
    return z, None


def stage_workspace(params, m):
    """One stage's buffers at batch m, which every stage of a block refills.

    Per layer: the activation, the slope and their two cotangents, (m, width)
    each. The output layer's are None, so they are fresh arrays: its
    activation is the stage's velocity, which outlives the stage.
    """
    hidden = [[np.empty((m, w.shape[1])) for _ in range(4)] for w in params[0:-2:2]]
    return hidden + [(None,) * 4]


def _sweep(x, tau, probes, params, acts, want_slopes, ws):
    """The layers of one stage in order: a list of (a, slope, t, u).

    ``a`` is the layer's activation (m, width); ``u`` the K stacked tangents
    after it as one (K*m, width) block, so each layer's tangent is one GEMM;
    ``t`` is the tangent before the slope multiplies it. With K = 0 the
    tangent entries are None. A hidden layer's z, activation and slope fill
    its workspace buffers; the tangents are fresh.
    """
    k, m, d = probes.shape
    a, u = x, (probes.reshape(k * m, d) if k else None)
    layers = []
    for i, act in enumerate(acts):
        w, b = params[2 * i], params[2 * i + 1]
        z_buf, slope_buf = ws[i][:2]
        if i > 0:
            z = np.matmul(a, w, out=z_buf)
            z += b
        elif np.ndim(tau) == 0:
            z = np.matmul(x, w[:d], out=z_buf)
            z += b + tau * w[d]
        else:
            z = np.multiply.outer(tau, w[d], out=z_buf)
            z += b
            z += x @ w[:d]
        a, slope = _activate(act, z, want_slopes or k > 0, slope_buf)
        t = None
        if k:
            t = u @ (w[:d] if i == 0 else w)
            u = t if slope is None else (t.reshape(k, m, -1) * slope).reshape(k * m, -1)
        layers.append((a, slope, t, u))
    return layers


def _slope(layer):
    """D = act'(z) of a hidden layer; ones for an identity layer."""
    a, slope, _, _ = layer
    return np.ones_like(a) if slope is None else slope


def stage_coupling(mode, params, d):
    """The closed form's parameter-only factors, None outside closed mode.

    One hidden layer: (c, None) with c = rowsum(w1 * W0x^T) (h,). Two:
    (B, cross) with cross = w2 @ W0x (h2, h1) and B = w1 * cross^T (h1, h2).
    """
    if mode != "closed":
        return None
    w0x, w1 = params[0][:d], params[2]
    if len(params) == 4:
        return np.einsum("pi,ip->p", w1, w0x), None
    cross = params[4] @ w0x
    return w1 * cross.T, cross


def stage_forward(x, tau, probes, params, acts, mode, scale, coupling, ws):
    """Velocity (m, d) and divergence (m,) at stage input x and embedded time tau.

    div is None in velocity mode; closed mode needs ``stage_coupling``. ``ws``
    is a ``stage_workspace`` at x's batch size; v and div are fresh arrays.
    """
    if mode == "closed":
        layers = _sweep(x, tau, probes, params, acts, True, ws)
        c, cross = coupling
        if cross is None:
            return layers[-1][0], _slope(layers[0]) @ c
        # the forward leaves the cotangent buffers free
        q = np.matmul(_slope(layers[0]), c, out=ws[1][3])
        return layers[-1][0], np.einsum("ij,ij->i", q, _slope(layers[1]))
    layers = _sweep(x, tau, probes, params, acts, False, ws)
    if mode == "velocity":
        return layers[-1][0], None
    u = layers[-1][3]
    return layers[-1][0], (u.reshape(probes.shape) * probes).sum(axis=2).sum(axis=0) * scale


def _closed_cotangents(layers, params, d, coupling, div_bar, grads, ws):
    """Pull div_bar back through the closed form.

    Returns the cotangent of each hidden slope D_i (None for the output
    layer), in the slope cotangent buffers, and adds the coupling's weight
    cotangents into ``grads``: w0[:d], w1 (and w2).
    """
    d1 = _slope(layers[0])
    w0x, w1 = params[0][:d], params[2]
    c, cross = coupling
    if cross is None:
        c_bar = div_bar @ d1
        grads[0][:d] += (w1 * c_bar[:, None]).T
        grads[2] += c_bar[:, None] * w0x.T
        return [np.multiply.outer(div_bar, c, out=ws[0][3]), None]
    p_bar = np.multiply(_slope(layers[1]), div_bar[:, None], out=ws[1][3])
    c_bar = d1.T @ p_bar
    cross_bar = (c_bar * w1).T
    grads[0][:d] += params[4].T @ cross_bar
    grads[2] += c_bar * cross.T
    grads[4] += cross_bar @ w0x.T
    d1_bar = np.matmul(p_bar, c.T, out=ws[0][3])
    # p_bar is spent, so D2's cotangent takes its buffer
    q_bar = np.matmul(d1, c, out=ws[1][3])
    q_bar *= div_bar[:, None]
    return [d1_bar, q_bar, None]


def stage_vjp(x, tau, probes, params, acts, mode, scale, v_bar, div_bar, grads, coupling, ws):
    """Pull (v_bar, div_bar) back through one stage; returns x_bar (m, d).

    The parameter cotangents add into ``grads``, one array per parameter;
    closed mode needs ``stage_coupling``; ``ws`` is a ``stage_workspace`` at
    x's batch size. ``div_bar`` is ignored in velocity mode. v_bar and
    div_bar are read, never written; x_bar is a fresh array.
    """
    k, m, d = probes.shape
    layers = _sweep(x, tau, probes, params, acts, True, ws)
    slope_bars = [None] * len(layers)
    if mode == "closed":
        slope_bars = _closed_cotangents(layers, params, d, coupling, div_bar, grads, ws)
    a_bar = v_bar
    u_bar = ((scale * div_bar)[:, None] * probes).reshape(k * m, d) if k else None
    for i in range(len(layers) - 1, -1, -1):
        a_out, slope, t, _ = layers[i]
        a_in, u_in = (x, probes.reshape(k * m, d)) if i == 0 else (layers[i - 1][0],
                                                                    layers[i - 1][3])
        w = params[2 * i] if i else params[0][:d]
        slope_bar = slope_bars[i]
        t_bar = u_bar
        if k and slope is not None:
            width = slope.shape[1]
            u_bar = u_bar.reshape(k, m, width)
            t_bar = (u_bar * slope).reshape(k * m, width)
            slope_bar = np.einsum("kmn,kmn->mn", u_bar, t.reshape(k, m, width), out=ws[i][3])
        if slope is None:
            z_bar = a_bar
        elif slope_bar is None:
            z_bar = np.multiply(a_bar, slope, out=slope)
        # z_bar = a_bar act' + slope_bar d(act')/dz, where d(act')/dz is
        # -2 a act' for tanh and act' (1 - act') for softplus
        elif acts[i] == "tanh":
            z_bar = slope_bar
            z_bar *= a_out
            z_bar *= -2.0
            z_bar += a_bar
            z_bar *= slope
        else:
            z_bar = slope * (a_bar + (1.0 - slope) * slope_bar)
        z_sum = z_bar.sum(axis=0)
        grads[2 * i + 1] += z_sum
        w_bar = grads[2 * i][:d] if i == 0 else grads[2 * i]
        w_bar += a_in.T @ z_bar
        if k:
            w_bar += u_in.T @ t_bar
            if i:
                u_bar = t_bar @ w.T
        if i == 0:
            grads[0][d] += tau * z_sum if np.ndim(tau) == 0 else tau @ z_bar
        a_bar = np.matmul(z_bar, w.T, out=ws[i - 1][2] if i else None)
    return a_bar


def _velocity_divergence_fwd(args, meta):
    x, tau, probes, params = args[0], args[1], args[2], args[3:]
    coupling = stage_coupling(meta[1], params, x.shape[1])
    v, div = stage_forward(x, tau, probes, params, *meta, coupling,
                           stage_workspace(params, len(x)))
    if div is None:
        div = np.zeros(len(v))
    return np.concatenate([v, div[:, None]], axis=1)


def _velocity_divergence_bwd(node, inputs, g):
    x, tau, probes, params = inputs[0], inputs[1], inputs[2], inputs[3:]
    d = x.shape[1]
    coupling = stage_coupling(node.meta[1], params, d)
    grads = [np.zeros_like(p) for p in params]
    x_bar = stage_vjp(x, tau, probes, params, *node.meta, g[:, :d], g[:, d], grads, coupling,
                      stage_workspace(params, len(x)))
    return (x_bar, None, None, *grads)


nc._primitive("velocity_divergence", _velocity_divergence_fwd, _velocity_divergence_bwd)


def init_near_identity(d, widths=(64, 64), seed=0, t_total=1.0,
                       hidden_act="tanh") -> VelocityField:
    """Fresh field whose output is exactly zero, so its block map is the identity.

    Hidden weights are scaled-uniform; the final layer is zeroed. Same seed,
    same parameters.
    """
    if d <= 0:
        raise ValueError("dimension must be positive")
    if not widths:
        raise ValueError("need at least one layer width")
    rng = np.random.default_rng(seed)
    sizes = [d + 1, *widths, d]
    layers = mlp.init_layers(sizes, rng, hidden_act=hidden_act, zero_final=True)
    return VelocityField(layers, t_total, d)
