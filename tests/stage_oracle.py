"""The concat-input stage kernel, kept as the oracle for ``wflow.velocity``.

This is the stage kernel as it was before the time embedding was folded into
the first layer's bias: it takes h = concat(x, t / t_total) (m, d+1), builds
the closed-form coupling on every call and allocates a fresh array for every
bias add, activation and cotangent. ``stage_forward`` returns (v, div) and
``stage_vjp`` returns (h_bar, [w0_bar, b0_bar, ...]); the lean kernel must
agree with both to round-off.
"""

import numpy as np

from wflow import numcore as nc
from wflow import velocity as vel

def _activate(act, z, want_slope=True):
    """act(z) and its slope act'(z); the slope is None for identity layers or when unwanted."""
    if act == "tanh":
        a = np.tanh(z)
        return a, (1.0 - a * a) if want_slope else None
    if act == "softplus":
        return nc._softplus_fwd((z,), ()), (nc._sigmoid_np(z) if want_slope else None)
    return z, None


def _sweep(h, probes, params, acts, want_slopes=True):
    """Yield (a_in, u_in, a_out, slope, t, u_out) for each layer in order.

    ``a`` are the primal activations (m, width); ``u`` the K stacked tangents
    as one (K*m, width) block, so each layer's tangent is one GEMM; ``t`` is
    the tangent before the slope multiplies it. With K = 0 the tangent
    entries are None.
    """
    k, m, d = probes.shape
    a, u = h, (probes.reshape(k * m, d) if k else None)
    for i, act in enumerate(acts):
        w, b = params[2 * i], params[2 * i + 1]
        a_out, slope = _activate(act, a @ w + b, want_slopes or k > 0)
        t = u_out = None
        if k:
            t = u @ (w[:d] if i == 0 else w)
            u_out = t if slope is None else (t.reshape(k, m, -1) * slope).reshape(k * m, -1)
        yield a, u, a_out, slope, t, u_out
        a, u = a_out, u_out


def _hidden_slopes(layers):
    """D_i = act'(z_i) of each hidden layer of a sweep; ones for identity layers."""
    return [np.ones_like(a_out) if slope is None else slope
            for _, _, a_out, slope, _, _ in layers[:-1]]


def _coupling(params, d):
    """The closed form's weights: c (h,) for one hidden layer, B (h1, h2) for two."""
    w0x, w1 = params[0][:d], params[2]
    if len(params) == 4:
        return np.einsum("pi,ip->p", w1, w0x)
    return w1 * (params[4] @ w0x).T


def _closed_cotangents(layers, params, d, div_bar):
    """Pull div_bar back through the closed form.

    Returns the cotangent of each layer's slope D_i (None for the output
    layer) and each layer's weight cotangent through the coupling; the first
    one is for w0[:d].
    """
    slopes = _hidden_slopes(layers)
    w0x, w1 = params[0][:d], params[2]
    if len(slopes) == 1:
        c_bar = div_bar @ slopes[0]
        return ([div_bar[:, None] * _coupling(params, d), None],
                [(w1 * c_bar[:, None]).T, c_bar[:, None] * w0x.T])
    w2 = params[4]
    cross = w2 @ w0x  # (h2, h1), so B = w1 * cross^T
    coupling = w1 * cross.T
    p_bar = div_bar[:, None] * slopes[1]
    coupling_bar = slopes[0].T @ p_bar
    cross_bar = (coupling_bar * w1).T
    return ([p_bar @ coupling.T, div_bar[:, None] * (slopes[0] @ coupling), None],
            [w2.T @ cross_bar, coupling_bar * cross.T, cross_bar @ w0x.T])


def stage_forward(h, probes, params, acts, mode, scale):
    """Velocity (m, d) and divergence (m,) at the stage input h; div is None in velocity mode."""
    if mode == "closed":
        layers = list(_sweep(h, probes, params, acts))
        slopes = _hidden_slopes(layers)
        div = slopes[0] @ _coupling(params, h.shape[1] - 1)
        if len(slopes) == 2:
            div = (div * slopes[1]).sum(axis=1)
        return layers[-1][2], div
    for _, _, v, _, _, u in _sweep(h, probes, params, acts, want_slopes=False):
        pass
    if mode == "velocity":
        return v, None
    return v, (u.reshape(probes.shape) * probes).sum(axis=2).sum(axis=0) * scale


def stage_vjp(h, probes, params, acts, mode, scale, v_bar, div_bar):
    """Pull (v_bar, div_bar) back through one stage: (h_bar, [w0_bar, b0_bar, ...]).

    ``div_bar`` is ignored in velocity mode.
    """
    k, m, d = probes.shape
    layers = list(_sweep(h, probes, params, acts))
    slope_bars, coupling_bars = [None] * len(layers), None
    if mode == "closed":
        slope_bars, coupling_bars = _closed_cotangents(layers, params, d, div_bar)
    a_bar = v_bar
    u_bar = ((scale * div_bar)[:, None] * probes).reshape(k * m, d) if k else None
    grads = [None] * len(params)
    for i in range(len(layers) - 1, -1, -1):
        a_in, u_in, a_out, slope, t, _ = layers[i]
        w = params[2 * i]
        slope_bar = slope_bars[i]
        t_bar = u_bar
        if k and slope is not None:
            width = slope.shape[1]
            u_bar = u_bar.reshape(k, m, width)
            t_bar = (u_bar * slope).reshape(k * m, width)
            slope_bar = np.einsum("kmn,kmn->mn", u_bar, t.reshape(k, m, width))
        if slope is None:
            z_bar = a_bar
        elif slope_bar is None:
            z_bar = a_bar * slope
        # z_bar = a_bar act' + slope_bar d(act')/dz, where d(act')/dz is
        # -2 a act' for tanh and act' (1 - act') for softplus
        elif acts[i] == "tanh":
            z_bar = slope * (a_bar - 2.0 * a_out * slope_bar)
        else:
            z_bar = slope * (a_bar + (1.0 - slope) * slope_bar)
        w_bar = a_in.T @ z_bar
        if k and i == 0:
            w_bar[:d] += u_in.T @ t_bar
        elif k:
            w_bar += u_in.T @ t_bar
            u_bar = t_bar @ w.T
        grads[2 * i] = w_bar
        grads[2 * i + 1] = z_bar.sum(axis=0)
        a_bar = z_bar @ w.T
    if coupling_bars:
        grads[0][:d] += coupling_bars[0]
        for i, bar in enumerate(coupling_bars[1:], 1):
            grads[2 * i] += bar
    return a_bar, grads


def time_column(bound, t, m):
    """The (m, 1) time column t / t_total of the concat input, as a constant Tensor."""
    return nc.Tensor(np.broadcast_to(np.reshape(bound._time(t, m), (-1, 1)), (m, 1)).copy())


# ---------------------------------------------------------------------------
# one-call wrappers of the lean kernel in wflow.velocity, with the oracle's
# return values: (v, div) and (x_bar, [w0_bar, b0_bar, ...])

def lean_forward(x, tau, probes, params, acts, mode, scale):
    coupling = vel.stage_coupling(mode, params, x.shape[1])
    return vel.stage_forward(x, tau, probes, params, acts, mode, scale, coupling,
                             vel.stage_workspace(params, len(x)))


def lean_vjp(x, tau, probes, params, acts, mode, scale, v_bar, div_bar):
    d = x.shape[1]
    coupling = vel.stage_coupling(mode, params, d)
    grads = [np.zeros_like(p) for p in params]
    x_bar = vel.stage_vjp(x, tau, probes, params, acts, mode, scale, v_bar, div_bar, grads,
                          coupling, vel.stage_workspace(params, len(x)))
    return x_bar, grads
