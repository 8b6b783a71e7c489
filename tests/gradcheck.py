"""Finite-difference gradient checks and tape replay, the tests' gradient oracles.

``check_gradient_fd`` and ``check_loss_gradient_fd`` compare a reverse-mode
gradient with central differences; ``record_forward`` and ``replay`` record a
program onto a frozen tape and re-execute it through the primitive registry.
"""

from dataclasses import dataclass

import numpy as np

from wflow import numcore as nc


def record_forward(program, inputs):
    """Run ``program`` on watched copies of ``inputs``, recording every primitive.

    Returns ``(outputs, tape)`` where outputs equal eager evaluation of the
    program and the frozen tape replays to bit-identical outputs.
    """
    tape = nc.Tape()
    with tape:
        watched = [tape.watch(nc.as_tensor(x)) for x in inputs]
        outs = program(*watched)
    if isinstance(outs, nc.Tensor):
        outs = (outs,)
    for out in outs:
        tape.mark_output(out)
    tape.freeze()
    return list(outs), tape


def replay(tape, param_values=None):
    """Re-execute the recorded program, optionally with new parameter values.

    Returns the output values. With identical inputs the replay is
    bit-identical to the original run: same ops, same order, same dtypes.
    """
    values = [None] * len(tape.nodes)
    new = dict(zip(tape.param_slots, param_values)) if param_values else {}
    for i, node in enumerate(tape.nodes):
        if node.op in ("param", "const"):
            values[i] = nc._as_c_array(new.get(i, node.value))
        else:
            args = [values[j] for j in node.inputs]
            values[i] = nc._FORWARD[node.op](args, node.meta)
    return [values[i] for i in tape.outputs]


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    worst_param: int
    worst_coord: int
    rel_tol: float

    def __str__(self):
        state = "pass" if self.passed else "FAIL"
        return (
            f"gradcheck {state}: max rel err {self.max_rel_err:.3e} "
            f"(param {self.worst_param}, coord {self.worst_coord}, tol {self.rel_tol:.1e})"
        )


def check_gradient_fd(loss, params, rel_tol=1e-4) -> GradCheckReport:
    """Compare the tape gradient of a scalar loss against central differences.

    ``loss`` maps a list of Tensors to a scalar Tensor and must be evaluable
    at perturbed parameters. Central step is h = 1e-5 * (1 + |p|) per
    coordinate. Relative error uses a small floor so exactly-zero analytic
    and FD gradients agree instead of dividing by zero.
    """
    params = [nc.as_tensor(p) for p in params]
    _, analytic = nc.value_and_grad(
        lambda tape: loss(*[tape.watch(nc.Tensor(p.data.copy())) for p in params]))

    work = [p.data.copy() for p in params]

    def eval_loss():
        value = loss(*[nc.Tensor(w) for w in work])
        if not np.isfinite(value.data):
            raise nc.NumericError("non-finite loss at perturbed point")
        return float(value.data)

    max_err, worst = 0.0, (0, 0)
    for pi, p in enumerate(work):
        flat = p.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            h = 1e-5 * (1.0 + abs(orig))
            flat[ci] = orig + h
            up = eval_loss()
            flat[ci] = orig - h
            down = eval_loss()
            flat[ci] = orig
            fd = (up - down) / (2.0 * h)
            a = analytic[pi].reshape(-1)[ci]
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-2)
            if err > max_err:
                max_err, worst = err, (pi, ci)
    return GradCheckReport(max_err <= rel_tol, max_err, worst[0], worst[1], rel_tol)


def check_loss_gradient_fd(loss_fn, params, rel_tol=1e-4) -> GradCheckReport:
    """FD-check a loss that reports its own gradients.

    ``loss_fn() -> (value, grads)`` reads the current contents of the
    ``params`` arrays (e.g. a model's live parameter arrays), which are
    perturbed in place, coordinate by coordinate, with the same central
    scheme as check_gradient_fd.
    """
    value, analytic = loss_fn()
    if not np.isfinite(value):
        raise nc.NumericError("non-finite loss at the base point")
    max_err, worst = 0.0, (0, 0)
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            h = 1e-5 * (1.0 + abs(orig))
            flat[ci] = orig + h
            up, _ = loss_fn()
            flat[ci] = orig - h
            down, _ = loss_fn()
            flat[ci] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise nc.NumericError("non-finite loss at perturbed point")
            fd = (up - down) / (2.0 * h)
            a = analytic[pi].reshape(-1)[ci]
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-2)
            if err > max_err:
                max_err, worst = err, (pi, ci)
    return GradCheckReport(max_err <= rel_tol, max_err, worst[0], worst[1], rel_tol)
