"""Span tracing of wflow's public functions, installed from the benchmark.

The traced run wraps every function listed in ``LAYERS`` and records one
span (name, start, end, parent span, run id) per call. Spans stay in
memory and are written out once, after the run. A span's self time is its
duration minus the time its child spans cover; calls are strictly nested
in one thread, so the children's summed durations are that coverage.

Wrappers go where callers look names up: on the class for methods, and on
every ``wflow`` module that holds the function object, so a name imported
with ``from ... import`` is wrapped in the importing module too.
``uninstall`` puts every original back and ``leftovers`` proves it, so the
untraced runs execute the unmodified program.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from importlib import import_module

# module -> public functions; "Class.method" names a method
LAYERS = {
    "numcore": ("grad", "affine", "matmul", "mul", "add", "tanh", "square", "concat",
                "slice_", "tsum", "softplus"),
    "mlp": ("BoundLayers.forward",),
    "velocity": ("BoundVelocity.velocity_and_divergence", "BoundVelocity.velocity"),
    "odeint": ("integrate_augmented_tensor", "integrate_tensor", "integrate"),
    "chain": ("load_checkpoint", "save_checkpoint", "sample", "inverse_map", "forward_map",
              "log_density"),
    "objectives": ("train_block", "jko_block_loss", "push_particles", "Adam.step"),
    "transport": ("ot_train", "dro_train", "fit_logistic_ratio", "logistic_ratio_loss",
                  "telescopic_log_ratio"),
    "metrics": ("w2_exact", "mmd_rbf", "median_bandwidth", "mmd_permutation_null",
                "gauss_fid", "kl_mc", "nll_eval"),
    "_kernels": ("solve_assignment", "mmd2_permutations"),
    "datasets": ("save_particles_csv", "load_particles_csv"),
    "cli": ("run_experiment",),
}

FORWARD_PRIMITIVES = tuple(f"numcore.{name}" for name in LAYERS["numcore"] if name != "grad")

# entry points also get total (inclusive) time: the calls the benchmark makes
# itself, the training loops, and the reverse sweep
ENTRY_POINTS = ("cli.run_experiment", "chain.forward_map", "metrics.nll_eval",
                "metrics.mmd_permutation_null", "objectives.train_block",
                "transport.ot_train", "transport.dro_train",
                "transport.telescopic_log_ratio", "numcore.grad")

# computed work of the exact kernels, from their argument shapes
KERNEL_WORK = ("_kernels.solve_assignment.ops", "_kernels.solve_assignment.bytes",
               "_kernels.mmd2_permutations.ops", "_kernels.mmd2_permutations.bytes")


def metric_unit(name: str) -> str:
    if name.endswith(".calls") or name == "numcore.tape_nodes" or name.endswith(".ops"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "numcore.tape_mb":
        return "MB"
    return "B"


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-layer numbers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []        # (name id, start, end, parent index, run id)
        self.stack = [-1]
        self.run = "setup"
        self.patches: list = []      # (owner, attribute, original)
        self.tape: list = []         # (run id, nodes, bytes) per grad call
        self.work: list = []         # (run id, metric name, amount)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        hooks = {"numcore.grad": self._tape_hook,
                 "_kernels.solve_assignment": self._assignment_hook,
                 "_kernels.mmd2_permutations": self._permutation_hook}
        loaded = [m for name, m in sys.modules.items()
                  if name == "wflow" or name.startswith("wflow.")]
        for module, functions in LAYERS.items():
            mod = import_module(f"wflow.{module}")
            for fn in functions:
                full = f"{module}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, self._wrap(original, full, hooks.get(full)))
                    continue
                original = getattr(mod, fn)
                wrapper = self._wrap(original, full, hooks.get(full))
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Attributes that do not hold their original object after ``uninstall``."""
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, original in self.patches
               if owner.__dict__.get(attr) is not original]
        for name, mod in list(sys.modules.items()):
            if name == "wflow" or name.startswith("wflow."):
                for attr, value in vars(mod).items():
                    if getattr(value, "__perfbench_traced__", False):
                        bad.append(f"{name}.{attr}")
                    if isinstance(value, type):
                        bad += [f"{name}.{attr}.{a}" for a, v in vars(value).items()
                                if getattr(v, "__perfbench_traced__", False)]
        return sorted(set(bad))

    def _wrap(self, fn, full_name, hook=None):
        name_id = len(self.names)
        self.names.append(full_name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, tracer.run)

        traced.__perfbench_traced__ = True
        return traced

    # -- counters read at layer boundaries ----------------------------------

    def _tape_hook(self, args):
        tape = args[0]
        self.tape.append((self.run, len(tape.nodes),
                          sum(node.value.nbytes for node in tape.nodes)))

    def _assignment_hook(self, args):
        m = args[0].shape[0]
        # shortest augmenting paths: at most m scans of an m-row per assigned row
        self.work.append((self.run, "_kernels.solve_assignment.ops", m ** 3))
        self.work.append((self.run, "_kernels.solve_assignment.bytes", 8 * m ** 3))

    def _permutation_hook(self, args):
        n, perms = args[0].shape[0], args[2].shape[0]
        # every permutation gathers the whole joint kernel matrix once
        self.work.append((self.run, "_kernels.mmd2_permutations.ops", perms * n * n))
        self.work.append((self.run, "_kernels.mmd2_permutations.bytes", 8 * perms * n * n))

    # -- results --------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,name,start_s,end_s,parent,run\n")
            for i, (nid, t0, t1, parent, run) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{t0:.7f},{t1:.7f},{parent},{run}\n")

    def per_layer(self, runs, pass_walls_s) -> dict:
        """Per-pass medians over ``runs`` of calls, self and total time per function."""
        covered = [0.0] * len(self.spans)
        for nid, t0, t1, parent, run in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        per_run = {run: {} for run in runs}
        for i, (nid, t0, t1, parent, run) in enumerate(self.spans):
            acc = per_run.get(run)
            if acc is None:
                continue
            name = self.names[nid]
            calls, self_s, total_s = acc.get(name, (0, 0.0, 0.0))
            acc[name] = (calls + 1, self_s + (t1 - t0) - covered[i], total_s + (t1 - t0))
        top_level = {run: 0.0 for run in runs}
        for nid, t0, t1, parent, run in self.spans:
            if parent < 0 and run in top_level:
                top_level[run] += t1 - t0

        def med(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                full = f"{module}.{fn}"
                rows = [per_run[r].get(full, (0, 0.0, 0.0)) for r in runs]
                out[f"{full}.calls"] = med([row[0] for row in rows])
                out[f"{full}.self_ms"] = 1e3 * med([row[1] for row in rows])
                if full in ENTRY_POINTS:
                    out[f"{full}.total_ms"] = 1e3 * med([row[2] for row in rows])
        tape = [(nodes, size) for run, nodes, size in self.tape if run in per_run]
        out["numcore.tape_nodes"] = med([nodes for nodes, _ in tape])
        out["numcore.tape_mb"] = med([size / 1e6 for _, size in tape])
        for name in KERNEL_WORK:
            out[name] = med([sum(v for r, n, v in self.work if r == run and n == name)
                             for run in runs])
        for module, functions in LAYERS.items():
            out[f"{module}.self_ms"] = 1e3 * med(
                [sum(per_run[r].get(f"{module}.{fn}", (0, 0.0, 0.0))[1] for fn in functions)
                 for r in runs])
        out["numcore.forward_primitives.self_ms"] = 1e3 * med(
            [sum(per_run[r].get(name, (0, 0.0, 0.0))[1] for name in FORWARD_PRIMITIVES)
             for r in runs])
        # pass wall time outside every wrapped call: the benchmark's own code,
        # unwrapped program functions, and the gaps between top-level spans
        out["untraced_code.self_ms"] = 1e3 * med(
            [max(0.0, wall - top_level[r]) for r, wall in zip(runs, pass_walls_s)])
        # a metric name starts with a letter or a digit: _kernels reports as kernels
        return {name.lstrip("_"): value for name, value in out.items()}
