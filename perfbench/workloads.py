"""The benchmark's workloads: generated inputs, one pass, and oracle checks.

Four parts (``JkoTrain``, ``TransportFit``, ``TwoSampleEval`` and
``FlowInference``) make up the two workloads of ``make``. Each part writes
its inputs (INI configs, and for ``FlowInference`` a ``.wflw`` checkpoint)
from the seed in ``setup``, then ``run_pass`` drives
the ``wflow`` CLI and the public library calls a researcher would make on
them. Every pass uses the same inputs, so passes after the first also check
that a same-seed rerun gives byte-identical ``report.json`` and ``loss.csv``.

Each program call is one operation in the ``Ledger``; it fails on an
uncaught exception, a nonzero exit, a missing artifact or a check out of
tolerance. Oracle tolerances hold for the ``full`` sizes; the ``tiny``
sizes of the smoke test only check exits, artifacts and reruns.
"""

from __future__ import annotations

import json
import os
import re
import time

import numpy as np

from wflow import chain as flowchain
from wflow import cli
from wflow import datasets as ds
from wflow import metrics

# The CLI writes loss values with repr(), which reads np.float64(5.71...)
# under numpy >= 2 instead of a plain float (a known defect of the CLI).
_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def parse_float(text: str) -> tuple[float, bool]:
    """(value, True when the cell used the np.float64(...) form)."""
    match = _NP_FLOAT.match(text)
    return (float(match.group(1)), True) if match else (float(text), False)


class Op:
    """One attempted program operation and the checks made on its outputs."""

    def __init__(self, ledger, name):
        self.ledger, self.name = ledger, name
        self.errors: list[str] = []
        self.seconds = 0.0

    def check(self, ok, message) -> bool:
        if not ok:
            self.errors.append(message)
        return bool(ok)

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self._t0
        if exc_type is not None and issubclass(exc_type, Exception):
            self.errors.append(f"uncaught {exc_type.__name__}: {exc}")
        self.ledger.close(self)
        return exc_type is not None and issubclass(exc_type, Exception)


class Ledger:
    """Attempted and failed operations, step latencies and oracle values of a run."""

    def __init__(self, strict: bool):
        self.strict = strict        # enforce the oracle tolerances (full sizes)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.steps_ms: list[float] = []
        self.oracles: dict[str, list[float]] = {}
        self.tolerances: dict[str, float] = {}
        self.np_float_cells = 0
        self.points_s: list[float] = []    # seconds of each pass's flow-inference part
        self.reference: dict[str, bytes] = {}

    def op(self, name) -> Op:
        return Op(self, name)

    def close(self, op: Op):
        self.attempted += 1
        if op.errors:
            self.failed += 1
            self.failures.append(f"{op.name}: {'; '.join(op.errors)}")

    def oracle(self, op: Op, name, value, tolerance):
        """Record an oracle value; out of tolerance fails the op (full sizes only)."""
        self.oracles.setdefault(name, []).append(float(value))
        self.tolerances[name] = tolerance
        if self.strict:
            op.check(np.isfinite(value) and value <= tolerance,
                     f"{name} = {value:.6g} exceeds its tolerance {tolerance:g}")

    def cli_task(self, op: Op, task, config, out, artifacts) -> dict | None:
        """Run one CLI task in-process; returns report.json when it succeeded."""
        code = cli.main([task, "--config", config, "--out", out])
        if not op.check(code == 0, f"exit code {code}"):
            return None
        missing = [a for a in artifacts if not os.path.exists(os.path.join(out, a))]
        if not op.check(not missing, f"missing artifacts {missing}"):
            return None
        for name in ("report.json", "loss.csv"):
            path = os.path.join(out, name)
            if os.path.exists(path):
                self.same_as_first_pass(op, path)
        with open(os.path.join(out, "report.json"), encoding="ascii") as fh:
            return json.load(fh)

    def same_as_first_pass(self, op: Op, path):
        with open(path, "rb") as fh:
            blob = fh.read()
        first = self.reference.setdefault(path, blob)
        op.check(blob == first, f"{os.path.basename(path)} differs from the first "
                                "same-seed pass")

    def training_steps(self, op: Op, out, segments):
        """Per-iteration ms from timing.csv; wall_ms is cumulative per training call."""
        with open(os.path.join(out, "timing.csv"), encoding="ascii") as fh:
            rows = [line.strip().split(",") for line in fh.read().splitlines()[1:]]
        if not op.check(len(rows) == sum(segments),
                        f"timing.csv has {len(rows)} rows, expected {sum(segments)}"):
            return
        start = 0
        for length in segments:
            previous = 0.0
            for row in rows[start:start + length]:
                _, np_form = parse_float(row[1])
                self.np_float_cells += np_form
                wall = float(row[2])
                self.steps_ms.append(wall - previous)
                previous = wall
            start += length


def _write_ini(path, sections: dict):
    with open(path, "w", encoding="ascii") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")
    return path


def _model(blocks, width, depth, steps):
    return {"blocks": blocks, "width": width, "depth": depth, "steps_per_block": steps}


# ---------------------------------------------------------------------------
# jko-train

class JkoTrain:
    """CLI train-jko moving N((3,0), I) onto N(0, I), block by block."""

    shift = (3.0, 0.0)
    sizes = {"full": dict(blocks=2, iterations=20, width=64, depth=2, steps=10, batch=192,
                          count=2048, holdout=256),
             "tiny": dict(blocks=2, iterations=3, width=8, depth=1, steps=2, batch=32,
                          count=128, holdout=32)}
    kl_tolerance = 0.5     # final moment-fit KL to N(0, I); the optimum is 0

    def setup(self, work, seed, size):
        s = self.sizes[size]
        self.s, self.out = s, os.path.join(work, "jko")
        self.config = _write_ini(os.path.join(work, "jko.ini"), {
            "experiment": {"task": "train-jko", "seed": seed},
            "dataset": {"source": "standard-gaussian", "shift": "3,0",
                        "count": s["count"], "holdout": s["holdout"]},
            "model": _model(s["blocks"], s["width"], s["depth"], s["steps"]),
            "train": {"learn_rate": 0.012, "batch_size": s["batch"],
                      "iterations": s["iterations"], "gamma": 1.0},
            "metrics": {"names": "nll, kl_moment, gauss_fid"},
        })

    def run_pass(self, ledger: Ledger, seed):
        with ledger.op("train-jko") as op:
            report = ledger.cli_task(op, "train-jko", self.config, self.out,
                                     ("chain.wflw", "loss.csv", "timing.csv", "samples.csv",
                                      "report.json"))
            if report is None:
                return
            ledger.training_steps(op, self.out, [self.s["iterations"]] * self.s["blocks"])
            # closed form: KL(N(shift, I) || N(0, I)) = |shift|^2 / 2 before block 0
            kls = [0.5 * float(np.dot(self.shift, self.shift))]
            kls += [b["kl_moment"] for b in report["blocks"]]
            if ledger.strict:
                op.check(all(b < a for a, b in zip(kls, kls[1:])),
                         f"kl_moment does not fall block over block: {kls}")
            ledger.oracle(op, "kl_to_target", kls[-1], self.kl_tolerance)


# ---------------------------------------------------------------------------
# two-sample-eval

class TwoSampleEval:
    """CLI eval of N(shift, I) against N(0, I) plus the MMD permutation null."""

    shift = (1.5, 0.0)
    sizes = {"full": dict(count=2048, null_pairs=3, null_side=400, perms=200),
             "tiny": dict(count=64, null_pairs=2, null_side=24, perms=10)}
    w2_tolerance = 0.3       # |w2 - |shift||, 512 points per side
    kl_tolerance = 0.15      # |kl_mc - |shift|^2 / 2|, about 4.5 standard errors
    fid_tolerance = 0.4      # |gauss_fid - |shift|^2|
    null_tolerance = 0.01    # |mean of the null|; the U-statistic is unbiased

    def setup(self, work, seed, size):
        s = self.sizes[size]
        self.s, self.out = s, os.path.join(work, "eval")
        self.config = _write_ini(os.path.join(work, "eval.ini"), {
            "experiment": {"task": "eval", "seed": seed},
            "dataset": {"source": "standard-gaussian", "shift": "1.5,0",
                        "count": s["count"], "holdout": 16},
            "metrics": {"names": "kl_mc, gauss_fid, mmd, w2"},
        })
        rng = np.random.default_rng([seed, 11])
        n = s["null_side"]
        self.pairs = [(rng.standard_normal((n, 2)) + [0.3, 0.0], rng.standard_normal((n, 2)))
                      for _ in range(s["null_pairs"])]

    def run_pass(self, ledger: Ledger, seed):
        sq = float(np.dot(self.shift, self.shift))
        with ledger.op("eval") as op:
            report = ledger.cli_task(op, "eval", self.config, self.out, ("report.json",))
            if report is not None:
                values = {m["name"]: m["value"] for m in report["metrics"]}
                ledger.oracle(op, "w2_gap", abs(values["w2"] - np.sqrt(sq)), self.w2_tolerance)
                ledger.oracle(op, "kl_mc_gap", abs(values["kl_mc"] - sq / 2), self.kl_tolerance)
                ledger.oracle(op, "gauss_fid_gap", abs(values["gauss_fid"] - sq),
                              self.fid_tolerance)
        for j, (a, b) in enumerate(self.pairs):
            with ledger.op("mmd_permutation_null") as op:
                null = metrics.mmd_permutation_null(a, b, self.s["perms"],
                                                    rng=np.random.default_rng([seed, 12, j]))
                op.check(null.shape == (self.s["perms"],) and np.all(np.isfinite(null)),
                         "null is not a finite vector of one value per permutation")
                ledger.oracle(op, "null_mean_abs", abs(float(np.mean(null))),
                              self.null_tolerance)
            ledger.steps_ms.append(1e3 * op.seconds)


# ---------------------------------------------------------------------------
# flow-inference

class FlowInference:
    """CLI sample from a seeded 6-block checkpoint, then eager forward map and NLL."""

    sizes = {"full": dict(blocks=6, width=64, steps=10, count=2048, chunk=256),
             "tiny": dict(blocks=2, width=8, steps=2, count=64, chunk=32)}
    roundtrip_tolerance = 1e-5   # max |z - F(F^-1(z))| over all base draws

    def setup(self, work, seed, size):
        s = self.sizes[size]
        self.s, self.out = s, os.path.join(work, "sample")
        self.points = s["count"]   # sampled and density-evaluated per pass
        self.checkpoint = os.path.join(work, "flow.wflw")
        chn = flowchain.identity_chain(2, s["blocks"], widths=(s["width"], s["width"]),
                                       steps=s["steps"], seed=seed)
        rng = np.random.default_rng([seed, 21])
        for block in chn.blocks:
            last = block.field.layers[-1]   # zero at init: make the map non-trivial
            last.w[...] = rng.normal(scale=0.3, size=last.w.shape)
            last.b[...] = rng.normal(scale=0.1, size=last.b.shape)
        flowchain.save_checkpoint(chn, self.checkpoint)
        self.config = _write_ini(os.path.join(work, "sample.ini"), {
            "experiment": {"task": "sample", "seed": seed},
            "dataset": {"count": s["count"]},
            "model": {"checkpoint": self.checkpoint},
        })
        # the sample task draws its base points from the stream [seed, 1]
        self.base = np.random.default_rng([seed, 1]).standard_normal((s["count"], 2))

    def run_pass(self, ledger: Ledger, seed):
        t0 = time.perf_counter()
        self._infer(ledger)
        ledger.points_s.append(time.perf_counter() - t0)

    def _infer(self, ledger: Ledger):
        report = None
        with ledger.op("sample") as op:
            report = ledger.cli_task(op, "sample", self.config, self.out,
                                     ("samples.csv", "report.json"))
        if report is None:
            return
        with ledger.op("load_checkpoint+load_particles_csv") as op:
            chn = flowchain.load_checkpoint(self.checkpoint)
            x = ds.load_particles_csv(os.path.join(self.out, "samples.csv")).positions
            if not op.check(x.shape == self.base.shape, f"samples.csv holds {x.shape} points"):
                return
        worst = 0.0
        chunk = self.s["chunk"]
        for i in range(0, len(x), chunk):
            with ledger.op("forward_map+nll_eval") as op:
                z = flowchain.forward_map(chn, ds.ParticleEnsemble(x[i:i + chunk])).positions
                nll = metrics.nll_eval(chn, x[i:i + chunk])
                op.check(np.isfinite(nll), "non-finite nll")
                worst = max(worst, float(np.abs(z - self.base[i:i + chunk]).max()))
            ledger.steps_ms.append(1e3 * op.seconds)
        with ledger.op("roundtrip") as op:
            ledger.oracle(op, "roundtrip_err", worst, self.roundtrip_tolerance)


# ---------------------------------------------------------------------------
# transport-fit

class TransportFit:
    """CLI ot, dre and dro on Gaussian problems with closed-form answers."""

    ot_shift = (1.5, 0.0)
    dro_c, dro_gamma = (1.0, 0.5), 0.5
    # 40 ot iterations, as many as train-jko and dro have: the pass's median
    # step then falls in the middle of the train-jko iterations (see README.md)
    sizes = {"full": dict(width=64, steps=10, ot_iterations=40, ot_batch=128, count=1024,
                          bridges=3, grid=12, classifier_iterations=80, dro_iterations=40),
             "tiny": dict(width=8, steps=2, ot_iterations=3, ot_batch=32, count=96,
                          bridges=2, grid=5, classifier_iterations=5, dro_iterations=4)}
    # |transport_cost - |shift|^2|: 20 iterations reached a gap of 0.01-0.65 over
    # 26 seeds, 40 reach 0.01-0.34 over 13; 1.0 flags a fit that covers less
    # than about half the way
    ot_tolerance = 1.0
    dro_tolerance = 0.1       # |movement - gamma^2 |c|^2| for the linear risk
    dre_tolerance = 0.5       # telescopic mse as a share of the zero estimator's mse

    def setup(self, work, seed, size):
        s = self.s = self.sizes[size]
        self.work = work
        self.ot_config = _write_ini(os.path.join(work, "ot.ini"), {
            "experiment": {"task": "ot", "seed": seed},
            "dataset": {"source": "standard-gaussian", "shift": "1.5,0",
                        "count": s["count"], "holdout": 256},
            "model": _model(1, s["width"], 2, s["steps"]),
            "train": {"learn_rate": 0.02, "batch_size": s["ot_batch"],
                      "iterations": s["ot_iterations"]},
            "ot": {"penalty": 30.0},
        })
        self.dre_config = _write_ini(os.path.join(work, "dre.ini"), {
            "experiment": {"task": "dre", "seed": seed},
            "dataset": {"source": "standard-gaussian", "shift": "2,0", "count": s["count"],
                        "holdout": 16},
            "dre": {"bridges": s["bridges"], "bridge_kind": "ou", "grid": s["grid"],
                    "classifier_iterations": s["classifier_iterations"]},
        })
        self.dro_config = _write_ini(os.path.join(work, "dro.ini"), {
            "experiment": {"task": "dro", "seed": seed},
            "dataset": {"count": s["count"], "holdout": 16},
            "train": {"learn_rate": 0.02, "batch_size": 192,
                      "iterations": s["dro_iterations"]},
            "dro": {"risk": "linear", "risk_c": "1.0,0.5", "gamma": self.dro_gamma},
        })

    def run_pass(self, ledger: Ledger, seed):
        s = self.s
        out = os.path.join(self.work, "ot")
        with ledger.op("ot") as op:
            report = ledger.cli_task(op, "ot", self.ot_config, out,
                                     ("chain.wflw", "loss.csv", "timing.csv", "samples.csv",
                                      "report.json"))
            if report is not None:
                ledger.training_steps(op, out, [s["ot_iterations"]])
                ledger.oracle(op, "ot_cost_gap",
                              abs(report["transport_cost"] - float(np.dot(self.ot_shift,
                                                                          self.ot_shift))),
                              self.ot_tolerance)
        out = os.path.join(self.work, "dre")
        with ledger.op("dre") as op:
            report = ledger.cli_task(op, "dre", self.dre_config, out, ("dre.csv", "report.json"))
            if report is not None:
                ledger.same_as_first_pass(op, os.path.join(out, "dre.csv"))
                analytic = np.loadtxt(os.path.join(out, "dre.csv"), delimiter=",",
                                      skiprows=1, ndmin=2)[:, 2]
                ledger.oracle(op, "dre_mse_share",
                              report["mse_telescopic"] / float(np.mean(analytic ** 2)),
                              self.dre_tolerance)
        out = os.path.join(self.work, "dro")
        with ledger.op("dro") as op:
            report = ledger.cli_task(op, "dro", self.dro_config, out,
                                     ("loss.csv", "timing.csv", "samples.csv", "report.json"))
            if report is not None:
                ledger.training_steps(op, out, [s["dro_iterations"]])
                # linear risk c.x: the optimum moves every point by -gamma c
                want = self.dro_gamma ** 2 * float(np.dot(self.dro_c, self.dro_c))
                ledger.oracle(op, "dro_movement_gap", abs(report["movement"] - want),
                              self.dro_tolerance)


class Sequence:
    """Several parts, set up side by side and run one after another in each pass."""

    def __init__(self, *parts):
        self.parts = parts
        self.points = None

    def setup(self, work, seed, size):
        for part in self.parts:
            part.setup(work, seed, size)
        self.points = next((p.points for p in self.parts if hasattr(p, "points")), None)

    def run_pass(self, ledger: Ledger, seed):
        for part in self.parts:
            part.run_pass(ledger, seed)


def make(name):
    # two workloads, not four: a run of the tape path and one of the eager,
    # tape-free path, each long enough to average over the host's slow and
    # fast spells (see README.md)
    return {"jko-train": lambda: Sequence(JkoTrain(), TransportFit()),
            "two-sample-eval": lambda: Sequence(TwoSampleEval(), FlowInference())}[name]()
