"""wflow benchmark: run one workload and print its metrics, then one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload jko-train --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55
    python3 perfbench/run.py --smoke

Each workload runs in fresh child processes, one at a time (a closed loop
with one client), with BLAS pinned to one thread. ``--trace 0`` reports the
end-to-end metrics from untraced children; ``--trace 1`` reports per-layer
metrics from a traced child and the tracing overhead against an untraced
one. ``--smoke`` runs every workload at tiny sizes and checks that every
metric named in BENCHMARK.json is printed with its unit. See README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (benchmark-local, imports no wflow code)

WORKLOADS = ("jko-train", "two-sample-eval")
SETUP_REPEATS = 5          # set-up-only children, besides the measuring child's own set-up
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"

END_TO_END = {             # name -> unit
    "setup_s": "s",
    "task_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

STEP_MEANING = {
    "jko-train": "training iteration of train-jko, ot or dro (timing.csv)",
    "two-sample-eval": "mmd_permutation_null call (400 per side, 200 permutations) or"
                       " forward_map + nll_eval on one 256-point chunk",
}


def child_env(root):
    env = dict(os.environ)
    # pinned: the small shapes here slow down ~6x when BLAS threads contend
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(root, work, workload, seed, seconds, trace, size, tag, setup_only=False):
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--work", os.path.join(work, tag), "--result", result,
           "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    # the child's stdout goes to our stderr: stdout carries only the report
    proc = subprocess.run(cmd, env=child_env(root), cwd=root, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result):
        raise RuntimeError(f"{workload} child '{tag}' exited {proc.returncode}")
    with open(result, encoding="ascii") as fh:
        return json.load(fh)


def known_defect_probe(root, work):
    """train-cnf at d=10 with the nll metric: nll_eval passes no rng to Hutchinson."""
    cfg = os.path.join(work, "probe.ini")
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write("[experiment]\ntask = train-cnf\nseed = 1\n"
                 "[dataset]\ndim = 10\ncount = 64\nholdout = 32\n"
                 "[model]\nblocks = 1\nwidth = 8\ndepth = 1\nsteps_per_block = 2\n"
                 "[train]\nbatch_size = 16\niterations = 1\n"
                 "[metrics]\nnames = nll\n")
    proc = subprocess.run([sys.executable, "-m", "wflow.cli", "train-cnf", "--config", cfg,
                           "--out", os.path.join(work, "probe")],
                          env=child_env(root), cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    if proc.returncode == 0:
        status = "fixed"
    elif proc.returncode not in (2, 3) and "hutchinson divergence needs an rng" in last:
        status = "present"
    else:
        status = "changed"
    return {"status": status, "exit": proc.returncode, "last_stderr_line": last}


def split_passes(steps, counts):
    """The step latencies of a run, one list per pass."""
    out, start = [], 0
    for n in counts:
        out.append(steps[start:start + n])
        start += n
    return out


def p95(values):
    """95th percentile, interpolating between closest ranks as numpy's default."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def src_lines(root):
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def measure(root, workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (result line, report of everything else)."""
    work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
    results = os.path.join(root, ".perfbench_work", "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    try:
        if trace:
            plain = run_child(root, work, workload, seed, seconds / 2, 0, size, "untraced")
            main = run_child(root, work, workload, seed, seconds / 2, 1, size, "traced")
            task_s = statistics.median(main["pass_s"])
            untraced_s = statistics.median(plain["pass_s"])
            metrics = dict(main["per_layer"])
            metrics.update({"trace.task_s": task_s, "trace.untraced_task_s": untraced_s,
                            "trace.overhead_s": task_s - untraced_s})
            units = {name: tracing.metric_unit(name) for name in metrics}
            runs = [plain, main]
            shutil.move(os.path.join(work, "traced.spans.csv"),
                        os.path.join(results, f"{workload}-spans.csv"))
        else:
            setups = [run_child(root, work, workload, seed, seconds, 0, size, f"setup{i}",
                                setup_only=True)["setup_s"] for i in range(SETUP_REPEATS)]
            main = run_child(root, work, workload, seed, seconds, 0, size, "measure")
            setups.append(main["setup_s"])
            per_pass = [p for p in split_passes(main["steps_ms"], main["pass_steps"]) if p]
            metrics = {
                "setup_s": statistics.median(setups),
                "task_s": statistics.median(main["pass_s"]),
                # step quantiles pool the steps of one pass; the run reports
                # their median over passes, so a slow spell of the host that
                # covers a minority of the passes does not move them
                "step_ms_p50": statistics.median(statistics.median(p) for p in per_pass),
                "step_ms_p95": statistics.median(p95(p) for p in per_pass),
                "peak_rss_mb": main["peak_rss_mb"],
            }
            units = dict(END_TO_END)
            runs = [main]
        probe = known_defect_probe(root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "environment": main["environment"], "src_lines": src_lines(root),
        "passes": len(main["pass_s"]), "pass_s": main["pass_s"],
        "steps": len(main["steps_ms"]), "step": STEP_MEANING[workload],
        "steps_ms": main["steps_ms"], "pass_steps": main["pass_steps"],
        "setup_samples": None if trace else setups,
        "oracles": main["oracles"], "tolerances": main["tolerances"],
        "failures": [f for r in runs for f in r["failures"]],
        "peak_rss_mb_by_pass": main["peak_rss_mb_by_pass"],
        "np_float_cells": main["np_float_cells"], "known_defect_probe": probe,
        "points": main["points"], "points_s": main["points_s"], "spans": main.get("spans"),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": report["metrics"]}
    with open(os.path.join(results, f"{workload}-trace{trace}.json"), "w",
              encoding="ascii") as fh:
        json.dump({**report, "result": line}, fh, indent=2)
    return line, report


def describe(report, line):
    """Human-readable lines: every metric by name with its unit, checks, environment."""
    env = report["environment"]
    out = [f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
           f"  trace {report['trace']}  size {report['size']}",
           "environment " + "  ".join(f"{k}={v}" for k, v in env.items())
           + f"  src_lines={report['src_lines']}"]
    counts = {"setup_s": f"median of {len(report['setup_samples'] or [])} set-ups",
              "task_s": f"median of {report['passes']} passes",
              "step_ms_p50": f"median over {report['passes']} passes of {report['steps']} steps;"
                             f" step = {report['step']}",
              "step_ms_p95": f"median over {report['passes']} passes of {report['steps']} steps",
              "peak_rss_mb": "max RSS of the child through set-up and its first pass"}
    for name, m in line["metrics"].items():
        out.append(f"metric {name} = {m['value']:.6g} {m['unit']}"
                   + (f"  ({counts[name]})" if name in counts and not report["trace"] else ""))
    if report["points"] and not report["trace"]:
        rate = report["points"] / statistics.median(report["points_s"])
        out.append(f"metric points_per_s = {rate:.6g} 1/s  ({report['points']} points "
                   "sampled and density-evaluated per pass, over the median time of that"
                   f" part of {len(report['points_s'])} passes)")
    rate = line["failed"] / line["attempted"]
    out.append(f"metric error_rate = {rate:.6g} ({line['failed']} failed of "
               f"{line['attempted']} attempted operations)")
    for name, values in report["oracles"].items():
        out.append(f"oracle {name} = {statistics.median(values):.6g} (median of {len(values)},"
                   f" max {max(values):.6g}, tolerance {report['tolerances'][name]:g})")
    for failure in report["failures"]:
        out.append(f"FAILED {failure}")
    out.append(f"known defect: loss column cells written as np.float64(...): "
               f"{report['np_float_cells']}")
    probe = report["known_defect_probe"]
    out.append(f"known defect probe (train-cnf d=10, nll): {probe['status']}, exit "
               f"{probe['exit']}: {probe['last_stderr_line']}")
    return out


def smoke(root):
    """Every workload at tiny sizes, untraced and traced: names, units and checks."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    ok = True
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            line, report = measure(root, workload, 1, 1, trace, size="tiny")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            problems = [f"{k}: want unit {u}, got {got.get(k)}" for k, u in want.items()
                        if got.get(k) != u]
            problems += [f"{k}: not in BENCHMARK.json" for k in got if k not in want]
            problems += [f"{k}: not a number" for k, v in line["metrics"].items()
                         if not isinstance(v["value"], (int, float))]
            problems += [f"failed: {f}" for f in report["failures"]]
            ok = ok and not problems
            print(f"smoke {workload} trace {trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wflow", "cli.py")):
        print(f"no wflow sources under {root}/src: run from the repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        ap.error("--workload is required")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for workload in chosen:
        line, report = measure(root, workload, args.seed, args.seconds, args.trace)
        print("\n".join(describe(report, line)), flush=True)
        lines.append((workload, line))
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {"correct": all(l["correct"] for _, l in lines),
                 "attempted": sum(l["attempted"] for _, l in lines),
                 "failed": sum(l["failed"] for _, l in lines),
                 "metrics": {f"{w}.{k}": v for w, l in lines for k, v in l["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
