"""One workload in a fresh process: set up, then run passes until time is up.

Started by ``run.py`` with BLAS pinned in its environment; writes one JSON
result file and prints nothing on stdout. ``--setup-only`` stops after the
inputs are written, which is how ``run.py`` takes several set-up times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc):
    from importlib.metadata import PackageNotFoundError, version

    import numpy as np

    from wflow import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": nproc,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba_enabled": _kernels.NUMBA_ENABLED,
        "WFLOW_NUMBA": os.environ.get("WFLOW_NUMBA"),
        "WFLOW_MALLOC_TUNE": os.environ.get("WFLOW_MALLOC_TUNE"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # one core for the whole run: no migrations, and the same core every run
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})

    import wflow
    import workloads

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(wflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"wflow was imported from {wflow.__file__}, not from {src}")

    os.makedirs(args.work, exist_ok=True)
    workload = workloads.make(args.workload)
    workload.setup(args.work, args.seed, args.size)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w", encoding="ascii") as fh:
            json.dump(result, fh)
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ledger = workloads.Ledger(strict=args.size == "full")
    pass_s, pass_steps, rss_mb = [], [], []
    t_start = time.perf_counter()
    # at least two passes, so the same-seed rerun check always runs; after
    # that, start a pass only if one as long as the last still fits
    while len(pass_s) < 2 or time.perf_counter() - t_start + pass_s[-1] <= args.seconds:
        if tracer is not None:
            tracer.run = len(pass_s)
        t0 = time.perf_counter()
        workload.run_pass(ledger, args.seed)
        pass_s.append(time.perf_counter() - t0)
        pass_steps.append(len(ledger.steps_ms) - sum(pass_steps))
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if tracer is not None:
        tracer.uninstall()
        leftovers = tracer.leftovers()
        with ledger.op("restore-wrapped-attributes") as op:
            op.check(not leftovers, f"still wrapped after the traced run: {leftovers}")
        result["per_layer"] = tracer.per_layer(list(range(len(pass_s))), pass_s)
        tracer.write_spans(os.path.splitext(args.result)[0] + ".spans.csv")
        result["spans"] = len(tracer.spans)

    result.update({
        "pass_s": pass_s,
        "steps_ms": ledger.steps_ms,
        "pass_steps": pass_steps,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "oracles": ledger.oracles,
        "tolerances": ledger.tolerances,
        "np_float_cells": ledger.np_float_cells,
        "points": workload.points,
        "points_s": ledger.points_s,
        # later passes can raise the peak by tens of MB in some runs and not
        # in others (heap fragmentation), so the metric stops at the first pass
        "peak_rss_mb": rss_mb[0],
        "peak_rss_mb_by_pass": rss_mb,
        "environment": environment(len(allowed)),
    })
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
