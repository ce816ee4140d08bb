#!/usr/bin/env python3
"""Run one benchmark workload of imfield and print its metrics.

From the repository root:

    python3 bench/run.py --workload line-recon --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs requests untraced, then the same requests traced, and reports the
per-layer metrics. Both print a metric table and end standard output with
one JSON line holding ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with the run environment and every request's
outcome (and the spans, when traced), goes to ``bench/out/``.

Exit status: 0 when every returned output passed its check, 1 when one did
not, 2 when the benchmark cannot run (no imfield sources under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# workloads.WORKLOADS by name; that module imports numpy, which must wait
# until the BLAS thread cap is set
WORKLOADS = ("line-recon", "ls-solve", "gkl-table")
# Set-up runs this many times per run; setup_s reports the median.
SETUP_REPEATS = 3
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """Cap BLAS threads at the cores this process may run on; return both."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in _BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < cap:
            cap = int(value)
    for var in _BLAS_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc, cap, args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": nproc, "blas_threads": cap,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "git_commit": git_commit(ROOT),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def timed(wl, call, i):
    """(index, latency, verdict) of request i; the check is not timed."""
    t0 = time.perf_counter()
    out = call(i)
    dt = time.perf_counter() - t0
    return i, dt, wl.check(i, out)


def closed_loop(wl, call, seconds):
    """Requests 0, 1, ... back to back until ``seconds`` of request time have
    passed and a cost cycle is complete, so every run gets the same mix; at
    least one cycle."""
    results = []
    busy = 0.0
    while busy < seconds or len(results) % wl.cycle or not results:
        results.append(timed(wl, call, len(results)))
        busy += results[-1][1]
    return results


def accuracy_digits(verdicts):
    """Median over returned answers of -log10 of the error checked."""
    digits = [-math.log10(max(v.error, 1e-16)) for v in verdicts
              if v.error is not None]
    return statistics.median(digits) if digits else 0.0


def end_to_end(results, setup_s):
    ok = [dt for _, dt, v in results if not v.failed]
    busy = sum(dt for _, dt, _ in results)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "op_p50_s": (statistics.median(ok) if ok else busy, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "accuracy_digits": (accuracy_digits([v for _, _, v in results]),
                            "digits"),
    }


def request_log(results, label):
    return [{"pass": label, "request": i, "latency_s": dt,
             "failed": v.failed, "wrong": v.wrong, "stage": v.stage,
             "error": v.error, "defect": v.defect}
            for i, dt, v in results]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    nproc, cap = cap_blas_threads()
    if not (ROOT / "src" / "imfield" / "__init__.py").is_file():
        print(f"imfield sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import imfield  # noqa: F401  (timed: import is part of set-up)
    import tracing
    from workloads import WORKLOADS as CLASSES
    import_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = CLASSES[args.workload](args.seed, work)
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        if args.trace == 0:
            results = closed_loop(wl, wl.run, args.seconds)
            metrics = end_to_end(results, setup_s)
            log = request_log(results, "untraced")
            spans = None
        else:
            plain = closed_loop(wl, wl.run, args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = [timed(wl, lambda i: tracer.run_request(i, wl.run, i),
                                i) for i, _, _ in plain]
            finally:
                tracer.restore()
            metrics = tracing.layer_metrics(
                tracer, sum(dt for _, dt, _ in plain))
            results = plain + traced
            log = request_log(plain, "untraced") + request_log(traced,
                                                               "traced")
            spans = tracing.spans_document(tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = [v for _, _, v in results]
    counted = traced if args.trace else results
    attempted = len(counted)
    failed = sum(v.failed for _, _, v in counted)
    correct = (not any(v.wrong for v in verdicts)
               and any(not v.failed for v in verdicts))
    stages = {}
    for _, _, v in counted:
        if v.failed:
            stages[v.stage] = stages.get(v.stage, 0) + 1
    worst = {"error": max((v.error for v in verdicts if v.error is not None),
                          default=None),
             "reciprocity_defect": max((v.defect for v in verdicts
                                        if v.defect is not None),
                                       default=None)}

    env = environment(nproc, cap, args)
    doc = {"environment": env, "setup_times_s": setup_times,
           "import_s": import_s, "correct": correct, "attempted": attempted,
           "failed": failed, "failed_stages": stages, "worst": worst,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()},
           "requests": log}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"failed {failed}/{attempted} by stage {stages}")
    print(f"worst checked error {worst['error']}, "
          f"worst reciprocity defect {worst['reciprocity_defect']}")
    for k, (v, u) in metrics.items():
        print(f"  {k:42s} {v:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": doc["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
