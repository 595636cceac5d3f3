"""One workload's closed loop, run in a fresh process by ``run.py``.

One client sends the next job only after the previous one has finished,
from one process and one thread.  Each job is one in-process call of
``wenzl.cli.main(argv)`` writing its report under ``perfbench/out``; the
report is checked after the clock stops.  After each job the loop times a
fixed reference computation (``reference_s``), so that ``run.py`` can state
job times in units of it.  The loop runs the whole passes (see ``streams``)
that make up about ``--seconds``.  It then prints one JSON object with the per-job samples, the process's peak memory and, when
traced, the per-module totals.

    python3 perfbench/loop.py --workload verify --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402
from mpmath import libmp  # noqa: E402
from wenzl import cli  # noqa: E402

import checks  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402

OUT = HERE / "out"

# The reference computation: a product of 256-bit mpmath matrices and a sum
# of Fractions, the two kinds of arithmetic the program spends its time in.
# It uses its own mpmath context and no ``wenzl`` code, so no change to the
# program moves it, and it leaves the program's mpmath state alone.
REF_CTX = mpmath.MPContext()
REF_CTX.prec = 256
REF_MATRIX = REF_CTX.matrix([[REF_CTX.mpf(i * 7 + j + 1) / (i + 2 * j + 3) for j in range(8)]
                             for i in range(8)])
REF_FRACTIONS = [Fraction(i, 3 * i + 1) for i in range(1, 160)]
REF_REPS = 5


def reference_s() -> float:
    """Median of ``REF_REPS`` timings of the reference computation: how
    fast this core runs Python arithmetic right now.  The collector is off,
    so that garbage left by the job before does not land in it."""
    times = []
    gc.disable()
    try:
        for _ in range(REF_REPS):
            start = perf_counter()
            REF_MATRIX * REF_MATRIX * REF_MATRIX
            total = Fraction(0)
            for f in REF_FRACTIONS:
                total += f * f
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return sorted(times)[REF_REPS // 2]


def run_job(main, workload: str, job, report: Path) -> tuple[float, checks.Outcome]:
    """Time one CLI call, then check its report."""
    report.unlink(missing_ok=True)
    argv = [*job.argv, "--out", str(report)]
    error = None
    start = perf_counter()
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:
        rc, error = None, f"{type(e).__name__}: {e}"
    elapsed = perf_counter() - start
    if error is not None:
        return elapsed, checks.Outcome(False, False, error)
    try:
        with open(report) as fh:
            records = [json.loads(line) for line in fh]
    except (OSError, json.JSONDecodeError) as e:
        return elapsed, checks.Outcome(False, False, f"unreadable report: {e}")
    return elapsed, checks.check(workload, job, rc, records)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=streams.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    report = OUT / f"report-{os.getpid()}.jsonl"
    tracer = tracing.Tracer() if args.trace else None

    run_job(cli.main, args.workload, streams.warmup_job(args.workload), report)
    main_fn = cli.main
    if tracer is not None:
        tracer.install()
        main_fn = tracer.wrap(tracing.ROOT, cli.main)
    jobs, argv_hash, report_bytes = [], hashlib.sha256(), 0
    count = streams.pass_count(args.workload, args.seconds)
    stream = streams.passes(args.workload, args.seed)
    start = perf_counter()
    try:
        for pass_no, pass_jobs in zip(range(count), stream):
            for job in pass_jobs:
                if tracer is not None:
                    tracer.job = len(jobs)
                t, outcome = run_job(main_fn, args.workload, job, report)
                if report.exists():
                    report_bytes += report.stat().st_size
                argv_hash.update(json.dumps(job.argv).encode())
                jobs.append({"t": t, "ref": reference_s(), "ok": outcome.ok,
                             "known": outcome.known, "detail": outcome.detail, "pass": pass_no,
                             "r": job.r, "n": job.n, "k": job.k,
                             "delta": str(job.delta), "paramset": repr(job.paramset)})
        elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        report.unlink(missing_ok=True)

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": jobs, "passes": count, "elapsed": elapsed,
        "argv_sha256": argv_hash.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": libmp.BACKEND, "nproc": os.cpu_count(),
    }
    if tracer is not None:
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        tracer.counts["cli.report_bytes"] = report_bytes
        result["layers"] = {
            "self_s": tracer.self_times(),
            "root_s": tracer.root_time(),
            "counts": {name: tracer.counts[name] for name in tracing.COUNT_NAMES},
            "useful_builds": len(tracer.built),
            "spans": len(tracer.spans),
            "spans_file": str(spans_file.relative_to(HERE.parent)),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
