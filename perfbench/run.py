"""Job-stream benchmark for the ``wenzl`` command line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop with one client in its own fresh
process (``loop.py``), calling ``wenzl.cli.main(argv)`` in-process on a
seeded stream of jobs (``streams.py``) and checking every report
(``checks.py``).  Job times are stated in ``ref``, the time of a fixed
reference computation timed next to each job on the same core, so that the
metrics do not follow the speed of a shared host from minute to minute; the
text lines also give them in seconds.  With ``--trace 0`` the last line of
the output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-module metrics of a traced loop (``tracing.py``) and the tracing
overhead against an untraced loop on the same stream, each loop getting
half of ``--seconds``.  The lines before it give the run's context and every
metric by name with its unit.  ``--workload all`` runs every workload in
turn.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify", "gram", "cellrank")  # streams.WORKLOADS; streams needs wenzl
SETUP_SAMPLES = 5  # before the loop, and as many after it

END_TO_END = (("job_p50_ref", "ref"), ("job_tail_ref", "ref"), ("jobs_per_kref", "1/kref"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def measure_setup(samples: int) -> list[float]:
    """Seconds from launching a fresh interpreter to the end of
    ``import wenzl.cli``, read on the system-wide monotonic clock.  One
    launch before the samples compiles the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import wenzl.cli; import time; print(time.monotonic_ns())"
    out = []
    for i in range(samples + 1):
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            out.append((int(proc.stdout) - start) / 1e9)
    return out


def run_loop(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one closed loop in a fresh process and return its JSON result.
    The loop runs a fixed number of passes, so it takes longer than
    ``seconds`` when the program is slower; the timeout leaves room for
    that and still ends the run within three minutes."""
    cmd = [sys.executable, str(HERE / "loop.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=4 * seconds + 20)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} loop exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[int, float, int]:
    """The highest integer percentile (nearest rank) with at least ten
    samples beyond it: (percentile, value, samples beyond).  Below eleven
    samples no percentile qualifies and the median rank is used."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, xs[rank - 1], n - rank


def in_ref(jobs: list[dict]) -> list[float]:
    """Each job's time over the reference time measured right after it."""
    return [j["t"] / j["ref"] for j in jobs]


def failures(loop: dict) -> tuple[int, int]:
    """(failed jobs, failed jobs that are not the known false failure)."""
    bad = [j for j in loop["jobs"] if not j["ok"]]
    return len(bad), sum(not j["known"] for j in bad)


def context(loop: dict, **extra) -> dict:
    keys = ("workload", "seed", "trace", "passes", "argv_sha256", "python",
            "mpmath", "mpmath_backend", "nproc")
    return {**{k: loop[k] for k in keys}, **extra}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    setup = measure_setup(SETUP_SAMPLES)
    loop = run_loop(workload, seed, seconds, 0)
    setup += measure_setup(SETUP_SAMPLES)
    times = [j["t"] for j in loop["jobs"]]
    rel = in_ref(loop["jobs"])
    n = len(times)
    failed, unknown = failures(loop)
    pct, tail_value, beyond = tail(rel)
    values = {
        "job_p50_ref": statistics.median(rel),
        "job_tail_ref": tail_value,
        "jobs_per_kref": 1000 * n / sum(rel),
        "peak_rss_mb": loop["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    raw = {"job_p50_ref": statistics.median(times), "job_tail_ref": tail(times)[1],
           "jobs_per_kref": n / loop["elapsed"]}
    ctx = context(loop, jobs=n, failed=failed, failed_frac=failed / n,
                  unexpected_failures=unknown,
                  r3_k8_share=sum(j["r"] == 3 and j["k"] == 8 for j in loop["jobs"]) / n,
                  paramsets=len({j["paramset"] for j in loop["jobs"]}),
                  tail_percentile=pct, tail_beyond=beyond,
                  ref_s=statistics.median(j["ref"] for j in loop["jobs"]),
                  in_seconds=raw, setup_samples=[round(s, 6) for s in setup])
    if unknown:
        ctx["first_unexpected"] = next(j["detail"] for j in loop["jobs"]
                                       if not j["ok"] and not j["known"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary = {"correct": unknown == 0, "attempted": n, "failed": failed}
    return summary, metrics, ctx


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    plain = run_loop(workload, seed, seconds / 2, 0)
    traced = run_loop(workload, seed, seconds / 2, 1)
    layers = traced["layers"]
    jobs = len(traced["jobs"])
    values: dict = {}
    for name in tracing.SPAN_NAMES:
        values[f"{name}.self_s" if name == tracing.ROOT else f"{name}_s"] = (
            layers["self_s"][name] / jobs, "s/job")
    for name, count in layers["counts"].items():
        values[name] = (count / jobs, "B/job" if name == "cli.report_bytes" else "count/job")
    builds = layers["counts"]["hecke.basis_builds"]
    values["hecke.build_useful_frac"] = (
        layers["useful_builds"] / builds if builds else 1.0, "frac")
    # Both loops run the same passes of the same stream, so both medians
    # cover the same jobs.  Job times are in ref, as in the end-to-end metrics.
    p50_plain, p50_traced = (statistics.median(in_ref(loop["jobs"])) for loop in (plain, traced))
    values.update({
        "trace.jobs": (jobs, "count"),
        "trace.paramsets": (len({j["paramset"] for j in traced["jobs"]}), "count"),
        "trace.job_s": (layers["root_s"] / jobs, "s/job"),
        "trace.job_p50_ref": (p50_traced, "ref"),
        "trace.untraced_job_p50_ref": (p50_plain, "ref"),
        "trace.overhead_frac": (p50_traced / p50_plain - 1, "frac"),
    })
    self_sum = sum(layers["self_s"].values())
    accounted = math.isclose(self_sum, layers["root_s"], rel_tol=1e-9)
    failed = [failures(loop) for loop in (plain, traced)]
    unknown = sum(u for _, u in failed)
    ctx = context(traced, jobs=jobs, spans=layers["spans"], spans_file=layers["spans_file"],
                  self_times_account_for_job_time=accounted)
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    summary = {"correct": unknown == 0 and accounted,
               "attempted": len(plain["jobs"]) + jobs,
               "failed": sum(f for f, _ in failed)}
    return summary, metrics, ctx


def print_metrics(workload: str, metrics: dict, ctx: dict) -> None:
    print(json.dumps(ctx, sort_keys=True))
    for name, m in metrics.items():
        note = ""
        if name in ctx.get("in_seconds", {}):
            unit = "1/s" if m["unit"].startswith("1/") else "s"
            note = f"  ({ctx['in_seconds'][name]:.6g} {unit}"
            if name == "job_tail_ref":
                note += f"; p{ctx['tail_percentile']} of {ctx['jobs']} jobs, " \
                        f"{ctx['tail_beyond']} beyond"
            note += ")"
        print(f"{workload:9s} {name:28s} {m['value']:.6g} {m['unit']}{note}")
    if "failed_frac" in ctx:
        print(f"{workload:9s} {'failed_frac':28s} {ctx['failed_frac']:.6g} frac"
              f"  (share of r=3, k=8 jobs {ctx['r3_k8_share']:.6g})")
    if "ref_s" in ctx:
        print(f"{workload:9s} {'ref':28s} {ctx['ref_s']:.6g} s  (median reference time)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "wenzl" / "cli.py").is_file():
        print(f"no wenzl sources under {SRC}", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        summary, metrics, ctx = measure(w, args.seed, args.seconds)
        print_metrics(w, metrics, ctx)
        total["correct"] = total["correct"] and summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        prefix = f"{w}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
