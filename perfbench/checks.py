"""Checks on each job's JSON-lines report, made without the CLI's pass flags.

- verify: the dim^2 of the relation records sum to r^n (2n-1)!!, every
  residual is below 2^-(precision-40) * dim recomputed from the record, and
  the exact identities report no failure.
- cellrank: rank = count = r^n (2n-1)!!.
- gram: the Gram determinant string equals the gamma product string.

Every record must carry the job's roots, and the exit code must be 0 exactly
when the checks pass.

One failure is known and kept in the stream: at r = 3 with root scale
k = 8, ``verify`` exits 1 because the unwrapping residual exceeds the
absolute bound (for n = 3, u = (120, -72, 24): 2.4e-63 against 8.5e-65).
The relation holds; the bound does not scale with the size of the roots.
Such a job still counts as failed, but as a known failure it does not make
the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KNOWN_FAILURE = "verify at r=3, k=8: unwrapping residual above the absolute bound"


@dataclass(frozen=True)
class Outcome:
    ok: bool
    known: bool = False
    detail: str = ""


def brauer_dim(r: int, n: int) -> int:
    """r^n (2n-1)!!, the dimension of the cyclotomic algebra."""
    return r ** n * math.prod(range(2 * n - 1, 0, -2))


def _is_known_failure(job, rc, failing: set, dims_ok: bool, identities_ok: bool) -> bool:
    return (job.r == 3 and job.k == 8 and rc == 1 and failing == {"unwrapping"}
            and dims_ok and identities_ok)


def _verify(job, rc, records) -> Outcome:
    rel = [rec for rec in records if rec["kind"] == "relations"]
    ids = [rec for rec in records if rec["kind"] == "identities"]
    dims_ok = sum(rec["dim"] ** 2 for rec in rel) == brauer_dim(job.r, job.n)
    identities_ok = len(ids) == 1 and not ids[0]["failures"]
    failing = set()
    for rec in rel:
        tol = math.ldexp(rec["dim"], -(rec["ps"]["precision_bits"] - 40))
        failing.update(fam for fam, v in rec["residuals"].items() if not v < tol)
    if dims_ok and identities_ok and not failing:
        return _exit_code(rc, 0)
    if _is_known_failure(job, rc, failing, dims_ok, identities_ok):
        return Outcome(False, True, KNOWN_FAILURE)
    return Outcome(False, False, f"dims_ok={dims_ok} identities_ok={identities_ok} "
                                 f"failing={sorted(failing)} rc={rc}")


def _cellrank(job, rc, records) -> Outcome:
    summary = [rec for rec in records if rec["kind"] == "summary"]
    target = brauer_dim(job.r, job.n)
    if len(summary) == 1 and summary[0]["rank"] == summary[0]["count"] == target:
        return _exit_code(rc, 0)
    got = [(rec["rank"], rec["count"]) for rec in summary]
    return Outcome(False, False, f"rank, count = {got}, want {target}")


def _gram(job, rc, records) -> Outcome:
    gram = [rec for rec in records if rec["kind"] == "gram"]
    if len(gram) == 1 and gram[0]["gram_det"] == gram[0]["gamma_product"]:
        return _exit_code(rc, 0)
    got = [(rec["gram_det"], rec["gamma_product"]) for rec in gram]
    return Outcome(False, False, f"gram_det, gamma_product = {got}, rc={rc}")


def _exit_code(rc, want: int) -> Outcome:
    if rc == want:
        return Outcome(True)
    return Outcome(False, False, f"checks pass but exit code is {rc}")


CHECKS = {"verify": _verify, "cellrank": _cellrank, "gram": _gram}


def check(workload: str, job, rc, records: list[dict]) -> Outcome:
    """Judge one job from its exit code and parsed report records."""
    if not records:
        return Outcome(False, False, f"empty report, rc={rc}")
    try:
        if any(rec["ps"]["u"] != list(job.u) for rec in records):
            return Outcome(False, False, "report roots differ from the job's roots")
        return CHECKS[workload](job, rc, records)
    except (KeyError, TypeError) as e:
        return Outcome(False, False, f"malformed report: {type(e).__name__}: {e}")
