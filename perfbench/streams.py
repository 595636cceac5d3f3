"""Seeded job streams for the benchmark workloads.

A job is the argv of one ``wenzl`` command.  Its roots are
u = k * combinat.default_u(r, n) + delta, with the root scale k and the
offset delta drawn by the seed.  The seed also orders the jobs.

Jobs come in passes.  A pass is a seeded permutation of a fixed multiset of
sizes (r, n) (``PASSES``), so every pass of every seed asks for the same
mix of work; only the roots and the order change.  The loop runs whole
passes, the number of them fixed by ``--seconds`` (``pass_count``), so
every run of a workload does the same work whatever its seed and however
fast the host happens to be.

Each size draws (k, delta) from its own deck of all twenty pairs.  The deck
is dealt in blocks of four that hold each k once, so a size that appears a
multiple of four times in a pass gets every k equally often.  In ``verify``
that fixes the share of r = 3, k = 8 jobs, the known false failure, to the
same value in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from wenzl import combinat

KS = (1, 2, 4, 8)
DELTAS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-1, 4))

# Jobs of each size in one pass.  The weights put the median job and the
# tail percentile inside one size class rather than in the gap between two
# classes.  ``gram`` counts parameter sets: each one runs every shape.
PASSES = {
    "verify": {(2, 2): 4, (1, 3): 4, (3, 2): 4, (2, 3): 8, (1, 4): 4, (3, 3): 8},
    "gram": {(3, 2): 4, (1, 4): 4, (2, 3): 1},
    "cellrank": {(2, 2): 2, (1, 3): 2, (3, 2): 12, (4, 2): 1},
}
WORKLOADS = tuple(PASSES)

# Seconds one pass took, reference timing included, on a 2-core shared
# x86-64 VM with Python 3.11 and the pure-Python mpmath backend.
PASS_SECONDS = {"verify": 14.5, "gram": 14.0, "cellrank": 9.0}


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes nearest to ``seconds`` at the ``PASS_SECONDS`` pace."""
    return max(1, round(seconds / PASS_SECONDS[workload]))

# The warm-up job uses a root scale outside KS, so it never computes a
# parameter set that the measured stream asks for.
WARMUP_SIZE = {"verify": (2, 2), "gram": (3, 2), "cellrank": (2, 2)}
WARMUP_K = 3


@dataclass(frozen=True)
class Job:
    r: int
    n: int
    k: int
    delta: Fraction
    u: tuple[str, ...]
    argv: tuple[str, ...]

    @property
    def paramset(self) -> tuple:
        return (self.n, self.u)


def roots(r: int, n: int, k: int, delta: Fraction) -> tuple[str, ...]:
    """The roots as the CLI prints them: ``a`` or ``a/b``."""
    return tuple(str(k * x + delta) for x in combinat.default_u(r, n))


def shape_arg(shape) -> str:
    """A multipartition in the CLI's ``(2,1|-|1)`` notation."""
    return "(" + "|".join(",".join(map(str, p)) or "-" for p in shape) + ")"


def _jobs(workload: str, r: int, n: int, k: int, delta: Fraction,
          rng: random.Random | None) -> list[Job]:
    """The jobs of one drawn parameter set: one job, or for ``gram`` one job
    per shape, in seeded order."""
    u = roots(r, n, k, delta)
    arg_u = "--u=" + ",".join(u)
    if workload != "gram":
        return [Job(r, n, k, delta, u, (workload, f"--n={n}", arg_u))]
    shapes = list(combinat.multipartitions(r, n))
    if rng is not None:
        rng.shuffle(shapes)
    return [Job(r, n, k, delta, u, ("gram", "--shape=" + shape_arg(s), arg_u))
            for s in shapes]


def warmup_job(workload: str) -> Job:
    r, n = WARMUP_SIZE[workload]
    return _jobs(workload, r, n, WARMUP_K, Fraction(0), None)[0]


def _deck(rng: random.Random) -> list[tuple[int, Fraction]]:
    """All twenty (k, delta) pairs, in five blocks that each hold every k."""
    deltas = {k: rng.sample(DELTAS, len(DELTAS)) for k in KS}
    deck = []
    for i in range(len(DELTAS)):
        deck.extend((k, deltas[k][i]) for k in rng.sample(KS, len(KS)))
    return deck


def passes(workload: str, seed: int):
    """Endless passes of jobs for one workload, fixed by the seed.

    A parameter set repeats only after its size has used all twenty pairs.
    """
    rng = random.Random(f"{workload}:{seed}")
    decks: dict[tuple[int, int], list] = {}
    while True:
        sizes = [size for size, count in PASSES[workload].items() for _ in range(count)]
        rng.shuffle(sizes)
        jobs = []
        for r, n in sizes:
            deck = decks.setdefault((r, n), [])
            if not deck:
                deck.extend(reversed(_deck(rng)))
            k, delta = deck.pop()
            jobs.extend(_jobs(workload, r, n, k, delta, rng))
        yield jobs
