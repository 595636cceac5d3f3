"""Exact linear algebra over Q on sparse rows.

A matrix is a list of rows, and each row is a dict ``{column: value}`` of
its nonzero entries; a vector is one such row.  No operation stores a
zero, so the form is canonical and ``==`` is matrix equality.  The column
count is not stored: an operation reads only the entries that are there.
A sum of products is formed in an accumulator: rows that keep the entries
that cancel, as zeros, into which ``mat_mul_add`` adds f·a·b in place, so
no matrix is formed between the terms; the caller drops those zeros where
it needs a matrix of this format.

``rank``, ``det`` and ``inverse`` share one elimination (``_eliminate``),
fraction-free over Z: it works on int copies of the input rows, each row
cleared of its denominators once, and never forms a ``Fraction``.  Columns
are eliminated left to right.  The pivot of a column is, among the rows not
yet used as pivots that hold it, the one with the fewest nonzeros; the
lowest row index breaks ties, so every run takes the same pivots.  Only
rows that hold the column are updated, only at the pivot row's nonzeros,
and entries that cancel are dropped, so the work follows the nonzeros
rather than the matrix size.  ``rank`` and ``det`` clear each column from
the rows not yet pivoted; ``inverse`` clears it from every other row
(Gauss-Jordan) and returns int rows over one denominator, so it forms no
``Fraction`` either: ``det`` alone makes one, its result.
"""

from __future__ import annotations

import math
from fractions import Fraction


def zeros(m: int) -> list[dict]:
    return [{} for _ in range(m)]


def identity(n: int) -> list[dict]:
    return [{i: 1} for i in range(n)]


def mat_mul(a, b):
    out = []
    for ai in a:
        if len(ai) == 1:
            # a multiple of one row of b: products of nonzeros, no cancelling
            ((t, c),) = ai.items()
            out.append({j: c * y for j, y in b[t].items()})
            continue
        oi: dict = {}
        for t, c in ai.items():
            for j, y in b[t].items():
                x = oi.get(j)
                oi[j] = c * y if x is None else x + c * y
        out.append({j: x for j, x in oi.items() if x})
    return out


def mat_mul_add(acc, a, b, f) -> None:
    """acc += f a b, in place.  acc is an accumulator, not a matrix of this
    format: an entry that cancels stays in it, as a 0."""
    for oi, ai in zip(acc, a):
        for t, c in ai.items():
            c *= f
            for j, y in b[t].items():
                oi[j] = oi.get(j, 0) + c * y


def _eliminate(rows, augmented=None):
    """Eliminate in place on rows, fraction-free over Z.

    Each row is first replaced by its int multiple over the lcm of its
    denominators (its scale; 1 for an int row), so every stored value is an
    int.  A row that holds the pivot column is updated as a·row − b·(pivot
    row), where v is the pivot value, f the row's value, g = gcd(v, f),
    a = v/g > 0 and b = f/g; the row is then divided by the gcd of its
    entries.  Each stored row is therefore a positive rational multiple of
    the same row in elimination over Q, which scales each pivot row to 1:
    it has the same zero pattern, so every pivot choice is the same.  The
    multiple of row i is num[i] / den[i]: its scale times each a, over each
    gcd divided out.

    The column is cleared from the rows not yet pivoted, which is all
    ``rank`` and ``det`` need.  With ``augmented`` = n, the columns from n
    on hold an appended identity: only the columns below n are pivoted, and
    each is cleared from every other row (Gauss-Jordan), so each pivot row
    ends up holding no other pivot column and, from n on, its row of the
    inverse times its final pivot value.  Only the columns below ``bound``,
    which can be pivots, keep the set of rows that hold them.  Returns
    (pivots, num, den): the pivots as (column, row), in column order, and
    each row's multiple, from which ``det`` reads each pivot over Q.
    """
    num, den = [], [1] * len(rows)
    jordan = augmented is not None
    bound = augmented if jordan else math.inf
    holders: dict = {}
    for i, row in enumerate(rows):
        scale = math.lcm(*(x.denominator for x in row.values()))
        rows[i] = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        num.append(scale)
        for j in row:
            if j < bound:
                holders.setdefault(j, set()).add(i)
    # a row gains entries only at columns of a pivot row, which are already
    # held, so the pivot columns are known up front
    used = set()
    pivots = []
    for c in sorted(holders):
        if len(used) == len(rows):
            break
        p = None
        for i in holders[c]:
            if i not in used:
                size = len(rows[i])
                if p is None or size < least or size == least and i < p:
                    p, least = i, size
        if p is None:
            continue
        prow = rows[p]
        v = prow[c]
        pivots.append((c, p))
        used.add(p)
        done = (p,) if jordan else used
        for i in list(holders[c]):
            if i in done:
                continue
            row = rows[i]
            f = row[c]
            g = math.gcd(v, f)
            a, b = v // g, f // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                rows[i] = row = {j: a * x for j, x in row.items()}
                num[i] *= a
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -b * y
                    if j < bound:
                        holders[j].add(i)
                else:
                    x -= b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        if j < bound:
                            holders[j].discard(i)
            g = math.gcd(*row.values())
            if g > 1:
                rows[i] = {j: x // g for j, x in row.items()}
                den[i] *= g
    return pivots, num, den


def _sign(perm) -> int:
    """The sign of a permutation given as the list of its images."""
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        i, length = start, 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def rank(a) -> int:
    return len(_eliminate(list(a))[0])


def _require_square(a, what: str):
    n = len(a)
    if any(j >= n for row in a for j in row):
        raise ValueError(f"{what} needs a square matrix")


def det(a) -> Fraction:
    _require_square(a, "determinant")
    rows = list(a)
    pivots, num, den = _eliminate(rows)
    if len(pivots) < len(a):
        return Fraction(0)
    # the pivot of column c sits in row perm[c], and clearing does not change
    # the determinant: it is the sign of perm times the pivot values over Q,
    # each the stored pivot times the row's den over its num
    top, bottom = _sign([p for _, p in pivots]), 1
    for c, p in pivots:
        top *= rows[p][c] * den[p]
        bottom *= num[p]
    return Fraction(top, bottom)


def inverse(a) -> tuple[int, list[dict]]:
    """(D, rows): the inverse of the square matrix a as int rows over one
    positive denominator D, in lowest terms, gcd(D, every entry) = 1;
    (1, []) for the empty matrix.  Raises ValueError if a is singular."""
    _require_square(a, "inverse")
    n = len(a)
    # the appended 1 becomes the row's scale when the row is cleared to ints
    rows = [{**row, n + i: 1} for i, row in enumerate(a)]
    pivots, _, _ = _eliminate(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    # the pivot row of column c holds its pivot w at c and, from n on, w
    # times row c of the inverse.  It holds an entry of the identity, so it
    # starts with gcd 1 and keeps it through each update: over the lcm D of
    # every |w|, the rows are in lowest terms
    ws = [rows[p][c] for c, p in pivots]
    D = math.lcm(*ws)
    return D, [{j - n: x * (D // w) for j, x in rows[p].items() if j >= n}
               for (_, p), w in zip(pivots, ws)]
