"""Exact linear algebra over Q on sparse rows.

A matrix is a list of rows, and each row is a dict ``{column: value}`` of
its nonzero entries; a vector is one such row.  No operation stores a
zero, so the form is canonical and ``==`` is matrix equality.  The column
count is not stored: an operation reads only the entries that are there.

``rank``, ``det`` and ``inverse`` share one elimination (``_eliminate``),
fraction-free over Z: it works on int copies of the input rows, each row
cleared of its denominators once, and never forms a ``Fraction`` inside
the loop.  Columns are eliminated left to right.  The pivot of a column
is, among the rows not yet used as pivots that hold it, the one with the
fewest nonzeros; the lowest row index breaks ties, so every run takes the
same pivots.  Only rows that hold the column are updated, only at the
pivot row's nonzeros, and entries that cancel are dropped, so the work
follows the nonzeros rather than the matrix size.  ``rank`` and ``det``
clear each column from the rows not yet pivoted; ``inverse`` clears it from
every other row (Gauss-Jordan) and divides by the pivots only at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction


def zeros(m: int) -> list[dict]:
    return [{} for _ in range(m)]


def identity(n: int) -> list[dict]:
    return [{i: 1} for i in range(n)]


def _merge_row(row: dict, entries) -> dict:
    out = dict(row)
    for j, y in entries:
        x = out.get(j)
        if x is None:
            out[j] = y
        else:
            x += y
            if x:
                out[j] = x
            else:
                del out[j]
    return out


def mat_add(a, b):
    return [_merge_row(ra, rb.items()) for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [_merge_row(ra, ((j, -y) for j, y in rb.items())) for ra, rb in zip(a, b)]


def mat_scale(a, c):
    """c times a; a itself when c is 1, since values are only read."""
    if c == 1:
        return a
    if not c:
        return zeros(len(a))
    return [{j: x * c for j, x in row.items()} for row in a]


def mat_mul(a, b):
    out = []
    for ai in a:
        if len(ai) == 1:
            # a scaled copy of one row of b: products of nonzeros, no cancelling
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


def max_abs(a):
    """The largest |entry|, of the entries' type; 0 for the zero matrix."""
    return max((abs(x) for row in a for x in row.values()), default=0)


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
    inverse times its final pivot value.  Returns (pivots, num, den): the
    pivots as (column, row), in column order, and each row's multiple.  No
    Fraction is formed: the pivot over Q, the stored pivot over its row's
    multiple, is read from these ints by ``det`` alone.
    """
    num = []
    den = []
    holders: dict = {}
    for i, row in enumerate(rows):
        scale = math.lcm(*(x.denominator for x in row.values()))
        rows[i] = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        num.append(scale)
        den.append(1)
        for j in row:
            holders.setdefault(j, set()).add(i)
    jordan = augmented is not None
    # a row gains entries only at columns of a pivot row, which are already
    # held, so the pivot columns are known up front
    columns = sorted(c for c in holders if not jordan or c < augmented)
    used = set()
    pivots = []
    for c in columns:
        if len(used) == len(rows):
            break
        cands = [i for i in holders[c] if i not in used]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        v = prow[c]
        pivots.append((c, p))
        used.add(p)
        for i in list(holders[c]) if jordan else cands:
            if i == p:
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
                    holders[j].add(i)
                else:
                    x -= b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
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


def inverse(a) -> list[dict]:
    _require_square(a, "inverse")
    n = len(a)
    # the appended 1 becomes the row's scale when the row is cleared to ints
    rows = [{**row, n + i: 1} for i, row in enumerate(a)]
    pivots, _, _ = _eliminate(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    out = zeros(n)
    for c, p in pivots:
        row = rows[p]
        w = row[c]
        out[c] = {j - n: Fraction(x, w) for j, x in row.items() if j >= n}
    return out
