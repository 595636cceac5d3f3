"""Exact linear algebra over Q on sparse rows.

A matrix is a list of rows, and each row is a dict ``{column: value}`` of
its nonzero entries; a vector is one such row.  No operation stores a
zero, so the form is canonical and ``==`` is matrix equality.  The column
count is not stored: an operation reads only the entries that are there.

``rank``, ``det`` and ``inverse`` share one elimination (``_eliminate``) on
copies of the input rows.  Columns are eliminated left to right.  The pivot
of a column is, among the rows not yet used as pivots that hold it, the one
with the fewest nonzeros; the lowest row index breaks ties, so every run
takes the same pivots.  Only rows that hold the column are updated, only at
the pivot row's nonzeros, and entries that cancel are dropped, so the work
follows the nonzeros rather than the matrix size.  ``rank`` and ``det``
clear each column from the rows not yet pivoted; ``inverse`` clears it from
every other row (Gauss-Jordan).
"""

from __future__ import annotations

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
    """Eliminate in place on rows.

    Each pivot row is scaled to 1 at its column, and that column is cleared
    from the rows not yet pivoted, which is all ``rank`` and ``det`` need.
    With ``augmented`` = n, the columns from n on hold an appended identity:
    only the columns below n are pivoted, and each is cleared from every
    other row (Gauss-Jordan), so each pivot row ends up holding no other
    pivot column and, from n on, its row of the inverse.  Returns the pivots
    as (column, row, value before scaling), in column order.
    """
    holders: dict = {}
    for i, row in enumerate(rows):
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
        value = prow[c]
        if value != 1:
            # exact for int and Fraction values alike
            inv = Fraction(value.denominator, value.numerator)
            for j in prow:
                prow[j] *= inv
        used.add(p)
        for i in list(holders[c]) if jordan else cands:
            if i == p:
                continue
            row = rows[i]
            f = row[c]
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                    holders[j].add(i)
                else:
                    x -= f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(i)
        pivots.append((c, p, value))
    return pivots


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
    return len(_eliminate([dict(row) for row in a]))


def det(a) -> Fraction:
    n = len(a)
    assert all(j < n for row in a for j in row), "determinant needs a square matrix"
    pivots = _eliminate([dict(row) for row in a])
    if len(pivots) < n:
        return Fraction(0)
    # the pivot of column c sits in row perm[c], and clearing does not change
    # the determinant: it is the sign of perm times the pivot values
    out = Fraction(_sign([p for _, p, _ in pivots]))
    for _, _, value in pivots:
        out *= value
    return out


def inverse(a) -> list[dict]:
    n = len(a)
    assert all(j < n for row in a for j in row), "inverse needs a square matrix"
    rows = [{**row, n + i: Fraction(1)} for i, row in enumerate(a)]
    pivots = _eliminate(rows, n)
    assert len(pivots) == n, "matrix is singular"
    out = zeros(n)
    for c, p, _ in pivots:
        out[c] = {j - n: x for j, x in rows[p].items() if j >= n}
    return out
