"""Exact linear algebra over Fraction.

Matrices are lists of row lists, and products and sums stay dense.
``rank``, ``det``, ``inverse`` and ``solve`` take and return the same dense
lists, but share one sparse elimination (``_eliminate``) that holds each row
as a dict ``{column: Fraction}`` of its nonzero entries.  Columns are
eliminated left to right.  The pivot of a column is, among the rows not yet
used as pivots that hold it, the one with the fewest nonzeros; the lowest
row index breaks ties, so every run takes the same pivots.  Only rows that
hold the column are updated, only at the pivot row's nonzeros, and entries
that cancel are dropped, so the work follows the nonzeros rather than the
matrix size.  ``rank`` and ``det`` clear each column from the rows not yet
pivoted; ``inverse`` and ``solve`` clear it from every other row
(Gauss-Jordan).
"""

from __future__ import annotations

from fractions import Fraction


def zeros(m: int, n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> list[list[Fraction]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Fraction(c)
    return [[x * c for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def _sparse(a, extra=()):
    """The nonzero entries of each row of a, as dicts; row i also gets the
    entries extra[i]."""
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in a]
    for row, more in zip(rows, extra):
        row.update(more)
    return rows


def _eliminate(rows, ncols, jordan=False):
    """Eliminate in place on dict rows, pivoting on the columns below ncols.

    Each pivot row is scaled to 1 at its column, and that column is cleared
    from the rows not yet pivoted, which is all ``rank`` and ``det`` need;
    with ``jordan`` it is cleared from every other row (Gauss-Jordan), so
    each pivot row ends up holding no other pivot column.  Returns the pivots
    as (column, row, value before scaling), in column order.
    """
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    used = set()
    pivots = []
    for c in range(ncols):
        if len(used) == len(rows):
            break
        cands = [i for i in holders.get(c, ()) if i not in used]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        value = prow[c]
        if value != 1:
            inv = 1 / value
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
                    holders.setdefault(j, set()).add(i)
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
    if not a:
        return 0
    return len(_eliminate(_sparse(a), len(a[0])))


def det(a) -> Fraction:
    n = len(a)
    assert all(len(row) == n for row in a), "determinant needs a square matrix"
    pivots = _eliminate(_sparse(a), n)
    if len(pivots) < n:
        return Fraction(0)
    # the pivot of column c sits in row perm[c], and clearing does not change
    # the determinant: it is the sign of perm times the pivot values
    out = Fraction(_sign([p for _, p, _ in pivots]))
    for _, _, value in pivots:
        out *= value
    return out


def inverse(a) -> list[list[Fraction]]:
    n = len(a)
    assert all(len(row) == n for row in a), "inverse needs a square matrix"
    rows = _sparse(a, ({n + i: Fraction(1)} for i in range(n)))
    pivots = _eliminate(rows, n, jordan=True)
    assert len(pivots) == n, "matrix is singular"
    out = zeros(n, n)
    for c, p, _ in pivots:
        for j, x in rows[p].items():
            if j >= n:
                out[c][j - n] = x
    return out


def solve(a, rhs) -> list[Fraction] | None:
    """One solution x of a x = rhs, or None when the system is inconsistent.
    Free variables are set to zero."""
    m = len(a)
    n = len(a[0]) if a else 0
    assert m == len(rhs)
    rows = _sparse(a, ({n: Fraction(v)} if v else {} for v in rhs))
    pivots = _eliminate(rows, n + 1, jordan=True)
    if any(c == n for c, _, _ in pivots):
        return None
    x = [Fraction(0)] * n
    for c, p, _ in pivots:
        x[c] = rows[p].get(n, Fraction(0))
    return x
