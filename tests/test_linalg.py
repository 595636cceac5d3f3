import itertools
import math
import random
from fractions import Fraction

import pytest

from support import (
    cellular_family_vectors, fraction_eliminate, fraction_inverse, from_dense, seeded_u,
)
from wenzl import _linalg as la
from wenzl import combinat, hecke
from wenzl.params import ParamSet

F = Fraction


def _sparse_matrix(rng, m, n, density=0.4):
    """An m x n matrix of small fractions, each entry nonzero with the given
    probability."""
    return [[F(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < density else F(0)
             for _ in range(n)] for _ in range(m)]


def _cofactor_det(a):
    if not a:
        return F(1)
    return sum((-1) ** j * a[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def _eye(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _dense_mul(a, b, ncols):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), F(0)) for j in range(ncols)]
            for i in range(len(a))]


def _perm_matrix(perm):
    return [[F(int(perm[i] == j)) for j in range(len(perm))] for i in range(len(perm))]


def _perm_sign(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return (-1) ** inversions


def _seeded_squares():
    """Seeded sparse n x n matrices, n <= 5, invertible and singular: one in
    five has a repeated row or a zero row."""
    rng = random.Random(2005)
    for _ in range(150):
        n = rng.randint(1, 5)
        a = _sparse_matrix(rng, n, n, rng.choice((0.3, 0.5, 0.8)))
        if n > 1 and rng.random() < 0.2:
            # a repeated row or a zero row
            a[rng.randrange(1, n)] = list(a[0]) if rng.random() < 0.5 else [F(0)] * n
        yield a


def _seeded_products():
    """Seeded products B C with inner dimension k, and k: B is [I_k; R] and C
    is [I_k S] with shuffled rows and columns, so both have rank k; zero and
    repeated rows of B give zero and repeated rows of B C; k = 0 is the zero
    matrix."""
    rng = random.Random(1905)
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.randint(0, min(m, n))
        b = _eye(k) + _sparse_matrix(rng, m - k, k)
        for _ in range(rng.randint(0, 2)):
            b.append(list(rng.choice(b)) if rng.random() < 0.5 else [F(0)] * k)
        rng.shuffle(b)
        cols = list(range(n))
        rng.shuffle(cols)
        c = [row + extra for row, extra in zip(_eye(k), _sparse_matrix(rng, k, n - k))]
        c = [[row[j] for j in cols] for row in c]
        yield (_dense_mul(b, c, n) if k else [[F(0)] * n for _ in b]), k


def test_identity_and_zeros():
    assert la.identity(2) == [{0: 1}, {1: 1}] == from_dense(_eye(2))
    assert la.zeros(2) == [{}, {}] == from_dense([[0, 0, 0], [0, 0, 0]])
    assert la.max_abs(la.zeros(3)) == 0
    assert la.max_abs(from_dense([[F(1, 2), F(-7, 3)], [0, 2]])) == F(7, 3)


def test_mat_ops():
    a = from_dense([[F(1), F(2)], [F(3), F(4)]])
    b = from_dense([[F(0), F(1)], [F(1), F(0)]])
    assert la.mat_mul(a, b) == from_dense([[F(2), F(1)], [F(4), F(3)]])
    assert la.mat_add(a, la.mat_scale(a, -1)) == la.zeros(2)
    assert la.mat_sub(a, a) == la.zeros(2)
    assert la.mat_scale(a, 0) == la.zeros(2)


def test_mat_ops_match_dense_reference():
    # seeded sparse operands, rectangular and with zero rows; every result
    # equals the dense computation and stores no zero
    rng = random.Random(1906)
    for _ in range(200):
        m, k, n = rng.randint(0, 6), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.2, 0.5, 0.9))
        a, a2 = _sparse_matrix(rng, m, k, density), _sparse_matrix(rng, m, k, density)
        b = _sparse_matrix(rng, k, n, density)
        if m and rng.random() < 0.3:
            # entries that cancel in the sum and the difference
            a2[0] = [-x for x in a[0]]
            a2[-1] = list(a[-1])
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        A, A2, B = from_dense(a), from_dense(a2), from_dense(b)
        results = {
            "mul": (la.mat_mul(A, B), _dense_mul(a, b, n)),
            "add": (la.mat_add(A, A2), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, a2)]),
            "sub": (la.mat_sub(A, A2), [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, a2)]),
            "scale": (la.mat_scale(A, c), [[x * c for x in row] for row in a]),
        }
        for name, (got, want) in results.items():
            assert got == from_dense(want), (name, a, a2, b, c)
            assert all(x != 0 for row in got for x in row.values()), (name, got)
        assert la.mat_add(A, la.mat_scale(A, -1)) == la.zeros(m)
        assert la.max_abs(la.mat_sub(A, A2)) == max(
            (abs(x - y) for ra, rb in zip(a, a2) for x, y in zip(ra, rb)), default=0)
        # the operands are left as they were
        assert A == from_dense(a) and A2 == from_dense(a2)


def test_mat_mul_rows_with_one_entry_match_dense_reference():
    # a row of a with one entry is a scaled copy of one row of b; seeded
    # rows with no entry, one and several, of ints or of Fractions, and rows
    # with several entries whose products cancel to zero
    rng = random.Random(2030)
    for _ in range(300):
        m, k, n = rng.randint(1, 6), rng.randint(2, 6), rng.randint(1, 6)
        ints = rng.random() < 0.5

        def value():
            x = rng.choice((-3, -2, -1, 1, 2, 5, 9))
            return x if ints else F(x, rng.randint(1, 4))

        b = [[value() if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(k)]
        # b's row 1 is c times row 0, so a row c x at 0 and -x at 1 cancels
        c = value()
        b[1] = [c * y for y in b[0]]
        a = []
        for _ in range(m):
            row = [0] * k
            kind = rng.choice(("none", "one", "one", "several", "cancel"))
            if kind == "one":
                row[rng.randrange(k)] = value()
            elif kind == "several":
                for t in rng.sample(range(k), rng.randint(2, k)):
                    row[t] = value()
            elif kind == "cancel":
                x = value()
                row[0], row[1] = c * x, -x
            a.append(row)
        A = [{j: x for j, x in enumerate(row) if x} for row in a]
        B = [{j: y for j, y in enumerate(row) if y} for row in b]
        got = la.mat_mul(A, B)
        assert got == from_dense(_dense_mul(a, b, n)), (a, b)
        assert all(x != 0 for row in got for x in row.values()), got
        for row, out in zip(A, got):
            if len(row) == 1:
                ((t, x),) = row.items()
                assert out == {j: x * y for j, y in B[t].items()}
            if ints:
                assert all(type(v) is int for v in out.values())


def test_det_and_inverse():
    a = from_dense([[F(2), F(1)], [F(7), F(4)]])
    assert la.det(a) == 1
    inv = la.inverse(a)
    assert la.mat_mul(a, inv) == la.identity(2)
    assert a == from_dense([[F(2), F(1)], [F(7), F(4)]])
    assert la.det(from_dense([[F(1), F(2)], [F(2), F(4)]])) == 0
    # 3x3 with fractional entries
    m = from_dense([[F(1, 2), F(0), F(1)], [F(0), F(3), F(0)], [F(1), F(0), F(1)]])
    assert la.det(m) == F(-3, 2)
    assert la.mat_mul(m, la.inverse(m)) == la.identity(3)
    assert la.det([]) == 1 and la.inverse([]) == []
    # seeded sparse matrices, invertible and singular, against cofactor
    # expansion; the pivot order differs from the row order, so the sign of
    # the determinant comes from the pivot permutation
    invertible = singular = 0
    for a in _seeded_squares():
        n = len(a)
        rows = from_dense(a)
        d = la.det(rows)
        assert d == _cofactor_det(a), a
        if d:
            invertible += 1
            assert la.mat_mul(rows, la.inverse(rows)) == la.identity(n), a
            assert la.mat_mul(la.inverse(rows), rows) == la.identity(n), a
        else:
            singular += 1
    assert invertible > 30 and singular > 30
    # every permutation matrix of sizes up to 5, odd and even
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            p = _perm_matrix(perm)
            rows = from_dense(p)
            assert la.det(rows) == _perm_sign(perm) == _cofactor_det(p), perm
            assert la.mat_mul(rows, la.inverse(rows)) == la.identity(n)
    # a scaled permutation: det is the sign times the product of the scales
    p = _perm_matrix((2, 0, 3, 1))
    scaled = [[x * F(i + 2, 3) for x in row] for i, row in enumerate(p)]
    assert la.det(from_dense(scaled)) == -F(2 * 3 * 4 * 5, 3 ** 4)


def test_rank():
    def rank(a):
        return la.rank(from_dense(a))

    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert la.rank(la.identity(4)) == 4
    assert rank([[F(1), F(2), F(3)], [F(4), F(5), F(6)]]) == 2
    assert la.rank(la.zeros(2)) == 0
    assert la.rank([]) == 0 and rank([[]]) == 0
    # seeded products of known rank k, and their transposes
    for bc, k in _seeded_products():
        assert rank(bc) == k, bc
        assert rank([list(col) for col in zip(*bc)]) == k, bc


def test_checks_raise_without_asserts():
    # ValueError, not assert: under python -O a singular inverse would
    # otherwise come back with empty rows
    with pytest.raises(ValueError, match="matrix is singular"):
        la.inverse(from_dense([[F(1), F(2)], [F(2), F(4)]]))
    with pytest.raises(ValueError, match="matrix is singular"):
        la.inverse(la.zeros(3))
    wide = from_dense([[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    with pytest.raises(ValueError, match="inverse needs a square matrix"):
        la.inverse(wide)
    with pytest.raises(ValueError, match="determinant needs a square matrix"):
        la.det(wide)


def _big_matrices():
    """Seeded matrices of about 200-bit entries, sparse and dense, square and
    not: int entries, and Fraction entries with about 100-bit numerators and
    denominators; one in four has a zero row, a repeated row or a row that
    is a multiple of another."""
    rng = random.Random(2006)
    for t in range(120):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if t % 2:
            n = m
        density = rng.choice((0.3, 0.6, 1.0))
        if t % 3 == 2:
            def entry():
                return F(rng.getrandbits(100) - 2 ** 99, rng.getrandbits(100) + 1)
        else:
            def entry():
                return rng.getrandbits(200) - 2 ** 199
        a = [[entry() if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.25:
            i = rng.randrange(1, m)
            a[i] = rng.choice(([0] * n, list(a[0]), [x * rng.choice((-3, 5, F(2, 7))) for x in a[0]]))
        yield [{j: x for j, x in enumerate(row) if x} for row in a]


def _repeated_and_zero_rows():
    base = [{0: 3, 2: -5}, {1: 7, 3: 2}, {0: F(1, 2), 1: F(-4, 3), 3: 1}, {2: 9}]
    yield [{}, {}, {}]
    yield [dict(base[0]), {}, dict(base[0]), {}]
    yield [dict(base[0]), dict(base[1]), {j: -4 * x for j, x in base[0].items()}, dict(base[3])]
    yield [dict(base[2]), {j: F(5, 3) * x for j, x in base[2].items()}, dict(base[1]), {}]
    yield [dict(row) for row in base] + [dict(base[1]), {}]
    yield [dict(row) for row in base]


def _cellrank_vectors(r, n):
    """The whole cellular family as vectors (the reference that
    ``wcell.cellular_rank_report`` is checked against), at the default and
    at seeded fractional roots."""
    return [cellular_family_vectors(ps, n)
            for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("eliminate", r, n)))]


def _murphy_matrices(r, n):
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("eliminate", r, n))):
        yield hecke.MurphyBasis(hecke.HeckeAlgebra(ps, n)).matrix


def _pivot_values(rows, augmented=None):
    """The pivots of the int elimination as (column, row, value over Q), the
    value read from the stored pivot and its row's multiple num / den."""
    pivots, num, den = la._eliminate(rows, augmented)
    return [(c, p, F(rows[p][c] * den[p], num[p])) for c, p in pivots]


def _assert_matches_fraction_reference(a):
    """The int elimination takes the pivots of the Fraction elimination, with
    the same values over Q, and rank, det and inverse agree with it; the
    input is left as it was."""
    before = [dict(row) for row in a]
    want = fraction_eliminate([dict(row) for row in a])
    assert _pivot_values(list(a)) == want
    assert la.rank(a) == len(want)
    n = len(a)
    if any(j >= n for row in a for j in row):
        assert a == before
        return
    full = len(want) == n
    sign = la._sign([p for _, p, _ in want]) if full else 0
    assert la.det(a) == math.prod((v for *_, v in want), start=F(sign))
    augmented = [{**row, n + i: 1} for i, row in enumerate(a)]
    assert _pivot_values(augmented, n) == fraction_eliminate(
        [{**row, n + i: F(1)} for i, row in enumerate(a)], n)
    if full:
        assert la.inverse(a) == fraction_inverse(a)
    else:
        with pytest.raises(ValueError, match="matrix is singular"):
            la.inverse(a)
    assert a == before


def test_int_elimination_matches_fraction_reference():
    for a in _seeded_squares():
        _assert_matches_fraction_reference(from_dense(a))
    for bc, _ in _seeded_products():
        _assert_matches_fraction_reference(from_dense(bc))
        _assert_matches_fraction_reference(from_dense([list(col) for col in zip(*bc)]))
    for a in _big_matrices():
        _assert_matches_fraction_reference(a)
    for a in _repeated_and_zero_rows():
        _assert_matches_fraction_reference(a)


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_int_elimination_matches_fraction_reference_on_cellrank(r, n):
    target = r ** n * combinat.double_factorial(2 * n - 1)
    for vecs in _cellrank_vectors(r, n):
        assert la.rank(vecs) == target
        _assert_matches_fraction_reference(vecs)


@pytest.mark.parametrize("r,n", [(3, 2), (1, 4), (2, 3)])
def test_int_elimination_matches_fraction_reference_on_murphy(r, n):
    for matrix in _murphy_matrices(r, n):
        _assert_matches_fraction_reference(matrix)


def test_int_rows_stay_int():
    # every stored value after elimination is an int, and no row stores a
    # zero: a Fraction slipping back in would undo the int arithmetic
    def check(rows, augmented=None):
        la._eliminate(rows, augmented)
        assert all(type(x) is int and x for row in rows for x in row.values())

    for vecs in _cellrank_vectors(2, 3):
        assert all(type(x) is int for v in vecs for x in v.values())
        check(list(vecs))
    for a in _big_matrices():
        check(list(a))
        n = len(a)
        if all(j < n for row in a for j in row):
            check([{**row, n + i: 1} for i, row in enumerate(a)], n)
    for matrix in _murphy_matrices(2, 3):
        check(list(matrix))
        check([{**row, len(matrix) + i: 1} for i, row in enumerate(matrix)], len(matrix))


def test_rank_and_inverse_form_no_fraction(monkeypatch):
    # the elimination keeps each pivot as the stored int and its row's
    # multiple: rank forms no Fraction at all, and inverse only its entries
    mats = [from_dense(a) for a in _seeded_squares()] + list(_big_matrices())
    want = [la.rank(a) for a in mats]
    made = []
    monkeypatch.setattr(la, "Fraction", lambda *args: made.append(args) or F(*args))
    assert [la.rank(a) for a in mats] == want and made == []
    for a in mats:
        n = len(a)
        if la.rank(a) == n and all(j < n for row in a for j in row):
            inv = la.inverse(a)
            assert len(made) == sum(len(row) for row in inv)
            made.clear()
