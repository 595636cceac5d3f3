import itertools
import random
from fractions import Fraction

from support import from_dense
from wenzl import _linalg as la

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
    rng = random.Random(2005)
    invertible = singular = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        a = _sparse_matrix(rng, n, n, rng.choice((0.3, 0.5, 0.8)))
        if n > 1 and rng.random() < 0.2:
            # a repeated row or a zero row
            a[rng.randrange(1, n)] = list(a[0]) if rng.random() < 0.5 else [F(0)] * n
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
    # seeded products B C with inner dimension k: B is [I_k; R] and C is
    # [I_k S] with shuffled rows and columns, so both have rank k; zero and
    # repeated rows of B give zero and repeated rows of B C; k = 0 is the
    # zero matrix
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
        bc = _dense_mul(b, c, n) if k else [[F(0)] * n for _ in b]
        assert rank(bc) == k, (b, c)
        assert rank([list(col) for col in zip(*bc)]) == k, (b, c)
