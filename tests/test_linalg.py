import itertools
import random
from fractions import Fraction

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


def _perm_matrix(perm):
    return [[F(int(perm[i] == j)) for j in range(len(perm))] for i in range(len(perm))]


def _perm_sign(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return (-1) ** inversions


def test_identity_and_zeros():
    assert la.identity(2) == [[1, 0], [0, 1]]
    assert la.zeros(2, 3) == [[0, 0, 0], [0, 0, 0]]
    assert la.is_zero(la.zeros(3, 3))
    assert not la.is_zero(la.identity(1))


def test_mat_ops():
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(0)]]
    assert la.mat_mul(a, b) == [[F(2), F(1)], [F(4), F(3)]]
    assert la.mat_add(a, la.mat_scale(a, -1)) == la.zeros(2, 2)
    assert la.mat_sub(a, a) == la.zeros(2, 2)
    assert la.transpose(a) == [[F(1), F(3)], [F(2), F(4)]]


def test_det_and_inverse():
    a = [[F(2), F(1)], [F(7), F(4)]]
    assert la.det(a) == 1
    inv = la.inverse(a)
    assert la.mat_mul(a, inv) == la.identity(2)
    assert la.det([[F(1), F(2)], [F(2), F(4)]]) == 0
    # 3x3 with fractional entries
    m = [[F(1, 2), F(0), F(1)], [F(0), F(3), F(0)], [F(1), F(0), F(1)]]
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
        d = la.det(a)
        assert d == _cofactor_det(a), a
        if d:
            invertible += 1
            assert la.mat_mul(a, la.inverse(a)) == la.identity(n), a
            assert la.mat_mul(la.inverse(a), a) == la.identity(n), a
        else:
            singular += 1
    assert invertible > 30 and singular > 30
    # every permutation matrix of sizes up to 5, odd and even
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            p = _perm_matrix(perm)
            assert la.det(p) == _perm_sign(perm) == _cofactor_det(p), perm
            assert la.mat_mul(p, la.inverse(p)) == la.identity(n)
    # a scaled permutation: det is the sign times the product of the scales
    p = _perm_matrix((2, 0, 3, 1))
    scaled = [[x * F(i + 2, 3) for x in row] for i, row in enumerate(p)]
    assert la.det(scaled) == -F(2 * 3 * 4 * 5, 3 ** 4)


def test_rank():
    assert la.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert la.rank(la.identity(4)) == 4
    assert la.rank([[F(1), F(2), F(3)], [F(4), F(5), F(6)]]) == 2
    assert la.rank(la.zeros(2, 5)) == 0
    assert la.rank([]) == 0 and la.rank([[]]) == 0
    # seeded products B C with inner dimension k: B is [I_k; R] and C is
    # [I_k S] with shuffled rows and columns, so both have rank k; zero and
    # repeated rows of B give zero and repeated rows of B C; k = 0 is the
    # zero matrix
    rng = random.Random(1905)
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.randint(0, min(m, n))
        b = la.identity(k) + _sparse_matrix(rng, m - k, k)
        for _ in range(rng.randint(0, 2)):
            b.append(list(rng.choice(b)) if rng.random() < 0.5 else [F(0)] * k)
        rng.shuffle(b)
        cols = list(range(n))
        rng.shuffle(cols)
        c = [row + extra for row, extra in zip(la.identity(k), _sparse_matrix(rng, k, n - k))]
        c = [[row[j] for j in cols] for row in c]
        bc = la.mat_mul(b, c) if k else la.zeros(len(b), n)
        assert la.rank(bc) == k, (b, c)
        assert la.rank(la.transpose(bc)) == k, (b, c)


def test_solve():
    a = [[F(2), F(0)], [F(0), F(4)]]
    assert la.solve(a, [F(6), F(2)]) == [F(3), F(1, 2)]
    # singular but consistent
    sol = la.solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])
    assert sol is not None and sol[0] + sol[1] == 1
    # inconsistent
    assert la.solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None
