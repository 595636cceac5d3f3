"""Degenerate cyclotomic quotient: normal form, Murphy basis, Gram forms."""

import itertools
import math
from fractions import Fraction

from support import murphy_triangular_report, row_symmetrizer_witness
from wenzl import combinat, hecke
from wenzl.hecke import (
    HeckeAlgebra, MurphyBasis, gamma_coeffs, gamma_path_independent,
    gamma_top, gram_det, gram_entry, gram_matrix, is_semisimple,
    murphy_element,
)
from wenzl.params import ParamSet

F = Fraction


def _alg(r, n):
    return HeckeAlgebra(ParamSet.default(r, n), n)


def _monomials(H):
    return [H.monomial(alpha, w)
            for alpha in itertools.product(range(H.ps.r), repeat=H.n)
            for w in itertools.permutations(range(1, H.n + 1))]


def test_merge_stores_no_zero():
    out = {}
    hecke._merge(out, "a", F(0))
    assert out == {}
    hecke._merge(out, "a", F(1, 3))
    assert out == {"a": F(1, 3)} and type(out["a"]) is Fraction
    hecke._merge(out, "a", F(1, 6))
    assert out == {"a": F(1, 2)}
    hecke._merge(out, "a", F(-1, 2))
    assert out == {}


def test_swap_involution():
    H = _alg(2, 3)
    for i in (1, 2):
        T = H.gen_T(i)
        assert H.multiply(T, T) == H.one()


def test_braid_relation():
    H = _alg(2, 3)
    T1, T2 = H.gen_T(1), H.gen_T(2)
    lhs = H.multiply(H.multiply(T1, T2), T1)
    rhs = H.multiply(H.multiply(T2, T1), T2)
    assert lhs == rhs


def test_affine_skein_relation():
    # Y_{i+1} = T_i Y_i T_i + T_i
    for r, n in ((1, 3), (2, 3)):
        H = _alg(r, n)
        for i in (1, 2):
            T, Y = H.gen_T(i), H.gen_Y(i)
            lhs = H.add(H.multiply(H.multiply(T, Y), T), T)
            assert lhs == H.gen_Y(i + 1)


def test_y_commute():
    H = _alg(2, 3)
    Y1, Y3 = H.gen_Y(1), H.gen_Y(3)
    assert H.multiply(Y1, Y3) == H.multiply(Y3, Y1)
    T1 = H.gen_T(1)
    assert H.multiply(T1, Y3) == H.multiply(Y3, T1)


def test_cyclotomic_polynomial_kills_y1():
    for r, n in ((1, 2), (2, 2), (2, 3), (3, 2)):
        H = _alg(r, n)
        el = H.one()
        for ut in H.ps.u:
            el = H.multiply(el, H.sub(H.gen_Y(1), H.scale(ut, H.one())))
        assert el == H.zero()


def test_multiplication_is_associative():
    """Exhaustive monomial triples at two strands."""
    H = _alg(2, 2)
    mono = _monomials(H)
    assert len(mono) == 8
    for a in mono:
        for b in mono:
            ab = H.multiply(a, b)
            for c in mono:
                assert H.multiply(ab, c) == H.multiply(a, H.multiply(b, c))


def test_products_stay_in_normal_form():
    H = _alg(2, 2)
    allowed = set()
    for alpha in itertools.product(range(2), repeat=2):
        for w in itertools.permutations((1, 2)):
            allowed.add((alpha, w))
    for a in _monomials(H):
        for b in _monomials(H):
            for key in H.multiply(a, b):
                assert key in allowed


def test_star_is_an_antiinvolution():
    H = _alg(2, 2)
    mono = _monomials(H)
    for a in mono:
        assert H.star(H.star(a)) == a
        for b in mono:
            assert (H.star(H.multiply(a, b))
                    == H.multiply(H.star(b), H.star(a)))


def test_murphy_basis_ranks():
    # the sizes gram runs, at a stream-like fractional root set too; with
    # more than one root the coordinate matrix has denominators.  The
    # coordinates of the i-th basis element are the i-th unit vector
    algebras = [_alg(r, n) for r, n in ((1, 2), (2, 2), (1, 3))]
    for r, n in ((3, 2), (1, 4), (2, 3)):
        u = tuple(8 * x + F(2, 7) for x in combinat.default_u(r, n))
        algebras.append(HeckeAlgebra(ParamSet.from_u(u, n_hint=n), n))
    for H in algebras:
        r, n = H.ps.r, H.n
        mb = MurphyBasis(H)
        want = r ** n * [1, 1, 2, 6, 24][n]
        assert len(mb.keys) == want
        assert mb.rank() == want
        if r > 1 and H.ps.u[0].denominator > 1:
            assert any(x.denominator > 1 for row in mb.matrix for x in row.values())
        for i, el in enumerate(mb.elements):
            assert mb.coords(el) == {i: 1}, (r, n, i)


def test_murphy_star_symmetry():
    H = _alg(2, 2)
    for lam in combinat.multipartitions(2, 2):
        tabs = combinat.standard_tableaux(lam)
        for s in tabs:
            for t in tabs:
                assert H.star(murphy_element(H, s, t)) == murphy_element(H, t, s)


def test_murphy_triangularity():
    for r, n in ((2, 2), (1, 3)):
        H = _alg(r, n)
        assert murphy_triangular_report(H, MurphyBasis(H)) == []


def test_gram_dets_two_strands():
    ps = ParamSet.default(2, 2)
    H = HeckeAlgebra(ps, 2)
    mb = MurphyBasis(H)
    want = {
        ((2,), ()): F(144),
        ((1, 1), ()): F(56),
        ((1,), (1,)): F(63),
        ((), (2,)): F(2),
        ((), (1, 1)): F(1),
    }
    for lam, det in want.items():
        assert gram_det(H, mb, lam) == det
        prod = math.prod(gamma_coeffs(lam, ps).values(), start=F(1))
        assert prod == det
        assert gamma_path_independent(lam, ps)


def test_gram_matrix_symmetric():
    ps = ParamSet.default(2, 2)
    H = HeckeAlgebra(ps, 2)
    mb = MurphyBasis(H)
    lam = ((1,), (1,))
    g = gram_matrix(H, mb, lam)
    assert len(g) == 2 and g[0][1] == g[1][0]
    tabs = combinat.standard_tableaux(lam)
    assert gram_entry(H, mb, lam, tabs[0], tabs[1]) == g[0][1]


def test_gamma_top_divides_product():
    ps = ParamSet.default(2, 2)
    for lam in combinat.multipartitions(2, 2):
        coeffs = gamma_coeffs(lam, ps)
        assert gamma_top(lam, ps) in coeffs.values()


def test_semisimplicity_boundary():
    for n in (1, 2, 3):
        for d in range(0, n + 3):
            ps = ParamSet.from_u((F(0), F(d)), n_hint=n)
            assert is_semisimple(ps, n) == (d >= n)
            ps_neg = ParamSet.from_u((F(0), F(-d)), n_hint=n)
            assert is_semisimple(ps_neg, n) == (d >= n)
    # non-integral separation never collides
    ps = ParamSet.from_u((F(0), F(1, 2)), n_hint=3)
    assert is_semisimple(ps, 3)
    # one parameter: always semisimple here
    assert is_semisimple(ParamSet.default(1, 3), 3)


def test_row_symmetrizer_witness():
    scalar, ok = row_symmetrizer_witness(ParamSet.from_u((F(6), F(-2)),
                                                         n_hint=3), 3)
    assert ok and scalar == 4320
    # 3! * (6-(-2)) * (7-(-2)) * (8-(-2)) = 6 * 8 * 9 * 10
    scalar, ok = row_symmetrizer_witness(ParamSet.from_u((F(0), F(1)),
                                                         n_hint=2), 2)
    assert ok and scalar == 0
