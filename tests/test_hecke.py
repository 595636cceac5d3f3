"""Degenerate cyclotomic quotient: normal form, Murphy basis, Gram forms."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from support import key_word, multiply, murphy_triangular_report, row_symmetrizer_witness
from wenzl import _linalg, combinat, hecke
from wenzl.combinat import star_word
from wenzl.hecke import (
    HeckeAlgebra, MurphyBasis, gamma_coeffs, gamma_path_independent,
    gamma_top, gram_det, gram_entry, gram_matrix, is_semisimple,
    murphy_factors,
)
from wenzl.params import ParamSet
from wenzl.seminormal import relations
from wenzl.wcell import star_word_sum

F = Fraction


def _alg(r, n):
    return HeckeAlgebra(ParamSet.default(r, n), n)


def _word(H, *letters):
    """The element of a word: the letters acting on the identity."""
    return H.act(H.one(), letters)


def _monomials(H):
    return [{(alpha, w): F(1)}
            for alpha in itertools.product(range(H.ps.r), repeat=H.n)
            for w in itertools.permutations(range(1, H.n + 1))]


def _star(H, el):
    """The anti-involution fixing every generator: each key's word,
    reversed, evaluated through act."""
    return H.act_sum(H.one(), [(c, star_word(key_word(key))) for key, c in el.items()])


def _evaluate(H, left, middle, right):
    """The left-to-right product of the factors, nothing shared."""
    return H.act(functools.reduce(H.act_sum, middle, _word(H, *left)), right)


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
        T = _word(H, ("S", i))
        assert multiply(H, T, T) == H.one()


def test_braid_relation():
    H = _alg(2, 3)
    T1, T2 = _word(H, ("S", 1)), _word(H, ("S", 2))
    lhs = multiply(H, multiply(H, T1, T2), T1)
    rhs = multiply(H, multiply(H, T2, T1), T2)
    assert lhs == rhs


def test_affine_skein_relation():
    # Y_{i+1} = T_i Y_i T_i + T_i
    for r, n in ((1, 3), (2, 3)):
        H = _alg(r, n)
        for i in (1, 2):
            T, Y = _word(H, ("S", i)), _word(H, ("X", i, 1))
            tyt = multiply(H, multiply(H, T, Y), T)
            assert tyt == _word(H, ("S", i), ("X", i, 1), ("S", i))
            lhs = H.act_sum(T, ((F(1), (("X", i, 1), ("S", i))), (F(1), ())))
            assert lhs == _word(H, ("X", i + 1, 1))


def test_y_commute():
    H = _alg(2, 3)
    Y1, Y3 = _word(H, ("X", 1, 1)), _word(H, ("X", 3, 1))
    assert multiply(H, Y1, Y3) == multiply(H, Y3, Y1)
    T1 = _word(H, ("S", 1))
    assert multiply(H, T1, Y3) == multiply(H, Y3, T1)


def test_cyclotomic_polynomial_kills_y1():
    for r, n in ((1, 2), (2, 2), (2, 3), (3, 2)):
        H = _alg(r, n)
        el = H.one()
        for ut in H.ps.u:
            el = H.act_sum(el, ((F(1), (("X", 1, 1),)), (-ut, ())))
        assert el == {}


def test_multiplication_is_associative():
    """Exhaustive monomial triples at two strands."""
    H = _alg(2, 2)
    mono = _monomials(H)
    assert len(mono) == 8
    for a in mono:
        for b in mono:
            ab = multiply(H, a, b)
            for c in mono:
                assert multiply(H, ab, c) == multiply(H, a, multiply(H, b, c))


def test_products_stay_in_normal_form():
    H = _alg(2, 2)
    allowed = set()
    for alpha in itertools.product(range(2), repeat=2):
        for w in itertools.permutations((1, 2)):
            allowed.add((alpha, w))
    for a in _monomials(H):
        for b in _monomials(H):
            for key in multiply(H, a, b):
                assert key in allowed


def test_star_is_an_antiinvolution():
    H = _alg(2, 2)
    mono = _monomials(H)
    for a in mono:
        assert _star(H, _star(H, a)) == a
        for b in mono:
            assert (_star(H, multiply(H, a, b))
                    == multiply(H, _star(H, b), _star(H, a)))


def test_letter_validation():
    H = _alg(2, 2)
    for bad in (("S", 2), ("S", 0), ("E", 1), ("E", 0), ("X", 3, 1), ("X", 0, 1),
                ("X", 1, -1), ("Q", 1)):
        with pytest.raises(ValueError):
            H.act(H.one(), (bad,))


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
        assert _linalg.rank(mb.matrix) == want
        if r > 1 and H.ps.u[0].denominator > 1:
            assert any(x.denominator > 1 for row in mb.matrix for x in row.values())
        for i, el in enumerate(mb.elements):
            assert mb.coords(el) == {i: 1}, (r, n, i)


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (1, 4), (2, 3)])
def test_murphy_elements_are_their_factors(r, n):
    # every element equals the product of its own factors evaluated from
    # the identity, so a middle or a left part shared across shapes or
    # across s would show
    rng = random.Random(f"murphy:{r}:{n}")
    k, delta = rng.choice((2, 4, 8)), rng.choice((F(1, 2), F(1, 3), F(2, 7), F(-1, 4)))
    seeded = tuple(k * x + delta for x in combinat.default_u(r, n))
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded, n_hint=n)):
        H = HeckeAlgebra(ps, n)
        mb = MurphyBasis(H)
        assert len(mb.elements) == r ** n * math.factorial(n)
        for (lam, s, t), el in zip(mb.triples, mb.elements):
            assert el == _evaluate(H, *murphy_factors(ps, lam, s, t)), (ps.u, lam, s, t)


def test_murphy_star_symmetry():
    H = _alg(2, 2)
    mb = MurphyBasis(H)
    for lam, s, t in mb.triples:
        left, middle, right = murphy_factors(H.ps, lam, s, t)
        starred = _evaluate(H, star_word(right),
                            tuple(star_word_sum(f) for f in reversed(middle)),
                            star_word(left))
        m_ts = mb.elements[mb.triple_index[lam, t, s]]
        assert starred == m_ts
        assert _star(H, mb.elements[mb.triple_index[lam, s, t]]) == m_ts


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
        assert gamma_path_independent(lam, ps, gamma_coeffs(lam, ps))


def test_gram_matrix_symmetric():
    ps = ParamSet.default(2, 2)
    H = HeckeAlgebra(ps, 2)
    mb = MurphyBasis(H)
    lam = ((1,), (1,))
    g = gram_matrix(H, mb, lam)
    assert len(g) == 2 and g[0][1] == g[1][0]
    tabs = combinat.standard_tableaux(lam)
    assert gram_entry(H, mb, lam, tabs[0], tabs[1]) == g[0][1]


def _gram_by_multiply(H, mb, lam):
    """The cell form read off the full product m_{t^lam s} · m_{t t^lam} of
    two basis elements: the coefficient of m_{t^lam t^lam}."""
    tl = combinat.t_lambda(lam)
    stds = combinat.standard_tableaux(lam)
    m, corner = mb.elements, mb.triple_index[lam, tl, tl]
    return [{j: x for j, t in enumerate(stds)
             if (x := mb.coords(multiply(H, m[mb.triple_index[lam, tl, s]],
                                         m[mb.triple_index[lam, t, tl]])).get(corner, 0))}
            for s in stds]


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (1, 4), (2, 3)])
def test_gram_matrix_equals_the_product_of_two_elements(r, n):
    rng = random.Random(f"gram:{r}:{n}")
    k, delta = rng.choice((2, 4, 8)), rng.choice((F(1, 2), F(1, 3), F(2, 7), F(-1, 4)))
    seeded = tuple(k * x + delta for x in combinat.default_u(r, n))
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded, n_hint=n)):
        H = HeckeAlgebra(ps, n)
        mb = MurphyBasis(H)
        for lam in combinat.multipartitions(r, n):
            assert gram_matrix(H, mb, lam) == _gram_by_multiply(H, mb, lam), (ps.u, lam)


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


def _without_e(terms):
    return tuple((c, w) for c, w in terms if all(letter[0] != "E" for letter in w))


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_relation_table_without_e_holds_in_the_quotient(r, n):
    # the quotient by the ideal of E_1 is the degenerate cyclotomic Hecke
    # algebra: the relation table with every E term dropped holds there
    rng = random.Random(f"relations:{r}:{n}")
    k, delta = rng.choice((2, 4, 8)), rng.choice((F(1, 2), F(1, 3), F(2, 7), F(-1, 4)))
    seeded = tuple(k * x + delta for x in combinat.default_u(r, n))
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded, n_hint=n)):
        H = HeckeAlgebra(ps, n)
        checked = set()
        for family, lhs, rhs in relations(ps, n):
            lhs, rhs = _without_e(lhs), _without_e(rhs)
            assert H.act_sum(H.one(), lhs) == H.act_sum(H.one(), rhs), (ps.u, family, lhs)
            if lhs or rhs:
                checked.add(family)
        assert {"involution", "skein", "cyclotomic"} <= checked
        assert n < 3 or "braid" in checked
