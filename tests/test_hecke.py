"""Degenerate cyclotomic quotient: normal form, Murphy basis, Gram forms."""

import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from support import (FractionHecke, as_fractions, filled_step_tables, fraction_inverse,
                     is_semisimple, key_word, multiply, murphy_triangular_report, root_sets,
                     row_symmetrizer_witness, seeded_u, star_word, star_word_sum,
                     word_sum_product, young_subgroup)
from wenzl import _linalg, cli, combinat, hecke, wcell
from wenzl.hecke import (
    Element, HeckeAlgebra, MurphyBasis, gamma_coeffs, gamma_path_independent,
    gamma_top, gram_det, gram_matrix,
    murphy_basis, murphy_factors,
)
from wenzl.params import ParamSet, wk_rational
from wenzl.seminormal import Realization, build_all, relations

F = Fraction


def _alg(r, n):
    return HeckeAlgebra(ParamSet.default(r, n), n)


def _word(H, *letters):
    """The element of a word: the letters acting on the identity."""
    return H.act(H.one(), letters)


def _monomials(H):
    return [Element({(alpha, w): 1}, 1)
            for alpha in itertools.product(range(H.ps.r), repeat=H.n)
            for w in itertools.permutations(range(1, H.n + 1))]


def _star(H, el):
    """The anti-involution fixing every generator: each key's word,
    reversed, evaluated through act."""
    return H.act_sum(H.one(), [(c, star_word(key_word(key)))
                               for key, c in as_fractions(el).items()])


def _evaluate(H, left, middle, right):
    """The left-to-right product of the factors, nothing shared."""
    return H.act(functools.reduce(H.act_sum, middle, _word(H, *left)), right)


def test_merge_stores_no_zero():
    out = {}
    hecke._merge(out, "a", 0)
    assert out == {}
    hecke._merge(out, "a", 3)
    assert out == {"a": 3} and type(out["a"]) is int
    hecke._merge(out, "a", 4)
    assert out == {"a": 7}
    hecke._merge(out, "a", -7)
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
        assert el == Element({}, 1)


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
            for key in as_fractions(multiply(H, a, b)):
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
    # more than one root some basis element has a denominator.  The
    # coordinates of the i-th basis element are the i-th unit vector
    algebras = [_alg(r, n) for r, n in ((1, 2), (2, 2), (1, 3))]
    for r, n in ((3, 2), (1, 4), (2, 3)):
        u = tuple(8 * x + F(2, 7) for x in combinat.default_u(r, n))
        algebras.append(HeckeAlgebra(ParamSet.from_u(u), n))
    for H in algebras:
        r, n = H.ps.r, H.n
        mb = MurphyBasis(H)
        want = r ** n * [1, 1, 2, 6, 24][n]
        assert len(mb.keys) == want
        assert _linalg.rank(mb.matrix) == want
        if r > 1 and H.ps.u[0].denominator > 1:
            assert any(el.den > 1 for el in mb.elements)
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
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded)):
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
        assert murphy_triangular_report(MurphyBasis(_alg(r, n))) == []


def test_gram_dets_two_strands():
    ps = ParamSet.default(2, 2)
    mb = MurphyBasis(HeckeAlgebra(ps, 2))
    want = {
        ((2,), ()): F(144),
        ((1, 1), ()): F(56),
        ((1,), (1,)): F(63),
        ((), (2,)): F(2),
        ((), (1, 1)): F(1),
    }
    for lam, det in want.items():
        assert gram_det(mb, lam) == det
        prod = math.prod(gamma_coeffs(lam, ps).values(), start=F(1))
        assert prod == det
        assert gamma_path_independent(lam, ps, gamma_coeffs(lam, ps))


def test_gram_matrix_symmetric():
    mb = MurphyBasis(_alg(2, 2))
    lam = ((1,), (1,))
    g = gram_matrix(mb, lam)
    assert len(g) == 2 and g[0][1] == g[1][0]


def _gram_by_multiply(mb, lam):
    """The cell form read off the full product m_{t^lam s} · m_{t t^lam} of
    two basis elements: the coefficient of m_{t^lam t^lam}."""
    H = mb.H
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
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded)):
        mb = MurphyBasis(HeckeAlgebra(ps, n))
        for lam in combinat.multipartitions(r, n):
            assert gram_matrix(mb, lam) == _gram_by_multiply(mb, lam), (ps.u, lam)



def test_murphy_basis_is_held_per_parameter_set(murphy_builds):
    # the held parameter set, whatever W it has formed, holds the basis, and
    # from_u returns it for equal roots
    ps = ParamSet.default(2, 3)
    wk_rational(((1,), ()), ps)
    mb = murphy_basis(ps, 3)
    assert mb.H.ps is ps and mb.H.n == 3 and ps.murphy == {3: mb}
    assert murphy_basis(ParamSet.default(2, 3), 3) is mb
    # another u, or another n, builds a new basis
    other = ParamSet.from_u((F(6), F(-3)))
    assert other != ps
    mb_u = murphy_basis(other, 3)
    assert mb_u is not mb and mb_u.H.ps.u == other.u
    mb_n = murphy_basis(other, 2)
    assert mb_n is not mb_u and mb_n.H.n == 2
    assert murphy_basis(other, 2) is mb_n
    # one parameter set is held: other replaced ps, so an equal parameter
    # set is built afresh, and with it the basis
    assert murphy_basis(ParamSet.default(2, 3), 3) is not mb
    assert murphy_builds == [(ps.u, 3), (other.u, 3), (other.u, 2), (ps.u, 3)]


def test_held_murphy_basis_stays_as_built():
    # gram_matrix only reads the basis elements: after every shape, the held
    # basis is the one a fresh build gives, so no product aliases an element
    ps = ParamSet.from_u(seeded_u("held", 2, 3))
    mb = murphy_basis(ps, 3)
    for lam in combinat.multipartitions(2, 3):
        gram_matrix(mb, lam)
    assert murphy_basis(ps, 3) is mb
    fresh = MurphyBasis(HeckeAlgebra(ps, 3))
    assert mb.elements == fresh.elements and mb.matrix == fresh.matrix
    for el in fresh.elements:
        assert mb.coords(el) == fresh.coords(el)


@pytest.mark.parametrize("r,n", [(3, 2), (1, 4), (2, 3)])
def test_int_coordinates_equal_the_fraction_inverse(r, n):
    # coords on int rows against x · inverse over Fraction rows, on every
    # basis element and every product a Gram matrix reads
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("coords", r, n))):
        mb = MurphyBasis(HeckeAlgebra(ps, n))
        H = mb.H
        inv = fraction_inverse([{mb.key_index[key]: c for key, c in as_fractions(el).items()}
                                for el in mb.elements])
        els = list(mb.elements)
        for lam in combinat.multipartitions(r, n):
            tl = combinat.t_lambda(lam)
            stds = combinat.standard_tableaux(lam)
            for s in stds:
                left = mb.elements[mb.triple_index[lam, tl, s]]
                els += [H.act_factors(left, *murphy_factors(ps, lam, t, tl)) for t in stds]
        for el in els:
            got = mb.coords(el)
            vec = {mb.key_index[key]: c for key, c in as_fractions(el).items()}
            assert got == _linalg.mat_mul([vec], inv)[0], (ps.u, el)
            assert all(type(x) is Fraction and x for x in got.values())


def _canonical(el):
    """An int element over one positive denominator, with no zero stored and
    no factor common to the denominator and every coefficient."""
    return (type(el.den) is int and el.den > 0
            and all(type(c) is int and c for c in el.terms.values())
            and math.gcd(el.den, *el.terms.values()) == 1)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (1, 4), (2, 3)])
def test_int_rewriting_equals_the_fraction_reference(r, n):
    # every Murphy basis element and every Gram product against the
    # Fraction-dict rewriting, at default roots, integral multiples of them,
    # and fractional roots with denominators 2, 3, 4 and 7; at r = 3 the
    # half-integral roots clear the cyclotomic relation over Q = 8
    default = combinat.default_u(r, n)
    rng = random.Random(f"fraction-hecke:{r}:{n}")
    roots = [default, tuple(3 * x for x in default), tuple(-2 * x for x in default)]
    roots += [tuple(rng.choice((1, 2, 4, 8)) * x + delta for x in default)
              for delta in (F(1, 2), F(1, 3), F(-1, 4), F(2, 7))]
    for u in roots:
        ps = ParamSet.from_u(u)
        mb, ref = MurphyBasis(HeckeAlgebra(ps, n)), FractionHecke(ps, n)
        H = mb.H
        if r == 3 and u[0].denominator == 2:
            assert H.Q == 8
        want = {}
        for (lam, s, t), el in zip(mb.triples, mb.elements):
            want[lam, s, t] = ref.act_factors(ref.one(), *murphy_factors(ps, lam, s, t))
            assert _canonical(el) and as_fractions(el) == want[lam, s, t], (u, lam, s, t)
        for lam in combinat.multipartitions(r, n):
            tl = combinat.t_lambda(lam)
            stds = combinat.standard_tableaux(lam)
            for s in stds:
                left = mb.elements[mb.triple_index[lam, tl, s]]
                for t in stds:
                    fs = murphy_factors(ps, lam, t, tl)
                    got = H.act_factors(left, *fs)
                    assert _canonical(got), (u, lam, s, t)
                    assert as_fractions(got) == ref.act_factors(want[lam, tl, s], *fs)


def _element(fracs: dict) -> Element:
    """The canonical int element of a dict of Fraction coefficients."""
    den = math.lcm(*(c.denominator for c in fracs.values()))
    return hecke._canonical({k: c.numerator * (den // c.denominator)
                             for k, c in fracs.items()}, den)


def _seeded_checks(H, ref, rng):
    """rmul_Y at every j, act on a word and act_sum on a word sum, each on
    seeded elements, against the Fraction reference."""
    n, r = H.n, H.r
    keys = [(alpha, w) for alpha in itertools.product(range(r), repeat=n)
            for w in itertools.permutations(range(1, n + 1))]
    letters = [("S", i) for i in range(1, n)] + [("X", j, a) for j in range(1, n + 1)
                                                 for a in range(3)]
    coeffs = [F(1), F(-2), F(3, 7), F(-5, 4), F(11, 6)]
    for _ in range(4):
        fr = {k: rng.choice(coeffs) for k in rng.sample(keys, min(len(keys), 6))}
        el = _element(fr)
        for j in range(1, n + 1):
            got = H.rmul_Y(el, j)
            assert _canonical(got) and as_fractions(got) == ref.rmul_Y(fr, j), (fr, j)
        word = tuple(rng.choice(letters) for _ in range(4))
        got = H.act(el, word)
        assert _canonical(got) and as_fractions(got) == ref.act(fr, word), (fr, word)
        wsum = tuple((rng.choice(coeffs), tuple(rng.choice(letters) for _ in range(3)))
                     for _ in range(3))
        got = H.act_sum(el, wsum)
        assert _canonical(got) and as_fractions(got) == ref.act_sum(fr, wsum), (fr, wsum)


@pytest.mark.parametrize("r,n", [(3, 2), (1, 4), (2, 3)])
def test_held_y_images_equal_the_fraction_reference(r, n):
    # rmul_Y, act and act_sum on seeded elements, from an empty table of
    # held images, from one that the basis and the Gram matrix of every
    # shape have filled (at r = 1 no M_lam holds a Y, so it stays empty),
    # and from one that earlier elements filled; every image the shapes
    # filled is checked too
    rng = random.Random(f"held-images:{r}:{n}")
    for u in root_sets("held-images", r):
        ps = ParamSet.from_u(u)
        ref = FractionHecke(ps, n)
        cold = HeckeAlgebra(ps, n)
        assert not cold._y_images
        _seeded_checks(cold, ref, rng)
        mb = MurphyBasis(HeckeAlgebra(ps, n))
        for lam in combinat.multipartitions(r, n):
            gram_matrix(mb, lam)
        warm = mb.H
        for (key, j), (terms, e) in warm._y_images.items():
            held = {k: F(c, warm.Q ** e) for k, c in terms.items()}
            assert held == ref.rmul_Y({key: F(1)}, j), (u, key, j)
        assert warm._y_images or r == 1
        _seeded_checks(warm, ref, rng)
        assert cold._y_images
        _seeded_checks(cold, ref, rng)


def _gram_job(lam, u, out) -> int:
    """The exit code of one gram job at the shape lam and the roots u."""
    shape = "(" + "|".join(",".join(map(str, p)) or "-" for p in lam) + ")"
    return cli.main(["gram", "--shape=" + shape, "--u=" + ",".join(map(str, u)),
                     "--out", str(out)])


def test_each_key_is_straightened_once_per_parameter_set(tmp_path, monkeypatch,
                                                        murphy_builds):
    # the gram jobs of every shape at one parameter set share one held
    # algebra: across the basis build and every Gram matrix, each (key, j)
    # is straightened at most once, and every image straightened is held
    calls = collections.Counter()
    straighten = HeckeAlgebra._straighten

    def counted(self, key, j):
        calls[key, j] += 1
        return straighten(self, key, j)

    monkeypatch.setattr(HeckeAlgebra, "_straighten", counted)
    out = tmp_path / "out.jsonl"
    for r, n in ((3, 2), (1, 4), (2, 3), (2, 2)):
        calls.clear()
        murphy_builds.clear()
        ps = ParamSet.from_u(seeded_u("straighten-once", r, n))
        for lam in combinat.multipartitions(r, n):
            assert _gram_job(lam, ps.u, out) == 0
        assert murphy_builds == [(ps.u, n)]
        H = hecke.murphy_basis(ps, n).H
        assert len(murphy_builds) == 1
        # at r = 1 no M_lam holds a Y, so nothing is straightened
        assert set(calls.values()) <= {1} and (calls or r == 1), (r, n)
        assert set(calls) == set(H._y_images)


def test_gram_jobs_read_each_boundary_once_per_parameter_set(tmp_path, monkeypatch,
                                                            murphy_builds):
    # the gamma ratios read the step table of the held parameter set, so
    # across the jobs of every shape at one parameter set the step table of
    # each shape met is filled once, and the basis is built once
    boundaries = filled_step_tables(monkeypatch)
    out = tmp_path / "out.jsonl"
    u = seeded_u("boundary-once", 2, 3)
    for lam in combinat.multipartitions(2, 3):
        assert _gram_job(lam, u, out) == 0
    assert boundaries and len(boundaries) == len(set(boundaries))
    assert murphy_builds == [(u, 3)]


def test_verify_then_gram_read_each_boundary_once(tmp_path, monkeypatch):
    # a verify job and the gram jobs after it at the same (u, n) share the
    # held parameter set: its step table holds the steps out of every shape
    # of size below n, so the gram jobs fill none again
    boundaries = filled_step_tables(monkeypatch)
    out = tmp_path / "out.jsonl"
    u = seeded_u("verify-then-gram", 2, 3)
    assert cli.main(["verify", "--n", "3", "--u=" + ",".join(map(str, u)),
                     "--out", str(out)]) == 0
    read_by_verify = len(boundaries)
    for lam in combinat.multipartitions(2, 3):
        assert _gram_job(lam, u, out) == 0
    assert len(boundaries) == read_by_verify == len(set(boundaries)) == 8


@pytest.mark.parametrize("r,n", [(3, 2), (1, 4), (2, 3), (2, 4)])
def test_int_descents_equal_the_fraction_contents(r, n):
    # each gamma ratio read on ints over q from the step table against
    # (d + 1)(d - 1) / d^2 with d the difference of Fraction contents
    for u in root_sets("descents", r):
        ps = ParamSet.from_u(u)
        for lam in combinat.multipartitions(r, n):
            for s in combinat.standard_tableaux(lam):
                cs = combinat.content_sequence(s, u)
                want = []
                for k in range(1, n):
                    t = combinat.sk_action(s, k)
                    if t is not None and t != s and combinat.dominance_std(s, t):
                        d = cs[k - 1] - cs[k]
                        want.append((t, (d + 1) * (d - 1) / d ** 2))
                assert list(hecke._descents(lam, s, ps)) == want, (u, lam, s)


def test_gamma_top_divides_product():
    ps = ParamSet.default(2, 2)
    for lam in combinat.multipartitions(2, 2):
        coeffs = gamma_coeffs(lam, ps)
        assert gamma_top(lam, ps) in coeffs.values()


def test_semisimplicity_boundary():
    for n in (1, 2, 3):
        for d in range(0, n + 3):
            ps = ParamSet.from_u((F(0), F(d)))
            assert is_semisimple(ps, n) == (d >= n)
            ps_neg = ParamSet.from_u((F(0), F(-d)))
            assert is_semisimple(ps_neg, n) == (d >= n)
    # non-integral separation never collides
    ps = ParamSet.from_u((F(0), F(1, 2)))
    assert is_semisimple(ps, 3)
    # one parameter: always semisimple here
    assert is_semisimple(ParamSet.default(1, 3), 3)


def test_row_symmetrizer_witness():
    scalar, ok = row_symmetrizer_witness(ParamSet.from_u((F(6), F(-2))), 3)
    assert ok and scalar == 4320
    # 3! * (6-(-2)) * (7-(-2)) * (8-(-2)) = 6 * 8 * 9 * 10
    scalar, ok = row_symmetrizer_witness(ParamSet.from_u((F(0), F(1))), 2)
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
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded)):
        H = HeckeAlgebra(ps, n)
        checked = set()
        for family, lhs, rhs in relations(ps, n):
            lhs, rhs = _without_e(lhs), _without_e(rhs)
            assert H.act_sum(H.one(), lhs) == H.act_sum(H.one(), rhs), (ps.u, family, lhs)
            if lhs or rhs:
                checked.add(family)
        assert {"involution", "skein", "cyclotomic"} <= checked
        assert n < 3 or "braid" in checked


def test_held_shape_tables_equal_the_tableau_walk():
    # at every shape with r <= 3, n <= 4: the held tableaux and words are
    # those of combinat, the held descent edges are the sk_action and
    # dominance_std walk of each standard tableau, and the held dominating
    # shapes are dominance_mp over the multipartitions of lam's size
    for r in (1, 2, 3):
        for n in range(5):
            shapes = combinat.multipartitions(r, n)
            for lam in shapes:
                held, order = hecke.shape_words(lam), hecke._order(lam)
                stds = combinat.standard_tableaux(lam)
                assert held.tableaux == tuple(stds)
                for t in stds:
                    d = combinat.d_perm(t)
                    assert held.words[t] == (
                        combinat.word_for_permutation(combinat.perm_inverse(d)),
                        combinat.word_for_permutation(d))
                # the coset factors expand to each element of the Young
                # subgroup once, with coefficient 1
                assert _permutation_sum(word_sum_product(held.row_factors), n) == (
                    collections.Counter(young_subgroup(lam, n)))
                assert set(order.descents) == set(stds)
                for s in stds:
                    want = []
                    for k in range(1, n):
                        t = combinat.sk_action(s, k)
                        if t is not None and t != s and combinat.dominance_std(s, t):
                            want.append((k, t))
                    assert order.descents[s] == tuple(want), (lam, s)
                assert order.above == {mu for mu in shapes if combinat.dominance_mp(mu, lam)}


def _permutation_sum(terms, n) -> collections.Counter:
    """A word sum of S words as a sum of permutations: the coefficient of
    each permutation, as ``HeckeAlgebra.act`` composes its words."""
    out = collections.Counter()
    for c, word in terms:
        out[functools.reduce(hecke._swap_values, (i for _, i in word),
                             tuple(range(1, n + 1)))] += c
    return +out


def _table_sizes() -> tuple:
    """The number of entries in each root-free table."""
    return tuple(hold.cache_info().currsize for hold in (
        hecke.shape_words, hecke._order, wcell.cell_triples, wcell.cell_words))


def _held_tables(r, n) -> tuple:
    """The size of every root-free table, then the entries of each at the
    shapes and cells of r and sizes up to n (read through the tables, so
    the reading fills what was missing)."""
    sizes = _table_sizes()
    shapes = [lam for m in range(n + 1) for lam in combinat.multipartitions(r, m)]
    cells = [(arcs, lam) for arcs in range(n // 2 + 1)
             for lam in combinat.multipartitions(r, n - 2 * arcs)]
    return (sizes, [hecke.shape_words(lam) for lam in shapes],
            [hecke._order(lam) for lam in shapes],
            [wcell.cell_triples(r, n, arcs, lam) for arcs, lam in cells],
            [wcell.cell_words(r, n, arcs, lam) for arcs, lam in cells])


def test_held_tables_are_root_free(tmp_path, drop_holds):
    # gram jobs on every shape at (2,3) and a cellrank job at (2,2) leave
    # equal tables at two root sets, one of them fractional, and a second
    # root set after the first adds no entry and replaces none
    out = tmp_path / "out.jsonl"

    def jobs(u):
        for lam in combinat.multipartitions(2, 3):
            assert _gram_job(lam, u, out) == 0
        assert cli.main(["cellrank", "--n", "2", "--u=" + ",".join(map(str, u)),
                         "--out", str(out)]) == 0

    whole, fractional = combinat.default_u(2, 3), seeded_u("root-free", 2, 3)
    assert any(x.denominator > 1 for x in fractional)
    tables = []
    for u in (whole, fractional):
        drop_holds()
        jobs(u)
        tables.append(_held_tables(2, 3))
    assert tables[0] == tables[1]
    assert all(tables[0][0])
    filled = _table_sizes()
    jobs(whole)
    again = _held_tables(2, 3)
    assert again[0] == filled
    assert all(x is y for a, b in zip(again[1:], tables[1][1:]) for x, y in zip(a, b))


def _run_word(rng, n) -> tuple:
    """A seeded word of runs of 0 to 4 S letters, each run but the last
    ended by an X letter (X^0 among them)."""
    word = ()
    for _ in range(rng.randrange(1, 4)):
        word += tuple(("S", rng.randrange(1, n)) for _ in range(rng.randrange(5)))
        word += (("X", rng.randrange(1, n + 1), rng.randrange(3)),)
    return word + tuple(("S", rng.randrange(1, n)) for _ in range(rng.randrange(5)))


@pytest.mark.parametrize("r,n", [(3, 2), (1, 4), (2, 3)])
def test_act_takes_a_run_of_s_letters_as_one_permutation(r, n):
    # act on seeded words whose runs of S letters are broken by X letters
    # equals the Fraction reference, which applies T_i letter by letter,
    # and act applied one letter at a time
    rng = random.Random(f"s-runs:{r}:{n}")
    keys = [(alpha, w) for alpha in itertools.product(range(r), repeat=n)
            for w in itertools.permutations(range(1, n + 1))]
    coeffs = [F(1), F(-2), F(3, 7), F(-5, 4), F(11, 6)]
    for u in root_sets("s-runs", r):
        ps = ParamSet.from_u(u)
        H, ref = HeckeAlgebra(ps, n), FractionHecke(ps, n)
        for _ in range(6):
            fr = {k: rng.choice(coeffs) for k in rng.sample(keys, min(len(keys), 6))}
            el = _element(fr)
            word = _run_word(rng, n)
            got = H.act(el, word)
            assert _canonical(got) and as_fractions(got) == ref.act(fr, word), (u, fr, word)
            assert got == functools.reduce(lambda x, letter: H.act(x, (letter,)), word, el)
        # a run that cancels, and the empty word, leave the element as it is
        assert H.act(el, (("S", 1), ("S", 1))) == el and H.act(el, ()) is el


def test_gamma_raises_where_a_held_descent_edge_is_missing(monkeypatch):
    # dropping the one held edge into a tableau leaves it unreached, which
    # raises AssertionError (not an assert statement, so python -O keeps it)
    lam, ps = ((1,), (1,)), ParamSet.default(2, 2)
    order = hecke._order(lam)
    into = collections.Counter(t for edges in order.descents.values() for _, t in edges)
    s, (k, t) = next((s, e) for s, edges in order.descents.items() for e in edges
                     if into[e[1]] == 1)
    descents = {**order.descents, s: tuple(e for e in order.descents[s] if e != (k, t))}
    monkeypatch.setattr(hecke, "_order", lambda mu: order._replace(descents=descents))
    with pytest.raises(AssertionError, match=r"gamma reaches 1 of the 2 standard tableaux"):
        gamma_coeffs(lam, ps)


@pytest.mark.parametrize("r,n", [(1, 5), (2, 4), (3, 3)])
def test_coset_factors_equal_the_young_subgroup_sum(r, n):
    # the product of the held coset factors of every shape equals the sum
    # over its Young subgroup: in the Fraction-dict algebra on a seeded
    # element and on the identity, and on the realization; each row of k
    # boxes takes k(k+1)/2 - 1 words
    ps = ParamSet.default(r, n)
    ref = FractionHecke(ps, n)
    real = Realization(build_all(ps, n))
    rng = random.Random(f"cosets:{r}:{n}")
    keys = [(alpha, w) for alpha in itertools.product(range(r), repeat=n)
            for w in itertools.permutations(range(1, n + 1))]
    seeded = {k: rng.choice((F(1), F(-2), F(3, 7))) for k in rng.sample(keys, 5)}
    for lam in combinat.multipartitions(r, n):
        factors = hecke.shape_words(lam).row_factors
        expanded = tuple((F(1), combinat.word_for_permutation(w)) for w in young_subgroup(lam, n))
        assert sum(len(f) for f in factors) == sum(k * (k + 1) // 2 - 1 for p in lam for k in p)
        for el in (ref.one(), seeded):
            assert functools.reduce(ref.act_sum, factors, el) == ref.act_sum(el, expanded), lam
        assert as_fractions(real.evaluate_product(factors)) == as_fractions(
            real.evaluate_sum(expanded)), lam


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4)])
def test_act_sum_relabels_bare_permutations(r, n, monkeypatch):
    # a word of S letters alone is merged into the sum as its relabelled
    # keys, with no element formed by act; the sum equals the Fraction
    # reference and the sum of the elements that act forms
    rng = random.Random(f"bare:{r}:{n}")
    ps = ParamSet.default(r, n)
    H, ref = HeckeAlgebra(ps, n), FractionHecke(ps, n)
    keys = [(alpha, w) for alpha in itertools.product(range(r), repeat=n)
            for w in itertools.permutations(range(1, n + 1))]
    coeffs = [F(1), F(-2), F(3, 7), F(-5, 4)]
    for _ in range(6):
        fr = {k: rng.choice(coeffs) for k in rng.sample(keys, 6)}
        el = _element(fr)
        wsum = tuple((rng.choice(coeffs), tuple(("S", rng.randrange(1, n))
                                                for _ in range(rng.randrange(4))))
                     for _ in range(4)) + ((F(2), (("X", 1, 1),)),)
        parts = [H.act(el, word) for _, word in wsum]
        formed = []
        act = HeckeAlgebra.act
        monkeypatch.setattr(HeckeAlgebra, "act", lambda self, x, word: formed.append(word)
                            or act(self, x, word))
        got = H.act_sum(el, wsum)
        monkeypatch.undo()
        assert formed == [(("X", 1, 1),)]
        assert _canonical(got) and as_fractions(got) == ref.act_sum(fr, wsum)
        total = {}
        for (c, _), part in zip(wsum, parts):
            for key, x in as_fractions(part).items():
                total[key] = total.get(key, 0) + c * x
        assert as_fractions(got) == {k: x for k, x in total.items() if x}
