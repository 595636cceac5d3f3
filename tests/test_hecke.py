"""Degenerate cyclotomic quotient: normal form, Murphy basis, Gram forms."""

import collections
import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from support import (FractionHecke, TupleHecke, TupleMurphyBasis, as_fractions, by_monomial,
                     cell_triples, coordinates, distant_commutations, filled_step_tables,
                     fraction_inverse,
                     from_monomials, gamma_by_descents, gamma_top, is_semisimple, key_word,
                     multiply, murphy_triangular_report, root_sets, row_symmetrizer_witness,
                     seeded_u, star_word, star_word_sum, tuple_gram_matrix, word_sum_product,
                     young_subgroup)
from wenzl import _linalg, cli, combinat, hecke, params, wcell
from wenzl.hecke import (
    Element, HeckeAlgebra, MurphyBasis, gamma_coeffs, gamma_path_independent, gram_det,
    gram_matrix, murphy_basis, murphy_factors,
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
    return [Element({i: 1}, 1) for i in range(len(H.keys))]


def _star(H, el):
    """The anti-involution fixing every generator: each key's word,
    reversed, evaluated through act."""
    return H.act_sum(H.one(), [(c, star_word(key_word(key)))
                               for key, c in by_monomial(H, el).items()])


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
    # the keys are the normal-form monomials, each once, and every product
    # is keyed by their indices
    H = _alg(2, 2)
    allowed = set()
    for alpha in itertools.product(range(2), repeat=2):
        for w in itertools.permutations((1, 2)):
            allowed.add((alpha, w))
    assert len(H.keys) == len(allowed) and set(H.keys) == allowed
    assert all(H.key_index[key] == i for i, key in enumerate(H.keys))
    for a in _monomials(H):
        for b in _monomials(H):
            for i in multiply(H, a, b).terms:
                assert type(i) is int and 0 <= i < len(H.keys)


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
            assert coordinates(mb, el) == {i: 1}, (r, n, i)


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
             if (x := coordinates(mb, multiply(H, m[mb.triple_index[lam, tl, s]],
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


def test_held_murphy_basis_stays_as_built(drop_holds):
    # gram_matrix only reads the basis elements: after every shape, the held
    # basis is the one a fresh build gives, so no product aliases an element
    ps = ParamSet.from_u(seeded_u("held", 2, 3))
    mb = murphy_basis(ps, 3)
    shapes = combinat.multipartitions(2, 3)
    for lam in shapes:
        gram_matrix(mb, lam)
    assert murphy_basis(ps, 3) is mb
    fresh = MurphyBasis(HeckeAlgebra(ps, 3))
    assert mb.elements == fresh.elements and mb.matrix == fresh.matrix
    for el in fresh.elements:
        assert mb.coords(el) == fresh.coords(el)
    # a basis at (2,3) built after another parameter set's at (2,3) and one
    # at (3,2), on the key tables they filled, is the one built on fresh
    # tables: its elements, matrix, coordinates and Gram matrices
    other = ParamSet.default(2, 3)
    gram_matrix(murphy_basis(ParamSet.default(3, 2), 2), ((1,), (1,), ()))
    after = MurphyBasis(HeckeAlgebra(other, 3))
    assert after.H.keys is mb.H.keys and after.H._pushes
    grams = [gram_matrix(after, lam) for lam in shapes]
    drop_holds()
    cold = MurphyBasis(HeckeAlgebra(other, 3))
    assert cold.H.keys is not after.H.keys and cold.H.keys == after.H.keys
    assert after.elements == cold.elements and after.matrix == cold.matrix
    assert after._inv == cold._inv
    for el in cold.elements + mb.elements:
        assert after.coords(el) == cold.coords(el)
    assert grams == [gram_matrix(cold, lam) for lam in shapes]


def test_algebras_at_one_size_share_the_key_tables():
    # two parameter sets at one (r, n) read the same key list, index,
    # relabel tables and pushes, object for object, and keep their own
    # images and unit reductions; an algebra at (2,3) built after them gets
    # its own tables, and theirs stay as they were
    a = HeckeAlgebra(ParamSet.default(3, 2), 2)
    for j in (1, 2):
        a.rmul_Y(a.act(a.one(), (("S", 1),)), j)
    b = HeckeAlgebra(ParamSet.from_u(seeded_u("shared", 3, 2)), 2)
    assert a.ps != b.ps and a.Q != b.Q
    assert a.id is b.id and a.keys is b.keys and a.key_index is b.key_index
    assert a._relabels is b._relabels and a._pushes is b._pushes
    assert a._relabel((2, 1)) is b._relabel((2, 1))
    assert set(a._pushes) == {(a.keys[1], 1), (a.keys[1], 2)}
    assert all(b._push(key, j) is pushed for (key, j), pushed in a._pushes.items())
    assert a._y_images is not b._y_images and a._units is not b._units
    assert hecke.key_tables.cache_info().currsize == 1
    before = (list(a.keys), dict(a._relabels), dict(a._pushes))
    c = HeckeAlgebra(ParamSet.default(2, 3), 3)
    assert hecke.key_tables.cache_info().currsize == 2
    assert c.keys is not a.keys and c._relabels is not a._relabels
    assert c._pushes is not a._pushes and not c._pushes
    assert c.keys == [(alpha, w) for alpha in itertools.product(range(2), repeat=3)
                      for w in itertools.permutations((1, 2, 3))]
    c.rmul_Y(c.act(c.one(), (("S", 2), ("S", 1))), 3)
    assert c._pushes and c._relabels
    assert (a.keys, a._relabels, a._pushes) == before
    assert HeckeAlgebra(ParamSet.default(3, 2), 2).keys is a.keys


@pytest.mark.parametrize("r,n", [(3, 2), (1, 4), (2, 3)])
def test_int_coordinates_equal_the_fraction_inverse(r, n):
    # coords on int rows against x · inverse over Fraction rows, on every
    # basis element and every product a Gram matrix reads
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("coords", r, n))):
        mb = MurphyBasis(HeckeAlgebra(ps, n))
        H = mb.H
        inv = fraction_inverse([as_fractions(el) for el in mb.elements])
        els = list(mb.elements)
        for lam in combinat.multipartitions(r, n):
            tl = combinat.t_lambda(lam)
            stds = combinat.standard_tableaux(lam)
            for s in stds:
                left = mb.elements[mb.triple_index[lam, tl, s]]
                els += [H.act_factors(left, *murphy_factors(ps, lam, t, tl)) for t in stds]
        for el in els:
            x, den = mb.coords(el)
            assert type(den) is int and den > 0
            assert all(type(v) is int and v for v in x.values())
            assert coordinates(mb, el) == _linalg.mat_mul([as_fractions(el)], inv)[0], (ps.u, el)


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
            assert _canonical(el) and by_monomial(H, el) == want[lam, s, t], (u, lam, s, t)
        for lam in combinat.multipartitions(r, n):
            tl = combinat.t_lambda(lam)
            stds = combinat.standard_tableaux(lam)
            for s in stds:
                left = mb.elements[mb.triple_index[lam, tl, s]]
                for t in stds:
                    fs = murphy_factors(ps, lam, t, tl)
                    got = H.act_factors(left, *fs)
                    assert _canonical(got), (u, lam, s, t)
                    assert by_monomial(H, got) == ref.act_factors(want[lam, tl, s], *fs)


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
        el = from_monomials(H, fr)
        for j in range(1, n + 1):
            got = H.rmul_Y(el, j)
            assert _canonical(got) and by_monomial(H, got) == ref.rmul_Y(fr, j), (fr, j)
        word = tuple(rng.choice(letters) for _ in range(4))
        got = H.act(el, word)
        assert _canonical(got) and by_monomial(H, got) == ref.act(fr, word), (fr, word)
        wsum = tuple((rng.choice(coeffs), tuple(rng.choice(letters) for _ in range(3)))
                     for _ in range(3))
        got = H.act_sum(el, wsum)
        assert _canonical(got) and by_monomial(H, got) == ref.act_sum(fr, wsum), (fr, wsum)


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
        for (i, j), (pairs, e) in warm._y_images.items():
            assert all(type(k) is int for k, _ in pairs)
            held = {warm.keys[k]: F(c, warm.Q ** e) for k, c in pairs}
            assert held == ref.rmul_Y({warm.keys[i]: F(1)}, j), (u, i, j)
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
        assert {(H.key_index[key], j) for key, j in calls} == set(H._y_images)


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
    # the reference's gamma at t^lambda, from the roots, is one of its
    # coefficients and the closed product's at t^lambda
    ps = ParamSet.default(2, 2)
    for lam in combinat.multipartitions(2, 2):
        coeffs = gamma_by_descents(lam, ps)
        assert gamma_top(lam, ps) in coeffs.values()
        assert gamma_coeffs(lam, ps)[combinat.t_lambda(lam)] == gamma_top(lam, ps)


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
    # algebra: the relation table with every E term dropped holds there,
    # and so do the commutations of distant letters, which the table
    # leaves out
    rng = random.Random(f"relations:{r}:{n}")
    k, delta = rng.choice((2, 4, 8)), rng.choice((F(1, 2), F(1, 3), F(2, 7), F(-1, 4)))
    seeded = tuple(k * x + delta for x in combinat.default_u(r, n))
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded)):
        H = HeckeAlgebra(ps, n)
        checked = set()
        for family, lhs, rhs in (*relations(ps, n), *distant_commutations(n)):
            lhs, rhs = _without_e(lhs), _without_e(rhs)
            assert H.act_sum(H.one(), lhs) == H.act_sum(H.one(), rhs), (ps.u, family, lhs)
            if lhs or rhs:
                checked.add(family)
        assert {"involution", "skein", "cyclotomic", "commutation"} <= checked
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
    """The number of entries in each root-free table: every table that
    ``cli.HOLDS`` names but the parameter set."""
    return tuple(hold.cache_info().currsize for hold in cli.held(cli.HOLDS)
                 if hold is not params._param_set)


def _held_tables(r, n) -> tuple:
    """The size of every root-free table, then the entries of each at r and
    sizes up to n and at the shapes and cells there (read through the
    tables, so the reading fills what was missing), then the triples of
    each cell, which are the keys of its held words."""
    sizes = _table_sizes()
    shapes = [lam for m in range(n + 1) for lam in combinat.multipartitions(r, m)]
    cells = [(arcs, lam) for arcs in range(n // 2 + 1)
             for lam in combinat.multipartitions(r, n - 2 * arcs)]
    return (sizes, [hecke.key_tables(r, m) for m in range(n + 1)],
            [hecke.shape_words(lam) for lam in shapes],
            [hecke._order(lam) for lam in shapes],
            [wcell.cell_words(r, n, arcs, lam) for arcs, lam in cells],
            [cell_triples(r, n, arcs, lam) for arcs, lam in cells])


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
    assert all(x is y for a, b in zip(again[1:5], tables[1][1:5]) for x, y in zip(a, b))
    assert again[5] == tables[1][5]


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
            el = from_monomials(H, fr)
            word = _run_word(rng, n)
            got = H.act(el, word)
            assert _canonical(got) and by_monomial(H, got) == ref.act(fr, word), (u, fr, word)
            assert got == functools.reduce(lambda x, letter: H.act(x, (letter,)), word, el)
        # a run that cancels, and the empty word, leave the element as it is
        assert H.act(el, (("S", 1), ("S", 1))) == el and H.act(el, ()) is el


# roots at which some content gap vanishes, so that some shapes meet equal
# adjacent contents
DEGENERATE_U = {
    1: [],
    2: [(F(0), F(0)), (F(0), F(1)), (F(0), F(2)), (F(-2), F(-3)), (F(1, 2), F(3, 2))],
    3: [(F(0), F(1), F(5)), (F(0), F(0), F(7)), (F(1, 2), F(-1, 2), F(9)),
        (F(2), F(0), F(-1))],
}


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 3), (2, 4)])
def test_gamma_closed_form_equals_the_descent_walk(r, n):
    # the closed product of every tableau equals the walk down dominance
    # from t^lambda, entry for entry; where a content gap vanishes, both
    # raise the regime error, naming the same condition and shape (the k
    # each names may differ, since they read the descents in other orders)
    raised = 0
    for u in root_sets("gamma", r) + DEGENERATE_U[r]:
        ps = ParamSet.from_u(u)
        for lam in combinat.multipartitions(r, n):
            try:
                want = gamma_by_descents(lam, ps)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    gamma_coeffs(lam, ps)
                assert re.sub(r"k=\d+", "k", str(got.value)) == re.sub(r"k=\d+", "k", str(e))
                raised += 1
                continue
            got = gamma_coeffs(lam, ps)
            assert got == want and list(got) == list(hecke.shape_words(lam).tableaux), (u, lam)
            assert gamma_path_independent(lam, ps, got)
    assert raised > 0 if DEGENERATE_U[r] else raised == 0


def test_path_independence_catches_a_doubled_gamma_or_an_inverted_ratio(monkeypatch):
    # the closed products and the held descent ratios are two derivations:
    # doubling one gamma, or inverting one ratio, breaks their agreement
    lam, ps = ((2, 1), (1,)), ParamSet.default(2, 4)
    gamma = gamma_coeffs(lam, ps)
    assert gamma_path_independent(lam, ps, gamma) and all(gamma.values())
    for t in gamma:
        assert not gamma_path_independent(lam, ps, {**gamma, t: 2 * gamma[t]}), t
    descents = hecke._descents
    s = next(s for s in gamma if hecke._order(lam).descents[s])

    def inverted(mu, v, ps):
        for i, (t, ratio) in enumerate(descents(mu, v, ps)):
            yield t, 1 / ratio if (v, i) == (s, 0) else ratio

    monkeypatch.setattr(hecke, "_descents", inverted)
    assert not gamma_path_independent(lam, ps, gamma_coeffs(lam, ps))


def test_gamma_closed_form_reads_the_nodes_below(monkeypatch):
    # negating the row and component of every node turns "below" into
    # "above" in the step factors of a step table filled from here on; the
    # contents read each node as it was, so they stay as they are, and the
    # products then differ from the reference
    steps_from, int_content = combinat.steps_from, params.int_content
    for r, n in ((2, 3), (3, 3), (1, 4)):
        ps = ParamSet.default(r, n)
        want = {lam: gamma_by_descents(lam, ps) for lam in combinat.multipartitions(r, n)}
        assert all(gamma_coeffs(lam, ps) == g for lam, g in want.items())
        monkeypatch.setattr(combinat, "steps_from", lambda mu: {
            nu: ((-i, j, -s), removed) for nu, ((i, j, s), removed) in steps_from(mu).items()})
        monkeypatch.setattr(params, "int_content", lambda node, removed, ps: (
            int_content((-node[0], node[1], -node[2]), removed, ps)))
        fresh = ParamSet(ps.u)
        assert any(gamma_coeffs(lam, fresh) != g for lam, g in want.items()), (r, n)
        monkeypatch.undo()


def test_gamma_coeffs_fill_whole_step_tables():
    # a standard tableau only adds nodes, yet each step table its gamma
    # reads is whole: a factor for every step out of the shape, h an int
    # pair, and the table the same as the one a build fills at those roots
    for r, n in ((2, 3), (1, 4)):
        ps = ParamSet.default(r, n)
        for lam in combinat.multipartitions(r, n):
            gamma_coeffs(lam, ps)
        assert ps.steps, (r, n)
        fresh = ParamSet(ps.u)
        build_all(fresh, n)
        for mu, st in ps.steps.items():
            assert list(st.g) == list(combinat.steps_from(mu)), mu
            assert len(st.h) == 2 and all(type(x) is int for x in st.h), mu
            assert fresh.steps[mu] == st, mu


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
        el = from_monomials(H, fr)
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
        assert _canonical(got) and by_monomial(H, got) == ref.act_sum(fr, wsum)
        total = {}
        for (c, _), part in zip(wsum, parts):
            for key, x in by_monomial(H, part).items():
                total[key] = total.get(key, 0) + c * x
        assert by_monomial(H, got) == {k: x for k, x in total.items() if x}


def _decoded(H, el) -> Element:
    """An int element keyed by index, keyed by its monomials instead."""
    return Element({H.keys[i]: c for i, c in el.terms.items()}, el.den)


def _encoded(H, el) -> Element:
    """An int element keyed by monomial, keyed by their indices instead."""
    return Element({H.key_index[key]: c for key, c in el.terms.items()}, el.den)


@pytest.mark.parametrize("r,n", [(1, 3), (3, 2), (1, 4), (2, 3), (2, 4)])
def test_int_keys_equal_the_tuple_reference(r, n):
    # the algebra keyed by monomial index against the one keyed by the
    # monomials themselves, entry for entry: the key list, every Murphy
    # element and the Murphy matrix, the coordinates of every distinct Gram
    # product (those of the elements, unit vectors, are checked on their
    # own above), and every Gram matrix, over the
    # reference root sets and roots where a content gap vanishes.  The
    # Murphy basis exists at any roots, so there no path raises and some
    # Gram matrix is singular; what does raise, a letter out of range,
    # raises the same error in both
    singular = 0
    for u in root_sets("int-keys", r) + DEGENERATE_U[r]:
        ps = ParamSet.from_u(u)
        mb, ref = MurphyBasis(HeckeAlgebra(ps, n)), TupleMurphyBasis(TupleHecke(ps, n))
        H = mb.H
        for bad in (("S", n), ("X", n + 1, 1), ("E", 1)):
            with pytest.raises(ValueError) as want:
                ref.H.act(ref.H.one(), (bad,))
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                H.act(H.one(), (bad,))
        assert mb.keys == H.keys == ref.keys and H.key_index == ref.key_index
        assert mb.triples == ref.triples
        assert [_decoded(H, el) for el in mb.elements] == ref.elements, u
        assert mb.matrix == ref.matrix, u
        products = []
        for lam in combinat.multipartitions(r, n):
            tl = combinat.t_lambda(lam)
            stds = combinat.standard_tableaux(lam)
            distinct = {}
            for s in stds:
                left = ref.elements[ref.triple_index[lam, tl, s]]
                for t in stds:
                    x = ref.H.act(left, hecke.shape_words(lam).words[t][0])
                    distinct[x.den, frozenset(x.terms.items())] = x
            products += [ref.H.act_factors(x, (), *murphy_factors(ps, lam, tl, tl)[1:])
                         for x in distinct.values()]
            got = gram_matrix(mb, lam)
            assert got == tuple_gram_matrix(ref, lam), (u, lam)
            singular += _linalg.det(got) == 0
        for el in products:
            assert coordinates(mb, _encoded(H, el)) == ref.coords(el), (u, el)
    assert singular > 0 if DEGENERATE_U[r] else singular == 0


def _distinct_inputs(mb, lam) -> int:
    """The number of distinct elements m_{t^lam s} T_{d(t)}* over the pairs
    (s, t), formed in the tuple reference."""
    ref = TupleMurphyBasis(TupleHecke(mb.H.ps, mb.H.n))
    tl = combinat.t_lambda(lam)
    words = hecke.shape_words(lam).words
    stds = combinat.standard_tableaux(lam)
    return len({(x.den, frozenset(x.terms.items()))
                for s in stds for t in stds
                for x in [ref.H.act(ref.elements[ref.triple_index[lam, tl, s]], words[t][0])]})


@pytest.mark.parametrize("r,n,distinct,pairs", [(2, 3, 24, 48), (2, 4, 116, 384)])
def test_gram_evaluates_the_middle_once_per_distinct_input(r, n, distinct, pairs,
                                                           monkeypatch):
    # a Gram matrix applies M_lam once to each distinct input element, not
    # once per pair (s, t): 24 of the 48 pairs at (2,3), 116 of 384 at (2,4)
    calls = []
    act_factors = HeckeAlgebra.act_factors
    monkeypatch.setattr(HeckeAlgebra, "act_factors",
                        lambda self, el, *fs: calls.append((el.den, frozenset(el.terms.items())))
                        or act_factors(self, el, *fs))
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("distinct", r, n))):
        mb = MurphyBasis(HeckeAlgebra(ps, n))
        total = 0
        for lam in combinat.multipartitions(r, n):
            calls.clear()
            gram_matrix(mb, lam)
            assert len(calls) == len(set(calls)) == _distinct_inputs(mb, lam), (ps.u, lam)
            total += len(calls)
        assert total == distinct and len(mb.elements) == pairs, ps.u


def test_a_gram_memo_keyed_by_the_column_alone_is_caught(monkeypatch):
    # keying the products by the tableau t alone, so that every row reads
    # the first row's products, makes some Gram matrix differ from the
    # reference: the comparison above sees a memo that is too coarse
    ps = ParamSet.default(2, 3)
    mb, ref = MurphyBasis(HeckeAlgebra(ps, 3)), TupleMurphyBasis(TupleHecke(ps, 3))
    shapes = combinat.multipartitions(2, 3)
    assert all(gram_matrix(mb, lam) == tuple_gram_matrix(ref, lam) for lam in shapes)
    for lam in shapes:
        d = len(combinat.standard_tableaux(lam))
        column = itertools.count()
        monkeypatch.setattr(hecke, "_input_key", lambda el: next(column) % d)
        if gram_matrix(mb, lam) != tuple_gram_matrix(ref, lam):
            break
    else:
        raise AssertionError("a memo keyed by t alone went unseen")
