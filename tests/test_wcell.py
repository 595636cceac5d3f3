"""Census of regular monomials, the block realization, and cellular words."""

import random
from fractions import Fraction

import pytest

from support import (
    FractionRealization, as_fractions, cell_indices, cyclotomic_word_sum,
    filtration_index, from_dense, murphy_words, seeded_u, terms, word_sum_mul,
)
import brauer
from brauer import RegularMonomial, enumerate_r_regular, rank_report, word_for_monomial
from wenzl import _linalg, combinat, wcell
from wenzl.params import ParamSet
from wenzl.seminormal import build_all
from wenzl.wcell import (
    Realization, cell_triples, cellular_element, cellular_rank_report,
    contraction_chain, contraction_murphy_commute_residual,
    hecke_pairing_residual, star_word_sum,
)

F = Fraction


def adjoint(block, gamma):
    """G^-1 block^T G for the form G = diag(gamma)."""
    d = len(gamma)
    return from_dense([[block[j].get(i, 0) * gamma[j] / gamma[i]
                                for j in range(d)] for i in range(d)])


def test_census_counts():
    for r, n, want in ((1, 2, 3), (2, 2, 12), (1, 3, 15), (2, 3, 120),
                       (3, 2, 27), (1, 4, 105)):
        monos = enumerate_r_regular(r, n)
        assert len(monos) == want
        assert want == r ** n * combinat.double_factorial(2 * n - 1)
        assert len(set(monos)) == want
        for m in monos:
            assert all(a < r for a in m.left_powers + m.right_powers)


def test_monomial_support_rules():
    c = brauer.contraction_diagram(2, 1, 2)
    # position 1 is the top arc's left endpoint: no left power allowed there
    with pytest.raises(ValueError):
        RegularMonomial((1, 0), c, (1, 0))
    # right powers live on bottom-arc left endpoints only
    with pytest.raises(ValueError):
        RegularMonomial((0, 0), c, (0, 1))
    m = RegularMonomial((0, 1), c, (1, 0))
    assert m.degree == 2
    e = brauer.identity_diagram(2)
    assert RegularMonomial((2, 1), e, (0, 0)).degree == 3
    with pytest.raises(ValueError):
        RegularMonomial((0, 0), e, (1, 0))   # no bottom arc to carry it


def test_monomial_degree_and_words():
    for m in enumerate_r_regular(2, 2):
        word = word_for_monomial(m)
        x_power = sum(letter[2] for letter in word if letter[0] == "X")
        assert x_power == m.degree


def test_realization_layout():
    ps = ParamSet.default(2, 2)
    real = Realization(build_all(ps, 2))
    assert sum(d * d for d in real.dims) == 12
    assert sorted(real.shapes) == sorted(combinat.reachable_shapes(2, 2))
    one = real.evaluate(())
    assert one.den == 1 and one.blocks == [_linalg.identity(d) for d in real.dims]


def test_letter_validation():
    real = Realization(build_all(ParamSet.default(2, 2), 2))
    for bad in (("S", 2), ("E", 0), ("X", 3, 1), ("Q", 1)):
        with pytest.raises((ValueError, KeyError)):
            real.evaluate((bad,))


def test_star_word_transposes():
    # every generator is self-adjoint for diag(gamma), so star is the
    # adjoint on every block, exactly
    ps = ParamSet.default(2, 3)
    real = Realization(build_all(ps, 3))
    words = [
        (("S", 1), ("E", 2)),
        (("X", 1, 1), ("S", 2), ("X", 3, 2)),
        (("E", 1), ("X", 1, 1), ("E", 1), ("S", 2)),
    ]
    for word in words:
        fwd = as_fractions(real.evaluate(word))
        rev = as_fractions(real.evaluate(combinat.star_word(word)))
        for a, b, rep in zip(fwd, rev, real.reps):
            assert b == adjoint(a, rep.gamma)


def test_unwrapping_word_sum():
    ps = ParamSet.default(2, 2)
    real = Realization(build_all(ps, 2))
    for a in range(4):
        terms = ((F(1), (("E", 1), ("X", 1, a), ("E", 1))),
                 (-ps.omega[a], (("E", 1),)))
        for blk, d in zip(real.evaluate_sum(terms).blocks, real.dims):
            assert blk == _linalg.zeros(d)


def test_cyclotomic_word_sum_vanishes():
    for r, n in ((1, 2), (2, 2), (2, 3)):
        ps = ParamSet.default(r, n)
        real = Realization(build_all(ps, n))
        for blk, d in zip(real.evaluate_sum(cyclotomic_word_sum(ps)).blocks, real.dims):
            assert blk == _linalg.zeros(d)


def test_monomial_family_has_full_rank():
    for r, n in ((1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (1, 4)):
        ps = ParamSet.default(r, n)
        real = Realization(build_all(ps, n))
        words = [word_for_monomial(m) for m in enumerate_r_regular(r, n)]
        rpt = rank_report(words, real)
        size = sum(d * d for d in real.dims)
        assert rpt == {"count": size, "rank": size}


def test_word_sum_algebra():
    one_plus_s = ((F(1), ()), (F(1), (("S", 1),)))
    sq = word_sum_mul(one_plus_s, one_plus_s)
    as_dict = {w: c for c, w in sq}
    assert as_dict == {(): F(1), (("S", 1),): F(2),
                       (("S", 1), ("S", 1)): F(1)}
    twice = star_word_sum(star_word_sum(sq))
    assert {w: c for c, w in twice} == as_dict


def test_cell_triples_count_updown():
    for r, n in ((1, 3), (2, 2), (2, 3)):
        for arcs in range(n // 2 + 1):
            for shape in combinat.multipartitions(r, n - 2 * arcs):
                want = (combinat.n_std(shape) * r ** arcs
                        * len(combinat.coset_reps(n, arcs)))
                assert len(cell_triples(r, n, arcs, shape)) == want
    # the full index family squares to the diagram count
    for r, n in ((1, 2), (2, 2), (1, 3), (2, 3)):
        total = 0
        for arcs in range(n // 2 + 1):
            for shape in combinat.multipartitions(r, n - 2 * arcs):
                total += len(cell_triples(r, n, arcs, shape)) ** 2
        assert total == r ** n * combinat.double_factorial(2 * n - 1)
    with pytest.raises(ValueError):
        cell_triples(2, 3, 1, ((2,), ()))


def test_cell_indices_cover():
    idx = cell_indices(2, 2)
    assert len({(c.arcs, c.shape, c.triple) for c in idx}) == len(idx)
    assert sum(1 for c in idx if c.arcs == 1) == 2  # two exponents, one rep


def test_contraction_chain():
    assert contraction_chain(5, 2) == (("E", 4), ("E", 2))
    assert contraction_chain(3, 0) == ()


def test_smallest_cellular_words():
    ps = ParamSet.default(1, 2)
    empty = combinat.empty_mp(1)
    (triple,) = cell_triples(1, 2, 1, empty)
    cw = cellular_element(ps, 2, 1, empty, triple, triple)
    assert terms(cw) == ((F(1), (("E", 1),)),)
    assert filtration_index(cw) == 1

    lam = ((2,),)
    (t0,) = combinat.standard_tableaux(lam)
    trip = (t0, (), (1, 2))
    cw2 = cellular_element(ps, 2, 0, lam, trip, trip)
    assert {w: c for c, w in terms(cw2)} == {(): F(1), (("S", 1),): F(1)}
    assert filtration_index(cw2) == 0


def test_cellular_element_validation():
    ps = ParamSet.default(2, 2)
    lam = ((1,), (1,))
    tabs = combinat.standard_tableaux(lam)
    with pytest.raises(ValueError):
        cellular_element(ps, 2, 1, combinat.empty_mp(2),
                         (tabs[0], (0,), (1, 2)), (tabs[0], (0,), (1, 2)))
    with pytest.raises(ValueError):
        cellular_element(ps, 2, 0, lam, (tabs[0], (0,), (1, 2)),
                         (tabs[1], (), (1, 2)))


def test_filtration_index_raw_words():
    assert filtration_index((("E", 3), ("E", 1))) == 2
    assert filtration_index((("E", 3), ("S", 1), ("E", 1))) == 1
    assert filtration_index((("S", 1), ("X", 1, 1))) == 0
    assert filtration_index((("E", 2), ("E", 4))) == 1


def test_star_swaps_cell_sides_on_own_block():
    ps = ParamSet.default(2, 2)
    real = Realization(build_all(ps, 2))
    empty = combinat.empty_mp(2)
    triples = cell_triples(2, 2, 1, empty)
    blk = real.block_index(empty)
    for a in triples:
        for b in triples:
            ab = cellular_element(ps, 2, 1, empty, a, b)
            ba = cellular_element(ps, 2, 1, empty, b, a)
            left = as_fractions(real.evaluate_sum(terms(ab.star())))[blk]
            right = as_fractions(real.evaluate_sum(terms(ba)))[blk]
            fwd = as_fractions(real.evaluate_sum(terms(ab)))[blk]
            assert left == right == adjoint(fwd, real.reps[blk].gamma)
            assert ab.star().left == ab.right and ab.star().right == ab.left


def test_cellular_word_transpose_everywhere():
    ps = ParamSet.default(2, 2)
    real = Realization(build_all(ps, 2))
    for shape, arcs in ((combinat.empty_mp(2), 1), ((((1,), (1,))), 0)):
        triples = cell_triples(2, 2, arcs, shape)
        for a in triples[:3]:
            for b in triples[:3]:
                cw = cellular_element(ps, 2, arcs, shape, a, b)
                fwd = as_fractions(real.evaluate_sum(terms(cw)))
                rev = as_fractions(real.evaluate_sum(star_word_sum(terms(cw))))
                for x, y, rep in zip(fwd, rev, real.reps):
                    assert y == adjoint(x, rep.gamma)


def test_chain_commutes_with_murphy_product():
    for r, n, arcs, shape in ((2, 2, 1, ((), ())), (1, 3, 1, ((1,),))):
        ps = ParamSet.default(r, n)
        res = contraction_murphy_commute_residual(ps, n, arcs, shape)
        assert res == 0 and isinstance(res, Fraction)


def test_hecke_pairing():
    for r, n in ((1, 2), (2, 2), (1, 3), (2, 3)):
        ps = ParamSet.default(r, n)
        real = Realization(build_all(ps, n))
        for arcs in range(min(n // 2, 1) + 1):
            for shape in combinat.multipartitions(r, n - 2 * arcs):
                res = hecke_pairing_residual(ps, n, arcs, shape, real)
                assert res == 0 and isinstance(res, Fraction), (r, n, arcs, shape, res)


def test_cellular_rank_report_smallest():
    ps = ParamSet.default(1, 2)
    rpt = cellular_rank_report(ps, 2)
    assert rpt["ok"] and rpt["count"] == rpt["rank"] == 3
    assert rpt["target"] == rpt["sum_of_squares"] == 3
    assert {c["arcs"] for c in rpt["cells"]} == {0, 1}


def _drawn_params(r, n, rng):
    """Roots k * default_u + delta, as the benchmark streams draw them."""
    k = rng.choice((1, 2, 4, 8))
    delta = rng.choice((F(0), F(1, 2), F(1, 3), F(2, 7), F(-1, 4)))
    return ParamSet.from_u(tuple(k * x + delta for x in combinat.default_u(r, n)), n)


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (4, 2), (1, 4)])
def test_factored_vectors_equal_expansion(r, n, monkeypatch):
    # the report evaluates A_a M B_b from factors; every vector it ranks must
    # equal the evaluation of the element's expanded word sum, and the
    # factor form of star() must expand to the starred word sum
    ranked = []
    rank_from_vecs = wcell._rank_from_vecs

    def capture(vecs):
        ranked.append(vecs)
        return rank_from_vecs(vecs)

    monkeypatch.setattr(wcell, "_rank_from_vecs", capture)
    rng = random.Random(f"factored:{r}:{n}")
    for ps in (ParamSet.default(r, n), _drawn_params(r, n, rng),
               _drawn_params(r, n, rng)):
        ranked.clear()
        rpt = cellular_rank_report(ps, n)
        assert rpt["rank"] == rpt["target"]
        real = Realization(build_all(ps, n))
        want = []
        for arcs in range(n // 2 + 1):
            for shape in combinat.multipartitions(r, n - 2 * arcs):
                triples = cell_triples(r, n, arcs, shape)
                for a in triples:
                    for b in triples:
                        cw = cellular_element(ps, n, arcs, shape, a, b)
                        expanded = terms(cw)
                        want.append(real.vec(real.evaluate_sum(expanded)))
                        starred = terms(cw.star())
                        expected = star_word_sum(expanded)
                        assert len(starred) == len(expected)
                        assert ({w: c for c, w in starred}
                                == {w: c for c, w in expected})
        assert ranked == [want], (r, n, ps.u)


def test_murphy_words_expand_the_factors():
    ps = ParamSet.default(3, 2)
    real = Realization(build_all(ps, 2))
    for shape in combinat.multipartitions(3, 2):
        for s in combinat.standard_tableaux(shape):
            for t in combinat.standard_tableaux(shape):
                left, middle, right = wcell.murphy_factors(ps, shape, s, t)
                product = real.evaluate_product(
                    (((F(1), left),), *middle, ((F(1), right),)))
                assert as_fractions(product) == as_fractions(
                    real.evaluate_sum(murphy_words(ps, shape, s, t)))


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_cellular_elements_equal_the_fraction_reference(r, n):
    # each element's factors evaluated on ints over one denominator, then
    # converted, equal the Fraction-row evaluation; its vector is the
    # reference vector times den, and the family has the same rank
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n), n)):
        real = Realization(build_all(ps, n))
        ref = FractionRealization(real.reps)
        vecs, ref_vecs = [], []
        for arcs in range(n // 2 + 1):
            for shape in combinat.multipartitions(r, n - 2 * arcs):
                triples = cell_triples(r, n, arcs, shape)
                for a in triples:
                    for b in triples:
                        cw = cellular_element(ps, n, arcs, shape, a, b)
                        factors = (((F(1), cw.left_word),), *cw.middle,
                                   ((F(1), cw.right_word),))
                        ev, want = real.evaluate_product(factors), ref.evaluate_product(factors)
                        assert as_fractions(ev) == want, (ps.u, a, b)
                        vecs.append(real.vec(ev))
                        ref_vecs.append(ref.vec(want))
                        assert all(type(x) is int for x in vecs[-1].values())
                        assert {i: F(x, ev.den) for i, x in vecs[-1].items()} == ref_vecs[-1]
        target = r ** n * combinat.double_factorial(2 * n - 1)
        assert _linalg.rank(vecs) == _linalg.rank(ref_vecs) == target, ps.u
