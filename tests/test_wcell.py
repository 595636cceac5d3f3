"""Census of regular monomials, the block realization, cellular words, and
the block-triangular rank certificate."""

import json
import random
from fractions import Fraction

import pytest

from support import (
    FractionRealization, as_fractions, block, blocks_as_fractions,
    cell_indices, cell_triples, cellular_family_vectors, contraction_murphy_commute_residual, derived_omega,
    cyclotomic_word_sum, evaluate_word, filtration_index, from_dense, gammas,
    hecke_pairing_residual, is_root_shift, murphy_words, reference_words, root_sets, seeded_u, star, star_word,
    star_word_sum, terms, unshared_rank_report, vec, word_sum_mul,
)
import brauer
from brauer import RegularMonomial, enumerate_r_regular, word_for_monomial
from wenzl import _linalg, combinat, hecke, seminormal, wcell
from wenzl.cli import main
from wenzl.params import ParamSet
from wenzl.seminormal import build_all
from wenzl.wcell import (
    Realization, cellular_element, cellular_rank_report, contraction_chain,
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
    one = evaluate_word(real, ())
    assert one.den == 1 and one.rows == _linalg.identity(sum(real.dims))
    assert [block(real, one, b) for b in range(len(real.reps))] == [
        (_linalg.identity(d), 1) for d in real.dims]


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3)])
def test_row_ranges_and_vector_layout(r, n):
    # the row ranges tile [0, sum d) in build_all order, each as long as its
    # model; every element is zero off them, and support.vec lays it out
    # block by block, row by row: entry (i, j) of block b at the sum of the earlier
    # d^2 plus i d + j
    reps = build_all(ParamSet.default(r, n), n)
    real = Realization(reps)
    assert real.shapes == list(combinat.reachable_shapes(r, n))
    ends = [0]
    for (start, end), rep in zip(real.ranges, reps):
        assert start == ends[-1] and end - start == rep.dim
        ends.append(end)
    assert ends[-1] == sum(real.dims)
    words = [(), (("S", 1),), (("E", 1), ("X", 1, r)), (("X", n, 2), ("E", n - 1), ("S", 1))]
    for word in words:
        ev = evaluate_word(real, word)
        assert len(ev.rows) == ends[-1]
        assert all(start <= j < end for start, end in real.ranges
                   for row in ev.rows[start:end] for j in row)
        want, place = {}, 0
        for b, d in enumerate(real.dims):
            blk = block(real, ev, b)
            assert blk.den == ev.den and len(blk.rows) == d
            want.update((place + i * d + j, x)
                        for i, row in enumerate(blk.rows) for j, x in row.items())
            place += d * d
        assert vec(real, ev) == want, word
        assert place == r ** n * combinat.double_factorial(2 * n - 1)


def test_letter_validation():
    real = Realization(build_all(ParamSet.default(2, 2), 2))
    for bad in (("S", 2), ("E", 0), ("X", 3, 1), ("Q", 1)):
        with pytest.raises((ValueError, KeyError)):
            evaluate_word(real, (bad,))


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
        fwd = blocks_as_fractions(real, evaluate_word(real, word))
        rev = blocks_as_fractions(real, evaluate_word(real, star_word(word)))
        for a, b, rep in zip(fwd, rev, real.reps):
            assert b == adjoint(a, gammas(rep))


def test_unwrapping_word_sum():
    ps = ParamSet.default(2, 2)
    real = Realization(build_all(ps, 2))
    for a, omega_a in enumerate(derived_omega(ps, 3)):
        terms = ((F(1), (("E", 1), ("X", 1, a), ("E", 1))),
                 (-omega_a, (("E", 1),)))
        ev = real.evaluate_sum(terms)
        for b, d in enumerate(real.dims):
            assert block(real, ev, b).rows == _linalg.zeros(d)


def test_cyclotomic_word_sum_vanishes():
    for r, n in ((1, 2), (2, 2), (2, 3)):
        ps = ParamSet.default(r, n)
        real = Realization(build_all(ps, n))
        ev = real.evaluate_sum(cyclotomic_word_sum(ps))
        for b, d in enumerate(real.dims):
            assert block(real, ev, b).rows == _linalg.zeros(d)


def test_monomial_family_has_full_rank():
    for r, n in ((1, 2), (2, 2), (1, 3), (3, 2), (2, 3), (1, 4)):
        ps = ParamSet.default(r, n)
        real = Realization(build_all(ps, n))
        vecs = [vec(real, evaluate_word(real, word_for_monomial(m)))
                for m in enumerate_r_regular(r, n)]
        size = sum(d * d for d in real.dims)
        assert (len(vecs), _linalg.rank(vecs)) == (size, size)


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
    blk = real.shapes.index(empty)
    for a in triples:
        for b in triples:
            ab = cellular_element(ps, 2, 1, empty, a, b)
            ba = cellular_element(ps, 2, 1, empty, b, a)
            left = as_fractions(block(real, real.evaluate_sum(terms(star(ab))), blk))
            right = as_fractions(block(real, real.evaluate_sum(terms(ba)), blk))
            fwd = as_fractions(block(real, real.evaluate_sum(terms(ab)), blk))
            assert left == right == adjoint(fwd, gammas(real.reps[blk]))
            assert star(ab).left == ab.right and star(ab).right == ab.left


def test_cellular_word_transpose_everywhere():
    ps = ParamSet.default(2, 2)
    real = Realization(build_all(ps, 2))
    for shape, arcs in ((combinat.empty_mp(2), 1), ((((1,), (1,))), 0)):
        triples = cell_triples(2, 2, arcs, shape)
        for a in triples[:3]:
            for b in triples[:3]:
                cw = cellular_element(ps, 2, arcs, shape, a, b)
                fwd = blocks_as_fractions(real, real.evaluate_sum(terms(cw)))
                rev = blocks_as_fractions(real, real.evaluate_sum(star_word_sum(terms(cw))))
                for x, y, rep in zip(fwd, rev, real.reps):
                    assert y == adjoint(x, gammas(rep))


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
    return ParamSet.from_u(tuple(k * x + delta for x in combinat.default_u(r, n)))


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (4, 2), (1, 4), (2, 3)])
def test_factored_vectors_equal_expansion(r, n):
    # the reference evaluates A_a M B_b from factors, as the report does;
    # every vector of the family must equal the evaluation of the element's
    # expanded word sum, and the factor form of star(cw) must expand to the
    # starred word sum
    rng = random.Random(f"factored:{r}:{n}")
    for ps in (ParamSet.default(r, n), _drawn_params(r, n, rng),
               _drawn_params(r, n, rng)):
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
                        want.append(vec(real, real.evaluate_sum(expanded)))
                        starred = terms(star(cw))
                        expected = star_word_sum(expanded)
                        assert len(starred) == len(expected)
                        assert ({w: c for c, w in starred}
                                == {w: c for c, w in expected})
        assert cellular_family_vectors(ps, n) == want, (r, n, ps.u)


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
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n))):
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
                        assert blocks_as_fractions(real, ev) == want, (ps.u, a, b)
                        vecs.append(vec(real, ev))
                        ref_vecs.append(ref.vec(want))
                        assert all(type(x) is int for x in vecs[-1].values())
                        assert {i: F(x, ev.den) for i, x in vecs[-1].items()} == ref_vecs[-1]
        target = r ** n * combinat.double_factorial(2 * n - 1)
        assert _linalg.rank(vecs) == _linalg.rank(ref_vecs) == target, ps.u


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (4, 2), (2, 3), (1, 4)])
def test_certified_rank_equals_the_reference_rank(r, n):
    # the block-triangular certificate proves the rank that eliminating the
    # whole family gives, at the default, the reference and the stream's
    # roots; roots outside the regime end both in the same error
    rng = random.Random(f"certified:{r}:{n}")
    for ps in (ParamSet.default(r, n),
               *(ParamSet.from_u(u) for u in root_sets("certified", r) if len(u) == r),
               _drawn_params(r, n, rng), _drawn_params(r, n, rng)):
        try:
            want = _linalg.rank(cellular_family_vectors(ps, n))
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                cellular_rank_report(ps, n)
            assert str(got.value) == str(e), ps.u
            continue
        rpt = cellular_rank_report(ps, n)
        assert rpt["rank"] == want == rpt["target"] == rpt["count"], ps.u


def _cellrank_job(r, n, tmp_path):
    out = tmp_path / "out.jsonl"
    rc = main(["cellrank", "--r", str(r), "--n", str(n), "--out", str(out)])
    return rc, [json.loads(line) for line in out.read_text().splitlines()]


def _middle_replaced(middle):
    """murphy_factors with the Murphy middle M replaced by middle(M)."""
    def factors(ps, shape, s, t):
        left, m, right = hecke.murphy_factors(ps, shape, s, t)
        return left, middle(m), right
    return factors


def _without_root_shifts(middle):
    """The Murphy middle without its root-shift factors X_k - u_i, told by
    their form: the coset factors of the row-stabilizer sum stay."""
    return tuple(f for f in middle if not is_root_shift(f))


@pytest.mark.parametrize("r,n,reference_rank,cell", [
    (2, 2, 6, "cell (arcs=0, shape=((1,), (1,)))"),
    (3, 2, 11, "cell (arcs=0, shape=((1,), (1,), ()))"),
    (2, 3, 42, "cell (arcs=0, shape=((2,), (1,)))"),
])
def test_broken_core_is_caught(r, n, reference_rank, cell, monkeypatch, tmp_path):
    # without its root-shift factors X_k - u_i the Murphy middle is no
    # longer rank one on its own block: the family loses rank, and the job
    # fails instead of reporting a rank
    monkeypatch.setattr(wcell, "murphy_factors", _middle_replaced(_without_root_shifts))
    ps = ParamSet.default(r, n)
    assert _linalg.rank(cellular_family_vectors(ps, n)) == reference_rank
    rc, records = _cellrank_job(r, n, tmp_path)
    assert rc == 1 and len(records) == 1
    assert records[0]["kind"] == "error" and records[0]["pass"] is False
    assert records[0]["error"] == f"ValueError: own block of {cell} does not factor as u w^T"


def test_own_factors_checks_every_row_exactly():
    # w is the first nonzero row, u_a the column at w's first entry; a row
    # on other columns, or on the same ones but not a multiple of w, fails
    us, w = wcell._own_factors([[{}, {0: 2, 2: -4}], [{0: F(1, 3), 2: F(-2, 3)}, {}]], "c")
    assert w == {0: 2, 2: -4} and us == [{1: 2}, {0: F(1, 3)}]
    for bad in ([{0: 1, 2: -2}, {0: 1, 2: -3}], [{0: 1, 2: -2}, {0: 1}],
                [{0: 1, 2: -2}, {0: 1, 1: 1, 2: -2}]):
        with pytest.raises(ValueError, match=r"^own block of c does not factor as u w\^T$"):
            wcell._own_factors([[{}], bad], "c")


@pytest.mark.parametrize("r,n,middle,error", [
    # no middle: each cell at two strands and r = 1 is one 1 x 1 block,
    # which factors, and the two shapes of size 2 reach each other's block
    (1, 2, lambda m: (), "the supports form a cycle: cell (arcs=0, shape=((2,),)) "
                        "-> cell (arcs=0, shape=((1, 1),)) -> cell (arcs=0, shape=((2,),))"),
    # no middle on a 2 x 2 own block: the left words alone have full rank there
    (2, 2, lambda m: (), "own block of cell (arcs=0, shape=((1,), (1,))) "
                         "does not factor as u w^T"),
    # a zero middle: no element of the first cell reaches any block
    (2, 2, lambda m: ((),), "own block outside the support of "
                            "cell (arcs=0, shape=((2,), ()))"),
])
def test_failed_certificate_ends_in_a_named_error(r, n, middle, error, monkeypatch, tmp_path):
    monkeypatch.setattr(wcell, "murphy_factors", _middle_replaced(middle))
    rc, records = _cellrank_job(r, n, tmp_path)
    assert rc == 1 and len(records) == 1
    assert records[0]["kind"] == "error" and records[0]["pass"] is False
    assert records[0]["error"] == f"ValueError: {error}"


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (4, 2), (2, 3), (1, 4)])
def test_report_equals_the_unshared_reference(r, n):
    # held words, shared middle prefixes, words taken letter by letter and
    # coset factors give the report that nothing shared gives, at every root
    # set of support.root_sets with r roots; roots outside the regime end
    # both in the same error
    for u in (u for u in root_sets("unshared", r) if len(u) == r):
        ps = ParamSet.from_u(u)
        try:
            want = unshared_rank_report(ps, n)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                cellular_rank_report(ps, n)
            assert str(got.value) == str(e), u
            continue
        assert cellular_rank_report(ps, n) == want, u


@pytest.mark.parametrize("r,n,middle", [
    (2, 2, _without_root_shifts), (3, 2, _without_root_shifts), (2, 3, _without_root_shifts),
    (1, 2, lambda m: ()), (2, 2, lambda m: ()), (2, 2, lambda m: ((),)),
])
def test_broken_core_errors_equal_the_unshared_reference(r, n, middle, monkeypatch):
    # a broken middle ends the shared report in the error that the unshared
    # one, given the same middle over the expanded row sum, ends in
    ps = ParamSet.default(r, n)
    with pytest.raises(ValueError) as want:
        unshared_rank_report(ps, n, middle)
    monkeypatch.setattr(wcell, "murphy_factors", _middle_replaced(middle))
    with pytest.raises(ValueError) as got:
        cellular_rank_report(ps, n)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4), (3, 2)])
def test_evaluate_product_holds_each_prefix(r, n, monkeypatch):
    # every Murphy middle of (r, n) equals its Fraction-row evaluation; each
    # distinct factor is evaluated once, however many distinct prefixes end
    # in it, and a second pass over held prefixes hashes no Fraction
    ps = ParamSet.default(r, n)
    real = Realization(build_all(ps, n))
    ref = FractionRealization(real.reps)
    evaluated = []
    evaluate_sum = Realization.evaluate_sum

    def counted(self, terms):
        evaluated.append(terms)
        return evaluate_sum(self, terms)

    monkeypatch.setattr(Realization, "evaluate_sum", counted)
    middles = [hecke.murphy_middle(ps, shape)
               for m in range(n + 1) for shape in combinat.multipartitions(r, m)]
    products = [real.evaluate_product(middle) for middle in middles]
    for middle, product in zip(middles, products):
        assert blocks_as_fractions(real, product) == ref.evaluate_product(middle)
    factors = {terms for middle in middles for terms in middle}
    prefixes = {middle[:k] for middle in middles for k in range(1, len(middle) + 1)}
    assert len(evaluated) == len(factors) <= len(prefixes) < sum(len(middle) for middle in middles)
    monkeypatch.setattr(F, "__hash__", lambda self: pytest.fail("a Fraction was hashed"))
    again = [real.evaluate_product(middle) for middle in middles]
    assert all(x is y for x, y in zip(again, products)) and len(evaluated) == len(factors)


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4)])
def test_words_taken_letter_by_letter_equal_the_evaluated_words(r, n, monkeypatch):
    # word · x and x · word, one stacked letter at a time, equal the products
    # with the evaluated words exactly, and words next to each other share
    # the steps of their common end
    ps = ParamSet.default(r, n)
    real = Realization(build_all(ps, n))
    x = real.evaluate_sum(((F(1), (("S", 1),)), (F(-2, 3), (("X", n, 1),))))
    base = (("S", 1), ("E", 2), ("X", 1, r))
    words = [(), base, base + (("S", 2),), base + (("E", 1), ("S", 1)),
             base + (("X", 2, 1), ("S", 2), ("E", 1))]
    for word in words:
        evaluate_word(real, word)  # every letter stacked before the steps are counted
    lefts = [word[::-1] for word in words]
    steps = []
    mul = seminormal.mul
    monkeypatch.setattr(seminormal, "mul", lambda a, b: steps.append(1) or mul(a, b))
    got_left, got_right = real.words_times(lefts, x), real.times_words(x, words)
    # base is taken once per side, then only each word's own letters
    assert len(steps) == 2 * (3 + 1 + 2 + 3)
    monkeypatch.undo()
    assert got_left == [seminormal.mul(evaluate_word(real, word), x) for word in lefts]
    assert got_right == [seminormal.mul(x, evaluate_word(real, word)) for word in words]


def test_cell_words_are_the_assembled_words():
    # the held words of each triple are the words assembled from their parts,
    # and the element reads them; a triple outside the cell is refused
    for r, n in ((1, 4), (2, 3), (3, 2)):
        ps = ParamSet.default(r, n)
        for arcs in range(n // 2 + 1):
            for shape in combinat.multipartitions(r, n - 2 * arcs):
                words = wcell.cell_words(r, n, arcs, shape)
                assert list(words) == list(cell_triples(r, n, arcs, shape))
                for a, (left, right) in words.items():
                    assert (left, right) == reference_words(n, arcs, shape, a, a)
                    cw = cellular_element(ps, n, arcs, shape, a, a)
                    assert (cw.left_word, cw.right_word) == (left, right)
    ps = ParamSet.default(1, 4)
    (t,) = combinat.standard_tableaux(((2,),))
    with pytest.raises(ValueError, match="triples must index the cell"):
        cellular_element(ps, 4, 1, ((2,),), (t, (0,), (1, 2, 3, 4)), (t, (0,), (4, 3, 2, 1)))
