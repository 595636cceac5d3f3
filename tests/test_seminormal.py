"""Seminormal models: relation residuals, exact identities, module fixtures."""

import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from support import (
    FractionRealization, _relation_residuals, adjointness_reference,
    blocks_as_fractions, branching_blocks, build_rep_reference,
    addable_removable, build_all_evaluated, build_all_reference, check_module, class_sums_reference,
    contraction_identities, derived_omega, distant_commutation_residual, e_diag_reference,
    entries, evaluate_word, evaluated, filled_step_tables, fraction_generators,
    from_dense, gammas, identities_reference, job_residuals, k_neighbors, letter_reference,
    mat_scale, mat_sub, max_abs,
    module_contraction_free, module_fixtures, module_nonsplit, module_rank_one,
    module_realization, mul_fold, restacked_letter, returns_at, root_sets, seeded_u,
    term_by_term_sum, tower_residuals, tower_scalars, two_sided_residuals,
)
from wenzl import _linalg, combinat, hecke, params, seminormal
from wenzl.cli import main
from wenzl.params import ParamSet
from wenzl.seminormal import (
    RELATION_FAMILIES, Diagonal, Evaluated, Realization, build_all,
    build_rep, check_identities, relations,
)

F = Fraction


def test_build_all_shapes_and_dims():
    ps = ParamSet.default(2, 2)
    reps = build_all(ps, 2)
    dims = {rep.shape: rep.dim for rep in reps}
    assert dims == {
        ((), ()): 2,
        ((1,), (1,)): 2,
        ((2,), ()): 1,
        ((1, 1), ()): 1,
        ((), (2,)): 1,
        ((), (1, 1)): 1,
    }
    assert sum(d * d for d in dims.values()) == 12
    for rep in reps:
        assert rep.dim == combinat.count_updown(2, rep.shape)
        assert len(rep.basis) == rep.dim


def test_single_strand():
    ps = ParamSet.default(2, 1)
    reps = build_all(ps, 1)
    assert sorted(rep.shape for rep in reps) == sorted(combinat.multipartitions(2, 1))
    for rep in reps:
        assert rep.dim == 1
        # X_1 acts by the content of the single box
        t = rep.basis[0]
        c = combinat.content_sequence(t, ps.u)[0]
        assert fraction_generators(rep)["X"][0] == from_dense([[c]])


def test_contraction_block_is_omega0():
    ps = ParamSet.default(1, 2)
    for rep in build_all(ps, 2):
        if rep.shape == combinat.empty_mp(1):
            assert fraction_generators(rep)["E"][0] == from_dense([derived_omega(ps, 0)])


def test_generators_are_symmetric():
    # exactly self-adjoint for diag(gamma), every gamma nonzero: a positive
    # form at the default (2, 3) roots; at the default (3, 3) roots
    # (15, -9, 3) a form negative on some blocks, on ((2,), (1,), ())
    # throughout
    forms = {}
    for r in (2, 3):
        for rep in build_all(ParamSet.default(r, 3), 3):
            g = forms[r, rep.shape] = gammas(rep)
            assert len(g) == rep.dim and all(g)
            for M in itertools.chain(*fraction_generators(rep).values()):
                assert all(g[i] * M[i].get(j, 0) == M[j].get(i, 0) * g[j]
                           for i in range(rep.dim) for j in range(rep.dim))
    assert all(x > 0 for (r, _), g in forms.items() if r == 2 for x in g)
    g = forms[3, ((2,), (1,), ())]
    assert len(g) == 3 and all(x < 0 for x in g)


def test_relation_suite_2_3():
    ps = ParamSet.default(2, 3)
    real = Realization(build_all(ps, 3))
    for rep, res in zip(real.reps, job_residuals(real)):
        assert set(res) == set(RELATION_FAMILIES)
        for family, value in res.items():
            assert value == 0, (rep.shape, family, value)


def _table(res: list[dict]) -> list[dict]:
    """The relation families of each block's residuals, without the
    commutations of distant letters that the reference also checks."""
    return [{family: r[family] for family in RELATION_FAMILIES} for r in res]


def _reference(real):
    return [_relation_residuals(*(fraction_generators(rep)[kind] for kind in "SEX"),
                                rep.ps, rep.dim)
            for rep in real.reps]


def _seeded_u(r, n):
    return seeded_u("relations", r, n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_relation_table_equals_the_hand_written_suite(r):
    # the same residual for every family on every block, n <= 4, at the
    # default and at seeded roots; the distant commutations, which the
    # table leaves out, hold on every block
    for n in range(5):
        for ps in (ParamSet.default(r, n), ParamSet.from_u(_seeded_u(r, n))):
            real = Realization(build_all(ps, n))
            want = _reference(real)
            assert _table(job_residuals(real)) == _table(want), (ps.u, n)
            assert not any(res["commutation"] for res in want), (ps.u, n)


def test_relation_table_equals_the_hand_written_suite_on_fixtures():
    # the fixtures are built by hand, not by build_rep, so the reference
    # checks their distant commutations
    for fix in module_fixtures():
        want = _relation_residuals(fix.S, fix.E, fix.X, fix.ps, len(fix.X[0]))
        assert check_module(fix.S, fix.E, fix.X, fix.ps) == _table([want])[0]
        assert want["commutation"] == 0


def _off_model(kind):
    """The (2, 3) realization with one entry of S_1, E_1 or X_1 changed on
    its largest block b; X_1 then has an entry off the diagonal, so its
    powers are no longer diagonal.  Returns (realization, b)."""
    ps = ParamSet.default(2, 3)
    reps = build_all(ps, 3)
    b = max(range(len(reps)), key=lambda i: reps[i].dim)
    rep = reps[b]
    mats = [dict(row) for row in fraction_generators(rep)[kind][0]]
    mats[0][rep.dim - 1] = mats[0].get(rep.dim - 1, 0) + 1
    reps[b] = rep._replace(**{kind: [entries(mats), *getattr(rep, kind)[1:]]})
    return Realization(reps), b


@pytest.mark.parametrize("kind", ["S", "E", "X"])
def test_relation_table_equals_the_hand_written_suite_off_the_model(kind):
    real, b = _off_model(kind)
    got, want = job_residuals(real), _reference(real)
    assert _table(got) == _table(want)
    assert any(got[b].values()) and not any(v for i, res in enumerate(got)
                                            if i != b for v in res.values())
    assert want[b]["commutation"]
    assert not any(res["commutation"] for i, res in enumerate(want) if i != b)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_generators_are_local(r):
    # the premise of the lemma in ``relations``: over root_sets at n <= 5,
    # every nonzero S_k or E_k entry joins t to a tableau s that differs
    # from t at step k alone, and the entry at every such pair, 0 included,
    # is one value per window (t_{k-1}, t_k, t_{k+1}, s_k); every X_j is
    # diagonal, with the content of step j read off t_{j-1} -> t_j
    built, middles = 0, {}
    for u in root_sets("locality", r):
        ps = ParamSet.from_u(u)
        for n in range(2, 6):
            try:
                reps = build_all(ps, n)
            except ValueError:
                continue
            built += 1
            values = {}
            for rep in reps:
                idx = {t: i for i, t in enumerate(rep.basis)}
                for k in range(1, n):
                    for kind in "SE":
                        left = dict(getattr(rep, kind)[k - 1])
                        for t, i in idx.items():
                            # the steps k of the tableaux k_neighbors gives,
                            # which depend on t_{k-1} and t_{k+1} alone
                            ends = combinat.shape_before(t, k), t[k]
                            if ends not in middles:
                                middles[ends] = [s[k - 1] for s in k_neighbors(t, k)]
                            for mid in middles[ends]:
                                x = left.pop((i, idx[t[:k - 1] + (mid,) + t[k:]]), None)
                                window = (kind, k, ends[0], t[k - 1], t[k], mid)
                                assert values.setdefault(window, x) == x, (u, n, window)
                        assert left == {}, (u, n, rep.shape, kind, k)
                for j in range(1, n + 1):
                    contents = {i: params.steps_out(combinat.shape_before(t, j), ps).C[t[j - 1]]
                                for t, i in idx.items()}
                    assert rep.X[j - 1] == {(i, i): (c, ps.q) for i, c in contents.items() if c}
    # of the 28 (u, n), the roots made for n = 3 refuse n = 5 once or twice
    assert built >= 26


@pytest.mark.parametrize("r", [1, 2, 3])
def test_distant_commutations_hold_on_every_built_model(r):
    # the lemma in ``relations``, through the commutations of the
    # hand-written suite: every commutation of distant letters holds
    # exactly on every block at n <= 5, at the default and at seeded roots
    for n in range(2, 6):
        for ps in (ParamSet.default(r, n), ParamSet.from_u(_seeded_u(r, n))):
            for rep in build_all(ps, n):
                gens = fraction_generators(rep)
                assert distant_commutation_residual(*(gens[kind] for kind in "SEX")) == 0, (
                    ps.u, n, rep.shape)


def _int_form(ev) -> bool:
    """ev holds nonzero ints over one positive int denominator."""
    return (type(ev.den) is int and ev.den > 0
            and all(type(x) is int and x for row in ev.rows for x in row.values()))


def _assert_equals_fraction_reference(real):
    # both sides of every relation, and the left side E_k X_k^a E_k of the
    # scalar tower, converted to Fractions, against the Fraction rows
    ref = FractionRealization(real.reps)
    omega = derived_omega(real.ps, real.ps.r + 2)
    for family, lhs, rhs in relations(real.ps, real.n, omega):
        for side in (lhs, rhs):
            ev = real.evaluate_sum(side)
            assert _int_form(ev), (family, side)
            assert blocks_as_fractions(real, ev) == ref.evaluate_sum(side), (family, side)
    for k in range(1, real.n):
        for a in range(real.ps.r + 2):
            word = (("E", k), ("X", k, a), ("E", k))
            ev = evaluate_word(real, word)
            assert _int_form(ev) and blocks_as_fractions(real, ev) == ref.evaluate(word), word


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_int_evaluation_equals_the_fraction_reference(r, n):
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n))):
        _assert_equals_fraction_reference(Realization(build_all(ps, n)))


def _perturbed(real, kind, blocks, rng):
    """real with one entry of one S, E or X generator, at a seeded position,
    raised by 1 on each of ``blocks``."""
    reps = list(real.reps)
    for b in blocks:
        rep = reps[b]
        gens = list(getattr(rep, kind))
        g = rng.randrange(len(gens))
        mats = [dict(row) for row in fraction_generators(rep)[kind][g]]
        i, j = rng.randrange(rep.dim), rng.randrange(rep.dim)
        mats[i][j] = mats[i].get(j, 0) + 1
        if not mats[i][j]:
            del mats[i][j]
        gens[g] = entries(mats)
        reps[b] = rep._replace(**{kind: gens})
    return Realization(reps)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (1, 4)])
def test_fused_residuals_equal_the_two_sided_reference(r, n):
    # each relation as one accumulation of lhs - rhs against both sides
    # evaluated whole and compared block by block: the same exact Fraction
    # per block and family, on the models and with one S, E or X entry
    # raised by 1 in one block or in several, where only those blocks may
    # fail
    rng = random.Random(f"fused:{r}:{n}")
    built = 0
    for u in root_sets("fused", r):
        ps = ParamSet.from_u(u)
        try:
            real = Realization(build_all(ps, n))
        except ValueError:
            continue
        built += 1
        got = job_residuals(real)
        assert got == two_sided_residuals(real), u
        assert all(type(v) is Fraction and v == 0 for res in got for v in res.values()), u
        if built > 2:
            continue
        for kind in "SEX":
            for blocks in ([rng.randrange(len(real.reps))],
                           rng.sample(range(len(real.reps)), 3)):
                bad = _perturbed(real, kind, blocks, rng)
                got = job_residuals(bad)
                assert got == two_sided_residuals(bad), (u, kind, blocks)
                failed = {b for b, res in enumerate(got) if any(res.values())}
                assert failed and failed <= set(blocks), (u, kind, blocks, failed)
    assert built >= 3


def test_sum_residuals_report_the_one_block_that_differs():
    # X_1 less a copy of X_1 changed on block b: every other block of the
    # accumulator cancels to zeros it holds, and the one entry left on b is
    # reported there alone; identity letters are the empty product, and a
    # zero coefficient drops its term
    ps = ParamSet.default(2, 3)
    real = Realization(build_all(ps, 3))
    x1 = evaluate_word(real, (("X", 1, 1),))
    b = max(range(len(real.reps)), key=lambda i: real.dims[i])
    start, _ = real.ranges[b]
    rows = [dict(row) for row in x1.rows]
    rows[start][start] += 7
    assert all(any(x1.rows[lo:hi]) for lo, hi in real.ranges)
    got = real.sum_residuals(((1, [x1]), (-1, [Evaluated(rows, x1.den)])))
    assert got == {b: F(7, x1.den)}
    assert real.factors((("X", 1, 0), ("X", 2, 0))) == []
    one = real.sum_residuals(((F(1, 2), real.factors((("X", 1, 0),))), (F(-1, 3), []),
                              (F(0), [x1])))
    assert one == dict.fromkeys(range(len(real.reps)), F(1, 6))


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4), (3, 3), (2, 1), (3, 1)])
def test_word_sums_equal_the_term_by_term_sum(r, n):
    # the Murphy middle factors of every cell, each evaluated as one int
    # accumulation, against each term formed whole, scaled and merged: the
    # same exact rationals per block.  A zero root shift, X_k - 0, has a
    # zero term, which the accumulator drops; a zero root gives a zero
    # content, its own opposite in the class at the empty shape, so its
    # models build at one strand only
    zero_shift = {1: [], 2: [(5, 0), (F(7, 2), 0)], 3: [(4, -3, 0), (F(9, 2), 0, -3)]}
    built = 0
    for u in root_sets("word-sums", r) + zero_shift[r]:
        ps = ParamSet.from_u(u)
        try:
            real = Realization(build_all(ps, n))
        except ValueError:
            assert n > 1 and 0 in u, u
            continue
        built += 1
        for arcs in range(n // 2 + 1):
            for shape in combinat.multipartitions(r, n - 2 * arcs):
                for terms in hecke.murphy_middle(ps, shape):
                    ev = real.evaluate_sum(terms)
                    assert _int_form(ev), (u, shape, terms)
                    assert blocks_as_fractions(real, ev) == blocks_as_fractions(
                        real, term_by_term_sum(real, terms)), (u, shape, terms)
    assert built == len(root_sets("word-sums", r)) + (len(zero_shift[r]) if n == 1 else 0)


def test_words_equal_the_product_of_their_letters():
    # every word of up to four letters at (2, 3), identity letters X_j^0
    # and a power X_j^2 among them, against the fold of seminormal.mul
    ps = ParamSet.default(2, 3)
    real = Realization(build_all(ps, 3))
    letters = [("S", 1), ("S", 2), ("E", 1), ("E", 2), ("X", 1, 1), ("X", 2, 1),
               ("X", 3, 1), ("X", 1, 0), ("X", 3, 2)]
    for length in range(5):
        for word in itertools.product(letters, repeat=length):
            ev = evaluate_word(real, word)
            assert _int_form(ev) and ev == mul_fold(real, word), word


def _letters(r, n):
    """Every letter at n strands: S_k, E_k and X_j^a for a <= r + 2."""
    return ([(kind, k) for kind in "SE" for k in range(1, n)]
            + [("X", j, a) for j in range(1, n + 1) for a in range(r + 3)])


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4), (3, 3)])
def test_diagonal_letters_sum_as_their_matrices(r, n):
    # every word of up to three letters, the empty word among them, equals
    # the product of its stacked letters (``mul_fold``, here formed once
    # per prefix), and seeded two-term rational sums of them equal each
    # term formed whole, scaled and merged: exactly, at every root set of
    # support.root_sets and, at n = 1, at roots with a zero root, whose X_1
    # has zeros on its diagonal.  In a sum every model's X_j^a is a vector,
    # so these words take each of the kernel's forms: diagonals alone, one
    # matrix between diagonals, a diagonal between two matrices, and
    # longer products with a diagonal folded in
    rng = random.Random(f"diagonal:{r}:{n}")
    coefficients = [F(1), F(-1), F(2, 3), F(-7, 4), F(0)]
    zero = {1: (0,), 2: (5, 0), 3: (4, -3, 0)}[r]
    cases = [(u, n) for u in root_sets("diagonal", r)] + [(zero, 1)]
    for u, m in cases:
        real = Realization(build_all(ParamSet.from_u(u), m))
        words = [w for length in range(4) for w in itertools.product(_letters(r, m), repeat=length)]
        product = {(): mul_fold(real, ())}
        for word in words[1:]:
            product[word] = seminormal.mul(product[word[:-1]], real._letter(word[-1]))
            assert evaluate_word(real, word) == product[word], (u, word)
        for _ in range(60):
            terms = [(rng.choice(coefficients), rng.choice(words)) for _ in range(2)]
            assert blocks_as_fractions(real, real.evaluate_sum(terms)) == blocks_as_fractions(
                real, term_by_term_sum(real, terms)), (u, terms)


def _bent(real, b):
    """real with X_1 of block b given one entry off its diagonal."""
    rep = real.reps[b]
    rows = [dict(row) for row in fraction_generators(rep)["X"][0]]
    rows[0][1] = rows[0].get(1, 0) + 1
    return Realization([rep._replace(X=[entries(rows), *rep.X[1:]])
                        if i == b else x for i, x in enumerate(real.reps)])


def test_a_letter_is_a_vector_only_where_it_is_diagonal():
    # a letter is taken as a vector in a sum exactly where each row of its
    # stacked matrix holds at most its own index, and then as that matrix's
    # diagonal: every X_j^a of the models, and S_1 and E_1 of the nonsplit
    # fixture, are vectors; the fixture's X_j, which is not diagonalizable,
    # and an X_1 given one entry off the diagonal keep the matrix path, and
    # their words still equal the product of their letters
    ps = ParamSet.default(2, 3)
    model = Realization(build_all(ps, 3))
    b = max(range(len(model.reps)), key=lambda i: model.dims[i])
    vectors = []
    for real in (model, _bent(model, b), module_realization(*module_nonsplit())):
        vectors.append(set())
        for letter in _letters(2, real.n):
            ev, factors = real._letter(letter), real.factors((letter,))
            if letter[0] == "X" and letter[2] == 0:
                assert factors == [], letter
            elif all(row.keys() <= {i} for i, row in enumerate(ev.rows)):
                assert factors == [Diagonal([row.get(i, 0) for i, row in enumerate(ev.rows)],
                                            ev.den)], letter
                vectors[-1].add(letter)
            else:
                assert factors == [ev], letter
        for word in itertools.product(_letters(2, real.n), repeat=3):
            assert evaluate_word(real, word) == mul_fold(real, word), word
    x_powers = {("X", j, a) for j in range(1, 4) for a in range(1, 5)}
    assert x_powers <= vectors[0]
    assert vectors[1] & x_powers == {x for x in x_powers if x[1] != 1}
    assert vectors[2] == {("S", 1), ("E", 1)}


def test_verify_relations_multiplies_no_diagonal_letter(monkeypatch):
    # at (2, 3) the relations make 6 matrix products, the prefixes of the
    # six terms of three sparse letters (braid, untwisting and tangle), and
    # 26 sums: 27 relations, less unwrapping at a = 0, which is the
    # contraction-scalar sum at i = 1.  Earlier versions formed each power
    # of X_j and each E_k X_k^a as a product too (21), the scalar tower at
    # k = 1 on its own (44), unwrapping at a = 0 apart (38), the tower at
    # a = 0 for k >= 2 apart (37), the seven distant commutations, which
    # every built model satisfies (36), and the tower at k = 2 for
    # 1 <= a <= 3, which the partial fractions decide (29)
    ps = ParamSet.default(2, 3)
    real = Realization(build_all(ps, 3))
    calls = {"mat_mul": 0, "_accumulate": 0}
    mat_mul, accumulate = _linalg.mat_mul, Realization._accumulate

    def counted_mul(a, b):
        calls["mat_mul"] += 1
        return mat_mul(a, b)

    def counted_accumulate(self, terms):
        calls["_accumulate"] += 1
        return accumulate(self, terms)

    monkeypatch.setattr(_linalg, "mat_mul", counted_mul)
    monkeypatch.setattr(Realization, "_accumulate", counted_accumulate)
    got = job_residuals(real)
    assert calls == {"mat_mul": 6, "_accumulate": 26}
    assert got == two_sided_residuals(real)


def _residuals_one_sum_each(real) -> list:
    """``verify_relations`` with one sum per relation: unwrapping at a = 0
    formed apart from the contraction-scalar relation at i = 1."""
    out = [dict.fromkeys(RELATION_FAMILIES, F(0)) for _ in real.reps]
    omega = derived_omega(real.ps, real.ps.r + 2)
    for family, lhs, rhs in seminormal.relations(real.ps, real.n, omega):
        values = real.sum_residuals([(c, real.factors(word)) for c, word in lhs]
                                    + [(-c, real.factors(word)) for c, word in rhs])
        for b, value in values.items():
            out[b][family] = max(out[b][family], value)
    return out


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 2)])
def test_unwrapping_at_zero_shares_the_contraction_sum(r, n, monkeypatch):
    # E_1 X_1^0 E_1 = omega_0 E_1 is the contraction-scalar relation at
    # i = 1: its one sum leaves every residual as one sum per relation does,
    # on the models, with an S, E or X entry raised by 1 on one block, and
    # with E_1 doubled on a block where it is nonzero, which that sum sees,
    # also where unwrapping is left at a = 0 alone; and one
    # verify_relations makes one sum fewer than it has relations
    e = ("E", 1)

    def unwrapping_at_zero_alone(ps, n, omega):
        return [(family, lhs, rhs) for family, lhs, rhs in relations(ps, n, omega)
                if family != "unwrapping" or lhs == ((1, (e, ("X", 1, 0), e)),)]

    rng = random.Random(f"shared:{r}:{n}")
    for u in root_sets("shared", r):
        ps = ParamSet.from_u(u)
        try:
            real = Realization(build_all(ps, n))
        except ValueError:
            continue
        assert job_residuals(real) == _residuals_one_sum_each(real), u
        for kind in "SEX":
            bad = _perturbed(real, kind, [rng.randrange(len(real.reps))], rng)
            assert job_residuals(bad) == _residuals_one_sum_each(bad), (u, kind)
        b = next(b for b, rep in enumerate(real.reps) if rep.E[0])
        reps = list(real.reps)
        doubled = [{j: 2 * x for j, x in row.items()}
                   for row in fraction_generators(reps[b])["E"][0]]
        reps[b] = reps[b]._replace(E=[entries(doubled), *reps[b].E[1:]])
        bad = Realization(reps)
        for table in (unwrapping_at_zero_alone, relations):
            monkeypatch.setattr(seminormal, "relations", table)
            got = job_residuals(bad)
            assert got == _residuals_one_sum_each(bad), (u, table)
            assert got[b]["contraction-scalar"] and got[b]["unwrapping"], (u, table)
    calls = []
    sum_residuals = Realization.sum_residuals

    def counted(self, terms):
        calls.append(len(terms))
        return sum_residuals(self, terms)

    monkeypatch.setattr(Realization, "sum_residuals", counted)
    job_residuals(real)
    assert len(calls) == len(list(relations(real.ps, n, derived_omega(real.ps, r + 2)))) - 1


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_model_holds_int_blocks(r, n):
    # every generator of every model is held as its nonzero entries, int
    # pairs (num, den) with den > 0 on the model's rows and columns, and
    # cleared alone it is one matrix of int rows over one positive int
    # denominator, with no stored zero
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n))):
        for rep in build_all(ps, n):
            assert (len(rep.S), len(rep.E), len(rep.X)) == (n - 1, n - 1, n)
            for g in (*rep.S, *rep.E, *rep.X):
                assert all(0 <= i < rep.dim and 0 <= j < rep.dim and type(a) is int and a
                           and type(b) is int and b > 0 for (i, j), (a, b) in g.items())
            ev_rep = evaluated(rep)
            for ev in (*ev_rep.S, *ev_rep.E, *ev_rep.X):
                assert len(ev.rows) == rep.dim
                assert _int_form(ev), (ps.u, rep.shape)


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4), (3, 3)])
def test_stacked_letters_equal_the_restacked_generators(r, n):
    # every letter, S_k, E_k and X_j^a for a <= r + 2, cleared once on the
    # stacked basis, is exactly the restack of the models' generators each
    # cleared alone as it was made: the same rows and the same den, in
    # lowest terms; and where the roots are refused, both builds raise the
    # same first error
    built = refused = 0
    for u in (*root_sets("stacked", r), *_BUILD_ERROR_ROOTS[r]):
        ps = ParamSet.from_u(u)
        try:
            want = build_all_evaluated(ParamSet(ps.u), n)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                build_all(ps, n)
            assert str(got.value) == str(e), u
            refused += 1
            continue
        real = Realization(build_all(ps, n))
        for letter in _letters(r, n):
            ev = real._letter(letter)
            assert ev == restacked_letter(want, letter), (u, letter)
            assert math.gcd(ev.den, *(x for row in ev.rows for x in row.values())) == 1
        built += 1
    assert built >= 5 and refused >= (2 if r == 2 else 0)


def _built_all_or_error(build, ps, n):
    """build(ps, n), or the type and text of the ValueError or
    AssertionError it raises."""
    try:
        return build(ps, n)
    except (ValueError, AssertionError) as e:
        return type(e), str(e)


def _assert_equals_the_per_tableau_reference(u, n) -> bool:
    """build_all at the roots u against ``build_all_reference`` at a fresh
    parameter set: the same first error, or each model's shape, basis in
    order and entries in order, and every stacked letter S_k, E_k and X_j
    the reference's restack cleared together, rows, den and diagonal.
    Whether the roots built."""
    ps = ParamSet.from_u(u)
    got, want = (_built_all_or_error(build_all, ps, n),
                 _built_all_or_error(build_all_reference, ParamSet(ps.u), n))
    if isinstance(want, tuple):
        assert got == want, (u, n)
        return False
    assert [(rep.shape, rep.basis) for rep in got] == [(rep.shape, rep.basis) for rep in want]
    for rep, ref in zip(got, want):
        for kind in "SEX":
            assert [list(g.items()) for g in getattr(rep, kind)] == [
                list(g.items()) for g in getattr(ref, kind)], (u, n, rep.shape, kind)
    real = Realization(got)
    for letter in [*_letters(ps.r, n)[:2 * (n - 1)], *(("X", j, 1) for j in range(1, n + 1))]:
        ev, diagonal = letter_reference(want, letter)
        assert real._letter(letter) == ev, (u, n, letter)
        assert real._diagonals.get(letter) == diagonal, (u, n, letter)
    return True


@pytest.mark.parametrize("r", [1, 2, 3])
def test_build_from_the_held_pattern_equals_the_per_tableau_reference(r):
    # the models read off the held root-free pattern, and each letter
    # stacked in one pass, are those built tableau by tableau and cleared
    # model by model: over root_sets at n <= 5 and the roots at which a
    # build raises, the same models and letters, or the same first error
    built = refused = 0
    for u in (*root_sets("pattern", r), *_BUILD_ERROR_ROOTS[r]):
        for n in range(6):
            if _assert_equals_the_per_tableau_reference(u, n):
                built += 1
            else:
                refused += 1
    assert built >= 30 and refused >= (4 if r == 2 else 0), (built, refused)


def test_an_incomplete_basis_raises_as_the_per_tableau_reference(monkeypatch, drop_holds):
    # one walk of each shape dropped: the pattern falls short of
    # count_updown, and build_all raises the reference's AssertionError
    walks = combinat.updown_walks
    monkeypatch.setattr(combinat, "updown_walks", lambda n, shape: walks(n, shape)[1:])
    drop_holds()
    for r, n in ((1, 3), (2, 3), (3, 2)):
        assert not _assert_equals_the_per_tableau_reference(combinat.default_u(r, n), n)
    monkeypatch.undo()
    drop_holds()


def _built_or_error(build, ps, n, shape):
    try:
        return build(ps, n, shape)
    except ValueError as e:
        return str(e)


# roots at which a build raises: opposite contents in a class at (0, 2),
# equal adjacent contents at (0, 1); and roots that the reference refuses for
# positivity alone, a squared off-diagonal below zero at (1/3,) and a
# negative contraction coefficient at (5, 3), where the model is built
_BUILD_ERROR_ROOTS = {1: [(F(1, 3),)], 2: [(0, 2), (5, 3), (0, 1)], 3: []}


def _conjugation_invariants(rep) -> list:
    """What conjugation by an invertible diagonal keeps of a model: its
    basis and X, and for S_k and E_k each diagonal entry and each product
    M_ij M_ji, keyed by the nonzero entries (i, j), so the zero pattern
    too."""
    gens = fraction_generators(rep)
    out = [rep.basis, gens["X"]]
    for M in (*gens["S"], *gens["E"]):
        out.append({(i, j): x if i == j else x * M[j].get(i, 0)
                    for i, row in enumerate(M) for j, x in row.items()})
    return out


def _generic(ps, n) -> bool:
    try:
        build_all(ps, n)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("r,top", [(1, 4), (2, 4), (3, 3)])
def test_build_rep_equals_the_fraction_reference(r, top):
    # the closed model against the reference, the orthonormal model
    # conjugated by diag(sqrt(gamma)) with gamma on a spanning tree: the
    # same invariants of diagonal conjugation, or the same error text where
    # both raise, unless the reference's is a positivity error; and, where
    # build_all accepts the roots, each model self-adjoint for its own
    # gamma, as the window identities certify.  Every reachable shape with
    # n <= top, over the reference root sets and roots outside the regime
    built = beyond = 0
    for u in (*root_sets("build", r), *_BUILD_ERROR_ROOTS[r]):
        ps = ParamSet.from_u(u)
        for n in range(top + 1):
            generic = _generic(ps, n)
            if generic:
                assert "star-symmetry: " not in " ".join(check_identities(ps, n).failures)
            for shape in combinat.reachable_shapes(r, n):
                got = _built_or_error(build_rep, ps, n, shape)
                want = _built_or_error(build_rep_reference, ps, n, shape)
                if isinstance(want, str) and "positivity regime" not in want:
                    assert got == want, (u, n, shape)
                    continue
                if isinstance(want, str):
                    if not generic:
                        continue
                    beyond += 1
                else:
                    built += 1
                    assert _conjugation_invariants(got) == _conjugation_invariants(want), (
                        u, n, shape)
                if not generic:  # a step factor of some gamma is 0 or undefined
                    continue
                assert all(type(g) is Fraction and g for g in gammas(got))
                assert adjointness_reference(got) == 0, (u, n, shape)
    assert built > 0 and (beyond > 0 or not _BUILD_ERROR_ROOTS[r])


def _flipped_swap(rep):
    """rep with the two entries of one swap pair of S_k exchanged, at the
    first k and pair (i, j) where they differ: the swap taken the other
    way round."""
    for k, M in enumerate(fraction_generators(rep)["S"]):
        M = [dict(row) for row in M]
        for i, row in enumerate(M):
            for j, x in row.items():
                if i != j and M[j].get(i, 0) not in (0, x):
                    M[i][j], M[j][i] = M[j][i], x
                    return rep._replace(S=[*rep.S[:k], entries(M), *rep.S[k + 1:]])
    raise AssertionError(f"no swap pair with unequal entries in {rep.shape}")


def _scaled_step_factor(monkeypatch, mu, nu):
    # the step factor of mu -> nu times 2, in every table read from here on
    steps_out = params.steps_out

    def scaled(shape, ps, **kw):
        st = steps_out(shape, ps, **kw)
        if shape != mu or nu not in st.g:
            return st
        num, den = st.g[nu]
        return st._replace(g={**st.g, nu: (2 * num, den)})

    monkeypatch.setattr(params, "steps_out", scaled)


def _failed(real) -> set:
    """(shape, family) of each relation residual that is not 0, and (None,
    family) of each identity family with a failure."""
    failed = {(None, f.split(":")[0]) for f in check_identities(real.ps, real.n).failures}
    return failed | {(rep.shape, family)
                     for rep, res in zip(real.reps, job_residuals(real))
                     for family, value in res.items() if value}


def test_flipping_one_swap_leaves_a_residual():
    # the entries p and p_s of a swap between two tableaux are no
    # symmetric pair: exchanged, the block fails, and only that block
    ps = ParamSet.default(2, 3)
    reps = build_all(ps, 3)
    b = max(range(len(reps)), key=lambda i: reps[i].dim)
    reps[b] = _flipped_swap(reps[b])
    failed = _failed(Realization(reps))
    assert failed and {shape for shape, _ in failed} == {reps[b].shape}


@pytest.mark.parametrize("mu,nu", [(((1,), ()), ((2,), ())),
                                   (((1,), (1,)), ((), (1,)))])
def test_scaling_one_step_factor_leaves_a_residual(mu, nu, monkeypatch):
    # one step factor twice its value, a step that adds a node and one that
    # removes one: a gamma or an entry reads it, and the model fails
    ps = ParamSet.from_u(seeded_u("scaled-step", 2, 3))
    assert not _failed(Realization(build_all(ps, 3)))
    ps = ParamSet(ps.u)
    _scaled_step_factor(monkeypatch, mu, nu)
    assert _failed(Realization(build_all(ps, 3)))


# the conditions of genericity a build names, each with the shape it fails at
_NAMED_CONDITION = re.compile(
    r"^(equal adjacent contents at k=\d+ from shape|opposite contents in one class at "
    r"k=\d+ from shape|contraction coefficient 0 at k=\d+ from shape|coinciding contents "
    r"out of shape) \(.*\): parameters not generic$")


@pytest.mark.parametrize("r,n,draws", [(1, 3, 60), (1, 4, 60), (2, 3, 60), (3, 3, 25)])
def test_every_residual_vanishes_at_random_roots(r, n, draws):
    # roots p/q, q in {7, 11, 13} and |p| <= 60: where no named condition
    # refuses them, every defining relation and the reference tower are
    # exactly 0, every identity holds, star-symmetry on the windows
    # included, and every held generator is self-adjoint for its gamma; and
    # the reference refuses some of those roots for positivity
    rng = random.Random(f"random-roots:{r}:{n}")
    passed = beyond = 0
    for _ in range(draws):
        u = tuple(F(rng.randint(-60, 60), rng.choice((7, 11, 13))) for _ in range(r))
        ps = ParamSet.from_u(u)
        try:
            real = Realization(build_all(ps, n))
        except ValueError as e:
            assert _NAMED_CONDITION.match(str(e)), (u, str(e))
            continue
        passed += 1
        assert not _failed(real), u
        assert not any(tower_residuals(real, tower_scalars(ps, n))), u
        assert check_identities(ps, n).ok, u
        assert all(adjointness_reference(rep) == 0 for rep in real.reps), u
        try:
            for shape in combinat.reachable_shapes(r, n):
                build_rep_reference(ps, n, shape)
        except ValueError as e:
            assert "positivity regime" in str(e), (u, str(e))
            beyond += 1
    assert passed > draws // 2 and beyond > 0, (passed, beyond)


def test_no_square_root_is_taken(monkeypatch):
    # the model is rational by its formulas: every model builds with the
    # square roots of math raising, at roots inside the positivity regime
    # and beyond it, and where a named condition refuses the roots
    def no_root(x):
        raise AssertionError(f"square root of {x} taken")

    monkeypatch.setattr(math, "isqrt", no_root)
    monkeypatch.setattr(math, "sqrt", no_root)
    for u, n in (((9, -3), 3), ((F(1, 3),), 4), ((F(7, 3), F(-11, 5)), 3),
                 (seeded_u("no-root", 3, 3), 3)):
        assert not _failed(Realization(build_all(ParamSet.from_u(u), n))), u
    for u, n in (((5, 3), 3), ((0, 2), 3)):
        with pytest.raises(ValueError, match=_NAMED_CONDITION):
            build_all(ParamSet.from_u(u), n)


def test_build_rep_raises_on_an_incomplete_basis(monkeypatch):
    # one updown tableau dropped: the basis falls short of count_updown,
    # which raises AssertionError (not an assert statement, so python -O
    # keeps it)
    walks = combinat.updown_walks
    monkeypatch.setattr(combinat, "updown_walks", lambda n, shape: walks(n, shape)[1:])
    shape = ((1,), ())
    with pytest.raises(AssertionError,
                       match=r"^5 updown tableaux of \(\(1,\), \(\)\) at n=3, not 6$"):
        build_rep(ParamSet.default(2, 3), 3, shape)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
def test_star_symmetry_equals_the_fraction_reference(r, n):
    # the window identities, on the coefficients, against every entry of
    # every model in Fractions: both hold, and the windows are those of the
    # reference, which compares gamma of whole tableaux
    for ps in (ParamSet.default(r, n), ParamSet.from_u(_seeded_u(r, n))):
        report, want = check_identities(ps, n), identities_reference(ps, n)
        assert report.ok and report.counts["star-symmetry"] > 0, ps.u
        assert report.counts == want.counts and want.ok, ps.u
        for rep in build_all(ps, n):
            assert adjointness_reference(rep) == 0, (ps.u, rep.shape)


@pytest.mark.parametrize("kind", ["S", "E", "X"])
def test_star_symmetry_off_the_model(kind):
    # the changed entry has no adjoint partner on block b, and only there;
    # the tables are those of the model, so the window identities still
    # hold, and the relations fail on block b alone: self-adjointness is no
    # residual of a model, and its record holds none
    real, b = _off_model(kind)
    got = [adjointness_reference(rep) for rep in real.reps]
    assert got[b] and not any(x for i, x in enumerate(got) if i != b)
    assert check_identities(real.ps, real.n).ok
    res = job_residuals(real)
    assert all("star-symmetry" not in r for r in res)
    assert any(res[b].values()) and not any(v for i, r in enumerate(res) if i != b
                                            for v in r.values())


def test_star_symmetry_counts_a_nonpositive_gamma():
    # the reference: a gamma_i = 0 counts as 1, also where every generator
    # is self-adjoint (the one-dimensional module); a negative gamma_i
    # counts nothing, even where gamma is negative throughout, but a sign
    # that breaks self-adjointness does.  The window identities hold at the
    # default (3, 3) roots, where gamma is negative on a whole block
    cases = ((module_rank_one(), (F(-2, 3),), F(0)),
             (module_rank_one(), (F(0),), F(1)),
             (module_contraction_free(), (F(-1), F(-3)), F(0)),
             (module_contraction_free(), (F(-1, 2), F(1)), F(5, 4)),
             (module_contraction_free(), (F(0), F(1)), F(1)))
    for fix, gamma, expected in cases:
        rep = module_realization(*fix).reps[0]
        assert adjointness_reference(rep, gamma) == expected
    ps = ParamSet.default(3, 3)
    assert any(g < 0 for rep in build_all(ps, 3) for g in gammas(rep))
    report = check_identities(ps, 3)
    assert report.ok and report.counts["star-symmetry"] > 0


def test_int_evaluation_equals_the_fraction_reference_on_fixtures():
    for fix in module_fixtures():
        _assert_equals_fraction_reference(module_realization(*fix))


def _tower_reference(real, scalars) -> list:
    """max |E_k X_k^a E_k - omega_k^(a) E_k| per block, on the Fraction rows,
    with the scalar of each row that of the shape before step k."""
    ref = FractionRealization(real.reps)
    out = [F(0)] * len(real.reps)
    for k in range(1, real.n):
        for a in range(real.ps.r + 2):
            lhs = ref.evaluate((("E", k), ("X", k, a), ("E", k)))
            for i, (blk, ek, rep) in enumerate(zip(lhs, ref.evaluate((("E", k),)), real.reps)):
                ws = [scalars[t[k - 2] if k >= 2 else combinat.empty_mp(rep.ps.r)][a]
                      for t in rep.basis]
                rhs = [mat_scale([row], w)[0] for row, w in zip(ek, ws)]
                out[i] = max(out[i], max_abs(mat_sub(blk, rhs)))
    return out


@pytest.mark.parametrize("kind", ["S", "E", "X"])
def test_int_evaluation_equals_the_fraction_reference_off_the_model(kind):
    real, b = _off_model(kind)
    _assert_equals_fraction_reference(real)
    scalars = tower_scalars(real.ps, real.n)
    got = tower_residuals(real, scalars)
    assert got == _tower_reference(real, scalars)
    assert all(type(x) is Fraction for x in got)
    if kind == "E":  # the changed E_1 breaks the tower on its block only
        assert got[b] and not any(x for i, x in enumerate(got) if i != b)


def test_tower_rows_over_unequal_denominators():
    # at (2, 4), u = (73/3, -23/3), E_3 has rows after the empty shape and
    # after shapes of size 2, whose omega_3^(2) have denominators 1 and 3:
    # the right side of the tower must bring them over one denominator
    ps = ParamSet.from_u((F(73, 3), F(-23, 3)))
    scalars = tower_scalars(ps, 4)
    assert {w[2].denominator for mu, w in scalars.items()
            if combinat.mp_size(mu) in (0, 2)} == {1, 3}
    real = Realization(build_all(ps, 4))
    got = tower_residuals(real, scalars)
    assert got == _tower_reference(real, scalars) == [0] * len(real.reps)


def _class_premise_failures(rep) -> list:
    """Where a model breaks the premise of the proof in
    ``verify_relations``, read off its held entries and the step table: at
    each k, the tableaux t that return to mu, the shape before step k, at
    step k + 1 fall into classes that agree off step k; on each class E_k
    must be 1 e^T, e_s the e of the step s takes out of mu, with E_k 0 on
    every other row, and X_k must be the diagonal of the class's contents.
    Returns ("E", k) and ("X", k) for each letter that breaks it."""
    ps, out = rep.ps, []
    for k in range(1, rep.n):
        classes = {}
        for i, t in enumerate(rep.basis):
            if t[k] == combinat.shape_before(t, k):
                classes.setdefault(t[:k - 1] + t[k:], []).append(i)
        want_e, want_x = {}, {}
        for members in classes.values():
            st = params.steps_out(combinat.shape_before(rep.basis[members[0]], k), ps)
            steps = [rep.basis[j][k - 1] for j in members]
            want_e.update({(i, j): st.e[nu] for i in members for j, nu in zip(members, steps)})
            want_x.update({(i, i): F(st.C[nu], ps.q) for i, nu in zip(members, steps) if st.C[nu]})
        if {key: F(*v) for key, v in rep.E[k - 1].items()} != want_e:
            out.append(("E", k))
        rows = {i for members in classes.values() for i in members}
        if {key: F(*v) for key, v in rep.X[k - 1].items() if key[0] in rows} != want_x:
            out.append(("X", k))
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
def test_each_return_class_of_e_k_is_one_row_repeated(r):
    # the premise of the proof that the partial fractions decide the tower:
    # on every model at n <= 5, over the default and the checking roots,
    # each return class of E_k is 1 e^T with e from the step table, and X_k
    # there is diag of the class's contents
    built = 0
    for n in range(2, 6):
        for u in [combinat.default_u(r, n), *root_sets("class-premise", r)]:
            try:
                reps = build_all(ParamSet.from_u(u), n)
            except ValueError:
                continue
            built += 1
            for rep in reps:
                assert _class_premise_failures(rep) == [], (u, n, rep.shape)
    assert built >= 24


def test_a_class_placed_by_row_breaks_the_premise(monkeypatch):
    # each row of a class given its own e in every column, e 1^T instead of
    # 1 e^T: the premise test fails on the models with a class of two steps
    class_entries = seminormal._class_entries

    def by_row(ps, k, mu):
        rows = class_entries(ps, k, mu)
        return [[(row[p][0], s) for _, s in row] for p, row in enumerate(rows)]

    ps = ParamSet.default(2, 3)
    assert not any(_class_premise_failures(rep) for rep in build_all(ps, 3))
    monkeypatch.setattr(seminormal, "_class_entries", by_row)
    failures = [f for rep in build_all(ParamSet(ps.u), 3) for f in _class_premise_failures(rep)]
    assert failures and {f[0] for f in failures} == {"E"}


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4), (3, 3)])
def test_a_doubled_contraction_coefficient_fails_the_partial_fractions(r, n, monkeypatch):
    # one e_diag result doubled, at a seeded call of a seeded draw of roots:
    # in every draw where the reference tower is not 0, the identities that
    # the job reports fail on w-partial-fractions
    rng = random.Random(f"doubled-e:{r}:{n}")
    e_diag, calls = params.e_diag, []

    def doubled(*args):
        calls.append(None)
        x = e_diag(*args)
        return 2 * x if len(calls) == target else x

    monkeypatch.setattr(params, "e_diag", doubled)
    broken = 0
    for _ in range(40):
        k, d = rng.choice((1, 2, 4, 8)), rng.choice((0, F(1, 2), F(1, 3), F(2, 7)))
        u = tuple(k * x + d for x in combinat.default_u(r, n))
        # the calls of the unchanged job, then the job with one of them doubled
        target, calls, ps = 0, [], ParamSet(u)
        build_all(ps, n)
        check_identities(ps, n)
        target, calls, ps = rng.randrange(1, len(calls) + 1), [], ParamSet(u)
        real = Realization(build_all(ps, n))
        failures = check_identities(ps, n).failures
        if any(tower_residuals(real, tower_scalars(ps, n))):
            broken += 1
            assert any(f.startswith("w-partial-fractions") for f in failures), (u, target)
    assert broken >= 8, broken


@pytest.mark.parametrize("r", [1, 2, 3])
def test_relation_table_covers_every_family(r):
    # a family with no relation in the table would report 0 unchecked
    ps = ParamSet.default(r, 3)
    table = relations(ps, 3, derived_omega(ps, r + 2))
    assert {family for family, _, _ in table} == set(RELATION_FAMILIES)


def test_relation_suite_low_precision_still_passes():
    ps = ParamSet.default(2, 2)
    for res in job_residuals(Realization(build_all(ps, 2))):
        for family, value in res.items():
            assert value == 0


def test_generic_u_rejected_outside_regime():
    # coincident parameters break the genericity the construction needs
    with pytest.raises(ValueError):
        build_all(ParamSet.from_u((F(1), F(1))), 2)


def test_identity_suite():
    ps = ParamSet.default(2, 3)
    report = check_identities(ps, 3)
    assert report.ok and report.failures == []
    assert set(report.counts) == {"w-recursion", "w-partial-fractions", "star-symmetry"}
    assert all(report.counts.values())


def _failed_families(report):
    """The families with a failure; each failure names its position k."""
    assert all("k=" in ctx for ctx in report.failures), report.failures
    return {ctx.split(":")[0] for ctx in report.failures}


def _wrong_contraction_coefficients(monkeypatch):
    # e + 1 for e: twice e would scale both sides of the matching identity
    # (support.contraction_identities)
    e_diag = params.e_diag
    monkeypatch.setattr(params, "e_diag", lambda *args: e_diag(*args) + 1)


def _wrong_closed_form(monkeypatch, shape=None):
    # the first boundary content c + 1 in W's closed form at ``shape``, or
    # at every shape but the empty one, from which Omega is read
    wk_rational = params.wk_rational

    def perturbed(mu, ps):
        num, den = wk_rational(mu, ps)
        if mu == shape or shape is None and any(mu):
            return (num[0] + ps.q, *num[1:]), (den[0] - ps.q, *den[1:])
        return num, den

    monkeypatch.setattr(params, "wk_rational", perturbed)


def _content_shifted_by_q(monkeypatch):
    # c + 1 for the content of the step ((1,), (1,)) -> ((2,), (1,)), read
    # at (2, 3) only as the second step of a swap window and in W there; a
    # step out of a smaller shape meets equal contents or opposite ones
    steps_out = params.steps_out

    def shifted(mu, ps, **kw):
        st = steps_out(mu, ps, **kw)
        if mu != ((1,), (1,)):
            return st
        nu = ((2,), (1,))
        return st._replace(C={**st.C, nu: st.C[nu] + ps.q})

    monkeypatch.setattr(params, "steps_out", shifted)


def _scaled_contraction(monkeypatch, mu, nu):
    # e_nu(mu) twice its value, in every table read from here on
    steps_out = params.steps_out

    def scaled(shape, ps, **kw):
        st = steps_out(shape, ps, **kw)
        return st._replace(e={**st.e, nu: 2 * st.e[nu]}) if shape == mu else st

    monkeypatch.setattr(params, "steps_out", scaled)


def _flipped_swap_sign(monkeypatch, window):
    # p of the swap window (mu, nu, rho) negated, in the model and in the
    # identities
    swap_entry = seminormal.swap_entry

    def flipped(ps, k, mu, nu, rho, nu2, d):
        num, den = swap_entry(ps, k, mu, nu, rho, nu2, d)
        return (-num, den) if (mu, nu, rho) == window else (num, den)

    monkeypatch.setattr(seminormal, "swap_entry", flipped)


_EMPTY, _ONE = ((), ()), ((1,), ())
# each mutation of the coefficients: the identity families and the relation
# families that must fail under it
_MUTATIONS = {
    "step-factor": (lambda mp: _scaled_step_factor(mp, _ONE, ((2,), ())),
                    {"star-symmetry"}, set()),
    "swap-sign": (lambda mp: _flipped_swap_sign(mp, (_EMPTY, _ONE, ((1,), (1,)))),
                  {"star-symmetry"}, set()),
    "contraction": (lambda mp: _scaled_contraction(mp, _EMPTY, _ONE),
                    {"w-partial-fractions"}, {"unwrapping"}),
    "w-content": (lambda mp: _wrong_closed_form(mp, _ONE), {"w-recursion"}, set()),
}


def test_one_swap_window_feeds_the_model_and_the_identities(monkeypatch):
    # p doubled at one window through swap_window alone: the model places it
    # and the identities read it, so star-symmetry fails and so does a
    # relation of the model
    window = (_EMPTY, _ONE, ((1,), (1,)))
    swap_window = seminormal.swap_window

    def scaled(ps, k, *w):
        a, nu2, p = swap_window(ps, k, *w)
        return (a, nu2, (2 * p[0], p[1])) if w == window else (a, nu2, p)

    ps = ParamSet.from_u(seeded_u("mutations", 2, 3))
    assert not _failed(Realization(build_all(ps, 3)))
    monkeypatch.setattr(seminormal, "swap_window", scaled)
    failed = _failed(Realization(build_all(ps, 3)))
    assert (None, "star-symmetry") in failed
    assert any(shape is not None for shape, _ in failed), failed


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_each_mutation_fails_its_check(mutation, monkeypatch):
    # one step factor g scaled, the sign of one swap's p flipped, one e
    # scaled at one step, one boundary content shifted in W's closed form:
    # each fails the check named for it, the window identities fail exactly
    # where some model is not self-adjoint for its gamma, and the scalar
    # tower, which the job no longer checks, exactly where the partial
    # fractions do
    mutate, identities, relations_failed = _MUTATIONS[mutation]
    ps = ParamSet.from_u(seeded_u("mutations", 2, 3))
    assert not _failed(Realization(build_all(ps, 3)))
    mutate(monkeypatch)
    ps = ParamSet(ps.u)
    reps = build_all(ps, 3)
    failed = _failed_families(check_identities(ps, 3))
    assert identities <= failed, failed
    real = Realization(reps)
    res = job_residuals(real)
    assert relations_failed <= {family for r in res for family, v in r.items() if v}
    assert ("star-symmetry" in failed) == any(adjointness_reference(rep) for rep in reps)
    tower = tower_residuals(real, tower_scalars(ps, 3))
    assert ("w-partial-fractions" in failed) == any(tower), tower


def test_identity_suite_fails_on_wrong_contraction_coefficients(monkeypatch):
    # the partial fractions fail, and so do the two identities that the
    # relations of the models decide
    _wrong_contraction_coefficients(monkeypatch)
    ps = ParamSet.default(2, 3)
    failed = _failed_families(check_identities(ps, 3))
    assert "w-partial-fractions" in failed
    assert "w-recursion" not in failed
    assert _failed_families(contraction_identities(ps, 3)) == {
        "contraction-inverse", "swap-contraction-matching"}


@pytest.mark.parametrize("n,mu,nu", [(3, _EMPTY, _ONE), (4, _ONE, ((1,), (1,)))])
def test_untwisting_decides_the_contraction_inverse(n, mu, nu, monkeypatch):
    # e_nu(mu) doubled, so e_nu(mu) e_mu(nu) = 2: the contraction inverse
    # fails at t = (..., mu, nu, mu, nu), and so does untwisting on the
    # models, as the proof in check_identities reads it at (t, t)
    ps = ParamSet.from_u(seeded_u("untwisting", 2, n))
    assert contraction_identities(ps, n).ok
    assert not any(res["untwisting"] for res in job_residuals(Realization(build_all(ps, n))))
    _scaled_contraction(monkeypatch, mu, nu)
    ps = ParamSet(ps.u)
    t = combinat.t_lambda(mu) + (nu, mu, nu)
    assert f"contraction-inverse: t={t}, k={len(t) - 2}" in contraction_identities(ps, n).failures
    assert any(res["untwisting"] for res in job_residuals(Realization(build_all(ps, n))))


def test_tangle_and_involution_decide_the_matching(monkeypatch):
    # e_x(nu) doubled at nu = (1|-), x = (1|1), which no contraction
    # inverse reads out of the empty shape: the matching of
    # t = (nu, x, nu) with u = (nu', empty, nu) fails, and so does tangle
    # or involution on the models, the relations its proof reads
    ps = ParamSet.from_u(seeded_u("matching", 2, 3))
    assert contraction_identities(ps, 3).ok
    x = ((1,), (1,))
    _scaled_contraction(monkeypatch, _ONE, x)
    ps = ParamSet(ps.u)
    report = contraction_identities(ps, 3)
    assert _failed_families(report) == {"swap-contraction-matching"}
    assert f"swap-contraction-matching: t={(_ONE, x, _ONE)}, u={(((), (1,)), _EMPTY, _ONE)}, k=1" \
        in report.failures
    failed = {family for res in job_residuals(Realization(build_all(ps, 3)))
              for family, value in res.items() if value}
    assert failed & {"tangle", "involution"}, failed


def test_identity_suite_fails_on_wrong_closed_form(monkeypatch):
    _wrong_closed_form(monkeypatch)
    report = check_identities(ParamSet.default(2, 3), 3)
    assert "w-recursion" in _failed_families(report)


def test_verify_fails_on_a_closed_form_wrong_at_one_shape(tmp_path, monkeypatch):
    # W wrong at one nonempty shape, which no relation of the job reads:
    # every relations record passes, but the scalar tower there fails, and
    # so the job exits 1 on its identities record, where the partial
    # fractions that decide the tower fail
    _wrong_closed_form(monkeypatch, _ONE)
    out = tmp_path / "out.jsonl"
    assert main(["verify", "--r", "2", "--n", "3", "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    (identities,) = [rec for rec in records if rec["kind"] == "identities"]
    assert not identities["pass"]
    assert {f.split(":")[0] for f in identities["failures"]} == {"w-recursion",
                                                                 "w-partial-fractions"}
    assert all(rec["pass"] for rec in records if rec["kind"] == "relations")
    assert not records[-1]["pass"]
    ps = ParamSet.default(2, 3)
    assert any(tower_residuals(Realization(build_all(ps, 3)), tower_scalars(ps, 3)))


def test_identity_suite_fails_on_a_content_shifted_by_q(monkeypatch):
    _content_shifted_by_q(monkeypatch)
    report = check_identities(ParamSet.default(2, 3), 3)
    assert _failed_families(report) == {"w-recursion"}


@pytest.mark.parametrize("mutate", [_wrong_contraction_coefficients, _wrong_closed_form,
                                    _content_shifted_by_q])
def test_mutated_tables_fail_as_the_fraction_reference_does(mutate, monkeypatch):
    # the identities on the coefficients as held flag the same windows as
    # the Fraction forms: W divided by y, and each swap coefficient a
    # Fraction
    mutate(monkeypatch)
    ps = ParamSet.default(2, 3)
    report, want = check_identities(ps, 3), identities_reference(ps, 3)
    assert report.failures and report.failures == want.failures
    assert report.counts == want.counts


# roots with a zero content, equal adjacent contents or a zero contraction
# coefficient
_DEGENERATE = {1: [(0,), (F(-1, 2),)], 2: [(0, 2), (3, 3), (5, 3)], 3: [(3, 3, 1)]}


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (2, 3), (3, 3), (1, 4)])
def test_identity_suite_equals_the_fraction_reference(r, n):
    # every root set of support.root_sets: the same checked counts and
    # failures; and roots with a zero content, or with equal adjacent
    # contents, end both in the same error
    for u in root_sets("identities", r) + _DEGENERATE[r]:
        ps = ParamSet.from_u(u)
        try:
            want = identities_reference(ps, n)
        except (ValueError, ZeroDivisionError) as e:
            with pytest.raises(type(e)) as got:
                check_identities(ps, n)
            assert str(got.value) == str(e), u
            continue
        report = check_identities(ps, n)
        assert (report.counts, report.failures) == (want.counts, want.failures), u


def _class_sums_defined(ps, mu) -> bool:
    """The contents of the steps out of mu are distinct, no two are
    opposite, none is 0, and every contraction coefficient is nonzero:
    where ``w-partial-fractions`` decides the class sums at mu."""
    C, e, _, _ = params.steps_out(mu, ps)
    cs = list(C.values())
    return len(set(cs)) == len(cs) and not any(-x in cs for x in cs) and all(e.values())


_SMALL_ROOTS = (0, F(1, 2), F(-1, 2), 1, -1, F(3, 2), 2, -2, F(5, 2), 3)


@pytest.mark.parametrize("r,n", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 3)])
def test_the_tower_holds_wherever_the_partial_fractions_do(r, n):
    # the reference tower, at every k and 0 <= a <= r + 1, is 0 on every
    # block wherever check_identities reports no w-partial-fractions
    # failure: over support.root_sets, _DEGENERATE and 60 seeded sets of
    # small roots, wherever every model builds, also where build_all
    # refuses the roots for a zero step factor
    rng = random.Random(f"tower:{r}:{n}")
    small = [tuple(rng.choice(_SMALL_ROOTS) for _ in range(r)) for _ in range(60)]
    checked, refused = 0, 0
    for u in root_sets("tower", r) + _DEGENERATE[r] + small:
        ps = ParamSet.from_u(u)
        try:
            real = Realization([build_rep(ps, n, shape)
                                for shape in combinat.reachable_shapes(r, n)])
            failures = check_identities(ps, n).failures
        except ValueError:
            continue
        if any(f.startswith("w-partial-fractions") for f in failures):
            continue
        checked += 1
        assert tower_residuals(real, tower_scalars(ps, n)) == [0] * len(real.reps), u
        try:
            build_all(ps, n)
        except ValueError:
            refused += 1
    assert checked >= 7 and refused >= ((r, n) == (2, 3)), (checked, refused)


def _built(tag: str, r: int):
    """(ps, n) wherever ``build_all(ps, n)`` passes, 2 <= n <= 4 (n <= 3 at
    r = 3), over ``root_sets``, ``_DEGENERATE`` and 60 seeded sets of small
    roots, which often collide; and the number of (u, n) refused."""
    rng = random.Random(f"{tag}:{r}")
    small = [tuple(rng.choice(_SMALL_ROOTS) for _ in range(r)) for _ in range(60)]
    built, refused = [], 0
    for u in root_sets(tag, r) + _DEGENERATE[r] + small:
        ps = ParamSet.from_u(u)
        for n in range(2, 5 if r < 3 else 4):
            try:
                build_all(ps, n)
            except ValueError:
                refused += 1
                continue
            built.append((ps, n))
    return built, refused


@pytest.mark.parametrize("r", [1, 2, 3])
def test_models_build_only_where_the_class_sums_are_defined(r):
    # the proof that w-partial-fractions decides the class sums needs, at
    # every mu the identities read, distinct contents out of mu, no two
    # opposite nor one 0, and every e nonzero: wherever the models build,
    # that holds
    built, refused = _built("class-sum-domain", r)
    assert built and refused
    for ps, n in built:
        for mu in _shapes(r, n - 2):
            assert _class_sums_defined(ps, mu), (ps.u, n, mu)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_class_sums_follow_from_the_partial_fractions(r):
    # wherever the models build, every class sum holds in Fractions at
    # every mu with |mu| <= n - 2; with one e changed at one such mu, a
    # class sum fails there only where w-partial-fractions fails too
    built, _ = _built("class-sum-proof", r)
    rng = random.Random(f"class-sum-proof:{r}")
    changed = 0
    for ps, n in built:
        for mu in _shapes(r, n - 2):
            st = params.steps_out(mu, ps)
            c = {nu: F(x, ps.q) for nu, x in st.C.items()}
            assert all(lhs is not None and lhs == rhs
                       for *_, lhs, rhs in class_sums_reference(c, st.e)), (ps.u, mu)
            nu = rng.choice(list(st.e))
            delta = rng.choice((1, -1, F(1, 2), F(-2, 3), F(5, 7), -st.e[nu]))
            es = {**st.e, nu: st.e[nu] + delta}
            ps.steps[mu] = st._replace(e=es)
            try:
                holds = seminormal.w_partial_fractions_hold(ps, mu, params.wk_rational(mu, ps))
            finally:
                ps.steps[mu] = st
            if not all(lhs is not None and lhs == rhs
                       for *_, lhs, rhs in class_sums_reference(c, es)):
                changed += 1
                assert not holds, (ps.u, mu, nu, delta)
    assert changed


@pytest.mark.parametrize("r", [1, 2, 3])
def test_contraction_identities_hold_wherever_the_models_build(r):
    # the two identities that left check_identities, in Fractions: wherever
    # the models build, both hold at every window, as the relations that
    # decide them hold there
    built, _ = _built("contraction-identities", r)
    counted = 0
    for ps, n in built:
        report = contraction_identities(ps, n)
        assert report.ok, (ps.u, n, report.failures)
        counted += sum(report.counts.values())
    assert counted


def test_swapped_windows_swap_their_contents():
    # every window mu -> nu -> rho != mu at r <= 3, |mu| <= 4: the window
    # taken in the other order takes the same two (node, removed) steps
    # swapped, so its contents are t's swapped at any roots; a window with
    # no partner adds, or removes, two adjacent nodes of one component, so
    # its contents differ by 1 and its swap coefficient is a unit
    unpaired = 0
    for r in (1, 2, 3):
        tables = [ParamSet.from_u(u) for u in root_sets("content-swap", r)]
        for mu in _shapes(r, 4):
            for nu, step in combinat.steps_from(mu).items():
                for rho, then in combinat.steps_from(nu).items():
                    if rho == mu:
                        continue
                    nu2 = combinat.swap_middle(mu, nu, rho)
                    if nu2 is not None:
                        assert combinat.steps_from(mu)[nu2] == then, (mu, nu, rho)
                        assert combinat.steps_from(nu2)[rho] == step, (mu, nu, rho)
                        for ps in tables:
                            C, C_nu, C_nu2 = (params.steps_out(x, ps).C for x in (mu, nu, nu2))
                            assert (C[nu2], C_nu2[rho]) == (C_nu[rho], C[nu]), (ps.u, mu, nu, rho)
                        continue
                    unpaired += 1
                    ((i, j, s), removed), ((i2, j2, s2), removed2) = step, then
                    assert removed == removed2 and s == s2 and abs(i - i2) + abs(j - j2) == 1
                    for ps in tables:
                        d = params.steps_out(nu, ps).C[rho] - params.steps_out(mu, ps).C[nu]
                        assert d * d == ps.q * ps.q, (ps.u, mu, nu, rho)
    assert unpaired == 952


def test_verify_fails_wrong_contraction_coefficients_through_the_kept_families(
        monkeypatch, tmp_path):
    # e + 1 at every step: the models build, and the job's identities
    # record fails through the partial fractions and self-adjointness; the
    # contraction inverses and the matching, which fail too, fail the
    # relations that decide them, untwisting and tangle or involution
    _wrong_contraction_coefficients(monkeypatch)
    out = tmp_path / "out.jsonl"
    assert main(["verify", "--r", "2", "--n", "3", "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    (identities,) = [rec for rec in records if rec["kind"] == "identities"]
    assert {f.split(":")[0] for f in identities["failures"]} == {
        "w-partial-fractions", "star-symmetry"}
    failed = {family for rec in records if rec["kind"] == "relations"
              for family, value in rec["residuals"].items() if value}
    assert "untwisting" in failed and failed & {"tangle", "involution"}, failed
    assert not records[-1]["pass"]


def test_verify_refuses_a_content_shifted_by_q(monkeypatch, tmp_path):
    # one content shifted by q: the window it ends loses its unit swap
    # coefficient, and the build's own check ends the job before any
    # identity is checked
    _content_shifted_by_q(monkeypatch)
    out = tmp_path / "out.jsonl"
    assert main(["verify", "--r", "2", "--n", "3", "--out", str(out)]) == 1
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["kind"] == "error" and record["error"].endswith("outside the regime")


def test_relation_table_holds_each_signed_sum_once():
    # no relation's signed sum lhs - rhs is another's, nor its negative:
    # S_i S_j and E_i E_j are written once, for i < j, and S_i E_j in both
    # orders, which are two relations
    for r in (1, 2, 3):
        for n in range(7):
            seen = set()
            ps = ParamSet.default(r, n)
            for family, lhs, rhs in relations(ps, n, derived_omega(ps, r + 2)):
                terms = {}
                for c, word in lhs:
                    terms[word] = terms.get(word, 0) + c
                for c, word in rhs:
                    terms[word] = terms.get(word, 0) - c
                key = frozenset((word, c) for word, c in terms.items() if c)
                assert key not in seen, (r, n, family, lhs, rhs)
                assert frozenset((word, -c) for word, c in key) not in seen, (r, n, family)
                seen.add(key)


def test_closed_form_w_taken_once_per_shape(monkeypatch):
    # W's closed form is read off the step table, and no W is held: from_u
    # fills no table, check_identities fills that of every shape of size
    # <= n - 1 once, the empty one too, and tower_scalars and a second pass
    # fill none
    formed = filled_step_tables(monkeypatch)
    ps = ParamSet.default(2, 4)
    assert formed == []
    report = check_identities(ps, 4)
    assert report.ok
    shapes = {mu for size in range(4) for mu in combinat.multipartitions(2, size)}
    assert sorted(formed) == sorted(shapes)
    scalars = tower_scalars(ps, 4)
    assert check_identities(ps, 4).counts == report.counts
    assert sorted(formed) == sorted(shapes) and set(ps.steps) == shapes
    assert not hasattr(ps, "w_at")
    # the tables are no part of the parameter set's value, and a fresh one
    # forms the same scalars
    fresh = ParamSet(ps.u)
    assert fresh == ps and fresh is not ps and hash(fresh) == hash(ps) and fresh.as_json() == ps.as_json()
    assert tower_scalars(fresh, 4) == scalars


def _visited_windows(ps, n):
    """Brute force: every visit of every n-step tableau of every shape,
    reduced to the local data its identity family reads, as sets."""
    seen = {}

    def add(family, key):
        seen.setdefault(family, set()).add(key)

    for lam in combinat.reachable_shapes(ps.r, n):
        for t in combinat.updown_walks(n, lam):
            c = combinat.content_sequence(t, ps.u)
            for k in range(1, n):
                mu = t[k - 2] if k >= 2 else combinat.empty_mp(ps.r)
                if not returns_at(t, k):
                    partner = combinat.sk_action(t, k)
                    # an entry off the diagonal pairs t with its partner
                    if partner is not None and (c[k] - c[k - 1]) ** 2 != 1:
                        add("star-symmetry", (mu, t[k - 1], t[k]))
                    continue
                cls = [s[k - 1] for s in k_neighbors(t, k)]
                for nu in cls:
                    for other in cls:
                        if other != nu:
                            add("star-symmetry", (mu, frozenset((nu, other))))
                add("w-partial-fractions", mu)
                if k > n - 2 or t[k - 1] != t[k + 1]:
                    continue
                add("contraction-inverse", (mu, t[k - 1]))
                for tt in k_neighbors(t, k + 1):
                    if returns_at(tt, k) or combinat.sk_action(tt, k) is None:
                        continue
                    if any(not returns_at(uu, k + 1) and
                           combinat.sk_action(uu, k + 1) ==
                           combinat.sk_action(tt, k)
                           for uu in k_neighbors(t, k)):
                        add("swap-contraction-matching", (mu, t[k - 1], tt[k]))
    return seen


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 3), (2, 4)])
def test_identity_suite_checks_each_window_once(r, n):
    ps = ParamSet.default(r, n)
    report = check_identities(ps, n)
    assert report.ok
    seen = _visited_windows(ps, n)
    # one recursion step per distinct last edge of a walk
    last_edges = {(t[m - 2] if m >= 2 else combinat.empty_mp(r), t[m - 1])
                  for m in range(1, n)
                  for lam in combinat.reachable_shapes(r, m)
                  for t in combinat.updown_walks(m, lam)}
    # the two identities that the relations decide are the reference's,
    # once per window too
    decided = {"contraction-inverse", "swap-contraction-matching"}
    assert report.counts == {"w-recursion": len(last_edges),
                             **{name: len(keys) for name, keys in seen.items()
                                if name not in decided}}
    assert contraction_identities(ps, n).counts == {name: len(keys) for name, keys in seen.items()
                                                    if name in decided}


def test_identity_suite_forms_each_swap_window_once(monkeypatch):
    # t's window and its partner's are one swap_entry each at (2, 4): 80
    # calls for 80 distinct windows, and the report is the reference's
    ps = ParamSet.default(2, 4)
    want, calls, swap_entry = identities_reference(ps, 4), [], seminormal.swap_entry

    def counted(ps, k, mu, nu, rho, nu2, d):
        calls.append((mu, nu, rho))
        return swap_entry(ps, k, mu, nu, rho, nu2, d)

    monkeypatch.setattr(seminormal, "swap_entry", counted)
    report = check_identities(ps, 4)
    assert len(calls) == len(set(calls)) == 80
    assert (report.counts, report.failures) == (want.counts, want.failures)


@pytest.mark.parametrize("r,n,windows", [(2, 4, 80), (2, 3, 18), (3, 3, 54)])
def test_model_and_identities_share_each_swap_window(r, n, windows, monkeypatch):
    # the parameter set holds each window's swap data: one build_all and
    # one check_identities form each window once between them (the parent
    # formed them per k in the model and again in the identities: 264, 46
    # and 144 swap_entry calls), and the model and the report are the ones
    # a fresh parameter set gives each on its own
    ps = ParamSet.default(r, n)
    calls, swap_entry = [], seminormal.swap_entry

    def counted(ps, k, mu, nu, rho, nu2, d):
        calls.append((mu, nu, rho))
        return swap_entry(ps, k, mu, nu, rho, nu2, d)

    monkeypatch.setattr(seminormal, "swap_entry", counted)
    reps, report = build_all(ps, n), check_identities(ps, n)
    assert len(calls) == len(set(calls)) == windows
    assert set(ps.swaps) >= set(calls)
    alone = ParamSet(ps.u)
    assert [rep.S for rep in reps] == [rep.S for rep in build_all(alone, n)]
    want = check_identities(ParamSet(ps.u), n)
    assert (report.counts, report.failures) == (want.counts, want.failures)


def test_a_failing_swap_window_is_held_nowhere():
    # at u = (3, 3) a window out of the empty shape has equal contents: it
    # raises for every caller, the model built twice and then the
    # identities, each with the error a fresh parameter set gives, and the
    # windows held before it stay all that is held
    ps = ParamSet.from_u((3, 3))
    held = []
    for check in (build_all, build_all, check_identities):
        want = _error(lambda: check(ParamSet(ps.u), 3))
        assert "equal adjacent contents at k=1" in want
        assert _error(lambda: check(ps, 3)) == want
        held.append(dict(ps.swaps))
    assert held[0] == held[1]


def _error(call) -> str:
    """The message of the ValueError that ``call`` raises."""
    with pytest.raises(ValueError) as got:
        call()
    return str(got.value)


def test_module_fixtures_exact():
    for fix in module_fixtures():
        res = check_module(fix.S, fix.E, fix.X, fix.ps)
        assert all(v == 0 for v in res.values()), res


def test_nonsplit_fixture_is_not_diagonalizable():
    fix = module_nonsplit()
    q = F(1, 4)
    m = mat_sub(fix.X[0], mat_scale(_linalg.identity(2), q))
    assert m != _linalg.zeros(2)                         # X_1 != q
    assert _linalg.mat_mul(m, m) == _linalg.zeros(2)     # (X_1 - q)^2 == 0


def test_branching_blocks():
    ps = ParamSet.default(2, 3)
    for rep in build_all(ps, 3):
        rpt = branching_blocks(rep)
        assert rpt["sizes_ok"]
        assert rpt["max_offblock"] == 0
        assert sum(rpt["sizes"].values()) == rep.dim


def _shapes(r, top=3):
    return [mu for m in range(top + 1) for mu in combinat.multipartitions(r, m)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_e_diag_equals_the_fraction_reference(r):
    # on ints over q, one Fraction made, against the product of Fractions:
    # every step out of every shape of size <= 3
    for u in root_sets("e-diag", r):
        ps = ParamSet.from_u(u)
        q = ps.q
        assert q > 0 and all((q * x).denominator == 1 for x in ps.u)
        for mu in _shapes(r):
            boundary = addable_removable(mu, ps.u)
            C = tuple(params.steps_out(mu, ps).C.values())
            assert C == tuple(q * c for _, c, _ in boundary) and all(type(x) is int for x in C)
            for x, (_, c, _) in zip(C, boundary):
                got = params.e_diag(x, C, q, r)
                assert type(got) is Fraction
                assert got == e_diag_reference(c, boundary, r), (u, mu, c)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_step_table_equals_content_sequence_and_e_diag(r):
    # every basis tableau with n <= 4: the contents read from the table are
    # q times its content sequence, and the coefficient of each step is
    # the Fraction e_diag at the shape it leaves; build_rep orders its
    # basis by content sequence under the parameter set's own roots
    for n in range(5):
        for u in (combinat.default_u(r, n), seeded_u("table", r, n)):
            ps = ParamSet.from_u(u)
            for lam in combinat.reachable_shapes(r, n):
                for t in combinat.updown_walks(n, lam):
                    cs = combinat.content_sequence(t, ps.u)
                    assert params.contents(ps, t) == tuple(ps.q * c for c in cs)
                    for k in range(1, n + 1):
                        mu = combinat.shape_before(t, k)
                        got = params.steps_out(mu, ps).e[t[k - 1]]
                        assert got == e_diag_reference(
                            cs[k - 1], addable_removable(mu, ps.u), r), (t, k)
            if n <= 3:
                assert [rep.basis for rep in build_all(ps, n)] == [
                    tuple(sorted(combinat.updown_walks(n, lam),
                                 key=lambda t: combinat.content_sequence(t, ps.u)))
                    for lam in combinat.reachable_shapes(r, n)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_step_contents_are_the_cleared_node_contents(r, monkeypatch):
    # every step out of every shape of size <= 4: its content in the step
    # table is the int q u_s + q (j - i), minus that for a removed node, the
    # Fraction of combinat.node_content cleared over q; at the reference
    # roots, at negative and fractional ones, and at roots of hundreds of
    # digits (--u 1e400, and 1e-400, so q = 10^400).  No content is read
    # through node_content, and the only Fraction a table makes is e, one
    # per step
    big = tuple(params.parse_fraction(x) for x in ("1e400", "-1e400", "1e-400"))
    sets = [ParamSet(tuple(map(params.parse_fraction, u))) for u in (
        *root_sets("int-contents", r), tuple(-x - F(2, 9) for x in combinat.default_u(r, 4)),
        big[:r], big[::-1][:r])]
    node_content, made = combinat.node_content, []
    monkeypatch.setattr(combinat, "node_content", lambda *a: pytest.fail("node_content read"))
    monkeypatch.setattr(params, "Fraction", lambda *a: made.append(a) or Fraction(*a))
    for ps in sets:
        made.clear()
        for mu in _shapes(r, 4):
            steps = combinat.steps_from(mu)
            C = params.steps_out(mu, ps).C
            assert list(C) == list(steps) and all(type(x) is int for x in C.values())
            want = [node_content(node, ps.u, removed) for node, removed in steps.values()]
            assert tuple(C.values()) == params.cleared(want, ps.q), (ps.u, mu)
        assert len(made) == sum(len(combinat.steps_from(mu)) for mu in ps.steps), ps.u


@pytest.mark.parametrize("r", [1, 2, 3])
def test_step_factors_equal_the_fraction_products(r):
    # every step out of every shape of size <= 3: a step that adds alpha
    # has the product of c_alpha - c_beta over the nodes beta below alpha,
    # addable ones over removable ones, in Fractions; h is a gradient of e,
    # h(mu) = h(lam) e_mu(lam) at every shape lam one node below mu, not
    # only the one it is taken from; a step that removes a node has
    # h(mu) h(nu) / F(nu -> mu)
    for u in root_sets("step-factors", r):
        ps = ParamSet.from_u(u)
        for mu in _shapes(r):
            st = params.steps_out(mu, ps)
            h = F(*st.h)
            for nu, ((i, j, s), removed) in combinat.steps_from(mu).items():
                if removed:
                    below = params.steps_out(nu, ps)
                    assert h == F(*below.h) * below.e[mu], (u, mu, nu)
                    assert F(*st.g[nu]) == h * F(*below.h) / F(*below.g[mu]), (u, mu, nu)
                    continue
                want = F(1)
                c = combinat.node_content((i, j, s), ps.u)
                for beta, beta_removed in combinat.steps_from(mu).values():
                    if (beta[2], beta[0]) > (s, i):
                        x = c - combinat.node_content(beta, ps.u)
                        want = want / x if beta_removed else want * x
                assert F(*st.g[nu]) == want, (u, mu, nu)


def test_verify_forms_each_coefficient_once(monkeypatch, tmp_path):
    # one verify run fills the step table of each shape of size <= n - 1
    # once, forms e once per step out of each of those shapes, with its contents,
    # and takes no content sequence: the model and the identities share the
    # table
    boundaries = filled_step_tables(monkeypatch)
    coefficients, sequences = [], []
    content_sequence = combinat.content_sequence
    e_diag = params.e_diag

    def counted_sequence(t, u):
        sequences.append(t)
        return content_sequence(t, u)

    def counted_e(C, boundary, q, r):
        coefficients.append((C, boundary))
        return e_diag(C, boundary, q, r)

    monkeypatch.setattr(combinat, "content_sequence", counted_sequence)
    monkeypatch.setattr(params, "e_diag", counted_e)
    assert main(["verify", "--r", "2", "--n", "3", "--out", str(tmp_path / "out.jsonl")]) == 0
    assert sorted(boundaries) == sorted(_shapes(2, 2))
    steps = sum(len(combinat.steps_from(mu)) for mu in _shapes(2, 2))
    assert len(coefficients) == len(set(coefficients)) == steps == 32
    assert sequences == []
