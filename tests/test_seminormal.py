"""Seminormal models: relation residuals, exact identities, module fixtures."""

import dataclasses
from fractions import Fraction

import pytest

from support import (
    FractionRealization, _relation_residuals, adjointness_reference,
    as_fractions, blocks_as_fractions, branching_blocks, build_rep_reference,
    addable_removable, check_module, class_sums_reference, cleared, derived_omega,
    e_diag_reference, filled_step_tables, fraction_generators, from_dense,
    identities_reference, k_neighbors, module_contraction_free, module_fixtures,
    module_nonsplit, module_rank_one, module_realization, root_sets, seeded_u,
)
from wenzl import _linalg, combinat, params, seminormal
from wenzl.cli import main
from wenzl.params import ParamSet
from wenzl.seminormal import (
    RELATION_FAMILIES, Realization, adjointness_residual, build_all,
    build_rep, check_identities, relations, residuals, returns_at,
    tower_scalars, verify_relations,
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
        assert as_fractions(rep.X[0]) == from_dense([[c]])


def test_contraction_block_is_omega0():
    ps = ParamSet.default(1, 2)
    for rep in build_all(ps, 2):
        if rep.shape == combinat.empty_mp(1):
            assert as_fractions(rep.E[0]) == from_dense([derived_omega(ps, 0)])


def test_generators_are_symmetric():
    # exactly self-adjoint for the positive form diag(gamma)
    ps = ParamSet.default(2, 3)
    for rep in build_all(ps, 3):
        g = rep.gamma
        assert len(g) == rep.dim and all(x > 0 for x in g)
        for M in map(as_fractions, (*rep.S, *rep.E, *rep.X)):
            assert all(g[i] * M[i].get(j, 0) == M[j].get(i, 0) * g[j]
                       for i in range(rep.dim) for j in range(rep.dim))


def test_relation_suite_2_3():
    ps = ParamSet.default(2, 3)
    scalars = tower_scalars(ps, 3)
    real = Realization(build_all(ps, 3))
    for rep, res in zip(real.reps, verify_relations(real, scalars)):
        assert set(res) == set(RELATION_FAMILIES) | {"star-symmetry",
                                                     "tower-scalars"}
        for family, value in res.items():
            assert value == 0, (rep.shape, family, value)


def _reference(real):
    return [_relation_residuals(*(fraction_generators(rep)[kind] for kind in "SEX"),
                                rep.ps, rep.dim)
            for rep in real.reps]


def _seeded_u(r, n):
    return seeded_u("relations", r, n)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_relation_table_equals_the_hand_written_suite(r):
    # the same residual for every family on every block, n <= 4, at the
    # default and at seeded roots
    for n in range(5):
        for ps in (ParamSet.default(r, n), ParamSet.from_u(_seeded_u(r, n))):
            real = Realization(build_all(ps, n))
            assert residuals(real) == _reference(real), (ps.u, n)


def test_relation_table_equals_the_hand_written_suite_on_fixtures():
    for fix in module_fixtures():
        assert check_module(fix.S, fix.E, fix.X, fix.ps) == _relation_residuals(
            fix.S, fix.E, fix.X, fix.ps, len(fix.X[0]))


def _off_model(kind):
    """The (2, 3) realization with one entry of S_1, E_1 or X_1 changed on
    its largest block b; X_1 then has an entry off the diagonal, so its
    powers are no longer diagonal.  Returns (realization, b)."""
    ps = ParamSet.default(2, 3)
    reps = build_all(ps, 3)
    b = max(range(len(reps)), key=lambda i: reps[i].dim)
    rep = reps[b]
    mats = [dict(row) for row in as_fractions(getattr(rep, kind)[0])]
    mats[0][rep.dim - 1] = mats[0].get(rep.dim - 1, 0) + 1
    reps[b] = dataclasses.replace(rep, **{kind: [cleared(mats), *getattr(rep, kind)[1:]]})
    return Realization(reps), b


@pytest.mark.parametrize("kind", ["S", "E", "X"])
def test_relation_table_equals_the_hand_written_suite_off_the_model(kind):
    real, b = _off_model(kind)
    got = residuals(real)
    assert got == _reference(real)
    assert any(got[b].values()) and not any(v for i, res in enumerate(got)
                                            if i != b for v in res.values())


def _int_form(ev) -> bool:
    """ev holds nonzero ints over one positive int denominator."""
    return (type(ev.den) is int and ev.den > 0
            and all(type(x) is int and x for row in ev.rows for x in row.values()))


def _assert_equals_fraction_reference(real):
    # both sides of every relation, and the left side E_k X_k^a E_k of the
    # scalar tower, converted to Fractions, against the Fraction rows
    ref = FractionRealization(real.reps)
    for family, lhs, rhs in relations(real.ps, real.n):
        for side in (lhs, rhs):
            ev = real.evaluate_sum(side)
            assert _int_form(ev), (family, side)
            assert blocks_as_fractions(real, ev) == ref.evaluate_sum(side), (family, side)
    for k in range(1, real.n):
        for a in range(real.ps.r + 2):
            word = (("E", k), ("X", k, a), ("E", k))
            ev = real.evaluate(word)
            assert _int_form(ev) and blocks_as_fractions(real, ev) == ref.evaluate(word), word


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_int_evaluation_equals_the_fraction_reference(r, n):
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n))):
        _assert_equals_fraction_reference(Realization(build_all(ps, n)))


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_model_holds_int_blocks(r, n):
    # every generator of every model is one matrix of int rows over one
    # positive int denominator, with no stored zero
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n))):
        for rep in build_all(ps, n):
            assert (len(rep.S), len(rep.E), len(rep.X)) == (n - 1, n - 1, n)
            for ev in (*rep.S, *rep.E, *rep.X):
                assert len(ev.rows) == rep.dim
                assert _int_form(ev), (ps.u, rep.shape)


def _built_or_error(build, ps, n, shape):
    try:
        return build(ps, n, shape)
    except ValueError as e:
        return str(e)


# roots at which the build raises: a squared off-diagonal below zero, opposite
# contents in a class, a negative contraction coefficient, equal adjacent
# contents
_BUILD_ERROR_ROOTS = {1: [(F(1, 3),)], 2: [(0, 2), (5, 3), (0, 1)], 3: []}


@pytest.mark.parametrize("r,top", [(1, 4), (2, 4), (3, 3)])
def test_build_rep_equals_the_fraction_reference(r, top):
    # the int build against the Fraction build, generator by generator, in
    # rows, den and gamma, or in the text of the error both raise: every
    # reachable shape with n <= top, over the reference root sets and roots
    # outside the regime
    built = 0
    for u in (*root_sets("build", r), *_BUILD_ERROR_ROOTS[r]):
        ps = ParamSet.from_u(u)
        for n in range(top + 1):
            for shape in combinat.reachable_shapes(r, n):
                got = _built_or_error(build_rep, ps, n, shape)
                want = _built_or_error(build_rep_reference, ps, n, shape)
                if isinstance(want, str):
                    assert got == want, (u, n, shape)
                    continue
                built += 1
                assert got.basis == want.basis, (u, n, shape)
                for kind in "SEX":
                    assert getattr(got, kind) == getattr(want, kind), (u, n, shape, kind)
                assert got.gamma == want.gamma, (u, n, shape)
                assert all(type(g) is Fraction for g in got.gamma)
    assert built > 0


def test_build_rep_raises_where_an_entry_has_no_rational_form(monkeypatch):
    # gamma doubled at the last basis tableau: each entry at it is then the
    # square root of sq gamma[j] / gamma[i] with twice or half a square, a
    # pair (num, den) whose product is no square
    gamma = seminormal._gamma

    def doubled(d, offs):
        out = gamma(d, offs)
        num, den = out[-1]
        out[-1] = 2 * num, den
        return out

    ps = ParamSet.default(2, 3)
    shape = max(combinat.reachable_shapes(2, 3), key=lambda mu: combinat.count_updown(3, mu))
    assert build_rep(ps, 3, shape).dim > 1
    monkeypatch.setattr(seminormal, "_gamma", doubled)
    with pytest.raises(ValueError, match=r"^[SE]_\d entry \(\d+, \d+\) has no rational "
                       "form: the squared entries do not match around a cycle$"):
        build_rep(ps, 3, shape)


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
    for ps in (ParamSet.default(r, n), ParamSet.from_u(_seeded_u(r, n))):
        for rep in build_all(ps, n):
            got = adjointness_residual(rep)
            assert type(got) is Fraction
            assert got == adjointness_reference(rep) == 0, (ps.u, rep.shape)


@pytest.mark.parametrize("kind", ["S", "E", "X"])
def test_star_symmetry_off_the_model(kind):
    # the changed entry has no adjoint partner on block b, and only there
    real, b = _off_model(kind)
    got = [adjointness_residual(rep) for rep in real.reps]
    assert got == [adjointness_reference(rep) for rep in real.reps]
    assert got[b] and not any(x for i, x in enumerate(got) if i != b)
    scalars = tower_scalars(real.ps, real.n)
    assert [res["star-symmetry"] for res in verify_relations(real, scalars)] == got


def test_star_symmetry_counts_a_nonpositive_gamma():
    # a gamma_i <= 0 counts as 1 - gamma_i, also where every generator is
    # self-adjoint (the one-dimensional module)
    cases = ((module_rank_one(), (F(-2, 3),), F(5, 3)),
             (module_rank_one(), (F(0),), F(1)),
             (module_contraction_free(), (F(-1, 2), F(1)), F(3, 2)))
    for fix, gamma, expected in cases:
        rep = dataclasses.replace(module_realization(*fix).reps[0], gamma=gamma)
        assert adjointness_residual(rep) == adjointness_reference(rep) == expected


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
                rhs = [_linalg.mat_scale([row], w)[0] for row, w in zip(ek, ws)]
                out[i] = max(out[i], _linalg.max_abs(_linalg.mat_sub(blk, rhs)))
    return out


@pytest.mark.parametrize("kind", ["S", "E", "X"])
def test_int_evaluation_equals_the_fraction_reference_off_the_model(kind):
    real, b = _off_model(kind)
    _assert_equals_fraction_reference(real)
    scalars = tower_scalars(real.ps, real.n)
    got = [res["tower-scalars"] for res in verify_relations(real, scalars)]
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
    got = [res["tower-scalars"] for res in verify_relations(real, scalars)]
    assert got == _tower_reference(real, scalars) == [0] * len(real.reps)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_relation_table_covers_every_family(r):
    # a family with no relation in the table would report 0 unchecked
    ps = ParamSet.default(r, 3)
    assert {family for family, _, _ in relations(ps, 3)} == set(RELATION_FAMILIES)


def test_relation_suite_low_precision_still_passes():
    ps = ParamSet.default(2, 2)
    scalars = tower_scalars(ps, 2)
    for res in verify_relations(Realization(build_all(ps, 2)), scalars):
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
    for family in ("class-sum-linear", "class-sum-quadratic",
                   "contraction-inverse", "w-partial-fractions",
                   "w-recursion", "square-root-matching", "content-swap"):
        assert report.counts.get(family, 0) > 0, family


def _failed_families(report):
    """The families with a failure; each failure names its position k."""
    assert all("k=" in ctx for ctx in report.failures), report.failures
    return {ctx.split(":")[0] for ctx in report.failures}


def _wrong_contraction_coefficients(monkeypatch):
    # e + 1 for e: twice e would scale both sides of square-root-matching
    e_diag = params.e_diag
    monkeypatch.setattr(params, "e_diag", lambda *args: e_diag(*args) + 1)


def _wrong_closed_form(monkeypatch):
    # W + 1 at every shape but the empty one, from which Omega is read
    w_at_shape = params._w_at_shape

    def perturbed(shape, *args):
        w = w_at_shape(shape, *args)
        return w + 1 if any(shape) else w

    monkeypatch.setattr(params, "_w_at_shape", perturbed)


def _content_shifted_by_q(monkeypatch):
    # c + 1 for the content of the step ((1,), (1,)) -> ((2,), (1,)), read
    # at (2, 3) only as the second step of a swap window and in W there; a
    # step out of a smaller shape meets equal contents or a zero class sum
    steps_out = params.steps_out

    def shifted(mu, ps):
        st = steps_out(mu, ps)
        if mu != ((1,), (1,)):
            return st
        nu = ((2,), (1,))
        return params.Steps({**st.C, nu: st.C[nu] + ps.q}, st.e)

    monkeypatch.setattr(params, "steps_out", shifted)


def test_identity_suite_fails_on_wrong_contraction_coefficients(monkeypatch):
    _wrong_contraction_coefficients(monkeypatch)
    report = check_identities(ParamSet.default(2, 3), 3)
    failed = _failed_families(report)
    assert {"class-sum-linear", "class-sum-quadratic", "class-sum-cross",
            "w-partial-fractions", "contraction-inverse",
            "square-root-matching"} <= failed
    assert not failed & {"w-recursion", "w-vanishes-at-zero", "content-swap",
                         "swap-degenerate-unit"}


def test_identity_suite_fails_on_wrong_closed_form(monkeypatch):
    _wrong_closed_form(monkeypatch)
    report = check_identities(ParamSet.default(2, 3), 3)
    assert "w-recursion" in _failed_families(report)


def test_identity_suite_fails_on_a_content_shifted_by_q(monkeypatch):
    _content_shifted_by_q(monkeypatch)
    report = check_identities(ParamSet.default(2, 3), 3)
    assert _failed_families(report) == {"content-swap", "swap-degenerate-unit", "w-recursion"}


@pytest.mark.parametrize("mutate", [_wrong_contraction_coefficients, _wrong_closed_form,
                                    _content_shifted_by_q])
def test_mutated_tables_fail_as_the_fraction_reference_does(mutate, monkeypatch):
    # the identities on the coefficients as held flag the same windows as
    # the Fraction forms: W evaluated at 0 and divided by y, and each swap
    # coefficient a Fraction
    mutate(monkeypatch)
    ps = ParamSet.default(2, 3)
    report, want = check_identities(ps, 3), identities_reference(ps, 3)
    assert report.failures and report.failures == want.failures
    assert report.counts == want.counts


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (2, 3), (3, 3), (1, 4)])
def test_identity_suite_equals_the_fraction_reference(r, n):
    # every root set of support.root_sets: the same checked counts and
    # failures; and roots with a zero content, or with equal adjacent
    # contents, end both in the same error
    degenerate = {1: [(0,), (F(-1, 2),)], 2: [(0, 2), (3, 3), (5, 3)], 3: [(3, 3, 1)]}
    for u in root_sets("identities", r) + degenerate[r]:
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


def test_closed_form_w_taken_once_per_shape(monkeypatch):
    # the parameter set holds W: from_u forms none, check_identities forms W
    # at every shape of size <= n - 1 once, the empty one too, and
    # tower_scalars and a second pass form none
    formed = []
    w_at_shape = params._w_at_shape

    def counted(shape, r, u):
        formed.append(shape)
        return w_at_shape(shape, r, u)

    monkeypatch.setattr(params, "_w_at_shape", counted)
    ps = ParamSet.default(2, 4)
    assert formed == []
    report = check_identities(ps, 4)
    assert report.ok
    shapes = {mu for size in range(4) for mu in combinat.multipartitions(2, size)}
    assert sorted(formed) == sorted(shapes)
    scalars = tower_scalars(ps, 4)
    assert check_identities(ps, 4).counts == report.counts
    assert sorted(formed) == sorted(shapes) and set(ps.w_at) == shapes
    # the W held is no part of the parameter set's value, and a fresh one
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
        for t in combinat.enumerate_updown(n, lam, ps.u):
            for k in range(1, n):
                mu = t[k - 2] if k >= 2 else combinat.empty_mp(ps.r)
                if not returns_at(t, k):
                    partner = combinat.sk_action(t, k)
                    add("swap-degenerate-unit" if partner is None
                        else "content-swap", (mu, t[k - 1], t[k]))
                    continue
                cls = [s[k - 1] for s in k_neighbors(t, k)]
                for nu in cls:
                    add("class-sum-linear", (mu, nu))
                    add("class-sum-quadratic", (mu, nu))
                    for other in cls:
                        if other != nu:
                            add("class-sum-cross", (mu, nu, other))
                add("w-vanishes-at-zero", mu)
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
                        add("square-root-matching", (mu, t[k - 1], tt[k]))
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
                  for t in combinat.enumerate_updown(m, lam, ps.u)}
    assert report.counts == {"w-recursion": len(last_edges),
                             **{name: len(keys) for name, keys in seen.items()}}


def test_module_fixtures_exact():
    for fix in module_fixtures():
        res = check_module(fix.S, fix.E, fix.X, fix.ps)
        assert all(v == 0 for v in res.values()), res


def test_nonsplit_fixture_is_not_diagonalizable():
    fix = module_nonsplit()
    q = F(1, 4)
    m = _linalg.mat_sub(fix.X[0], _linalg.mat_scale(_linalg.identity(2), q))
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


def _side(pair):
    """An int pair (num, den) as a Fraction, None at den = 0."""
    return Fraction(*pair) if pair[1] else None


@pytest.mark.parametrize("r", [1, 2, 3])
def test_class_sums_equal_the_fraction_reference(r):
    # both sides of every class sum, as the int pairs make them, against
    # the Fraction sums term by term, a zero denominator where the
    # reference divides by zero: at the table's coefficients, where every
    # defined identity holds once the contents are distinct, and at
    # coefficients one off, where some fail
    for u in root_sets("class-sums", r):
        ps = ParamSet.from_u(u)
        for mu in _shapes(r):
            C, e = params.steps_out(mu, ps)
            c = {nu: Fraction(x, ps.q) for nu, x in C.items()}
            for es, holds in ((e, True), ({nu: x + 1 for nu, x in e.items()}, False)):
                got = [(name, s, tp, _side(lhs), _side(rhs))
                       for name, s, tp, lhs, rhs in seminormal.class_sums(C, es, ps.q)]
                assert got == list(class_sums_reference(c, es)), (u, mu)
                if len(set(C.values())) == len(C):
                    verdicts = [lhs == rhs for *_, lhs, rhs in got
                                if lhs is not None and rhs is not None]
                    assert all(verdicts) == holds, (u, mu)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_step_table_equals_content_sequence_and_e_diag(r):
    # every basis tableau with n <= 4: the contents read from the table are
    # q times its content sequence, and the coefficient of each step is
    # the Fraction e_diag at the shape it leaves; build_rep orders its
    # basis as enumerate_updown does
    for n in range(5):
        for u in (combinat.default_u(r, n), seeded_u("table", r, n)):
            ps = ParamSet.from_u(u)
            for lam in combinat.reachable_shapes(r, n):
                for t in combinat.enumerate_updown(n, lam, ps.u):
                    cs = combinat.content_sequence(t, ps.u)
                    assert params.contents(ps, t) == tuple(ps.q * c for c in cs)
                    for k in range(1, n + 1):
                        mu = combinat.shape_before(t, k)
                        got = params.steps_out(mu, ps).e[t[k - 1]]
                        assert got == e_diag_reference(
                            cs[k - 1], addable_removable(mu, ps.u), r), (t, k)
            if n <= 3:
                assert [rep.basis for rep in build_all(ps, n)] == [
                    tuple(combinat.enumerate_updown(n, lam, ps.u))
                    for lam in combinat.reachable_shapes(r, n)]


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


def test_identity_suite_raises_where_a_class_sum_divides_by_zero():
    # at u = (0, 2) the step of content 0 out of the empty shape makes
    # c_s + c_s = 0: the Fraction sums divided by it, and the int sums must
    # not compare a zero denominator
    with pytest.raises(ZeroDivisionError, match="class-sum-linear: zero denominator"):
        check_identities(ParamSet.from_u((0, 2)), 3)
