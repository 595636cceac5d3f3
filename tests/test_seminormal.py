"""Seminormal models: relation residuals, exact identities, module fixtures."""

import dataclasses
from fractions import Fraction

import pytest

from support import (
    FractionRealization, _relation_residuals, adjointness_reference,
    as_fractions, branching_blocks, check_module, fraction_generators,
    from_dense, module_contraction_free, module_fixtures, module_nonsplit,
    module_rank_one, module_realization, seeded_u,
)
from wenzl import _linalg, combinat, params
from wenzl.params import ParamSet
from wenzl.seminormal import (
    RELATION_FAMILIES, Realization, _cleared, adjointness_residual, build_all,
    check_identities, relations, residuals, returns_at, tower_scalars,
    verify_relations,
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
        assert as_fractions(rep.X[0]) == [from_dense([[c]])]


def test_contraction_block_is_omega0():
    ps = ParamSet.default(1, 2)
    for rep in build_all(ps, 2):
        if rep.shape == combinat.empty_mp(1):
            assert as_fractions(rep.E[0]) == [from_dense([[ps.omega[0]]])]


def test_generators_are_symmetric():
    # exactly self-adjoint for the positive form diag(gamma)
    ps = ParamSet.default(2, 3)
    for rep in build_all(ps, 3):
        g = rep.gamma
        assert len(g) == rep.dim and all(x > 0 for x in g)
        for (M,) in map(as_fractions, (*rep.S, *rep.E, *rep.X)):
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
        for ps in (ParamSet.default(r, n), ParamSet.from_u(_seeded_u(r, n), n_hint=n)):
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
    mats = [dict(row) for row in as_fractions(getattr(rep, kind)[0])[0]]
    mats[0][rep.dim - 1] = mats[0].get(rep.dim - 1, 0) + 1
    reps[b] = dataclasses.replace(rep, **{kind: [_cleared([mats]), *getattr(rep, kind)[1:]]})
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
            and all(type(x) is int and x for blk in ev.blocks for row in blk
                    for x in row.values()))


def _assert_equals_fraction_reference(real):
    # both sides of every relation, and the left side E_k X_k^a E_k of the
    # scalar tower, converted to Fractions, against the Fraction rows
    ref = FractionRealization(real.reps)
    for family, lhs, rhs in relations(real.ps, real.n):
        for side in (lhs, rhs):
            ev = real.evaluate_sum(side)
            assert _int_form(ev), (family, side)
            assert as_fractions(ev) == ref.evaluate_sum(side), (family, side)
    for k in range(1, real.n):
        for a in range(real.ps.r + 2):
            word = (("E", k), ("X", k, a), ("E", k))
            ev = real.evaluate(word)
            assert _int_form(ev) and as_fractions(ev) == ref.evaluate(word), word


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_int_evaluation_equals_the_fraction_reference(r, n):
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n), n)):
        _assert_equals_fraction_reference(Realization(build_all(ps, n)))


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3), (3, 2), (2, 3), (1, 4)])
def test_model_holds_int_blocks(r, n):
    # every generator of every model is one block of int rows over one
    # positive int denominator, with no stored zero
    for ps in (ParamSet.default(r, n), ParamSet.from_u(seeded_u("reference", r, n), n)):
        for rep in build_all(ps, n):
            assert (len(rep.S), len(rep.E), len(rep.X)) == (n - 1, n - 1, n)
            for ev in (*rep.S, *rep.E, *rep.X):
                assert len(ev.blocks) == 1 and len(ev.blocks[0]) == rep.dim
                assert _int_form(ev), (ps.u, rep.shape)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
def test_star_symmetry_equals_the_fraction_reference(r, n):
    for ps in (ParamSet.default(r, n), ParamSet.from_u(_seeded_u(r, n), n_hint=n)):
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
    ps = ParamSet.from_u((F(73, 3), F(-23, 3)), 4)
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
        build_all(ParamSet.from_u((F(1), F(1)), n_hint=2), 2)


def test_identity_suite():
    ps = ParamSet.default(2, 3)
    report = check_identities(ps, 3)
    assert report.ok and report.failures == []
    for family in ("class-sum-linear", "class-sum-quadratic",
                   "contraction-inverse", "w-partial-fractions",
                   "w-recursion", "square-root-matching", "content-swap"):
        assert report.counts.get(family, 0) > 0, family


def test_closed_form_w_taken_once_per_shape(monkeypatch):
    # one memo per parameter set: check_identities forms W at every shape
    # of size <= n - 1 once, and tower_scalars reads it without adding any
    ps = ParamSet.default(2, 4)
    plain = check_identities(ps, 4)
    formed = []
    w_at_shape = params._w_at_shape

    def counted(shape, r, u):
        formed.append(shape)
        return w_at_shape(shape, r, u)

    monkeypatch.setattr(params, "_w_at_shape", counted)
    memo = {}
    report = check_identities(ps, 4, memo)
    assert report.counts == plain.counts and report.ok
    shapes = {mu for size in range(4) for mu in combinat.multipartitions(2, size)}
    assert set(memo) == shapes
    # each shape once, and W_1 once more from its own definition
    assert sorted(formed) == sorted([*shapes, combinat.empty_mp(2)])
    assert tower_scalars(ps, 4, memo) == tower_scalars(ps, 4)
    assert set(memo) == shapes


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
                cls = [s[k - 1] for s in combinat.k_neighbors(t, k)]
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
                for tt in combinat.k_neighbors(t, k + 1):
                    if returns_at(tt, k) or combinat.sk_action(tt, k) is None:
                        continue
                    if any(not returns_at(uu, k + 1) and
                           combinat.sk_action(uu, k + 1) ==
                           combinat.sk_action(tt, k)
                           for uu in combinat.k_neighbors(t, k)):
                        add("square-root-matching", (mu, t[k - 1], tt[k]))
    return seen


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 3), (2, 4)])
def test_identity_suite_checks_each_window_once(r, n):
    ps = ParamSet.default(r, n)
    report = check_identities(ps, n)
    assert report.ok
    seen = _visited_windows(ps, n)
    # W_1 once, then one recursion step per distinct last edge of a walk
    last_edges = {(t[m - 2] if m >= 2 else combinat.empty_mp(r), t[m - 1])
                  for m in range(1, n)
                  for lam in combinat.reachable_shapes(r, m)
                  for t in combinat.enumerate_updown(m, lam, ps.u)}
    assert report.counts == {"w-recursion": 1 + len(last_edges),
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
