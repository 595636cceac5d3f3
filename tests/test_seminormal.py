"""Seminormal models: relation residuals, exact identities, module fixtures."""

from fractions import Fraction

import pytest

from wenzl import combinat
from wenzl.params import ParamSet
from wenzl.seminormal import (
    RELATION_FAMILIES, branching_blocks, build_all, check_identities,
    check_module, module_contraction_free, module_nonsplit, module_rank_one,
    module_residue_family, verify_relations,
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
        assert rep.X[0] == [[c]]


def test_contraction_block_is_omega0():
    ps = ParamSet.default(1, 2)
    for rep in build_all(ps, 2):
        if rep.shape == combinat.empty_mp(1):
            assert rep.E[0] == [[ps.omega[0]]]


def test_generators_are_symmetric():
    # exactly self-adjoint for the positive form diag(gamma)
    ps = ParamSet.default(2, 3)
    for rep in build_all(ps, 3):
        g = rep.gamma
        assert len(g) == rep.dim and all(x > 0 for x in g)
        for M in (*rep.S, *rep.E, *rep.X):
            assert all(g[i] * M[i][j] == M[j][i] * g[j]
                       for i in range(rep.dim) for j in range(rep.dim))


def test_relation_suite_2_3():
    ps = ParamSet.default(2, 3)
    for rep in build_all(ps, 3):
        res = verify_relations(rep)
        assert set(res) == set(RELATION_FAMILIES) | {"star-symmetry",
                                                     "tower-scalars"}
        for family, value in res.items():
            assert value == 0, (rep.shape, family, value)


def test_relation_suite_low_precision_still_passes():
    ps = ParamSet.default(2, 2)
    for rep in build_all(ps, 2):
        for family, value in verify_relations(rep).items():
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


def test_module_fixtures_exact():
    fixtures = [
        module_rank_one(sign=1),
        module_rank_one(F(5, 3), sign=-1),
        module_contraction_free(),
        module_nonsplit(),
        module_residue_family((F(3), F(-7), F(11))),
    ]
    for fix in fixtures:
        res = check_module(fix.S, fix.E, fix.X, fix.ps)
        assert all(v == 0 for v in res.values()), res


def test_nonsplit_fixture_is_not_diagonalizable():
    fix = module_nonsplit()
    q = F(1, 4)
    m = [[fix.X[0][i][j] - (q if i == j else 0) for j in range(2)]
         for i in range(2)]
    assert any(any(row) for row in m)          # X_1 != q
    sq = [[sum(m[i][k] * m[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    assert all(v == 0 for row in sq for v in row)   # (X_1 - q)^2 == 0


def test_branching_blocks():
    ps = ParamSet.default(2, 3)
    for rep in build_all(ps, 3):
        rpt = branching_blocks(rep)
        assert rpt["sizes_ok"]
        assert rpt["max_offblock"] == 0
        assert sum(rpt["sizes"].values()) == rep.dim
