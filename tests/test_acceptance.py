"""The acceptance gate: every headline guarantee, one printed line each.

Each test prints ``criterion NN PASS/FAIL — summary`` before asserting, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  Ranges and
tolerances here are the promised ones; do not shrink them to save time.
"""

import math
from fractions import Fraction

import brauer
import support
from wenzl import _linalg, combinat, hecke, params, seminormal, wcell
from wenzl.params import ParamSet

F = Fraction


def report(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num:02d}: {text}"


def test_criterion_01_dimension_counting():
    """Sum of squared walk counts equals r^n (2n-1)!! for r<=3, n<=6."""
    ok = True
    for r in (1, 2, 3):
        for n in range(1, 7):
            total = sum(combinat.count_updown(n, lam) ** 2
                        for lam in combinat.reachable_shapes(r, n))
            ok &= total == r ** n * combinat.double_factorial(2 * n - 1)
    report(1, ok, "sum over shapes of squared multiplicities matches "
                  "r^n (2n-1)!! for r<=3, n<=6, exactly")


def test_criterion_02_closed_count_vs_enumeration():
    """The hook-length count of updown walks equals brute force everywhere."""
    ok = True
    checked = 0
    for r in (1, 2, 3):
        for n in range(1, 7):
            for lam in combinat.reachable_shapes(r, n):
                got = len(combinat.enumerate_updown(n, lam))
                ok &= got == combinat.count_updown(n, lam)
                checked += got
    report(2, ok, f"closed-form walk counts equal enumeration for every "
                  f"shape, r<=3, n<=6 ({checked} walks), exactly")


def test_criterion_03_monomial_census():
    ok = True
    for r in (1, 2, 3):
        for n in range(1, 5):
            monos = brauer.enumerate_r_regular(r, n)
            want = r ** n * combinat.double_factorial(2 * n - 1)
            ok &= len(monos) == want and len(set(monos)) == want
    report(3, ok, "regular monomial census has r^n (2n-1)!! distinct "
                  "members for r<=3, n<=4")


def test_criterion_04_relation_residuals():
    """Every defining relation on every block, r<=3, n<=4, default u."""
    ok = True
    blocks = 0
    for r in (1, 2, 3):
        for n in range(1, 5):
            ps = ParamSet.default(r, n)
            scalars = seminormal.tower_scalars(ps, n)
            real = seminormal.Realization(seminormal.build_all(ps, n))
            for res in seminormal.verify_relations(real, scalars):
                blocks += 1
                ok &= all(value == 0 for value in res.values())
    report(4, ok, f"every relation residual, G-adjointness and scalar tower "
                  f"included, is exactly 0 on the rational seminormal model "
                  f"for r<=3, n<=4 ({blocks} blocks)")


def test_criterion_05_exact_identities():
    ok = True
    checked = 0
    for r in (1, 2):
        for n in range(1, 5):
            rpt = seminormal.check_identities(ParamSet.default(r, n), n)
            ok &= rpt.ok and not rpt.failures
            checked += sum(rpt.counts.values())
    report(5, ok, f"coefficient identity suite has zero failures for "
                  f"r<=2, n<=4 ({checked} instances, zero tolerance)")


def test_criterion_06_admissibility():
    ok = True
    for r in (1, 2, 3, 4):
        u = combinat.default_u(r, 4)
        seq = [support.omega_from_u(u, a) for a in range(13)]
        good, bad = params.check_admissible(seq)
        ok &= good and bad is None
    nil_ok, _ = params.check_admissible(support.nilpotent_example_omega(12))
    ok &= nil_ok
    brauer = support.brauer_omega_sequence(21)
    br_ok, _ = params.check_admissible(brauer)
    ok &= br_ok
    w = params.Poly((F(0), F(1)))
    step = params.Poly.y_plus(-1) * F(1, 2)
    expected = w
    for a in range(11):
        ok &= brauer[a] == expected
        expected = expected * step
    report(6, ok, "derived sequences admissible: from roots (r<=4, a<=12), "
                  "the nilpotent example, and the one-parameter loop family "
                  "(a<=10, exact polynomials)")


def test_criterion_07_module_fixtures():
    fixtures = support.module_fixtures()
    ok = True
    for fix in fixtures:
        res = support.check_module(fix.S, fix.E, fix.X, fix.ps)
        ok &= all(v == 0 for v in res.values())
    report(7, ok, f"all {len(fixtures)} explicit module fixtures satisfy "
                  "every relation with residual exactly 0")


def test_criterion_08_quotient_dimension():
    ok = True
    for r in (1, 2):
        for n in (1, 2, 3):
            H = hecke.HeckeAlgebra(ParamSet.default(r, n), n)
            mb = hecke.MurphyBasis(H)
            want = r ** n * math.factorial(n)
            ok &= len(mb.keys) == want and _linalg.rank(mb.matrix) == want
    report(8, ok, "quotient normal form closes at dimension r^n n! and the "
                  "Murphy family has full rank, r<=2, n<=3")


def test_criterion_09_gram_determinants():
    ok = True
    for r in (1, 2):
        for n in (1, 2, 3):
            ps = ParamSet.default(r, n)
            mb = hecke.MurphyBasis(hecke.HeckeAlgebra(ps, n))
            for lam in combinat.multipartitions(r, n):
                det = hecke.gram_det(mb, lam)
                gammas = hecke.gamma_coeffs(lam, ps)
                prod = math.prod(gammas.values(), start=F(1))
                ok &= det == prod
                ok &= hecke.gamma_path_independent(lam, ps, gammas)
    report(9, ok, "Gram determinant equals the product of path coefficients "
                  "(path-independently) for every shape, r<=2, n<=3, exactly")


def test_criterion_10_semisimplicity_boundary():
    ok = True
    for n in (1, 2, 3):
        for d in range(0, n + 3):
            for sd in (d, -d):
                ps = ParamSet.from_u((F(0), F(sd)))
                ok &= support.is_semisimple(ps, n) == (d >= n)
        ok &= support.is_semisimple(ParamSet.from_u((F(0), F(1, 2))), n)
    # the symmetrizer witness: m^2 = n! prod_{d<n, t>=2} (u_1 + d - u_t) m
    for r in (1, 2):
        for n in (1, 2, 3):
            ps = ParamSet.default(r, n)
            scalar, sym_ok = support.row_symmetrizer_witness(ps, n)
            want = F(math.factorial(n))
            for d in range(n):
                for t in range(1, r):
                    want *= ps.u[0] + d - ps.u[t]
            ok &= sym_ok and scalar == want and scalar != 0
    frozen, sym_ok = support.row_symmetrizer_witness(
        ParamSet.from_u((F(6), F(-2))), 3)
    ok &= sym_ok and frozen == 4320
    zero, sym_ok = support.row_symmetrizer_witness(
        ParamSet.from_u((F(0), F(1))), 2)
    ok &= sym_ok and zero == 0
    report(10, ok, "semisimplicity flips exactly at gap n; symmetrizer "
                   "squares to the predicted scalar, and to 0 under an "
                   "induced gap violation")



def test_criterion_11_cellular_rank():
    ok = True
    for r in (1, 2, 3):
        for n in range(1, 5):
            total = 0
            for arcs in range(n // 2 + 1):
                for shape in combinat.multipartitions(r, n - 2 * arcs):
                    total += len(support.cell_triples(r, n, arcs, shape)) ** 2
            ok &= total == r ** n * combinat.double_factorial(2 * n - 1)
    ranks = []
    for r, n in ((1, 2), (1, 3), (2, 2), (3, 2), (4, 2), (1, 4), (2, 3)):
        rpt = wcell.cellular_rank_report(ParamSet.default(r, n), n)
        ranks.append(rpt["rank"])
        ok &= rpt["ok"] and rpt["rank"] == rpt["target"]
    report(11, ok, f"cell index family squares to r^n (2n-1)!! (r<=3, n<=4) "
                   f"and the realized words have full exact rank over Q "
                   f"{ranks}")


def test_criterion_12_branching():
    ok = True
    for r in (1, 2):
        for n in range(1, 5):
            ps = ParamSet.default(r, n)
            for rep in seminormal.build_all(ps, n):
                rpt = support.branching_blocks(rep)
                ok &= rpt["sizes_ok"] and rpt["max_offblock"] == 0
    report(12, ok, "restriction decomposes along shape adjacency with the "
                   "predicted block sizes and off-block entries exactly 0, "
                   "r<=2, n<=4")
