"""Exact parameter sets, admissible sequences, and the expansion of W."""

import random
from fractions import Fraction

import pytest

from support import (
    brauer_omega_sequence, nilpotent_example_omega, omega_from_u,
    omega_residue_form, schur_q, seeded_u, series_reference,
)
from wenzl import combinat, params
from wenzl.params import (
    ParamSet, Poly, RationalFunction, check_admissible, format_fraction,
    parse_fraction,
)
from wenzl.seminormal import tower_scalars
from support import addable_removable, root_sets, w_at_shape_reference

F = Fraction


def test_parse_format_fraction():
    assert parse_fraction("3/4") == F(3, 4)
    assert parse_fraction("-7") == F(-7)
    assert format_fraction(F(3, 4)) == "3/4"
    assert format_fraction(F(5)) == "5"
    for s in ("0", "-1/3", "22/7"):
        assert format_fraction(parse_fraction(s)) == s


def test_poly_arithmetic():
    p = Poly.y_plus(-2) * Poly.y_plus(3)      # (y - 2)(y + 3) = y^2 + y - 6
    assert p == Poly((-6, 1, 1))
    assert p.degree == 2
    assert p * F(1, 2) == Poly((-3, F(1, 2), F(1, 2)))


def test_rational_function_reduction():
    # kept as built: equal functions with different num/den compare equal
    num = Poly.y_plus(-1) * Poly.y_plus(1)   # y^2 - 1
    a = RationalFunction(num, Poly.y_plus(-1))
    assert a.num == num and a.den == Poly.y_plus(-1)
    assert a == RationalFunction(Poly.y_plus(1))
    c = RationalFunction(Poly.const(3), Poly.const(6))
    assert c == RationalFunction.const(F(1, 2))
    b = RationalFunction(Poly.y_plus(2) * F(3), Poly.y_plus(-3) * F(3))
    assert b == RationalFunction(Poly.y_plus(2), Poly.y_plus(-3))
    assert b != RationalFunction(Poly.y_plus(3), Poly.y_plus(-3))
    assert a - RationalFunction(Poly.y_plus(1)) == RationalFunction(Poly())


def test_schur_q_values():
    assert [schur_q(a, (1, 2)) for a in range(4)] == [1, 6, 18, 42]
    assert schur_q(1, (F(1, 2),)) == 1
    # q_a of the empty alphabet vanishes for a >= 1
    assert schur_q(0, ()) == 1 and schur_q(3, ()) == 0


def test_default_paramset():
    ps = ParamSet.default(2, 2)
    assert ps.u == (F(6), F(-2))
    assert ps.omega[:3] == (F(8), F(28), F(208))
    assert ps.as_json()["precision_bits"] == 256
    assert ps.N >= 12
    ps3 = ParamSet.default(2, 3)
    assert ps3.u == (F(9), F(-3))
    assert ps3.omega[:2] == (F(12), F(66))


def test_from_u_holds_one_parameter_set():
    # an equal (u, N) returns the held instance, however the roots are
    # written and whichever of n_hint and min_N sizes N
    ps = ParamSet.from_u(("1/2", 3), n_hint=3)
    assert ps.N == 16 and ps.u == (F(1, 2), F(3))
    assert ParamSet.from_u(("2/4", "3"), n_hint=3) is ps
    assert ParamSet.from_u((F(1, 2), 3), n_hint=2, min_N=16) is ps
    assert ParamSet.default(2, 3) is not ps
    # another u replaced it: an equal (u, N) is built afresh
    again = ParamSet.from_u(("2/4", 3), n_hint=3)
    assert again == ps and again is not ps
    # another N replaces it too
    wider = ParamSet.from_u(("1/2", 3), n_hint=3, min_N=17)
    assert wider.N == 17 and wider.u == again.u and wider != again
    assert ParamSet.from_u(("1/2", 3), n_hint=3) is not again
    # one constructed directly is equal to the held one, and never held
    held = ParamSet.from_u(("1/2", 3), n_hint=3)
    direct = ParamSet(held.r, held.u, held.omega, held.N)
    assert direct == held and direct is not held
    assert ParamSet.from_u(("1/2", 3), n_hint=3) is held


def test_paramset_json_round_trip():
    ps = ParamSet.from_u((F(3, 2), F(-5)), n_hint=3)
    data = ps.as_json()
    assert data["r"] == 2
    assert data["u"] == ["3/2", "-5"]
    assert all(isinstance(s, str) for s in data["omega"])
    assert parse_fraction(data["omega"][0]) == ps.omega[0]


def test_omega_from_u_matches_residue_form():
    v = (F(3), F(-7), F(11))
    omega = ParamSet.from_u(v, n_hint=1).omega
    for a in range(7):
        assert omega_from_u(v, a) == omega_residue_form(v, a) == omega[a]


def test_omega_from_u_admissible():
    for r in (1, 2, 3, 4):
        u = combinat.default_u(r, 3)
        omega = [omega_from_u(u, a) for a in range(13)]
        ok, bad = check_admissible(omega)
        assert ok and bad is None
        assert check_admissible(ParamSet.from_u(u, 3, 40).omega) == (True, None)


def test_check_admissible_rejects():
    ok, bad = check_admissible([F(1)] * 4)
    assert not ok and bad == 0


def test_nilpotent_example_omega():
    omega = nilpotent_example_omega(12)
    assert omega[:7] == [F(1), F(0), F(-1, 16), F(-1, 32), F(-3, 256),
                         F(-1, 256), F(-5, 4096)]
    ok, bad = check_admissible(omega)
    assert ok and bad is None


def test_brauer_family():
    """omega_a = w ((w-1)/2)^a: admissible as exact polynomials in w."""
    seq = brauer_omega_sequence(21)
    ok, bad = check_admissible(seq)
    assert ok and bad is None
    w = Poly((F(0), F(1)))
    step = Poly.y_plus(-1) * F(1, 2)         # (w - 1)/2
    expected = w
    for a in range(11):
        assert seq[a] == expected
        expected = expected * step


def _roots():
    """Seeded rational roots for r = 1..4, then repeated, zero and large ones."""
    rng = random.Random(20050)
    return [tuple(F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(r))
            for r in (1, 2, 3, 4) for _ in range(6)] + [
        (F(2), F(2)), (F(1, 4), F(1, 4)), (F(1), F(1), F(1)), (F(0),), (F(0), F(0)),
        (F(0), F(5)), (F(3), F(0), F(-3)), (F(100000), F(-3)), (F(-3), F(100000), F(7, 2))]


def test_omega_from_u_is_the_schur_formula():
    # Omega is read off W_1 at infinity; the Schur q formula is independent
    for u in _roots():
        for n, min_N in ((1, 0), (3, 0), (2, 40)):
            ps = ParamSet.from_u(u, n, min_N)
            assert ps.N == max(2 * len(u) + 4 * n, min_N)
            assert list(ps.omega) == [omega_from_u(u, a) for a in range(ps.N + 1)], u


def test_w1_identities():
    # (W_1(y) + y - 1/2)(W_1(-y) - y - 1/2) = (1/2 - y)(1/2 + y) exactly, as
    # rational functions; W_1(-y) flips the sign of the odd coefficients
    def at_minus_y(p):
        return Poly(tuple(-c if k % 2 else c for k, c in enumerate(p.coeffs)))

    half, y = F(1, 2), RationalFunction(Poly.y_plus(0))
    for u in _roots():
        w = params.wk_rational(combinat.empty_mp(len(u)), ParamSet.from_u(u, 3))
        w_minus = RationalFunction(at_minus_y(w.num), at_minus_y(w.den))
        assert (w + y - half) * (w_minus - y - half) == (-y + half) * (y + half), u


def test_series_of_rational():
    # 1/(y - 2) = y^-1 + 2 y^-2 + 4 y^-3 + ..., and y/(y - 2) = 1 + 2 y^-1 + ...
    y, series = Poly.y_plus(0), params.series_of_rational
    assert series(RationalFunction(Poly.const(1), Poly.y_plus(-2)), 3) == [0, 1, 2, 4]
    assert series(RationalFunction(y, Poly.y_plus(-2)), 2) == [1, 2, 4]
    with pytest.raises(AssertionError, match="at infinity"):
        series(RationalFunction(y), 2)


def test_series_of_rational_equals_the_fraction_reference():
    # the int recursion over powers of the leading coefficient against the
    # Fraction one: W at every shape of size <= 3, at default and seeded
    # roots, and hand-made functions whose denominator leads with a
    # negative non-unit
    y = Poly.y_plus(0)
    rfs = [RationalFunction(Poly((3, -5, 2)), Poly((7, 1, -6))),
           RationalFunction(Poly((F(-2, 3),)), Poly((F(1, 5), 4, F(-9, 2)))),
           RationalFunction(Poly((1, 0, -4, 11)), Poly((-3, 0, 2, 0, -10))),
           RationalFunction(y * 2 + Poly.const(F(5, 7)), Poly((F(1, 2), -3)))]
    assert all(rf.den.coeffs[-1] < -1 for rf in rfs)
    for r in (1, 2, 3):
        for u in (combinat.default_u(r, 3), seeded_u("series", r, 3)):
            ps = ParamSet.from_u(u, n_hint=3)
            rfs += [params.wk_rational(mu, ps) for m in range(4)
                    for mu in combinat.multipartitions(r, m)]
    for rf in rfs:
        for A in (0, 1, 2, 7, 40):
            got = params.series_of_rational(rf, A)
            assert got == series_reference(rf, A), (rf, A)
            assert all(type(x) is Fraction for x in got)


def _walk_recursion(t, k, ps):
    """Reference W_k: the rational recursion from W_1 along the first
    k - 1 steps of t, num/den unreduced."""
    rf = params.wk_rational(combinat.empty_mp(ps.r), ps)
    y_minus_half = RationalFunction(Poly((-F(1, 2), F(1))))
    for c in combinat.content_sequence(t, ps.u)[:k - 1]:
        rf = params._recursion_factor_rational(c) * (rf + y_minus_half) \
            - y_minus_half
    return rf


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4)])
def test_wk_rational_matches_walk_recursion(r, n):
    # every walk of fewer than n steps, t ending at step k - 1
    ps = ParamSet.default(r, n)
    A = ps.r + 1
    walks = [(t, m + 1) for m in range(n)
             for lam in combinat.reachable_shapes(r, m)
             for t in combinat.enumerate_updown(m, lam, ps.u)]
    for t, k in walks:
        ref = _walk_recursion(t, k, ps)
        mu = t[-1] if t else combinat.empty_mp(r)
        assert params.wk_rational(mu, ps) == ref, t
        if t:
            # the last step of t, from the shape before it
            c = combinat.content_sequence(t, ps.u)[-1]
            step = params.wk_recursive_rational(combinat.shape_before(t, k - 1), c, ps)
            assert step == ref, t
        assert params.omega_k_values(mu, ps, A) == params.series_of_rational(ref, A)


def _w1_from_roots(ps):
    """(y - (1/2)(-1)^r) prod_i (y + u_i)/(y - u_i) - y + 1/2, from the
    roots alone."""
    y = RationalFunction(Poly.y_plus(0))
    rf = y - F((-1) ** ps.r, 2)
    for x in ps.u:
        rf = rf * RationalFunction(Poly.y_plus(x), Poly.y_plus(-x))
    return rf - y + F(1, 2)


def test_w1_is_w_at_the_empty_shape():
    for r, n in ((1, 3), (2, 3), (3, 2)):
        ps = ParamSet.default(r, n)
        for lam in combinat.reachable_shapes(r, n):
            for t in combinat.enumerate_updown(n, lam):
                assert params.wk_rational(combinat.shape_before(t, 1), ps) \
                    == _w1_from_roots(ps)


def test_wk_rational_at_colliding_shape():
    # at r = 1, u = 1/2 the shape (1) has an addable and a removable node of
    # content -1/2; the unreduced closed form still equals the recursion
    # along the walk, one step of it, and its expansion gives the scalars
    ps = ParamSet.from_u((F(1, 2),), n_hint=2)
    lam = ((1,),)
    contents = [c for _, c, _ in addable_removable(lam, ps.u)]
    assert len(set(contents)) < len(contents)
    for shape in combinat.reachable_shapes(1, 2):
        for t in combinat.enumerate_updown(2, shape, ps.u):
            assert t[0] == lam
            direct = params.wk_rational(lam, ps)
            ref = _walk_recursion(t, 2, ps)
            assert direct == ref
            c = combinat.content_sequence(t, ps.u)[0]
            assert direct == params.wk_recursive_rational(combinat.empty_mp(1), c, ps)
            # W(0) = 0: the constant term of num vanishes, that of den not
            assert direct.num.coeffs[0] == 0 != direct.den.coeffs[0]
            assert params.omega_k_values(lam, ps, 4) == params.series_of_rational(ref, 4)


def test_omega_k_values_at_first_position():
    # before the first strand the shape is empty: the scalars are Omega itself
    ps = ParamSet.default(2, 2)
    t = (((1,), ()), ((1, 1), ()))
    vals = params.omega_k_values(combinat.shape_before(t, 1), ps, 4)
    assert tuple(vals) == ps.omega[:5]


def test_from_omega_mode():
    # a parameter set built with an Omega of its own says so
    omega = nilpotent_example_omega(10)
    ps = ParamSet(2, (F(1, 4), F(1, 4)), tuple(omega), 10, "user-supplied")
    assert ps.mode != "u-admissible-derived"
    assert ps.as_json()["mode"] == "user-supplied"
    assert ps.omega[2] == F(-1, 16)



@pytest.mark.parametrize("u", [(F(9), F(-3)), (F(128, 7), F(-40, 7)),
                               (F(239, 4), F(-145, 4), F(47, 4))])
def test_reported_scalars_are_fractions(u):
    # W is computed over Z; every scalar read off it, and every coefficient
    # of the cyclotomic polynomial, must still be a Fraction (an int / int
    # would be a float)
    n = 3
    ps = ParamSet.from_u(u, n_hint=n)
    values = list(ps.omega) + list(params.cyclotomic_coeffs(ps.u))
    for mu, ws in tower_scalars(ps, n).items():
        values += ws
        values += params.omega_k_values(mu, ps, ps.r + 1)
    assert values and all(type(x) is Fraction for x in values), \
        {type(x) for x in values}


def test_rational_function_clears_denominators():
    # (y/2 + 1/3)/(2y/5 - 1/7) is built as (105y + 70)/(84y - 30)
    num = Poly((F(1, 3), F(1, 2)))
    den = Poly((F(-1, 7), F(2, 5)))
    rf = RationalFunction(num, den)
    assert all(type(c) is int for c in rf.num.coeffs + rf.den.coeffs)
    assert rf.num == Poly((70, 105)) and rf.den == Poly((-30, 84))
    assert rf == RationalFunction(Poly((70, 105)), Poly((-30, 84)))
    assert rf == RationalFunction(num * 6, den * 6)
    assert params.series_of_rational(rf, 2) == params.series_of_rational(
        RationalFunction(Poly((70, 105)), Poly((-30, 84))), 2)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_w_at_shape_equals_the_fraction_reference(r):
    # W from the factors qy + C and qy - C, on int polynomials, against the
    # product of rational functions over Q: every shape of size <= 3, its
    # expansion at infinity, and Omega read off W at the empty shape
    for u in root_sets("w", r):
        ps = ParamSet.from_u(u, n_hint=3)
        for m in range(4):
            for mu in combinat.multipartitions(r, m):
                got = params.wk_rational(mu, ps)
                ref = w_at_shape_reference(mu, r, ps.u)
                assert all(type(x) is int for x in got.num.coeffs + got.den.coeffs)
                assert got == ref, (u, mu)
                assert params.series_of_rational(got, 7) == params.series_of_rational(ref, 7)
        empty = w_at_shape_reference(combinat.empty_mp(r), r, ps.u)
        assert ps.omega == tuple(params.series_of_rational(empty, ps.N))
