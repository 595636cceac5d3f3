"""Exact parameter sets, admissible sequences, and the expansion of W."""

import math
import random
from fractions import Fraction

import pytest

from support import (
    Poly, RationalFunction, brauer_omega_sequence, check_admissible, derived_omega,
    form_rational, filled_step_tables, module_nonsplit, module_residue_family,
    nilpotent_example_omega, omega_from_u, omega_residue_form, poly_value,
    recursion_factor_rational, schur_q, seeded_u, series_of_rational, series_reference,
    w_rational, w_recursive_rational,
)
from wenzl import combinat, params, seminormal
from wenzl.cli import main
from wenzl.params import ParamSet, format_fraction, parse_fraction
from support import addable_removable, root_sets, tower_scalars, w_at_shape_reference

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
    assert ps.u == (F(6), F(-2)) and ps.r == 2
    assert derived_omega(ps, 2) == [F(8), F(28), F(208)]
    assert ps.as_json()["precision_bits"] == 256
    ps3 = ParamSet.default(2, 3)
    assert ps3.u == (F(9), F(-3))
    assert derived_omega(ps3, 1) == [F(12), F(66)]


def test_from_u_holds_one_parameter_set():
    # equal roots return the held instance, however they are written
    ps = ParamSet.from_u(("1/2", 3))
    assert ps.u == (F(1, 2), F(3)) and ps.r == 2
    assert ParamSet.from_u(("2/4", "3")) is ps
    assert ParamSet.from_u((F(1, 2), 3)) is ps
    assert ParamSet.default(2, 3) is not ps
    # other roots replaced it: equal roots are built afresh
    again = ParamSet.from_u(("2/4", 3))
    assert again == ps and again is not ps
    assert ParamSet.from_u(("1/2", 3)) is again
    # one constructed directly is equal to the held one, and never held
    direct = ParamSet(again.u)
    assert direct == again and direct is not again
    assert ParamSet.from_u(("1/2", 3)) is again


def test_jobs_at_one_u_share_one_parameter_set(tmp_path, monkeypatch):
    # the held parameter set is keyed by the roots alone: verify at two
    # strand counts, gram and cellrank at the same roots build one
    # parameter set and fill the step table of each shape once
    boundaries = filled_step_tables(monkeypatch)
    u = "--u=" + ",".join(map(str, seeded_u("one-u", 2, 4)))
    out = str(tmp_path / "out.jsonl")
    for argv in (["verify", "--n", "3"], ["verify", "--n", "4"],
                 ["gram", "--shape", "(2|1)"], ["cellrank", "--n", "4"]):
        assert main([*argv, u, "--out", out]) == 0, argv
    assert params._param_set.cache_info().misses == 1
    assert boundaries and len(boundaries) == len(set(boundaries))
    assert set(boundaries) == {mu for m in range(4) for mu in combinat.multipartitions(2, m)}


def test_paramset_json_round_trip():
    ps = ParamSet.from_u((F(3, 2), F(-5)))
    data = ps.as_json()
    assert data == {"r": 2, "u": ["3/2", "-5"], "precision_bits": 256}
    assert ParamSet.from_u(data["u"]) is ps


def test_omega_from_u_matches_residue_form():
    v = (F(3), F(-7), F(11))
    omega = derived_omega(ParamSet.from_u(v), 6)
    for a in range(7):
        assert omega_from_u(v, a) == omega_residue_form(v, a) == omega[a]


def test_fixture_roots_derive_their_omega():
    # the module fixtures take their parameter sets from their roots: the
    # equal roots (1/4, 1/4) derive the nilpotent example, and the roots
    # (3, -7, 11) the residue form
    nonsplit = module_nonsplit().ps
    assert nonsplit.u == (F(1, 4), F(1, 4))
    assert derived_omega(nonsplit, 40) == nilpotent_example_omega(40)
    v = (F(3), F(-7), F(11))
    residue = module_residue_family(v).ps
    assert residue.u == v
    assert derived_omega(residue, 40) == [omega_residue_form(v, a) for a in range(41)]


def test_omega_from_u_admissible():
    for r in (1, 2, 3, 4):
        u = combinat.default_u(r, 3)
        omega = [omega_from_u(u, a) for a in range(13)]
        ok, bad = check_admissible(omega)
        assert ok and bad is None
        assert check_admissible(derived_omega(ParamSet.from_u(u), 40)) == (True, None)
    # Omega is u-admissible by its construction (params.omega_k_values), so
    # no job checks it: at other roots, and at roots where contents collide
    for r in (1, 2, 3):
        for u in root_sets("admissible", r) + _COLLIDING_U[r]:
            assert check_admissible(derived_omega(ParamSet.from_u(u), 24)) == (True, None), u


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
    # Omega is read off W_1 at infinity; the Schur q formula is independent.
    # Each length is a prefix of a longer one: a use reads what it needs
    for u in _roots():
        ps = ParamSet.from_u(u)
        for A in (0, len(u) + 2, 2 * len(u) + 12, 40):
            assert derived_omega(ps, A) == [omega_from_u(u, a) for a in range(A + 1)], u


def test_w1_identities():
    # (W_1(y) + y - 1/2)(W_1(-y) - y - 1/2) = (1/2 - y)(1/2 + y) exactly, as
    # rational functions; W_1(-y) flips the sign of the odd coefficients
    def at_minus_y(p):
        return Poly(tuple(-c if k % 2 else c for k, c in enumerate(p.coeffs)))

    half, y = F(1, 2), RationalFunction(Poly.y_plus(0))
    for u in _roots():
        ps = ParamSet.from_u(u)
        w = form_rational(params.wk_rational(combinat.empty_mp(len(u)), ps), ps)
        w_minus = RationalFunction(at_minus_y(w.num), at_minus_y(w.den))
        assert (w + y - half) * (w_minus - y - half) == (-y + half) * (y + half), u


def test_series_of_rational():
    # 1/(y - 2) = y^-1 + 2 y^-2 + 4 y^-3 + ..., and y/(y - 2) = 1 + 2 y^-1 + ...
    y, series = Poly.y_plus(0), series_of_rational
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
            ps = ParamSet.from_u(u)
            rfs += [w_rational(mu, ps) for m in range(4)
                    for mu in combinat.multipartitions(r, m)]
    for rf in rfs:
        for A in (0, 1, 2, 7, 40):
            got = series_of_rational(rf, A)
            assert got == series_reference(rf, A), (rf, A)
            assert all(type(x) is Fraction for x in got)


def _walk_recursion(t, k, ps):
    """Reference W_k: the rational recursion from W_1 along the first
    k - 1 steps of t, num/den unreduced."""
    rf = w_rational(combinat.empty_mp(ps.r), ps)
    y_minus_half = RationalFunction(Poly((-F(1, 2), F(1))))
    for c in combinat.content_sequence(t, ps.u)[:k - 1]:
        rf = recursion_factor_rational(c) * (rf + y_minus_half) - y_minus_half
    return rf


@pytest.mark.parametrize("r,n", [(2, 3), (1, 4)])
def test_wk_rational_matches_walk_recursion(r, n):
    # every walk of fewer than n steps, t ending at step k - 1
    ps = ParamSet.default(r, n)
    A = ps.r + 1
    walks = [(t, m + 1) for m in range(n)
             for lam in combinat.reachable_shapes(r, m)
             for t in combinat.updown_walks(m, lam)]
    for t, k in walks:
        ref = _walk_recursion(t, k, ps)
        mu = t[-1] if t else combinat.empty_mp(r)
        assert form_rational(params.wk_rational(mu, ps), ps) == ref, t
        if t:
            # the last step of t, from the shape before it
            C = params.contents(ps, t)[-1]
            before = params.wk_rational(combinat.shape_before(t, k - 1), ps)
            step = params.wk_recursive_rational(before, C, ps)
            assert form_rational(step, ps) == ref, t
        assert params.omega_k_values(mu, ps, A) == series_of_rational(ref, A)


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
                w = params.wk_rational(combinat.shape_before(t, 1), ps)
                assert form_rational(w, ps) == _w1_from_roots(ps)


def test_wk_rational_at_colliding_shape():
    # at r = 1, u = 1/2 the shape (1) has an addable and a removable node of
    # content -1/2; the unreduced closed form still equals the recursion
    # along the walk, one step of it, and its expansion gives the scalars
    ps = ParamSet.from_u((F(1, 2),))
    lam = ((1,),)
    contents = [c for _, c, _ in addable_removable(lam, ps.u)]
    assert len(set(contents)) < len(contents)
    for shape in combinat.reachable_shapes(1, 2):
        for t in combinat.updown_walks(2, shape):
            assert t[0] == lam
            direct = params.wk_rational(lam, ps)
            ref = _walk_recursion(t, 2, ps)
            assert form_rational(direct, ps) == ref
            step = params.wk_recursive_rational(params.wk_rational(combinat.empty_mp(1), ps),
                                                params.contents(ps, t)[0], ps)
            assert form_rational(step, ps) == ref and seminormal.w_equal(direct, step)
            # W(0) = 0: the constant term of N vanishes, that of 2Q not
            N, D = params.w_polynomials(ps, direct)
            assert N[0] == 0 != D[0]
            assert params.omega_k_values(lam, ps, 4) == series_of_rational(ref, 4)


def test_omega_k_values_at_first_position():
    # before the first strand the shape is empty: the scalars are Omega itself
    ps = ParamSet.default(2, 2)
    t = (((1,), ()), ((1, 1), ()))
    vals = params.omega_k_values(combinat.shape_before(t, 1), ps, 4)
    assert vals == [omega_from_u(ps.u, a) for a in range(5)]


@pytest.mark.parametrize("u", [(F(9), F(-3)), (F(128, 7), F(-40, 7)),
                               (F(239, 4), F(-145, 4), F(47, 4))])
def test_reported_scalars_are_fractions(u):
    # W is computed over Z; every scalar read off it, and every coefficient
    # of the cyclotomic polynomial, must still be a Fraction (an int / int
    # would be a float)
    n = 3
    ps = ParamSet.from_u(u)
    values = derived_omega(ps, 2 * ps.r + 4 * n) + list(params.cyclotomic_coeffs(ps.u))
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
    assert series_of_rational(rf, 2) == series_of_rational(
        RationalFunction(Poly((70, 105)), Poly((-30, 84))), 2)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_w_at_shape_equals_the_fraction_reference(r):
    # W from the factors qy + C and qy - C, on int polynomials, against the
    # product of rational functions over Q: every shape of size <= 3, its
    # expansion at infinity, and Omega read off W at the empty shape
    for u in root_sets("w", r):
        ps = ParamSet.from_u(u)
        for m in range(4):
            for mu in combinat.multipartitions(r, m):
                form = params.wk_rational(mu, ps)
                N, D = params.w_polynomials(ps, form)
                ref = w_at_shape_reference(mu, r, ps.u)
                assert all(type(x) is int for x in (*form[0], *form[1], *N, *D))
                assert form_rational(form, ps) == RationalFunction(Poly(N), Poly(D)) == ref, (
                    u, mu)
                assert params.series_at_infinity(N, D, 7) == series_of_rational(ref, 7)
        empty = w_at_shape_reference(combinat.empty_mp(r), r, ps.u)
        assert derived_omega(ps, 12) == series_of_rational(empty, 12)


# roots at which contents of the steps out of some shape of size <= 4
# coincide, and repeated roots
_COLLIDING_U = {1: [(F(1, 2),), (F(-3, 2),), (F(0),), (F(1),)],
                2: [(F(1, 4), F(5, 4)), (F(5), F(3)), (F(0), F(2)), (F(-1, 4), F(7, 4))],
                3: [(F(2), F(-1), F(1, 2)), (F(3, 2), F(1, 2), F(-5, 2))]}
_REPEATED_U = {1: [], 2: [(F(2), F(2)), (F(1, 4), F(1, 4)), (F(0), F(0))],
               3: [(F(1), F(1), F(1)), (F(3), F(0), F(3))]}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_int_w_identities_equal_the_rational_function_path(r):
    # each W identity on the ints of the step table against the same
    # identity of rational functions, and the int series against the
    # Fraction one, at every shape of size <= 4, also where contents
    # coincide and partial fractions fail: the same booleans and the same
    # Fractions.  And the lemma that no code path uses: where the contents
    # are distinct, omega^(a) = sum_m e_m c_m^a
    y = RationalFunction(Poly((0, 1)))
    seen = {True: 0, False: 0}
    for u in root_sets("w-identities", r) + _COLLIDING_U[r] + _REPEATED_U[r]:
        ps = ParamSet.from_u(u)
        q, A = ps.q, 2 * r + 4
        for mu in (mu for m in range(5) for mu in combinat.multipartitions(r, m)):
            C, e, _, _ = params.steps_out(mu, ps)
            w, form = w_rational(mu, ps), params.wk_rational(mu, ps)
            for nu, cn in C.items():
                step = params.wk_recursive_rational(form, cn, ps)
                assert seminormal.w_equal(params.wk_rational(nu, ps), step) == (
                    w_rational(nu, ps) == w_recursive_rational(mu, F(cn, q), ps)), (u, nu)
            assert poly_value(w.num, F(0)) == 0, (u, mu)
            parts = sum(RationalFunction(Poly.const(e[m] * q), Poly((-x, q)))
                        for m, x in C.items())
            ok = seminormal.w_partial_fractions_hold(ps, mu, form)
            assert ok == (RationalFunction(w.num, w.den * y.num) == parts), (u, mu)
            seen[ok] += 1
            omega = params.omega_k_values(mu, ps, A)
            assert omega == series_reference(w, A), (u, mu)
            if len(set(C.values())) == len(C):
                assert omega == [sum(e[m] * F(x, q) ** a for m, x in C.items())
                                 for a in range(A + 1)], (u, mu)
    assert seen[True] and seen[False], seen


def _shapes_to_six(r):
    return (mu for m in range(7) for mu in combinat.multipartitions(r, m))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_steps_out_of_a_shape_are_r_mod_2(r):
    # the parity lemma of params.wk_rational: the steps out of every shape
    # number r mod 2, so prod(-C) = (-1)^r prod(C) and W(0) = 0 there,
    # for any roots: no job checks it
    ps = ParamSet.from_u(seeded_u("parity", r, 6))
    for mu in _shapes_to_six(r):
        C = tuple(params.steps_out(mu, ps).C.values())
        assert len(C) % 2 == r % 2, mu
        assert math.prod(-x for x in C) == (-1) ** r * math.prod(C), mu
        assert params.w_polynomials(ps, params.wk_rational(mu, ps))[0][0] == 0, mu


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_omega_zero_at_every_shape(r):
    # the content lemma of params.wk_rational: the contents of the steps out
    # of every shape sum to q sum u, so omega_k^(0) at every shape is
    # Omega_0 = 2 sum u + (1 - (-1)^r) / 2, and the tower at a = 0 is the
    # contraction-scalar relation
    for tag in ("omega-zero", "omega-zero-2"):
        ps = ParamSet.from_u(seeded_u(tag, r, 6))
        omega0 = params.omega_k_values(combinat.empty_mp(r), ps, 0)[0]
        assert omega0 == 2 * sum(ps.u) + (1 - (-1) ** r) // 2
        for mu in _shapes_to_six(r):
            assert sum(params.steps_out(mu, ps).C.values()) == ps.q * sum(ps.u), mu
            assert params.omega_k_values(mu, ps, 0) == [omega0], mu
