"""Exact parameter sets, admissible sequences, and the series machinery."""

from fractions import Fraction

from wenzl import combinat, params
from wenzl.params import (
    LaurentSeries, ParamSet, Poly, RationalFunction, brauer_omega_sequence,
    check_admissible, format_fraction, nilpotent_example_omega, omega_from_u,
    omega_residue_form, parse_fraction, residue_at_simple_pole, schur_q,
)

F = Fraction


def test_parse_format_fraction():
    assert parse_fraction("3/4") == F(3, 4)
    assert parse_fraction("-7") == F(-7)
    assert format_fraction(F(3, 4)) == "3/4"
    assert format_fraction(F(5)) == "5"
    for s in ("0", "-1/3", "22/7"):
        assert format_fraction(parse_fraction(s)) == s


def test_poly_arithmetic():
    p = Poly.y_plus(-2) * Poly.y_plus(3)      # (y - 2)(y + 3)
    assert p(F(2)) == 0 and p(F(-3)) == 0 and p(F(0)) == -6
    q, rem = divmod(p, Poly.y_plus(-2))
    assert rem == Poly() and q == Poly.y_plus(3)
    assert p.degree == 2
    assert (p * F(1, 2))(F(0)) == -3


def test_rational_function_reduction():
    num = Poly.y_plus(-1) * Poly.y_plus(1)   # y^2 - 1
    a = RationalFunction(num, Poly.y_plus(-1))
    assert a == RationalFunction(Poly.y_plus(1))
    assert a(F(5)) == 6
    c = RationalFunction(Poly.const(3)) / RationalFunction(Poly.const(6))
    assert c == RationalFunction.const(F(1, 2))


def test_residue_at_simple_pole():
    den = Poly.y_plus(-2) * Poly.y_plus(3)
    rf = RationalFunction(Poly.const(1), den)
    assert residue_at_simple_pole(rf, F(2)) == F(1, 5)
    assert residue_at_simple_pole(rf, F(-3)) == F(-1, 5)


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


def test_paramset_json_round_trip():
    ps = ParamSet.from_u((F(3, 2), F(-5)), n_hint=3)
    data = ps.as_json()
    assert data["r"] == 2
    assert data["u"] == ["3/2", "-5"]
    assert all(isinstance(s, str) for s in data["omega"])
    assert parse_fraction(data["omega"][0]) == ps.omega[0]


def test_omega_from_u_matches_residue_form():
    v = (F(3), F(-7), F(11))
    for a in range(7):
        assert omega_from_u(v, a) == omega_residue_form(v, a)


def test_omega_from_u_admissible():
    for r in (1, 2, 3, 4):
        u = combinat.default_u(r, 3)
        omega = [omega_from_u(u, a) for a in range(13)]
        ok, bad = check_admissible(omega)
        assert ok and bad is None


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


def test_w1_identities():
    for r in (1, 2, 3):
        ps = ParamSet.default(r, 3)
        assert params.w1_identity_check(ps)
        assert params.w1_product_identity_check(ps)


def test_wk_series_matches_rational():
    ps = ParamSet.default(2, 3)
    for lam in combinat.reachable_shapes(2, 2):
        for t in combinat.enumerate_updown(2, lam):
            for k in (1, 2):
                order = ps.N - 2 * (k - 1)
                series = params.wk_recursive(t, k, ps, order)
                rf = params.wk_rational(t, k, ps)
                expanded = params.series_of_rational(rf, series.low)
                assert series.agrees_with(expanded, series.low)


def test_omega_k_values_at_first_position():
    # before the first strand the shape is empty: the scalars are Omega itself
    ps = ParamSet.default(2, 2)
    t = (((1,), ()), ((1, 1), ()))
    vals = params.omega_k_values(t, 1, ps, 4)
    assert tuple(vals) == ps.omega[:5]


def test_laurent_series_truncation():
    a = LaurentSeries({-1: F(1)}, -4)        # 1/y + O(y^4 tail tracking)
    b = LaurentSeries({1: F(2)}, -4)
    prod = a * b
    assert prod[0] == 2
    assert prod.low >= -4


def test_from_omega_mode():
    omega = nilpotent_example_omega(10)
    ps = ParamSet.with_omega((F(1, 4), F(1, 4)), omega)
    assert ps.mode != "u-admissible-derived"
    assert ps.omega[2] == F(-1, 16)

