"""Parameter sets and the exact generating-function machinery.

Everything here is exact rational arithmetic: dense polynomials in y,
reduced rational functions, and Laurent-type truncated expansions at
y = infinity.  A series knows the lowest power it is exact to (``low``)
and refuses to certify coefficients below it, so precision bookkeeping
is automatic through products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import combinat

HALF = Fraction(1, 2)


def parse_fraction(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# dense polynomials and reduced rational functions in one variable
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial over Fraction; coeffs[k] is the y^k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((Fraction(c),))

    @classmethod
    def y_plus(cls, c) -> "Poly":
        """The monic linear polynomial y + c."""
        return cls((Fraction(c), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not self or not other:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        assert other, "division by the zero polynomial"
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d, lead = other.degree, other.coeffs[-1]
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= q * b
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        return self * (1 / self.coeffs[-1]) if self else self

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __call__(self, x: Fraction) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


ONE = Poly.const(1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, divmod(a, b)[1]
    return a.monic() if a else ONE


class RationalFunction:
    """num/den, reduced, denominator monic; supports exact field arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        assert den, "zero denominator"
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num, self.den = num, den

    @classmethod
    def const(cls, c) -> "RationalFunction":
        return cls(Poly.const(c))

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num, self.den * other)
        assert other.num, "division by zero rational function"
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __call__(self, x: Fraction) -> Fraction:
        d = self.den(x)
        assert d != 0, f"pole at {x}"
        return self.num(x) / d

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def residue_at_simple_pole(rf: RationalFunction, c: Fraction) -> Fraction:
    """Residue N(c)/D'(c) at a simple root c of the denominator."""
    assert rf.den(c) == 0, f"{c} is not a pole"
    dprime = rf.den.derivative()(c)
    assert dprime != 0, f"pole at {c} is not simple"
    return rf.num(c) / dprime


# ---------------------------------------------------------------------------
# truncated expansions at y = infinity
# ---------------------------------------------------------------------------

class LaurentSeries:
    """Finitely many powers of y, exact for all powers >= low.

    Multiplication, addition and rational-function expansion propagate
    ``low`` pessimistically, so a coefficient you can read is a coefficient
    you can trust.
    """

    __slots__ = ("coeffs", "low")

    def __init__(self, coeffs: dict, low: int):
        self.coeffs = {p: Fraction(c) for p, c in coeffs.items()
                       if p >= low and c != 0}
        self.low = low

    @property
    def top(self) -> int:
        return max(self.coeffs, default=self.low)

    def __getitem__(self, p: int) -> Fraction:
        if p < self.low:
            raise ValueError(f"coefficient of y^{p} certified only down to {self.low}")
        return self.coeffs.get(p, Fraction(0))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries({0: Fraction(other)}, self.low)
        low = max(self.low, other.low)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return LaurentSeries(out, low)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries({p: -c for p, c in self.coeffs.items()}, self.low)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries({0: Fraction(other)}, self.low)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentSeries({p: c * other for p, c in self.coeffs.items()},
                                 self.low)
        low = max(self.low + other.top, other.low + self.top)
        out: dict[int, Fraction] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                if p + q >= low:
                    out[p + q] = out.get(p + q, Fraction(0)) + a * b
        return LaurentSeries(out, low)

    __rmul__ = __mul__

    def substitute_minus_y(self) -> "LaurentSeries":
        return LaurentSeries({p: c if p % 2 == 0 else -c
                              for p, c in self.coeffs.items()}, self.low)

    def agrees_with(self, other, down_to: int) -> bool:
        if down_to < max(self.low, other.low):
            raise ValueError("comparison below certified truncation")
        powers = {p for p in (*self.coeffs, *other.coeffs) if p >= down_to}
        return all(self[p] == other[p] for p in powers)

    def __repr__(self):
        items = ", ".join(f"y^{p}: {format_fraction(c)}"
                          for p, c in sorted(self.coeffs.items(), reverse=True))
        return f"LaurentSeries({{{items}}}, low={self.low})"


def y_series(low: int) -> LaurentSeries:
    return LaurentSeries({1: Fraction(1)}, low)


def series_of_rational(rf: RationalFunction, low: int) -> LaurentSeries:
    """Expansion of num/den at y = infinity, exact down to y^low."""
    num, den = rf.num, rf.den
    assert den, "zero denominator"
    if not num:
        return LaurentSeries({}, low)
    t = num.degree - den.degree
    # write num/den = y^t * p(x)/q(x) with x = 1/y and q(0) = lead(den)
    p = list(reversed(num.coeffs))
    q = list(reversed(den.coeffs))
    length = t - low + 1  # powers t, t-1, ..., low
    inv = [Fraction(0)] * length
    inv[0] = 1 / q[0]
    for k in range(1, length):
        acc = Fraction(0)
        for j in range(1, min(k, len(q) - 1) + 1):
            acc += q[j] * inv[k - j]
        inv[k] = -acc / q[0]
    out: dict[int, Fraction] = {}
    for k in range(length):
        acc = Fraction(0)
        for j in range(min(k, len(p) - 1) + 1):
            acc += p[j] * inv[k - j]
        if acc:
            out[t - k] = acc
    return LaurentSeries(out, low)


# ---------------------------------------------------------------------------
# Schur q-functions and admissible parameter sequences
# ---------------------------------------------------------------------------

def schur_q(a: int, x) -> Fraction:
    """Coefficient of y^a in prod_i (1 + x_i y)/(1 - x_i y)."""
    assert a >= 0
    coeffs = [Fraction(0)] * (a + 1)
    coeffs[0] = Fraction(1)
    for xi in x:
        xi = Fraction(xi)
        # multiply by (1 + xi*y), then by 1/(1 - xi*y) = sum (xi*y)^k
        for k in range(a, 0, -1):
            coeffs[k] += xi * coeffs[k - 1]
        for k in range(1, a + 1):
            coeffs[k] += xi * coeffs[k - 1]
    return coeffs[a]


def omega_from_u(u, a: int, r: int | None = None) -> Fraction:
    """omega_a = q_{a+1}(u) - (1/2)(-1)^r q_a(u) + (1/2) delta_{a0}."""
    if r is None:
        r = len(u)
    sign = -1 if r % 2 else 1
    out = schur_q(a + 1, u) - HALF * sign * schur_q(a, u)
    if a == 0:
        out += HALF
    return out


def ene0_gammas(v) -> list[Fraction]:
    """The residue coefficients of the d-dimensional module with X_1 = diag(v)."""
    v = [Fraction(x) for x in v]
    d = len(v)
    sign = -1 if d % 2 else 1
    out = []
    for i, vi in enumerate(v):
        g = 2 * vi - sign
        for j, vj in enumerate(v):
            if j != i:
                assert vi != vj, "coincident eigenvalues"
                g *= (vi + vj) / (vi - vj)
        out.append(g)
    return out


def omega_residue_form(v, a: int) -> Fraction:
    return sum(Fraction(x) ** a * g for x, g in zip(v, ene0_gammas(v)))


def check_admissible(omega) -> tuple[bool, int | None]:
    """Does omega_{2a+1} = (1/2){-omega_{2a} + sum_b (-1)^{b-1} omega_{b-1} omega_{2a+1-b}}
    hold for every odd index the list can express?  Returns (ok, first bad a).

    Entries may be Fractions or any exact ring elements supporting +, *, ==
    and scalar multiplication by Fraction (e.g. Poly, for one-parameter
    families)."""
    omega = list(omega)
    a = 0
    while 2 * a + 1 < len(omega):
        rhs = -omega[2 * a]
        for b in range(1, 2 * a + 2):
            term = omega[b - 1] * omega[2 * a + 1 - b]
            rhs += term if b % 2 else -term
        if omega[2 * a + 1] != HALF * rhs:
            return False, a
        a += 1
    return True, None


@dataclass(frozen=True)
class ParamSet:
    """Parameters (r, u) with the derived admissible sequence Omega.

    ``omega[a]`` is exact for 0 <= a <= N.  ``from_u`` sizes N from r and
    the strand count n, enough for every check on n strands.  ``mode``
    records whether Omega was derived from u or supplied directly.
    """

    r: int
    u: tuple[Fraction, ...]
    omega: tuple[Fraction, ...]
    N: int
    mode: str = "u-admissible-derived"

    @classmethod
    def from_u(cls, u, n_hint: int = 4, min_N: int = 0) -> "ParamSet":
        """Omega derived from the roots u, exact up to the larger of
        2r + 4 max(n_hint, 1) and min_N."""
        u = tuple(parse_fraction(x) for x in u)
        r = len(u)
        N = max(2 * r + 4 * max(n_hint, 1), min_N)
        omega = tuple(omega_from_u(u, a, r) for a in range(N + 1))
        return cls(r, u, omega, N)

    @classmethod
    def default(cls, r: int, n: int) -> "ParamSet":
        return cls.from_u(combinat.default_u(r, n), n)

    @classmethod
    def with_omega(cls, u, omega) -> "ParamSet":
        """Roots u together with a directly supplied Omega (which need not be
        the one u would derive — that is the whole point of some modules)."""
        u = tuple(parse_fraction(x) for x in u)
        omega = tuple(parse_fraction(w) for w in omega)
        return cls(len(u), u, omega, len(omega) - 1, "user-supplied")

    def as_json(self) -> dict:
        return {
            "r": self.r,
            "u": [format_fraction(x) for x in self.u],
            "omega": [format_fraction(w) for w in self.omega],
            "N": self.N,
            # fixed: no computation reads it, but perfbench/checks.py does
            "precision_bits": 256,
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# the generating functions W_1, W_k(y, t)
# ---------------------------------------------------------------------------

def w1_series(ps: ParamSet, N: int | None = None) -> LaurentSeries:
    """sum_a omega_a y^{-a}, exact down to y^{-N}."""
    if N is None:
        N = ps.N
    assert N <= ps.N, "requested order beyond stored Omega"
    return LaurentSeries({-a: ps.omega[a] for a in range(N + 1)}, -N)


def w1_rational(ps: ParamSet) -> RationalFunction:
    """(y - (1/2)(-1)^r) prod_i (y + u_i)/(y - u_i) - y + 1/2."""
    assert ps.mode == "u-admissible-derived", "needs u"
    sign = -1 if ps.r % 2 else 1
    rf = RationalFunction(Poly((-HALF * sign, Fraction(1))))
    for ui in ps.u:
        rf = rf * RationalFunction(Poly.y_plus(ui), Poly.y_plus(-ui))
    return rf - RationalFunction(Poly((-HALF, Fraction(1))))


def w1_identity_check(ps: ParamSet, N: int | None = None) -> bool:
    """Series of the rational form of W_1 matches Omega coefficientwise."""
    if N is None:
        N = ps.N
    lhs = w1_series(ps, N)
    rhs = series_of_rational(w1_rational(ps), -N)
    return lhs.agrees_with(rhs, -N)


def w1_product_identity_check(ps: ParamSet, N: int | None = None) -> bool:
    """(W_1(y)+y-1/2)(W_1(-y)-y-1/2) = (1/2-y)(1/2+y), as truncated series."""
    if N is None:
        N = ps.N
    low = -N
    w = w1_series(ps, N)
    y = y_series(low)
    lhs = (w + y - HALF) * (w.substitute_minus_y() - y - HALF)
    rhs = (LaurentSeries({0: HALF}, low) - y) * (LaurentSeries({0: HALF}, low) + y)
    return lhs.agrees_with(rhs, max(lhs.low, rhs.low))


def wk_rational(t, k: int, ps: ParamSet) -> RationalFunction:
    """1/2 - y + (y - (1/2)(-1)^r) prod_alpha (y + c(alpha))/(y - c(alpha)),
    the product over addable and removable nodes of the step-(k-1) shape."""
    assert 1 <= k <= len(t)
    shape = t[k - 2] if k >= 2 else combinat.empty_mp(ps.r)
    contents = [c for _, c, _ in combinat.addable_removable(shape, ps.u)]
    if len(set(contents)) != len(contents):
        raise ValueError(f"content collision among nodes of {shape}: u not generic")
    sign = -1 if ps.r % 2 else 1
    rf = RationalFunction(Poly((-HALF * sign, Fraction(1))))
    for c in contents:
        rf = rf * RationalFunction(Poly.y_plus(c), Poly.y_plus(-c))
    return rf + RationalFunction(Poly((HALF, Fraction(-1))))


def _recursion_factor_rational(c: Fraction) -> RationalFunction:
    """((y+c)^2 - 1)(y-c)^2 / (((y-c)^2 - 1)(y+c)^2)."""
    plus, minus = Poly.y_plus(c), Poly.y_plus(-c)
    return RationalFunction((plus * plus - ONE) * (minus * minus),
                            (minus * minus - ONE) * (plus * plus))


def wk_recursive_rational(t, k: int, ps: ParamSet) -> RationalFunction:
    """The recursion in exact rational-function arithmetic, specialized along t."""
    assert 1 <= k <= len(t)
    rf = w1_rational(ps)
    y_minus_half = RationalFunction(Poly((-HALF, Fraction(1))))
    contents = combinat.content_sequence(t, ps.u)
    for i in range(1, k):
        rf = _recursion_factor_rational(contents[i - 1]) * (rf + y_minus_half) \
            - y_minus_half
    return rf


def wk_recursive(t, k: int, ps: ParamSet, N: int | None = None) -> LaurentSeries:
    """Same recursion on truncated series; each step costs a little truncation,
    so the certified order of the result may sit above -N by 2(k-1)."""
    if N is None:
        N = ps.N
    margin = 2 * (k - 1)
    assert N + margin <= ps.N, (
        f"stored Omega too short: need order {N + margin}, have {ps.N}")
    s = w1_series(ps, N + margin)
    contents = combinat.content_sequence(t, ps.u)
    for i in range(1, k):
        y = y_series(s.low)
        factor = series_of_rational(_recursion_factor_rational(contents[i - 1]),
                                    s.low)
        s = factor * (s + y - HALF) - y + HALF
    return s


def omega_k_values(t, k: int, ps: ParamSet, A: int) -> list[Fraction]:
    """The scalars omega_k^{(a)}, a = 0..A, at position k along t: coefficients
    of y^{-a} at infinity, produced by the truncated-series recursion (the
    closed rational form is cross-checked elsewhere)."""
    series = wk_recursive(t, k, ps, A)
    assert series.top <= 0, "W_k should be O(1) at infinity"
    return [series[-a] for a in range(A + 1)]


def nilpotent_example_omega(A: int) -> list[Fraction]:
    """omega_a = (1/4)^a (1 - a): an admissible sequence that no pair of
    distinct roots derives; its algebra admits a module on which X_1 - 1/4
    is nonzero nilpotent."""
    q = Fraction(1, 4)
    return [q ** a * (1 - a) for a in range(A + 1)]


def brauer_omega_sequence(A: int) -> list[Poly]:
    """The one-parameter family omega_a = w*((w-1)/2)^a, as exact polynomials
    in the loop value w; admissible for every w."""
    w = Poly((Fraction(0), Fraction(1)))
    step = (w - ONE) * HALF
    out, cur = [], w
    for _ in range(A + 1):
        out.append(cur)
        cur = cur * step
    return out
