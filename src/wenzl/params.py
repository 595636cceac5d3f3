"""Parameter sets, the steps out of a shape, and the exact generating
functions W at a shape.

A parameter set is its roots u.  It holds, per shape met, the steps out of
it with their contents as ints over one denominator, their contraction
coefficients and their step factors (``steps_out``, the only writer of that
table, which reads the root-free steps of ``combinat.steps_from``), and W
there; ``contents`` walks a tableau through the table, and ``gamma``
multiplies the step factors along it.  ``ParamSet.from_u`` holds the last
parameter set it built.  Everything here is exact rational arithmetic: dense polynomials in y, and
rational functions num/den whose denominators are cleared when they are
built, so num and den are polynomials over Z (Python ints) and their
products never normalise a Fraction.  A rational function is not reduced:
equality is by cross-multiplication.  Rational functions are built, added,
multiplied, compared and expanded at infinity, never evaluated or
divided: an identity about W is stated on its coefficients, or multiplied
through by its denominator.  The scalars are coefficients of one
expansion at y = infinity (``omega_k_values``): Omega is that of W at the
empty shape, read there by each use to the length it needs, and the tower
scalars omega_k^(a) that of W at the shape before step k; the expansion
runs on ints, and they are returned as Fractions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import combinat

HALF = Fraction(1, 2)


def parse_fraction(s) -> Fraction:
    return s if isinstance(s, Fraction) else Fraction(str(s))


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# dense polynomials, and rational functions kept unreduced, in one variable
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial over Q; coeffs[k] is the y^k coefficient, an int or
    a Fraction as given, so a polynomial over Z computes on ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


ONE = Poly.const(1)


def clearing(xs) -> int:
    """The lcm of the denominators of the Fractions xs."""
    return math.lcm(*(x.denominator for x in xs))


def cleared(xs, d: int) -> tuple[int, ...]:
    """The ints d x for the Fractions xs, whose denominators all divide d."""
    return tuple(x.numerator * (d // x.denominator) for x in xs)


class RationalFunction:
    """num/den as built, never reduced, with exact +, - and * (and + or -
    of a scalar).  Building one clears the denominators of its coefficients:
    num and den are both multiplied by their lcm, so they hold ints.
    Equality is by cross-multiplication, so two representations of one
    function compare equal."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        assert den, "zero denominator"
        cs = num.coeffs + den.coeffs
        if not all(type(c) is int for c in cs):
            scale = clearing(cs)
            num, den = Poly(cleared(num.coeffs, scale)), Poly(cleared(den.coeffs, scale))
        self.num, self.den = num, den

    @classmethod
    def const(cls, c) -> "RationalFunction":
        return cls(Poly.const(c))

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num * other.den == other.num * self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# the expansion at y = infinity, and admissible parameter sequences
# ---------------------------------------------------------------------------

def series_of_rational(rf: RationalFunction, A: int) -> list[Fraction]:
    """The coefficients of y^0, y^-1, ..., y^-A in the expansion of num/den
    at y = infinity, which must be O(1) there.  In x = 1/y this is the power
    series of p(x)/q(x), p and q the reversed coefficients of num and den,
    with p shifted by deg den - deg num.  num and den hold ints, so the k-th
    coefficient is kept as an int N_k over q0^(k+1), q0 = q[0]:
    N_k = p_k q0^k - sum_j q_j N_{k-j} q0^(j-1), and one Fraction is made
    per coefficient."""
    num, den = rf.num, rf.den
    assert num.degree <= den.degree, "W should be O(1) at infinity"
    p = [0] * (den.degree - num.degree) + list(reversed(num.coeffs))
    q = list(reversed(den.coeffs))
    powers = [1]  # q0^k
    for _ in range(A + 1):
        powers.append(powers[-1] * q[0])
    out: list[int] = []
    for k in range(A + 1):
        acc = p[k] * powers[k] if k < len(p) else 0
        for j in range(1, min(k, len(q) - 1) + 1):
            acc -= q[j] * out[k - j] * powers[j - 1]
        out.append(acc)
    return [Fraction(x, powers[k + 1]) for k, x in enumerate(out)]


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


def cyclotomic_coeffs(u) -> tuple[Fraction, ...]:
    """c_0, ..., c_r with prod_i (y - u_i) = sum_k c_k y^k, so c_r = 1."""
    return tuple(Fraction(c) for c in
                 math.prod((Poly.y_plus(-x) for x in u), start=ONE).coeffs)


@dataclass(frozen=True)
class ParamSet:
    """The parameter set fixed by the roots u; r is their number.

    Omega is u-admissible: it is no field, but read where it is used, as the
    expansion at infinity of W at the empty shape (``omega_k_values``).

    Three tables hold what depends only on the roots, so that each value is
    formed once: ``steps`` the steps out of each shape met (``steps_out``),
    ``w_at`` W at each shape met (``wk_rational``), and ``murphy`` the
    Murphy basis on n strands by n (``hecke.murphy_basis``).  They are no
    constructor arguments, and neither equality, the hash nor ``as_json``
    reads them.  ``from_u`` holds the last parameter set it built, so the
    jobs of a batch at one u share its tables; one constructed directly is
    never held.
    """

    u: tuple[Fraction, ...]
    w_at: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    steps: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    murphy: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_u(cls, u) -> "ParamSet":
        """The parameter set of the roots u, held: equal roots, however they
        are written, return the same instance until other roots replace
        it."""
        return _param_set(tuple(parse_fraction(x) for x in u))

    @property
    def r(self) -> int:
        return len(self.u)

    @functools.cached_property
    def q(self) -> int:
        """The lcm of the roots' denominators: q c is an int for every
        content c."""
        return clearing(self.u)

    @classmethod
    def default(cls, r: int, n: int) -> "ParamSet":
        return cls.from_u(combinat.default_u(r, n))

    def as_json(self) -> dict:
        return {
            "r": self.r,
            "u": [format_fraction(x) for x in self.u],
            # fixed: no computation reads it, but perfbench/checks.py does
            "precision_bits": 256,
        }


# the parameter set of ``from_u``, held for the next call with equal roots;
# one entry, so a long batch stays flat in memory
_param_set = functools.lru_cache(maxsize=1)(ParamSet)


# ---------------------------------------------------------------------------
# the steps out of a shape, W at a shape, one step of its recursion, and the
# tower scalars
# ---------------------------------------------------------------------------

class Steps(NamedTuple):
    """The steps out of one shape mu, keyed by the shape nu they reach, in
    ``combinat.steps_from`` order (addable nodes first), as ``steps_out``
    forms them: ``C`` the int q c(mu -> nu) (c the content of the node
    added, or minus that of the node removed; q is ``ParamSet.q``), ``e``
    the diagonal contraction coefficient of leaving mu for nu and returning
    (``e_diag``), ``g`` the step factor, whose product along a walk is its
    gamma, and ``h`` h(mu), None until a factor of a step that removes a
    node is asked for; until then ``g`` holds the steps that add one."""

    C: dict
    e: dict
    g: dict
    h: tuple | None


def e_diag(C: int, boundary, q: int, r: int) -> Fraction:
    """Diagonal contraction coefficient of a pair of steps that leave a shape
    mu across a node of content c and return: (2c - (-1)^r) times the
    product of (c + c(alpha))/(c - c(alpha)) over the other boundary nodes
    alpha.  Every content comes as the int q c: C for c, and ``boundary``
    for the contents of all the steps out of mu.  So
    (2C - (-1)^r q) prod (C + C(alpha)) over q prod (C - C(alpha)) is formed
    on ints, and one Fraction is made."""
    sign = -1 if r % 2 else 1
    num, den = 2 * C - sign * q, q
    for x in boundary:
        if x != C:
            num *= C + x
            den *= C - x
    return Fraction(num, den)


def steps_out(mu, ps: ParamSet, removing: bool = False) -> Steps:
    """The ``Steps`` out of mu, formed once per parameter set, in
    ``ps.steps``, from the shapes and nodes of ``combinat.steps_from``, each
    content by ``combinat.node_content``, cleared once.  A step that adds
    alpha has F(mu -> nu), the product of c_alpha - c_beta over the nodes
    beta addable to mu below alpha over the same for the removable ones,
    (i', j', s') below (i, j, s) when (s', i') > (s, i); with C = q c,
    c_alpha - c_beta is (C_alpha -+ C_beta) / q.  A step that removes a node
    has h(mu) h(nu) / F(nu -> mu), with h 1 at the empty shape and h(lam)
    e_mu(lam) one node on, lam left by mu's first removable node; these and
    h fill the tables of every smaller shape, so they are formed only once
    ``removing`` asks.  All are unreduced int pairs (num, den); a factor is
    0 or undefined only where contents coincide."""
    st = ps.steps.get(mu)
    if st is None:
        q, steps = ps.q, combinat.steps_from(mu)
        cs = cleared((combinat.node_content(node, ps.u, removed)
                      for node, removed in steps.values()), q)
        C = dict(zip(steps, cs))
        e = {nu: e_diag(x, cs, q, ps.r) for nu, x in C.items()}
        g = {}
        for nu, ((i, _, s), removed) in steps.items():
            if removed:  # after every addable node
                break
            num = den = 1
            for other, ((bi, _, bs), other_removed) in steps.items():
                if (bs, bi) > (s, i):
                    x = C[nu] + C[other] if other_removed else C[nu] - C[other]
                    num, den = (num * q, den * x) if other_removed else (num * x, den * q)
            g[nu] = num, den
        st = ps.steps[mu] = Steps(C, e, g, None)
    if removing and st.h is None:
        g, h = dict(st.g), None
        for nu, (_, removed) in combinat.steps_from(mu).items():
            if removed:
                below = steps_out(nu, ps, removing=True)
                (fn, fd), (hn, hd), x = below.g[mu], below.h, below.e[mu]
                if h is None:
                    h = hn * x.numerator, hd * x.denominator
                g[nu] = h[0] * hn * fd, h[1] * hd * fn
        st = ps.steps[mu] = st._replace(g=g, h=h or (1, 1))
    return st


def gamma(ps: ParamSet, t) -> Fraction:
    """gamma_t: the product of the step factors g along the walk t, read
    from the step table as int pairs; one Fraction is made."""
    num = den = 1
    for mu, nu in zip((combinat.empty_mp(ps.r),) + t, t):
        g = steps_out(mu, ps).g
        a, b = g[nu] if nu in g else steps_out(mu, ps, removing=True).g[nu]
        num, den = num * a, den * b
    return Fraction(num, den)


def contents(ps: ParamSet, t) -> tuple[int, ...]:
    """q c at each step of the walk t, read from the step table."""
    out, mu = [], combinat.empty_mp(ps.r)
    for nu in t:
        out.append(steps_out(mu, ps).C[nu])
        mu = nu
    return tuple(out)


def _w_at_shape(shape, C, q: int) -> RationalFunction:
    """1/2 - y + (y - (1/2)(-1)^r) prod_alpha (y + c(alpha))/(y - c(alpha)),
    the product over the addable and removable nodes alpha of the
    r-multipartition ``shape``, given their contents c as the ints C = q c.
    Over Z it is ((1 - 2y) Q + (2y - (-1)^r) P) / (2Q), with P and Q the
    products of the factors qy + C and qy - C."""
    sign = -1 if len(shape) % 2 else 1
    P = Q = Poly((1,))
    for x in C:
        P, Q = P * Poly((x, q)), Q * Poly((-x, q))
    return RationalFunction(Poly((1, -2)) * Q + Poly((-sign, 2)) * P, Q * 2)


def wk_rational(mu, ps: ParamSet) -> RationalFunction:
    """W at the shape mu in closed form, unreduced: W_k along every walk
    whose shape before step k is mu; W_1 at the empty shape.  Coinciding
    contents need no special case, since num and den are polynomial in the
    contents; whether u is generic enough is decided when the seminormal
    model is built.  W at each shape is formed once per parameter set, in
    ``ps.w_at``, from the contents in ``ps.steps``."""
    w = ps.w_at.get(mu)
    if w is None:
        w = ps.w_at[mu] = _w_at_shape(mu, tuple(steps_out(mu, ps).C.values()), ps.q)
    return w


def _recursion_factor_rational(c: Fraction) -> RationalFunction:
    """((y+c)^2 - 1)(y-c)^2 / (((y-c)^2 - 1)(y+c)^2), formed over Z: with
    c = p/q, num and den are both multiplied by q^4 through q(y + c) =
    qy + p and q(y - c) = qy - p."""
    p, q = c.numerator, c.denominator
    plus, minus, q2 = Poly((p, q)), Poly((-p, q)), Poly((q * q,))
    return RationalFunction((plus * plus - q2) * (minus * minus),
                            (minus * minus - q2) * (plus * plus))


def wk_recursive_rational(mu, c: Fraction, ps: ParamSet) -> RationalFunction:
    """One step of the recursion for W, from the closed form at the shape mu
    across a step of content c: F(c)(W + y - 1/2) - (y - 1/2), with F the
    recursion factor."""
    y_minus_half = RationalFunction(Poly((-HALF, Fraction(1))))
    return (_recursion_factor_rational(c)
            * (wk_rational(mu, ps) + y_minus_half) - y_minus_half)


def omega_k_values(mu, ps: ParamSet, A: int) -> list[Fraction]:
    """The scalars omega_k^{(a)}, a = 0..A, at every position k whose shape
    before step k is mu: the coefficients of y^{-a} in the expansion at
    infinity of W at mu.  At the empty shape they are Omega."""
    return series_of_rational(wk_rational(mu, ps), A)
