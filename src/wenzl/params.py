"""Parameter sets, the steps out of a shape, and the generating functions
W at a shape, all on ints.

A parameter set is its roots u.  It holds, per shape met, the steps out of
it with their contents as ints over one denominator, their contraction
coefficients and their step factors (``steps_out``, the only writer of that
table, which reads the root-free steps of ``combinat.steps_from``);
``contents`` walks a tableau through the table, and ``gamma`` multiplies the
step factors along it.  ``ParamSet.from_u`` holds the last parameter set it
built.  W at a shape is read off the same table: it is held as the int
roots of the linear factors of W + y - 1/2 (``wk_rational``), so an identity
between W at two shapes is one between multisets of ints, and it becomes a
polynomial only as int coefficient lists (``w_polynomials``), which are
multiplied and compared, never divided.  The scalars are coefficients of
one expansion at y = infinity, on ints (``omega_k_values``): Omega is that
of W at the empty shape, read there by each use to the length it needs,
and the tower scalars omega_k^(a) that of W at the shape before step k;
they are returned as Fractions.

``wk_rational``, ``wk_recursive_rational`` and ``omega_k_values`` keep the
names by which ``perfbench/tracing.py`` patches them to time their layers,
though they form no rational function any more; they keep them until
ROADMAP item 9 replaces that patching.
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


def clearing(xs) -> int:
    """The lcm of the denominators of the Fractions xs."""
    return math.lcm(*(x.denominator for x in xs))


def cleared(xs, d: int) -> tuple[int, ...]:
    """The ints d x for the Fractions xs, whose denominators all divide d."""
    return tuple(x.numerator * (d // x.denominator) for x in xs)


# ---------------------------------------------------------------------------
# polynomials in y as int coefficient lists, the expansion at y = infinity,
# and admissible parameter sequences
# ---------------------------------------------------------------------------

def linear_product(roots, q: int) -> list[int]:
    """The coefficients of prod (q y + a) over the ints a of ``roots``,
    lowest degree first."""
    out = [1]
    for a in roots:
        out = [a * x + q * y for x, y in zip(out + [0], [0] + out)]
    return out


def series_at_infinity(num, den, A: int) -> list[Fraction]:
    """The coefficients of y^0, y^-1, ..., y^-A in the expansion of num/den
    at y = infinity, which must be O(1) there; num and den are int
    coefficient lists, lowest degree first, den's last coefficient nonzero.
    In x = 1/y this is the power series of p(x)/q(x), p and q the reversed
    coefficients of num and den, with p shifted by deg den - deg num.  The
    k-th coefficient is kept as an int N_k over q0^(k+1), q0 = q[0]:
    N_k = p_k q0^k - sum_j q_j N_{k-j} q0^(j-1), and one Fraction is made
    per coefficient."""
    assert len(num) <= len(den), "W should be O(1) at infinity"
    p = [0] * (len(den) - len(num)) + num[::-1]
    q = den[::-1]
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
    and scalar multiplication by Fraction (e.g. polynomials, for
    one-parameter families)."""
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
    out = [Fraction(1)]
    for x in u:
        out = [b - x * a for a, b in zip(out + [0], [0] + out)]
    return tuple(out)


@dataclass(frozen=True)
class ParamSet:
    """The parameter set fixed by the roots u; r is their number.

    Omega is u-admissible: it is no field, but read where it is used, as the
    expansion at infinity of W at the empty shape (``omega_k_values``).

    Two tables hold what depends only on the roots, so that each value is
    formed once: ``steps`` the steps out of each shape met (``steps_out``),
    and ``murphy`` the Murphy basis on n strands by n
    (``hecke.murphy_basis``).  They are no
    constructor arguments, and neither equality, the hash nor ``as_json``
    reads them.  ``from_u`` holds the last parameter set it built, so the
    jobs of a batch at one u share its tables; one constructed directly is
    never held.
    """

    u: tuple[Fraction, ...]
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


def step_factor(ps: ParamSet, mu, nu) -> tuple[int, int]:
    """The step factor g(mu -> nu), an int pair (num, den), from the step
    table; the tables of steps that remove a node are filled on first
    ask."""
    g = steps_out(mu, ps).g
    return g[nu] if nu in g else steps_out(mu, ps, removing=True).g[nu]


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


def wk_rational(mu, ps: ParamSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """W at the shape mu in closed form, 1/2 - y + (y - (1/2)(-1)^r)
    prod (y + c)/(y - c) over the contents c of the steps out of mu, as the
    ints (a..., b...) of its linear factors W + y - 1/2 = (y - (1/2)(-1)^r)
    prod (qy + a) / prod (qy + b): (C, -C) for C = q c from the step table.
    It is W_k along every walk whose shape before step k is mu; W_1 at the
    empty shape.  Coinciding contents need no special case; whether u is
    generic enough is decided when the seminormal model is built."""
    C = tuple(steps_out(mu, ps).C.values())
    return C, tuple(-x for x in C)


def wk_recursive_rational(form, C: int, ps: ParamSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One step of the recursion for W, from the linear factors ``form`` of
    W at a shape (``wk_rational``) across a step of content c, C = q c:
    W + y - 1/2 times the recursion factor
    ((y+c)^2 - 1)(y-c)^2 / (((y-c)^2 - 1)(y+c)^2), whose linear factors
    over q are qy + C -+ q, qy - C twice, over qy - C -+ q, qy + C twice."""
    (num, den), q = form, ps.q
    return num + (C - q, C + q, -C, -C), den + (-C - q, -C + q, C, C)


def w_polynomials(ps: ParamSet, form) -> tuple[list[int], list[int]]:
    """W = N / (2Q) from its linear factors ``form`` (``wk_rational``), as
    int coefficient lists: with P and Q the products of the factors of num
    and den, N = (1 - 2y) Q + (2y - (-1)^r) P, whose y^(|C| + 1) terms
    cancel, so N and 2Q have |C| + 1 coefficients each."""
    P, Q = linear_product(form[0], ps.q), linear_product(form[1], ps.q)
    sign = -1 if ps.r % 2 else 1
    N = [x - sign * y for x, y in zip(Q, P)]
    for i, (x, y) in enumerate(zip(Q[:-1], P[:-1]), start=1):
        N[i] += 2 * (y - x)
    return N, [2 * x for x in Q]


def omega_k_values(mu, ps: ParamSet, A: int) -> list[Fraction]:
    """The scalars omega_k^{(a)}, a = 0..A, at every position k whose shape
    before step k is mu: the coefficients of y^{-a} in the expansion at
    infinity of W at mu, on ints.  At the empty shape they are Omega."""
    return series_at_infinity(*w_polynomials(ps, wk_rational(mu, ps)), A)
