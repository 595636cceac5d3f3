"""Parameter sets, the steps out of a shape, and the generating functions
W at a shape, all on ints.

A parameter set is its roots u.  It holds, per shape met, the steps out of
it with their contents as the ints q c (``int_content``), their contraction
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
from fractions import Fraction
from typing import NamedTuple

from . import combinat


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
# polynomials in y as int coefficient lists, and the expansion at
# y = infinity
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


def cyclotomic_coeffs(u) -> tuple[Fraction, ...]:
    """c_0, ..., c_r with prod_i (y - u_i) = sum_k c_k y^k, so c_r = 1."""
    out = [Fraction(1)]
    for x in u:
        out = [b - x * a for a, b in zip(out + [0], [0] + out)]
    return tuple(out)


class ParamSet:
    """The parameter set fixed by the roots u; r is their number.  Equality,
    the hash and the repr read u alone.

    Omega is u-admissible: it is no field, but read where it is used, as the
    expansion at infinity of W at the empty shape (``omega_k_values``).

    Three tables hold what depends only on the roots, so that each value is
    formed once: ``steps`` the steps out of each shape met (``steps_out``),
    ``swaps`` the swap data of each window mu -> nu -> rho met, by
    (mu, nu, rho) (``seminormal.swap_window``), and ``murphy`` the Murphy
    basis on n strands by n (``hecke.murphy_basis``).  They are no
    constructor arguments, and neither equality, the hash nor ``as_json``
    reads them.  ``from_u`` holds the last parameter set it built, so the
    jobs of a batch at one u share its tables; one constructed directly is
    never held.
    """

    def __init__(self, u: tuple[Fraction, ...]):
        # q, the lcm of the roots' denominators: q c and q u_s are ints
        self.u, self.q = u, clearing(u)
        self.qu = cleared(u, self.q)
        self.steps, self.swaps, self.murphy = {}, {}, {}

    def __eq__(self, other):
        return self.u == other.u if type(other) is ParamSet else NotImplemented

    def __hash__(self):
        return hash(self.u)

    def __repr__(self):
        return f"ParamSet(u={self.u!r})"

    @classmethod
    def from_u(cls, u) -> "ParamSet":
        """The parameter set of the roots u, held: equal roots, however they
        are written, return the same instance until other roots replace
        it."""
        return _param_set(tuple(parse_fraction(x) for x in u))

    @property
    def r(self) -> int:
        return len(self.u)

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
    gamma, and ``h`` h(mu), from which the factors of the steps that remove
    a node are formed; ``g`` and ``h`` are int pairs (num, den)."""

    C: dict
    e: dict
    g: dict
    h: tuple


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


def int_content(node, removed: bool, ps: ParamSet) -> int:
    """q c, c = u_s + j - i, for a step that adds the node (i, j, s), minus
    that for one that removes it: the int q u_s + q (j - i), no Fraction."""
    C = ps.qu[node[2] - 1] + ps.q * (node[1] - node[0])
    return -C if removed else C


def steps_out(mu, ps: ParamSet) -> Steps:
    """The ``Steps`` out of mu, formed once per parameter set, in
    ``ps.steps``, from the shapes and nodes of ``combinat.steps_from``, each
    content an int by ``int_content``.  A step that adds
    alpha has F(mu -> nu), the product of c_alpha - c_beta over the nodes
    beta addable to mu below alpha over the same for the removable ones,
    (i', j', s') below (i, j, s) when (s', i') > (s, i); with C = q c,
    c_alpha - c_beta is (C_alpha -+ C_beta) / q.  A step that removes a node
    has h(mu) h(nu) / F(nu -> mu), with h 1 at the empty shape and h(lam)
    e_mu(lam) one node on, lam left by mu's first removable node; these read
    the tables of the smaller shapes, filled first.  All are unreduced int
    pairs (num, den), formed on ints, so a fill never raises; a factor is 0
    or undefined only where contents coincide."""
    st = ps.steps.get(mu)
    if st is not None:
        return st
    q, steps = ps.q, combinat.steps_from(mu)
    cs = tuple(int_content(node, removed, ps) for node, removed in steps.values())
    C = dict(zip(steps, cs))
    e = {nu: e_diag(x, cs, q, ps.r) for nu, x in C.items()}
    g, h = {}, None
    for nu, ((i, _, s), removed) in steps.items():
        if removed:
            below = steps_out(nu, ps)
            (fn, fd), (hn, hd), x = below.g[mu], below.h, below.e[mu]
            if h is None:
                h = hn * x.numerator, hd * x.denominator
            g[nu] = h[0] * hn * fd, h[1] * hd * fn
            continue
        num = den = 1
        for other, ((bi, _, bs), other_removed) in steps.items():
            if (bs, bi) > (s, i):
                x = C[nu] + C[other] if other_removed else C[nu] - C[other]
                num, den = (num * q, den * x) if other_removed else (num * x, den * q)
        g[nu] = num, den
    st = ps.steps[mu] = Steps(C, e, g, h or (1, 1))
    return st


def gamma(ps: ParamSet, t) -> Fraction:
    """gamma_t: the product of the step factors g along the walk t, read
    from the step table as int pairs; one Fraction is made."""
    num = den = 1
    for mu, nu in zip((combinat.empty_mp(ps.r),) + t, t):
        a, b = steps_out(mu, ps).g[nu]
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
    generic enough is decided when the seminormal model is built.

    Lemma: over the steps out of an r-multipartition, |C| = r (mod 2) and
    sum C = q sum u.  In component s, with contents u_s + j - i, let A be
    the number of addable less removable nodes, and S their contents summed
    likewise.  At the empty partition A = 1 and S = u_s; a node of content
    c added stops being addable and becomes removable (A - 2, S - 2c), and
    at each of c + 1 and c - 1 a node becomes addable or stops being
    removable (A + 2, S + 2c in all).  So |C| is a sum of r odd numbers and
    sum C = q sum u.  Hence N(0) = prod(-C) - (-1)^r prod(C) = 0 for
    W = N / (2Q) (``w_polynomials``), and the y^0 coefficient of W,
    2 sum C / q + (1 - (-1)^r) / 2 by prod (qy + C)/(qy - C) =
    1 + 2 sum C / (qy) + O(y^-2), is the same at every shape:
    omega_k^(0) = Omega_0."""
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
    infinity of W at mu, on ints.  At the empty shape they are Omega, and
    Omega so read is u-admissible: with f = W + y - 1/2 there, the closed
    form gives f(y) f(-y) = (y - (-1)^r/2)(-y - (-1)^r/2) = 1/4 - y^2, and
    the coefficient of y^(-2a) in f(y) f(-y) - 1/4 + y^2 is -2 omega_{2a+1}
    - omega_{2a} + sum_{b=0}^{2a} (-1)^b omega_b omega_{2a-b}, which is 0
    exactly when the admissibility condition holds at a; the coefficient
    of each odd power is 0 for any sequence."""
    return series_at_infinity(*w_polynomials(ps, wk_rational(mu, ps)), A)
