"""Seminormal matrix models on updown-tableau bases, with verification suites.

Everything here is exact.  The orthonormal seminormal model has symmetric
matrices whose off-diagonal entries are square roots of Fractions.  Each
block is built instead as that model conjugated by diag(sqrt(gamma)), with
gamma chosen on a spanning tree of the generator graph so that every entry
is rational, and each generator is held once, as int rows over one positive
denominator (``Evaluated``).  The models make one ``Realization``, their
direct sum, which evaluates generator words on every block; ``wcell`` ranks
word families on it.  The realization stacks each letter's blocks once over
one common denominator and computes on ints, so a Fraction is made only for
a reported residual.  The defining relations are written once, as pairs of
word sums (``relations``), and both sides are evaluated on the realization
and compared by cross-multiplying; they, the scalar tower and
self-adjointness for diag(gamma) are checked with zero tolerance, as are the
polynomial identities between the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import _linalg, combinat, params
from .params import ParamSet

# ---------------------------------------------------------------------------
# exact coefficient tables
# ---------------------------------------------------------------------------


def _prev(t, k: int):
    """Shape after step k-1 (the empty multipartition when k = 1)."""
    return t[k - 2] if k >= 2 else combinat.empty_mp(len(t[0]))


def returns_at(t, k: int) -> bool:
    """Steps k, k+1 of t leave and re-enter the same shape."""
    return 1 <= k < len(t) and _prev(t, k) == t[k]


def e_diag(t, cs, k: int, ps: ParamSet, boundary) -> Fraction:
    """Diagonal contraction coefficient at position k of t, whose contents
    are cs, defined when steps k, k+1 return: (2c - (-1)^r) times the
    product of (c + c(alpha))/(c - c(alpha)) over the other boundary nodes
    alpha; ``boundary`` is ``combinat.addable_removable`` of the shape before
    step k, which the caller takes once for all the tableaux through it."""
    assert returns_at(t, k)
    c = cs[k - 1]
    sign = -1 if ps.r % 2 else 1
    out = Fraction(2 * c - sign)
    for _, ca, _ in boundary:
        if ca != c:
            out *= (c + ca) / (c - ca)
    return out


def swap_a(t, cs, k: int) -> Fraction:
    """Diagonal swap coefficient 1/(cs[k] - cs[k-1]), cs the contents of t."""
    d = cs[k] - cs[k - 1]
    if d == 0:
        raise ValueError(f"equal adjacent contents at k={k} from shape "
                         f"{_prev(t, k)}: parameters not generic")
    return 1 / d


# ---------------------------------------------------------------------------
# the seminormal representation
# ---------------------------------------------------------------------------


class Evaluated(NamedTuple):
    """An element of the realization: one ``_linalg`` block of ints per
    model, ``blocks``, all over the one positive denominator ``den``."""

    blocks: list
    den: int


@dataclass
class SeminormalRep:
    """Generator blocks over the updown basis of one shape.

    S[i-1], E[i-1] act at position i (1 <= i < n); X[j-1] is diagonal with
    the step-j contents.  Each is an ``Evaluated`` with one block: ``_linalg``
    int rows over one positive denominator.  They are the symmetric
    orthonormal model conjugated by diag(sqrt(gamma)), so every generator M
    satisfies gamma[i] M[i][j] = M[j][i] gamma[j], with every gamma[i] > 0.
    """

    ps: ParamSet
    n: int
    shape: tuple
    basis: tuple
    S: list = field(repr=False)
    E: list = field(repr=False)
    X: list = field(repr=False)
    gamma: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The nonnegative square root of x when it is rational, else None."""
    if x < 0:
        return None
    p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if p * p == x.numerator and q * q == x.denominator:
        return Fraction(p, q)
    return None


def _orthonormal_entries(ps: ParamSet, k: int, idx: dict, contents: dict):
    """S_k and E_k of the orthonormal model, each as (diagonal, off), with
    diagonal {i: value} exact and off {(i, j): (sign, square)} holding the
    sign and the exact square of every nonzero off-diagonal entry."""
    S_diag, S_off, E_diag, E_off = {}, {}, {}, {}
    seen: set[int] = set()
    for t, i in idx.items():
        if returns_at(t, k):
            if i in seen:
                continue
            cls = combinat.k_neighbors(t, k)
            boundary = combinat.addable_removable(_prev(t, k), ps.u)
            evals = {}
            for m in cls:
                seen.add(idx[m])
                ev = e_diag(m, contents[m], k, ps, boundary)
                if ev <= 0:
                    raise ValueError(
                        f"contraction coefficient {ev} <= 0 at k={k} from "
                        f"shape {_prev(t, k)}: "
                        "parameters outside the positivity regime")
                evals[m] = ev
            for s in cls:
                cs = contents[s][k - 1]
                for tt in cls:
                    denom = cs + contents[tt][k - 1]
                    if denom == 0:
                        raise ValueError(
                            f"opposite contents in one class at k={k} from "
                            f"shape {_prev(t, k)}: parameters not generic")
                    if s == tt:
                        E_diag[idx[s]] = evals[s]
                        S_diag[idx[s]] = (evals[s] - 1) / denom
                    else:
                        sq = evals[s] * evals[tt]
                        E_off[idx[tt], idx[s]] = (1, sq)
                        S_off[idx[tt], idx[s]] = (1 if denom > 0 else -1,
                                                  sq / denom ** 2)
        else:
            a = swap_a(t, contents[t], k)
            S_diag[i] = a
            partner = combinat.sk_action(t, k)
            if partner is None:
                if a * a != 1:
                    raise ValueError(
                        f"swap at k={k} from shape {_prev(t, k)} undefined "
                        f"but coefficient {a} is not a unit: outside the regime")
            else:
                b2 = 1 - a * a
                if b2 < 0:
                    raise ValueError(
                        f"squared off-diagonal {b2} < 0 at k={k} from shape "
                        f"{_prev(t, k)}: outside the positivity regime")
                if b2:
                    S_off[idx[partner], i] = (1, b2)
    return (S_diag, S_off), (E_diag, E_off)


def _gamma(d: int, offs) -> list[Fraction]:
    """Positive weights on a spanning forest of the generator graph: along a
    tree edge from i to j with orthonormal entry m, gamma[j] = gamma[i] m^2,
    which makes the rational entry at (i, j) equal to +-m^2 and at (j, i)
    equal to +-1."""
    nbrs: list[list] = [[] for _ in range(d)]
    for off in offs:
        for (i, j), (_, sq) in off.items():
            nbrs[i].append((j, sq))
    gamma: list = [None] * d
    for root in range(d):
        if gamma[root] is not None:
            continue
        gamma[root] = Fraction(1)
        queue = [root]
        for i in queue:
            for j, sq in nbrs[i]:
                if gamma[j] is None:
                    gamma[j] = gamma[i] * sq
                    queue.append(j)
    return gamma


def build_rep(ps: ParamSet, n: int, shape) -> SeminormalRep:
    """Assemble the generator blocks of one shape, each cleared as it is made.

    Raises ValueError outside the positivity regime: a nonpositive diagonal
    contraction coefficient, a squared off-diagonal below zero, or a
    non-unit swap coefficient where the swapped tableau leaves the lattice;
    and when an off-diagonal entry has no rational form, i.e. the squares
    of the orthonormal entries fail to match around a cycle.
    """
    if not ps.u:
        raise ValueError("a seminormal model needs the roots u")
    basis = tuple(combinat.enumerate_updown(n, shape, ps.u))
    assert len(basis) == combinat.count_updown(n, shape)
    idx = {t: i for i, t in enumerate(basis)}
    d = len(basis)
    contents = {t: combinat.content_sequence(t, ps.u) for t in basis}

    X = [_cleared([[{i: contents[t][j - 1]} if contents[t][j - 1] else {}
                    for i, t in enumerate(basis)]]) for j in range(1, n + 1)]

    entries = [_orthonormal_entries(ps, k, idx, contents) for k in range(1, n)]
    gamma = _gamma(d, [off for pair in entries for _, off in pair])

    def block(name: str, k: int, diag: dict, off: dict) -> Evaluated:
        M = _linalg.zeros(d)
        for i, v in diag.items():
            if v:
                M[i][i] = v
        for (i, j), (sign, sq) in off.items():
            root = _rational_sqrt(sq * gamma[j] / gamma[i])
            if root is None:
                raise ValueError(
                    f"{name}_{k} entry ({i}, {j}) has no rational form: "
                    "the squared entries do not match around a cycle")
            M[i][j] = sign * root
        return _cleared([M])

    S = [block("S", k, *s) for k, (s, _) in enumerate(entries, start=1)]
    E = [block("E", k, *e) for k, (_, e) in enumerate(entries, start=1)]
    return SeminormalRep(ps, n, shape, basis, S, E, X, tuple(gamma))


def build_all(ps: ParamSet, n: int) -> list[SeminormalRep]:
    """One model per reachable shape.  Equal roots also raise ValueError once
    n >= 1; from n = 2 on, a per-k check of ``build_rep`` fails first."""
    reps = [build_rep(ps, n, shape)
            for shape in combinat.reachable_shapes(ps.r, n)]
    repeated = [x for j, x in enumerate(ps.u) if x in ps.u[:j]]
    if n >= 1 and repeated:
        raise ValueError(f"repeated root {repeated[0]} in u: parameters not generic")
    return reps


# ---------------------------------------------------------------------------
# the realization: the direct sum of the models
# ---------------------------------------------------------------------------


class Realization:
    """The direct sum of the models given (``build_all`` gives one per
    reachable shape): a word, a word sum (``evaluate_sum``) or a product of
    word sums (``evaluate_product``, never expanded into words) evaluates to
    an ``Evaluated``, int blocks over one denominator.  The models' blocks of
    each letter are stacked once per realization over the lcm of their
    denominators; a product multiplies the denominators and a sum brings its
    terms to their lcm, so no Fraction is normalised until a residual is
    reported.  ``vec`` lays the int blocks out as one sparse vector, of
    length r^n (2n-1)!! over all shapes: the element scaled by its positive
    den.  The rank over Q of such vectors is that of the elements, and also
    that in the orthonormal model, whose entries differ from these by fixed
    nonzero factors.
    """

    def __init__(self, reps: list[SeminormalRep]):
        self.reps = reps
        self.ps, self.n = reps[0].ps, reps[0].n
        self.shapes = [rep.shape for rep in reps]
        self.dims = [rep.dim for rep in reps]
        self._one = Evaluated([_linalg.identity(d) for d in self.dims], 1)
        self._letters: dict = {}

    def block_index(self, shape) -> int:
        return self.shapes.index(shape)

    def _letter(self, letter) -> Evaluated:
        """The blocks of one letter, made once per realization; the block of
        ("X", j, a) is the a-th power of X_j, the identity at a = 0."""
        ev = self._letters.get(letter)
        if ev is not None:
            return ev
        kind, i = letter[0], letter[1]
        if (kind in ("S", "E") and 1 <= i <= self.n - 1
                or kind == "X" and 1 <= i <= self.n and letter[2] == 1):
            evs = [getattr(rep, kind)[i - 1] for rep in self.reps]
            den = math.lcm(*(e.den for e in evs))
            ev = Evaluated([_linalg.mat_scale(e.blocks[0], den // e.den) for e in evs], den)
        elif kind == "X" and 1 <= i <= self.n and letter[2] == 0:
            ev = self._one
        elif kind == "X" and 1 <= i <= self.n and letter[2] > 1:
            ev = mul_blocks(self._letter(("X", i, letter[2] - 1)),
                            self._letter(("X", i, 1)))
        else:
            raise ValueError(f"letter {letter!r} out of range at n={self.n}")
        self._letters[letter] = ev
        return ev

    def evaluate(self, word) -> Evaluated:
        """The blocks may be those of the generators, which, like every
        ``_linalg`` value, are only read."""
        if not word:
            return self._one
        out = self._letter(word[0])
        for letter in word[1:]:
            out = mul_blocks(out, self._letter(letter))
        return out

    def evaluate_sum(self, terms) -> Evaluated:
        parts = [scaled(self.evaluate(word), coeff) for coeff, word in terms]
        den = math.lcm(*(part.den for part in parts))
        out = None
        for blocks, d in parts:
            blocks = [_linalg.mat_scale(blk, den // d) for blk in blocks]
            out = blocks if out is None else [_linalg.mat_add(acc, blk)
                                              for acc, blk in zip(out, blocks)]
        if out is None:
            out = [_linalg.zeros(d) for d in self.dims]
        return Evaluated(out, den)

    def evaluate_product(self, factors) -> Evaluated:
        """The product of the word sums ``factors``, in order: each factor
        is evaluated once, and the product is never expanded into words."""
        out = None
        for terms in factors:
            ev = self.evaluate_sum(terms)
            out = ev if out is None else mul_blocks(out, ev)
        return self._one if out is None else out

    def vec(self, ev: Evaluated) -> dict:
        out, start = {}, 0
        for blk, d in zip(ev.blocks, self.dims):
            out.update((start + i * d + j, x)
                       for i, row in enumerate(blk) for j, x in row.items())
            start += d * d
        return out


def _cleared(blocks) -> Evaluated:
    """Blocks of rationals (Fractions or ints) as int blocks over the lcm of
    every denominator: the one place where rational rows become int rows."""
    den = math.lcm(*(x.denominator for blk in blocks for row in blk for x in row.values()))
    return Evaluated([[{j: x.numerator * (den // x.denominator) for j, x in row.items()}
                       for row in blk] for blk in blocks], den)


def mul_blocks(a: Evaluated, b: Evaluated) -> Evaluated:
    """The blockwise product of two evaluated elements."""
    return Evaluated([_linalg.mat_mul(x, y) for x, y in zip(a.blocks, b.blocks)],
                     a.den * b.den)


def scaled(ev: Evaluated, c) -> Evaluated:
    """c ev for an int or Fraction c: its numerator scales the blocks, and
    its denominator joins den."""
    return Evaluated([_linalg.mat_scale(blk, c.numerator) for blk in ev.blocks],
                     ev.den * c.denominator)


_ZERO = Fraction(0)


def block_residuals(a: Evaluated, b: Evaluated) -> list[Fraction]:
    """Exact max |a - b| on each block: both sides are brought over the lcm
    L of their denominators and compared as ints, and each value is
    Fraction(max |int difference|, L).  Rows store no zero, so equal blocks
    are found by ``==`` before any difference is formed."""
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    out = []
    for x, y in zip(a.blocks, b.blocks):
        x, y = _linalg.mat_scale(x, fa), _linalg.mat_scale(y, fb)
        out.append(_ZERO if x == y else
                   Fraction(_linalg.max_abs(_linalg.mat_sub(x, y)), den))
    return out


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

RELATION_FAMILIES = (
    "involution", "braid", "contraction-scalar", "commutation", "skein",
    "unwrapping", "tangle", "untwisting", "antisymmetry", "cyclotomic",
)


def relations(ps: ParamSet, n: int):
    """The defining relations at n strands as (family, lhs, rhs), each side
    a word sum: Nazarov's affine Wenzl relations in S_i, E_i and X_j (the
    commutations with |i - j| > 1 in both orders), unwrapping
    E_1 X_1^a E_1 = omega_a E_1 for 0 <= a <= min(N, r + 2), and the
    cyclotomic relation sum_k c_k X_1^k = 0, c from ``cyclotomic_coeffs``."""
    def w(*words):
        return tuple((Fraction(1), word) for word in words)

    for i in range(1, n):
        s, e, x, x1 = ("S", i), ("E", i), ("X", i, 1), ("X", i + 1, 1)
        yield "involution", w((s, s)), w(())
        yield "contraction-scalar", w((e, e)), ((ps.omega[0], (e,)),)
        yield "tangle", w((e, s)), w((e,))
        yield "tangle", w((s, e)), w((e,))
        yield "skein", w((s, x), ()), w((x1, s), (e,))
        yield "skein", w((x, s), ()), w((s, x1), (e,))
        yield "antisymmetry", w((e, x), (e, x1)), ()
        yield "antisymmetry", w((x, e), (x1, e)), ()
        if i <= n - 2:
            s2, e2 = ("S", i + 1), ("E", i + 1)
            yield "braid", w((s, s2, s)), w((s2, s, s2))
            yield "untwisting", w((e2, e, e2)), w((e2,))
            yield "untwisting", w((e, e2, e)), w((e,))
            yield "tangle", w((s, e2, e)), w((s2, e))
            yield "tangle", w((e2, e, s2)), w((e2, s))
        for sj, ej in ((("S", j), ("E", j)) for j in range(1, n) if abs(i - j) > 1):
            yield "commutation", w((s, sj)), w((sj, s))
            yield "commutation", w((s, ej)), w((ej, s))
            yield "commutation", w((e, ej)), w((ej, e))
        for xj in (("X", j, 1) for j in range(1, n + 1) if j not in (i, i + 1)):
            yield "braid", w((s, xj)), w((xj, s))
            yield "commutation", w((e, xj)), w((xj, e))
    for xa, xb in ((("X", a, 1), ("X", b, 1)) for a in range(2, n + 1) for b in range(1, a)):
        yield "commutation", w((xa, xb)), w((xb, xa))
    if n >= 2:
        e = ("E", 1)
        for a in range(min(ps.N, ps.r + 2) + 1):
            yield "unwrapping", w((e, ("X", 1, a), e)), ((ps.omega[a], (e,)),)
    if ps.u and n >= 1:
        yield "cyclotomic", tuple((c, (("X", 1, k),)) for k, c in
                                  enumerate(params.cyclotomic_coeffs(ps.u)) if c), ()


def residuals(real: Realization) -> list[dict]:
    """Exact max |lhs - rhs| over the ``relations`` of each family, one dict
    per block of ``real``."""
    out = [dict.fromkeys(RELATION_FAMILIES, Fraction(0)) for _ in real.reps]
    for family, lhs, rhs in relations(real.ps, real.n):
        for res, value in zip(out, block_residuals(real.evaluate_sum(lhs),
                                                   real.evaluate_sum(rhs))):
            res[family] = max(res[family], value)
    return out


def tower_scalars(ps: ParamSet, n: int, memo: dict | None = None) -> dict:
    """omega_k^(a), 0 <= a <= r + 1, keyed by the shape mu before step k,
    for every mu with |mu| <= n - 2 (every position k < n): the expansion at
    infinity of the closed form of W at mu, taken once per shape.  ``memo``
    is a ``params.wk_rational`` memo for ``ps``, as ``check_identities``
    leaves it."""
    return {mu: params.omega_k_values(combinat.t_lambda(mu),
                                      combinat.mp_size(mu) + 1, ps, ps.r + 1, memo)
            for size in range(n - 1)
            for mu in combinat.multipartitions(ps.r, size)}


def adjointness_residual(rep: SeminormalRep) -> Fraction:
    """Max |gamma_i M_ij - M_ji gamma_j| over every generator M: 0 exactly
    when each is self-adjoint for the form diag(gamma), which makes the
    model conjugate to a symmetric one.  That needs the form positive
    definite, so a gamma_i <= 0 counts as 1 - gamma_i.  Compared as ints:
    with gamma = g / q and M = B / den, max |g_i B_ij - B_ji g_j| / (q den)."""
    [[g]], q = _cleared([[dict(enumerate(rep.gamma))]])
    worst = max((1 - x for x in rep.gamma if x <= 0), default=Fraction(0))
    for (B,), den in (*rep.S, *rep.E, *rep.X):
        m = max((abs(g[i] * x - B[j].get(i, 0) * g[j])
                 for i, row in enumerate(B) for j, x in row.items()), default=0)
        worst = max(worst, Fraction(m, q * den))
    return worst


def verify_relations(real: Realization, scalars: dict) -> list[dict]:
    """Exact residuals of the defining relations on each block of ``real``,
    plus G-adjointness of every generator (``star-symmetry``) and the scalar
    tower E_k X_k^a E_k = omega_k^(a) E_k, 0 <= a <= r + 1, against
    ``scalars`` from ``tower_scalars`` (``tower-scalars``).  The tower's
    scalar depends only on the shape before step k, so its right side is
    E_k, evaluated once per k, with each row scaled by its own scalar.  One
    dict per block; every value is 0 for a genuine model."""
    out = residuals(real)
    for res, rep in zip(out, real.reps):
        res["star-symmetry"] = adjointness_residual(rep)
        res["tower-scalars"] = Fraction(0)
    for k in range(1, real.n):
        e = ("E", k)
        ek = real.evaluate((e,))
        rows = [[scalars[_prev(t, k)] for t in rep.basis] for rep in real.reps]
        for a in range(real.ps.r + 2):
            rhs = _rows_scaled(ek, [[w[a] for w in ws] for ws in rows])
            for res, value in zip(out, block_residuals(
                    real.evaluate((e, ("X", k, a), e)), rhs)):
                res["tower-scalars"] = max(res["tower-scalars"], value)
    return out


def _rows_scaled(ev: Evaluated, scalars) -> Evaluated:
    """ev with row i of block b scaled by scalars[b][i], a Fraction: the
    numerators over the lcm q of the denominators scale the rows, and q
    joins den."""
    q = math.lcm(*(w.denominator for ws in scalars for w in ws))
    return Evaluated([[{j: x * f for j, x in row.items()} if f else {}
                       for row, f in zip(blk, (w.numerator * (q // w.denominator)
                                                for w in ws))]
                      for blk, ws in zip(ev.blocks, scalars)], ev.den * q)


# ---------------------------------------------------------------------------
# zero-tolerance identities between the exact coefficients
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    counts: dict
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_identities(ps: ParamSet, n: int, memo: dict | None = None) -> IdentityReport:
    """Every exact coefficient identity at n strands, checked with zero
    tolerance once per local configuration.  A coefficient at k reads only
    the shape mu before step k and the next steps, so each window out of mu
    is placed after t^mu, at k = |mu| + 1: the class and W identities once
    per mu with |mu| <= n - 2, the swap identities once per (mu, nu, rho)
    with rho != mu, the matching identities once per (mu, nu) with
    |mu| <= n - 3.  ``w-recursion`` checks W_1 = W at the empty shape
    (n >= 1) and one recursion step per lattice edge mu -> nu with
    |mu| <= n - 2: the closed form at nu equals the step from the closed
    form at mu.  By induction on the walk, the recursion from W_1 then
    gives the closed form along every walk of fewer than n steps.  W at
    each shape is formed once, in ``memo`` (a fresh dict if not given), a
    ``params.wk_rational`` memo for ``ps``."""
    if memo is None:
        memo = {}
    counts: dict[str, int] = {}
    failures: list[str] = []

    def record(name: str, ok: bool, ctx: str = ""):
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            failures.append(f"{name}: {ctx}")

    if n >= 1:
        record("w-recursion", params.wk_rational((), 1, ps, memo)
               == params.wk_recursive_rational((), 1, ps, memo), "k=1")
    y = params.RationalFunction(params.Poly.y_plus(0))
    for mu in (lam for size in range(n - 1)
               for lam in combinat.multipartitions(ps.r, size)):
        tmu = combinat.t_lambda(mu)
        k = len(tmu) + 1
        nbrs = combinat.neighbors(mu)
        for nu in nbrs:
            t = tmu + (nu,)
            record("w-recursion", params.wk_rational(t, k + 1, ps, memo)
                   == params.wk_recursive_rational(t, k + 1, ps, memo),
                   f"k={k + 1}, prefix={t}")
        cls = [tmu + (nu, mu) for nu in nbrs]
        cs = {m: combinat.content_sequence(m, ps.u) for m in cls}
        bmu = combinat.addable_removable(mu, ps.u)
        e = {m: e_diag(m, cs[m], k, ps, bmu) for m in cls}
        c = {m: cs[m][k - 1] for m in cls}
        for s in cls:
            csk = c[s]
            lhs = sum(e[m] / (csk + c[m]) for m in cls)
            record("class-sum-linear", lhs == 1 + Fraction(1, 2) / csk,
                   f"s={s}, k={k}")
            lhs = sum(e[m] / (csk + c[m]) ** 2 for m in cls)
            rhs = ((1 - Fraction(1, 4) / csk ** 2) / e[s]
                   + Fraction(1, 2) / csk ** 2)
            record("class-sum-quadratic", lhs == rhs, f"s={s}, k={k}")
            for tp in cls:
                if tp == s:
                    continue
                lhs = sum(e[m] / ((csk + c[m]) * (c[m] + c[tp])) for m in cls)
                record("class-sum-cross", lhs == Fraction(1, 2) / (csk * c[tp]),
                       f"s={s}, t'={tp}, k={k}")
        # partial fractions of W_k(y)/y over the class
        w = params.wk_rational(tmu, k, ps, memo)
        record("w-vanishes-at-zero", w(Fraction(0)) == 0, f"k={k}, prefix={tmu}")
        parts = sum(params.RationalFunction(
            params.Poly.const(e[m]), params.Poly.y_plus(-c[m])) for m in cls)
        record("w-partial-fractions", w / y == parts, f"k={k}, prefix={tmu}")
        for nu in nbrs:
            for rho in combinat.neighbors(nu):
                if rho == mu:
                    continue
                t = tmu + (nu, rho)
                ct = combinat.content_sequence(t, ps.u)
                a = swap_a(t, ct, k)
                u = combinat.sk_action(t, k)
                if u is None:
                    record("swap-degenerate-unit", a * a == 1, f"t={t}, k={k}")
                    continue
                cu = combinat.content_sequence(u, ps.u)
                ok = (cu[k] == ct[k - 1] and cu[k - 1] == ct[k]
                      and swap_a(u, cu, k) == -a)
                record("content-swap", ok, f"t={t}, k={k}")
            if k > n - 2:
                continue
            t = tmu + (nu, mu, nu)
            ct = combinat.content_sequence(t, ps.u)
            bnu = combinat.addable_removable(nu, ps.u)
            record("contraction-inverse",
                   e_diag(t, ct, k, ps, bmu) * e_diag(t, ct, k + 1, ps, bnu) == 1,
                   f"t={t}, k={k}")
            # matching products of squared off-diagonals with contractions:
            # mu, nu, x, nu and mu, y, mu, nu swap to the same tableau
            for x in combinat.neighbors(nu):
                tt = tmu + (nu, x, nu)
                target = combinat.sk_action(tt, k) if x != mu else None
                if target is None:
                    continue
                uu = tmu + (target[k - 1], mu, nu)
                if combinat.sk_action(uu, k + 1) != target:
                    continue
                ctt, cuu = (combinat.content_sequence(w, ps.u) for w in (tt, uu))
                lhs = (1 - swap_a(tt, ctt, k) ** 2) * e_diag(tt, ctt, k + 1, ps, bnu)
                rhs = (1 - swap_a(uu, cuu, k + 1) ** 2) * e_diag(uu, cuu, k, ps, bmu)
                record("square-root-matching", lhs == rhs,
                       f"t={tt}, u={uu}, k={k}")
    return IdentityReport(counts, failures)
