"""Seminormal matrix models on updown-tableau bases, with verification suites.

Everything here is exact.  The orthonormal seminormal model has symmetric
matrices whose off-diagonal entries are square roots of Fractions.  Each
block is built instead as that model conjugated by diag(sqrt(gamma)), with
gamma chosen on a spanning tree of the generator graph so that every entry
is a Fraction; ``wcell`` evaluates words on these blocks.  The relation
suite, the scalar tower and self-adjointness for the form diag(gamma) are
then checked on Fraction matrices with zero tolerance, as are the
polynomial identities between the coefficients themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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


def e_diag(t, k: int, ps: ParamSet) -> Fraction:
    """Diagonal coefficient of the contraction generator at position k,
    defined when steps k, k+1 return: (2c - (-1)^r) times the product of
    (c + c(alpha))/(c - c(alpha)) over the other boundary nodes."""
    assert returns_at(t, k)
    c = combinat.content_sequence(t, ps.u)[k - 1]
    sign = -1 if ps.r % 2 else 1
    out = Fraction(2 * c - sign)
    for _, ca, _ in combinat.addable_removable(_prev(t, k), ps.u):
        if ca != c:
            out *= (c + ca) / (c - ca)
    return out


def swap_a(t, k: int, ps: ParamSet) -> Fraction:
    """Diagonal swap coefficient 1/(c_t(k+1) - c_t(k)) at a non-returning k."""
    cs = combinat.content_sequence(t, ps.u)
    d = cs[k] - cs[k - 1]
    if d == 0:
        raise ValueError(f"equal adjacent contents at k={k} from shape "
                         f"{_prev(t, k)}: parameters not generic")
    return 1 / d


def swap_b_squared(t, k: int, ps: ParamSet) -> Fraction:
    return 1 - swap_a(t, k, ps) ** 2


# ---------------------------------------------------------------------------
# the seminormal representation
# ---------------------------------------------------------------------------


@dataclass
class SeminormalRep:
    """Generator matrices over the updown basis of one shape.

    S[i-1], E[i-1] act at position i (1 <= i < n); X[j-1] is diagonal with
    the step-j contents.  All matrices are ``_linalg`` sparse rows of exact
    Fractions: the symmetric orthonormal model conjugated by
    diag(sqrt(gamma)), so every generator M satisfies
    gamma[i] M[i][j] = M[j][i] gamma[j], with every gamma[i] > 0.
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

    def x_power(self, j: int, p: int) -> list[dict]:
        """X_j^p: the diagonal of the step-j contents to the p (0**0 == 1)."""
        return _linalg.diagonal(row.get(i, 0) ** p
                                for i, row in enumerate(self.X[j - 1]))


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
            evals = {}
            for m in cls:
                seen.add(idx[m])
                ev = e_diag(m, k, ps)
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
            a = swap_a(t, k, ps)
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
    """Assemble the rational generator matrices for one shape.

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

    X = [_linalg.diagonal(contents[t][j - 1] for t in basis)
         for j in range(1, n + 1)]

    entries = [_orthonormal_entries(ps, k, idx, contents) for k in range(1, n)]
    gamma = _gamma(d, [off for pair in entries for _, off in pair])

    def rational(name: str, k: int, diag: dict, off: dict):
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
        return M

    S = [rational("S", k, *s) for k, (s, _) in enumerate(entries, start=1)]
    E = [rational("E", k, *e) for k, (_, e) in enumerate(entries, start=1)]
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
# relation suite
# ---------------------------------------------------------------------------

RELATION_FAMILIES = (
    "involution", "braid", "contraction-scalar", "commutation", "skein",
    "unwrapping", "tangle", "untwisting", "antisymmetry", "cyclotomic",
)


def _relation_residuals(S, E, X, ps: ParamSet, d: int) -> dict:
    """Exact max-abs residual of every defining relation family for d x d
    matrices S_1..S_{n-1}, E_1..E_{n-1}, X_1..X_n, given as ``_linalg``
    sparse rows.  Unwrapping is checked for X_1^a, 0 <= a <= min(N, r + 2)."""
    n = len(X)
    assert len(S) == len(E) == max(n - 1, 0)
    mul, add, sub = _linalg.mat_mul, _linalg.mat_add, _linalg.mat_sub
    scale = _linalg.mat_scale
    I = _linalg.identity(d)
    res: dict = {name: Fraction(0) for name in RELATION_FAMILIES}

    def upd(name, M):
        res[name] = max(res[name], _linalg.max_abs(M))

    for i in range(1, n):
        Si, Ei = S[i - 1], E[i - 1]
        upd("involution", sub(mul(Si, Si), I))
        upd("contraction-scalar", sub(mul(Ei, Ei), scale(Ei, ps.omega[0])))
        upd("tangle", sub(mul(Ei, Si), Ei))
        upd("tangle", sub(mul(Si, Ei), Ei))
        rhs = sub(Ei, I)
        upd("skein", sub(sub(mul(Si, X[i - 1]), mul(X[i], Si)), rhs))
        upd("skein", sub(sub(mul(X[i - 1], Si), mul(Si, X[i])), rhs))
        Xsum = add(X[i - 1], X[i])
        upd("antisymmetry", mul(Ei, Xsum))
        upd("antisymmetry", mul(Xsum, Ei))
        if i <= n - 2:
            Sj, Ej = S[i], E[i]
            upd("braid", sub(mul(mul(Si, Sj), Si), mul(mul(Sj, Si), Sj)))
            upd("untwisting", sub(mul(mul(Ej, Ei), Ej), Ej))
            upd("untwisting", sub(mul(mul(Ei, Ej), Ei), Ei))
            upd("tangle", sub(mul(mul(Si, Ej), Ei), mul(Sj, Ei)))
            upd("tangle", sub(mul(mul(Ej, Ei), Sj), mul(Ej, Si)))
        for j in range(1, n):
            if abs(i - j) > 1:
                Sj, Ej = S[j - 1], E[j - 1]
                upd("commutation", sub(mul(Si, Sj), mul(Sj, Si)))
                upd("commutation", sub(mul(Si, Ej), mul(Ej, Si)))
                upd("commutation", sub(mul(Ei, Ej), mul(Ej, Ei)))
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                Xj = X[j - 1]
                upd("braid", sub(mul(Si, Xj), mul(Xj, Si)))
                upd("commutation", sub(mul(Ei, Xj), mul(Xj, Ei)))
    for a in range(n):
        for b in range(a):
            upd("commutation", sub(mul(X[a], X[b]), mul(X[b], X[a])))
    if n >= 2:
        E1, X1 = E[0], X[0]
        P = I
        for a in range(min(ps.N, ps.r + 2) + 1):
            upd("unwrapping", sub(mul(mul(E1, P), E1), scale(E1, ps.omega[a])))
            P = mul(P, X1)
    if ps.u and n >= 1:
        P = I
        for ui in ps.u:
            P = mul(P, sub(X[0], scale(I, ui)))
        upd("cyclotomic", P)
    return res


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


def tower_scalar_residual(rep: SeminormalRep, scalars: dict) -> Fraction:
    """Residual of E_k X_k^a E_k = omega_k^(a) E_k for every position k and
    0 <= a <= r + 1, with ``scalars`` from ``tower_scalars``.  The scalar
    depends only on the shape before step k, so the right side is E_k
    scaled row by row: diag(omega^(a) of each row) E_k."""
    worst = Fraction(0)
    mul = _linalg.mat_mul
    for k in range(1, rep.n):
        rows = [scalars[_prev(t, k)] for t in rep.basis]
        Ek = rep.E[k - 1]
        for a in range(rep.ps.r + 2):
            lhs = mul(mul(Ek, rep.x_power(k, a)), Ek)
            rhs = mul(_linalg.diagonal(w[a] for w in rows), Ek)
            worst = max(worst, _linalg.max_abs(_linalg.mat_sub(lhs, rhs)))
    return worst


def adjointness_residual(rep: SeminormalRep) -> Fraction:
    """Max |gamma_i M_ij - M_ji gamma_j| over every generator M: 0 exactly
    when each is self-adjoint for the form diag(gamma), which makes the
    model conjugate to a symmetric one.  That needs the form positive
    definite, so a gamma_i <= 0 counts as 1 - gamma_i."""
    g = rep.gamma
    worst = max((1 - x for x in g if x <= 0), default=Fraction(0))
    for M in (*rep.S, *rep.E, *rep.X):
        for i, row in enumerate(M):
            for j, x in row.items():
                worst = max(worst, abs(g[i] * x - M[j].get(i, 0) * g[j]))
    return worst


def verify_relations(rep: SeminormalRep, scalars: dict) -> dict:
    """Exact residuals of the full defining-relation suite on a seminormal
    model, plus G-adjointness of every generator (``star-symmetry``) and the
    blockwise scalar tower against ``scalars`` (``tower_scalars`` of the
    model's parameters and strand count).  Every value is 0 for a genuine
    model."""
    res = _relation_residuals(rep.S, rep.E, rep.X, rep.ps, rep.dim)
    res["star-symmetry"] = adjointness_residual(rep)
    res["tower-scalars"] = tower_scalar_residual(rep, scalars)
    return res


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
        e = {m: e_diag(m, k, ps) for m in cls}
        c = {m: combinat.content_sequence(m, ps.u)[k - 1] for m in cls}
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
                a = swap_a(t, k, ps)
                u = combinat.sk_action(t, k)
                if u is None:
                    record("swap-degenerate-unit", a * a == 1, f"t={t}, k={k}")
                    continue
                cs = combinat.content_sequence(t, ps.u)
                cu = combinat.content_sequence(u, ps.u)
                ok = (cu[k] == cs[k - 1] and cu[k - 1] == cs[k]
                      and swap_a(u, k, ps) == -a)
                record("content-swap", ok, f"t={t}, k={k}")
            if k > n - 2:
                continue
            t = tmu + (nu, mu, nu)
            record("contraction-inverse",
                   e_diag(t, k, ps) * e_diag(t, k + 1, ps) == 1, f"t={t}, k={k}")
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
                lhs = swap_b_squared(tt, k, ps) * e_diag(tt, k + 1, ps)
                rhs = swap_b_squared(uu, k + 1, ps) * e_diag(uu, k, ps)
                record("square-root-matching", lhs == rhs,
                       f"t={tt}, u={uu}, k={k}")
    return IdentityReport(counts, failures)
