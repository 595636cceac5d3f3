"""Seminormal matrix models on updown-tableau bases, with verification suites.

Everything here is exact.  Every coefficient of the model depends only on a
lattice step mu -> nu: its content c, held as the int C = q c over the lcm q
of the roots' denominators, and the diagonal contraction coefficient e.
Both are formed once per parameter set, in the step table ``ps.steps``
(``params.steps_out``), and the model and the identity suite read them
from there.  The orthonormal seminormal model has symmetric matrices
whose off-diagonal entries are square roots of rationals.  Each model is
built instead as that model conjugated by diag(sqrt(gamma)), with gamma
chosen on a spanning tree of the generator graph so that every entry is
rational.  It is built on ints: every entry,
every squared off-diagonal and gamma is an int pair (num, den), a square
root is taken with ``math.isqrt``, and each generator is held once, as one
matrix of int rows over one positive denominator in lowest terms
(``Evaluated``).  The models make one ``Realization``, their direct sum,
which stacks each letter's generators once into one block-diagonal matrix
over one common denominator, so a word takes one matrix product per
letter on ints and a Fraction is made only for a reported residual; it
holds the product of each prefix of a product of word sums, and applies
words to a matrix one stacked letter at a time.  ``wcell`` certifies the
cellular family's rank on it.  The defining
relations are written once, as pairs of word sums (``relations``), and both
sides are evaluated on the realization and compared block by block by
cross-multiplying; they, the scalar tower and self-adjointness for
diag(gamma) are checked with zero tolerance, as are the polynomial
identities between the coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import _linalg, combinat, params
from .params import ParamSet

# ---------------------------------------------------------------------------
# exact coefficient tables
# ---------------------------------------------------------------------------


def returns_at(t, k: int) -> bool:
    """Steps k, k+1 of t leave and re-enter the same shape."""
    return 1 <= k < len(t) and combinat.shape_before(t, k) == t[k]


def _signed(num: int, den: int) -> tuple[int, int]:
    """num/den as an int pair with a positive den."""
    return (num, den) if den > 0 else (-num, -den)


def _swap_pair(t, k: int, d: int, q: int) -> tuple[int, int]:
    """Diagonal swap coefficient 1/(c_{k+1} - c_k) of steps k, k+1 of t, as
    an int pair (num, den) with den > 0, from the int d = q (c_{k+1} - c_k)."""
    if d == 0:
        raise ValueError(f"equal adjacent contents at k={k} from shape "
                         f"{combinat.shape_before(t, k)}: parameters not generic")
    return _signed(q, d)


# ---------------------------------------------------------------------------
# the seminormal representation
# ---------------------------------------------------------------------------


class Evaluated(NamedTuple):
    """A rational matrix: one ``_linalg`` matrix of ints, ``rows``, over one
    positive denominator ``den``.  It is a generator of one model, or an
    element of a realization, block-diagonal over its models."""

    rows: list
    den: int


@dataclass
class SeminormalRep:
    """Generators over the updown basis of one shape.

    S[i-1], E[i-1] act at position i (1 <= i < n); X[j-1] is diagonal with
    the step-j contents.  Each is an ``Evaluated``: d x d int rows over one
    positive denominator, in lowest terms.  They are the symmetric
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


def _orthonormal_entries(ps: ParamSet, k: int, idx: dict, contents: dict):
    """S_k and E_k of the orthonormal model, each as (diagonal, off), with
    diagonal {i: value} and off {(i, j): (sign, square)} holding the sign
    and the square of every nonzero off-diagonal entry.  Every value is an
    int pair (num, den) with den > 0, formed from the contents, the ints
    q c of each basis tableau in ``contents``, and the numerators and
    denominators of the step table's e."""
    q = ps.q
    S_diag, S_off, E_diag, E_off = {}, {}, {}, {}
    seen: set[int] = set()
    for t, i in idx.items():
        mu = combinat.shape_before(t, k)
        if returns_at(t, k):
            if i in seen:
                continue
            e = params.steps_out(mu, ps).e
            cls = [t[:k - 1] + (nu,) + t[k:] for nu in e]
            evals = {}
            for m in cls:
                seen.add(idx[m])
                ev = e[m[k - 1]]
                if ev <= 0:
                    raise ValueError(
                        f"contraction coefficient {ev} <= 0 at k={k} from "
                        f"shape {mu}: "
                        "parameters outside the positivity regime")
                evals[m] = ev.numerator, ev.denominator
            for s in cls:
                cs = contents[s][k - 1]
                sn, sd = evals[s]
                for tt in cls:
                    denom = cs + contents[tt][k - 1]
                    if denom == 0:
                        raise ValueError(
                            f"opposite contents in one class at k={k} from "
                            f"shape {mu}: parameters not generic")
                    # denom is q (c_s + c_tt)
                    if s == tt:
                        E_diag[idx[s]] = sn, sd
                        S_diag[idx[s]] = _signed((sn - sd) * q, sd * denom)
                    else:
                        tn, td = evals[tt]
                        E_off[idx[tt], idx[s]] = 1, (sn * tn, sd * td)
                        S_off[idx[tt], idx[s]] = (1 if denom > 0 else -1,
                                                  (sn * tn * q * q, sd * td * denom * denom))
        else:
            d = contents[t][k] - contents[t][k - 1]
            S_diag[i] = _swap_pair(t, k, d, q)
            partner = combinat.sk_action(t, k)
            # a = q / d, so a^2 = 1 when d^2 = q^2, and 1 - a^2 = (d^2 - q^2) / d^2
            if partner is None:
                if d * d != q * q:
                    raise ValueError(
                        f"swap at k={k} from shape {mu} undefined but coefficient "
                        f"{Fraction(q, d)} is not a unit: outside the regime")
            else:
                b2 = d * d - q * q
                if b2 < 0:
                    raise ValueError(
                        f"squared off-diagonal {Fraction(b2, d * d)} < 0 at k={k} "
                        f"from shape {mu}: outside the positivity regime")
                if b2:
                    S_off[idx[partner], i] = 1, (b2, d * d)
    return (S_diag, S_off), (E_diag, E_off)


def _gamma(d: int, offs) -> list[tuple[int, int]]:
    """Positive weights on a spanning forest of the generator graph, as int
    pairs (num, den) in lowest terms: along a tree edge from i to j with
    orthonormal entry m, gamma[j] = gamma[i] m^2, which makes the rational
    entry at (i, j) equal to +-m^2 and at (j, i) equal to +-1."""
    nbrs: list[list] = [[] for _ in range(d)]
    for off in offs:
        for (i, j), (_, sq) in off.items():
            nbrs[i].append((j, sq))
    gamma: list = [None] * d
    for root in range(d):
        if gamma[root] is not None:
            continue
        gamma[root] = 1, 1
        queue = [root]
        for i in queue:
            gn, gd = gamma[i]
            for j, (sn, sd) in nbrs[i]:
                if gamma[j] is None:
                    num, den = gn * sn, gd * sd
                    g = math.gcd(num, den)
                    gamma[j] = num // g, den // g
                    queue.append(j)
    return gamma


def _block(d: int, entries: dict) -> Evaluated:
    """The d x d matrix with the nonzero entries {(i, j): (num, den)}, each
    den > 0, as int rows over the lcm of the dens, divided by the gcd of
    that lcm and every entry: its rows and den in lowest terms."""
    den = math.lcm(*(b for _, b in entries.values()))
    ints = {key: a * (den // b) for key, (a, b) in entries.items()}
    g = math.gcd(den, *ints.values())
    rows = _linalg.zeros(d)
    for (i, j), x in ints.items():
        rows[i][j] = x // g
    return Evaluated(rows, den // g)


def build_rep(ps: ParamSet, n: int, shape) -> SeminormalRep:
    """Assemble the generators of one shape on ints, each cleared as it is
    made.

    Raises ValueError outside the positivity regime: a nonpositive diagonal
    contraction coefficient, a squared off-diagonal below zero, or a
    non-unit swap coefficient where the swapped tableau leaves the lattice;
    and when an off-diagonal entry has no rational form, i.e. the squares
    of the orthonormal entries fail to match around a cycle.
    """
    if not ps.u:
        raise ValueError("a seminormal model needs the roots u")
    # the basis in the order of combinat.enumerate_updown: by content
    # sequence, which q > 0 scales without reordering; ties stay in walk order
    contents = {t: params.contents(ps, t) for t in combinat.updown_walks(n, shape)}
    basis = tuple(sorted(contents, key=contents.__getitem__))
    if len(basis) != combinat.count_updown(n, shape):
        raise AssertionError(f"{len(basis)} updown tableaux of {shape} at n={n}, "
                             f"not {combinat.count_updown(n, shape)}")
    idx = {t: i for i, t in enumerate(basis)}
    d = len(basis)

    # X_j = diag(C_j) / q, over the lcm q / g of its entries' denominators
    q, X = ps.q, []
    for j in range(n):
        col = [contents[t][j] for t in basis]
        g = math.gcd(q, *col)
        X.append(Evaluated([{i: x // g} if x else {} for i, x in enumerate(col)], q // g))

    entries = [_orthonormal_entries(ps, k, idx, contents) for k in range(1, n)]
    gamma = _gamma(d, [off for pair in entries for _, off in pair])

    def block(name: str, k: int, diag: dict, off: dict) -> Evaluated:
        # the entry at (i, j) is sign sqrt(sq gamma[j] / gamma[i]) = sign
        # sqrt(N / D), which is rational exactly when N D is a square
        out = {(i, i): v for i, v in diag.items() if v[0]}
        for (i, j), (sign, (sn, sd)) in off.items():
            (ni, di), (nj, dj) = gamma[i], gamma[j]
            num, den = sn * nj * di, sd * dj * ni
            root = math.isqrt(num * den)
            if root * root != num * den:
                raise ValueError(
                    f"{name}_{k} entry ({i}, {j}) has no rational form: "
                    "the squared entries do not match around a cycle")
            out[i, j] = sign * root, den
        return _block(d, out)

    S = [block("S", k, *s) for k, (s, _) in enumerate(entries, start=1)]
    E = [block("E", k, *e) for k, (_, e) in enumerate(entries, start=1)]
    return SeminormalRep(ps, n, shape, basis, S, E, X,
                         tuple(Fraction(*g) for g in gamma))


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
    reachable shape), as block-diagonal matrices of size sum d: the model
    of ``reps[b]`` acts on the rows and columns ``ranges[b]``, in that
    order.  A word, a word sum (``evaluate_sum``) or a product of word sums
    (``evaluate_product``, never expanded into words, each prefix's product
    held for the realization) evaluates to one ``Evaluated``, int rows over
    one denominator.  Each letter is stacked once per realization over the
    lcm of its models' denominators, so a word takes one matrix product per
    letter; ``words_times`` and ``times_words`` take words to a given
    matrix one stacked letter at a time instead, from the end that meets
    it.  A product multiplies the denominators and a sum brings its terms
    to their lcm, so no Fraction is normalised until a residual is
    reported.
    """

    def __init__(self, reps: list[SeminormalRep]):
        self.reps = reps
        self.ps, self.n = reps[0].ps, reps[0].n
        self.shapes = [rep.shape for rep in reps]
        self.dims = [rep.dim for rep in reps]
        starts = list(itertools.accumulate(self.dims, initial=0))
        self.ranges = list(zip(starts, starts[1:]))
        self._one = Evaluated(_linalg.identity(starts[-1]), 1)
        self._letters: dict = {}
        # the trie of held prefix products: factor key -> (product, next level)
        self._prefixes: dict = {}

    def _letter(self, letter) -> Evaluated:
        """One letter as one block-diagonal matrix, made once per
        realization: the models' generators over the lcm of their dens,
        each shifted to its row range; ("X", j, a) is the a-th power of
        X_j, the identity at a = 0."""
        ev = self._letters.get(letter)
        if ev is not None:
            return ev
        kind, i = letter[0], letter[1]
        if (kind in ("S", "E") and 1 <= i <= self.n - 1
                or kind == "X" and 1 <= i <= self.n and letter[2] == 1):
            gens = [getattr(rep, kind)[i - 1] for rep in self.reps]
            den = math.lcm(*(g.den for g in gens))
            rows = []
            for (start, _), (blk, d) in zip(self.ranges, gens):
                f = den // d
                rows.extend({start + j: x * f for j, x in row.items()} for row in blk)
            ev = Evaluated(rows, den)
        elif kind == "X" and 1 <= i <= self.n and letter[2] == 0:
            ev = self._one
        elif kind == "X" and 1 <= i <= self.n and letter[2] > 1:
            ev = mul(self._letter(("X", i, letter[2] - 1)), self._letter(("X", i, 1)))
        else:
            raise ValueError(f"letter {letter!r} out of range at n={self.n}")
        self._letters[letter] = ev
        return ev

    def evaluate(self, word) -> Evaluated:
        """The rows may be those of a letter, which, like every ``_linalg``
        value, are only read."""
        if not word:
            return self._one
        out = self._letter(word[0])
        for letter in word[1:]:
            out = mul(out, self._letter(letter))
        return out

    def evaluate_sum(self, terms) -> Evaluated:
        parts = [scaled(self.evaluate(word), coeff) for coeff, word in terms]
        den = math.lcm(*(part.den for part in parts))
        out = None
        for rows, d in parts:
            rows = _linalg.mat_scale(rows, den // d)
            out = rows if out is None else _linalg.mat_add(out, rows)
        if out is None:
            out = _linalg.zeros(sum(self.dims))
        return Evaluated(out, den)

    def evaluate_product(self, factors) -> Evaluated:
        """The product of the word sums ``factors``, in order, never
        expanded into words.  The product of each prefix is held for the
        realization, in a trie with one level per factor, keyed by the
        factor's terms with each coefficient as its int pair, so that a
        lookup hashes no Fraction; products that share a prefix, as the
        Murphy middles of the shapes share their root-shift factors and
        their first coset factors, evaluate it once."""
        out, node = None, self._prefixes
        for terms in factors:
            key = tuple((c.numerator, c.denominator, word) for c, word in terms)
            entry = node.get(key)
            if entry is None:
                ev = self.evaluate_sum(terms)
                entry = node[key] = (ev if out is None else mul(out, ev), {})
            out, node = entry
        return self._one if out is None else out

    def words_times(self, words, x: Evaluated) -> list[Evaluated]:
        """word · x for each of ``words``, each taken from its right end one
        stacked letter L at a time (x <- L x).  A letter holds few entries
        per row, so a step costs a small multiple of the nonzeros of x,
        and words next to each other in ``words`` share the steps of
        their common suffix."""
        return self._letter_steps(x, [word[::-1] for word in words],
                                  lambda acc, letter: mul(letter, acc))

    def times_words(self, x: Evaluated, words) -> list[Evaluated]:
        """x · word for each of ``words``, each taken from its left end one
        stacked letter L at a time (x <- x L); words next to each other
        share the steps of their common prefix."""
        return self._letter_steps(x, words, mul)

    def _letter_steps(self, x: Evaluated, sequences, step) -> list[Evaluated]:
        """x after every letter of each sequence in turn, by ``step``; only
        the steps of the previous sequence are held, and a sequence resumes
        after the letters it shares with it."""
        path, prev, out = [x], (), []
        for seq in sequences:
            k = 0
            for a, b in zip(seq, prev):
                if a != b:
                    break
                k += 1
            del path[k + 1:]
            for letter in seq[k:]:
                path.append(step(path[-1], self._letter(letter)))
            out.append(path[-1])
            prev = seq
        return out

    def block_residuals(self, a: Evaluated, b: Evaluated) -> list[Fraction]:
        """Exact max |a - b| on each block: both sides are brought over the
        lcm L of their denominators once, and each block's rows are
        compared as ints (``_residual``)."""
        den = math.lcm(a.den, b.den)
        x, y = _linalg.mat_scale(a.rows, den // a.den), _linalg.mat_scale(b.rows, den // b.den)
        return [_residual(x[start:end], y[start:end], den) for start, end in self.ranges]


def mul(a: Evaluated, b: Evaluated) -> Evaluated:
    """The product of two evaluated elements."""
    return Evaluated(_linalg.mat_mul(a.rows, b.rows), a.den * b.den)


def scaled(ev: Evaluated, c) -> Evaluated:
    """c ev for an int or Fraction c: its numerator scales the rows, and
    its denominator joins den."""
    return Evaluated(_linalg.mat_scale(ev.rows, c.numerator), ev.den * c.denominator)


_ZERO = Fraction(0)


def _residual(x, y, den: int) -> Fraction:
    """max |x - y| / den for int rows x, y.  Rows store no zero, so equal
    rows are found by ``==`` before any difference is formed."""
    return _ZERO if x == y else Fraction(_linalg.max_abs(_linalg.mat_sub(x, y)), den)


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
    E_1 X_1^a E_1 = omega_a E_1 for 0 <= a <= r + 2, Omega read off W at
    the empty shape, and the cyclotomic relation sum_k c_k X_1^k = 0, c
    from ``cyclotomic_coeffs``."""
    def w(*words):
        return tuple((Fraction(1), word) for word in words)

    omega = params.omega_k_values(combinat.empty_mp(ps.r), ps, ps.r + 2)

    for i in range(1, n):
        s, e, x, x1 = ("S", i), ("E", i), ("X", i, 1), ("X", i + 1, 1)
        yield "involution", w((s, s)), w(())
        yield "contraction-scalar", w((e, e)), ((omega[0], (e,)),)
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
        for a, omega_a in enumerate(omega):
            yield "unwrapping", w((e, ("X", 1, a), e)), ((omega_a, (e,)),)
    if ps.u and n >= 1:
        yield "cyclotomic", tuple((c, (("X", 1, k),)) for k, c in
                                  enumerate(params.cyclotomic_coeffs(ps.u)) if c), ()


def residuals(real: Realization) -> list[dict]:
    """Exact max |lhs - rhs| over the ``relations`` of each family, one dict
    per block of ``real``."""
    out = [dict.fromkeys(RELATION_FAMILIES, Fraction(0)) for _ in real.reps]
    for family, lhs, rhs in relations(real.ps, real.n):
        for res, value in zip(out, real.block_residuals(real.evaluate_sum(lhs),
                                                        real.evaluate_sum(rhs))):
            if value:
                res[family] = max(res[family], value)
    return out


def tower_scalars(ps: ParamSet, n: int) -> dict:
    """omega_k^(a), 0 <= a <= r + 1, keyed by the shape mu before step k,
    for every mu with |mu| <= n - 2 (every position k < n): the expansion at
    infinity of the closed form of W at mu, which ``ps`` forms once per
    shape."""
    return {mu: params.omega_k_values(mu, ps, ps.r + 1)
            for size in range(n - 1)
            for mu in combinat.multipartitions(ps.r, size)}


def adjointness_residual(rep: SeminormalRep) -> Fraction:
    """Max |gamma_i M_ij - M_ji gamma_j| over every generator M: 0 exactly
    when each is self-adjoint for the form diag(gamma), which makes the
    model conjugate to a symmetric one.  That needs the form positive
    definite, so a gamma_i <= 0 counts as 1 - gamma_i.  Compared as ints:
    with gamma = g / q and M = B / den, max |g_i B_ij - B_ji g_j| / (q den)."""
    q = params.clearing(rep.gamma)
    g = params.cleared(rep.gamma, q)
    worst = max((1 - x for x in rep.gamma if x <= 0), default=Fraction(0))
    for B, den in (*rep.S, *rep.E, *rep.X):
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
        rows = [scalars[combinat.shape_before(t, k)] for rep in real.reps for t in rep.basis]
        for a in range(real.ps.r + 2):
            rhs = _rows_scaled(ek, [w[a] for w in rows])
            for res, value in zip(out, real.block_residuals(
                    real.evaluate((e, ("X", k, a), e)), rhs)):
                if value:
                    res["tower-scalars"] = max(res["tower-scalars"], value)
    return out


def _rows_scaled(ev: Evaluated, scalars) -> Evaluated:
    """ev with row i scaled by scalars[i], a Fraction: the numerators over
    the lcm q of the denominators scale the rows, and q joins den."""
    q = params.clearing(scalars)
    return Evaluated([{j: x * f for j, x in row.items()} if f else {}
                      for row, f in zip(ev.rows, params.cleared(scalars, q))], ev.den * q)


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


def _int_sum(terms) -> tuple[int, int]:
    """The sum of a/b over the int pairs (a, b) of ``terms``, as one int
    pair (num, den) over the product of the b."""
    num, den = 0, 1
    for a, b in terms:
        num, den = num * b + a * den, den * b
    return num, den


def class_sums(C: dict, e: dict, q: int):
    """The class-sum identities at one shape mu, from the steps out of it:
    C maps each nu to q c_nu, e to its contraction coefficient.  For each s,

        sum_m e_m / (c_s + c_m)               = 1 + 1/(2 c_s)
        sum_m e_m / (c_s + c_m)^2             = (1 - 1/(4 c_s^2)) / e_s + 1/(2 c_s^2)
        sum_m e_m / ((c_s + c_m)(c_m + c_t')) = 1 / (2 c_s c_t'),  t' != s,

    yielded as (name, s, t' or None, lhs, rhs), each side an int pair
    (num, den).  With e_m = E_m / D over the lcm D of the e's denominators
    and c = C / q, every sum runs on ints: the linear one is
    q sum E_m / (C_s + C_m) over D, against (2 C_s + q) / (2 C_s)."""
    D = params.clearing(e.values())
    E = dict(zip(e, params.cleared(e.values(), D)))
    q2 = q * q
    for s, cs in C.items():
        num, den = _int_sum((E[m], cs + x) for m, x in C.items())
        yield "class-sum-linear", s, None, (q * num, D * den), (2 * cs + q, 2 * cs)
        num, den = _int_sum((E[m], (cs + x) ** 2) for m, x in C.items())
        c2 = 4 * cs * cs
        yield ("class-sum-quadratic", s, None, (q2 * num, D * den),
               ((c2 - q2) * D + 2 * q2 * E[s], c2 * E[s]))
        for tp, ct in C.items():
            if tp != s:
                num, den = _int_sum((E[m], (cs + x) * (x + ct)) for m, x in C.items())
                yield "class-sum-cross", s, tp, (q2 * num, D * den), (q2, 2 * cs * ct)


def check_identities(ps: ParamSet, n: int) -> IdentityReport:
    """Every exact coefficient identity at n strands, checked with zero
    tolerance once per local configuration.  A coefficient at k reads only
    the shape mu before step k and the steps out of mu, which the step
    table ``ps.steps`` holds with their contents and contraction
    coefficients (the step back from nu has content -c_nu).  So the class
    and W identities are read off the steps out of each mu with
    |mu| <= n - 2, the class sums on ints (``class_sums``), and the
    contraction-inverse identity per (mu, nu) with |mu| <= n - 3.  The swap
    identities, per (mu, nu, rho) with rho != mu, and the matching
    identities, per (mu, nu) with |mu| <= n - 3, check
    ``combinat.sk_action`` on windows placed after t^mu, at k = |mu| + 1;
    elsewhere t^mu only names a window in a failure.  ``w-recursion``
    checks that the closed form at nu is one recursion step from that at
    mu, per lattice edge mu -> nu with |mu| <= n - 2; by induction on the
    walk, the recursion from W at the empty shape, from which Omega is
    read, then gives the closed form along every walk of fewer than n
    steps.  W at each shape is formed once per parameter set, in
    ``ps.w_at``.

    Each identity is stated in the form its coefficients are held, so no
    rational function is evaluated or divided.  W(0) = 0 reads the constant
    terms of W's closed form, and the partial fractions of W/y are
    compared with W multiplied through by y.  The swap identities read the
    coefficient a = 1/(c_{k+1} - c_k) as the int pair (a0, a1) of
    ``_swap_pair``, which raises on equal contents: a is a unit when
    a0^2 = a1^2, and 1 - a^2 is (a1^2 - a0^2)/a1^2.  ``content-swap``
    checks that u's contents are t's swapped; u's coefficient is then -a."""
    counts: dict[str, int] = {}
    failures: list[str] = []

    def record(name: str, ok: bool, ctx: str = ""):
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            failures.append(f"{name}: {ctx}")

    q = ps.q
    y = params.RationalFunction(params.Poly((0, 1)))
    for mu in (lam for size in range(n - 1)
               for lam in combinat.multipartitions(ps.r, size)):
        tmu = combinat.t_lambda(mu)
        k = len(tmu) + 1
        C, e = params.steps_out(mu, ps)
        for nu, cn in C.items():
            record("w-recursion", params.wk_rational(nu, ps)
                   == params.wk_recursive_rational(mu, Fraction(cn, q), ps),
                   f"k={k + 1}, prefix={tmu + (nu,)}")
        for name, s, tp, (ln, ld), (rn, rd) in class_sums(C, e, q):
            ctx = (f"s={tmu + (s, mu)}, "
                   + (f"t'={tmu + (tp, mu)}, " if tp is not None else "") + f"k={k}")
            if not ld or not rd:
                raise ZeroDivisionError(f"{name}: zero denominator at {ctx}")
            record(name, ln * rd == rn * ld, ctx)
        # W(0) = 0 on the constant terms: den(0) = 2 prod(-C) is nonzero,
        # since a zero content has ended the class sums above
        w = params.wk_rational(mu, ps)
        record("w-vanishes-at-zero", (w.num.coeffs or (0,))[0] == 0, f"k={k}, prefix={tmu}")
        # partial fractions of W(y)/y over the class, multiplied through by
        # y: e_m / (y - c_m) is q e_m / (qy - C_m)
        parts = sum(params.RationalFunction(
            params.Poly.const(e[m] * q), params.Poly((-x, q))) for m, x in C.items())
        record("w-partial-fractions", w == y * parts, f"k={k}, prefix={tmu}")
        for nu, cn in C.items():
            for rho, cr in params.steps_out(nu, ps).C.items():
                if rho == mu:
                    continue
                t = tmu + (nu, rho)
                # the swap coefficient a = a0 / a1, or the regime error
                a0, a1 = _swap_pair(t, k, cr - cn, q)
                u = combinat.sk_action(t, k)
                if u is None:
                    record("swap-degenerate-unit", a0 * a0 == a1 * a1, f"t={t}, k={k}")
                    continue
                # u takes mu -> u[k - 1] -> rho; with t's contents swapped,
                # u's difference is -(cr - cn), so its coefficient is -a
                cu, cu_next = C[u[k - 1]], params.steps_out(u[k - 1], ps).C[rho]
                record("content-swap", cu_next == cn and cu == cr, f"t={t}, k={k}")
            if k > n - 2:
                continue
            C_nu, e_nu = params.steps_out(nu, ps)
            record("contraction-inverse", e[nu] * e_nu[mu] == 1,
                   f"t={tmu + (nu, mu, nu)}, k={k}")
            # matching products of squared off-diagonals with contractions:
            # mu, nu, x, nu and mu, y, mu, nu swap to the same tableau
            for x, cx in C_nu.items():
                tt = tmu + (nu, x, nu)
                target = combinat.sk_action(tt, k) if x != mu else None
                if target is None:
                    continue
                uu = tmu + (target[k - 1], mu, nu)
                if combinat.sk_action(uu, k + 1) != target:
                    continue
                back = params.steps_out(target[k - 1], ps).C[mu]
                # 1 - a^2 for each swap coefficient a = a0 / a1
                a0, a1 = _swap_pair(tt, k, cx - cn, q)
                b0, b1 = _swap_pair(uu, k + 1, cn - back, q)
                lhs = Fraction(a1 * a1 - a0 * a0, a1 * a1) * e_nu[x]
                rhs = Fraction(b1 * b1 - b0 * b0, b1 * b1) * e[target[k - 1]]
                record("square-root-matching", lhs == rhs,
                       f"t={tt}, u={uu}, k={k}")
    return IdentityReport(counts, failures)
