"""Code the tests share and the command line does not call: the dense
polynomials and unreduced rational functions (``Poly``,
``RationalFunction``) through which W, its recursion and its expansion at
infinity are formed as the references for the int forms of ``params``
(``form_rational``, ``w_rational``, ``w_recursive_rational``,
``series_of_rational``), the dense
matrix reader, the Schur reference for Omega and other admissible
sequences, the admissibility check (``check_admissible``), exact
two-strand module fixtures, the hand-written relation
suite that the relation table is checked against, with the commutations of
distant letters that the table leaves out, also as word sums
(``distant_commutations``), the Fraction-row
evaluation that the model's int forms are checked against, a matrix as
the entries a model holds (``entries``), the model built tableau by
tableau, before its root-free pattern was held per shape
(``build_all_reference``, with ``build_rep_entries_reference``,
``entries_reference`` and ``returns_at``), and each letter stacked from
it and cleared together (``letter_reference``, ``cleared_block``), that
``build_all`` and ``Realization``'s letters are checked against, the
model as held before each letter was cleared once on the stacked basis
(``evaluated``, ``build_all_evaluated``: each generator cleared alone)
and its letters restacked from those (``restacked_letter``), the
self-adjointness of every entry of a model for diag(gamma)
(``adjointness_reference``, with ``gammas``) that the window identities
are checked against, the two-sided relation check (``two_sided_residuals``: each side
a whole element, compared block by block by ``block_residuals``, with
``_residual``, ``mat_sub`` and ``max_abs``) that
``Realization.sum_residuals`` is checked against, the relation residuals
with the Omega a job expands (``job_residuals``), the scalar tower, which
no job checks since the placement of E_k and the partial fractions of W
decide it (``tower_scalars``, ``tower_residuals``), the word sum formed term
by term (``term_by_term_sum``: each word a product of its letters,
``mul_fold``, scaled by its coefficient, ``scaled``, and merged into the
sum by ``mat_add``, ``mat_scale`` and ``_merge_row``) that
``Realization.evaluate_sum`` is checked against, a word as the one-term
word sum (``evaluate_word``), the lattice read node
by node (the addable and removable nodes with their contents,
``box_diff``, the class at a returning step and the swap of two steps) that ``combinat.steps_from`` is checked against, a
count of the step tables a parameter set fills, the Fraction elimination
that ``_linalg``'s int elimination is checked against, the inverse as
Fraction rows from that int elimination (``eliminated_inverse``) and int
rows over one denominator read as Fractions (``over``), the branching
report, the Fraction-dict Hecke rewriting, the
tuple-key Hecke algebra, Murphy basis and Gram matrix (``TupleHecke``,
``TupleMurphyBasis``, ``tuple_gram_matrix``) that the ones keyed by
monomial index are checked against, with the decoding between the two
keys (``by_monomial``, ``from_monomials``), the cell triples as the keys
of the held cell words (``cell_triples``),
the Fraction expansion at infinity, and the Fraction forms of the
contraction coefficient, of the seminormal model (``build_rep_reference``),
of W at a shape, that the int forms are checked against, the class sums
in Fractions (``class_sums_reference``), which the partial fractions
decide, the identity suite in Fraction forms (``identities_reference``: W
divided by y, each swap coefficient a Fraction), that
the identities on the coefficients as held are checked against, the two
identities that the relations of the models decide
(``contraction_identities``), the
reference product of two Hecke elements and expansion of products into
words, gamma walked down dominance from t^lambda (``gamma_by_descents``)
that the closed products of ``hecke.gamma_coeffs`` are checked against,
Hecke triangularity and
symmetrizer witnesses, the semisimplicity boundary, cell indices and word
helpers, the anti-involution of a cellular element, the view of one model's
block of a realization, the whole cellular family as vectors that
``wcell``'s block-triangular certificate is checked against, the Young
subgroup and the report with nothing shared (``unshared_rank_report``)
that the coset factors and the shared report are checked against, and the two
cellular residual checks (the contraction chain commuting with the Murphy
products, and the cellular products against the Hecke Gram pairing)."""

import collections
import functools
import graphlib
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from brauer import BrauerDiagram
from wenzl import _linalg, combinat, hecke, params, seminormal, wcell
from wenzl.combinat import Multipartition, Node, Tableau, Word, perm_word, word_for_permutation
from wenzl.params import ParamSet, cyclotomic_coeffs
from wenzl.seminormal import RELATION_FAMILIES

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# dense polynomials, and rational functions kept unreduced, in one variable:
# the path that W, its recursion and its expansion at infinity took before
# they were stated on the ints of the step table, and that those are
# checked against
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
            scale = params.clearing(cs)
            num = Poly(params.cleared(num.coeffs, scale))
            den = Poly(params.cleared(den.coeffs, scale))
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


def series_of_rational(rf: RationalFunction, A: int) -> list[Fraction]:
    """The expansion at infinity of ``rf``, by ``params.series_at_infinity``
    on its int coefficients."""
    return params.series_at_infinity(list(rf.num.coeffs), list(rf.den.coeffs), A)


def form_rational(form, ps: ParamSet) -> RationalFunction:
    """The rational function that the int linear factors (a..., b...) of
    ``params.wk_rational`` or ``params.wk_recursive_rational`` stand for:
    1/2 - y + (y - (1/2)(-1)^r) prod (qy + a) / prod (qy + b), built over Z
    as ((1 - 2y) Q + (2y - (-1)^r) P) / (2Q), with P and Q the products of
    the factors as ``Poly``."""
    sign = -1 if ps.r % 2 else 1
    P = Q = Poly((1,))
    for a in form[0]:
        P = P * Poly((a, ps.q))
    for b in form[1]:
        Q = Q * Poly((b, ps.q))
    return RationalFunction(Poly((1, -2)) * Q + Poly((-sign, 2)) * P, Q * 2)


def w_rational(mu, ps: ParamSet) -> RationalFunction:
    """W at the shape mu as a rational function, from its closed form
    ``params.wk_rational``."""
    return form_rational(params.wk_rational(mu, ps), ps)


def recursion_factor_rational(c: Fraction) -> RationalFunction:
    """((y+c)^2 - 1)(y-c)^2 / (((y-c)^2 - 1)(y+c)^2), formed over Z: with
    c = p/q, num and den are both multiplied by q^4 through q(y + c) =
    qy + p and q(y - c) = qy - p."""
    p, q = c.numerator, c.denominator
    plus, minus, q2 = Poly((p, q)), Poly((-p, q)), Poly((q * q,))
    return RationalFunction((plus * plus - q2) * (minus * minus),
                            (minus * minus - q2) * (plus * plus))


def w_recursive_rational(mu, c: Fraction, ps: ParamSet) -> RationalFunction:
    """One step of the recursion for W as a rational function, from W at
    the shape mu (``w_rational``) across a step of content c:
    F(c)(W + y - 1/2) - (y - 1/2), with F the recursion factor."""
    y_minus_half = RationalFunction(Poly((-HALF, Fraction(1))))
    return (recursion_factor_rational(c)
            * (w_rational(mu, ps) + y_minus_half) - y_minus_half)


def from_dense(a) -> list[dict]:
    """The ``_linalg`` rows of a list-of-lists matrix written out densely."""
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in a]


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


def derived_omega(ps: ParamSet, A: int) -> list[Fraction]:
    """Omega_0, ..., Omega_A of ps, read off W at the empty shape as every
    use in ``src`` reads it."""
    return params.omega_k_values(combinat.empty_mp(ps.r), ps, A)


def omega_from_u(u, a: int) -> Fraction:
    """omega_a = q_{a+1}(u) - (1/2)(-1)^r q_a(u) + (1/2) delta_{a0}, r = len(u)."""
    sign = -1 if len(u) % 2 else 1
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
    and scalar multiplication by Fraction (e.g. polynomials, for
    one-parameter families).  Omega derived from roots passes by its
    construction (``params.omega_k_values``), so no job checks it; the
    tests check that, and other sequences."""
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


def nilpotent_example_omega(A: int) -> list[Fraction]:
    """omega_a = (1/4)^a (1 - a): the admissible sequence that the equal
    roots (1/4, 1/4) derive, and no pair of distinct roots; its algebra
    admits a module on which X_1 - 1/4 is nonzero nilpotent."""
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


class ModuleFixture(NamedTuple):
    S: list
    E: list
    X: list
    ps: ParamSet


def module_realization(S, E, X, ps: ParamSet) -> seminormal.Realization:
    """The one-block realization of a module given by ``_linalg`` sparse
    rows, with at least one X: each matrix as its entries, as
    ``build_rep`` holds its generators."""
    d = len(X[0])
    S, E, X = ([entries(M) for M in mats] for mats in (S, E, X))
    rep = seminormal.SeminormalRep(ps, len(X), None, tuple(range(d)), S, E, X)
    return seminormal.Realization([rep])


def check_module(S, E, X, ps: ParamSet) -> dict:
    """Exact relation residuals for a module given by ``_linalg`` sparse rows,
    with at least one X: the relation table evaluated on the one-block
    realization of the module.  Every value should be Fraction(0) for a
    genuine module."""
    return job_residuals(module_realization(S, E, X, ps))[0]


def seeded_u(tag: str, r: int, n: int) -> tuple[Fraction, ...]:
    """Fractional roots k * default_u + delta, k and delta drawn by the tag."""
    rng = random.Random(f"{tag}:{r}:{n}")
    k = rng.choice((2, 4, 8))
    delta = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-1, 4)))
    return tuple(k * x + delta for x in combinat.default_u(r, n))


def root_sets(tag: str, r: int) -> list[tuple[Fraction, ...]]:
    """Roots for checking an int form against its Fraction reference: the
    default ones, seeded ones, the default ones shifted onto the single
    denominators 2, 3, 4 and 7, and roots over mixed denominators (q = 6 at
    r = 2, 12 at r = 3)."""
    base = combinat.default_u(r, 3)
    return [base, seeded_u(tag, r, 3),
            *(tuple(x + Fraction(1, d) for x in base) for d in (2, 3, 4, 7)),
            (Fraction(37, 2), Fraction(-11, 3), Fraction(23, 4))[:r]]


def entries(M) -> dict:
    """``_linalg`` rows of rationals (Fractions or ints) as the entries
    ``seminormal.build_rep`` holds a generator by: {(i, j): (num, den)}
    for each nonzero entry, den > 0."""
    return {(i, j): (Fraction(x).numerator, Fraction(x).denominator)
            for i, row in enumerate(M) for j, x in row.items() if x}


# the model as it was built tableau by tableau, before the root-free
# pattern was held per shape: each tableau's contents walked through the
# step table (``params.contents``), its shape before each step and whether
# it returns there read off the tableau, and each partner found by its
# tuple; and as it was held before each letter was cleared once on the
# stacked basis: every generator cleared on its own shape's rows as it was
# made, and each letter restacked from those over the lcm of their dens

def returns_at(t, k: int) -> bool:
    """Steps k, k+1 of t leave and re-enter the same shape."""
    return 1 <= k < len(t) and combinat.shape_before(t, k) == t[k]


def entries_reference(ps: ParamSet, k: int, idx: dict, contents: dict):
    """The reference for the entries ``seminormal.build_rep`` places at k:
    the nonzero entries {(i, j): (num, den)} of S_k and E_k, int pairs with
    den > 0, formed tableau by tableau over the basis index ``idx``, with
    the contents of each tableau, ``contents``; where t returns at k, its
    class entries read off the step table at the shape before step k, and
    elsewhere the swap data of its window (``seminormal.swap_window``)."""
    q = ps.q
    S, E = {}, {}
    for t, i in idx.items():
        mu = combinat.shape_before(t, k)
        if returns_at(t, k):
            st = params.steps_out(mu, ps)
            if not all(st.e.values()):
                raise seminormal._not_generic(f"contraction coefficient 0 at k={k} from shape", mu)
            if any(-x in st.C.values() for x in st.C.values()):
                raise seminormal._not_generic(
                    f"opposite contents in one class at k={k} from shape", mu)
            for nu, ev in st.e.items():
                j = idx[t[:k - 1] + (nu,) + t[k:]]
                E[i, j] = ev.numerator, ev.denominator
                # q (c_nu(t) + c_nu) is contents[t][k - 1] + C[nu]
                num = ev.numerator - ev.denominator if i == j else ev.numerator
                if num:
                    S[i, j] = seminormal._signed(
                        num * q, ev.denominator * (contents[t][k - 1] + st.C[nu]))
            continue
        (a0, a1), nu2, p = seminormal.swap_window(ps, k, mu, t[k - 1], t[k])
        if nu2 is None and a0 * a0 != a1 * a1:
            raise ValueError(f"swap at k={k} from shape {mu} undefined but coefficient "
                             f"{Fraction(a0, a1)} is not a unit: outside the regime")
        S[i, i] = a0, a1
        if p is not None and p[0]:
            S[i, idx[t[:k - 1] + (nu2,) + t[k:]]] = p
    return S, E


def build_rep_entries_reference(ps: ParamSet, n: int, shape) -> seminormal.SeminormalRep:
    """The reference for ``seminormal.build_rep``, tableau by tableau: the
    basis sorted by the contents of each walk (``params.contents``), the
    basis count, X_j = diag(C_j) / q and the entries of
    ``entries_reference``, raising the same first error."""
    if not ps.u:
        raise ValueError("a seminormal model needs the roots u")
    contents = {t: params.contents(ps, t) for t in combinat.updown_walks(n, shape)}
    basis = tuple(sorted(contents, key=contents.__getitem__))
    if len(basis) != combinat.count_updown(n, shape):
        raise AssertionError(f"{len(basis)} updown tableaux of {shape} at n={n}, "
                             f"not {combinat.count_updown(n, shape)}")
    idx = {t: i for i, t in enumerate(basis)}
    X = [{(i, i): (contents[t][j], ps.q) for i, t in enumerate(basis) if contents[t][j]}
         for j in range(n)]
    pairs = [entries_reference(ps, k, idx, contents) for k in range(1, n)]
    return seminormal.SeminormalRep(ps, n, shape, basis, [s for s, _ in pairs],
                                    [e for _, e in pairs], X)


def build_all_reference(ps: ParamSet, n: int) -> list[seminormal.SeminormalRep]:
    """The reference for ``seminormal.build_all``: the models of
    ``build_rep_entries_reference``, then the build's checks after them, in
    the same order, so it raises the same first ValueError."""
    reps = [build_rep_entries_reference(ps, n, shape)
            for shape in combinat.reachable_shapes(ps.r, n)]
    repeated = [x for j, x in enumerate(ps.u) if x in ps.u[:j]]
    if n >= 1 and repeated:
        raise ValueError(f"repeated root {repeated[0]} in u: parameters not generic")
    for mu in (mu for size in range(n) for mu in combinat.multipartitions(ps.r, size)):
        if not all(num and den for num, den in params.steps_out(mu, ps).g.values()):
            raise ValueError(f"coinciding contents out of shape {mu}: parameters not generic")
    return reps


def cleared_block(d: int, entries: dict) -> seminormal.Evaluated:
    """The d x d matrix with the nonzero entries {(i, j): (num, den)}, each
    den > 0, as int rows over the lcm of the dens, divided by the gcd of
    that lcm and every entry: its rows and den in lowest terms."""
    den = math.lcm(*(b for _, b in entries.values()))
    ints = {key: a * (den // b) for key, (a, b) in entries.items()}
    g = math.gcd(den, *ints.values())
    rows = _linalg.zeros(d)
    for (i, j), x in ints.items():
        rows[i][j] = x // g
    return seminormal.Evaluated(rows, den // g)


def letter_reference(reps, letter) -> tuple:
    """The reference for ``Realization._letter`` at S_k, E_k and X_j: the
    models' entries, each shifted to its row range, cleared together
    (``cleared_block``), and the ``Diagonal`` of the letter where every entry key
    is (i, i), else None."""
    kind, i = letter[0], letter[1]
    starts = itertools.accumulate((rep.dim for rep in reps), initial=0)
    stacked = {(s + a, s + b): x for s, rep in zip(starts, reps)
               for (a, b), x in getattr(rep, kind)[i - 1].items()}
    ev = cleared_block(sum(rep.dim for rep in reps), stacked)
    if not all(a == b for a, b in stacked):
        return ev, None
    return ev, seminormal.Diagonal([row.get(p, 0) for p, row in enumerate(ev.rows)], ev.den)


def evaluated(rep: seminormal.SeminormalRep) -> seminormal.SeminormalRep:
    """rep with each generator cleared alone to an ``Evaluated``, d x d
    int rows over one positive den in lowest terms (``cleared_block``)."""
    return rep._replace(**{kind: [cleared_block(rep.dim, g) for g in getattr(rep, kind)]
                           for kind in "SEX"})


def build_all_evaluated(ps: ParamSet, n: int) -> list[seminormal.SeminormalRep]:
    """The reference for ``seminormal.build_all``, each generator cleared
    as it is made: the models of ``build_all_reference``, each
    ``evaluated``, so it raises the same first ValueError."""
    return [evaluated(rep) for rep in build_all_reference(ps, n)]


def restacked_letter(reps, letter) -> seminormal.Evaluated:
    """The reference for ``Realization._letter`` on models of
    ``build_all_evaluated``: S_k, E_k and X_j as each model's ``Evaluated``
    brought to the lcm of their dens, each shifted to its row range, and
    X_j^a as the product of a copies of X_j from the identity."""
    kind, i = letter[0], letter[1]
    if kind == "X" and letter[2] != 1:
        one = seminormal.Evaluated(_linalg.identity(sum(rep.dim for rep in reps)), 1)
        x = restacked_letter(reps, ("X", i, 1))
        return functools.reduce(seminormal.mul, [x] * letter[2], one)
    gens = [getattr(rep, kind)[i - 1] for rep in reps]
    den = math.lcm(*(g.den for g in gens))
    rows, start = [], 0
    for rep, (blk, d) in zip(reps, gens):
        rows.extend({start + j: x * (den // d) for j, x in row.items()} for row in blk)
        start += rep.dim
    return seminormal.Evaluated(rows, den)


def as_fractions(ev):
    """An int element over its denominator, as Fractions: the matrix of a
    ``seminormal.Evaluated`` as ``_linalg`` rows, or a ``hecke.Element`` as
    a dict by key."""
    if isinstance(ev, hecke.Element):
        return {key: Fraction(c, ev.den) for key, c in ev.terms.items()}
    return [{j: Fraction(x, ev.den) for j, x in row.items()} for row in ev.rows]


def block(real: seminormal.Realization, ev, b: int) -> seminormal.Evaluated:
    """The matrix of model b in ev, over ev's den."""
    start, end = real.ranges[b]
    return seminormal.Evaluated([{j - start: x for j, x in row.items()}
                                 for row in ev.rows[start:end]], ev.den)


def blocks_as_fractions(real: seminormal.Realization, ev) -> list:
    """An element of ``real`` as one Fraction matrix per model, each on
    its own rows and columns, as ``FractionRealization`` evaluates it."""
    return [as_fractions(block(real, ev, b)) for b in range(len(real.reps))]


def vec(real: seminormal.Realization, ev) -> dict:
    """An element of ``real`` as one sparse vector of length sum d^2 over
    all models, block by block and row by row: entry (i, j) of block b at
    the sum of the earlier d^2 plus i d + j, the element scaled by its
    positive den.  The rank over Q of such vectors is that of the
    elements."""
    out, place = {}, 0
    for (start, end), d in zip(real.ranges, real.dims):
        for i, row in enumerate(ev.rows[start:end]):
            out.update((place + i * d + j - start, x) for j, x in row.items())
        place += d * d
    return out


def cellular_family_vectors(ps: ParamSet, n: int) -> list[dict]:
    """The reference for ``wcell.cellular_rank_report``: every element
    A_a M B_b of every cell on the whole realization, as one ``vec`` each,
    cell by cell and in (a, b) order, whose exact rank is the family's."""
    real = seminormal.Realization(seminormal.build_all(ps, n))
    vecs = []
    for arcs in range(n // 2 + 1):
        for shape in combinat.multipartitions(ps.r, n - 2 * arcs):
            triples = cell_triples(ps.r, n, arcs, shape)
            diagonal = [wcell.cellular_element(ps, n, arcs, shape, a, a) for a in triples]
            m = real.evaluate_product(diagonal[0].middle)
            am = [seminormal.mul(evaluate_word(real, cw.left_word), m) for cw in diagonal]
            b = [evaluate_word(real, cw.right_word) for cw in diagonal]
            vecs.extend(vec(real, seminormal.mul(x, y)) for x in am for y in b)
    return vecs


def young_subgroup(lam: Multipartition, n: int) -> list[tuple[int, ...]]:
    """The row stabilizer of t^lambda as one-line permutations of {1..n}:
    the reference that ``hecke.shape_words``' coset factors expand to."""
    rows = []
    entry = 1
    for p in lam:
        for row in p:
            rows.append(list(range(entry, entry + row)))
            entry += row
    perms = [tuple(range(1, n + 1))]
    for row in rows:
        new = []
        for base in perms:
            for sigma in itertools.permutations(row):
                w = list(base)
                for pos, val in zip(row, sigma):
                    w[pos - 1] = val
                new.append(tuple(w))
        perms = new
    return perms


def is_root_shift(factor: wcell.WordSum) -> bool:
    """A factor of the form X_k - u_i, told from a coset factor by its form
    alone: one X letter to the first power, then the empty word."""
    return (len(factor) == 2 and factor[0][0] == 1 and len(factor[0][1]) == 1
            and factor[0][1][0][0] == "X" and factor[0][1][0][2] == 1 and factor[1][1] == ())


def expanded_murphy_middle(ps: ParamSet, shape: Multipartition) -> tuple[wcell.WordSum, ...]:
    """M_lambda with its row-stabilizer sum expanded: the root-shift factors
    of ``hecke.murphy_middle``, then one word per element of the Young
    subgroup."""
    row_sum = tuple((Fraction(1), word_for_permutation(w))
                    for w in young_subgroup(shape, combinat.mp_size(shape)))
    return (*(f for f in hecke.murphy_middle(ps, shape) if is_root_shift(f)), row_sum)


def reference_words(n: int, arcs: int, shape: Multipartition, left: tuple,
                     right: tuple) -> tuple[Word, Word]:
    """The left word of a left triple and the right word of a right triple,
    each assembled from its parts."""
    (s, rho, e), (t, kappa, d) = left, right
    words = hecke.shape_words(shape).words
    chain = wcell.contraction_chain(n, arcs)
    pre = word_for_permutation(e)[::-1]
    pre += tuple(("X", n - 1 - 2 * j, a) for j, a in enumerate(rho) if a)
    post = tuple(("X", n - 1 - 2 * j, a) for j, a in enumerate(kappa) if a)
    return pre + chain + words[s][0], words[t][1] + post + word_for_permutation(d)


def unshared_rank_report(ps: ParamSet, n: int, middle=lambda m: m) -> dict:
    """The reference for ``wcell.cellular_rank_report``: the same
    certificate with nothing shared.  Each cell's words are assembled from
    their parts, its middle is ``expanded_murphy_middle`` passed through
    ``middle``, with every factor evaluated, each left word is multiplied
    out letter by letter before it meets the middle, and the right words
    are evaluated on a realization of the own model alone."""
    r = ps.r
    target = r ** n * combinat.double_factorial(2 * n - 1)
    real = seminormal.Realization(seminormal.build_all(ps, n))
    block_of = [b for b, d in enumerate(real.dims) for _ in range(d)]
    names, after, cells = {}, {}, []
    total = rank = 0
    for arcs in range(n // 2 + 1):
        for shape in combinat.multipartitions(r, n - 2 * arcs):
            triples = cell_triples(r, n, arcs, shape)
            cells.append({"arcs": arcs, "shape": shape,
                          "members": len(triples)})
            total += len(triples) ** 2
            names[shape] = name = f"cell (arcs={arcs}, shape={shape})"
            words = [reference_words(n, arcs, shape, a, a) for a in triples]
            m = functools.reduce(seminormal.mul, (real.evaluate_sum(f) for f in
                                                  middle(expanded_murphy_middle(ps, shape))),
                                 evaluate_word(real, ()))
            xs = [seminormal.mul(evaluate_word(real, left), m).rows for left, _ in words]
            own = real.shapes.index(shape)
            support = {real.shapes[block_of[i]] for x in xs for i, row in enumerate(x) if row}
            if shape not in support:
                raise ValueError(f"own block outside the support of {name}")
            after[shape] = support - {shape}
            start, end = real.ranges[own]
            us, w = wcell._own_factors([x[start:end] for x in xs], name)
            w = [{j - start: x for j, x in w.items()}]
            one = seminormal.Realization([real.reps[own]])
            vs = [_linalg.mat_mul(w, evaluate_word(one, right).rows)[0] for _, right in words]
            rank += _linalg.rank(us) * _linalg.rank(vs)
    try:
        graphlib.TopologicalSorter(after).prepare()
    except graphlib.CycleError as e:
        cycle = " -> ".join(names[shape] for shape in e.args[1])
        raise ValueError(f"the supports form a cycle: {cycle}") from None
    return {"count": total, "rank": rank, "target": target, "ok": rank == target,
            "cells": cells}


# the term-by-term sums that the accumulator of ``_linalg.mat_mul_add``
# replaced: each term a whole matrix, merged into the sum by ``_merge_row``
def _merge_row(row: dict, entries) -> dict:
    out = dict(row)
    for j, y in entries:
        x = out.get(j)
        if x is None:
            out[j] = y
        else:
            x += y
            if x:
                out[j] = x
            else:
                del out[j]
    return out


def mat_add(a, b):
    return [_merge_row(ra, rb.items()) for ra, rb in zip(a, b)]


def mat_scale(a, c):
    """c times a; a itself when c is 1, since values are only read."""
    if c == 1:
        return a
    if not c:
        return _linalg.zeros(len(a))
    return [{j: x * c for j, x in row.items()} for row in a]


def scaled(ev, c) -> seminormal.Evaluated:
    """c ev for an int or Fraction c: its numerator scales the rows, and
    its denominator joins den."""
    return seminormal.Evaluated(mat_scale(ev.rows, c.numerator), ev.den * c.denominator)


def evaluate_word(real: seminormal.Realization, word) -> seminormal.Evaluated:
    """The word on ``real`` as the one-term word sum, through the same
    accumulator as ``Realization.evaluate_sum`` but not through that
    method, so a wrapper on it counts only word sums."""
    return real._summed([(1, real.factors(word))])


def mul_fold(real: seminormal.Realization, word) -> seminormal.Evaluated:
    """The word as the product of its letters, each a stacked matrix, one
    ``seminormal.mul`` at a time from the identity."""
    one = seminormal.Evaluated(_linalg.identity(sum(real.dims)), 1)
    return functools.reduce(seminormal.mul, map(real._letter, word), one)


def term_by_term_sum(real: seminormal.Realization, terms) -> seminormal.Evaluated:
    """The reference for ``Realization.evaluate_sum``: each word evaluated
    on its own (``mul_fold``), scaled by its
    coefficient (``scaled``), brought to the lcm of the terms' dens and
    merged into the sum (``mat_add``)."""
    parts = [scaled(mul_fold(real, word), coeff) for coeff, word in terms]
    den = math.lcm(*(part.den for part in parts))
    out = _linalg.zeros(sum(real.dims))
    for rows, d in parts:
        out = mat_add(out, mat_scale(rows, den // d))
    return seminormal.Evaluated(out, den)


def residual(a, b) -> Fraction:
    """Exact max |a - b| over the whole matrix of two ``Evaluated``,
    compared as ints over the lcm of the two denominators."""
    den = math.lcm(a.den, b.den)
    return _residual(mat_scale(a.rows, den // a.den), mat_scale(b.rows, den // b.den), den)


# the two-sided relation check that ``Realization.sum_residuals`` replaced:
# each side a whole element, compared block by block
def mat_sub(a, b):
    return [_merge_row(ra, ((j, -y) for j, y in rb.items())) for ra, rb in zip(a, b)]


def max_abs(a):
    """The largest |entry|, of the entries' type; 0 for the zero matrix."""
    return max((abs(x) for row in a for x in row.values()), default=0)


def _residual(x, y, den: int) -> Fraction:
    """max |x - y| / den for int rows x, y.  Rows store no zero, so equal
    rows are found by ``==`` before any difference is formed."""
    return Fraction(0) if x == y else Fraction(max_abs(mat_sub(x, y)), den)


def block_residuals(real: seminormal.Realization, a, b) -> list[Fraction]:
    """Exact max |a - b| on each block of ``real``: both sides are brought
    over the lcm L of their denominators once, and each block's rows are
    compared as ints (``_residual``)."""
    den = math.lcm(a.den, b.den)
    x, y = mat_scale(a.rows, den // a.den), mat_scale(b.rows, den // b.den)
    return [_residual(x[start:end], y[start:end], den) for start, end in real.ranges]


def two_sided_residuals(real: seminormal.Realization) -> list[dict]:
    """The reference for ``seminormal.verify_relations``: each side of each
    relation evaluated on its own (``evaluate_sum``) and compared block by
    block (``block_residuals``)."""
    out = [dict.fromkeys(RELATION_FAMILIES, Fraction(0)) for _ in real.reps]
    omega = derived_omega(real.ps, real.ps.r + 2)
    for family, lhs, rhs in seminormal.relations(real.ps, real.n, omega):
        for res, value in zip(out, block_residuals(real, real.evaluate_sum(lhs),
                                                   real.evaluate_sum(rhs))):
            res[family] = max(res[family], value)
    return out


def job_residuals(real: seminormal.Realization) -> list[dict]:
    """``seminormal.verify_relations`` on ``real`` with Omega_0 ...
    Omega_{r+2}, as a ``verify`` job expands them."""
    return seminormal.verify_relations(real, derived_omega(real.ps, real.ps.r + 2))


# the scalar tower E_k X_k^a E_k = omega_k^(a) E_k, a reference only: the
# placement of E_k and ``w-partial-fractions`` decide it, so no job checks it
# (the proof is in ``seminormal.verify_relations``)
def tower_scalars(ps: ParamSet, n: int) -> dict:
    """omega_k^(a), 0 <= a <= r + 1, keyed by the shape mu before step k,
    for every mu with |mu| <= n - 2 (every position k < n): the expansion at
    infinity of the closed form of W at mu, on ints
    (``params.omega_k_values``)."""
    return {mu: params.omega_k_values(mu, ps, ps.r + 1)
            for size in range(n - 1)
            for mu in combinat.multipartitions(ps.r, size)}


def tower_residuals(real: seminormal.Realization, scalars: dict) -> list[Fraction]:
    """Exact max |E_k X_k^a E_k - omega_k^(a) E_k| on each block of ``real``
    over every k < n and 0 <= a <= r + 1, against the ``tower_scalars``
    ``scalars``, each identity one signed sum (``Realization.sum_residuals``).
    The scalar depends only on the shape mu before step k, so the right side
    is D E_k, D a ``Diagonal``: each omega_k^(a) is cleared to an int once
    per shape mu, over the lcm of their denominators, and D holds it on the
    rows where E_k is nonzero, the rows of the tableaux that return at k."""
    out = [Fraction(0)] * len(real.reps)
    tableaux = [t for rep in real.reps for t in rep.basis]
    for k in range(1, real.n):
        e = ("E", k)
        ek = real._letter(e)
        # each row's shape before step k by index; -1, the 0 after w, off E_k
        shapes = {}
        at = [shapes.setdefault(combinat.shape_before(t, k), len(shapes)) if row else -1
              for t, row in zip(tableaux, ek.rows)]
        for a in range(real.ps.r + 2):
            ws = [scalars[mu][a] for mu in shapes]
            q = params.clearing(ws)
            w = params.cleared(ws, q) + (0,)
            diag = seminormal.Diagonal([w[i] for i in at], q)
            for b, value in real.sum_residuals(
                    ((1, real.factors((e, ("X", k, a), e))), (-1, [diag, ek]))).items():
                out[b] = max(out[b], value)
    return out


def fraction_generators(rep: seminormal.SeminormalRep) -> dict:
    """{"S": [...], "E": [...], "X": [...]}: a model's generators as
    ``_linalg`` rows of Fractions, each cleared alone (``evaluated``)."""
    return {kind: [as_fractions(ev) for ev in getattr(evaluated(rep), kind)] for kind in "SEX"}


def gammas(rep: seminormal.SeminormalRep) -> tuple[Fraction, ...]:
    """gamma_t of each basis tableau t of a model (``params.gamma``)."""
    return tuple(params.gamma(rep.ps, t) for t in rep.basis)


def adjointness_reference(rep: seminormal.SeminormalRep, g=None) -> Fraction:
    """Max |gamma_i M_ij - M_ji gamma_j| over every generator M of a model,
    entry by entry in Fractions, with 1 for a gamma_i = 0 and nothing for a
    negative one: 0 exactly when each generator is self-adjoint for the
    nondegenerate form diag(gamma), which ``seminormal.check_identities``
    certifies window by window (``star-symmetry``).  gamma is ``gammas``
    of the model unless ``g`` gives it; a module with no tableau basis
    takes the identity form."""
    if g is None:
        g = gammas(rep) if rep.shape is not None else (Fraction(1),) * rep.dim
    worst = Fraction(1) if 0 in g else Fraction(0)
    for mats in fraction_generators(rep).values():
        for M in mats:
            for i, row in enumerate(M):
                for j, x in row.items():
                    worst = max(worst, abs(g[i] * x - M[j].get(i, 0) * g[j]))
    return worst


class FractionRealization:
    """The reference for ``seminormal.Realization``: the same words, word
    sums and products evaluated on the models' generators as Fraction rows,
    with one Fraction block per model and no common denominator."""

    def __init__(self, reps):
        self.reps = reps
        self.n = reps[0].n
        self.dims = [rep.dim for rep in reps]
        self.gens = [fraction_generators(rep) for rep in reps]

    def letter(self, letter) -> list[list[dict]]:
        kind, i = letter[0], letter[1]
        if kind in ("S", "E") and 1 <= i <= self.n - 1:
            return [gens[kind][i - 1] for gens in self.gens]
        if kind == "X" and 1 <= i <= self.n and letter[2] >= 0:
            out = [_linalg.identity(d) for d in self.dims]
            for _ in range(letter[2]):
                out = [_linalg.mat_mul(b, gens["X"][i - 1]) for b, gens in zip(out, self.gens)]
            return out
        raise ValueError(f"letter {letter!r} out of range at n={self.n}")

    def evaluate(self, word) -> list[list[dict]]:
        out = [_linalg.identity(d) for d in self.dims]
        for letter in word:
            out = [_linalg.mat_mul(a, b) for a, b in zip(out, self.letter(letter))]
        return out

    def evaluate_sum(self, terms) -> list[list[dict]]:
        out = [_linalg.zeros(d) for d in self.dims]
        for coeff, word in terms:
            out = [mat_add(acc, mat_scale(blk, Fraction(coeff)))
                   for acc, blk in zip(out, self.evaluate(word))]
        return out

    def evaluate_product(self, factors) -> list[list[dict]]:
        out = [_linalg.identity(d) for d in self.dims]
        for terms in factors:
            out = [_linalg.mat_mul(a, b) for a, b in zip(out, self.evaluate_sum(terms))]
        return out

    def vec(self, blocks) -> dict:
        out, start = {}, 0
        for blk, d in zip(blocks, self.dims):
            out.update((start + i * d + j, x)
                       for i, row in enumerate(blk) for j, x in row.items())
            start += d * d
        return out


def fraction_eliminate(rows, augmented=None):
    """The reference for ``_linalg._eliminate``: the same pivots over Q, on
    Fraction rows.

    Each pivot row is scaled to 1 at its column, and that column is cleared
    from the rows not yet pivoted, which is all ``rank`` and ``det`` need.
    With ``augmented`` = n, the columns from n on hold an appended identity:
    only the columns below n are pivoted, and each is cleared from every
    other row (Gauss-Jordan), so each pivot row ends up holding no other
    pivot column and, from n on, its row of the inverse.  Returns the pivots
    as (column, row, value before scaling), in column order.
    """
    holders: dict = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    jordan = augmented is not None
    # a row gains entries only at columns of a pivot row, which are already
    # held, so the pivot columns are known up front
    columns = sorted(c for c in holders if not jordan or c < augmented)
    used = set()
    pivots = []
    for c in columns:
        if len(used) == len(rows):
            break
        cands = [i for i in holders[c] if i not in used]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        value = prow[c]
        if value != 1:
            # exact for int and Fraction values alike
            inv = Fraction(value.denominator, value.numerator)
            for j in prow:
                prow[j] *= inv
        used.add(p)
        for i in list(holders[c]) if jordan else cands:
            if i == p:
                continue
            row = rows[i]
            f = row[c]
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                    holders[j].add(i)
                else:
                    x -= f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(i)
        pivots.append((c, p, value))
    return pivots


def fraction_inverse(a) -> list[dict]:
    """The inverse of an invertible square matrix through
    ``fraction_eliminate``, as Fraction rows."""
    n = len(a)
    rows = [{**row, n + i: Fraction(1)} for i, row in enumerate(a)]
    pivots = fraction_eliminate(rows, n)
    assert len(pivots) == n, "matrix is singular"
    out = _linalg.zeros(n)
    for c, p, _ in pivots:
        out[c] = {j - n: x for j, x in rows[p].items() if j >= n}
    return out


def eliminated_inverse(a) -> list[dict]:
    """The reference for ``_linalg.inverse`` on its own elimination: the
    inverse as Fraction rows, one ``Fraction`` per entry, each entry of the
    pivot row of column c over its final pivot, as ``_linalg.inverse``
    returned it before it returned int rows over one denominator."""
    _linalg._require_square(a, "inverse")
    n = len(a)
    rows = [{**row, n + i: 1} for i, row in enumerate(a)]
    pivots, _, _ = _linalg._eliminate(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    out = _linalg.zeros(n)
    for c, p in pivots:
        row = rows[p]
        w = row[c]
        out[c] = {j - n: Fraction(x, w) for j, x in row.items() if j >= n}
    return out


def over(D: int, rows) -> list[dict]:
    """Int rows over one denominator D, as Fraction rows."""
    return [{j: Fraction(x, D) for j, x in row.items()} for row in rows]


# the reference for the relation table: each relation as matrix products
def _relation_residuals(S, E, X, ps: ParamSet, d: int) -> dict:
    """Exact max-abs residual of every defining relation family for d x d
    matrices S_1..S_{n-1}, E_1..E_{n-1}, X_1..X_n, given as ``_linalg``
    sparse rows, and of the commutations of distant letters, which the
    relation table leaves out, as "commutation": S_i S_j, S_i E_j and
    E_i E_j for |i - j| > 1, S_i X_j and E_i X_j for j not in {i, i + 1},
    and X_a X_b.  Unwrapping is checked for X_1^a, 0 <= a <= r + 2, Omega
    derived from the roots."""
    n = len(X)
    assert len(S) == len(E) == max(n - 1, 0)
    mul, add, sub, scale = _linalg.mat_mul, mat_add, mat_sub, mat_scale
    I = _linalg.identity(d)
    res: dict = {name: Fraction(0) for name in (*RELATION_FAMILIES, "commutation")}
    omega = derived_omega(ps, ps.r + 2)

    def upd(name, M):
        res[name] = max(res[name], max_abs(M))

    res["commutation"] = distant_commutation_residual(S, E, X)
    for i in range(1, n):
        Si, Ei = S[i - 1], E[i - 1]
        upd("involution", sub(mul(Si, Si), I))
        upd("contraction-scalar", sub(mul(Ei, Ei), scale(Ei, omega[0])))
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
    if n >= 2:
        E1, X1 = E[0], X[0]
        P = I
        for omega_a in omega:
            upd("unwrapping", sub(mul(mul(E1, P), E1), scale(E1, omega_a)))
            P = mul(P, X1)
    if ps.u and n >= 1:
        P = I
        for ui in ps.u:
            P = mul(P, sub(X[0], scale(I, ui)))
        upd("cyclotomic", P)
    return res


def distant_commutation_residual(S, E, X) -> Fraction:
    """Exact max-abs residual of the commutations of distant letters for the
    matrices S_1..S_{n-1}, E_1..E_{n-1}, X_1..X_n of ``_relation_residuals``:
    A B - B A for S_i S_j, S_i E_j and E_i E_j with |i - j| > 1, and S_i X_j
    and E_i X_j with j not in {i, i + 1}, and X_a X_b.  Each matrix is
    cleared to int rows over the lcm D of its denominators first, so that
    A B - B A is (A' B' - B' A') / (D_A D_B), formed on ints."""
    n = len(X)

    def cleared(M):
        den = math.lcm(*(Fraction(x).denominator for row in M for x in row.values()))
        return [{j: int(x * den) for j, x in row.items()} for row in M], den

    S, E, X = ([cleared(M) for M in mats] for mats in (S, E, X))
    pairs = [(S[i], S[j]) for i in range(n - 1) for j in range(i + 2, n - 1)]
    pairs += [(A[i], B[j]) for A, B in ((S, E), (E, E)) for i in range(n - 1)
              for j in range(n - 1) if abs(i - j) > 1 and (A is not B or i < j)]
    pairs += [(A[i], X[j]) for A in (S, E) for i in range(n - 1) for j in range(n)
              if j not in (i, i + 1)]
    pairs += [(X[a], X[b]) for a in range(n) for b in range(a)]
    out = Fraction(0)
    for (a, da), (b, db) in pairs:
        out = max(out, Fraction(max_abs(mat_sub(_linalg.mat_mul(a, b), _linalg.mat_mul(b, a))),
                                da * db))
    return out


def distant_commutations(n: int):
    """The commutations of distant letters at n strands as (family, lhs,
    rhs), each side a word sum, as ``seminormal.relations`` yielded them
    before its table left them out: S_i S_j and E_i E_j once, for i < j,
    S_i E_j in both orders, S_i X_j ("braid") and E_i X_j for j not in
    {i, i + 1}, and X_a X_b."""
    def w(*words):
        return tuple((Fraction(1), word) for word in words)

    for i in range(1, n):
        s, e = ("S", i), ("E", i)
        for j in (j for j in range(1, n) if abs(i - j) > 1):
            sj, ej = ("S", j), ("E", j)
            yield "commutation", w((s, ej)), w((ej, s))
            if i < j:
                yield "commutation", w((s, sj)), w((sj, s))
                yield "commutation", w((e, ej)), w((ej, e))
        for xj in (("X", j, 1) for j in range(1, n + 1) if j not in (i, i + 1)):
            yield "braid", w((s, xj)), w((xj, s))
            yield "commutation", w((e, xj)), w((xj, e))
    for xa, xb in ((("X", a, 1), ("X", b, 1)) for a in range(2, n + 1) for b in range(1, a)):
        yield "commutation", w((xa, xb)), w((xb, xa))


def _fixture(S, E, X1, X2, ps: ParamSet) -> ModuleFixture:
    """A two-strand module from its matrices written out densely."""
    return ModuleFixture([from_dense(S)], [from_dense(E)],
                         [from_dense(X1), from_dense(X2)], ps)


def module_rank_one(u1=Fraction(2), sign: int = 1) -> ModuleFixture:
    """One-dimensional module at r = 1: the contraction acts by zero, the
    swap by +-1, and the second eigenvalue sits one step away."""
    assert sign in (1, -1)
    u1 = Fraction(u1)
    ps = ParamSet.from_u((u1,))
    return _fixture([[sign]], [[0]], [[u1]], [[u1 + sign]], ps)


def module_contraction_free() -> ModuleFixture:
    """Two-dimensional module at r = 2, u = (3, 1), with E = 0: the skein
    relation alone forces the off-diagonal swap."""
    ps = ParamSet.from_u((3, 1))
    F = Fraction
    S = [[F(-1, 2), F(3, 2)], [F(1, 2), F(1, 2)]]
    E = [[F(0), F(0)], [F(0), F(0)]]
    X1 = [[F(3), F(0)], [F(0), F(1)]]
    X2 = [[F(1), F(0)], [F(0), F(3)]]
    return _fixture(S, E, X1, X2, ps)


def module_nonsplit() -> ModuleFixture:
    """Two-dimensional module at r = 2 with equal roots u = (1/4, 1/4):
    X_1 - 1/4 is nonzero nilpotent, so X_1 is not semisimple, yet every
    relation holds exactly for the sequence those roots derive
    (``nilpotent_example_omega``)."""
    q = Fraction(1, 4)
    ps = ParamSet.from_u((q, q))
    F = Fraction
    S = [[F(1), F(0)], [F(0), F(-1)]]
    E = [[F(1), F(0)], [F(0), F(0)]]
    X1 = [[F(0), q], [-q, F(1, 2)]]
    X2 = [[F(0), -q], [q, F(-1, 2)]]
    return _fixture(S, E, X1, X2, ps)


def module_residue_family(v) -> ModuleFixture:
    """The d-dimensional two-strand module with X_1 = diag(v), X_2 = -X_1,
    contraction columns proportional to the residue coefficients, and the
    swap determined by the skein relation; the roots v derive its Omega,
    ``omega_residue_form``."""
    v = [Fraction(x) for x in v]
    d = len(v)
    g = ene0_gammas(v)
    ps = ParamSet.from_u(v)
    E = [[g[j] for j in range(d)] for _ in range(d)]
    S = [[(g[j] - 1) / (2 * v[j]) if i == j else g[j] / (v[i] + v[j])
          for j in range(d)] for i in range(d)]
    X1 = [[v[i] if i == j else 0 for j in range(d)] for i in range(d)]
    X2 = [[-v[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return _fixture(S, E, X1, X2, ps)


def module_fixtures() -> list[ModuleFixture]:
    """Every fixture above, the rank-one module at two roots and signs."""
    return [module_rank_one(sign=1), module_rank_one(Fraction(5, 3), sign=-1),
            module_contraction_free(), module_nonsplit(),
            module_residue_family((Fraction(3), Fraction(-7), Fraction(11)))]


def branching_blocks(rep: seminormal.SeminormalRep) -> dict:
    """Group the basis by the next-to-last shape and check that the smaller
    algebra's generators act block-diagonally with the predicted block sizes."""
    n = rep.n
    groups: dict = {}
    for i, t in enumerate(rep.basis):
        mu = t[n - 2] if n >= 2 else combinat.empty_mp(rep.ps.r)
        groups.setdefault(mu, []).append(i)

    expected = {mu for mu in combinat.steps_from(rep.shape) if combinat.mp_size(mu) <= n - 1}

    sizes_ok = (set(groups) == expected and
                all(len(ix) == combinat.count_updown(n - 1, mu)
                    for mu, ix in groups.items()))

    block_of = {}
    for mu, ix in groups.items():
        for i in ix:
            block_of[i] = mu
    off = Fraction(0)
    gens = fraction_generators(rep)
    for M in (*gens["S"][:n - 2], *gens["E"][:n - 2], *gens["X"][:n - 1]):
        for i, row in enumerate(M):
            for j, x in row.items():
                if block_of[i] != block_of[j]:
                    off = max(off, abs(x))
    return {
        "sizes": {mu: len(ix) for mu, ix in groups.items()},
        "sizes_ok": sizes_ok,
        "max_offblock": off,
    }


def multiply(H: hecke.HeckeAlgebra, x: hecke.Element, y: hecke.Element) -> hecke.Element:
    """x times y: each key of y acts on x as its word."""
    return H.act_sum(x, [(c, key_word(key)) for key, c in by_monomial(H, y).items()])


def by_monomial(H: hecke.HeckeAlgebra, el: hecke.Element) -> dict:
    """An element of H as Fractions keyed by the monomial (alpha, w) of
    each index, as ``FractionHecke`` keys its elements."""
    return {H.keys[i]: Fraction(c, el.den) for i, c in el.terms.items()}


def from_monomials(H: hecke.HeckeAlgebra, fracs: dict) -> hecke.Element:
    """The canonical int element of H of Fraction coefficients keyed by
    monomial: ``by_monomial``'s inverse."""
    den = math.lcm(*(c.denominator for c in fracs.values()))
    return hecke._canonical({H.key_index[key]: c.numerator * (den // c.denominator)
                             for key, c in fracs.items()}, den)


def coordinates(mb: hecke.MurphyBasis, el: hecke.Element) -> dict:
    """The nonzero coordinates of el in the basis, as Fractions by triple
    index: ``MurphyBasis.coords`` over its denominator."""
    x, den = mb.coords(el)
    return {j: Fraction(v, den) for j, v in x.items()}


def cell_triples(r: int, n: int, arcs: int, shape: Multipartition) -> tuple[tuple, ...]:
    """(tableau, powers, placement) triples indexing one cell, the tableaux
    those of ``hecke.shape_words``: the keys of the cell's held
    ``wcell.cell_words``, in their order."""
    return tuple(wcell.cell_words(r, n, arcs, shape))


def _merge(out: dict, key, c: Fraction):
    """out[key] += c, storing no zero."""
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class FractionHecke:
    """The reference for ``hecke.HeckeAlgebra``: the same rewriting on
    elements that are dicts mapping (alpha, w) to a nonzero Fraction, with
    the cyclotomic coefficients as Fractions and no common denominator."""

    def __init__(self, ps: ParamSet, n: int):
        self.n, self.r = n, ps.r
        self.cyc = cyclotomic_coeffs(ps.u)[:-1]
        self.id = tuple(range(1, n + 1))

    def one(self) -> dict:
        return {((0,) * self.n, self.id): Fraction(1)}

    def _s(self, i: int) -> tuple[int, ...]:
        w = list(self.id)
        w[i - 1], w[i] = w[i], w[i - 1]
        return tuple(w)

    def rmul_T(self, el: dict, i: int) -> dict:
        out: dict = {}
        for (alpha, w), c in el.items():
            _merge(out, (alpha, perm_mult(w, self._s(i))), c)
        return out

    def rmul_Y(self, el: dict, j: int) -> dict:
        out: dict = {}
        for (alpha, w), c in el.items():
            word = perm_word(w)
            jj = j
            for p in range(len(word) - 1, -1, -1):
                i = word[p]
                if jj in (i, i + 1):
                    rest = word[:p] + word[p + 1:]
                    _merge(out, (alpha, perm_of_word(rest, self.n)), -c if jj == i else c)
                    jj = i + 1 if jj == i else i
            na = list(alpha)
            na[jj - 1] += 1
            _merge(out, (tuple(na), w), c)
        return self._reduce(out)

    def lmul_T(self, el: dict, i: int) -> dict:
        s = self._s(i)
        out: dict = {}
        for (alpha, w), c in el.items():
            swapped = list(alpha)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            _merge(out, (tuple(swapped), perm_mult(s, w)), c)
            a, b = alpha[i - 1], alpha[i]
            sign = 1 if a < b else -1
            for q in range(min(a, b), max(a, b)):
                na = list(alpha)
                na[i - 1], na[i] = q, a + b - 1 - q
                _merge(out, (tuple(na), w), sign * c)
        return out

    def _reduce(self, el: dict) -> dict:
        out: dict = {}
        work = list(el.items())
        while work:
            (alpha, w), c = work.pop()
            m = next((p for p in range(self.n, 0, -1) if alpha[p - 1] >= self.r), None)
            if m is None:
                _merge(out, (alpha, w), c)
                continue
            p = alpha[m - 1]
            if m == 1:
                for j, cj in enumerate(self.cyc):
                    if cj:
                        work.append((((p - self.r + j,) + alpha[1:], w), -c * cj))
                continue
            ahat = list(alpha)
            ahat[m - 1] = 0
            uperm = perm_mult(self._s(m - 1), w)
            for l in range(p):
                na = list(ahat)
                na[m - 1] += l
                na[m - 2] += p - 1 - l
                work.append(((tuple(na), uperm), c))
            inner_alpha = [0] * self.n
            inner_alpha[m - 2] = p
            inner = self.lmul_T(self._reduce({(tuple(inner_alpha), uperm): c}), m - 1)
            for (ia, iw), ic in inner.items():
                work.append(((tuple(x + y for x, y in zip(ahat, ia)), iw), ic))
        return out

    def act(self, el: dict, word: Word) -> dict:
        for letter in word:
            if letter[0] == "S":
                el = self.rmul_T(el, letter[1])
            else:
                for _ in range(letter[2]):
                    el = self.rmul_Y(el, letter[1])
        return el

    def act_sum(self, el: dict, terms) -> dict:
        out: dict = {}
        for coeff, word in terms:
            for k, c in self.act(el, word).items():
                _merge(out, k, coeff * c)
        return out

    def act_factors(self, el: dict, left: Word, middle, right: Word) -> dict:
        return self.act(functools.reduce(self.act_sum, middle, self.act(el, left)), right)


class TupleHecke:
    """The reference for ``hecke.HeckeAlgebra`` on tuple keys: elements are
    ``hecke.Element`` with terms keyed by the monomial (alpha, w) itself,
    as the algebra held them before it keyed them by monomial index.  Exact
    arithmetic in the quotient where (Y_1 - u_1)...(Y_1 - u_r) = 0.

    The coefficients of that relation below Y_1^r are cleared once to ints
    ``cyc`` over their lcm ``Q``, which can exceed the roots' own
    denominator.  ``act``, ``act_sum``, ``act_factors``, ``_rmul_perm`` and
    ``rmul_Y`` take and return an ``Element``, and ``lmul_T`` and ``_reduce``
    rewrite the int terms inside ``_straighten``, which forms the image of
    one key times Y_j for the held table that ``rmul_Y`` reads: no method
    writes into its input's terms or into a held image, and every value it
    forms is an int."""

    def __init__(self, ps: ParamSet, n: int):
        if not ps.u:
            raise ValueError("the quotient needs the roots u")
        self.ps = ps
        self.n = n
        self.r = ps.r
        # prod (Y - u_i) = Y^r + (cyc[r-1] Y^{r-1} + ... + cyc[0]) / Q
        cyc = cyclotomic_coeffs(ps.u)[:-1]
        self.Q = params.clearing(cyc)
        self.cyc = params.cleared(cyc, self.Q)
        self.id = tuple(range(1, n + 1))
        # (key, j) -> the key times Y_j in normal form, filled on first use
        self._y_images: dict = {}

    def one(self) -> hecke.Element:
        return hecke.Element({((0,) * self.n, self.id): 1}, 1)

    # -- ring operations ---------------------------------------------------

    def _rmul_perm(self, el: hecke.Element, p: tuple[int, ...]) -> hecke.Element:
        """el times T_p for a permutation p: w -> w p relabels each value v
        of w as p(v), a bijection of the keys, so no two terms meet.  At
        the algebra's own ``id`` it returns el."""
        if p is self.id:
            return el
        return hecke.Element(dict(self._relabelled(el.terms, p)), el.den)

    def _relabelled(self, terms: dict, p: tuple[int, ...]):
        """The (key, c) pairs of int terms times T_p: each key (alpha, w)
        becomes (alpha, w p), each value v of w relabelled as p(v)."""
        if p is self.id:
            return terms.items()
        return (((alpha, tuple([p[v - 1] for v in w])), c)
                for (alpha, w), c in terms.items())

    def rmul_Y(self, el: hecke.Element, j: int) -> hecke.Element:
        """Multiply by Y_j on the right: each key's image (``_y_image``) is
        scaled by its coefficient and brought to the largest power of Q
        met, and the sum is put in canonical form."""
        images = [(c, *self._y_image(key, j)) for key, c in el.terms.items()]
        top = max((e for _, _, e in images), default=0)
        out: dict = {}
        for c, image, e in images:
            f = c * self.Q ** (top - e)
            for key, x in image.items():
                hecke._merge(out, key, f * x)
        return hecke._canonical(out, el.den * self.Q ** top)

    def _y_image(self, key: hecke.Key, j: int) -> tuple[dict, int]:
        """(terms, e): the key times Y_j in normal form, int terms over Q^e,
        held for every later call with the same key and j."""
        image = self._y_images.get((key, j))
        if image is None:
            image = self._y_images[key, j] = self._straighten(key, j)
        return image

    def _straighten(self, key: hecke.Key, j: int) -> tuple[dict, int]:
        """Y^alpha T_w Y_j, with Y_j pushed left through T_w and reduced."""
        alpha, w = key
        word = perm_word(w)
        out: dict = {}
        # scan the reduced word right to left; each straightening step
        # drops the letter and the Y factor at once
        for p in range(len(word) - 1, -1, -1):
            i = word[p]
            if j == i:
                hecke._merge(out, (alpha, self._perm_of(word[:p] + word[p + 1:])), -1)
                j = i + 1
            elif j == i + 1:
                hecke._merge(out, (alpha, self._perm_of(word[:p] + word[p + 1:])), 1)
                j = i
        na = list(alpha)
        na[j - 1] += 1
        hecke._merge(out, (tuple(na), w), 1)
        return self._reduce(out)

    def _perm_of(self, word) -> tuple[int, ...]:
        """The permutation of the word: w s_i for each letter i, as in ``act``."""
        return functools.reduce(hecke._swap_values, word, self.id)

    def lmul_T(self, terms: dict, i: int) -> dict:
        """Multiply int terms by T_i on the left, over their denominator, via
        the divided-difference rule:
        T_i Y^b T_v = Y^{s_i b} T_{s_i v} - (difference quotient) T_v."""
        out: dict = {}
        for (alpha, w), c in terms.items():
            hecke._merge(out, (hecke._swap_positions(alpha, i), hecke._swap_positions(w, i)), c)
            a, b = alpha[i - 1], alpha[i]
            sign = 1 if a < b else -1  # no correction term when a == b
            for q in range(min(a, b), max(a, b)):
                na = list(alpha)
                na[i - 1], na[i] = q, a + b - 1 - q
                hecke._merge(out, (tuple(na), w), sign * c)
        return out

    def _reduce(self, terms: dict) -> tuple[dict, int]:
        """Rewrite int terms until every exponent is below r, largest
        position first.  Each substitution Y_1^p -> -sum_j (cyc[j] / Q)
        Y_1^{p-r+j} adds one power of Q to its term's denominator; the
        result is (out, e): int terms over Q^e, every term brought to the
        largest power e met."""
        by_power: dict[int, dict] = {}
        work = [(alpha, w, c, 0) for (alpha, w), c in terms.items()]
        while work:
            alpha, w, c, e = work.pop()
            m = next((p for p in range(self.n, 0, -1)
                      if alpha[p - 1] >= self.r), None)
            if m is None:
                hecke._merge(by_power.setdefault(e, {}), (alpha, w), c)
                continue
            p = alpha[m - 1]
            if m == 1:
                for j, cj in enumerate(self.cyc):
                    if cj:
                        work.append(((p - self.r + j,) + alpha[1:], w, -c * cj, e + 1))
                continue
            ahat = list(alpha)
            ahat[m - 1] = 0
            uperm = hecke._swap_positions(w, m - 1)
            for l in range(p):
                na = list(ahat)
                na[m - 1] += l
                na[m - 2] += p - 1 - l
                work.append((tuple(na), uperm, c, e))
            inner_alpha = [0] * self.n
            inner_alpha[m - 2] = p
            inner, ie = self._reduce({(tuple(inner_alpha), uperm): c})
            for (ia, iw), ic in self.lmul_T(inner, m - 1).items():
                na = tuple(x + y for x, y in zip(ahat, ia))
                work.append((na, iw, ic, e + ie))
        top = max(by_power, default=0)
        if len(by_power) <= 1:
            return by_power.get(top, {}), top
        out: dict = {}
        for e, part in by_power.items():
            f = self.Q ** (top - e)
            for key, c in part.items():
                hecke._merge(out, key, c * f)
        return out, top

    def act(self, el: hecke.Element, word: Word) -> hecke.Element:
        """el times the word on the right: ("S", i) is T_i and ("X", j, a)
        is Y_j^a.  E letters have no image here.  A maximal run of S
        letters is one permutation p (``_s_run``), and T_p maps each key
        (alpha, w) to (alpha, w p), relabelling the values of w, so the run
        takes one pass over the terms; no two terms meet."""
        k = 0
        while True:
            p, k = self._s_run(word, k)
            el = self._rmul_perm(el, p)
            if k == len(word):
                return el
            letter = word[k]
            if letter[0] != "X" or not 1 <= letter[1] <= self.n or letter[2] < 0:
                raise ValueError(f"letter {letter!r} out of range at n={self.n}")
            for _ in range(letter[2]):
                el = self.rmul_Y(el, letter[1])
            k += 1

    def _s_run(self, word: Word, k: int) -> tuple[tuple[int, ...], int]:
        """(p, end): the permutation p of the maximal run of S letters in
        range that starts at word[k], w s_i for each letter i as in
        ``_perm_of``, and the index just past the run."""
        p = self.id
        while k < len(word) and word[k][0] == "S" and 1 <= word[k][1] <= self.n - 1:
            p = hecke._swap_values(p, word[k][1])
            k += 1
        return p, k

    def act_sum(self, el: hecke.Element, terms: wcell.WordSum) -> hecke.Element:
        """el times the word sum ``terms``: each word's element is scaled by
        its coefficient's numerator, over its den times the coefficient's
        denominator, and the terms are added over the lcm of those.  A word
        that is one run of S letters (every word of a coset factor) is a
        permutation p: its term is el's keys relabelled by p
        (``_relabelled``), merged straight into the sum; any other word's
        element is formed by ``act`` first."""
        parts = []
        for coeff, word in terms:
            p, end = self._s_run(word, 0)
            part = el
            if end < len(word):
                part, p = self.act(el, word), self.id
            parts.append((coeff.numerator, part.den * coeff.denominator, part.terms, p))
        den = math.lcm(*(d for _, d, _, _ in parts))
        out: dict = {}
        for num, d, part, p in parts:
            f = num * (den // d)
            for key, c in self._relabelled(part, p):
                hecke._merge(out, key, f * c)
        return hecke._canonical(out, den)

    def act_factors(self, el: hecke.Element, left: Word, middle, right: Word) -> hecke.Element:
        """el times the product of a left word, the word sums ``middle`` and
        a right word, applied in that order."""
        return self.act(functools.reduce(self.act_sum, middle, self.act(el, left)), right)




class TupleMurphyBasis:
    """The reference for ``hecke.MurphyBasis`` on ``TupleHecke``: all basis elements indexed by (shape, s, t), with exact coordinates.

    The key list enumerates every normal-form monomial, so the coordinate
    matrix is square of size r^n n!; the change of basis being invertible
    is exactly the spanning/independence statement.  Each element applies
    the coset word of t to T_{d(s)}* · M_lambda, which is made once per s;
    the tableaux and their words are the shape's held ``shape_words``.
    """

    def __init__(self, H: TupleHecke):
        self.H = H
        n, r = H.n, H.r
        self.keys = [(alpha, w)
                     for alpha in itertools.product(range(r), repeat=n)
                     for w in itertools.permutations(range(1, n + 1))]
        self.key_index = {k: i for i, k in enumerate(self.keys)}
        self.triples = []
        self.elements = []
        for lam in combinat.multipartitions(r, n):
            shape = hecke.shape_words(lam)
            middle = hecke.murphy_middle(H.ps, lam)
            for s in shape.tableaux:
                left = H.act_factors(H.one(), shape.words[s][0], middle, ())
                for t in shape.tableaux:
                    self.triples.append((lam, s, t))
                    self.elements.append(H.act(left, shape.words[t][1]))
        self.triple_index = {tr: i for i, tr in enumerate(self.triples)}
        # row i holds the int terms of element i, by key index: the element
        # times its den
        self.matrix = [{self.key_index[key]: c for key, c in el.terms.items()}
                       for el in self.elements]

    @functools.cached_property
    def _inv(self) -> tuple[int, list[dict]]:
        """(D, rows): the inverse of ``matrix`` as int rows over one positive
        denominator D, as ``_linalg.inverse`` returns it, on the first
        ``coords`` call."""
        return _linalg.inverse(self.matrix)

    def coords(self, el: hecke.Element) -> dict:
        """The nonzero coordinates of el by triple index: the x with
        sum_j x_j elements[j] = el.  Row j of ``matrix`` is element j times
        its den d_j, so the int row product v of el's terms with the inverse
        rows of their keys gives x_j = Fraction(v_j d_j, D·el.den)."""
        den, inv = self._inv
        acc: dict = {}
        for key, c in el.terms.items():
            for j, y in inv[self.key_index[key]].items():
                x = acc.get(j)
                acc[j] = c * y if x is None else x + c * y
        den *= el.den
        return {j: Fraction(x * self.elements[j].den, den) for j, x in acc.items() if x}




def tuple_gram_matrix(mb: TupleMurphyBasis, lam) -> list[dict]:
    """The reference for ``hecke.gram_matrix``: every one of the d^2 products
    evaluated and read through ``coords``.  The cell form on the standard tableaux of lam, as sparse rows: entry
    <m_s, m_t> is the coordinate at m_{t^lam t^lam} of m_{t^lam s} times the
    factors of m_{t t^lam}, in the algebra ``mb.H``, with every coordinate
    of the product checked.  M_lam is formed once per matrix; the tableaux,
    their words and the shapes that dominate lam are held per shape
    (``shape_words``, ``_order``).  The basis elements are only read, so a
    held basis stays as built."""
    H = mb.H
    tl = combinat.t_lambda(lam)
    shape, above = hecke.shape_words(lam), hecke._order(lam).above
    # murphy_factors(ps, lam, t, tl) for each t, with M_lam formed once
    middle, right = hecke.murphy_middle(H.ps, lam), shape.words[tl][1]
    factors = [(shape.words[t][0], middle, right) for t in shape.tableaux]
    rows = []
    for s in shape.tableaux:
        left = mb.elements[mb.triple_index[lam, tl, s]]
        row = {}
        for j, fs in enumerate(factors):
            for idx, c in mb.coords(H.act_factors(left, *fs)).items():
                mu, a, b = mb.triples[idx]
                if mu == lam:
                    if (a, b) != (tl, tl):
                        raise AssertionError(
                            f"product not proportional to the corner element: "
                            f"coordinate at ({a}, {b})")
                    row[j] = c
                elif mu not in above:
                    raise AssertionError(f"product escapes upward to {mu}")
        rows.append(row)
    return rows


def gamma_top(lam: Multipartition, ps: ParamSet) -> Fraction:
    """gamma at the maximal standard tableau t^lambda: row factorials times
    the cross-component content shifts (j - i) + u_s - u_t, formed from the
    roots."""
    out = Fraction(1)
    for p in lam:
        for row in p:
            out *= math.factorial(row)
    for s_idx in range(len(lam)):
        for t_idx in range(s_idx + 1, len(lam)):
            for i, row in enumerate(lam[s_idx], start=1):
                for j in range(1, row + 1):
                    out *= (j - i) + ps.u[s_idx] - ps.u[t_idx]
    return out


def gamma_by_descents(lam: Multipartition, ps: ParamSet) -> dict:
    """gamma for every standard tableau, propagated down dominance from
    ``gamma_top`` at t^lambda by the held descent ratios, breadth first:
    the reference that ``hecke.gamma_coeffs``'s closed products are checked
    against.  A tableau the descents do not reach raises AssertionError."""
    tl = combinat.t_lambda(lam)
    gamma = {tl: gamma_top(lam, ps)}
    pending = collections.deque([tl])
    while pending:
        s = pending.popleft()
        for t, ratio in hecke._descents(lam, s, ps):
            if t not in gamma:
                gamma[t] = ratio * gamma[s]
                pending.append(t)
    total = len(hecke.shape_words(lam).tableaux)
    if len(gamma) != total:
        raise AssertionError(f"gamma reaches {len(gamma)} of the {total} "
                             f"standard tableaux of {lam}")
    return gamma


def addable_removable(lam: Multipartition, u) -> list[tuple[Node, Fraction, str]]:
    """All addable then all removable nodes of lam with their exact
    contents: the reference for the contents of ``params.steps_out``."""
    out = [(a, combinat.node_content(a, u), "addable") for a in combinat.addable_nodes(lam)]
    out += [(b, combinat.node_content(b, u, removed=True), "removable")
            for b in combinat.removable_nodes(lam)]
    return out


def boxes_apart(a: Multipartition, b: Multipartition) -> int:
    """The number of boxes in which two multipartitions differ."""
    return sum(abs(x - y) for p, q in zip(a, b)
               for x, y in itertools.zip_longest(p, q, fillvalue=0))


def box_diff(small: Multipartition, large: Multipartition) -> Node:
    """The node where two multipartitions differing by one box disagree."""
    for s, (p, q) in enumerate(zip(small, large), start=1):
        for i, (a, b) in enumerate(itertools.zip_longest(p, q, fillvalue=0), start=1):
            if a != b:
                assert abs(a - b) == 1
                return (i, max(a, b), s)
    raise ValueError("multipartitions are equal")


def k_neighbors(t: Tableau, k: int) -> list[Tableau]:
    """All updown tableaux equal to t except possibly at position k, from
    the addable and removable nodes of the shape before step k: the
    reference for the class that ``seminormal`` reads off the step table."""
    n = len(t)
    assert 1 <= k <= n
    if k == n:
        return [t]
    prev = combinat.shape_before(t, k)
    mids = ([combinat.add_box(prev, a) for a in combinat.addable_nodes(prev)]
            + [combinat.remove_box(prev, b) for b in combinat.removable_nodes(prev)])
    return [t[:k - 1] + (mid,) + t[k:] for mid in mids if boxes_apart(mid, t[k]) == 1]


def sk_action_reference(t: Tableau, k: int):
    """The reference for ``combinat.sk_action``: the node of step k + 1,
    found by ``box_diff``, added to or removed from the shape before step k
    when it is addable or removable there; None otherwise."""
    assert 1 <= k < len(t)
    prev = combinat.shape_before(t, k)
    if prev == t[k]:
        raise ValueError("steps k, k+1 return to the start; swap is not defined")
    removed = combinat.mp_size(t[k]) < combinat.mp_size(t[k - 1])
    node = box_diff(t[k], t[k - 1]) if removed else box_diff(t[k - 1], t[k])
    if node not in (combinat.removable_nodes(prev) if removed else combinat.addable_nodes(prev)):
        return None
    mid = combinat.remove_box(prev, node) if removed else combinat.add_box(prev, node)
    return t[:k - 1] + (mid,) + t[k:]


def filled_step_tables(monkeypatch) -> list:
    """The shapes whose step table ``params.steps_out`` fills from here on,
    in order: each shape asked for that the parameter set's ``steps`` does
    not hold yet."""
    filled = []
    steps_out = params.steps_out

    def counted(mu, ps, **kw):
        if mu not in ps.steps:
            filled.append(mu)
        return steps_out(mu, ps, **kw)

    monkeypatch.setattr(params, "steps_out", counted)
    return filled


def series_reference(rf, A: int) -> list[Fraction]:
    """The reference for ``params.series_at_infinity``: each coefficient of
    the expansion at infinity of a ``RationalFunction`` solved for in
    Fractions."""
    num, den = rf.num, rf.den
    p = [Fraction(0)] * (den.degree - num.degree) + list(reversed(num.coeffs))
    q = list(reversed(den.coeffs))
    out: list[Fraction] = []
    for k in range(A + 1):
        acc = p[k] if k < len(p) else Fraction(0)
        for j in range(1, min(k, len(q) - 1) + 1):
            acc -= q[j] * out[k - j]
        out.append(Fraction(acc) / q[0])
    return out


def e_diag_reference(c: Fraction, boundary, r: int) -> Fraction:
    """The reference for ``params.e_diag``: (2c - (-1)^r) times the
    product of (c + c(alpha))/(c - c(alpha)) over the other boundary nodes
    alpha, in Fractions; ``boundary`` is ``addable_removable`` of the shape
    left."""
    sign = -1 if r % 2 else 1
    out = Fraction(2 * c - sign)
    for _, ca, _ in boundary:
        if ca != c:
            out *= (c + ca) / (c - ca)
    return out


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The nonnegative square root of x when it is rational, else None."""
    if x < 0:
        return None
    p, q = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if p * p == x.numerator and q * q == x.denominator:
        return Fraction(p, q)
    return None


def _orthonormal_entries_reference(ps: ParamSet, k: int, idx: dict, contents: dict):
    """S_k and E_k of the orthonormal model in Fractions, each as (diagonal,
    off), with diagonal {i: value} and off {(i, j): (sign, square)}."""
    q = ps.q
    S_diag, S_off, E_diag, E_off = {}, {}, {}, {}
    seen: set[int] = set()
    for t, i in idx.items():
        mu = combinat.shape_before(t, k)
        if returns_at(t, k):
            if i in seen:
                continue
            cls = k_neighbors(t, k)
            e = params.steps_out(mu, ps).e
            evals = {}
            for m in cls:
                seen.add(idx[m])
                ev = e[m[k - 1]]
                if ev <= 0:
                    raise ValueError(
                        f"contraction coefficient {ev} <= 0 at k={k} from "
                        f"shape {mu}: "
                        "parameters outside the positivity regime")
                evals[m] = ev
            for s in cls:
                cs = contents[s][k - 1]
                for tt in cls:
                    denom = cs + contents[tt][k - 1]
                    if denom == 0:
                        raise ValueError(
                            f"opposite contents in one class at k={k} from "
                            f"shape {mu}: parameters not generic")
                    if s == tt:
                        E_diag[idx[s]] = evals[s]
                        S_diag[idx[s]] = (evals[s] - 1) * q / denom
                    else:
                        sq = evals[s] * evals[tt]
                        E_off[idx[tt], idx[s]] = (1, sq)
                        S_off[idx[tt], idx[s]] = (1 if denom > 0 else -1,
                                                  sq * q * q / denom ** 2)
        else:
            a = swap_a(t, k, contents[t][k] - contents[t][k - 1], q)
            S_diag[i] = a
            partner = sk_action_reference(t, k)
            if partner is None:
                if a * a != 1:
                    raise ValueError(
                        f"swap at k={k} from shape {mu} undefined "
                        f"but coefficient {a} is not a unit: outside the regime")
            else:
                b2 = 1 - a * a
                if b2 < 0:
                    raise ValueError(
                        f"squared off-diagonal {b2} < 0 at k={k} from shape "
                        f"{mu}: outside the positivity regime")
                if b2:
                    S_off[idx[partner], i] = (1, b2)
    return (S_diag, S_off), (E_diag, E_off)


def _gamma_reference(d: int, offs) -> list[Fraction]:
    """gamma on the spanning forest of the generator graph, in Fractions."""
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


def build_rep_reference(ps: ParamSet, n: int, shape) -> seminormal.SeminormalRep:
    """The reference for ``seminormal.build_rep``: every entry of S_k and
    E_k, every squared off-diagonal and gamma formed as a Fraction, the
    square roots taken of Fractions, and each generator then held as its
    entries (``entries``).  It raises the same ValueErrors, in the same
    order."""
    contents = {t: params.contents(ps, t) for t in combinat.updown_walks(n, shape)}
    basis = tuple(sorted(contents, key=contents.__getitem__))
    idx = {t: i for i, t in enumerate(basis)}
    d = len(basis)
    X = [entries([{i: Fraction(contents[t][j], ps.q)} if contents[t][j] else {}
                  for i, t in enumerate(basis)]) for j in range(n)]
    local = [_orthonormal_entries_reference(ps, k, idx, contents) for k in range(1, n)]
    gamma = _gamma_reference(d, [off for pair in local for _, off in pair])

    def block(name: str, k: int, diag: dict, off: dict) -> dict:
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
        return entries(M)

    S = [block("S", k, *s) for k, (s, _) in enumerate(local, start=1)]
    E = [block("E", k, *e) for k, (_, e) in enumerate(local, start=1)]
    return seminormal.SeminormalRep(ps, n, shape, basis, S, E, X)


def w_at_shape_reference(shape, r: int, u) -> RationalFunction:
    """The reference for ``w_rational`` and the factors of
    ``params.wk_rational``: 1/2 - y + (y - (1/2)(-1)^r)
    prod_alpha (y + c(alpha))/(y - c(alpha)) over the addable and removable
    nodes of ``shape``, built as a product of rational functions over Q."""
    sign = -1 if r % 2 else 1
    rf = RationalFunction(Poly((-HALF * sign, Fraction(1))))
    for _, c, _ in addable_removable(shape, u):
        rf = rf * RationalFunction(Poly.y_plus(c), Poly.y_plus(-c))
    return rf + RationalFunction(Poly((HALF, Fraction(-1))))


def _defined(side):
    """side(), or None where it divides by zero."""
    try:
        return side()
    except ZeroDivisionError:
        return None


def class_sums_reference(c: dict, e: dict):
    """The class sums at one shape, as (name, s, t' or None, lhs, rhs), each
    side a Fraction summed term by term (None where it divides by zero),
    from the contents c and contraction coefficients e of the steps out of
    it: the oracle for the proof in ``seminormal.check_identities`` that
    ``w-partial-fractions`` decides them."""
    for s, cs in c.items():
        yield ("class-sum-linear", s, None,
               _defined(lambda: sum(e[m] / (cs + c[m]) for m in c)),
               _defined(lambda: 1 + HALF / cs))
        yield ("class-sum-quadratic", s, None,
               _defined(lambda: sum(e[m] / (cs + c[m]) ** 2 for m in c)),
               _defined(lambda: (1 - Fraction(1, 4) / cs ** 2) / e[s] + HALF / cs ** 2))
        for tp in c:
            if tp != s:
                yield ("class-sum-cross", s, tp,
                       _defined(lambda: sum(e[m] / ((cs + c[m]) * (c[m] + c[tp]))
                                            for m in c)),
                       _defined(lambda: HALF / (cs * c[tp])))


def poly_value(p: Poly, x: Fraction) -> Fraction:
    """p(x), by Horner's rule in Fractions."""
    out = Fraction(0)
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def swap_a(t: Tableau, k: int, d: int, q: int) -> Fraction:
    """The swap coefficient of ``seminormal._swap_pair`` as a Fraction."""
    return Fraction(*seminormal._swap_pair(combinat.shape_before(t, k), k, d, q))


def identities_reference(ps: ParamSet, n: int) -> seminormal.IdentityReport:
    """The reference for ``seminormal.check_identities``: the same windows
    in the same order, with W as a ``RationalFunction`` (``w_rational``,
    ``w_recursive_rational``), divided by y, each swap coefficient a Fraction
    (``swap_a``): a unit is a^2 = 1; and
    self-adjointness on each window in Fractions: each entry and each ratio
    of the step factors of two tableaux a Fraction, and False where a step
    factor is 0 or undefined."""
    counts: dict[str, int] = {}
    failures: list[str] = []

    def record(name: str, ok: bool, ctx: str = ""):
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            failures.append(f"{name}: {ctx}")

    def ratio(*steps):
        """The product of the step factors of ``steps`` as a Fraction, or
        None where one is 0 or undefined."""
        gs = [params.steps_out(mu, ps).g[nu] for mu, nu in steps]
        return None if not all(a and b for a, b in gs) else math.prod(
            (Fraction(a, b) for a, b in gs), start=Fraction(1))

    def adjoint(x, y, left, right):
        left, right = ratio(*left), ratio(*right)
        return left is not None and right is not None and x * left == y * right

    q = ps.q
    y = RationalFunction(Poly((0, 1)))
    for mu in (lam for size in range(n - 1) for lam in combinat.multipartitions(ps.r, size)):
        tmu = combinat.t_lambda(mu)
        k = len(tmu) + 1
        C, e, _, _ = params.steps_out(mu, ps)
        for nu, cn in C.items():
            record("w-recursion", w_rational(nu, ps)
                   == w_recursive_rational(mu, Fraction(cn, q), ps),
                   f"k={k + 1}, prefix={tmu + (nu,)}")
        w = w_rational(mu, ps)
        parts = sum(RationalFunction(Poly.const(e[m] * q), Poly((-x, q))) for m, x in C.items())
        record("w-partial-fractions", RationalFunction(w.num, w.den * y.num) == parts,
               f"k={k}, prefix={tmu}")
        for nu, nu2 in itertools.combinations(C, 2):
            record("star-symmetry", adjoint(e[nu2], e[nu], ((mu, nu), (nu, mu)),
                                            ((mu, nu2), (nu2, mu))),
                   f"s={tmu + (nu, mu)}, t'={tmu + (nu2, mu)}, k={k}")
        for nu, cn in C.items():
            for rho, cr in params.steps_out(nu, ps).C.items():
                if rho == mu:
                    continue
                t = tmu + (nu, rho)
                a = swap_a(t, k, cr - cn, q)
                u = combinat.sk_action(t, k)
                if u is None or a * a == 1:
                    continue
                d = params.steps_out(u[k - 1], ps).C[rho] - C[u[k - 1]]
                p = Fraction(*seminormal.swap_entry(ps, k, mu, nu, rho, u[k - 1], cr - cn))
                p_s = (Fraction(*seminormal.swap_entry(ps, k, mu, u[k - 1], rho, nu, d))
                       if d * d != q * q else Fraction(0))
                record("star-symmetry", adjoint(p, p_s, ((mu, nu), (nu, rho)),
                                                ((mu, u[k - 1]), (u[k - 1], rho))),
                       f"t={t}, u={u}, k={k}")
    return seminormal.IdentityReport(counts, failures)


def contraction_identities(ps: ParamSet, n: int) -> seminormal.IdentityReport:
    """The two identities ``seminormal.check_identities`` checked before the
    relations of the models were shown to decide them, in Fractions, per
    (mu, nu) with |mu| <= n - 3, at k = |mu| + 1: ``contraction-inverse``,
    e_nu(mu) e_mu(nu) = 1 (``untwisting`` decides it), and
    ``swap-contraction-matching``, (1 - a^2) e_x(nu) = (1 - b^2) e_nu'(mu)
    for t = (..., mu, nu, x, nu, ...) and u = (..., mu, nu', mu, nu, ...)
    with s_k t = s_{k+1} u, a and b the swap coefficients of t at k and of
    u at k + 1 (``tangle`` and ``involution`` decide it)."""
    counts: dict[str, int] = {}
    failures: list[str] = []

    def record(name: str, ok: bool, ctx: str):
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            failures.append(f"{name}: {ctx}")

    q = ps.q
    for mu in (lam for size in range(n - 2) for lam in combinat.multipartitions(ps.r, size)):
        tmu = combinat.t_lambda(mu)
        k = len(tmu) + 1
        C, e, _, _ = params.steps_out(mu, ps)
        for nu, cn in C.items():
            C_nu, e_nu, _, _ = params.steps_out(nu, ps)
            record("contraction-inverse", e[nu] * e_nu[mu] == 1,
                   f"t={tmu + (nu, mu, nu)}, k={k}")
            for x, cx in C_nu.items():
                tt = tmu + (nu, x, nu)
                target = combinat.sk_action(tt, k) if x != mu else None
                if target is None:
                    continue
                uu = tmu + (target[k - 1], mu, nu)
                if combinat.sk_action(uu, k + 1) != target:
                    continue
                back = params.steps_out(target[k - 1], ps).C[mu]
                lhs = (1 - swap_a(tt, k, cx - cn, q) ** 2) * e_nu[x]
                rhs = (1 - swap_a(uu, k + 1, cn - back, q) ** 2) * e[target[k - 1]]
                record("swap-contraction-matching", lhs == rhs, f"t={tt}, u={uu}, k={k}")
    return seminormal.IdentityReport(counts, failures)


def key_word(key: hecke.Key) -> Word:
    """The word of the monomial Y^alpha T_w: its X letters, then T_w's."""
    alpha, w = key
    return (tuple(("X", j, a) for j, a in enumerate(alpha, start=1) if a)
            + word_for_permutation(w))


def word_sum_mul(a: wcell.WordSum, b: wcell.WordSum) -> wcell.WordSum:
    acc: dict[Word, Fraction] = {}
    for ca, wa in a:
        for cb, wb in b:
            w = wa + wb
            c = acc.pop(w, Fraction(0)) + ca * cb
            if c:
                acc[w] = c
    return tuple((c, w) for w, c in acc.items())


def word_sum_product(factors) -> wcell.WordSum:
    """The expansion of a product of word sums into words."""
    terms: wcell.WordSum = ((Fraction(1), ()),)
    for f in factors:
        terms = word_sum_mul(terms, f)
    return terms


def _word_sums(left: Word, middle: tuple[wcell.WordSum, ...],
               right: Word) -> tuple[wcell.WordSum, ...]:
    """The factors (left word, middle, right word) as word sums."""
    return (((Fraction(1), left),), *middle, ((Fraction(1), right),))


def murphy_words(ps: ParamSet, shape: Multipartition, s: Tableau, t: Tableau) -> wcell.WordSum:
    """The Murphy product expanded into generator words."""
    return word_sum_product(_word_sums(*hecke.murphy_factors(ps, shape, s, t)))


def terms(cw: wcell.CellularWord) -> wcell.WordSum:
    """A cellular element's expansion into words."""
    return word_sum_product(_word_sums(cw.left_word, cw.middle, cw.right_word))


def star_word(word: Word) -> Word:
    """The anti-involution fixing every generator letter: reverse the word."""
    return tuple(reversed(word))


def star_word_sum(terms: wcell.WordSum) -> wcell.WordSum:
    return tuple((c, tuple(reversed(w))) for c, w in terms)


def star(cw: wcell.CellularWord) -> wcell.CellularWord:
    """The anti-involution of a cellular element: the starred factors in
    reverse order."""
    return wcell.CellularWord(star_word(cw.right_word),
                              tuple(star_word_sum(f) for f in reversed(cw.middle)),
                              star_word(cw.left_word), cw.arcs, cw.shape,
                              cw.right, cw.left)


def contraction_murphy_commute_residual(ps: ParamSet, n: int, arcs: int,
                                        shape: Multipartition,
                                        real: seminormal.Realization | None = None) -> Fraction:
    """Worst |chain·M - M·chain| over all Murphy products of the cell."""
    if real is None:
        real = seminormal.Realization(seminormal.build_all(ps, n))
    chain = wcell.contraction_chain(n, arcs)
    tabs = combinat.standard_tableaux(shape)
    worst = Fraction(0)
    e = evaluate_word(real, chain)
    for s in tabs:
        for t in tabs:
            m = real.evaluate_product(_word_sums(*hecke.murphy_factors(ps, shape, s, t)))
            worst = max(worst, residual(seminormal.mul(e, m), seminormal.mul(m, e)))
    return worst


def hecke_pairing_residual(ps: ParamSet, n: int, arcs: int, shape: Multipartition,
                           real: seminormal.Realization | None = None) -> Fraction:
    """Worst deviation, on the matching block, of evaluated cellular products
    from the contraction-scalar-power times the Hecke Gram pairing.

    For trivial powers and placements, the product of the (s,t) and (v,s)
    cellular words must act on the block of the cell's shape as
    omega_0^arcs <m_t, m_v> times the (s,s) word."""
    m = combinat.mp_size(shape)
    if m != n - 2 * arcs:
        raise ValueError("shape size must match the declared arc count")
    tabs = combinat.standard_tableaux(shape)
    if real is None:
        real = seminormal.Realization(seminormal.build_all(ps, n))
    blk = real.shapes.index(shape)
    zero = (0,) * arcs
    ident = tuple(range(1, n + 1))

    def triv(x):
        return (x, zero, ident)

    evaluated = {}
    for a in tabs:
        for b in tabs:
            cw = wcell.cellular_element(ps, n, arcs, shape, triv(a), triv(b))
            ev = real.evaluate_product(_word_sums(cw.left_word, cw.middle, cw.right_word))
            evaluated[a, b] = block(real, ev, blk)
    gram = hecke.gram_matrix(hecke.murphy_basis(ps, m), shape)
    worst = Fraction(0)
    scale = derived_omega(ps, 0)[0] ** arcs
    for s in tabs:
        for i, t in enumerate(tabs):
            for j, v in enumerate(tabs):
                lhs = seminormal.mul(evaluated[s, t], evaluated[v, s])
                rhs = scaled(evaluated[s, s], scale * gram[i].get(j, 0))
                worst = max(worst, residual(lhs, rhs))
    return worst


def murphy_triangular_report(mb: hecke.MurphyBasis) -> list[str]:
    """Check Y_k m_st = c_s(k) m_st + (dominance-higher terms) in the algebra
    ``mb.H``: the diagonal coefficient is the content, every other surviving
    coordinate must sit at (same shape, s' strictly dominating s, same t) or
    at a shape strictly dominating lam.  Returns human-readable failure
    strings (empty = pass)."""
    H = mb.H
    failures = []
    for (lam, s, t), el in zip(mb.triples, mb.elements):
        contents = combinat.content_sequence(s, H.ps.u)
        for k in range(1, H.n + 1):
            prod = multiply(H, H.act(H.one(), (("X", k, 1),)), el)
            for idx, c in coordinates(mb, prod).items():
                mu, a, b = mb.triples[idx]
                if mu != lam:
                    if combinat.dominance_mp(mu, lam) and mu != lam:
                        continue
                    failures.append(
                        f"Y_{k} m(s,t) at {lam}: lands on non-dominating {mu}")
                elif (a, b) == (s, t):
                    if c != contents[k - 1]:
                        failures.append(
                            f"Y_{k} m(s,t) at {lam}: diagonal {c} != content "
                            f"{contents[k - 1]}")
                elif b == t and combinat.dominance_std(a, s) and a != s:
                    continue
                else:
                    failures.append(
                        f"Y_{k} m(s,t) at {lam}: stray coordinate at "
                        f"(s'={a}, t'={b})")
    return failures


def row_symmetrizer_witness(ps: ParamSet, n: int) -> tuple[Fraction, bool]:
    """The one-row shape witness: m = (root-shifted Y's)(sum over all T_w),
    the Murphy middle of the shape with all n boxes in the first component,
    satisfies m^2 = scalar * m with
    scalar = n! * prod_{t>=2} prod_{d=0}^{n-1} (u_1 + d - u_t).
    Returns (scalar, product matches exactly)."""
    H = hecke.HeckeAlgebra(ps, n)
    shape = ((n,),) + ((),) * (ps.r - 1)
    tl = combinat.t_lambda(shape)
    _, middle, _ = hecke.murphy_factors(ps, shape, tl, tl)
    el = functools.reduce(H.act_sum, middle, H.one())
    scalar = Fraction(math.factorial(n))
    for t in range(1, ps.r):
        for d in range(n):
            scalar *= ps.u[0] + d - ps.u[t]
    ok = multiply(H, el, el) == H.act_sum(el, ((scalar, ()),))  # scalar * el
    return scalar, ok


def is_semisimple(ps: ParamSet, n: int) -> bool:
    """Fails exactly when two roots differ by an integer smaller than n in
    absolute value (equal roots included)."""
    for i in range(ps.r):
        for j in range(i + 1, ps.r):
            d = ps.u[i] - ps.u[j]
            if d.denominator == 1 and abs(d) < n:
                return False
    return True


def cyclotomic_word_sum(ps: ParamSet) -> wcell.WordSum:
    """The defining polynomial in X_1, expanded into generator words."""
    return word_sum_product(((Fraction(1), (("X", 1, 1),)), (-root, ()))
                            for root in ps.u)


class CellIndex(NamedTuple):
    """One member of a cell's index set; ``triple`` is a standard tableau of
    the shape, one exponent per declared arc, and a placement permutation
    moving the reference arcs {n-1, n}, {n-3, n-2}, ... onto their targets."""

    arcs: int
    shape: Multipartition
    triple: tuple[Tableau, tuple[int, ...], tuple[int, ...]]


def cell_indices(r: int, n: int) -> list[CellIndex]:
    out: list[CellIndex] = []
    for arcs in range(n // 2 + 1):
        for shape in combinat.multipartitions(r, n - 2 * arcs):
            out.extend(CellIndex(arcs, shape, triple)
                       for triple in cell_triples(r, n, arcs, shape))
    return out


def filtration_index(word) -> int:
    """Declared contraction count: read off a cellular word, or the longest
    run of E letters stepping down by two in a raw word (structural only)."""
    if isinstance(word, wcell.CellularWord):
        return word.arcs
    best = run = 0
    prev = None
    for letter in word:
        if letter[0] == "E":
            run = run + 1 if prev is not None and letter[1] == prev - 2 else 1
            prev = letter[1]
            best = max(best, run)
        else:
            run, prev = 0, None
    return best


def permutation_diagram(n: int, w: tuple[int, ...]) -> BrauerDiagram:
    """Edges {i, w(i)-bar} for a permutation w in one-line form."""
    assert sorted(w) == list(range(1, n + 1))
    return BrauerDiagram.from_edges(n, [(i, n + w[i - 1]) for i in range(1, n + 1)])


def perm_mult(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(w[v[i] - 1] for i in range(len(v)))


def perm_of_word(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    w = tuple(range(1, n + 1))
    for i in word:
        s = list(range(1, n + 1))
        s[i - 1], s[i] = s[i], s[i - 1]
        w = perm_mult(w, tuple(s))
    return w
