"""Code the tests share and the command line does not call: the dense
matrix reader, the Schur reference for Omega and other admissible
sequences, exact two-strand module fixtures, the hand-written relation
suite that the relation table is checked against, the Fraction-row
evaluation and star-symmetry that the model's int forms are checked
against, the branching report, the reference product of two Hecke elements
and expansion of products into words, Hecke triangularity and symmetrizer
witnesses, cell indices and word helpers."""

import functools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from brauer import BrauerDiagram
from wenzl import _linalg, combinat, hecke, seminormal, wcell
from wenzl.combinat import Multipartition, Tableau, Word, perm_mult, word_for_permutation
from wenzl.params import ONE, ParamSet, Poly
from wenzl.seminormal import RELATION_FAMILIES

HALF = Fraction(1, 2)


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


class ModuleFixture(NamedTuple):
    S: list
    E: list
    X: list
    ps: ParamSet


def module_realization(S, E, X, ps: ParamSet) -> seminormal.Realization:
    """The one-block realization of a module given by ``_linalg`` sparse
    rows, with at least one X: each matrix cleared to int rows, as
    ``build_rep`` holds its generators."""
    d = len(X[0])
    S, E, X = ([seminormal._cleared([M]) for M in mats] for mats in (S, E, X))
    rep = seminormal.SeminormalRep(ps, len(X), None, tuple(range(d)), S, E, X,
                                   (Fraction(1),) * d)
    return seminormal.Realization([rep])


def check_module(S, E, X, ps: ParamSet) -> dict:
    """Exact relation residuals for a module given by ``_linalg`` sparse rows,
    with at least one X: the relation table evaluated on the one-block
    realization of the module.  Every value should be Fraction(0) for a
    genuine module."""
    return seminormal.residuals(module_realization(S, E, X, ps))[0]


def seeded_u(tag: str, r: int, n: int) -> tuple[Fraction, ...]:
    """Fractional roots k * default_u + delta, k and delta drawn by the tag."""
    rng = random.Random(f"{tag}:{r}:{n}")
    k = rng.choice((2, 4, 8))
    delta = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-1, 4)))
    return tuple(k * x + delta for x in combinat.default_u(r, n))


def as_fractions(ev: seminormal.Evaluated) -> list[list[dict]]:
    """The blocks of an evaluated element as ``_linalg`` rows of Fractions:
    each int entry over the element's denominator."""
    return [[{j: Fraction(x, ev.den) for j, x in row.items()} for row in blk]
            for blk in ev.blocks]


def fraction_generators(rep: seminormal.SeminormalRep) -> dict:
    """{"S": [...], "E": [...], "X": [...]}: a model's generators as
    ``_linalg`` rows of Fractions."""
    return {kind: [as_fractions(ev)[0] for ev in getattr(rep, kind)] for kind in "SEX"}


def adjointness_reference(rep: seminormal.SeminormalRep) -> Fraction:
    """The reference for ``seminormal.adjointness_residual``: max
    |gamma_i M_ij - M_ji gamma_j| over every generator M, entry by entry in
    Fractions, with a gamma_i <= 0 counted as 1 - gamma_i."""
    g = rep.gamma
    worst = max((1 - x for x in g if x <= 0), default=Fraction(0))
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
            out = [_linalg.mat_add(acc, _linalg.mat_scale(blk, Fraction(coeff)))
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


# the reference for the relation table: each relation as matrix products
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


def _fixture(S, E, X1, X2, ps: ParamSet) -> ModuleFixture:
    """A two-strand module from its matrices written out densely."""
    return ModuleFixture([from_dense(S)], [from_dense(E)],
                         [from_dense(X1), from_dense(X2)], ps)


def module_rank_one(u1=Fraction(2), sign: int = 1) -> ModuleFixture:
    """One-dimensional module at r = 1: the contraction acts by zero, the
    swap by +-1, and the second eigenvalue sits one step away."""
    assert sign in (1, -1)
    u1 = Fraction(u1)
    ps = ParamSet.from_u((u1,), n_hint=2)
    return _fixture([[sign]], [[0]], [[u1]], [[u1 + sign]], ps)


def module_contraction_free() -> ModuleFixture:
    """Two-dimensional module at r = 2, u = (3, 1), with E = 0: the skein
    relation alone forces the off-diagonal swap."""
    ps = ParamSet.from_u((3, 1), n_hint=2)
    F = Fraction
    S = [[F(-1, 2), F(3, 2)], [F(1, 2), F(1, 2)]]
    E = [[F(0), F(0)], [F(0), F(0)]]
    X1 = [[F(3), F(0)], [F(0), F(1)]]
    X2 = [[F(1), F(0)], [F(0), F(3)]]
    return _fixture(S, E, X1, X2, ps)


def module_nonsplit() -> ModuleFixture:
    """Two-dimensional module at r = 2 with equal roots u = (1/4, 1/4):
    X_1 - 1/4 is nonzero nilpotent, so X_1 is not semisimple, yet every
    relation holds exactly for the matching admissible sequence."""
    q = Fraction(1, 4)
    omega = nilpotent_example_omega(6)
    ps = ParamSet(2, (q, q), tuple(omega), len(omega) - 1, "user-supplied")
    F = Fraction
    S = [[F(1), F(0)], [F(0), F(-1)]]
    E = [[F(1), F(0)], [F(0), F(0)]]
    X1 = [[F(0), q], [-q, F(1, 2)]]
    X2 = [[F(0), -q], [q, F(-1, 2)]]
    return _fixture(S, E, X1, X2, ps)


def module_residue_family(v) -> ModuleFixture:
    """The d-dimensional two-strand module with X_1 = diag(v), X_2 = -X_1,
    contraction columns proportional to the residue coefficients, and the
    swap determined by the skein relation."""
    v = [Fraction(x) for x in v]
    d = len(v)
    g = ene0_gammas(v)
    omega = [omega_residue_form(v, a) for a in range(d + 3)]
    ps = ParamSet(d, tuple(v), tuple(omega), len(omega) - 1, "user-supplied")
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

    expected = {mu for mu in combinat.neighbors(rep.shape) if combinat.mp_size(mu) <= n - 1}

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
    return H.act_sum(x, [(c, key_word(key)) for key, c in y.items()])


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


def murphy_words(ps: ParamSet, shape: Multipartition, s: Tableau, t: Tableau) -> wcell.WordSum:
    """The Murphy product expanded into generator words."""
    left, middle, right = hecke.murphy_factors(ps, shape, s, t)
    return word_sum_product((((Fraction(1), left),), *middle, ((Fraction(1), right),)))


def terms(cw: wcell.CellularWord) -> wcell.WordSum:
    """A cellular element's expansion into words."""
    return word_sum_product((((Fraction(1), cw.left_word),), *cw.middle,
                             ((Fraction(1), cw.right_word),)))


def murphy_triangular_report(H: hecke.HeckeAlgebra, mb: hecke.MurphyBasis) -> list[str]:
    """Check Y_k m_st = c_s(k) m_st + (dominance-higher terms): the diagonal
    coefficient is the content, every other surviving coordinate must sit at
    (same shape, s' strictly dominating s, same t) or at a shape strictly
    dominating lam.  Returns human-readable failure strings (empty = pass)."""
    failures = []
    for (lam, s, t), el in zip(mb.triples, mb.elements):
        contents = combinat.content_sequence(s, H.ps.u)
        for k in range(1, H.n + 1):
            prod = multiply(H, H.act(H.one(), (("X", k, 1),)), el)
            for idx, c in mb.coords(prod).items():
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
                       for triple in wcell.cell_triples(r, n, arcs, shape))
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


def perm_of_word(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    w = tuple(range(1, n + 1))
    for i in word:
        s = list(range(1, n + 1))
        s[i - 1], s[i] = s[i], s[i - 1]
        w = perm_mult(w, tuple(s))
    return w
