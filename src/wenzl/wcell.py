"""Matrix realization on the sum of all cell modules, monomial census, and
cellular words.

In the generic regime the algebra acts faithfully on the direct sum of its
seminormal modules, so exact rank over Q on that rational realization
certifies spanning/independence statements that would otherwise need a
symbolic normal form.  Words in the generators are plain tuples of letters
("S", i), ("E", i), ("X", j, power); linear combinations of words are
tuples of (coefficient, word) pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg, combinat, diagrams, hecke, seminormal
from .combinat import Multipartition, Tableau
from .diagrams import BrauerDiagram, perm_inverse, word_for_permutation
from .params import ParamSet

Letter = tuple
Word = tuple[Letter, ...]
WordSum = tuple[tuple[Fraction, Word], ...]


# -- regular monomials ---------------------------------------------------


@dataclass(frozen=True)
class RegularMonomial:
    """X^left · B_diagram · X^right with the endpoint support rules.

    Left exponents vanish at the left endpoint of every top arc; right
    exponents live only at the left endpoints of bottom arcs.  Exponent
    bounds (< r) are checked separately by :meth:`bounded_by`.
    """

    left_powers: tuple[int, ...]
    diagram: BrauerDiagram
    right_powers: tuple[int, ...]

    def __post_init__(self):
        n = self.diagram.n
        if len(self.left_powers) != n or len(self.right_powers) != n:
            raise ValueError("need one exponent per strand on each side")
        if any(a < 0 for a in self.left_powers + self.right_powers):
            raise ValueError("exponents must be nonnegative")
        top_left = {a for a, _ in self.diagram.top_arcs()}
        bot_left = {a for a, _ in self.diagram.bottom_arcs()}
        if any(self.left_powers[i - 1] for i in top_left):
            raise ValueError("left exponent sits on a top-arc left endpoint")
        for i in range(1, n + 1):
            if self.right_powers[i - 1] and i not in bot_left:
                raise ValueError("right exponent off the bottom-arc left endpoints")

    @property
    def degree(self) -> int:
        return sum(self.left_powers) + sum(self.right_powers)

    def bounded_by(self, r: int) -> bool:
        return all(a < r for a in self.left_powers + self.right_powers)


def enumerate_r_regular(r: int, n: int) -> list[RegularMonomial]:
    """All monomials with exponents < r, in a fixed deterministic order:
    diagrams first, then left exponents, then right exponents, both lex."""
    out: list[RegularMonomial] = []
    for g in diagrams.enumerate_diagrams(n):
        top_left = {a for a, _ in g.top_arcs()}
        bot_left = sorted(a for a, _ in g.bottom_arcs())
        left_free = [i for i in range(1, n + 1) if i not in top_left]
        for avals in itertools.product(range(r), repeat=len(left_free)):
            left = [0] * n
            for pos, v in zip(left_free, avals):
                left[pos - 1] = v
            for bvals in itertools.product(range(r), repeat=len(bot_left)):
                right = [0] * n
                for pos, v in zip(bot_left, bvals):
                    right[pos - 1] = v
                out.append(RegularMonomial(tuple(left), g, tuple(right)))
    return out


def word_for_monomial(m: RegularMonomial) -> Word:
    letters = [("X", j, a) for j, a in enumerate(m.left_powers, start=1) if a]
    letters += list(diagrams.word_for_diagram(m.diagram))
    letters += [("X", j, b) for j, b in enumerate(m.right_powers, start=1) if b]
    return tuple(letters)


# -- the realization -----------------------------------------------------


class Realization:
    """Every generator as one exact block per reachable shape.

    ``reps`` holds the rational seminormal models, built once; words are
    evaluated on them as ``_linalg`` sparse rows.  The entries of all blocks
    of an evaluated word, placed block after block and row after row, form
    a sparse vector of length r^n (2n-1)!!, and rank of a word family is
    the exact rank of those vectors over Q.  Each block is the orthonormal
    model conjugated by diag(sqrt(gamma)), which scales each entry by a
    fixed nonzero factor, so that rank is also the rank of the family in
    the orthonormal model.
    """

    def __init__(self, ps: ParamSet, n: int):
        self.n = n
        self.reps = seminormal.build_all(ps, n)
        self.shapes = [rep.shape for rep in self.reps]
        self.dims = [rep.dim for rep in self.reps]
        self.vec_len = sum(d * d for d in self.dims)

    def block_index(self, shape: Multipartition) -> int:
        return self.shapes.index(shape)

    def _letter_block(self, rep: seminormal.SeminormalRep, letter: Letter):
        kind = letter[0]
        if kind == "S" and 1 <= letter[1] <= self.n - 1:
            return rep.S[letter[1] - 1]
        if kind == "E" and 1 <= letter[1] <= self.n - 1:
            return rep.E[letter[1] - 1]
        if kind == "X" and 1 <= letter[1] <= self.n and letter[2] >= 0:
            return rep.x_power(letter[1], letter[2])
        raise ValueError(f"letter {letter!r} out of range at n={self.n}")

    def evaluate(self, word: Word) -> list[list[dict]]:
        blocks = []
        for rep in self.reps:
            acc = _linalg.identity(rep.dim)
            for letter in word:
                acc = _linalg.mat_mul(acc, self._letter_block(rep, letter))
            blocks.append(acc)
        return blocks

    def evaluate_sum(self, terms: WordSum) -> list[list[dict]]:
        out = [_linalg.zeros(d) for d in self.dims]
        for coeff, word in terms:
            out = [_linalg.mat_add(acc, _linalg.mat_scale(blk, coeff))
                   for acc, blk in zip(out, self.evaluate(word))]
        return out

    def vec(self, blocks) -> dict:
        out, start = {}, 0
        for blk, d in zip(blocks, self.dims):
            out.update((start + i * d + j, x)
                       for i, row in enumerate(blk) for j, x in row.items())
            start += d * d
        return out


def rank_report(words, real: Realization) -> dict:
    return _rank_from_vecs([real.vec(real.evaluate(w)) for w in words])


def _rank_from_vecs(vecs) -> dict:
    """Exact rank over Q of a family of sparse rational vectors."""
    return {"count": len(vecs), "rank": _linalg.rank(vecs)}


# -- word sums -----------------------------------------------------------


def word_sum_mul(a: WordSum, b: WordSum) -> WordSum:
    acc: dict[Word, Fraction] = {}
    for ca, wa in a:
        for cb, wb in b:
            w = wa + wb
            c = acc.pop(w, Fraction(0)) + ca * cb
            if c:
                acc[w] = c
    return tuple((c, w) for w, c in acc.items())


def star_word_sum(terms: WordSum) -> WordSum:
    return tuple((c, tuple(reversed(w))) for c, w in terms)


def cyclotomic_word_sum(ps: ParamSet) -> WordSum:
    """The defining polynomial in X_1, expanded into generator words."""
    terms: WordSum = ((Fraction(1), ()),)
    for root in ps.u:
        terms = word_sum_mul(terms, ((Fraction(1), (("X", 1, 1),)), (-root, ())))
    return terms


# -- cellular structure --------------------------------------------------


@dataclass(frozen=True)
class CellIndex:
    """One member of a cell's index set: a standard tableau of the shape,
    one exponent per declared arc, and a placement permutation moving the
    reference arcs {n-1, n}, {n-3, n-2}, ... onto their targets."""

    arcs: int
    shape: Multipartition
    tab: Tableau
    powers: tuple[int, ...]
    placement: tuple[int, ...]

    @property
    def triple(self):
        return (self.tab, self.powers, self.placement)


def cell_triples(r: int, n: int, arcs: int, shape: Multipartition) -> list[tuple]:
    """(tableau, powers, placement) triples indexing one cell."""
    if combinat.mp_size(shape) != n - 2 * arcs:
        raise ValueError("shape size must be the strand count minus two per arc")
    tabs = combinat.standard_tableaux(shape)
    powers = list(itertools.product(range(r), repeat=arcs))
    placements = combinat.coset_reps(n, arcs)
    return [(t, k, d) for t in tabs for k in powers for d in placements]


def cell_indices(r: int, n: int) -> list[CellIndex]:
    out: list[CellIndex] = []
    for arcs in range(n // 2 + 1):
        for shape in combinat.multipartitions(r, n - 2 * arcs):
            out.extend(CellIndex(arcs, shape, t, k, d)
                       for t, k, d in cell_triples(r, n, arcs, shape))
    return out


def contraction_chain(n: int, arcs: int) -> Word:
    """E_{n-1} E_{n-3} ...: one contraction per declared arc."""
    return tuple(("E", n - 1 - 2 * j) for j in range(arcs))


def murphy_words(ps: ParamSet, shape: Multipartition, s: Tableau, t: Tableau) -> WordSum:
    """The Murphy product as generator words: starred coset word for s, the
    root-shifted X prefix, the row-stabilizer sum, then the coset word for t."""
    m = combinat.mp_size(shape)
    left = word_for_permutation(perm_inverse(combinat.d_perm(s)))
    terms: WordSum = ((Fraction(1), left),)
    sizes = [sum(p) for p in shape]
    for i in range(1, ps.r):
        bound = sum(sizes[:i])
        for k in range(1, bound + 1):
            factor = ((Fraction(1), (("X", k, 1),)), (-ps.u[i], ()))
            terms = word_sum_mul(terms, factor)
    row = tuple((Fraction(1), word_for_permutation(w))
                for w in combinat.young_subgroup(shape, m))
    terms = word_sum_mul(terms, row)
    right: WordSum = ((Fraction(1), word_for_permutation(combinat.d_perm(t))),)
    return word_sum_mul(terms, right)


@dataclass(frozen=True)
class CellularWord:
    """A sum of generator words carrying its declared cell data."""

    terms: WordSum
    arcs: int
    shape: Multipartition
    left: tuple
    right: tuple

    def star(self) -> "CellularWord":
        return CellularWord(star_word_sum(self.terms), self.arcs, self.shape,
                            self.right, self.left)


def cellular_element(ps: ParamSet, n: int, arcs: int, shape: Multipartition,
                     left: tuple, right: tuple) -> CellularWord:
    """The basis word for a (left, right) pair of cell triples: starred
    placement and powers, the contraction chain, the Murphy product, then
    the right powers and placement.  X powers ride the odd positions
    n-1, n-3, ... in decreasing order."""
    s, rho, e = left
    t, kappa, d = right
    if len(rho) != arcs or len(kappa) != arcs:
        raise ValueError("need one power per arc on each side")
    empty = combinat.empty_mp(ps.r)
    if (s[-1] if s else empty) != shape or (t[-1] if t else empty) != shape:
        raise ValueError("tableaux must have the cell's shape")
    pre = tuple(reversed(word_for_permutation(e)))
    pre += tuple(("X", n - 1 - 2 * j, a) for j, a in enumerate(rho) if a)
    pre += contraction_chain(n, arcs)
    post = tuple(("X", n - 1 - 2 * j, a) for j, a in enumerate(kappa) if a)
    post += word_for_permutation(d)
    terms = tuple((c, pre + w + post)
                  for c, w in murphy_words(ps, shape, s, t))
    return CellularWord(terms, arcs, shape,
                        (s, tuple(rho), e), (t, tuple(kappa), d))


def filtration_index(word) -> int:
    """Declared contraction count: read off a cellular word, or the longest
    run of E letters stepping down by two in a raw word (structural only)."""
    if isinstance(word, CellularWord):
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


# -- rank and compatibility checks ---------------------------------------


def cellular_rank_report(ps: ParamSet, n: int) -> dict:
    """Counts and exact rank of the full cellular family at (r, n)."""
    r = ps.r
    target = r ** n * diagrams.double_factorial(2 * n - 1)
    real = Realization(ps, n)
    cells = []
    vecs = []
    total = 0
    for arcs in range(n // 2 + 1):
        for shape in combinat.multipartitions(r, n - 2 * arcs):
            triples = cell_triples(r, n, arcs, shape)
            cells.append({"arcs": arcs, "shape": [list(p) for p in shape],
                          "members": len(triples)})
            total += len(triples) ** 2
            for a in triples:
                for b in triples:
                    cw = cellular_element(ps, n, arcs, shape, a, b)
                    vecs.append(real.vec(real.evaluate_sum(cw.terms)))
    report = _rank_from_vecs(vecs)
    report["target"] = target
    report["sum_of_squares"] = total
    report["ok"] = total == target and report["rank"] == target
    report["cells"] = cells
    return report


def contraction_murphy_commute_residual(ps: ParamSet, n: int, arcs: int,
                                        shape: Multipartition,
                                        real: Realization | None = None) -> Fraction:
    """Worst |chain·M - M·chain| over all Murphy words of the cell."""
    if real is None:
        real = Realization(ps, n)
    chain = contraction_chain(n, arcs)
    tabs = combinat.standard_tableaux(shape)
    worst = Fraction(0)
    e_blocks = real.evaluate(chain)
    for s in tabs:
        for t in tabs:
            m_blocks = real.evaluate_sum(murphy_words(ps, shape, s, t))
            for eb, mb in zip(e_blocks, m_blocks):
                diff = _linalg.mat_sub(_linalg.mat_mul(eb, mb), _linalg.mat_mul(mb, eb))
                worst = max(worst, _linalg.max_abs(diff))
    return worst


def hecke_pairing_residual(ps: ParamSet, n: int, arcs: int, shape: Multipartition,
                           real: Realization | None = None) -> Fraction:
    """Worst deviation, on the matching block, of evaluated cellular products
    from the contraction-scalar-power times the Hecke Gram pairing.

    For trivial powers and placements, the product of the (s,t) and (v,s)
    cellular words must act on the block of the cell's shape as
    omega_0^arcs <m_t, m_v> times the (s,s) word."""
    m = combinat.mp_size(shape)
    if m != n - 2 * arcs:
        raise ValueError("shape size must match the declared arc count")
    H = hecke.HeckeAlgebra(ps, m)
    mb = hecke.MurphyBasis(H)
    tabs = combinat.standard_tableaux(shape)
    if real is None:
        real = Realization(ps, n)
    blk = real.block_index(shape)
    zero = (0,) * arcs
    ident = tuple(range(1, n + 1))

    def triv(x):
        return (x, zero, ident)

    evaluated = {}
    for a in tabs:
        for b in tabs:
            cw = cellular_element(ps, n, arcs, shape, triv(a), triv(b))
            evaluated[a, b] = real.evaluate_sum(cw.terms)[blk]
    worst = Fraction(0)
    scale = ps.omega[0] ** arcs
    for s in tabs:
        for t in tabs:
            for v in tabs:
                gram = hecke.gram_entry(H, mb, shape, t, v)
                lhs = _linalg.mat_mul(evaluated[s, t], evaluated[v, s])
                rhs = _linalg.mat_scale(evaluated[s, s], scale * gram)
                worst = max(worst, _linalg.max_abs(_linalg.mat_sub(lhs, rhs)))
    return worst
