"""Cellular words and their exact rank on the realization.

In the generic regime the algebra acts faithfully on the direct sum of its
seminormal modules, so exact rank over Q on that rational realization
(``seminormal.Realization``, the one on which ``verify`` checks the defining
relations) certifies the independence of the cellular family, which would
otherwise need a symbolic normal form.  Words are generator words as in
``combinat``; linear combinations of words are tuples of (coefficient,
word) pairs.  A cellular basis element keeps its factors (left word, Murphy
middle, right word) and is evaluated from them, never expanded into words;
its Murphy factors are ``hecke.murphy_factors``, the same words from which
the Hecke quotient makes its Murphy basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg, combinat, hecke, seminormal
from .combinat import Multipartition, Word, star_word, word_for_permutation
from .hecke import WordSum, murphy_factors
from .params import ParamSet
from .seminormal import Evaluated, Realization, block_residuals, mul_blocks, scaled


# -- word sums -----------------------------------------------------------


def star_word_sum(terms: WordSum) -> WordSum:
    return tuple((c, tuple(reversed(w))) for c, w in terms)


def _word_sums(left: Word, middle: tuple[WordSum, ...], right: Word) -> tuple[WordSum, ...]:
    """The factors (left word, middle, right word) as word sums."""
    return (((Fraction(1), left),), *middle, ((Fraction(1), right),))


# -- cellular structure --------------------------------------------------


def cell_triples(r: int, n: int, arcs: int, shape: Multipartition) -> list[tuple]:
    """(tableau, powers, placement) triples indexing one cell."""
    if combinat.mp_size(shape) != n - 2 * arcs:
        raise ValueError("shape size must be the strand count minus two per arc")
    tabs = combinat.standard_tableaux(shape)
    powers = list(itertools.product(range(r), repeat=arcs))
    placements = combinat.coset_reps(n, arcs)
    return [(t, k, d) for t in tabs for k in powers for d in placements]


def contraction_chain(n: int, arcs: int) -> Word:
    """E_{n-1} E_{n-3} ...: one contraction per declared arc."""
    return tuple(("E", n - 1 - 2 * j) for j in range(arcs))


@dataclass(frozen=True)
class CellularWord:
    """A cellular basis element as its declared factors, left word ·
    middle factor sums · right word, with its cell data.  It is evaluated
    from those factors and never expanded into words."""

    left_word: Word
    middle: tuple[WordSum, ...]
    right_word: Word
    arcs: int
    shape: Multipartition
    left: tuple
    right: tuple

    def star(self) -> "CellularWord":
        """The anti-involution: the starred factors in reverse order."""
        return CellularWord(star_word(self.right_word),
                            tuple(star_word_sum(f) for f in reversed(self.middle)),
                            star_word(self.left_word), self.arcs, self.shape,
                            self.right, self.left)


def cellular_element(ps: ParamSet, n: int, arcs: int, shape: Multipartition,
                     left: tuple, right: tuple) -> CellularWord:
    """The basis element for a (left, right) pair of cell triples, as
    factors: starred placement and powers, the contraction chain and the
    starred coset word of the left tableau make the left word; the middle
    is the Murphy middle of the shape; the right coset word, the right
    powers and placement make the right word.  X powers ride the odd
    positions n-1, n-3, ... in decreasing order.  Nothing is expanded."""
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
    s_word, middle, t_word = murphy_factors(ps, shape, s, t)
    return CellularWord(pre + s_word, middle, t_word + post, arcs, shape,
                        (s, tuple(rho), e), (t, tuple(kappa), d))


# -- rank and compatibility checks ---------------------------------------


def _rank_from_vecs(vecs) -> dict:
    """Exact rank over Q of a family of sparse rational vectors."""
    return {"count": len(vecs), "rank": _linalg.rank(vecs)}


def cellular_rank_report(ps: ParamSet, n: int) -> dict:
    """Counts and exact rank of the full cellular family at (r, n).

    Each element of a cell is A · M · B on every block.  The middle M is
    evaluated once per cell as the product of its factors, A · M once per
    left word and B once per right word, so each of the |triples|^2 vectors
    takes one block product."""
    r = ps.r
    target = r ** n * combinat.double_factorial(2 * n - 1)
    real = Realization(seminormal.build_all(ps, n))
    cells = []
    vecs = []
    total = 0
    for arcs in range(n // 2 + 1):
        for shape in combinat.multipartitions(r, n - 2 * arcs):
            triples = cell_triples(r, n, arcs, shape)
            cells.append({"arcs": arcs, "shape": [list(p) for p in shape],
                          "members": len(triples)})
            total += len(triples) ** 2
            # the middle is the cell's; A·M and B are kept by their words
            m, am_of, b_of = None, {}, {}
            for a in triples:
                for b in triples:
                    cw = cellular_element(ps, n, arcs, shape, a, b)
                    if m is None:
                        m = real.evaluate_product(cw.middle)
                    if cw.left_word not in am_of:
                        am_of[cw.left_word] = mul_blocks(real.evaluate(cw.left_word), m)
                    if cw.right_word not in b_of:
                        b_of[cw.right_word] = real.evaluate(cw.right_word)
                    vecs.append(real.vec(mul_blocks(am_of[cw.left_word],
                                                     b_of[cw.right_word])))
    report = _rank_from_vecs(vecs)
    report["target"] = target
    report["sum_of_squares"] = total
    report["ok"] = total == target and report["rank"] == target
    report["cells"] = cells
    return report


def contraction_murphy_commute_residual(ps: ParamSet, n: int, arcs: int,
                                        shape: Multipartition,
                                        real: Realization | None = None) -> Fraction:
    """Worst |chain·M - M·chain| over all Murphy products of the cell."""
    if real is None:
        real = Realization(seminormal.build_all(ps, n))
    chain = contraction_chain(n, arcs)
    tabs = combinat.standard_tableaux(shape)
    worst = Fraction(0)
    e = real.evaluate(chain)
    for s in tabs:
        for t in tabs:
            m = real.evaluate_product(_word_sums(*murphy_factors(ps, shape, s, t)))
            worst = max(worst, *block_residuals(mul_blocks(e, m), mul_blocks(m, e)))
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
        real = Realization(seminormal.build_all(ps, n))
    blk = real.block_index(shape)
    zero = (0,) * arcs
    ident = tuple(range(1, n + 1))

    def triv(x):
        return (x, zero, ident)

    evaluated = {}
    for a in tabs:
        for b in tabs:
            cw = cellular_element(ps, n, arcs, shape, triv(a), triv(b))
            ev = real.evaluate_product(_word_sums(cw.left_word, cw.middle, cw.right_word))
            evaluated[a, b] = Evaluated(ev.blocks[blk:blk + 1], ev.den)
    worst = Fraction(0)
    scale = ps.omega[0] ** arcs
    for s in tabs:
        for t in tabs:
            for v in tabs:
                gram = hecke.gram_entry(H, mb, shape, t, v)
                lhs = mul_blocks(evaluated[s, t], evaluated[v, s])
                rhs = scaled(evaluated[s, s], scale * gram)
                worst = max(worst, *block_residuals(lhs, rhs))
    return worst
