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

The index triples of each cell (``cell_triples``, on the tableaux that
``hecke.shape_words`` holds) and the word of each placement permutation
(``_placement_word``) do not depend on the roots, so each is formed once
per process in a ``functools.cache`` table keyed by root-free arguments
alone; the tables grow with the cells at the sizes a batch runs, not with
the number of jobs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import _linalg, combinat, seminormal
from .combinat import Multipartition, Word, word_for_permutation
from .hecke import WordSum, murphy_factors, shape_words
from .params import ParamSet
from .seminormal import Realization, mul


# -- cellular structure --------------------------------------------------


@functools.cache
def cell_triples(r: int, n: int, arcs: int, shape: Multipartition) -> tuple[tuple, ...]:
    """(tableau, powers, placement) triples indexing one cell, the tableaux
    those of ``hecke.shape_words``; formed once per cell and held for the
    process, since they do not depend on the roots."""
    if combinat.mp_size(shape) != n - 2 * arcs:
        raise ValueError("shape size must be the strand count minus two per arc")
    powers = list(itertools.product(range(r), repeat=arcs))
    placements = combinat.coset_reps(n, arcs)
    return tuple((t, k, d) for t in shape_words(shape).tableaux
                 for k in powers for d in placements)


@functools.cache
def _placement_word(d: tuple[int, ...]) -> Word:
    """The word of a placement permutation, formed once per permutation and
    held for the process."""
    return word_for_permutation(d)


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
    pre = _placement_word(e)[::-1]
    pre += tuple(("X", n - 1 - 2 * j, a) for j, a in enumerate(rho) if a)
    pre += contraction_chain(n, arcs)
    post = tuple(("X", n - 1 - 2 * j, a) for j, a in enumerate(kappa) if a)
    post += _placement_word(d)
    s_word, middle, t_word = murphy_factors(ps, shape, s, t)
    return CellularWord(pre + s_word, middle, t_word + post, arcs, shape,
                        (s, tuple(rho), e), (t, tuple(kappa), d))


# -- rank ----------------------------------------------------------------


def _rank_from_vecs(vecs) -> dict:
    """Exact rank over Q of a family of sparse rational vectors."""
    return {"count": len(vecs), "rank": _linalg.rank(vecs)}


def cellular_rank_report(ps: ParamSet, n: int) -> dict:
    """Counts and exact rank of the full cellular family at (r, n).

    Each element of a cell is A · M · B on the realization, and its left word
    depends only on its left triple, its right word only on its right
    triple.  So the factors are made once per triple, as the element (a, a);
    the middle M, the cell's, is evaluated once, A · M and B once per
    triple, and each of the |triples|^2 vectors takes one matrix product."""
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
            diagonal = [cellular_element(ps, n, arcs, shape, a, a) for a in triples]
            m = real.evaluate_product(diagonal[0].middle)
            am = [mul(real.evaluate(cw.left_word), m) for cw in diagonal]
            b = [real.evaluate(cw.right_word) for cw in diagonal]
            vecs.extend(real.vec(mul(x, y)) for x in am for y in b)
    report = _rank_from_vecs(vecs)
    report["target"] = target
    report["sum_of_squares"] = total
    report["ok"] = total == target and report["rank"] == target
    report["cells"] = cells
    return report
