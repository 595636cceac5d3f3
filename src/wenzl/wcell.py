"""Cellular words and their certified rank on the realization.

In the generic regime the algebra acts faithfully on the direct sum of its
seminormal modules, so exact rank over Q on that rational realization
(``seminormal.Realization``, the one on which ``verify`` checks the defining
relations) certifies the independence of the cellular family, which would
otherwise need a symbolic normal form.  Words are generator words as in
``combinat``; linear combinations of words are tuples of (coefficient,
word) pairs.  A cellular basis element keeps its factors (left word, Murphy
middle, right word) and is evaluated from them, never expanded into words;
its middle comes from ``hecke.murphy_factors``, the factors from which the
Hecke quotient makes its Murphy basis, and its words from ``cell_words``.

The rank is proved cell by cell, never by eliminating the whole family.
The realization has one block per cell c = (f, lambda), lambda's model, and
every element of c is zero off the blocks of c's support.  Order the cells
so that c comes before c' whenever lambda' is in the support of c.  Then
the family's matrix, rows by cell and columns by block in that order, is
block upper triangular, and its diagonal block for c is the elements of c
on c's own block.  A block upper triangular matrix has rank at least the
sum of the ranks of its diagonal blocks.  Take from each cell as many rows
as its diagonal block's rank, independent on that block.  A combination of
them that vanishes vanishes on the first block column, where only the
first cell's rows are nonzero, so their coefficients are 0; then on the
second, and so on down the order.  The report's ``rank`` is that sum, a
proven lower bound; when it equals the count r^n (2n-1)!!, it is the
rank, and the family is free.  A job ends in an error naming the
condition and the cell, instead of a rank that nothing proves, when the
supports form a cycle, so that no such order exists; when a cell's own
block is outside its support; or when its own block does not factor as
u_a w^T, the form from which its block rank is read.

Each factor is evaluated once per job.  A cell's middle is one product
of word sums, and the realization holds the product of each prefix
(``Realization.evaluate_product``), so the cells share the root-shift
factors X_k - u_i at the head of their middles and the coset factors of
the rows they have in common.  Each left word is taken to the middle one
stacked letter at a time from its right end, and each right word to the
row w from its left end (``Realization.words_times``, ``times_words``):
a letter has few entries per row, so no letter product of the realization's
size is formed, and the words of one tableau, next to each other in the
order of the triples, share the steps of their common end.

The left and right word of each index triple of a cell (``cell_words``,
on the tableaux that ``hecke.shape_words`` holds) do not depend on the
roots, so they are formed once per process in one ``functools.cache``
table per cell, keyed by root-free arguments alone, and the cell's
triples are its keys; the table grows with the cells at the
sizes a batch runs, not with the number of jobs.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
from typing import NamedTuple

from . import _linalg, combinat, seminormal
from .combinat import Multipartition, Word, word_for_permutation
from .hecke import WordSum, murphy_factors, shape_words
from .params import ParamSet
from .seminormal import Evaluated, Realization


# -- cellular structure --------------------------------------------------


def contraction_chain(n: int, arcs: int) -> Word:
    """E_{n-1} E_{n-3} ...: one contraction per declared arc."""
    return tuple(("E", n - 1 - 2 * j) for j in range(arcs))


@functools.cache
def cell_words(r: int, n: int, arcs: int, shape: Multipartition) -> dict:
    """(left word, right word) of each triple (tableau, powers, placement)
    of the cell, by triple: the tableaux in ``hecke.shape_words`` order,
    then the powers, then the placements.  The starred placement and
    powers, the contraction chain and the starred coset word of the tableau
    make the left word; the coset word, the powers and the placement make
    the right word.  X powers ride the odd positions n-1, n-3, ... in
    decreasing order.  Formed once per cell and held for the process, since
    they do not depend on the roots; the cell's one held table."""
    if combinat.mp_size(shape) != n - 2 * arcs:
        raise ValueError("shape size must be the strand count minus two per arc")
    tableau_words = shape_words(shape).words
    chain = contraction_chain(n, arcs)
    placements = combinat.coset_reps(n, arcs)
    words = {}
    for t in shape_words(shape).tableaux:
        for k in itertools.product(range(r), repeat=arcs):
            powers = tuple(("X", n - 1 - 2 * j, a) for j, a in enumerate(k) if a)
            for d in placements:
                placement = word_for_permutation(d)
                words[t, k, d] = (placement[::-1] + powers + chain + tableau_words[t][0],
                                  tableau_words[t][1] + powers + placement)
    return words


class CellularWord(NamedTuple):
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
    factors: the held left word of the left triple and right word of the
    right triple (``cell_words``), and between them the Murphy middle of
    the shape, read from ``murphy_factors``.  Nothing is expanded."""
    s, rho, e = left
    t, kappa, d = right
    if len(rho) != arcs or len(kappa) != arcs:
        raise ValueError("need one power per arc on each side")
    empty = combinat.empty_mp(ps.r)
    if (s[-1] if s else empty) != shape or (t[-1] if t else empty) != shape:
        raise ValueError("tableaux must have the cell's shape")
    left, right = (s, tuple(rho), e), (t, tuple(kappa), d)
    words = cell_words(ps.r, n, arcs, shape)
    left_words, right_words = words.get(left), words.get(right)
    if left_words is None or right_words is None:
        raise ValueError("triples must index the cell (the keys of cell_words)")
    _, middle, _ = murphy_factors(ps, shape, s, t)
    return CellularWord(left_words[0], middle, right_words[1], arcs, shape, left, right)


# -- rank ----------------------------------------------------------------


def _rank_from_vecs(vecs) -> int:
    """Exact rank over Q of a family of sparse rational vectors; a function
    of its own so that its time shows as the benchmark's ``wcell.rank``
    span."""
    return _linalg.rank(vecs)


def _own_factors(blocks, name: str) -> tuple[list[dict], dict]:
    """(u, w) with blocks[a] = u_a w^T for every a: w is the first nonzero
    row of the first nonzero block (one exists, since the own block is in
    the support), and u_a the column of blocks[a] at a nonzero entry of w.
    Every row is checked to be a multiple of w, exactly, by
    cross-multiplication; rows store no zero, so a multiple of w holds its
    columns."""
    w = next(row for blk in blocks for row in blk if row)
    j, wj = next(iter(w.items()))
    us = []
    for blk in blocks:
        for row in blk:
            if row and (row.keys() != w.keys()
                        or any(x * wj != w[k] * row[j] for k, x in row.items())):
                raise ValueError(f"own block of {name} does not factor as u w^T")
        us.append({i: row[j] for i, row in enumerate(blk) if row})
    return us, w


def cellular_rank_report(ps: ParamSet, n: int) -> dict:
    """Counts and certified rank of the full cellular family at (r, n).

    Each element of a cell is A_a · M · B_b on the realization, its left
    word depending only on its left triple and its right word only on its
    right triple, so each triple's two words are read once from
    ``cell_words``, and the cell's middle M is taken from one
    ``cellular_element``, its first triple's with itself, and evaluated
    once per cell from the realization's held prefixes.  X_a = A_a · M is
    taken one letter of A_a at a time, on every block: the blocks where
    some X_a is nonzero are the cell's support, which holds every element
    of the cell.  On the cell's own block each X_a is u_a w^T
    (``_own_factors``), so the element (a, b) is u_a v_b^T there, with
    v_b = w^T B_b taken one letter of B_b at a time, and the cell's block
    rank is rank U times rank V.  The rank is the sum of the block ranks
    once the supports admit an order (see the module docstring)."""
    r = ps.r
    target = r ** n * combinat.double_factorial(2 * n - 1)
    real = Realization(seminormal.build_all(ps, n))
    block_of = [b for b, d in enumerate(real.dims) for _ in range(d)]
    names = {}
    after = {}
    cells = []
    total = rank = 0
    for arcs in range(n // 2 + 1):
        for shape in combinat.multipartitions(r, n - 2 * arcs):
            words = cell_words(r, n, arcs, shape)
            triples = tuple(words)
            cells.append({"arcs": arcs, "shape": [list(p) for p in shape],
                          "members": len(triples)})
            total += len(triples) ** 2
            names[shape] = name = f"cell (arcs={arcs}, shape={shape})"
            first = triples[0]
            m = real.evaluate_product(cellular_element(ps, n, arcs, shape, first, first).middle)
            xs = [x.rows for x in real.words_times([words[a][0] for a in triples], m)]
            support = {real.shapes[block_of[i]] for x in xs for i, row in enumerate(x) if row}
            if shape not in support:
                raise ValueError(f"own block outside the support of {name}")
            after[shape] = support - {shape}
            start, end = real.ranges[real.shapes.index(shape)]
            us, w = _own_factors([x[start:end] for x in xs], name)
            vs = [v.rows[0] for v in real.times_words(
                Evaluated([w], 1), [words[a][1] for a in triples])]
            rank += _rank_from_vecs(us) * _rank_from_vecs(vs)
    try:
        graphlib.TopologicalSorter(after).prepare()
    except graphlib.CycleError as e:
        cycle = " -> ".join(names[shape] for shape in e.args[1])
        raise ValueError(f"the supports form a cycle: {cycle}") from None
    return {"count": total, "rank": rank, "target": target, "sum_of_squares": total,
            "ok": total == target and rank == target, "cells": cells}
