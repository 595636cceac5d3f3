"""The degenerate cyclotomic quotient on permutations: exact normal forms,
the Murphy basis, and Gram determinants.

An element (``Element``) is int coefficients over one positive
denominator, as in the seminormal model: a dict mapping the index of a
normal-form monomial (alpha, w) to a nonzero int, where alpha is an n-tuple
of exponents with 0 <= alpha_j < r and w is a one-line permutation, so the
monomial stands for Y_1^{alpha_1} ... Y_n^{alpha_n} T_w, and the
denominator of them all.  The index is the monomial's position in the
algebra's list of all r^n n! of them (``HeckeAlgebra.keys``), which is the
column order of the Murphy matrix too, so no element is keyed by a tuple
and no coordinate lookup hashes one.  All rewriting is exact and on ints:
no Fraction is made inside it, and no floats appear anywhere in this
module.

Elements are made from the same generator words that
``seminormal.Realization`` evaluates: ``act`` applies a word on the right,
("S", i) as T_i and ("X", j, a) as Y_j^a, ``act_sum`` a word sum, merging
a word of S letters alone straight into the sum as relabelled keys, and
``act_factors`` the factors of a product (left word, middle word sums,
right word); no two elements are multiplied.  The Murphy product is
written once, as its factors (``murphy_factors``).  Y_1 is reduced with
the coefficients of the cyclotomic relation in ``seminormal.relations``
(``cyclotomic_coeffs``); with its E terms dropped, that table of relations
holds here, as do the commutations of distant letters it leaves out.  The
row-stabilizer sum of M_lambda is held as coset factors
(``_row_factors``), which both evaluators take as a product.

The image of a key times Y_j depends only on the key, j and the roots, so
the algebra reduces it once and holds it as (index, coefficient) pairs:
``rmul_Y`` only scales and adds held images.  The reduction is linear, so
the reduction of each unit monomial it meets inside is held too and
multiplied by the coefficient.  ``murphy_basis`` hangs the basis, and with
it one algebra, on the parameter set (``ParamSet.murphy``), so the basis
build and every Gram matrix at that parameter set share them.  T_i moves
no coefficient: on the right it swaps the values i and i + 1 of w, on the
left the entries at positions i and i + 1; ``act`` composes each maximal
run of S letters into one permutation p and maps each index through p's
table.

A Gram matrix of lambda applies M_lambda to the d^2 inputs
M_lambda T_{d(s)} T_{d(t)}*, which repeat on the diagonal and across the
cosets of the Young subgroup; ``gram_matrix`` evaluates M_lambda once per
distinct input (over every shape, 24 for the 48 pairs at r = 2, n = 3 and
116 for 384 at r = 2, n = 4), checks every coordinate of each product on
ints and forms a Fraction at the corner alone.

What is read apart from the roots is held for the process, in
``functools.cache`` tables, so a new parameter set pays only for what its
roots fix.  Per (r, n) (``key_tables``): the key list and its index, the
table of each p, and each key times Y_j with Y_j pushed left through T_w,
before the reduction.  Per shape: its standard tableaux, their coset words
and starred coset words and the coset factors of the row-stabilizer sum of
M_lambda (``shape_words``, which ``wcell`` reads too), and, for gram jobs
only, the descent edges of each tableau and the shapes that dominate it
(``_order``).  A batch forms them at a size's or shape's first job,
whatever the roots; they grow with the sizes and shapes a batch runs, not
with the number of jobs.

The Gram determinant of lambda is checked against the product of the
gamma coefficients of its standard tableaux (``gamma_coeffs``), each the
product of the step factors of its steps (``params.gamma``), the factors
for which ``seminormal.check_identities`` certifies the model
self-adjoint.  The descent ratios gamma(t) / gamma(s) are a
second derivation, which ``gamma_path_independent`` compares with the
products.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import _linalg, combinat, params
from .combinat import (Multipartition, Tableau, Word, perm_inverse, perm_word,
                       word_for_permutation)
from .params import ParamSet, cleared, clearing, contents, cyclotomic_coeffs

Key = tuple[tuple[int, ...], tuple[int, ...]]
WordSum = tuple[tuple[Fraction, Word], ...]


class Element(NamedTuple):
    """An element of the quotient: the nonzero int coefficients ``terms`` by
    monomial index (a position in ``HeckeAlgebra.keys``), all over the one
    positive denominator ``den``.  Every element a method returns has
    gcd(den, every coefficient) = 1 (zero is ({}, 1)), so == is equality of
    elements."""

    terms: dict
    den: int


def _merge(out: dict, key: Key, c: int):
    """out[key] += c, storing no zero."""
    v = out.get(key)
    if v is None:
        if c:
            out[key] = c
        return
    v += c
    if v:
        out[key] = v
    else:
        del out[key]


def _swap_values(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    """w s_i: w with its values i and i + 1 swapped."""
    out = list(w)
    out[w.index(i)], out[w.index(i + 1)] = i + 1, i
    return tuple(out)


def _swap_positions(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i w (or s_i alpha): w with its entries at positions i and i + 1
    swapped."""
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def _canonical(terms: dict, den: int) -> Element:
    """The element terms / den, with its zero coefficients dropped and the
    common factor of den and every coefficient divided out."""
    terms = {i: c for i, c in terms.items() if c}
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {i: c // g for i, c in terms.items()}
            den //= g
    return Element(terms, den)


@functools.cache
def key_tables(r: int, n: int) -> tuple:
    """(id, keys, key_index, relabels, pushes): what every algebra at (r, n)
    reads that the roots do not fix, held for the process from the first;
    the last two are filled by ``HeckeAlgebra._relabel`` and ``_push``."""
    id_ = tuple(range(1, n + 1))
    keys = [(alpha, w) for alpha in itertools.product(range(r), repeat=n)
            for w in itertools.permutations(id_)]
    return id_, keys, {key: i for i, key in enumerate(keys)}, {}, {}


class HeckeAlgebra:
    """Exact arithmetic in the quotient where (Y_1 - u_1)...(Y_1 - u_r) = 0.

    ``keys`` lists the r^n n! normal-form monomials (alpha, w), alpha
    before w, indexed by ``key_index``, both from ``key_tables(r, n)``.  The
    coefficients of that relation below Y_1^r are cleared once to ints
    ``cyc`` over their lcm ``Q``, which can exceed the roots' own
    denominator.  ``act``, ``act_sum``, ``act_factors`` and ``rmul_Y`` take
    and return an ``Element``; ``_push``, ``lmul_T`` and ``_reduce`` rewrite
    int terms keyed by the monomials themselves, and ``_y_image`` converts
    each reduced image to indices once, as it is held.  No method writes
    into its input's terms or into a held entry, and every value is an int."""

    def __init__(self, ps: ParamSet, n: int):
        if not ps.u:
            raise ValueError("the quotient needs the roots u")
        self.ps = ps
        self.n = n
        self.r = ps.r
        # prod (Y - u_i) = Y^r + (cyc[r-1] Y^{r-1} + ... + cyc[0]) / Q
        cyc = cyclotomic_coeffs(ps.u)[:-1]
        self.Q = clearing(cyc)
        self.cyc = cleared(cyc, self.Q)
        self.id, self.keys, self.key_index, self._relabels, self._pushes = key_tables(
            self.r, n)
        # (i, j) -> key i times Y_j in normal form, as (index, coefficient)
        # pairs, filled on first use
        self._y_images: dict = {}
        # a unit monomial Y_{m-1}^p T_w -> T_{m-1} times its reduction, on
        # monomial keys, filled by _reduce
        self._units: dict = {}

    def one(self) -> Element:
        return Element({self.key_index[(0,) * self.n, self.id]: 1}, 1)

    # -- ring operations ---------------------------------------------------

    def _relabelled(self, terms: dict, p: tuple[int, ...]):
        """The (index, c) pairs of int terms times T_p: each index moves
        through the relabelling table of p (``_relabel``)."""
        if p is self.id:
            return terms.items()
        return zip(map(self._relabel(p).__getitem__, terms), terms.values())

    def _relabel(self, p: tuple[int, ...]) -> list[int]:
        """The table of T_p on the right, held per p in ``key_tables``: at
        the index of each key (alpha, w), the index of (alpha, w p), each
        value v of w relabelled as p(v).  Keys run through the permutations
        for each alpha in turn, so the table is one block of n! per alpha."""
        table = self._relabels.get(p)
        if table is None:
            size = math.factorial(self.n)
            zero = self.keys[0][0]
            moved = [self.key_index[zero, tuple([p[v - 1] for v in w])]
                     for _, w in self.keys[:size]]
            table = self._relabels[p] = [a + x for a in range(0, len(self.keys), size)
                                         for x in moved]
        return table

    def rmul_Y(self, el: Element, j: int) -> Element:
        """Multiply by Y_j on the right: each key's image (``_y_image``) is
        multiplied by its coefficient and brought to the largest power of Q
        met, and the sum is put in canonical form."""
        images = [(c, *self._y_image(i, j)) for i, c in el.terms.items()]
        top = max((e for _, _, e in images), default=0)
        out: dict = {}
        for c, image, e in images:
            f = c * self.Q ** (top - e)
            for i, x in image:
                v = out.get(i)
                out[i] = f * x if v is None else v + f * x
        return _canonical(out, el.den * self.Q ** top)

    def _y_image(self, i: int, j: int) -> tuple[tuple, int]:
        """(pairs, e): key i times Y_j in normal form, as (index, int)
        pairs over Q^e, held for every later call with the same i and j."""
        image = self._y_images.get((i, j))
        if image is None:
            terms, e = self._straighten(self.keys[i], j)
            index = self.key_index
            image = self._y_images[i, j] = (
                tuple([(index[key], c) for key, c in terms.items()]), e)
        return image

    def _straighten(self, key: Key, j: int) -> tuple[dict, int]:
        """Y^alpha T_w Y_j: Y_j pushed left through T_w (``_push``), reduced."""
        return self._reduce(self._push(key, j))

    def _push(self, key: Key, j: int) -> dict:
        """Y^alpha T_w Y_j with Y_j pushed left through T_w, as +-1 terms on
        monomial keys, an exponent possibly r: root-free, so held in
        ``key_tables`` by the key and the j asked for.  The reduced word of w
        is scanned right to left, ``after`` the permutation of the letters
        past the scan: a step that drops the letter i and the Y factor swaps
        the values after[i - 1] and after[i] of w."""
        pushed = self._pushes.get((key, j))
        if pushed is not None:
            return pushed
        alpha, w = key
        out: dict = {}
        after, k = list(self.id), j
        for i in reversed(perm_word(w)):
            if k == i or k == i + 1:
                a, b = after[i - 1], after[i]
                _merge(out, (alpha, tuple([b if v == a else a if v == b else v for v in w])),
                       -1 if k == i else 1)
                k = 2 * i + 1 - k
            after[i - 1], after[i] = after[i], after[i - 1]
        na = list(alpha)
        na[k - 1] += 1
        _merge(out, (tuple(na), w), 1)
        self._pushes[key, j] = out
        return out

    def lmul_T(self, terms: dict, i: int) -> dict:
        """Multiply int terms by T_i on the left, over their denominator, via
        the divided-difference rule:
        T_i Y^b T_v = Y^{s_i b} T_{s_i v} - (difference quotient) T_v."""
        out: dict = {}
        for (alpha, w), c in terms.items():
            _merge(out, (_swap_positions(alpha, i), _swap_positions(w, i)), c)
            a, b = alpha[i - 1], alpha[i]
            sign = 1 if a < b else -1  # no correction term when a == b
            for q in range(min(a, b), max(a, b)):
                na = list(alpha)
                na[i - 1], na[i] = q, a + b - 1 - q
                _merge(out, (tuple(na), w), sign * c)
        return out

    def _reduce(self, terms: dict) -> tuple[dict, int]:
        """Rewrite int terms until every exponent is below r, largest
        position first.  Each substitution Y_1^p -> -sum_j (cyc[j] / Q)
        Y_1^{p-r+j} adds one power of Q to its term's denominator; the
        result is (out, e): int terms over Q^e, every term brought to the
        largest power e met.  The rewriting is linear, so the inner
        monomial Y_{m-1}^p T_u of each step at m > 1 is reduced, times
        T_{m-1}, once per algebra with coefficient 1 and held (``_units``),
        and each term scales the held image by its coefficient."""
        by_power: dict[int, dict] = {}
        work = [(alpha, w, c, 0) for (alpha, w), c in terms.items()]
        while work:
            alpha, w, c, e = work.pop()
            m = next((p for p in range(self.n, 0, -1)
                      if alpha[p - 1] >= self.r), None)
            if m is None:
                _merge(by_power.setdefault(e, {}), (alpha, w), c)
                continue
            p = alpha[m - 1]
            if m == 1:
                for j, cj in enumerate(self.cyc):
                    if cj:
                        work.append(((p - self.r + j,) + alpha[1:], w, -c * cj, e + 1))
                continue
            ahat = list(alpha)
            ahat[m - 1] = 0
            uperm = _swap_positions(w, m - 1)
            for l in range(p):
                na = list(ahat)
                na[m - 1] += l
                na[m - 2] += p - 1 - l
                work.append((tuple(na), uperm, c, e))
            inner_alpha = [0] * self.n
            inner_alpha[m - 2] = p
            unit = (tuple(inner_alpha), uperm)
            held = self._units.get(unit)
            if held is None:
                inner, ie = self._reduce({unit: 1})
                held = self._units[unit] = (tuple(self.lmul_T(inner, m - 1).items()), ie)
            inner, ie = held
            for (ia, iw), ic in inner:
                na = tuple(x + y for x, y in zip(ahat, ia))
                work.append((na, iw, c * ic, e + ie))
        top = max(by_power, default=0)
        if len(by_power) <= 1:
            return by_power.get(top, {}), top
        out: dict = {}
        for e, part in by_power.items():
            f = self.Q ** (top - e)
            for key, c in part.items():
                _merge(out, key, c * f)
        return out, top

    def act(self, el: Element, word: Word) -> Element:
        """el times the word on the right: ("S", i) is T_i and ("X", j, a)
        is Y_j^a.  E letters have no image here.  A maximal run of S
        letters is one permutation p (``_s_run``), and T_p maps each key
        (alpha, w) to (alpha, w p), one lookup per term in the table of p
        (``_relabel``), so the run takes one pass over the terms; no two
        terms meet.  At the algebra's own ``id`` el is kept as it is."""
        k = 0
        while True:
            p, k = self._s_run(word, k)
            if p is not self.id:
                el = Element(dict(self._relabelled(el.terms, p)), el.den)
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
        range that starts at word[k], w s_i for each letter i, and the index
        just past the run."""
        p = self.id
        while k < len(word) and word[k][0] == "S" and 1 <= word[k][1] <= self.n - 1:
            p = _swap_values(p, word[k][1])
            k += 1
        return p, k

    def act_sum(self, el: Element, terms: WordSum) -> Element:
        """el times the word sum ``terms``: each word's element is multiplied
        by its coefficient's numerator, over its den times the coefficient's
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
            for i, c in self._relabelled(part, p):
                v = out.get(i)
                out[i] = f * c if v is None else v + f * c
        return _canonical(out, den)

    def act_factors(self, el: Element, left: Word, middle, right: Word) -> Element:
        """el times the product of a left word, the word sums ``middle`` and
        a right word, applied in that order."""
        return self.act(functools.reduce(self.act_sum, middle, self.act(el, left)), right)


# ---------------------------------------------------------------------------
# the cell-style basis from row-symmetrized products
# ---------------------------------------------------------------------------


class ShapeWords(NamedTuple):
    """What the Murphy basis reads of a shape that the roots do not fix:
    its standard tableaux (in ``combinat.standard_tableaux`` order), the
    starred coset word and the coset word of each, T_{d(t)}* and T_{d(t)}
    by tableau, and the row-stabilizer sum of M_lambda as the coset
    factors of its rows (``_row_factors``).  One instance per shape is
    shared by every caller, so none writes into ``words``."""

    tableaux: tuple[Tableau, ...]
    words: dict
    row_factors: tuple[WordSum, ...]


def _row_factors(lam: Multipartition) -> tuple[WordSum, ...]:
    """The row-stabilizer sum of t^lambda as a product of coset sums.  Each
    row, on the entries p, ..., p + k - 1, is the sum over S_k, which is
    C_2 C_3 ... C_k with C_j = 1 + s_{j-1} + s_{j-1} s_{j-2} + ... +
    s_{j-1} ... s_1 (indices shifted by p - 1): a word of S_{j-1} times one
    of the j coset representatives gives each permutation once.  So a row
    takes k(k+1)/2 - 1 words instead of k!, and a row of one box none.
    Rows act on disjoint entries, so their factors commute."""
    factors = []
    p = 1
    for row in (row for part in lam for row in part):
        for j in range(2, row + 1):
            top = p + j - 2
            factors.append(tuple((Fraction(1), tuple(("S", top - i) for i in range(m)))
                                 for m in range(j)))
        p += row
    return tuple(factors)


@functools.cache
def shape_words(lam: Multipartition) -> ShapeWords:
    """The root-free words of lam, formed on its first call and held for the
    process, so a batch forms them once per shape and not once per root set."""
    tableaux = tuple(combinat.standard_tableaux(lam))
    words = {}
    for t in tableaux:
        d = combinat.d_perm(t)
        words[t] = (word_for_permutation(perm_inverse(d)), word_for_permutation(d))
    return ShapeWords(tableaux, words, _row_factors(lam))


def murphy_middle(ps: ParamSet, shape: Multipartition) -> tuple[WordSum, ...]:
    """M_lambda as word sums: one root-shifted X_k - u_i for each 1 <= i < r
    and k up to the size of the first i components, then the held coset
    factors of the row-stabilizer sum."""
    sizes = [sum(p) for p in shape]
    middle = tuple(((Fraction(1), (("X", k, 1),)), (-ps.u[i], ()))
                   for i in range(1, ps.r) for k in range(1, sum(sizes[:i]) + 1))
    return middle + shape_words(shape).row_factors


def murphy_factors(ps: ParamSet, shape: Multipartition, s: Tableau,
                   t: Tableau) -> tuple[Word, tuple[WordSum, ...], Word]:
    """The Murphy product of (s, t) as its factors T_{d(s)}*, M_lambda, T_{d(t)}."""
    words = shape_words(shape).words
    return words[s][0], murphy_middle(ps, shape), words[t][1]


class MurphyBasis:
    """All basis elements indexed by (shape, s, t), with exact coordinates.

    The coordinate matrix is square of size r^n n! (``keys``), and the
    change of basis being invertible is exactly the spanning/independence
    statement.  Each element applies the coset word of t to T_{d(s)}* ·
    M_lambda, which is made once per s, from the shape's ``shape_words``.
    """

    def __init__(self, H: HeckeAlgebra):
        self.H = H
        self.keys = H.keys
        self.triples = []
        self.elements = []
        for lam in combinat.multipartitions(H.r, H.n):
            shape = shape_words(lam)
            middle = murphy_middle(H.ps, lam)
            for s in shape.tableaux:
                left = H.act_factors(H.one(), shape.words[s][0], middle, ())
                for t in shape.tableaux:
                    self.triples.append((lam, s, t))
                    self.elements.append(H.act(left, shape.words[t][1]))
        self.triple_index = {tr: i for i, tr in enumerate(self.triples)}
        # row i holds the int terms of element i, by key index: the element
        # times its den, read and never written
        self.matrix = [el.terms for el in self.elements]

    @functools.cached_property
    def _inv(self) -> tuple[int, list[dict]]:
        """(D, rows): the inverse of ``matrix`` as int rows over one positive
        denominator D in lowest terms, as ``_linalg.inverse`` returns it,
        formed on the first ``coords`` call."""
        return _linalg.inverse(self.matrix)

    def coords(self, el: Element) -> tuple[dict, int]:
        """(x, den): the nonzero coordinates of el by triple index, as ints
        over one positive denominator, not reduced: sum_j (x_j / den)
        elements[j] = el.  Row j of ``matrix`` is element j times its den
        d_j, so the int row product v of el's terms with the int inverse
        rows (``_inv``) of their indices gives x_j = v_j d_j over den =
        D·el.den; no Fraction is formed."""
        D, inv = self._inv
        acc: dict = {}
        for i, c in el.terms.items():
            for j, y in inv[i].items():
                x = acc.get(j)
                acc[j] = c * y if x is None else x + c * y
        els = self.elements
        return {j: x * els[j].den for j, x in acc.items() if x}, D * el.den


def murphy_basis(ps: ParamSet, n: int) -> MurphyBasis:
    """The Murphy basis of the quotient on n strands at ps, held by ps
    (``ps.murphy``): the basis and its coordinate inverse depend only on
    (u, n), so a run of jobs at the parameter set that ``ParamSet.from_u``
    holds builds them once."""
    mb = ps.murphy.get(n)
    if mb is None:
        mb = ps.murphy[n] = MurphyBasis(HeckeAlgebra(ps, n))
    return mb


# ---------------------------------------------------------------------------
# Gram forms and the product formula for their determinants
# ---------------------------------------------------------------------------


class _Order(NamedTuple):
    """The dominance data of a shape that ``gamma_coeffs`` and
    ``gram_matrix`` read: the descent edges (k, t) of each standard s, where
    t is s with steps k and k+1 swapped, one dominance step below s, and
    the shapes of lam's size that dominate lam.  Shared like
    ``ShapeWords``: no caller writes into ``descents``."""

    descents: dict
    above: frozenset


@functools.cache
def _order(lam: Multipartition) -> _Order:
    """lam's dominance data, formed on its first call and held for the
    process; it does not depend on the roots.  Only gram jobs read it."""
    descents = {}
    for s in shape_words(lam).tableaux:
        edges = []
        for k in range(1, len(s)):
            t = combinat.sk_action(s, k)
            if t is not None and t != s and combinat.dominance_std(s, t):
                edges.append((k, t))
        descents[s] = tuple(edges)
    above = frozenset(mu for mu in combinat.multipartitions(len(lam), combinat.mp_size(lam))
                      if combinat.dominance_mp(mu, lam))
    return _Order(descents, above)


def _equal_contents(lam, k: int) -> ValueError:
    """The regime error of a zero content gap at steps k and k+1 of lam."""
    return ValueError(f"equal adjacent contents at k={k} in shape {lam}: "
                      "gamma undefined, parameters not generic")


def _descents(lam, s, ps: ParamSet):
    """(t, gamma(t) / gamma(s)) for each held descent edge (k, t) of s:
    (d + 1)(d - 1) / d^2 for the difference d of the contents of steps k
    and k+1, read as ints over q from the step table."""
    q, C = ps.q, contents(ps, s)
    for k, t in _order(lam).descents[s]:
        # the content difference d is D / q
        D = C[k - 1] - C[k]
        if D == 0:
            raise _equal_contents(lam, k)
        yield t, Fraction((D + q) * (D - q), D * D)


def gamma_coeffs(lam, ps: ParamSet) -> dict:
    """gamma for every standard tableau t of lam, in ``shape_words`` order,
    normalised so that the Gram determinant of lam is their product: the
    product of the step factors F of its steps (``params.gamma``), the step
    factors ``seminormal.check_identities`` reads.  The contents at the held
    descents of every tableau are compared first, as ints: equal adjacent
    contents end in their ValueError, which names the condition, k and the
    shape, before a product can meet the zero factor they bring."""
    tableaux, descents = shape_words(lam).tableaux, _order(lam).descents
    for s in tableaux:
        C = contents(ps, s)
        for k, _ in descents[s]:
            if C[k - 1] == C[k]:
                raise _equal_contents(lam, k)
    return {t: params.gamma(ps, t) for t in tableaux}


def gamma_path_independent(lam, ps: ParamSet, gamma: dict) -> bool:
    """Every held descent ratio (``_descents``) carries ``gamma``, as
    ``gamma_coeffs`` returns it, from each tableau to the one a dominance
    step below: the closed products checked against a second derivation."""
    return all(gamma[t] == ratio * gs for s, gs in gamma.items()
               for t, ratio in _descents(lam, s, ps))


def _input_key(el: Element):
    """What a Gram product depends on: its input element, by its terms and den."""
    return el.den, frozenset(el.terms.items())


def gram_matrix(mb: MurphyBasis, lam) -> list[dict]:
    """The cell form on the standard tableaux of lam, as sparse rows: entry
    <m_s, m_t> is the coordinate at m_{t^lam t^lam} of m_{t^lam s} times the
    factors of m_{t t^lam}, in the algebra ``mb.H``.  The input of the
    product, m_{t^lam s} T_{d(t)}* = M_lam T_{d(s)} T_{d(t)}*, is the same
    element on the diagonal and across a coset of the Young subgroup, so
    M_lam is evaluated once per distinct input (``_input_key``) and every
    pair with that input reads its entry.  Every nonzero coordinate of each
    product is checked on ints, and only the corner one becomes a Fraction
    (``_corner``).  M_lam is formed once per matrix.  The basis elements are
    only read, so a held basis stays as built."""
    H = mb.H
    tl = combinat.t_lambda(lam)
    shape, above = shape_words(lam), _order(lam).above
    # the factors of m_{t tl} after T_{d(t)}*, with M_lam formed once
    middle, right = murphy_middle(H.ps, lam), shape.words[tl][1]
    corner = mb.triple_index[lam, tl, tl]
    entries: dict = {}
    rows = []
    for s in shape.tableaux:
        left = mb.elements[mb.triple_index[lam, tl, s]]
        row = {}
        for j, t in enumerate(shape.tableaux):
            x = H.act(left, shape.words[t][0])
            key = _input_key(x)
            c = entries.get(key)
            if c is None:
                product = H.act_factors(x, (), middle, right)
                c = entries[key] = _corner(mb, lam, corner, above, product)
            if c:
                row[j] = c
        rows.append(row)
    return rows


def _corner(mb: MurphyBasis, lam, corner: int, above: frozenset, el: Element):
    """The coordinate of el at the corner m_{t^lam t^lam}, or 0, once every
    nonzero coordinate is checked: at lam only the corner, elsewhere only
    shapes that dominate lam."""
    x, den = mb.coords(el)
    for idx in x:
        mu, a, b = mb.triples[idx]
        if mu == lam:
            if idx != corner:
                raise AssertionError(
                    f"product not proportional to the corner element: "
                    f"coordinate at ({a}, {b})")
        elif mu not in above:
            raise AssertionError(f"product escapes upward to {mu}")
    c = x.get(corner)
    return Fraction(c, den) if c else 0


def gram_det(mb: MurphyBasis, lam) -> Fraction:
    return _linalg.det(gram_matrix(mb, lam))
