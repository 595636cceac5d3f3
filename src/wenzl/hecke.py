"""The degenerate cyclotomic quotient on permutations: exact normal forms,
the Murphy basis, Gram determinants, and the semisimplicity test.

Elements are dicts mapping (alpha, w) to Fraction, where alpha is an
n-tuple of exponents with 0 <= alpha_j < r and w is a one-line permutation:
the key stands for Y_1^{alpha_1} ... Y_n^{alpha_n} T_w.  All rewriting is
exact; no floats appear anywhere in this module.

Elements are made from the same generator words that
``seminormal.Realization`` evaluates: ``act`` applies a word on the right,
("S", i) as T_i and ("X", j, a) as Y_j^a, and ``act_factors`` applies the
factors of a product (left word, middle word sums, right word); no two
elements are multiplied.  The Murphy product is written once, as its
factors (``murphy_factors``).  Y_1 is reduced with the coefficients of the
cyclotomic relation in ``seminormal.relations`` (``cyclotomic_coeffs``);
with its E terms dropped, that table of relations holds here.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from fractions import Fraction

from . import _linalg, combinat
from .combinat import (Multipartition, Tableau, Word, perm_inverse, perm_mult, perm_word,
                       word_for_permutation)
from .params import ParamSet, cyclotomic_coeffs

Key = tuple[tuple[int, ...], tuple[int, ...]]
Element = dict
WordSum = tuple[tuple[Fraction, Word], ...]


def _merge(out: Element, key: Key, c: Fraction):
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


class HeckeAlgebra:
    """Exact arithmetic in the quotient where (Y_1 - u_1)...(Y_1 - u_r) = 0."""

    def __init__(self, ps: ParamSet, n: int):
        if not ps.u:
            raise ValueError("the quotient needs the roots u")
        self.ps = ps
        self.n = n
        self.r = ps.r
        # prod (Y - u_i) = Y^r + cyc[r-1] Y^{r-1} + ... + cyc[0]
        self.cyc = cyclotomic_coeffs(ps.u)[:-1]
        self.id = tuple(range(1, n + 1))

    def one(self) -> Element:
        return {(((0,) * self.n), self.id): Fraction(1)}

    def _s(self, i: int) -> tuple[int, ...]:
        assert 1 <= i < self.n
        w = list(self.id)
        w[i - 1], w[i] = w[i], w[i - 1]
        return tuple(w)

    # -- ring operations ---------------------------------------------------

    def rmul_T(self, el: Element, i: int) -> Element:
        s = self._s(i)
        out: Element = {}
        for (alpha, w), c in el.items():
            _merge(out, (alpha, perm_mult(w, s)), c)
        return out

    def rmul_Y(self, el: Element, j: int) -> Element:
        """Multiply by Y_j on the right: push Y_j left through each T_w."""
        out: Element = {}
        for (alpha, w), c in el.items():
            word = perm_word(w)
            jj = j
            # scan the reduced word right to left; each straightening step
            # drops the letter and the Y factor at once
            for p in range(len(word) - 1, -1, -1):
                i = word[p]
                if jj == i:
                    rest = word[:p] + word[p + 1:]
                    _merge(out, (alpha, self._perm_of(rest)), -c)
                    jj = i + 1
                elif jj == i + 1:
                    rest = word[:p] + word[p + 1:]
                    _merge(out, (alpha, self._perm_of(rest)), c)
                    jj = i
            na = list(alpha)
            na[jj - 1] += 1
            _merge(out, (tuple(na), w), c)
        return self._reduce(out)

    def _perm_of(self, word) -> tuple[int, ...]:
        w = self.id
        for i in word:
            w = perm_mult(w, self._s(i))
        return w

    def lmul_T(self, el: Element, i: int) -> Element:
        """Multiply by T_i on the left via the divided-difference rule:
        T_i Y^b T_v = Y^{s_i b} T_{s_i v} - (difference quotient) T_v."""
        s = self._s(i)
        out: Element = {}
        for (alpha, w), c in el.items():
            swapped = list(alpha)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            _merge(out, (tuple(swapped), perm_mult(s, w)), c)
            a, b = alpha[i - 1], alpha[i]
            sign = 1 if a < b else -1  # no correction term when a == b
            for q in range(min(a, b), max(a, b)):
                na = list(alpha)
                na[i - 1], na[i] = q, a + b - 1 - q
                _merge(out, (tuple(na), w), sign * c)
        return out

    def _reduce(self, el: Element) -> Element:
        """Rewrite until every exponent is below r, largest position first."""
        out: Element = {}
        work = list(el.items())
        while work:
            (alpha, w), c = work.pop()
            if not c:
                continue
            m = next((p for p in range(self.n, 0, -1)
                      if alpha[p - 1] >= self.r), None)
            if m is None:
                _merge(out, (alpha, w), c)
                continue
            p = alpha[m - 1]
            if m == 1:
                base = (0,) + alpha[1:]
                for j, cj in enumerate(self.cyc):
                    if cj:
                        na = (p - self.r + j,) + base[1:]
                        work.append(((na, w), -c * cj))
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
            inner = self._reduce({(tuple(inner_alpha), uperm): c})
            inner = self.lmul_T(inner, m - 1)
            for (ia, iw), ic in inner.items():
                na = tuple(x + y for x, y in zip(ahat, ia))
                work.append(((na, iw), ic))
        return out

    def act(self, el: Element, word: Word) -> Element:
        """el times the word, letter by letter on the right: ("S", i) is T_i
        and ("X", j, a) is Y_j^a.  E letters have no image here."""
        for letter in word:
            kind = letter[0]
            if kind == "S" and 1 <= letter[1] <= self.n - 1:
                el = self.rmul_T(el, letter[1])
            elif kind == "X" and 1 <= letter[1] <= self.n and letter[2] >= 0:
                for _ in range(letter[2]):
                    el = self.rmul_Y(el, letter[1])
            else:
                raise ValueError(f"letter {letter!r} out of range at n={self.n}")
        return el

    def act_sum(self, el: Element, terms: WordSum) -> Element:
        """el times the word sum ``terms``."""
        out: Element = {}
        for coeff, word in terms:
            for k, c in self.act(el, word).items():
                _merge(out, k, coeff * c)
        return out

    def act_factors(self, el: Element, left: Word, middle, right: Word) -> Element:
        """el times the product of a left word, the word sums ``middle`` and
        a right word, applied in that order."""
        return self.act(functools.reduce(self.act_sum, middle, self.act(el, left)), right)


# ---------------------------------------------------------------------------
# the cell-style basis from row-symmetrized products
# ---------------------------------------------------------------------------


def murphy_middle(ps: ParamSet, shape: Multipartition) -> tuple[WordSum, ...]:
    """M_lambda as word sums: one root-shifted X_k - u_i for each 1 <= i < r
    and k up to the size of the first i components, then the row-stabilizer
    sum."""
    sizes = [sum(p) for p in shape]
    middle = tuple(((Fraction(1), (("X", k, 1),)), (-ps.u[i], ()))
                   for i in range(1, ps.r) for k in range(1, sum(sizes[:i]) + 1))
    return middle + (tuple((Fraction(1), word_for_permutation(w))
                           for w in combinat.young_subgroup(shape, sum(sizes))),)


def coset_word(t: Tableau) -> Word:
    return word_for_permutation(combinat.d_perm(t))


def star_coset_word(t: Tableau) -> Word:
    return word_for_permutation(perm_inverse(combinat.d_perm(t)))


def murphy_factors(ps: ParamSet, shape: Multipartition, s: Tableau,
                   t: Tableau) -> tuple[Word, tuple[WordSum, ...], Word]:
    """The Murphy product of (s, t) as its factors T_{d(s)}*, M_lambda, T_{d(t)}."""
    return star_coset_word(s), murphy_middle(ps, shape), coset_word(t)


class MurphyBasis:
    """All basis elements indexed by (shape, s, t), with exact coordinates.

    The key list enumerates every normal-form monomial, so the coordinate
    matrix is square of size r^n n!; the change of basis being invertible
    is exactly the spanning/independence statement.  Each element applies
    the coset word of t to T_{d(s)}* · M_lambda, which is made once per s.
    """

    def __init__(self, H: HeckeAlgebra):
        self.H = H
        n, r = H.n, H.r
        self.keys = [(alpha, w)
                     for alpha in itertools.product(range(r), repeat=n)
                     for w in itertools.permutations(range(1, n + 1))]
        self.key_index = {k: i for i, k in enumerate(self.keys)}
        self.triples = []
        self.elements = []
        for lam in combinat.multipartitions(r, n):
            stds = combinat.standard_tableaux(lam)
            middle = murphy_middle(H.ps, lam)
            t_words = [coset_word(t) for t in stds]
            for s in stds:
                left = H.act_factors(H.one(), star_coset_word(s), middle, ())
                for t, t_word in zip(stds, t_words):
                    self.triples.append((lam, s, t))
                    self.elements.append(H.act(left, t_word))
        self.triple_index = {tr: i for i, tr in enumerate(self.triples)}
        # row i holds the coefficients of element i, by key index
        self.matrix = [{self.key_index[key]: c for key, c in el.items()}
                       for el in self.elements]
        self._inv = None

    def coords(self, el: Element) -> dict:
        """The nonzero coordinates of el by triple index: the row vector x
        with x · matrix = el, read off the inverse rows of el's keys."""
        if self._inv is None:
            self._inv = _linalg.inverse(self.matrix)
        vec = {self.key_index[key]: c for key, c in el.items()}
        return _linalg.mat_mul([vec], self._inv)[0]


# ---------------------------------------------------------------------------
# Gram forms and the product formula for their determinants
# ---------------------------------------------------------------------------


def gamma_top(lam, ps: ParamSet) -> Fraction:
    """gamma at the maximal standard tableau: row factorials times the
    cross-component content shifts."""
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


def _descents(lam, s, ps: ParamSet):
    """(t, gamma(t) / gamma(s)) for each standard t one dominance step below
    s, where t is s with steps k and k+1 swapped."""
    cs = combinat.content_sequence(s, ps.u)
    for k in range(1, len(s)):
        t = combinat.sk_action(s, k)
        if t is None or t == s or not combinat.dominance_std(s, t):
            continue
        d = cs[k - 1] - cs[k]
        if d == 0:
            raise ValueError(f"equal adjacent contents at k={k} in shape {lam}: "
                             "gamma undefined, parameters not generic")
        yield t, (d + 1) * (d - 1) / d ** 2


def gamma_coeffs(lam, ps: ParamSet) -> dict:
    """gamma for every standard tableau, propagated down dominance from the
    maximal tableau by adjacent swaps."""
    tl = combinat.t_lambda(lam)
    gamma = {tl: gamma_top(lam, ps)}
    pending = deque([tl])
    while pending:
        s = pending.popleft()
        for t, ratio in _descents(lam, s, ps):
            if t not in gamma:
                gamma[t] = ratio * gamma[s]
                pending.append(t)
    assert len(gamma) == len(combinat.standard_tableaux(lam))
    return gamma


def gamma_path_independent(lam, ps: ParamSet, gamma: dict) -> bool:
    """Every way of descending one dominance step gives the same gamma, for
    ``gamma`` as ``gamma_coeffs`` returns it."""
    return all(gamma[t] == ratio * gs for s, gs in gamma.items()
               for t, ratio in _descents(lam, s, ps))


def gram_entry(H: HeckeAlgebra, mb: MurphyBasis, lam, s, t) -> Fraction:
    """The cell form <m_s, m_t>: the coordinate at m_{t^lam t^lam} of
    m_{t^lam s} times the factors of m_{t t^lam}, every coordinate checked."""
    tl = combinat.t_lambda(lam)
    prod = H.act_factors(mb.elements[mb.triple_index[lam, tl, s]],
                         *murphy_factors(H.ps, lam, t, tl))
    value = Fraction(0)
    for idx, c in mb.coords(prod).items():
        mu, a, b = mb.triples[idx]
        if mu == lam:
            if (a, b) == (tl, tl):
                value = c
            else:
                raise AssertionError(
                    f"product not proportional to the corner element: "
                    f"coordinate at ({a}, {b})")
        elif not combinat.dominance_mp(mu, lam) or mu == lam:
            raise AssertionError(f"product escapes upward to {mu}")
    return value


def gram_matrix(H: HeckeAlgebra, mb: MurphyBasis, lam) -> list[dict]:
    """The cell form on the standard tableaux of lam, as sparse rows."""
    stds = combinat.standard_tableaux(lam)
    return [{j: x for j, t in enumerate(stds) if (x := gram_entry(H, mb, lam, s, t))}
            for s in stds]


def gram_det(H: HeckeAlgebra, mb: MurphyBasis, lam) -> Fraction:
    return _linalg.det(gram_matrix(H, mb, lam))


# ---------------------------------------------------------------------------
# semisimplicity
# ---------------------------------------------------------------------------


def is_semisimple(ps: ParamSet, n: int) -> bool:
    """Fails exactly when two roots differ by an integer smaller than n in
    absolute value (equal roots included)."""
    for i in range(ps.r):
        for j in range(i + 1, ps.r):
            d = ps.u[i] - ps.u[j]
            if d.denominator == 1 and abs(d) < n:
                return False
    return True
