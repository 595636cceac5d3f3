"""The degenerate cyclotomic quotient on permutations: exact normal forms,
the Murphy-style basis, Gram determinants, and semisimplicity witnesses.

Elements are dicts mapping (alpha, w) to Fraction, where alpha is an
n-tuple of exponents with 0 <= alpha_j < r and w is a one-line permutation:
the key stands for Y_1^{alpha_1} ... Y_n^{alpha_n} T_w.  All rewriting is
exact; no floats appear anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

from . import _linalg, combinat
from .diagrams import perm_inverse, perm_mult, perm_word
from .params import ParamSet, format_fraction, parse_fraction

Key = tuple[tuple[int, ...], tuple[int, ...]]
Element = dict


def _merge(out: Element, key: Key, c: Fraction):
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class HeckeAlgebra:
    """Exact arithmetic in the quotient where (Y_1 - u_1)...(Y_1 - u_r) = 0."""

    def __init__(self, ps: ParamSet, n: int):
        if not ps.u:
            raise ValueError("the quotient needs the roots u")
        self.ps = ps
        self.n = n
        self.r = ps.r
        # prod (Y - u_i) = Y^r + cyc[r-1] Y^{r-1} + ... + cyc[0]
        coeffs = [Fraction(1)]
        for ui in ps.u:
            coeffs = [0] + coeffs
            coeffs = [a - ui * b for a, b in zip(coeffs, coeffs[1:] + [0])]
        assert coeffs[-1] == 1 and len(coeffs) == self.r + 1
        self.cyc = coeffs[:-1]
        self.id = tuple(range(1, n + 1))

    # -- constructors ------------------------------------------------------

    def zero(self) -> Element:
        return {}

    def one(self) -> Element:
        return {(((0,) * self.n), self.id): Fraction(1)}

    def monomial(self, alpha, w, c=Fraction(1)) -> Element:
        alpha = tuple(alpha)
        assert len(alpha) == self.n and all(a >= 0 for a in alpha)
        el = {(alpha, tuple(w)): Fraction(c)}
        return self._reduce(el)

    def gen_T(self, i: int) -> Element:
        return self.monomial((0,) * self.n, self._s(i))

    def gen_Y(self, j: int) -> Element:
        e = [0] * self.n
        e[j - 1] = 1
        return self.monomial(e, self.id)

    def _s(self, i: int) -> tuple[int, ...]:
        assert 1 <= i < self.n
        w = list(self.id)
        w[i - 1], w[i] = w[i], w[i - 1]
        return tuple(w)

    # -- ring operations ---------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        out = dict(a)
        for k, c in b.items():
            _merge(out, k, c)
        return out

    def scale(self, c, a: Element) -> Element:
        c = Fraction(c)
        return {k: v * c for k, v in a.items()} if c else {}

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.scale(-1, b))

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
            if a > b:
                sign = -1
                lo, hi = b, a
            elif a < b:
                sign = 1
                lo, hi = a, b
            else:
                continue
            for q in range(lo, hi):
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

    def multiply(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for (beta, v), cv in y.items():
            acc = {k: c * cv for k, c in x.items()}
            for j, bj in enumerate(beta, start=1):
                for _ in range(bj):
                    acc = self.rmul_Y(acc, j)
            for letter in perm_word(v):
                acc = self.rmul_T(acc, letter)
            for k, c in acc.items():
                _merge(out, k, c)
        return out

    def star(self, el: Element) -> Element:
        """The anti-involution fixing every generator and reversing words."""
        out: Element = {}
        for (alpha, w), c in el.items():
            piece = self.multiply(
                {((0,) * self.n, perm_inverse(w)): Fraction(1)},
                {(alpha, self.id): Fraction(1)})
            for k, v in piece.items():
                _merge(out, k, c * v)
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self, el: Element) -> list[dict]:
        return [{"alpha": list(alpha), "w": list(w), "coeff": format_fraction(c)}
                for (alpha, w), c in sorted(el.items())]

    def from_json(self, data) -> Element:
        out: Element = {}
        for row in data:
            _merge(out, (tuple(row["alpha"]), tuple(row["w"])),
                   parse_fraction(row["coeff"]))
        return out


# ---------------------------------------------------------------------------
# the cell-style basis from row-symmetrized products
# ---------------------------------------------------------------------------


def murphy_element(H: HeckeAlgebra, s, t) -> Element:
    """T_{d(s)}^* (prod of root-shifted Y's) (row sum over the stabilizer)
    T_{d(t)} for standard tableaux s, t of a common shape."""
    lam = s[-1] if s else combinat.empty_mp(H.r)
    assert (t[-1] if t else combinat.empty_mp(H.r)) == lam
    n, r = H.n, H.r
    el = H.monomial((0,) * n, perm_inverse(combinat.d_perm(s)))
    sizes = [combinat.mp_size((p,)) for p in lam]
    for i in range(1, r):
        a_i = sum(sizes[:i])
        for k in range(1, a_i + 1):
            factor = H.add(H.gen_Y(k), H.scale(-H.ps.u[i], H.one()))
            el = H.multiply(el, factor)
    row_sum: Element = {}
    for w in combinat.young_subgroup(lam, n):
        _merge(row_sum, ((0,) * n, w), Fraction(1))
    el = H.multiply(el, row_sum)
    return H.multiply(el, H.monomial((0,) * n, combinat.d_perm(t)))


class MurphyBasis:
    """All basis elements indexed by (shape, s, t), with exact coordinates.

    The key list enumerates every normal-form monomial, so the coordinate
    matrix is square of size r^n n!; the change of basis being invertible
    is exactly the spanning/independence statement.
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
            for s in stds:
                for t in stds:
                    self.triples.append((lam, s, t))
                    self.elements.append(murphy_element(H, s, t))
        self.triple_index = {tr: i for i, tr in enumerate(self.triples)}
        self.matrix = _linalg.zeros(len(self.keys), len(self.triples))
        for col, el in enumerate(self.elements):
            for key, c in el.items():
                self.matrix[self.key_index[key]][col] = c
        self._inv = None

    def rank(self) -> int:
        return _linalg.rank(self.matrix)

    def vec(self, el: Element) -> list[Fraction]:
        v = [Fraction(0)] * len(self.keys)
        for key, c in el.items():
            v[self.key_index[key]] = c
        return v

    def coords(self, el: Element) -> list[Fraction]:
        if self._inv is None:
            self._inv = _linalg.inverse(self.matrix)
        support = [(self.key_index[key], c) for key, c in el.items()]
        return [sum((row[j] * c for j, c in support), Fraction(0))
                for row in self._inv]


def murphy_triangular_report(H: HeckeAlgebra, mb: MurphyBasis) -> list[str]:
    """Check Y_k m_st = c_s(k) m_st + (dominance-higher terms): the diagonal
    coefficient is the content, every other surviving coordinate must sit at
    (same shape, s' strictly dominating s, same t) or at a shape strictly
    dominating lam.  Returns human-readable failure strings (empty = pass)."""
    failures = []
    for (lam, s, t), el in zip(mb.triples, mb.elements):
        contents = combinat.content_sequence(s, H.ps.u)
        for k in range(1, H.n + 1):
            prod = H.multiply(H.gen_Y(k), el)
            x = mb.coords(prod)
            for idx, c in enumerate(x):
                if not c:
                    continue
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


def gamma_coeffs(lam, ps: ParamSet) -> dict:
    """gamma for every standard tableau, propagated down dominance from the
    maximal tableau by adjacent swaps."""
    tl = combinat.t_lambda(lam)
    gamma = {tl: gamma_top(lam, ps)}
    pending = deque([tl])
    n = combinat.mp_size(lam)
    while pending:
        s = pending.popleft()
        cs = combinat.content_sequence(s, ps.u)
        for k in range(1, n):
            t = combinat.sk_action(s, k)
            if t is None or t in gamma:
                continue
            if not (combinat.dominance_std(s, t) and s != t):
                continue
            d = cs[k - 1] - combinat.content_sequence(t, ps.u)[k - 1]
            gamma[t] = (d + 1) * (d - 1) / d ** 2 * gamma[s]
            pending.append(t)
    assert len(gamma) == len(combinat.standard_tableaux(lam))
    return gamma


def gamma_path_independent(lam, ps: ParamSet) -> bool:
    """Every way of descending one dominance step gives the same gamma."""
    gamma = gamma_coeffs(lam, ps)
    n = combinat.mp_size(lam)
    for s, gs in gamma.items():
        cs = combinat.content_sequence(s, ps.u)
        for k in range(1, n):
            t = combinat.sk_action(s, k)
            if t is None or not (combinat.dominance_std(s, t) and s != t):
                continue
            d = cs[k - 1] - combinat.content_sequence(t, ps.u)[k - 1]
            if gamma[t] != (d + 1) * (d - 1) / d ** 2 * gs:
                return False
    return True


def gram_entry(H: HeckeAlgebra, mb: MurphyBasis, lam, s, t) -> Fraction:
    """The cell form <m_s, m_t> read off the product of two basis elements."""
    tl = combinat.t_lambda(lam)
    m = mb.elements
    prod = H.multiply(m[mb.triple_index[lam, tl, s]], m[mb.triple_index[lam, t, tl]])
    x = mb.coords(prod)
    value = Fraction(0)
    for idx, c in enumerate(x):
        if not c:
            continue
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


def gram_matrix(H: HeckeAlgebra, mb: MurphyBasis, lam) -> list[list[Fraction]]:
    stds = combinat.standard_tableaux(lam)
    return [[gram_entry(H, mb, lam, s, t) for t in stds] for s in stds]


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


def row_symmetrizer_witness(ps: ParamSet, n: int) -> tuple[Fraction, bool]:
    """The one-row shape witness: m = (root-shifted Y's)(sum over all T_w)
    satisfies m^2 = scalar * m with
    scalar = n! * prod_{t>=2} prod_{d=0}^{n-1} (u_1 + d - u_t).
    Returns (scalar, product matches exactly)."""
    H = HeckeAlgebra(ps, n)
    el = H.one()
    for i in range(1, ps.r):
        for k in range(1, n + 1):
            el = H.multiply(el, H.add(H.gen_Y(k),
                                      H.scale(-ps.u[i], H.one())))
    row_sum: Element = {}
    for w in itertools.permutations(range(1, n + 1)):
        _merge(row_sum, ((0,) * n, w), Fraction(1))
    el = H.multiply(el, row_sum)
    scalar = Fraction(math.factorial(n))
    for t in range(1, ps.r):
        for d in range(n):
            scalar *= ps.u[0] + d - ps.u[t]
    ok = H.multiply(el, el) == H.scale(scalar, el)
    return scalar, ok
