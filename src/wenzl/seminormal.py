"""Seminormal matrix models on updown-tableau bases, with verification suites.

Everything here is exact.  Every coefficient of the model depends only on a
lattice step mu -> nu: its content c (the int C = q c over the lcm q of the
roots' denominators), the diagonal contraction coefficient e, and the step
factor g, whose product along a tableau t is gamma_t, all read from the step
table ``ps.steps`` (``params.steps_out``).  Each generator entry is a closed
rational formula in them (``build_rep``, with the swap data of each window
from ``swap_window``), as in Young's seminormal form, with no square root
and no positivity condition, and each generator is then self-adjoint for
diag(gamma), which may be negative, as ``verify`` checks.  What does not
read the roots, the walks of a shape, their steps and where each returns
or swaps, is held per (n, shape) for the process (``model_pattern``), so a
new parameter set forms only the values: every entry an int pair (num,
den), each generator held as those entries.  The models make one
``Realization``, their direct sum, which places each letter's entries from
every model on the stacked rows in one pass, cleared once into one
block-diagonal matrix of int rows over one positive denominator in lowest
terms (``Evaluated``), so a word takes one matrix product per letter on
ints and a Fraction is made only for a reported residual; it holds the
product of each prefix of a product of word sums, and applies words to a
matrix one stacked letter at a time.  A diagonal letter, as every X_j is,
is held as its diagonal too (``Diagonal``), and X_j^a as that diagonal's
elementwise power.  Every sum on the realization, a word sum or a signed
sum of products, is accumulated on ints over a denominator fixed before any
product (``Realization._accumulate``), where a diagonal factor scales the
entries of its neighbours instead of being multiplied as a matrix.
``wcell`` certifies the cellular family's rank on it.  The defining
relations, less the commutations of distant letters that every built model
satisfies (``relations``), are written once, as pairs of word sums.  Each
relation is checked as one signed sum lhs - rhs in that way
(``verify_relations``, by ``Realization.sum_residuals``), and a block is
scanned only where the sum is nonzero.  The scalar tower E_k X_k^a E_k =
omega_k^(a) E_k is no check: the placement of E_k and the partial fractions
of W decide it (the proof is in ``verify_relations``).  The identities
between the coefficients are checked on the ints of the step table, once
per local window, with no polynomial division or rational function
(``check_identities``): W, its recursion and its partial fractions as
multisets of linear factors and int polynomials, and self-adjointness for
diag(gamma), one identity of step factors per window on the values
``build_rep`` places; no identity that these, a relation of the models or
the lattice decides (the proofs are in ``check_identities``).  A window's
swap data are formed once per parameter set (``ps.swaps``).  Every check
has zero tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import _linalg, combinat, params
from .params import ParamSet

# ---------------------------------------------------------------------------
# exact coefficient tables
# ---------------------------------------------------------------------------


def _signed(num: int, den: int) -> tuple[int, int]:
    """num/den as an int pair with a positive den."""
    return (num, den) if den > 0 else (-num, -den)


def _not_generic(condition: str, mu) -> ValueError:
    """The error of a condition of genericity that fails at the shape mu."""
    return ValueError(f"{condition} {mu}: parameters not generic")


def _swap_pair(mu, k: int, d: int, q: int) -> tuple[int, int]:
    """Diagonal swap coefficient 1/(c_{k+1} - c_k) of steps k, k+1 out of
    the shape mu, as an int pair (num, den) with den > 0, from the int
    d = q (c_{k+1} - c_k)."""
    if d == 0:
        raise _not_generic(f"equal adjacent contents at k={k} from shape", mu)
    return _signed(q, d)


# ---------------------------------------------------------------------------
# the seminormal representation
# ---------------------------------------------------------------------------


class Evaluated(NamedTuple):
    """A rational matrix: one ``_linalg`` matrix of ints, ``rows``, over one
    positive denominator ``den``.  It is a letter or an element of a
    realization, block-diagonal over its models."""

    rows: list
    den: int


class Diagonal(NamedTuple):
    """A diagonal rational matrix: its diagonal entries as ints, ``values``,
    over one positive denominator ``den``.  A realization holds each
    diagonal letter this way beside its rows, as a factor of its sums."""

    values: list
    den: int


class SeminormalRep(NamedTuple):
    """Generators over the updown basis of one shape.

    S[i-1], E[i-1] act at position i (1 <= i < n); X[j-1] is diagonal with
    the step-j contents.  Each is held uncleared, as the nonzero entries
    {(i, j): (num, den)}, den > 0, of ``build_rep``, X[j-1] as {(i, i): (C_j,
    q)}; ``Realization`` clears each letter once.  At generic roots every
    generator M satisfies gamma[i] M[i][j] = M[j][i] gamma[j] for gamma of
    ``params.gamma``, every gamma[i] nonzero, of either sign (its formulas
    by ``check_identities``, the placed matrices by the relations).
    """

    ps: ParamSet
    n: int
    shape: tuple
    basis: tuple
    S: list
    E: list
    X: list

    @property
    def dim(self) -> int:
        return len(self.basis)


def swap_entry(ps: ParamSet, k: int, mu, nu, rho, nu2, d: int) -> tuple[int, int]:
    """p = S[t][s], an int pair (num, den) with den > 0, for t through the
    window mu -> nu -> rho at steps k, k+1 and s = s_k t through nu2, where
    d = q (c_{k+1} - c_k) of t and d^2 != q^2.  With a = q / d, b^2 =
    1 - a^2, alpha, beta the nodes of the steps nu, rho of t:

    - add, add: p = b^2 where alpha lies above beta, else 1;
    - add, remove: p = b^2 F(nu' -> rho) / (e_nu(mu) F(mu -> nu));
    - remove, add: p = e_nu'(mu) F(mu -> nu') / F(nu -> rho);
    - remove, remove: p = b^2 v where alpha lies above beta, else v, with
      v = e_nu'(mu) / e_nu(mu).

    So p p_s = b^2 and p^2 / b^2 = gamma_s / gamma_t.  A node lies above
    another in an earlier component or a higher row.  ``swap_window``
    reads it for ``build_rep`` and ``check_identities``."""
    q, st = ps.q, params.steps_out(mu, ps)
    (alpha, removes), (beta, then_removes) = (combinat.steps_from(mu)[nu],
                                              combinat.steps_from(nu)[rho])
    # b^2, or 1 where both steps add or both remove and beta lies above
    # alpha; a step that removes, then one that adds, takes neither
    if removes == then_removes and (beta[2], beta[0]) < (alpha[2], alpha[0]):
        num, den = 1, 1
    else:
        num, den = d * d - q * q, d * d
    ev = st.e[nu]
    if then_removes and not ev:  # p divides by e_nu(mu)
        raise _not_generic(f"contraction coefficient 0 at k={k} from shape", mu)
    if removes and then_removes:
        v = st.e[nu2] / ev  # e_nu'(mu) / e_nu(mu)
        num, den = num * v.numerator, den * v.denominator
    elif then_removes:
        # F(nu' -> rho) / (e_nu(mu) F(mu -> nu))
        (fn, fd), (gn, gd) = st.g[nu], params.steps_out(nu2, ps).g[rho]
        if not fn or not gd:
            raise _not_generic("coinciding contents out of shape", nu2 if fn else mu)
        num, den = num * gn * fd * ev.denominator, den * gd * fn * ev.numerator
    elif removes:
        # e_nu'(mu) F(mu -> nu') / F(nu -> rho), with no b^2
        ev, (fn, fd), (gn, gd) = st.e[nu2], st.g[nu2], params.steps_out(nu, ps).g[rho]
        if not fd or not gn:
            raise _not_generic("coinciding contents out of shape", nu if fd else mu)
        num, den = ev.numerator * fn * gd, ev.denominator * fd * gn
    return _signed(num, den)


def swap_window(ps: ParamSet, k: int, mu, nu, rho):
    """The swap data of the window mu -> nu -> rho at steps k, k+1, as
    (a, nu2, p): the diagonal coefficient a = 1/(c_{k+1} - c_k)
    (``_swap_pair``, which raises on equal contents), the middle shape nu2
    of the window taken in the other order (``combinat.swap_middle``), None
    where it leaves the lattice, and the off-diagonal entry p
    (``swap_entry``), None where nu2 is None or a is a unit.  The contents
    come from the step table; ``build_rep`` and ``check_identities`` read
    every window here.  The data do not depend on k, so each window is
    formed once per parameter set and held in ``ps.swaps``; a window that
    raises is held nowhere, and raises again, with the k of each caller."""
    swap = ps.swaps.get((mu, nu, rho))
    if swap is None:
        q = ps.q
        d = params.steps_out(nu, ps).C[rho] - params.steps_out(mu, ps).C[nu]
        a = _swap_pair(mu, k, d, q)
        nu2 = combinat.swap_middle(mu, nu, rho)
        p = swap_entry(ps, k, mu, nu, rho, nu2, d) if nu2 is not None and d * d != q * q else None
        swap = ps.swaps[mu, nu, rho] = a, nu2, p
    return swap


@functools.cache
def model_pattern(n: int, shape) -> tuple:
    """The root-free part of the model of ``shape`` at n strands, held per
    (n, shape): the walks of ``combinat.updown_walks`` (fewer than
    ``count_updown`` raise AssertionError); their steps, (mu, (nu, ...)) per
    mu left; the keys, each walk's steps by index in that order; the roles,
    per k - 1 each walk's at steps k, k + 1: (m, p, partners) where it
    returns to ``classes[m]`` by its p-th step out, partners the walks
    through each, else (None, w, partner) for its window ``windows[w]`` and
    the walk through the other middle, or None; the classes; the windows."""
    walks = combinat.updown_walks(n, shape)
    if len(walks) != combinat.count_updown(n, shape):
        raise AssertionError(f"{len(walks)} updown tableaux of {shape} at n={n}, "
                             f"not {combinat.count_updown(n, shape)}")
    index = {t: w for w, t in enumerate(walks)}
    empty, steps, classes, windows = combinat.empty_mp(len(shape)), {}, {}, {}
    walked = [tuple(zip((empty,) + t, t)) for t in walks]
    for mu, nu in itertools.chain.from_iterable(walked):
        steps.setdefault(mu, {})[nu] = None
    number = {step: i for i, step in enumerate((mu, nu) for mu in steps for nu in steps[mu])}
    roles = [[] for _ in range(1, n)]
    for k, t in itertools.product(range(1, n), walks):
        mu, nu, rho = combinat.shape_before(t, k), t[k - 1], t[k]
        if rho == mu:
            out = list(combinat.steps_from(mu))
            roles[k - 1].append((classes.setdefault(mu, len(classes)), out.index(nu),
                                 tuple(index[t[:k - 1] + (x,) + t[k:]] for x in out)))
        else:
            nu2 = combinat.swap_middle(mu, nu, rho)
            roles[k - 1].append((None, windows.setdefault((mu, nu, rho), len(windows)),
                                 None if nu2 is None else index[t[:k - 1] + (nu2,) + t[k:]]))
    return (walks, tuple((mu, tuple(nus)) for mu, nus in steps.items()),
            tuple(tuple(map(number.__getitem__, taken)) for taken in walked),
            tuple(map(tuple, roles)), tuple(classes), tuple(windows))


def _class_entries(ps: ParamSet, k: int, mu) -> list:
    """For the p-th step nu out of mu, the pair (E, S) at each step nu' out
    of mu, int pairs with den > 0: E = e_nu'(mu), S = (e_nu'(mu) - delta) q
    / (C_nu + C_nu'), None where 0; raises at a zero e or opposite C."""
    st = params.steps_out(mu, ps)
    if not all(st.e.values()):
        raise _not_generic(f"contraction coefficient 0 at k={k} from shape", mu)
    if any(-x in st.C.values() for x in st.C.values()):
        raise _not_generic(f"opposite contents in one class at k={k} from shape", mu)
    es = [(x.numerator, x.denominator) for x in st.e.values()]
    return [[((a, b), _signed((a - b if p == p2 else a) * ps.q, b * (c + c2))
              if p != p2 or a != b else None)
             for p2, ((a, b), c2) in enumerate(zip(es, st.C.values()))]
            for p, c in enumerate(st.C.values())]


def build_rep(ps: ParamSet, n: int, shape) -> SeminormalRep:
    """The model of one shape, read off its ``model_pattern``, each
    generator held as its nonzero entries {(i, j): (num, den)}, den > 0:
    X_j = diag(C_j) / q; where t returns at k, to mu, the entries of
    ``_class_entries``, once per model and mu; elsewhere S[t][t] = a =
    1/(c_{k+1} - c_k) and, where s = s_k t lies in the lattice, S[t][s] = p
    (``swap_window``), so each is self-adjoint for diag(gamma).  The basis
    is sorted by content sequence, ties in walk order (at the default roots
    that of ``combinat.enumerate_updown``), and read in order at each k, so
    the first condition of genericity that fails raises its ValueError:
    equal adjacent or opposite class contents, a zero contraction
    coefficient, a zero or undefined step factor an entry divides by, or a
    non-unit swap coefficient where the swap leaves the lattice."""
    if not ps.u:
        raise ValueError("a seminormal model needs the roots u")
    walks, steps, keys, roles, classes, windows = model_pattern(n, shape)
    C = [c for mu, nus in steps for c in map(params.steps_out(mu, ps).C.__getitem__, nus)]
    contents = [tuple(map(C.__getitem__, key)) for key in keys]
    order = sorted(range(len(walks)), key=contents.__getitem__)
    pos = sorted(range(len(order)), key=order.__getitem__)  # each walk's place in it
    X = [{(i, i): (c, ps.q) for i, c in enumerate(column) if c}
         for column in zip(*map(contents.__getitem__, order))]
    # class entries by m and swap data by window p, each formed where first met
    entries, swaps = [None] * len(classes), [None] * len(windows)
    S, E = [{} for _ in roles], [{} for _ in roles]
    for k, (at_k, Sk, Ek) in enumerate(zip(roles, S, E), start=1):
        for i, w in enumerate(order):
            m, p, partners = at_k[w]
            if m is not None:
                if entries[m] is None:
                    entries[m] = _class_entries(ps, k, classes[m])
                for j, (e, s) in zip(partners, entries[m][p]):
                    Ek[i, pos[j]] = e
                    if s is not None:
                        Sk[i, pos[j]] = s
                continue
            if swaps[p] is None:
                mu, nu, rho = windows[p]
                (a0, a1), nu2, x = swap_window(ps, k, mu, nu, rho)
                if nu2 is None and a0 * a0 != a1 * a1:
                    raise ValueError(f"swap at k={k} from shape {mu} undefined but coefficient "
                                     f"{Fraction(a0, a1)} is not a unit: outside the regime")
                swaps[p] = (a0, a1), (x if x is not None and x[0] else None)
            Sk[i, i], x = swaps[p]
            if x is not None:
                Sk[i, pos[partners]] = x
    return SeminormalRep(ps, n, shape, tuple(map(walks.__getitem__, order)), S, E, X)


def build_all(ps: ParamSet, n: int) -> list[SeminormalRep]:
    """One model per reachable shape.  Equal roots also raise ValueError once
    n >= 1; from n = 2 on, a per-k check of ``build_rep`` fails first.  Last,
    each step out of a shape of size below n lies on some basis tableau, so
    its step factor, read by that tableau's gamma, must be nonzero and
    defined; one that adds a node is on a standard tableau too, so a zero
    one makes an f = 0 Gram determinant 0: W_n is not semisimple."""
    reps = [build_rep(ps, n, shape)
            for shape in combinat.reachable_shapes(ps.r, n)]
    repeated = [x for j, x in enumerate(ps.u) if x in ps.u[:j]]
    if n >= 1 and repeated:
        raise ValueError(f"repeated root {repeated[0]} in u: parameters not generic")
    for mu in (mu for size in range(n) for mu in combinat.multipartitions(ps.r, size)):
        if not all(num and den for num, den in params.steps_out(mu, ps).g.values()):
            raise _not_generic("coinciding contents out of shape", mu)
    return reps


# ---------------------------------------------------------------------------
# the realization: the direct sum of the models
# ---------------------------------------------------------------------------


class Realization:
    """The direct sum of the models given (``build_all`` gives one per
    reachable shape), as block-diagonal matrices of size sum d: the model
    of ``reps[b]`` acts on the rows and columns ``ranges[b]``, in that
    order.  A word sum (``evaluate_sum``; a word is the sum of one term) or
    a product of word sums (``evaluate_product``, never expanded into
    words, each factor's sum and each prefix's product held for the
    realization) evaluates to one ``Evaluated``, int rows over one
    denominator.  Each letter is stacked once per realization, its models'
    entries shifted to their rows and cleared together, so a word takes one
    matrix product per letter; ``words_times`` and ``times_words`` take
    words to a given matrix one stacked letter at a time instead, from the
    end that meets it.  A diagonal letter is held as its ``Diagonal`` beside its rows,
    and is that vector in a sum (``factors``).  A product multiplies the
    denominators, and every sum, a word sum as well as lhs - rhs of a
    relation, adds each term's product into one int accumulator over a
    denominator fixed before any product is formed (``_accumulate``), with
    no term formed as a matrix of its own and no diagonal factor multiplied
    as a matrix; so no Fraction is normalised until a residual is
    reported.  ``sum_residuals`` reads a signed sum of products off that
    accumulator, with no side formed whole, block by nonzero block.
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
        # the diagonal of each letter that is diagonal, by letter
        self._diagonals: dict = {}
        # the trie of held prefix products: factor key -> (product, next
        # level), and each factor's word sum by the same key
        self._prefixes: dict = {}
        self._sums: dict = {}

    def _letter(self, letter) -> Evaluated:
        """One letter as one block-diagonal matrix, made once per
        realization: the models' entries (num, den) as ints over the lcm of
        the set of their dens, divided by their gcd with it only where that
        exceeds 1, then placed on their row ranges, so the rows and den are
        in lowest terms; ("X", j, a) is the a-th power of X_j,
        the identity at a = 0.  A letter is diagonal when every entry key
        is (i, i), as in every model's X_j; this is decided here, once, and
        its diagonal is held beside its rows, keyed by the letter, for
        ``factors``.  The power of a diagonal X_j is its diagonal raised
        elementwise, with no product."""
        ev = self._letters.get(letter)
        if ev is not None:
            return ev
        kind, i = letter[0], letter[1]
        if (kind in ("S", "E") and 1 <= i <= self.n - 1
                or kind == "X" and 1 <= i <= self.n and letter[2] == 1):
            gens = [getattr(rep, kind)[i - 1] for rep in self.reps]
            den = math.lcm(*{b for entries in gens for _, b in entries.values()})
            ints = [x * (den // y) for entries in gens for x, y in entries.values()]
            g = math.gcd(den, *ints)
            if g > 1:
                ints, den = [x // g for x in ints], den // g
            rows, ints = _linalg.zeros(len(self._one.rows)), iter(ints)
            for (s, _), entries in zip(self.ranges, gens):
                for (a, b), x in zip(entries, ints):  # entries first: ints stays in step
                    rows[s + a][s + b] = x
            ev = Evaluated(rows, den)
            if not any(itertools.starmap(operator.ne, itertools.chain.from_iterable(gens))):
                self._diagonals[letter] = Diagonal([r.get(p, 0) for p, r in enumerate(rows)], den)
        elif kind == "X" and 1 <= i <= self.n and letter[2] == 0:
            ev = self._one
        elif kind == "X" and 1 <= i <= self.n and letter[2] > 1:
            x, a = self._letter(("X", i, 1)), letter[2]
            v = self._diagonals.get(("X", i, 1))
            if v is None:
                ev = mul(self._letter(("X", i, a - 1)), x)
            else:
                v = self._diagonals[letter] = Diagonal([y ** a for y in v.values], v.den ** a)
                ev = Evaluated([{p: y} if y else {} for p, y in enumerate(v.values)], v.den)
        else:
            raise ValueError(f"letter {letter!r} out of range at n={self.n}")
        self._letters[letter] = ev
        return ev

    def evaluate_sum(self, terms) -> Evaluated:
        """The word sum of the terms (coefficient, word)."""
        return self._summed([(c, self.factors(word)) for c, word in terms])

    def _summed(self, terms) -> Evaluated:
        """The signed sum of products ``terms`` (``_accumulate``), with the
        zeros its accumulator keeps dropped; a row that holds none is kept
        as it is."""
        acc, den = self._accumulate(terms)
        return Evaluated([row if all(row.values()) else {j: x for j, x in row.items() if x}
                          for row in acc], den)

    def evaluate_product(self, factors) -> Evaluated:
        """The product of the word sums ``factors``, in order, never
        expanded into words.  The product of each prefix is held for the
        realization, in a trie with one level per factor, keyed by the
        factor's terms with each coefficient as its int pair, so that a
        lookup hashes no Fraction; products that share a prefix, as the
        Murphy middles of the shapes share their root-shift factors and
        their first coset factors, evaluate it once.  Each factor's sum is
        held under the same key, so a factor that ends several prefixes is
        evaluated once."""
        out, node = None, self._prefixes
        for terms in factors:
            key = tuple((c.numerator, c.denominator, word) for c, word in terms)
            entry = node.get(key)
            if entry is None:
                ev = self._sums.get(key)
                if ev is None:
                    ev = self._sums[key] = self.evaluate_sum(terms)
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

    def factors(self, word) -> list:
        """The factors of a word in a sum (``_accumulate``): each letter's
        ``Diagonal`` where the letter is diagonal, else its stacked matrix,
        with the identity letters X_j^0 left out."""
        out = []
        for letter in word:
            ev = self._letter(letter)
            if ev is not self._one:
                out.append(self._diagonals.get(letter, ev))
        return out

    def _accumulate(self, terms) -> tuple[list[dict], int]:
        """(acc, L): sum c f_1 ... f_m over the terms (c, [f_1, ..., f_m]) of
        a signed sum of products of ``Evaluated`` and ``Diagonal`` factors,
        the empty product the identity, as int rows acc over L.  L, the lcm
        of each term's c.denominator times its factors' dens, is fixed
        before any product is formed; a zero c drops its term, and each
        other term adds its product, times its int multiple f over L, into
        one int accumulator, which keeps the entries that cancel, as zeros.
        Each run of diagonal factors is folded into one vector, the
        elementwise product of their diagonals, and the term is added by
        its sparse factors:

        - none: f times the vector on the diagonal, f alone where there is
          no vector, the empty product;
        - one, M between the vectors l and r: f l_i M_ij r_j at each
          nonzero of M, in one pass over them;
        - otherwise: each vector folded into the rows of the sparse factor
          after it, or the last into the columns of the one before it, the
          product of all but the last factor (the first factor alone where
          there are two), then ``_linalg.mat_mul_add``.
        """
        terms = [(c, fs) for c, fs in terms if c]
        dens = [c.denominator * math.prod(f.den for f in fs) for c, fs in terms]
        den = math.lcm(*dens)
        acc = _linalg.zeros(sum(self.dims))
        for (c, fs), d in zip(terms, dens):
            f = c.numerator * (den // d)
            # the sparse factors, and the vector before each and after the
            # last, None where no diagonal factor stands there
            mats, vecs = [], [None]
            for x in fs:
                if type(x) is Diagonal:
                    v = vecs[-1]
                    vecs[-1] = x.values if v is None else list(map(operator.mul, v, x.values))
                else:
                    mats.append(x.rows)
                    vecs.append(None)
            if not mats:
                v = vecs[0]
                for p, oi in enumerate(acc):
                    y = f if v is None else f * v[p]
                    if y:
                        oi[p] = oi.get(p, 0) + y
            elif len(mats) == 1:
                left, right = vecs
                for i, (oi, row) in enumerate(zip(acc, mats[0])):
                    g = f if left is None else f * left[i]
                    if not g:
                        continue
                    if right is None:
                        for j, y in row.items():
                            oi[j] = oi.get(j, 0) + g * y
                    else:
                        for j, y in row.items():
                            oi[j] = oi.get(j, 0) + g * y * right[j]
            else:
                rows = [m if v is None else [{j: x * v[i] for j, x in row.items()} if v[i] else {}
                                             for i, row in enumerate(m)]
                        for m, v in zip(mats, vecs)]
                v = vecs[-1]
                if v is not None:
                    rows[-1] = [{j: x * v[j] for j, x in row.items() if v[j]} for row in rows[-1]]
                _linalg.mat_mul_add(acc, functools.reduce(_linalg.mat_mul, rows[:-1]), rows[-1], f)
        return acc, den

    def sum_residuals(self, terms) -> dict[int, Fraction]:
        """{b: exact max |sum c f_1 ... f_m| on block b} for each block b
        where it is nonzero, over the terms (c, [f_1, ..., f_m]) of a signed
        sum of products, accumulated in one int accumulator
        (``_accumulate``).  The blocks are scanned only when it holds a
        nonzero entry, so a sum that vanishes costs no work per block."""
        acc, den = self._accumulate(terms)
        if not any(map(any, map(dict.values, acc))):
            return {}
        tops = (max(map(abs, itertools.chain.from_iterable(map(dict.values, acc[start:end]))),
                    default=0) for start, end in self.ranges)
        return {b: Fraction(top, den) for b, top in enumerate(tops) if top}


def mul(a: Evaluated, b: Evaluated) -> Evaluated:
    """The product of two evaluated elements."""
    return Evaluated(_linalg.mat_mul(a.rows, b.rows), a.den * b.den)


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

RELATION_FAMILIES = (
    "involution", "braid", "contraction-scalar", "skein",
    "unwrapping", "tangle", "untwisting", "antisymmetry", "cyclotomic",
)


def relations(ps: ParamSet, n: int, omega):
    """The defining relations at n strands as (family, lhs, rhs), each side a
    word sum: Nazarov's affine Wenzl relations in S_i, E_i and X_j, unwrapping
    E_1 X_1^a E_1 = omega_a E_1 for 0 <= a <= r + 2, Omega_0 ... Omega_{r+2}
    the values ``omega`` of W at the empty shape, which the caller expands
    (``params.omega_k_values``), and the cyclotomic relation sum_k c_k X_1^k
    = 0, c from ``cyclotomic_coeffs``; but no commutation of distant letters.
    S_i S_j, S_i E_j and E_i E_j for |i - j| > 1, S_i X_j and E_i X_j for j
    not in {i, i + 1}, and X_a X_b hold on every model ``build_rep`` builds,
    at any roots.  ``build_rep`` places an S_k or E_k entry only between
    tableaux t, s that differ at step k alone, its value read off t_{k-1},
    t_k, t_{k+1} and s_k; X_j is diagonal, its value the content of step j,
    read off t_{j-1} and t_j.  For |i - j| >= 2 neither letter changes a step
    that the other reads, so (A_i B_j)[t][s] and (B_j A_i)[t][s] are the same
    product of two entries, through the tableau that takes s's step at i, or
    at j: a walk, since its neighbours there are t's."""
    def w(*words):
        return tuple((Fraction(1), word) for word in words)

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
    if n >= 2:
        e = ("E", 1)
        for a, omega_a in enumerate(omega):
            yield "unwrapping", w((e, ("X", 1, a), e)), ((omega_a, (e,)),)
    if ps.u and n >= 1:
        yield "cyclotomic", tuple((c, (("X", 1, k),)) for k, c in
                                  enumerate(params.cyclotomic_coeffs(ps.u)) if c), ()


def verify_relations(real: Realization, omega) -> list[dict]:
    """Exact max |lhs - rhs| over the ``relations`` of each family, with
    Omega_0 ... Omega_{r+2} the values ``omega``, one dict per block of
    ``real``; every value is 0 for a genuine model.  Each relation is one
    signed sum lhs - rhs (``Realization.sum_residuals``).  Unwrapping at
    a = 0, where X_1^0 is no factor, is the contraction-scalar relation at
    i = 1, so that sum is formed once and recorded under both names.  No
    commutation of distant letters is summed: ``relations`` proves them.
    Self-adjointness for diag(gamma) is no residual of the model:
    ``check_identities`` certifies it on the coefficients, once per window.

    Nor is the scalar tower E_k X_k^a E_k = omega_k^(a) E_k for k >= 2 and
    1 <= a <= r + 1, omega_k^(a) the coefficient of y^(-a) at infinity of W
    at the shape mu before step k (``params.omega_k_values``); at k = 1 it
    is the unwrapping relation, and at a = 0 the contraction-scalar relation
    at i = k (``params.wk_rational``).  On every model ``build_rep`` builds,
    it fails only where ``w-partial-fractions`` fails:

    - ``_class_entries`` places each row of E_k on the class of tableaux that
      return to mu at step k as one vector e, e_m the e of the step m out of
      mu (``params.steps_out``) that the partner takes at step k, and E_k is
      0 on every other row; so E_k = 1 e^T on the class, and X_k is diag(c_m)
      there, c_m the content of that step.
    - Hence E_k X_k^a E_k = (sum_m e_m c_m^a) E_k.
    - ``check_identities`` checks ``w-partial-fractions`` at every mu with
      |mu| <= n - 2: the exact identity W = y sum_m e_m / (y - c_m), whose
      coefficient of y^(-a) is sum_m e_m c_m^a, which is omega_k^(a)."""
    out = [dict.fromkeys(RELATION_FAMILIES, Fraction(0)) for _ in real.reps]
    e = ("E", 1)
    shared, both = ((1, (e, ("X", 1, 0), e)),), ((1, (e, e)),)
    # built whole: a generator left suspended by a MemoryError is closed as
    # the frames unwind, and a close that runs out of memory too prints to stderr
    for family, lhs, rhs in tuple(relations(real.ps, real.n, omega)):
        if lhs == shared:
            continue
        terms = [(c, real.factors(word)) for c, word in lhs]
        terms += [(-c, real.factors(word)) for c, word in rhs]
        for b, value in real.sum_residuals(terms).items():
            res = out[b]
            for name in (family, "unwrapping") if lhs == both else (family,):
                res[name] = max(res[name], value)
    return out


# ---------------------------------------------------------------------------
# zero-tolerance identities between the exact coefficients
# ---------------------------------------------------------------------------


class IdentityReport(NamedTuple):
    """The identities ``check_identities`` checked, counted by name, and
    those that failed."""

    counts: dict
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def w_equal(w, v) -> bool:
    """The two ratios of linear factors ``w`` and ``v`` (``params.wk_rational``,
    ``params.wk_recursive_rational``) are one function: cross-multiplied,
    their factors are one multiset of ints."""
    return sorted(w[0] + v[1]) == sorted(w[1] + v[0])


def w_partial_fractions_hold(ps: ParamSet, mu, w) -> bool:
    """W = y sum_m e_m / (y - c_m) over the steps m out of mu, for W at mu
    with the linear factors ``w``, multiplied through by 2Q:
    D N = 2 q y sum_m E_m prod_{m' != m} (qy - C_m'), with W = N / (2Q)
    (``params.w_polynomials``) and e_m = E_m / D, one int polynomial
    identity of degree |C|."""
    C, e, _, _ = params.steps_out(mu, ps)
    q, D = ps.q, params.clearing(e.values())
    # the sum S over the factors so far, one factor at a time, beside their
    # product P: S (qy - C_m) + E_m P, then P (qy - C_m)
    P, S = [1], [0]
    for x, E_m in zip(C.values(), params.cleared(e.values(), D)):
        S = [q * b - x * a + E_m * p for a, b, p in zip(S + [0], [0] + S, P + [0])]
        P = [q * b - x * a for a, b in zip(P + [0], [0] + P)]
    N, _ = params.w_polynomials(ps, w)
    return [D * x for x in N] == [0] + [2 * q * x for x in S[:-1]]


def check_identities(ps: ParamSet, n: int) -> IdentityReport:
    """Every exact coefficient identity at n strands that the coefficients can
    fail, checked with zero tolerance once per local configuration.  A
    coefficient at k reads only the shape mu before step k and the steps out
    of mu, which the step table ``ps.steps`` holds with their contents,
    contraction coefficients and step factors (the step back from nu has
    content -c_nu).  So the W and class self-adjointness identities are read
    off the steps out of each mu with |mu| <= n - 2.  The swap identities, per
    (mu, nu, rho) with rho != mu, check the swaps of ``combinat.swap_middle``
    on windows placed after t^mu, at k = |mu| + 1; elsewhere t^mu only names a
    window in a failure.  ``w-recursion`` checks that the closed form at nu is
    one recursion step from that at mu, per lattice edge mu -> nu with
    |mu| <= n - 2; by induction on the walk, the recursion from W at the empty
    shape, from which Omega is read, then gives the closed form along every
    walk of fewer than n steps.

    Each identity is stated on ints, in the form its coefficients are held, so
    nothing is divided.  W is held by the linear factors of W + y - 1/2
    (``params.wk_rational``): ``w-recursion`` compares the multisets of
    factors of the two sides cross-multiplied (``w_equal``), and the partial
    fractions are one int polynomial identity (``w_partial_fractions_hold``).
    W(0) = 0 is no identity of the job: it holds at every shape, for any roots
    (``params.wk_rational``).  The swap identities read each window by
    ``swap_window``, as ``build_rep`` does, for t and for its partner u, which
    forms it once per parameter set: the coefficient a = 1/(c_{k+1} - c_k) is
    the int pair (a0, a1) of ``_swap_pair``, which raises on equal contents: a
    is a unit when a0^2 = a1^2.  ``star-symmetry`` is self-adjointness for
    diag(gamma) on the values of ``swap_window``, e and g that ``build_rep``
    places, not on the held matrices: the gammas of two tableaux that differ
    only at steps k, k+1 differ only by the step factors g there, so per swap
    window with partner nu' where a is no unit, p g(mu->nu) g(nu->rho) =
    p_s g(mu->nu') g(nu'->rho), and per pair nu, nu' of a class
    e_nu' g(mu->nu) g(nu->mu) = e_nu g(mu->nu') g(nu'->mu).

    Five more identities the model rests on are decided by these, or by
    relations of the models, or hold at any roots, so no verdict of the job
    checks them (e_x(y) is the e of the step y -> x):

    - The class sums at mu, over the steps m out of it, for each step s and
      each t' != s: L_s = sum_m e_m / (c_s + c_m) = 1 + 1/(2 c_s),
      sum_m e_m / (c_s + c_m)^2 = (1 - 1/(4 c_s^2)) / e_s + 1/(2 c_s^2) and
      sum_m e_m / ((c_s + c_m)(c_m + c_t')) = 1 / (2 c_s c_t').  They
      follow from ``w-partial-fractions`` at mu, W = y sum_m e_m / (y - c_m),
      where the contents out of mu are distinct, no two are opposite (nor
      is one 0) and every e is nonzero; ``build_all`` establishes all of
      that at every mu with |mu| <= n - 2, and ``verify`` builds first.
      F = W + y - 1/2 = (y - (-1)^r/2) prod_m (y + c_m)/(y - c_m) has the
      factor y + c_s, so W(-c_s) = c_s + 1/2, which is c_s L_s: the linear
      sum.  F(y) F(-y) = 1/4 - y^2, and F has the pole c_s e_s / (y - c_s)
      at c_s, so F'(-c_s) = (c_s^2 - 1/4) / (c_s e_s); the partial
      fractions give F'(-c_s) = 1 - L_s + c_s Q_s for the quadratic sum
      Q_s.  Term by term, the cross sum is (L_s - L_t') / (c_t' - c_s).
    - The partner's contents are t's swapped, at any roots:
      ``combinat.swap_middle`` takes nu' by the (node, removed) step of
      nu -> rho, so rho is nu' and the node of mu -> nu, and a node
      removed or added has one content (``params.steps_out``).  So the
      partner's coefficient is -a.
    - A swap leaves the lattice only where its two steps add, or remove,
      adjacent nodes of one component, so c_{k+1} - c_k = +-1 and a is a
      unit, at any roots; ``build_rep`` still raises outside that regime,
      as the build's own check.
    - e_nu(mu) e_mu(nu) = 1, |mu| <= n - 3: at t = (..., mu, nu, mu, nu, ...),
      steps k - 1 ... k + 2, ``untwisting`` E_{k+1} E_k E_{k+1} = E_{k+1}
      reads e_mu(nu) e_nu(mu) e_mu(nu) = e_mu(nu) at (t, t), and ``build_rep``
      refuses a zero e out of nu.
    - (1 - a^2) e_x(nu) = (1 - b^2) e_nu'(mu), for t = (..., mu, nu, x, nu,
      ...), T = s_k t = (..., mu, nu', x, nu, ...) = s_{k+1} u and u = (...,
      mu, nu', mu, nu, ...), a and b the swap coefficients of t at k and u at
      k + 1.  ``tangle`` E_{k+1} E_k S_{k+1} = E_{k+1} S_k at (t, T) reads
      e_x(nu) p(t->T) = e_mu(nu) e_nu'(mu) p(u->T), and
      S_k E_{k+1} E_k = S_{k+1} E_k at (T, (..., mu, nu, mu, nu, ...)) reads
      p(T->t) e_mu(nu) = p(T->u), e_nu(mu) != 0 divided out.  Times p(T->t),
      the first gives the identity by the second and ``involution``, which
      gives p p_s = 1 - a^2 on each swap pair."""
    counts: dict[str, int] = {}
    failures: list[str] = []

    def record(name: str, ok: bool, ctx: str, *args):
        """Count a check of ``name``; a failure names its window, the
        template ``ctx`` filled with ``args`` only then."""
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            failures.append(f"{name}: " + ctx.format(*args))

    def factors(*steps):
        """The product of the step factors of ``steps`` as an int pair, or
        None where one of them is 0 or undefined."""
        num = den = 1
        for before, after in steps:
            a, b = params.steps_out(before, ps).g[after]
            num, den = num * a, den * b
        return (num, den) if num and den else None

    def adjoint(x, gx, y, gy) -> bool:
        """x gx = y gy for int pairs x, y and products gx, gy of ``factors``;
        False where one of them is None."""
        return (None not in (x, gx, y, gy)
                and x[0] * gx[0] * y[1] * gy[1] == y[0] * gy[0] * x[1] * gx[1])

    q = ps.q
    for mu in (lam for size in range(n - 1)
               for lam in combinat.multipartitions(ps.r, size)):
        tmu = combinat.t_lambda(mu)
        k = len(tmu) + 1
        C, e, _, _ = params.steps_out(mu, ps)
        w = params.wk_rational(mu, ps)
        for nu, cn in C.items():
            record("w-recursion", w_equal(params.wk_rational(nu, ps),
                                          params.wk_recursive_rational(w, cn, ps)),
                   "k={}, prefix={}", k + 1, tmu + (nu,))
        record("w-partial-fractions", w_partial_fractions_hold(ps, mu, w),
               "k={}, prefix={}", k, tmu)
        # g(mu->nu) g(nu->mu) and e_nu of each step out of mu and back
        loops = {nu: (factors((mu, nu), (nu, mu)), (x.numerator, x.denominator))
                 for nu, x in e.items()}
        for nu, nu2 in itertools.combinations(C, 2):
            (g, x), (g2, x2) = loops[nu], loops[nu2]
            record("star-symmetry", adjoint(x2, g, x, g2),
                   "s={}, t'={}, k={}", tmu + (nu, mu), tmu + (nu2, mu), k)
        # each swap window out of mu, by nu, rho, and its partner by nu2;
        # ``swap_window`` forms each once, for the model too
        for nu, cn in C.items():
            for rho in params.steps_out(nu, ps).C:
                if rho == mu:
                    continue
                # the window's swap data, or the regime error; no entry
                # leaves the diagonal where the swap leaves the lattice or
                # a is a unit
                _, nu2, p = swap_window(ps, k, mu, nu, rho)
                if p is None:
                    continue
                p_s = swap_window(ps, k, mu, nu2, rho)[2]
                record("star-symmetry", adjoint(p, factors((mu, nu), (nu, rho)),
                                                p_s, factors((mu, nu2), (nu2, rho))),
                       "t={}, u={}, k={}", tmu + (nu, rho), tmu + (nu2, rho), k)
    return IdentityReport(counts, failures)
