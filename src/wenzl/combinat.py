"""Multipartitions, updown tableaux, contents, coset representatives,
permutations and generator words.

``steps_from`` holds the steps out of each shape, with the node each adds
or removes, once per process; every question about a step reads it.
``multipartitions``, ``reachable_shapes`` and ``count_updown`` are held
per process too, as tuples where they list shapes: none reads the roots.

Conventions used throughout:

- A partition is a tuple of weakly decreasing positive integers (no trailing
  zeros); a multipartition is an r-tuple of partitions.
- A node is a triple (i, j, s): row, column, component, all 1-based.
- An updown tableau is the tuple (t_1, ..., t_n) of multipartitions visited
  after each step, starting implicitly at the empty multipartition.  Standard
  tableaux are the special case where every step adds a box.
- Permutations are one-line tuples composed left to right: v * w is v
  then w, (v * w)(x) = w(v(x)), and a word (i_1, ..., i_k) is the product
  s_{i_1} s_{i_2} ... s_{i_k} applied first letter first.
- A generator word is a tuple of letters ("S", i), ("E", i) and
  ("X", j, a), the last standing for X_j^a; it is their product in order.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]
Node = tuple[int, int, int]
Tableau = tuple[Multipartition, ...]
Letter = tuple
Word = tuple[Letter, ...]


def partitions(m: int) -> list[Partition]:
    """Partitions of m, descending lexicographic: (m) first, (1,..,1) last."""

    def rec(m, cap):
        if m == 0:
            yield ()
            return
        for first in range(min(m, cap), 0, -1):
            for rest in rec(m - first, first):
                yield (first,) + rest

    return list(rec(m, m))


def empty_mp(r: int) -> Multipartition:
    return ((),) * r


def mp_size(lam: Multipartition) -> int:
    return sum(sum(p) for p in lam)


@functools.cache
def multipartitions(r: int, m: int) -> tuple[Multipartition, ...]:
    """All r-component multipartitions of total size m, deterministic order;
    held per (r, m) for the process, since they do not depend on the
    roots."""

    def rec(r, m):
        if r == 1:
            for p in partitions(m):
                yield (p,)
            return
        for first_size in range(m, -1, -1):
            for p in partitions(first_size):
                for rest in rec(r - 1, m - first_size):
                    yield (p,) + rest

    return tuple(rec(r, m))


@functools.cache
def reachable_shapes(r: int, n: int) -> tuple[Multipartition, ...]:
    """Shapes whose modules occur at n strands: all r-multipartitions of
    total size n, n-2, n-4, ... — largest size first, each block in the
    order of :func:`multipartitions`; held per (r, n) for the process."""
    return tuple(lam for m in range(n, -1, -2) for lam in multipartitions(r, m))


def addable_nodes(lam: Multipartition) -> list[Node]:
    out = []
    for s, p in enumerate(lam, start=1):
        for i in range(1, len(p) + 2):
            row = p[i - 1] if i <= len(p) else 0
            above = p[i - 2] if i >= 2 else None
            if i == 1 or row < above:
                out.append((i, row + 1, s))
    return out


def removable_nodes(lam: Multipartition) -> list[Node]:
    out = []
    for s, p in enumerate(lam, start=1):
        for i in range(1, len(p) + 1):
            below = p[i] if i < len(p) else 0
            if p[i - 1] > below:
                out.append((i, p[i - 1], s))
    return out


def node_content(node: Node, u, removed: bool = False) -> Fraction:
    i, j, s = node
    c = u[s - 1] + (j - i)
    if type(c) is not Fraction:
        c = Fraction(c)
    return -c if removed else c


def add_box(lam: Multipartition, node: Node) -> Multipartition:
    i, j, s = node
    p = list(lam[s - 1])
    if i == len(p) + 1:
        p.append(0)
    assert p[i - 1] == j - 1
    p[i - 1] = j
    return lam[:s - 1] + (tuple(p),) + lam[s:]


def remove_box(lam: Multipartition, node: Node) -> Multipartition:
    i, j, s = node
    p = list(lam[s - 1])
    assert p[i - 1] == j
    p[i - 1] = j - 1
    while p and p[-1] == 0:
        p.pop()
    return lam[:s - 1] + (tuple(p),) + lam[s:]


@functools.cache
def steps_from(lam: Multipartition) -> dict[Multipartition, tuple[Node, bool]]:
    """The steps out of lam, held per shape for the process: each shape one
    box away, addable nodes first, mapped to (node, removed), the node the
    step adds or removes.  It does not depend on the roots."""
    steps = {add_box(lam, a): (a, False) for a in addable_nodes(lam)}
    steps.update((remove_box(lam, b), (b, True)) for b in removable_nodes(lam))
    return steps


def shape_before(t: Tableau, k: int) -> Multipartition:
    """The shape of t before step k: t_{k-1}, or the empty multipartition
    when k = 1."""
    return t[k - 2] if k >= 2 else empty_mp(len(t[0]))


def default_u(r: int, n: int) -> tuple[Fraction, ...]:
    """Integral parameters with genericity gaps: roots at least 2n apart, so
    that contents in different components differ by at least 2 on n strands.

    Magnitudes n + 2n(r-t) strictly decrease by 2n down to n, with signs
    alternating + - + - from the first component.
    """
    m = max(n, 1)
    return tuple(Fraction((-1) ** (t + 1) * (m + 2 * m * (r - t)))
                 for t in range(1, r + 1))


def _step_nodes(t: Tableau) -> tuple[tuple[Node, bool], ...]:
    """(node, removed) at every step of t, read from ``steps_from``."""
    return tuple(steps_from(shape_before(t, k))[t[k - 1]] for k in range(1, len(t) + 1))


def content_sequence(t: Tableau, u) -> tuple[Fraction, ...]:
    return tuple(node_content(node, u, removed) for node, removed in _step_nodes(t))


@functools.cache
def _walk(r: int, n: int) -> tuple[tuple[Tableau, ...], dict]:
    """The updown tableaux of n steps, extending those of n - 1 steps in
    depth-first order (addable before removable nodes), and the same
    tableaux bucketed by endpoint."""
    walks = ((),) if n == 0 else tuple(
        t + (nu,) for t in _walk(r, n - 1)[0]
        for nu in steps_from(t[-1] if t else empty_mp(r)))
    by_end: dict[Multipartition, list[Tableau]] = {}
    for t in walks:
        by_end.setdefault(t[-1] if t else empty_mp(r), []).append(t)
    return walks, by_end


def updown_walks(n: int, lam: Multipartition) -> tuple[Tableau, ...]:
    """All updown tableaux from the empty multipartition to lam in n steps,
    in depth-first order (addable before removable nodes)."""
    if (n - mp_size(lam)) % 2 or mp_size(lam) > n:
        raise ValueError(f"no updown tableaux: n={n}, |lam|={mp_size(lam)}")
    return tuple(_walk(len(lam), n)[1].get(lam, ()))


def enumerate_updown(n: int, lam: Multipartition, u=None) -> list[Tableau]:
    """``updown_walks`` sorted lexicographically by content sequence under
    u (default generic).  Ties keep the depth-first order."""
    walks = updown_walks(n, lam)
    if u is None:
        u = default_u(len(lam), n)
    return sorted(walks, key=lambda t: content_sequence(t, u))


def hook_product(p: Partition) -> int:
    conj = [sum(1 for row in p if row >= j) for j in range(1, (p[0] if p else 0) + 1)]
    out = 1
    for i, row in enumerate(p, start=1):
        for j in range(1, row + 1):
            out *= (row - j) + (conj[j - 1] - i) + 1
    return out


def n_std(lam: Multipartition) -> int:
    """Number of standard tableaux: the multinomial of the component sizes
    times each component's hook-length count, which is |lam|! over the
    product of all hook lengths."""
    return math.factorial(mp_size(lam)) // math.prod(hook_product(p) for p in lam)


def double_factorial(m: int) -> int:
    """m!! for odd m, with (-1)!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@functools.cache
def count_updown(n: int, lam: Multipartition) -> int:
    """r^m (n choose 2m) (2m-1)!! #std(lam) with 2m = n - |lam|, held per
    (n, lam) for the process."""
    r = len(lam)
    size = mp_size(lam)
    if (n - size) % 2 or size > n:
        raise ValueError(f"parity mismatch: n={n}, |lam|={size}")
    m = (n - size) // 2
    return r ** m * math.comb(n, 2 * m) * n_std(lam) * double_factorial(2 * m - 1)


def standard_tableaux(lam: Multipartition) -> list[Tableau]:
    return enumerate_updown(mp_size(lam), lam)


def t_lambda(lam: Multipartition) -> Tableau:
    """The maximal standard tableau: fill components in order, rows in order."""
    path = []
    cur = empty_mp(len(lam))
    for s, p in enumerate(lam, start=1):
        for i, row in enumerate(p, start=1):
            for j in range(1, row + 1):
                cur = add_box(cur, (i, j, s))
                path.append(cur)
    return tuple(path)


def tableau_entries(t: Tableau) -> dict[Node, int]:
    """For a standard tableau, the entry written in each box."""
    out = {}
    for k, (node, removed) in enumerate(_step_nodes(t), start=1):
        assert not removed, "not a standard tableau"
        out[node] = k
    return out


def d_perm(t: Tableau) -> tuple[int, ...]:
    """The permutation carrying t^lambda to t entrywise: d(t^lam(box)) = t(box).
    t^lambda fills components in order and rows in order, so its entry at
    (i, j, s) is the number of boxes in the components before s and in the
    rows above i of component s, plus j."""
    if not t:
        return ()
    lam = t[-1]
    before = [0]
    for p in lam:
        before.append(before[-1] + sum(p))
    d = [0] * len(t)
    for (i, j, s), k in tableau_entries(t).items():
        d[before[s - 1] + sum(lam[s - 1][:i - 1]) + j - 1] = k
    return tuple(d)


def sk_action(t: Tableau, k: int):
    """Swap steps k and k+1; None when the swapped path leaves the lattice."""
    n = len(t)
    assert 1 <= k < n
    prev = shape_before(t, k)
    if prev == t[k]:
        raise ValueError("steps k, k+1 return to the start; swap is not defined")
    step = steps_from(t[k - 1])[t[k]]
    return next((t[:k - 1] + (mid,) + t[k:] for mid, other in steps_from(prev).items()
                 if other == step), None)


def dominance_mp(lam: Multipartition, mu: Multipartition) -> bool:
    """lam dominates mu: partial sums by component prefix never fall behind."""
    assert len(lam) == len(mu) and mp_size(lam) == mp_size(mu)
    for s in range(len(lam)):
        head_l, head_m = mp_size(lam[:s]), mp_size(mu[:s])
        for k in range(max(len(lam[s]), len(mu[s])) + 1):
            if head_l + sum(lam[s][:k]) < head_m + sum(mu[s][:k]):
                return False
    return True


def dominance_std(s: Tableau, t: Tableau) -> bool:
    """s dominates t: shape restriction dominates at every step."""
    assert len(s) == len(t)
    return all(dominance_mp(s[k], t[k]) for k in range(len(s)))


def coset_reps(n: int, f: int) -> list[tuple[int, ...]]:
    """Right coset representatives indexing the placements of f arcs.

    d qualifies when relabelling the reference two-component tableau
    ((n-2f), (2,2,...,2)) by d leaves every row increasing and the first
    column of the second component increasing downward.
    """
    assert 0 <= 2 * f <= n
    rows = [list(range(1, n - 2 * f + 1))] if n - 2 * f else []
    rows += [[n - 2 * f + 2 * i + 1, n - 2 * f + 2 * i + 2] for i in range(f)]
    out = []
    for d in itertools.permutations(range(1, n + 1)):
        image = [[d[x - 1] for x in row] for row in rows]
        if any(r != sorted(r) for r in image):
            continue
        arc_rows = image[1:] if n - 2 * f else image
        if any(arc_rows[i][0] > arc_rows[i + 1][0] for i in range(len(arc_rows) - 1)):
            continue
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# permutations and words
# ---------------------------------------------------------------------------


def perm_inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi - 1] = i + 1
    return tuple(out)


def perm_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least reduced word for w.

    Greedy: always emit the smallest i with w(i) > w(i+1); any descent can
    start a reduced word, so this is minimal in length and lex-least.
    """
    w = list(w)
    out = []
    while True:
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                out.append(i + 1)
                w[i], w[i + 1] = w[i + 1], w[i]
                break
        else:
            return tuple(out)


def word_for_permutation(w: tuple[int, ...]) -> Word:
    return tuple(("S", i) for i in perm_word(w))
