"""Multipartitions, updown tableaux, contents, coset representatives,
permutations and generator words.

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


def multipartitions(r: int, m: int) -> list[Multipartition]:
    """All r-component multipartitions of total size m, deterministic order."""

    def rec(r, m):
        if r == 1:
            for p in partitions(m):
                yield (p,)
            return
        for first_size in range(m, -1, -1):
            for p in partitions(first_size):
                for rest in rec(r - 1, m - first_size):
                    yield (p,) + rest

    return list(rec(r, m))


def reachable_shapes(r: int, n: int) -> list[Multipartition]:
    """Shapes whose modules occur at n strands: all r-multipartitions of
    total size n, n-2, n-4, ... — largest size first, each block in the
    order of :func:`multipartitions`."""
    out: list[Multipartition] = []
    for m in range(n, -1, -2):
        out.extend(multipartitions(r, m))
    return out


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
    return -c if removed else Fraction(c)


def addable_removable(lam: Multipartition, u) -> list[tuple[Node, Fraction, str]]:
    """All addable then all removable nodes with their exact contents."""
    out = [(a, node_content(a, u), "addable") for a in addable_nodes(lam)]
    out += [(b, node_content(b, u, removed=True), "removable")
            for b in removable_nodes(lam)]
    return out


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


def box_diff(small: Multipartition, large: Multipartition) -> Node:
    """The node where two multipartitions differing by one box disagree."""
    for s, (p, q) in enumerate(zip(small, large), start=1):
        for i, (a, b) in enumerate(itertools.zip_longest(p, q, fillvalue=0), start=1):
            if a != b:
                assert abs(a - b) == 1
                return (i, max(a, b), s)
    raise ValueError("multipartitions are equal")


def neighbors(lam: Multipartition) -> list[Multipartition]:
    """The shapes one box away from lam, addable nodes first."""
    return ([add_box(lam, a) for a in addable_nodes(lam)]
            + [remove_box(lam, b) for b in removable_nodes(lam)])


def mp_adjacent(a: Multipartition, b: Multipartition) -> bool:
    """True when b is a plus or minus one box away from a."""
    return sum(abs(x - y) for p, q in zip(a, b)
               for x, y in itertools.zip_longest(p, q, fillvalue=0)) == 1


def step_node(t: Tableau, k: int) -> tuple[Node, bool]:
    """(node, removed) describing step k of an updown tableau (1-based)."""
    prev = t[k - 2] if k >= 2 else empty_mp(len(t[0]))
    cur = t[k - 1]
    if mp_size(cur) > mp_size(prev):
        return box_diff(prev, cur), False
    return box_diff(cur, prev), True


def default_u(r: int, n: int) -> tuple[Fraction, ...]:
    """Integral parameters satisfying the positivity and genericity gaps.

    Magnitudes n + 2n(r-t) strictly decrease by 2n down to n, with signs
    alternating + - + - from the first component.
    """
    m = max(n, 1)
    return tuple(Fraction((-1) ** (t + 1) * (m + 2 * m * (r - t)))
                 for t in range(1, r + 1))


@functools.cache
def _step_nodes(t: Tableau) -> tuple[tuple[Node, bool], ...]:
    """``step_node`` at every step of t, taken once per tableau; it does not
    depend on the roots."""
    return tuple(step_node(t, k) for k in range(1, len(t) + 1))


def content_sequence(t: Tableau, u) -> tuple[Fraction, ...]:
    return tuple(node_content(node, u, removed) for node, removed in _step_nodes(t))


@functools.cache
def _walk(r: int, n: int) -> tuple[tuple[Tableau, ...], dict]:
    """The updown tableaux of n steps, extending those of n - 1 steps in
    depth-first order (addable before removable nodes), and the same
    tableaux bucketed by endpoint."""
    walks = ((),) if n == 0 else tuple(
        t + (nu,) for t in _walk(r, n - 1)[0]
        for nu in neighbors(t[-1] if t else empty_mp(r)))
    by_end: dict[Multipartition, list[Tableau]] = {}
    for t in walks:
        by_end.setdefault(t[-1] if t else empty_mp(r), []).append(t)
    return walks, by_end


def enumerate_updown(n: int, lam: Multipartition, u=None) -> list[Tableau]:
    """All updown tableaux from the empty multipartition to lam in n steps:
    the walks of n steps ending at lam, sorted lexicographically by content
    sequence under u (default generic).  Ties keep the depth-first order."""
    if (n - mp_size(lam)) % 2 or mp_size(lam) > n:
        raise ValueError(f"no updown tableaux: n={n}, |lam|={mp_size(lam)}")
    if u is None:
        u = default_u(len(lam), n)
    return sorted(_walk(len(lam), n)[1].get(lam, ()),
                  key=lambda t: content_sequence(t, u))


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


def count_updown(n: int, lam: Multipartition) -> int:
    """r^m (n choose 2m) (2m-1)!! #std(lam) with 2m = n - |lam|."""
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


def k_neighbors(t: Tableau, k: int) -> list[Tableau]:
    """All updown tableaux equal to t except possibly at position k."""
    n = len(t)
    assert 1 <= k <= n
    if k == n:
        return [t]
    r = len(t[0])
    prev = t[k - 2] if k >= 2 else empty_mp(r)
    return [t[:k - 1] + (mid,) + t[k:] for mid in neighbors(prev)
            if mp_adjacent(mid, t[k])]


def sk_action(t: Tableau, k: int):
    """Swap steps k and k+1; None when the swapped path leaves the lattice."""
    n = len(t)
    assert 1 <= k < n
    r = len(t[0])
    prev = t[k - 2] if k >= 2 else empty_mp(r)
    if prev == t[k]:
        raise ValueError("steps k, k+1 return to the start; swap is not defined")
    node2, removed2 = _step_nodes(t)[k]
    try:
        mid = remove_box(prev, node2) if removed2 else add_box(prev, node2)
    except (AssertionError, IndexError):
        return None
    if any(any(row <= 0 for row in p) or list(p) != sorted(p, reverse=True)
           for p in mid):
        return None
    return t[:k - 1] + (mid,) + t[k:]


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


def young_subgroup(lam: Multipartition, n: int) -> list[tuple[int, ...]]:
    """The row stabilizer of t^lambda as one-line permutations of {1..n}."""
    rows = []
    entry = 1
    for p in lam:
        for row in p:
            rows.append(list(range(entry, entry + row)))
            entry += row
    perms = [tuple(range(1, n + 1))]
    for row in rows:
        new = []
        for base in perms:
            for sigma in itertools.permutations(row):
                w = list(base)
                for pos, val in zip(row, sigma):
                    w[pos - 1] = val
                new.append(tuple(w))
        perms = new
    return perms


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


def perm_mult(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(w[v[i] - 1] for i in range(len(v)))


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


def star_word(word: Word) -> Word:
    """The anti-involution fixing every generator letter: reverse the word."""
    return tuple(reversed(word))
