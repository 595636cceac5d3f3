"""Brauer diagrams and words in the crossing/contraction generators.

A diagram of size n is a perfect matching on 2n vertices.  The top row is
labelled 1..n and the bottom row n+1..2n (bottom vertex i is stored as n+i).
Multiplication stacks the left factor on top of the right factor, identifies
the left factor's bottom row with the right factor's top row, traces paths
through the middle, and counts the closed loops that drop out.

Words over the alphabet {S_i, E_i, X_j^a} are kept as plain tuples of
letters ``("S", i)``, ``("E", i)``, ``("X", j, a)``.  The S/E letters have a
diagrammatic meaning (crossing, contraction) and a word can be evaluated
back to a diagram; X letters only tag exponents for the modules downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

Edge = tuple[int, int]
Letter = tuple
Word = tuple[Letter, ...]


def double_factorial(m: int) -> int:
    """m!! for odd m, with (-1)!! = 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@dataclass(frozen=True, order=True)
class BrauerDiagram:
    """A perfect matching on {1..2n}, edges sorted, each edge (low, high)."""

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, pairs) -> "BrauerDiagram":
        edges = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        flat = sorted(v for e in edges for v in e)
        if flat != list(range(1, 2 * n + 1)):
            raise ValueError(f"not a perfect matching on {2*n} vertices: {pairs!r}")
        return cls(n, edges)

    def top_arcs(self) -> tuple[Edge, ...]:
        """Horizontal edges in the top row, labels in 1..n."""
        return tuple((a, b) for a, b in self.edges if b <= self.n)

    def bottom_arcs(self) -> tuple[Edge, ...]:
        """Horizontal edges in the bottom row, relabelled to 1..n."""
        n = self.n
        return tuple((a - n, b - n) for a, b in self.edges if a > n)

    def verticals(self) -> tuple[Edge, ...]:
        """Through edges as (top label, bottom label), both in 1..n."""
        n = self.n
        return tuple((a, b - n) for a, b in self.edges if a <= n < b)


def identity_diagram(n: int) -> BrauerDiagram:
    return BrauerDiagram.from_edges(n, [(i, n + i) for i in range(1, n + 1)])


def transposition_diagram(n: int, i: int, j: int) -> BrauerDiagram:
    """The diagram of the transposition (i j): edges {i, j-bar}, {j, i-bar}."""
    assert 1 <= i < j <= n
    pairs = [(i, n + j), (j, n + i)]
    pairs += [(k, n + k) for k in range(1, n + 1) if k not in (i, j)]
    return BrauerDiagram.from_edges(n, pairs)


def contraction_diagram(n: int, i: int, j: int) -> BrauerDiagram:
    """Horizontal edges {i,j} top and bottom, all else vertical."""
    assert 1 <= i < j <= n
    pairs = [(i, j), (n + i, n + j)]
    pairs += [(k, n + k) for k in range(1, n + 1) if k not in (i, j)]
    return BrauerDiagram.from_edges(n, pairs)


def generator_diagram(n: int, letter: Letter) -> BrauerDiagram:
    kind, i = letter[0], letter[1]
    if kind == "S":
        return transposition_diagram(n, i, i + 1)
    if kind == "E":
        return contraction_diagram(n, i, i + 1)
    raise ValueError(f"letter {letter!r} has no diagram")


def compose(g: BrauerDiagram, h: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Stack g over h; return the composite diagram and the loop count.

    In the diagram algebra b_g b_h = omega^loops * b_{g o h}.
    """
    if g.n != h.n:
        raise ValueError("size mismatch")
    n = g.n
    # Nodes: ("t", v) top of the result, ("m", i) glued middle, ("b", v) bottom.
    adj: dict[tuple, list] = {}

    def link(x, y):
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    for a, b in g.edges:
        link(("t", a) if a <= n else ("m", a - n),
             ("t", b) if b <= n else ("m", b - n))
    for a, b in h.edges:
        link(("m", a) if a <= n else ("b", a),
             ("m", b) if b <= n else ("b", b))

    endpoints = [("t", v) for v in range(1, n + 1)]
    endpoints += [("b", v) for v in range(n + 1, 2 * n + 1)]
    seen_mid: set = set()
    done: set = set()
    new_edges = []
    for ep in endpoints:
        if ep in done:
            continue
        prev, cur = ep, adj[ep][0]
        while cur[0] == "m":
            seen_mid.add(cur)
            nbrs = list(adj[cur])
            nbrs.remove(prev)  # removes one occurrence; parallel edges are fine
            prev, cur = cur, nbrs[0]
        done.add(ep)
        done.add(cur)
        new_edges.append((ep[1], cur[1]))

    # Components of unvisited middle vertices are the closed loops.
    loops = 0
    todo = {("m", i) for i in range(1, n + 1) if ("m", i) in adj} - seen_mid
    while todo:
        loops += 1
        stack = [todo.pop()]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in todo:
                    todo.remove(y)
                    stack.append(y)
    return BrauerDiagram.from_edges(n, new_edges), loops


def enumerate_diagrams(n: int) -> list[BrauerDiagram]:
    """All (2n-1)!! diagrams, lexicographic on their sorted edge tuples."""

    def matchings(verts: tuple[int, ...]):
        if not verts:
            yield ()
            return
        a, rest = verts[0], verts[1:]
        for k in range(len(rest)):
            b = rest[k]
            for tail in matchings(rest[:k] + rest[k + 1:]):
                yield ((a, b),) + tail

    return [BrauerDiagram(n, m) for m in matchings(tuple(range(1, 2 * n + 1)))]


# ---------------------------------------------------------------------------
# permutations as one-line tuples, composed left to right
# ---------------------------------------------------------------------------
#
# Words (i_1, ..., i_k) stand for the product s_{i_1} s_{i_2} ... s_{i_k}
# applied first letter first, matching how the diagrams stack: the diagram
# of v stacked over the diagram of w is the diagram of v * w, with
# (v * w)(x) = w(v(x)).


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


def compose_word(word: Word, n: int) -> tuple[BrauerDiagram, int]:
    """Evaluate an S/E word to (diagram, total loop count)."""
    cur, loops = identity_diagram(n), 0
    for letter in word:
        cur, extra = compose(cur, generator_diagram(n, letter))
        loops += extra
    return cur, loops


def star_word(word: Word) -> Word:
    """The anti-involution fixing every generator letter: reverse the word."""
    return tuple(reversed(word))


def word_for_diagram(g: BrauerDiagram) -> Word:
    """A deterministic S/E word that composes to g with zero loops.

    Normal form sigma1 * (E_1 E_3 ... E_{2f-1}) * sigma2: sigma1 carries the
    top arcs onto the standard positions {1,2}, {3,4}, ..., sigma2 carries the
    standard positions onto the bottom arcs and matches the through strands.
    Among all ways to assign arcs to standard positions, each sigma is the
    lexicographically least minimal-length permutation, sigma1 first.
    """
    n = g.n
    tops = g.top_arcs()
    bots = g.bottom_arcs()
    verts = g.verticals()
    f = len(tops)

    def key(word):
        return (len(word), word)

    best_p = None
    for arc_order in itertools.permutations(range(f)):
        for flips in itertools.product((False, True), repeat=f):
            for vert_order in itertools.permutations(range(len(verts))):
                p = [0] * n
                for slot in range(f):
                    a, b = tops[arc_order[slot]]
                    x, y = 2 * slot + 1, 2 * slot + 2
                    if flips[slot]:
                        x, y = y, x
                    p[a - 1], p[b - 1] = x, y
                for slot in range(len(verts)):
                    t, _ = verts[vert_order[slot]]
                    p[t - 1] = 2 * f + 1 + slot
                p = tuple(p)
                if best_p is None or key(perm_word(p)) < key(perm_word(best_p)):
                    best_p = p

    best_q = None
    for arc_order in itertools.permutations(range(f)):
        for flips in itertools.product((False, True), repeat=f):
            q = [0] * n
            for slot in range(f):
                c, d = bots[arc_order[slot]]
                x, y = 2 * slot + 1, 2 * slot + 2
                if flips[slot]:
                    x, y = y, x
                q[x - 1], q[y - 1] = c, d
            for t, u in verts:
                q[best_p[t - 1] - 1] = u
            q = tuple(q)
            if best_q is None or key(perm_word(q)) < key(perm_word(best_q)):
                best_q = q

    word = word_for_permutation(best_p)
    word += tuple(("E", 2 * k + 1) for k in range(f))
    word += word_for_permutation(best_q)

    check, loops = compose_word(word, n)
    assert check == g and loops == 0, (g, word)
    return word
