"""Brauer diagrams, and the regular-monomial census written over them.

A diagram of size n is a perfect matching on 2n vertices.  The top row is
labelled 1..n and the bottom row n+1..2n (bottom vertex i is stored as n+i).
Multiplication stacks the left factor on top of the right factor, identifies
the left factor's bottom row with the right factor's top row, traces paths
through the middle, and counts the closed loops that drop out.  Stacking
follows the composition rule of ``combinat``: the diagram of v stacked over
the diagram of w is the diagram of v * w.  The S/E letters of a generator
word have a diagrammatic meaning (crossing, contraction), and an S/E word
evaluates back to a diagram.

The regular monomials X^left · B_diagram · X^right with exponents below r
are the spanning set of the freeness theorem: r^n (2n-1)!! of them.  The
tests eliminate them, as vectors on ``seminormal.Realization``
(``support.vec``), to their exact rank; no job of the command line reaches
them, since ``cellrank`` certifies the rank of the cellular family, cell by
cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from wenzl.combinat import Letter, Word, perm_word, word_for_permutation

Edge = tuple[int, int]


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



def compose_word(word: Word, n: int) -> tuple[BrauerDiagram, int]:
    """Evaluate an S/E word to (diagram, total loop count)."""
    cur, loops = identity_diagram(n), 0
    for letter in word:
        cur, extra = compose(cur, generator_diagram(n, letter))
        loops += extra
    return cur, loops



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


# -- the regular-monomial census -----------------------------------------


@dataclass(frozen=True)
class RegularMonomial:
    """X^left · B_diagram · X^right with the endpoint support rules.

    Left exponents vanish at the left endpoint of every top arc; right
    exponents live only at the left endpoints of bottom arcs.  Exponents
    are not bounded here; the census takes those below r.
    """

    left_powers: tuple[int, ...]
    diagram: BrauerDiagram
    right_powers: tuple[int, ...]

    def __post_init__(self):
        n = self.diagram.n
        if len(self.left_powers) != n or len(self.right_powers) != n:
            raise ValueError("need one exponent per strand on each side")
        if any(a < 0 for a in self.left_powers + self.right_powers):
            raise ValueError("exponents must be nonnegative")
        top_left = {a for a, _ in self.diagram.top_arcs()}
        bot_left = {a for a, _ in self.diagram.bottom_arcs()}
        if any(self.left_powers[i - 1] for i in top_left):
            raise ValueError("left exponent sits on a top-arc left endpoint")
        for i in range(1, n + 1):
            if self.right_powers[i - 1] and i not in bot_left:
                raise ValueError("right exponent off the bottom-arc left endpoints")

    @property
    def degree(self) -> int:
        return sum(self.left_powers) + sum(self.right_powers)


def enumerate_r_regular(r: int, n: int) -> list[RegularMonomial]:
    """All monomials with exponents < r, in a fixed deterministic order:
    diagrams first, then left exponents, then right exponents, both lex."""
    out: list[RegularMonomial] = []
    for g in enumerate_diagrams(n):
        top_left = {a for a, _ in g.top_arcs()}
        bot_left = sorted(a for a, _ in g.bottom_arcs())
        left_free = [i for i in range(1, n + 1) if i not in top_left]
        for avals in itertools.product(range(r), repeat=len(left_free)):
            left = [0] * n
            for pos, v in zip(left_free, avals):
                left[pos - 1] = v
            for bvals in itertools.product(range(r), repeat=len(bot_left)):
                right = [0] * n
                for pos, v in zip(bot_left, bvals):
                    right[pos - 1] = v
                out.append(RegularMonomial(tuple(left), g, tuple(right)))
    return out


def word_for_monomial(m: RegularMonomial) -> Word:
    letters = [("X", j, a) for j, a in enumerate(m.left_powers, start=1) if a]
    letters += list(word_for_diagram(m.diagram))
    letters += [("X", j, b) for j, b in enumerate(m.right_powers, start=1) if b]
    return tuple(letters)
