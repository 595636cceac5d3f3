"""Brauer diagrams, composition with loop counting, and generator words."""

import itertools

from brauer import (
    compose, compose_word, contraction_diagram, enumerate_diagrams,
    generator_diagram, identity_diagram, transposition_diagram, word_for_diagram,
)
from support import perm_mult, perm_of_word, permutation_diagram, star_word
from wenzl.combinat import double_factorial, perm_inverse, perm_word, word_for_permutation


def test_double_factorial():
    assert [double_factorial(m) for m in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]


def test_enumerate_counts():
    for n in range(5):
        assert len(enumerate_diagrams(n)) == double_factorial(2 * n - 1)


def test_partner_involution():
    for g in enumerate_diagrams(3):
        partner = {a: b for a, b in g.edges} | {b: a for a, b in g.edges}
        pts = [i for i in range(1, 7)]
        assert sorted(partner) == pts
        for p in pts:
            q = partner[p]
            assert q != p
            assert partner[q] == p


def test_arc_bookkeeping():
    # top arcs + bottom arcs + verticals account for every endpoint
    for g in enumerate_diagrams(4):
        t, b = g.top_arcs(), g.bottom_arcs()
        assert len(t) == len(b)
        assert 2 * len(t) + len(g.verticals()) == 4


def test_identity_and_generators():
    e = identity_diagram(3)
    assert len(e.verticals()) == 3
    assert e == permutation_diagram(3, (1, 2, 3))
    s = generator_diagram(3, ("S", 1))
    assert s == transposition_diagram(3, 1, 2)
    assert s == permutation_diagram(3, (2, 1, 3))
    c = generator_diagram(3, ("E", 2))
    assert c == contraction_diagram(3, 2, 3)
    assert len(c.verticals()) < 3


def test_compose_contraction_loop():
    """E_i E_i closes one loop and reproduces E_i."""
    c = contraction_diagram(2, 1, 2)
    g, loops = compose(c, c)
    assert g == c and loops == 1
    # E_1 E_2 E_1 = E_1 with no loop
    c1 = contraction_diagram(3, 1, 2)
    c2 = contraction_diagram(3, 2, 3)
    g, l1 = compose(c1, c2)
    g, l2 = compose(g, c1)
    assert g == c1 and l1 == 0 and l2 == 0


def test_compose_matches_permutation_product():
    perms = list(itertools.permutations((1, 2, 3)))
    for v in perms:
        for w in perms:
            g, loops = compose(permutation_diagram(3, v), permutation_diagram(3, w))
            assert loops == 0
            assert g == permutation_diagram(3, perm_mult(v, w))


def test_perm_words():
    for n in (2, 3, 4):
        for w in itertools.permutations(range(1, n + 1)):
            word = perm_word(w)
            assert perm_of_word(word, n) == w
            # number of letters equals the inversion count
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if w[i] > w[j])
            assert len(word) == inv
            assert perm_mult(w, perm_inverse(w)) == tuple(range(1, n + 1))


def test_word_for_permutation_letters():
    w = (3, 1, 2)
    word = word_for_permutation(w)
    assert all(letter[0] == "S" for letter in word)
    g, loops = compose_word(word, 3)
    assert loops == 0 and g == permutation_diagram(3, w)


def test_star_word_reverses():
    word = (("S", 1), ("E", 2), ("S", 2))
    assert star_word(word) == (("S", 2), ("E", 2), ("S", 1))


def test_word_for_diagram_recomposes():
    """Every diagram's normal-form word recomposes to it without loops."""
    for n in (2, 3, 4):
        for g in enumerate_diagrams(n):
            word = word_for_diagram(g)
            h, loops = compose_word(word, n)
            assert loops == 0
            assert h == g


def test_word_for_diagram_normal_form():
    # permutation diagrams get pure S words, contractions sit between them
    for g in enumerate_diagrams(3):
        word = word_for_diagram(g)
        kinds = [letter[0] for letter in word]
        if len(g.verticals()) == 3:
            assert "E" not in kinds
        else:
            first_e = kinds.index("E")
            last_e = len(kinds) - 1 - kinds[::-1].index("E")
            assert all(k == "E" for k in kinds[first_e:last_e + 1])
