"""Multipartitions, updown tableaux, contents, and coset machinery."""

from fractions import Fraction
import math

from wenzl import combinat
from wenzl.combinat import (
    add_box, addable_nodes, box_diff, content_sequence, coset_reps,
    count_updown, d_perm, default_u, dominance_mp, dominance_std, empty_mp,
    enumerate_updown, hook_product, k_neighbors, mp_adjacent, mp_size,
    multipartitions, n_std, node_content, partitions, reachable_shapes,
    remove_box, removable_nodes, sk_action, standard_tableaux, step_node,
    t_lambda, young_subgroup,
)


def test_partition_counts():
    assert [len(partitions(m)) for m in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    for m in range(7):
        for p in partitions(m):
            assert sum(p) == m
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def test_multipartition_counts():
    # generating function (prod 1/(1-x^k))^r
    assert [len(multipartitions(2, m)) for m in range(5)] == [1, 2, 5, 10, 20]
    assert [len(multipartitions(3, m)) for m in range(4)] == [1, 3, 9, 22]
    for r in (1, 2, 3):
        for m in range(5):
            for lam in multipartitions(r, m):
                assert mp_size(lam) == m and len(lam) == r
            if r == 1:
                assert len(multipartitions(1, m)) == len(partitions(m))


def test_multipartitions_2_2():
    lams = multipartitions(2, 2)
    assert len(lams) == 5
    assert (((1,), (1,)) in lams) and (((), (1, 1)) in lams)


def test_addable_removable_boxes():
    lam = ((2, 1), (1,))
    add = addable_nodes(lam)
    rem = removable_nodes(lam)
    assert len(add) == 5 and len(rem) == 3
    for node in add:
        mu = add_box(lam, node)
        assert mp_size(mu) == 5
        assert remove_box(mu, node) == lam
        assert box_diff(lam, mu) == node
        assert mp_adjacent(lam, mu) and mp_adjacent(mu, lam)
    for node in rem:
        mu = remove_box(lam, node)
        assert add_box(mu, node) == lam


def test_node_content():
    u = (Fraction(6), Fraction(-2))
    # node (row i, column j, component s), 1-based -> u_s + (j - i)
    assert node_content((1, 1, 1), u) == 6
    assert node_content((2, 1, 1), u) == 5
    assert node_content((1, 3, 2), u) == 0
    # a removed box contributes the negated content
    assert node_content((1, 2, 1), u, removed=True) == -7


def test_reachable_shapes():
    # n strands reach every size n, n-2, n-4, ... multipartition
    for r in (1, 2):
        for n in range(5):
            shapes = reachable_shapes(r, n)
            sizes = {mp_size(lam) for lam in shapes}
            assert sizes == {n - 2 * f for f in range(n // 2 + 1)}
            assert len(set(shapes)) == len(shapes)


def test_standard_tableaux_and_hooks():
    lam = ((2, 1),)
    tabs = standard_tableaux(lam)
    assert len(tabs) == 2 == n_std(lam)
    assert hook_product((2, 1)) == 3
    for t in tabs:
        assert t[-1] == lam
        assert t[0] == ((1,),)
    # n_std via hook length formula agrees with enumeration
    for r in (1, 2):
        for m in range(5):
            for lam in multipartitions(r, m):
                assert len(standard_tableaux(lam)) == n_std(lam)


def test_count_updown_against_enumeration():
    for r in (1, 2):
        for n in range(5):
            for lam in reachable_shapes(r, n):
                assert count_updown(n, lam) == len(enumerate_updown(n, lam))


def test_updown_walks_are_walks():
    for t in enumerate_updown(4, ((2,),)):
        assert len(t) == 4
        prev = empty_mp(1)
        for lam in t:
            assert mp_adjacent(prev, lam)
            prev = lam
        assert t[-1] == ((2,),)


def test_zero_length_walk():
    assert enumerate_updown(0, empty_mp(2)) == [()]
    assert count_updown(0, empty_mp(2)) == 1


def test_square_sum_is_diagram_count():
    for r in (1, 2, 3):
        for n in range(5):
            total = sum(count_updown(n, lam) ** 2
                        for lam in reachable_shapes(r, n))
            assert total == r ** n * combinat.double_factorial(2 * n - 1)


def test_step_node_directions():
    t = (((1,), ()), ((1,), (1,)), ((1,), ()))
    node, removed = step_node(t, 2)
    assert node == (1, 1, 2) and not removed
    node, removed = step_node(t, 3)
    assert node == (1, 1, 2) and removed


def test_content_sequence():
    u = default_u(2, 2)
    t = (((1,), ()), ((1,), (1,)))
    assert content_sequence(t, u) == (Fraction(6), Fraction(-2))
    t2 = (((1,), ()), ((),  ()))
    assert content_sequence(t2, u) == (Fraction(6), Fraction(-6))


def test_default_u_gaps():
    """Default parameters keep all content gaps off the integers' danger zone:
    distinct entries, and pairwise differences of magnitude >= 2n."""
    for r in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            u = default_u(r, n)
            assert len(u) == r
            for a in range(r):
                for b in range(a + 1, r):
                    assert abs(u[a] - u[b]) >= 2 * n
                    assert abs(u[a] + u[b]) >= 1


def test_t_lambda_and_d_perm():
    lam = ((2, 1),)
    t0 = t_lambda(lam)
    assert d_perm(t0) == (1, 2, 3)
    for t in standard_tableaux(lam):
        d = d_perm(t)
        # applying d to the row-reading tableau recovers t
        entries = combinat.tableau_entries(t)
        ref = combinat.tableau_entries(t0)
        assert {node: d[k - 1] for node, k in ref.items()} == entries
    assert d_perm(()) == ()


def test_d_perm_matches_entries_of_t_lambda():
    # d(t^lam(box)) = t(box), with the entries of t^lambda read off its walk
    for lam in (lam for r in (1, 2, 3) for m in range(6) for lam in multipartitions(r, m)):
        canon = combinat.tableau_entries(t_lambda(lam))
        for t in standard_tableaux(lam):
            mine = combinat.tableau_entries(t)
            assert d_perm(t) == tuple(mine[box] for box in sorted(canon, key=canon.get)), t


def test_sk_action_and_neighbors():
    lam = ((2, 1),)
    for t in standard_tableaux(lam):
        for k in (1, 2):
            nb = k_neighbors(t, k)
            s = sk_action(t, k)
            assert t in nb
            if s is None:
                assert nb == [t]
            else:
                assert s != t and s in nb
                assert sk_action(s, k) == t  # an involution where defined


def test_dominance():
    assert dominance_mp(((2,),), ((1, 1),))
    assert not dominance_mp(((1, 1),), ((2,),))
    assert dominance_mp(((2,), ()), ((1,), (1,)))
    lam = ((2, 1),)
    t0 = t_lambda(lam)
    for t in standard_tableaux(lam):
        assert dominance_std(t0, t)


def test_young_subgroup_sizes():
    assert len(young_subgroup(((2, 1),), 3)) == 2
    assert len(young_subgroup(((3,),), 3)) == 6
    assert len(young_subgroup(((1,), (1, 1)), 3)) == 1
    for w in young_subgroup(((2,), (1,)), 3):
        assert w[2] == 3  # the second component's row is fixed pointwise


def test_coset_reps_sizes():
    """|S_n / (S_{n-2f} x hyperoctahedral)| = n! / ((n-2f)! 2^f f!)."""
    for n in range(1, 6):
        for f in range(n // 2 + 1):
            want = math.factorial(n) // (
                math.factorial(n - 2 * f) * 2 ** f * math.factorial(f))
            reps = coset_reps(n, f)
            assert len(reps) == want
            assert len(set(reps)) == want


def test_step_nodes_taken_once_per_tableau_equal_a_box_diff_walk():
    # the memo behind content_sequence and tableau_entries reads each step
    # of t once; a fresh box_diff walk must give the same (node, removed)
    for r in (1, 2, 3):
        for n in range(5):
            for lam in reachable_shapes(r, n):
                for t in enumerate_updown(n, lam):
                    want, prev = [], empty_mp(r)
                    for cur in t:
                        removed = mp_size(cur) < mp_size(prev)
                        want.append((box_diff(cur, prev) if removed
                                     else box_diff(prev, cur), removed))
                        prev = cur
                    assert combinat._step_nodes(t) == tuple(want), t
                    assert combinat._step_nodes(t) is combinat._step_nodes(t)
