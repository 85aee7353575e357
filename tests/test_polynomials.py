"""Subtree polynomials, the branch form of the local mean, and the ratio
inequality."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktrees import core, oracle, polynomials as P
from ktrees.errors import NotATree
from ktrees.verify import tree_adjacency

from conftest import branch_mean, count_and_total

STAR = {1: {2, 3, 4}, 2: {1}, 3: {1}, 4: {1}}
P4 = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
P2 = {1: {2}, 2: {1}}
K1 = {1: set()}


def test_int_polynomial_basics():
    p = P.IntPolynomial((0, 1, 1, 0))  # x + x^2
    assert p.coeffs == (0, 1, 1)
    assert p.shift(2).coeffs == (0, 0, 0, 1, 1)
    assert str(p) == "x + x^2"
    assert P.IntPolynomial((1, 0, 0)).coeffs == (1,)
    assert P.IntPolynomial((0, 0)).shift(3) == P.IntPolynomial()


def test_rational_rendering():
    assert P.format_rational(Fraction(5, 2)) == "5/2 (2.500000)"
    assert P.format_rational(Fraction(2)) == "2/1 (2.000000)"
    assert P.format_decimal(Fraction(23, 11)) == "2.090909"
    # round-half-even at the sixth digit
    assert P.format_decimal(Fraction(1, 2 * 10**6)) == "0.000000"
    assert P.format_decimal(Fraction(3, 2 * 10**6)) == "0.000002"


def test_subtree_poly_examples():
    assert P.subtree_poly_at_vertex(K1, 1).coeffs == (0, 1)  # x
    center = P.subtree_poly_at_vertex(STAR, 1)
    assert center.coeffs == (0, 1, 3, 3, 1)  # x(1+x)^3
    assert count_and_total(center) == (8, 20)
    leaf = P.subtree_poly_at_vertex(STAR, 2)
    assert count_and_total(leaf) == (5, 13)


def test_local_mean_examples():
    assert P.local_mean_order_vertex(STAR, 1) == Fraction(5, 2)
    assert P.local_mean_order_vertex(STAR, 2) == Fraction(13, 5)
    assert P.local_mean_order_vertex(STAR, 2) > P.local_mean_order_vertex(STAR, 1)
    assert P.local_mean_order_vertex(P4, 2) == Fraction(5, 2)
    assert P.local_mean_order_vertex(K1, 1) == 1


def test_global_examples():
    assert P.global_mean_order_tree(P4) == 2  # (n+2)/3 with n=4
    assert P.global_mean_order_tree(K1) == 1
    assert P.global_mean_order_tree(STAR) == Fraction(23, 11)  # 11 subtrees


def test_not_a_tree_errors():
    with pytest.raises(NotATree):
        P.subtree_poly_at_vertex({1: {2, 3}, 2: {1, 3}, 3: {1, 2}}, 1)  # cycle
    with pytest.raises(NotATree):
        P.global_mean_order_tree({1: {2}, 2: {1}, 3: set()})  # disconnected
    with pytest.raises(NotATree):
        P.subtree_poly_at_vertex({1: {2}, 2: {1, 3}, 3: {2}}, 9)  # missing vertex
    with pytest.raises(NotATree):
        P.jamison_ratio_check({1: {2}, 2: {1, 3}, 3: {2}}, 9)


def test_a_tree_with_a_non_integer_label_is_refused():
    """Trees come from k-trees, so their labels are ints; any other label is
    refused as not a tree before a mixed set of labels is ever sorted."""
    with pytest.raises(NotATree, match="not an integer"):
        P.local_mean_order_vertex({"a": {"b"}, "b": {"a"}}, "a")
    with pytest.raises(NotATree, match="not an integer"):
        P.global_mean_order_tree({1: {"x"}, "x": {1}})


def test_local_mean_via_branches_examples():
    assert branch_mean(P2, 1, 2) == Fraction(3, 2)
    assert branch_mean(P4, 2, 3) == Fraction(5, 2)
    assert branch_mean(STAR, 1, 2) == Fraction(5, 2)
    assert branch_mean(STAR, 2, 1) == Fraction(13, 5)


def test_jamison_ratio_examples():
    lhs, rhs, tight = P.jamison_ratio_check(K1, 1)
    assert (lhs, rhs, tight) == (Fraction(1, 2), Fraction(1, 2), True)
    p3 = {1: {2}, 2: {1, 3}, 3: {2}}
    lhs, rhs, tight = P.jamison_ratio_check(p3, 1)
    assert (lhs, rhs, tight) == (Fraction(3, 2), Fraction(3, 2), True)
    lhs, rhs, tight = P.jamison_ratio_check(STAR, 1)
    assert (lhs, rhs, tight) == (Fraction(20, 9), Fraction(4, 1), False)


def test_poly_matches_oracle_and_bounds(small_trees):
    for T in small_trees:
        adj = tree_adjacency(T)
        full = oracle.enumerate_sub_ktrees(T)
        for u in adj:
            fast = P.subtree_poly_at_vertex(adj, u)
            assert fast == full.restricted((u,)).poly()
            assert all(c >= 0 for c in fast.coeffs)
            mu = P.local_mean_order_vertex(adj, u)
            assert 1 <= mu <= T.n


def test_branch_reconstruction_and_cross_path(small_trees):
    for T in small_trees:
        adj = tree_adjacency(T)
        for u in sorted(adj):
            direct = P.local_mean_order_vertex(adj, u)
            for v in sorted(adj[u]):
                assert branch_mean(adj, u, v) == direct


def test_global_bound_equality_on_paths(small_trees):
    for T in small_trees:
        adj = tree_adjacency(T)
        mu = P.global_mean_order_tree(adj)
        bound = Fraction(T.n + 2, 3)
        assert mu >= bound
        is_path = all(len(vs) <= 2 for vs in adj.values())
        assert (mu == bound) == is_path


def test_jamison_tightness_predicate(small_trees):
    from ktrees.kelmans_ops import path_with_leaf_predicate

    for T in small_trees:
        adj = tree_adjacency(T)
        for u in adj:
            lhs, rhs, tight = P.jamison_ratio_check(adj, u)
            assert lhs <= rhs
            assert tight == path_with_leaf_predicate(adj, u)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32))
def test_random_tree_properties(n, seed):
    T = core.random_ktree(1, n, seed)
    adj = tree_adjacency(T)
    mu = P.global_mean_order_tree(adj)
    assert Fraction(n + 2, 3) <= mu <= n
    for u in adj:
        lhs, rhs, _ = P.jamison_ratio_check(adj, u)
        assert lhs <= rhs


def dense_phi_poly(up):
    """The coefficient-list fold that the packed `_phi_poly` replaced, kept
    as a reference: a child w folds into its parent p as p + p * phi_w over
    the terms of degree >= 1 of both."""
    poly = [[0, 1] for _ in up]
    for i in range(len(up) - 1, 0, -1):
        a, b = poly[up[i]], poly[i]
        out = a + [0] * (len(b) - 1)
        for s in range(1, len(a)):
            ca = a[s]
            for j, cb in enumerate(b[1:], s + 1):
                out[j] += ca * cb
        poly[up[i]] = out
    return P.IntPolynomial(poly[0])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=60), seed=st.integers(0, 2**32))
def test_packed_phi_poly_matches_the_dense_fold(n, seed):
    rng = random.Random(seed)
    adj = tree_adjacency(core.random_ktree(1, n, seed))
    for r in rng.sample(sorted(adj), min(n, 4)):
        up = P._bfs_tree(adj, r)
        assert P._phi_poly(up) == dense_phi_poly(up)
        others = [v for v in adj if v != r]
        forbidden = frozenset(rng.sample(others, rng.randint(0, len(others))))
        up = P._bfs_tree(adj, r, forbidden)
        assert P._phi_poly(up) == dense_phi_poly(up)


def test_packed_phi_poly_on_a_long_path_and_a_big_star():
    n = 400
    path = [-1, *range(n - 1)]  # rooted at one end: x + x^2 + ... + x^n
    assert P._phi_poly(path) == dense_phi_poly(path) == P.IntPolynomial((0,) + (1,) * n)
    star = [-1] + [0] * (n - 1)  # rooted at the centre: x (1 + x)^(n-1)
    phi = P._phi_poly(star)
    assert phi == dense_phi_poly(star)
    assert phi.coeffs == (0, *(math.comb(n - 1, j) for j in range(n)))
    leaf = [-1, 0] + [1] * (n - 2)  # rooted at a leaf: x + x^2 (1 + x)^(n-2)
    assert P._phi_poly(leaf) == dense_phi_poly(leaf)


def _poly_pair(adj, r, forbidden=frozenset()):
    return count_and_total(dense_phi_poly(P._bfs_tree(adj, r, forbidden)))


def test_phi_pair_matches_dense_polynomial_on_small_rooted_trees(small_trees):
    for T in small_trees:
        adj = tree_adjacency(T)
        for r in adj:
            assert P._phi_pair(P._bfs_tree(adj, r)) == _poly_pair(adj, r)
            for w in adj[r]:  # the component of r once a neighbour is cut off
                cut = frozenset((w,))
                assert P._phi_pair(P._bfs_tree(adj, r, cut)) == _poly_pair(adj, r, cut)


def test_phi_pair_matches_dense_polynomial_on_random_trees():
    rng = random.Random(20240)
    for seed in range(30):
        n = rng.randint(2, 60)
        adj = tree_adjacency(core.random_ktree(1, n, seed))
        for r in rng.sample(sorted(adj), min(n, 6)):
            assert P._phi_pair(P._bfs_tree(adj, r)) == _poly_pair(adj, r)
            others = [v for v in adj if v != r]
            forbidden = frozenset(rng.sample(others, rng.randint(0, len(others))))
            assert P._phi_pair(P._bfs_tree(adj, r, forbidden)) == _poly_pair(
                adj, r, forbidden
            )


def test_means_from_pairs_match_dense_polynomials(small_trees):
    for T in small_trees:
        adj = tree_adjacency(T)
        count, total = count_and_total(oracle.enumerate_sub_ktrees(T).poly())
        assert P.global_mean_order_tree(adj) == Fraction(total, count)
        for u in adj:
            count, total = count_and_total(P.subtree_poly_at_vertex(adj, u))
            assert P.local_mean_order_vertex(adj, u) == Fraction(total, count)
            lhs, rhs, _ = P.jamison_ratio_check(adj, u)
            assert (lhs, rhs) == (Fraction(total, 1 + count), Fraction(count, 2))
