"""Shared corpora for the test suite, cached per session, every labeled
build of a k-tree as an independent reference for the class corpora, the
branch form of a tree's local mean as an independent reference, and a
polynomial's value and slope at 1."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ktrees import core
from ktrees.polynomials import _bfs_tree, _phi_pair
from ktrees.isomorphism import enumerate_ktrees_up_to_iso


@lru_cache(maxsize=None)
def ktree_classes(k, n):
    """Isomorphism-class representatives of k-trees of order n."""
    return tuple(enumerate_ktrees_up_to_iso(k, n))


def shuffled_host(k, n, seed):
    """`random_ktree(k, n, seed)` under a random relabeling, recognised from
    a shuffled edge list, so its ids do not follow its build order."""
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = [(perm[u - 1], perm[v - 1]) for u, v in core.random_ktree(k, n, seed).edges()]
    rng.shuffle(edges)
    return core.recognize_ktree(edges, k, n)


def labeled_count(k, n):
    """Number of labeled construction sequences: product of (1 + k*j)."""
    return math.prod(1 + k * j for j in range(n - k))


def enumerate_labeled_ktrees(k, n):
    """Yield every labeled build sequence of order-n k-trees (n >= k), in
    the lexicographic order of their clique picks."""
    picks = itertools.product(*(range(1 + k * i) for i in range(n - k)))
    return (core.grow_ktree(k, p) for p in picks)


@lru_cache(maxsize=None)
def tree_classes(n):
    return ktree_classes(1, n)


def trees_upto(n):
    out = []
    for m in range(1, n + 1):
        out.extend(tree_classes(m))
    return out


@pytest.fixture(scope="session")
def small_trees():
    """All tree classes with up to 8 vertices."""
    return trees_upto(8)


def count_and_total(p):
    """(p(1), p'(1)) of an IntPolynomial, read off its coefficients."""
    return sum(p.coeffs), sum(i * c for i, c in enumerate(p.coeffs))


def branch_mean(adj, u, v):
    """mu(T; u) in the closed form over the branches at the edge uv (Wagner
    and Wang 2016).  Each component of T - {u, v}, rooted at its neighbour
    of u or v, enters only through its pair (phi(1), phi'(1)).  Over the
    branches at v, beta is the product of (1 + phi(1)) and theta the sum of
    phi'(1) / (1 + phi(1)); delta is that sum at u.  Then mu(T; u) is
    (1 + delta + 2 beta + beta (delta + theta)) / (1 + beta)."""
    uv = frozenset((u, v))

    def side(x, other):
        pairs = [_phi_pair(_bfs_tree(adj, w, uv)) for w in adj[x] - {other}]
        return (math.prod(1 + c for c, _ in pairs),
                sum((Fraction(t, 1 + c) for c, t in pairs), Fraction(0)))

    delta = side(u, v)[1]
    beta, theta = side(v, u)
    return (1 + delta + 2 * beta + beta * (delta + theta)) / (1 + beta)
