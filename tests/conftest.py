"""Shared corpora for the test suite, cached per session, every labeled
build of a k-tree as an independent reference for the class corpora, the
canonical code over every centre root and ordering as the reference for
the pruned coder, the branch form of a tree's local mean as an
independent reference, the `Fraction` form of the argmax suites'
decisions as the reference for `verify`'s host table, and a polynomial's
value and slope at 1."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ktrees import core, isomorphism
from ktrees.chartree import argmax_cliques
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


def centre_roots(T):
    """The k-clique nodes at the centre of T's clique-incidence tree: the
    centre itself, or the k+1 faces of a centre step."""
    return T._incidence.centre()[0]


def reference_canonical_code(T):
    """The canonical code with no root or ordering cut: the least rooted
    code over every k-clique at the centre and all k! orderings of each.
    It names the same classes as `canonical_code`, in other bytes."""
    header = bytes([T.k]) + T.n.to_bytes(2, "big")
    if T.n == T.k:
        return header
    codes = []
    for r in centre_roots(T):
        C = T._incidence.clique(r)
        _, up, labels, _ = isomorphism._rooted_at(T, C, r)
        for order in itertools.permutations(C):
            cindex = {v: i + 1 for i, v in enumerate(order)}
            codes.append(isomorphism._fold(up, labels, cindex)[1][0])
    return header + min(codes)


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


def better_neighbors(T, C, means):
    """The adjacent cliques of C whose mean in `means` exceeds C's, sorted."""
    return [D for D in core.adjacent_cliques(T, C) if means[D] > means[C]]


def table_disagreements(T, table, means):
    """Where `verify`'s host table of T departs from the same decisions made
    over the `Fraction`s `means` (clique to mean): its argmax against
    `argmax_cliques`, its best end and degree-2 nodes against `max` over the
    cliques of that kind under `clique_degree`, and its better-neighbour
    flags against `better_neighbors`."""
    bad = []
    clique = table.inc.clique
    arg, _ = argmax_cliques(T, means)
    if sorted(map(clique, table.arg)) != arg:
        bad.append(("argmax", arg))
    kinds = {C: core.clique_degree(T, C).kind for C in means}
    for kind in (core.END, core.DEGREE2):
        j = table.best(kind)
        got = None if j is None else means[clique(j)]
        want = max((m for C, m in means.items() if kinds[C] == kind), default=None)
        if got != want:
            bad.append((kind, got, want))
    found = table.better(range(len(table.pairs)))
    for C, j in T._k_cliques.items():
        if (j in found) != bool(better_neighbors(T, C, means)):
            bad.append(("better", C))
    return bad
