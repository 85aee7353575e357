"""Shared corpora for the test suite, cached per session."""

import random
from functools import lru_cache

import pytest

from ktrees import core
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
