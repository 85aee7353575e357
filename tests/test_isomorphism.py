"""Canonical codes: permutation-invariant, isomorphism-separating."""

import itertools
import random

import pytest

from ktrees import core, isomorphism as I, verify as V
from ktrees.errors import TooLarge

from conftest import ktree_classes


def brute_isomorphic(T1, T2):
    if T1.n != T2.n:
        return False
    if sorted(map(T1.degree, T1.vertices)) != sorted(map(T2.degree, T2.vertices)):
        return False
    e2 = {frozenset(e) for e in T2.edges()}
    m1 = T1.edges()
    for perm in itertools.permutations(range(1, T2.n + 1)):
        if all(frozenset((perm[a - 1], perm[b - 1])) in e2 for a, b in m1):
            return True
    return False


def relabeled(T, rng):
    perm = list(range(1, T.n + 1))
    rng.shuffle(perm)
    edges = [(perm[a - 1], perm[b - 1]) for a, b in T.edges()]
    return core.recognize_ktree(edges, T.k, n=T.n)


def test_labeled_two_tree_four_is_unique():
    ts = list(V.enumerate_labeled_ktrees(2, 4))
    assert len(ts) == 3
    assert len({I.canonical_code(t) for t in ts}) == 1


def test_path_vs_star_codes_differ():
    p4 = core.gen_path_type(1, 4)
    star = core.recognize_ktree([(1, 2), (1, 3), (1, 4)], 1)
    assert I.canonical_code(p4) != I.canonical_code(star)
    assert not I.isomorphic(p4, star)


def test_relabeling_preserves_code():
    rng = random.Random(17)
    for k in (1, 2, 3, 4):
        for n in range(k, 10):
            T = core.random_ktree(k, n, rng.randrange(10**9))
            T2 = relabeled(T, rng)
            assert I.canonical_code(T) == I.canonical_code(T2)
            assert I.isomorphic(T, T2)


def test_code_separates_iff_isomorphic():
    pairs = 0
    for k, n in [(1, 5), (1, 6), (2, 5), (2, 6), (3, 6)]:
        ts = list(V.enumerate_labeled_ktrees(k, n))
        codes = [I.canonical_code(t) for t in ts]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                assert (codes[i] == codes[j]) == brute_isomorphic(ts[i], ts[j])
                pairs += 1
    assert pairs > 1000


def test_code_separates_sampled_n7():
    rng = random.Random(5)
    for k in (1, 2, 3):
        ts = list(V.enumerate_labeled_ktrees(k, 7))
        for _ in range(120):
            i, j = rng.randrange(len(ts)), rng.randrange(len(ts))
            got = I.canonical_code(ts[i]) == I.canonical_code(ts[j])
            assert got == brute_isomorphic(ts[i], ts[j])


def test_class_counts_match_known_sequences():
    trees = [len(ktree_classes(1, n)) for n in range(1, 11)]
    assert trees == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    two_trees = [len(ktree_classes(2, n)) for n in range(2, 11)]
    assert two_trees == [1, 1, 1, 2, 5, 12, 39, 136, 529]
    three_trees = [len(ktree_classes(3, n)) for n in range(3, 10)]
    assert three_trees == [1, 1, 1, 2, 5, 15, 58]  # OEIS A078792


def test_class_enumeration_agrees_with_labeled_dedup():
    for k, n in [(1, 6), (2, 6), (3, 7)]:
        labeled = {I.canonical_code(t) for t in V.enumerate_labeled_ktrees(k, n)}
        assert len(labeled) == len(ktree_classes(k, n))


def test_class_enumeration_guard():
    with pytest.raises(TooLarge):
        I.enumerate_ktrees_up_to_iso(1, 15)
