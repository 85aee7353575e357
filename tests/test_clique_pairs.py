"""The one-pass clique-incidence recursion `core.all_clique_pairs` against
the characteristic-tree path, the brute-force oracle and `clique_degree`,
and the argmax suites that read it."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktrees import chartree as CT
from ktrees import core, oracle, verify as V

from conftest import ktree_classes


def pair_means(T):
    """mu(T; C) for every k-clique C, from the pairs."""
    pairs = core.all_clique_pairs(T)
    return {C: Fraction(pairs[j][1], pairs[j][0]) for C, j in T._k_cliques.items()}


def test_pairs_equal_the_characteristic_tree_means_on_every_small_class():
    classes = 0
    for k in (1, 2, 3, 4):
        for n in range(k, 10):
            for T in ktree_classes(k, n):
                assert pair_means(T) == CT.all_clique_means(T), (k, n, T.build)
                classes += 1
    assert classes == 400


@pytest.mark.parametrize(
    "build,args", [("gen_path_type", (2, 3000)), ("random_ktree", (3, 3000, 5))]
)
def test_pairs_equal_single_clique_means_on_large_hosts(build, args):
    # the path-type host is 3000 cliques deep: the pass holds no recursion
    T = getattr(core, build)(*args)
    pairs = core.all_clique_pairs(T)
    inc = T._incidence
    rng = random.Random(T.n)
    for j in rng.sample(range(len(pairs)), 20):
        count, total = pairs[j]
        assert Fraction(total, count) == CT.local_mean_order_clique(T, inc.clique(j))


@pytest.mark.parametrize("k,n,seed", [(2, 13, 1), (3, 14, 2), (2, 15, 3), (4, 16, 4)])
def test_pairs_equal_the_oracle_at_cross_check_sizes(k, n, seed):
    T = core.random_ktree(k, n, seed)
    assert pair_means(T) == oracle.oracle_all_clique_means(T)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 36), st.integers(0, 10**6))
def test_pairs_equal_the_characteristic_tree_means_on_random_hosts(k, extra, seed):
    T = core.random_ktree(k, k + extra, seed)
    assert pair_means(T) == CT.all_clique_means(T)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_argmax_degrees_equal_clique_degree(k):
    for T in (core.gen_path_type(k, k), *(core.random_ktree(k, 500, s) for s in (1, 2))):
        means, _, _, infos, _ = V._argmax_classes(T)
        assert list(infos) == list(means) == core.k_cliques(T)
        assert infos == {C: core.clique_degree(T, C) for C in core.k_cliques(T)}

