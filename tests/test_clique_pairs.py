"""The one-pass clique-incidence recursion `core.all_clique_pairs` against
the characteristic-tree path, the brute-force oracle and `clique_degree`,
the index's adjacency readers against the adjacency masks, and the host
table the argmax suites read against the same decisions made over
`Fraction`s."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktrees import chartree as CT
from ktrees import core, oracle, verify as V

from conftest import ktree_classes, table_disagreements


def pair_means(T):
    """mu(T; C) for every k-clique C, from the pairs."""
    pairs = core.all_clique_pairs(T)
    return {C: Fraction(pairs[j][1], pairs[j][0]) for C, j in T._k_cliques.items()}


def assert_readers_match_masks(T):
    """The index's readers against the mask path: `nodes` are the clique
    table's nodes, a node has as many holders as its degree, and the faces
    of its holders, less the node, are its adjacent cliques."""
    inc = T._incidence
    assert list(inc.nodes) == sorted(T._k_cliques.values())
    holders = inc.holders()
    for C, j in T._k_cliques.items():
        assert len(holders[j]) == core.clique_degree(T, C).degree, C
        near = [inc.clique(i) for s in holders[j] for i in inc.faces(s) if i != j]
        assert sorted(near) == core.adjacent_cliques(T, C), C


def test_pairs_equal_the_characteristic_tree_means_on_every_small_class():
    classes = 0
    for k in (1, 2, 3, 4):
        for n in range(k, 10):
            for T in ktree_classes(k, n):
                assert pair_means(T) == CT.all_clique_means(T), (k, n, T.build)
                assert_readers_match_masks(T)
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
        table = V._argmax_classes(T)
        assert table.infos == [
            core.clique_degree(T, table.inc.clique(j)) for j in range(len(table.infos))
        ]
        assert table_disagreements(T, table, CT.all_clique_means(T)) == []
        assert_readers_match_masks(T)


def _order(p, q):
    """The host table's order of two pairs: -1, 0 or 1."""
    info = core.CliqueInfo(1, core.END)
    table = V._HostTable.of(None, [p, q], [info, info])
    sign = table.compare(0, 1)
    assert table.compare(1, 0) == -sign
    assert table.arg == [j for j, r in enumerate((sign, -sign)) if r >= 0]
    return sign


def _sign(x):
    return (x > 0) - (x < 0)


# counts of up to several thousand bits, as on hosts of order 10,000
COUNTS = st.integers(0, 6000).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1))
TOTALS = st.integers(0, 6000).flatmap(lambda b: st.integers(0, (2 << b) - 1))


@settings(max_examples=300, deadline=None)
@given(COUNTS, TOTALS, COUNTS, TOTALS)
def test_floor_keys_and_ties_order_pairs_as_fractions(c1, t1, c2, t2):
    assert _order((c1, t1), (c2, t2)) == _sign(Fraction(t1, c1) - Fraction(t2, c2))


@settings(max_examples=200, deadline=None)
@given(COUNTS, TOTALS, st.integers(1, 1 << 200))
def test_reduced_and_unreduced_pairs_of_one_mean_tie(c, t, scale):
    g = math.gcd(c, t)
    assert _order((c // g, t // g), (c * scale, t * scale)) == 0
    assert _order((c, t), (c, t)) == 0


@settings(max_examples=200, deadline=None)
@given(COUNTS, TOTALS, st.integers(65, 300), st.sampled_from((-1, 1)))
def test_means_apart_by_less_than_2_to_the_minus_64_are_ordered(c, t, e, d):
    # (t 2^e + d) / (c 2^e) lies 1 / (c 2^e) < 2^-64 from t / c
    t = max(t, 1)
    near = (c << e, (t << e) + d)
    assert _order(near, (c, t)) == d
    assert _order((c, t), near) == -d
