"""Kelmans moves and the mean-order comparison theorems on trees."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ktrees import core
from ktrees import kelmans_ops as K
from ktrees.errors import BadMoveSet, KTreeError, NotAdjacent, NotALeaf, SameVertex
from ktrees.verify import tree_adjacency

from conftest import trees_upto


P4 = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
STAR = {1: {2, 3, 4}, 2: {1}, 3: {1}, 4: {1}}


def edge_set(adj):
    return {frozenset((a, b)) for a in adj for b in adj[a]}


def test_kelmans_path_to_star():
    # a-u-v-b with the move v->u re-roots b at u
    out = K.kelmans(P4, 3, 2)
    assert edge_set(out) == {frozenset(e) for e in [(1, 2), (2, 3), (2, 4)]}


def test_kelmans_empty_n2_is_identity():
    # moving from a leaf changes nothing
    out = K.kelmans(P4, 1, 2)
    assert edge_set(out) == edge_set(P4)


def test_kelmans_star_center_to_leaf():
    out = K.kelmans(STAR, 1, 2)
    assert edge_set(out) == {frozenset(e) for e in [(1, 2), (2, 3), (2, 4)]}


def test_kelmans_same_vertex_rejected():
    with pytest.raises(SameVertex):
        K.kelmans(P4, 2, 2)


@pytest.mark.parametrize("v, u", [(9, 2), (2, 9)])
def test_kelmans_endpoint_outside_the_graph_rejected(v, u):
    # membership is checked before N2 reads the neighbourhoods of v and u
    for move in (K.kelmans, lambda g, v, u: K.partial_kelmans(g, v, u, ())):
        with pytest.raises(KTreeError, match="must belong to the graph"):
            move(P4, v, u)


def test_partial_kelmans_identity_and_full():
    assert edge_set(K.partial_kelmans(P4, 3, 2, ())) == edge_set(P4)
    n2 = K.second_neighborhood(P4, 3, 2)
    assert edge_set(K.partial_kelmans(P4, 3, 2, n2)) == edge_set(K.kelmans(P4, 3, 2))
    with pytest.raises(BadMoveSet):
        K.partial_kelmans(P4, 3, 2, {2})


def test_partial_kelmans_preserves_tree_shape():
    from ktrees.polynomials import as_tree_adj

    spider = {1: {2, 4, 6}, 2: {1, 3}, 3: {2}, 4: {1, 5}, 5: {4}, 6: {1, 7}, 7: {6}}
    out = K.partial_kelmans(spider, 1, 2, {4})
    assert set(out) == set(spider)
    assert len(edge_set(out)) == len(edge_set(spider))
    as_tree_adj(out)  # still connected and acyclic


def test_swap_isomorphism_small_trees():
    # G(v->u) equals G(u->v) after swapping the two vertices
    for T in trees_upto(7):
        adj = tree_adjacency(T)
        for u in sorted(adj):
            for v in sorted(adj[u]):
                a = K.kelmans(adj, v, u)
                b = K.kelmans(adj, u, v)
                swap = {u: v, v: u}
                mapped = {
                    frozenset((swap.get(x, x), swap.get(y, y)))
                    for e in edge_set(a)
                    for x, y in [tuple(e)]
                }
                assert mapped == edge_set(b)


def test_shift_reports_on_p4():
    rep2, rep3, _ = K.check_kelmans(P4, 2, 3)
    assert (rep2.lhs, rep2.rhs) == (Fraction(13, 5), Fraction(5, 2))
    assert rep2.inequality_holds and not rep2.equality and rep2.consistent
    assert rep3.inequality_holds and rep3.consistent


def test_shift_equality_when_u_is_leaf():
    rep2, _, _ = K.check_kelmans(P4, 1, 2)
    assert rep2.equality and rep2.predicted_equality


def test_shift_p2_both_tight():
    p2 = {1: {2}, 2: {1}}
    rep2, rep3, _ = K.check_kelmans(p2, 1, 2)
    assert rep2.equality and rep3.equality
    assert rep2.consistent and rep3.consistent


def test_monotone_on_p4_middle():
    rep = K.check_kelmans(P4, 2, 3)[2]
    assert (rep.lhs, rep.rhs) == (Fraction(13, 5), Fraction(5, 2))
    assert not rep.equality and rep.consistent


def test_monotone_star_examples():
    rep = K.check_kelmans(STAR, 2, 1)[2]  # move away from the center
    assert (rep.lhs, rep.rhs) == (Fraction(13, 5), Fraction(5, 2))
    assert rep.ok
    rep = K.check_kelmans(P4, 2, 1)[2]  # v=1 is a leaf: equality
    assert rep.equality and rep.predicted_equality


def test_partial_monotone_cases():
    rep = K.check_partial_kelmans_monotone(P4, 2, 3, ())
    assert rep.equality and rep.predicted_equality  # empty move
    # u-v-v1-x: u leaf, single path branch: equality case
    chain = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
    rep = K.check_partial_kelmans_monotone(chain, 1, 2, {3})
    assert rep.equality and rep.predicted_equality and rep.ok
    # star center v, two moved leaves: strict
    rep = K.check_partial_kelmans_monotone(STAR, 2, 1, {3, 4})
    assert not rep.equality and rep.ok
    with pytest.raises(BadMoveSet):
        K.check_partial_kelmans_monotone(P4, 2, 3, {1})


def test_leaf_dominance_examples():
    p5 = tree_adjacency(core.gen_path_type(1, 5))
    rep = K.check_leaf_dominates_neighbor(p5, 1, 2)
    assert rep.equality and rep.predicted_equality
    rep = K.check_leaf_dominates_neighbor(STAR, 2, 1)
    assert (rep.lhs, rep.rhs) == (Fraction(13, 5), Fraction(5, 2))
    spider = {0: {1, 3, 5}, 1: {0, 2}, 2: {1}, 3: {0, 4}, 4: {3}, 5: {0, 6}, 6: {5}}
    rep = K.check_leaf_dominates_neighbor(spider, 2, 1)
    assert not rep.equality and rep.ok
    with pytest.raises(NotALeaf):
        K.check_leaf_dominates_neighbor(P4, 2, 3)


def test_path_predicates():
    p5 = tree_adjacency(core.gen_path_type(1, 5))
    assert K.path_with_leaf_predicate(p5, 1)
    assert not K.path_with_leaf_predicate(p5, 3)
    assert not K.path_with_leaf_predicate(STAR, 1)
    assert not K.path_with_leaf_predicate(STAR, 2)
    assert K.path_with_leaf_predicate({1: set()}, 1)
    assert K._component_path(P4, 3, 2)  # component {1,2} is a path at u=2
    assert K._component_path(STAR, 1, 2)  # single vertex
    assert not K._component_path(STAR, 2, 1)  # center keeps a star


def test_checkers_reject_a_vertex_outside_the_tree():
    # a bad vertex is bad input (exit 2), not a crash from a bare KeyError
    for bad in ((9, 3), (3, 9)):
        with pytest.raises(NotAdjacent):
            K.check_kelmans(P4, *bad)
        with pytest.raises(NotAdjacent):
            K.check_partial_kelmans_monotone(P4, *bad, ())
    with pytest.raises(NotALeaf):
        K.check_leaf_dominates_neighbor(P4, 9, 3)
    with pytest.raises(NotAdjacent):
        K.check_leaf_dominates_neighbor(P4, 1, 9)


def test_component_predicate_matches_the_component_on_small_trees():
    # reference: cut v, collect u's component, then test it for a path at u
    for T in trees_upto(7):
        adj = tree_adjacency(T)
        for v in adj:
            for u in adj:
                comp, todo = {u}, [u]
                while todo:
                    for w in adj[todo.pop()] - {v} - comp:
                        comp.add(w)
                        todo.append(w)
                sub = {x: adj[x] & comp for x in comp}
                want = K.path_with_leaf_predicate(sub, u)
                assert K._component_path(adj, v, u) == want, (adj, v, u)


def test_kelmans_suite_moves_once_and_validates_at_most_twice_per_pair(monkeypatch):
    from ktrees import polynomials
    from ktrees.verify import SuiteConfig, run_suite

    calls = {"move": 0, "validate": 0}

    def counted(mod, name, key):
        real = getattr(mod, name)

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(mod, name, wrapper)

    counted(K, "_move", "move")
    counted(K, "as_tree_adj", "validate")
    counted(polynomials, "as_tree_adj", "validate")
    report = run_suite(SuiteConfig(suite="kelmans", max_n=8))
    reports = sum(report["tallies"].values())
    assert reports % 3 == 0 and reports > 0
    pairs = reports // 3
    assert calls["move"] == pairs
    assert 0 < calls["validate"] <= 2 * pairs


def test_each_checker_validates_its_tree_once(monkeypatch):
    from ktrees import polynomials

    calls = []

    def counted(mod):
        real = mod.as_tree_adj
        monkeypatch.setattr(
            mod, "as_tree_adj", lambda tree: calls.append(1) or real(tree)
        )

    counted(K)
    counted(polynomials)
    p5 = tree_adjacency(core.gen_path_type(1, 5))
    chain = {1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
    checks = [
        lambda: K.check_kelmans(P4, 2, 3),
        lambda: K.check_kelmans(STAR, 1, 2),
        lambda: K.check_partial_kelmans_monotone(P4, 2, 3, ()),
        # u is a leaf and one vertex moves: the equality case reads the
        # component predicate
        lambda: K.check_partial_kelmans_monotone(chain, 1, 2, {3}),
        lambda: K.check_partial_kelmans_monotone(STAR, 2, 1, {3, 4}),
        lambda: K.check_leaf_dominates_neighbor(p5, 1, 2),
    ]
    for check in checks:
        calls.clear()
        check()
        assert len(calls) == 1


def test_kelmans_freezes_its_graph_once(monkeypatch):
    calls = []
    real = K._endpoints
    monkeypatch.setattr(
        K, "_endpoints", lambda *args: calls.append(1) or real(*args)
    )
    K.kelmans(P4, 3, 2)
    assert len(calls) == 1


def test_checkers_move_without_freezing_the_graph_again(monkeypatch):
    """A checker moves on the adjacency it validated; `kelmans` and
    `partial_kelmans` would freeze the graph again and re-check the
    endpoints (`_endpoints`)."""
    calls = []
    real = K._endpoints
    monkeypatch.setattr(
        K, "_endpoints", lambda *args: calls.append(args[1:]) or real(*args)
    )
    K.check_kelmans(P4, 2, 3)
    K.check_kelmans(STAR, 1, 2)
    K.check_partial_kelmans_monotone(P4, 2, 3, ())
    K.check_partial_kelmans_monotone(STAR, 2, 1, {3, 4})
    K.check_leaf_dominates_neighbor(P4, 1, 2)
    assert calls == []


def test_all_checkers_consistent_small(small_trees):
    for T in small_trees:
        adj = tree_adjacency(T)
        for u in sorted(adj):
            for v in sorted(adj[u]):
                rep2, rep3, mono = K.check_kelmans(adj, u, v)
                assert rep2.ok and rep3.ok and mono.ok, (T.edges(), u, v)
        for v in sorted(adj):
            if len(adj[v]) == 1:
                (u,) = adj[v]
                assert K.check_leaf_dominates_neighbor(adj, v, u).ok


def test_partial_checker_consistent_all_subsets():
    for T in trees_upto(6):
        adj = tree_adjacency(T)
        for u in sorted(adj):
            for v in sorted(adj[u]):
                others = sorted(adj[v] - {u})
                for r in range(len(others) + 1):
                    for W in combinations(others, r):
                        rep = K.check_partial_kelmans_monotone(adj, u, v, W)
                        assert rep.ok, (T.edges(), u, v, W)


def full_copy_partial_kelmans(graph, v, u, moved):
    """Reference move: copy every neighbour set, edit, freeze them all."""
    adj = {x: set(vs) for x, vs in graph.items()}
    for w in moved:
        adj[v].discard(w)
        adj[w].discard(v)
        adj[u].add(w)
        adj[w].add(u)
    return {x: frozenset(vs) for x, vs in adj.items()}


def test_partial_kelmans_matches_a_full_copy_on_random_trees():
    rng = random.Random(5)
    for n in (2, 3, 6, 12, 30):
        for seed in range(6):
            frozen = tree_adjacency(core.random_ktree(1, n, seed))
            sets = {x: set(vs) for x, vs in frozen.items()}
            before = {x: set(vs) for x, vs in sets.items()}
            for v in sorted(sets):
                for u in sorted(sets[v]):
                    n2 = sorted(K.second_neighborhood(sets, v, u))
                    moved = rng.sample(n2, rng.randint(0, len(n2)))
                    want = full_copy_partial_kelmans(sets, v, u, moved)
                    for graph in (sets, frozen):
                        got = K.partial_kelmans(graph, v, u, moved)
                        assert got == want
                        assert all(type(vs) is frozenset for vs in got.values())
            assert sets == before and frozen == before


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=11), seed=st.integers(0, 2**32))
def test_random_tree_kelmans_inequalities(n, seed):
    T = core.random_ktree(1, n, seed)
    adj = tree_adjacency(T)
    u = min(adj)
    v = min(adj[u])
    assert all(rep.inequality_holds for rep in K.check_kelmans(adj, u, v))
