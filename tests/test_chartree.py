"""Characteristic trees, elimination sequences, and the clique reduction."""

import copy
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from ktrees import chartree as CT, core, oracle
from ktrees.errors import KTreeError, NotAClique, NotAdjacentCliques, VertexInClique
from ktrees.kelmans_ops import partial_kelmans
from ktrees.polynomials import (
    IntPolynomial,
    _bfs_tree,
    _phi_pair,
    _phi_poly,
    as_tree_adj,
    local_mean_order_vertex,
)
from ktrees.verify import tree_adjacency

from conftest import ktree_classes, shuffled_host


def peel_parents(T, C):
    """{vertex: parent vertex, or None for the C-node} by the peel rule:
    peel the lowest-id k-leaf outside C until C remains, reverse, and take
    the latest-added attachment vertex outside C."""
    steps = core._peel_k_leaves(T.k, list(T.masks), T.clique_mask(C))[::-1]
    assert len(steps) == T.n - T.k
    when = {v: i for i, (v, _) in enumerate(steps)}
    return {
        v: max((u for u in attach if u not in C), key=when.__getitem__, default=None)
        for v, attach in steps
    }


def parent_map(ct):
    return {
        v: None if p == 0 else ct.labels[p] for v, p in zip(ct.labels[1:], ct.up[1:])
    }


def tree_adj(ct):
    """{node: set of neighbours} of a characteristic tree."""
    adj = {a: set() for a in ct.labels}
    for a, b in ct.edges():
        adj[a].add(b)
        adj[b].add(a)
    return adj


def triangle():
    return core.build_from_construction(2, [(3, (1, 2))])


def four_vertex():
    return core.build_from_construction(2, [(3, (1, 2)), (4, (1, 3))])


def test_elimination_sequence_examples():
    es = CT.elimination_sequence(triangle(), (1, 2), 3)
    assert es.interior == () and es.target == 3
    es = CT.elimination_sequence(four_vertex(), (1, 2), 4)
    assert es.interior == (3,) and es.labels == (3, 4)
    with pytest.raises(VertexInClique):
        CT.elimination_sequence(four_vertex(), (1, 2), 2)
    with pytest.raises(NotAClique):
        CT.elimination_sequence(four_vertex(), (2, 4), 3)
    with pytest.raises(NotAClique, match="not an int"):
        CT.elimination_sequence(four_vertex(), (1, 2), 4.0)
    # a bool is no vertex id, though True equals vertex 1 of the clique
    with pytest.raises(NotAClique):
        CT.elimination_sequence(four_vertex(), (1, 2), True)


def test_characteristic_tree_examples():
    ct = CT.characteristic_tree(triangle(), (1, 2))
    assert ct.order == 2
    assert ct.edges() == [(0, 3)]

    ct = CT.characteristic_tree(four_vertex(), (1, 2))
    assert ct.order == 3
    assert set(map(frozenset, ct.edges())) == {
        frozenset((0, 3)),
        frozenset((3, 4)),
    }

    ct = CT.characteristic_tree(four_vertex(), (1, 3))
    assert set(map(frozenset, ct.edges())) == {
        frozenset((0, 2)),
        frozenset((0, 4)),
    }


def test_characteristic_tree_trivial_host():
    T = core.build_from_construction(3, [])
    ct = CT.characteristic_tree(T, (1, 2, 3))
    assert ct.order == 1 and ct.edges() == []
    assert CT.local_mean_order_clique(T, (1, 2, 3)) == 3
    assert CT.local_poly_clique(T, (1, 2, 3)) == IntPolynomial((0, 0, 0, 1))


def test_local_mean_examples():
    assert CT.local_mean_order_clique(triangle(), (1, 2)) == Fraction(5, 2)
    assert CT.local_mean_order_clique(four_vertex(), (1, 2)) == 3


def test_local_poly_examples():
    assert CT.local_poly_clique(triangle(), (1, 2)) == IntPolynomial((0, 0, 1, 1))
    assert CT.local_poly_clique(four_vertex(), (1, 2)) == IntPolynomial(
        (0, 0, 1, 1, 1)
    )


def test_order_formula_and_path_labels():
    for k in (1, 2, 3):
        for n in range(k, 8):
            for T in ktree_classes(k, n):
                for C in core.k_cliques(T):
                    ct = CT.characteristic_tree(T, C)
                    assert ct.order == T.n - T.k + 1
                    leaves = set(T.k_leaf_set()) - set(C) if T.n > T.k else set()
                    for v in sorted(leaves):
                        es = CT.elimination_sequence(T, C, v)
                        path, i = [], ct.labels.index(v)
                        while i > 0:
                            path.append(ct.labels[i])
                            i = ct.up[i]
                        assert tuple(reversed(path)) == es.labels


def test_parent_array_folds_like_the_bfs_tree():
    for k in (1, 2, 3):
        for n in range(k, 9):
            for T in ktree_classes(k, n):
                for C in core.k_cliques(T):
                    ct = CT.characteristic_tree(T, C)
                    assert ct.up[0] == -1
                    assert all(0 <= p < i for i, p in enumerate(ct.up) if i)
                    bfs = _bfs_tree(as_tree_adj(tree_adj(ct)), 0)
                    assert _phi_pair(ct.up) == _phi_pair(bfs)
                    assert _phi_poly(ct.up) == _phi_poly(bfs)
                    # the parent rule: the latest-added attachment vertex
                    # outside C, else the C-node
                    steps = CT.construction_from(T, C)
                    assert [v for v, _ in steps] == list(ct.labels[1:])
                    for i, (_, attach) in enumerate(steps, 1):
                        outside = [ct.labels.index(u) for u in attach if u not in C]
                        assert ct.up[i] == max(outside, default=0)
                    assert parent_map(ct) == peel_parents(T, C)


def test_walk_on_hosts_whose_ids_do_not_follow_the_build():
    for k in (1, 2, 3, 4):
        for n in (k, k + 1, k + 2, 12, 25):
            for seed in range(3):
                T = shuffled_host(k, n, seed)
                leafset = set(T.k_leaf_set()) if T.n > T.k else set()
                for C in core.k_cliques(T):
                    ct = CT.characteristic_tree(T, C)
                    assert parent_map(ct) == peel_parents(T, C)
                    assert all(0 <= p < i for i, p in enumerate(ct.up) if i)
                    for v in sorted(leafset - set(C)):
                        path, i = [], ct.labels.index(v)
                        while i > 0:
                            path.append(ct.labels[i])
                            i = ct.up[i]
                        es = CT.elimination_sequence(T, C, v)
                        assert tuple(reversed(path)) == es.labels


def test_walk_from_both_ends_of_a_deep_path_type_host():
    k, n = 2, 3000
    T = core.gen_path_type(k, n)
    for C in ((1, 2), (n - 1, n)):
        ct = CT.characteristic_tree(T, C)
        assert ct.up == (-1, *range(n - k))
        assert CT.local_mean_order_clique(T, C) == k + Fraction(n - k, 2)


def bfs_walk(T, C):
    """The breadth-first walk that the preorder layout replaced, kept as an
    independent reference: the chain from C up to the base clique, then
    every other step entered through its attachment, level by level, over
    a CSR list of the steps attached at each node.  Returns
    ({vertex: parent vertex or None}, {vertex: k-clique node joined})."""
    inc = T._incidence
    k, build, attach_node = inc.k, inc.build, inc.attach_node
    first = [0] * (2 + k * len(build))
    for j in attach_node:
        first[j + 1] += 1
    for j in range(1, len(first)):
        first[j] += first[j - 1]
    steps = sorted(range(len(build)), key=attach_node.__getitem__)
    f = inc.node(C)
    verts, up, via = [], [-1], []
    down = list(steps[first[f] : first[f + 1]])
    par = [0] * len(down)
    while f:
        s = (f - 1) // k
        low = 1 + k * s
        i = len(up)
        verts.append(build[s][1][f - low])
        up.append(i - 1)
        via.append(f)
        for a, b in ((first[low], first[f]), (first[f + 1], first[low + k])):
            down += steps[a:b]
            par += [i] * (b - a)
        f = attach_node[s]
        for t in steps[first[f] : first[f + 1]]:
            if t != s:
                down.append(t)
                par.append(i)
    i = len(up)
    for s in down:
        low = 1 + k * s
        a, b = first[low], first[low + k]
        down += steps[a:b]
        par += [i] * (b - a)
        i += 1
    verts += [build[s][0] for s in down]
    up += par
    via += [attach_node[s] for s in down]
    labels = [None, *verts]
    return dict(zip(verts, (labels[p] for p in up[1:]))), dict(zip(verts, via))


def walk_maps(T, C):
    """The walk's parent and joined-node maps, in the form of `bfs_walk`: a
    chain vertex joins its chain node, every later vertex the node of its
    own build record's attachment."""
    inc = T._incidence
    verts, up, chain = inc.walk(inc.node(C))
    assert len(up) == len(verts) + 1 == T.n - T.k + 1
    assert up[0] == -1 and all(0 <= p < i for i, p in enumerate(up) if i)
    assert len(chain) <= len(verts) and up[1 : len(chain) + 1] == list(range(len(chain)))
    via = chain + [inc.node(inc.build[inc.step_of[v]][1]) for v in verts[len(chain) :]]
    labels = [None, *verts]
    return dict(zip(verts, (labels[p] for p in up[1:]))), dict(zip(verts, via))


def test_incidence_index_invariants():
    hosts = [core.build_from_construction(3, [])]
    hosts += [shuffled_host(k, n, 1) for k in (1, 2, 3, 4) for n in (k + 1, 9, 20)]
    # many siblings beside the chain steps, which fill the run copied from a
    # chain step's later faces to the end of its attachment's run
    hosts += [core.gen_star_type(2, 12), core.gen_bristled_star(3, 8)]
    hosts += [shuffled_host(3, 40, 2)]
    for T in hosts:
        inc = T._incidence
        k, m = T.k, T.n - T.k
        nk = 1 + k * m
        cliques = [inc.clique(j) for j in range(nk)]
        assert sorted(cliques) == [
            C for C in combinations(T.vertices, k) if T.is_clique(C)
        ]
        assert [inc.node(C) for C in cliques] == list(range(nk))
        assert cliques[0] == T.base
        assert all(inc.step_of[v] == -1 for v in T.base)
        for s, (v, attach) in enumerate(T.build):
            assert inc.clique(inc.attach_node[s]) == attach
            assert inc.step_of[v] == s
            for t in range(k):
                assert v in cliques[1 + k * s + t]
        # the preorder layout: vertex and parent position by position, then
        # k + 1 run bounds per step
        lay = inc.layout
        assert len(lay) == (k + 3) * m
        pos = [lay[2 * m + (k + 1) * s] - 1 for s in range(m)]
        assert sorted(pos) == list(range(m))
        for s, (v, _) in enumerate(T.build):
            j = inc.attach_node[s]
            p = pos[s]
            assert lay[p] == v
            assert lay[m + p] == (pos[(j - 1) // k] if j else -1) < p
        # the run of a node is exactly the steps whose attachment climbs to it
        for j in range(nk):
            a, b = inc.run(j)
            below = set()
            for s in range(m):
                f = inc.attach_node[s]
                while f != j and f:
                    f = inc.attach_node[(f - 1) // k]
                if f == j:
                    below.add(s)
            assert sorted(pos[s] for s in below) == list(range(a, b))
        for C in cliques:
            assert walk_maps(T, C) == bfs_walk(T, C)


def test_walk_from_the_middle_of_a_deep_path_type_host():
    k, n = 2, 3000
    T = core.gen_path_type(k, n)
    C = (1500, 1501)  # a long chain up to the base and a long run below C
    assert walk_maps(T, C) == bfs_walk(T, C)
    # T'_C is a path through the C-node, so the mean is that of an end
    assert CT.local_mean_order_clique(T, C) == k + Fraction(n - k, 2)


def test_k1_chartree_is_the_tree_itself():
    for n in range(1, 8):
        for T in ktree_classes(1, n):
            adj = tree_adjacency(T)
            for v in T.vertices:
                ct = CT.characteristic_tree(T, (v,))
                relabel = {0: v}
                mapped = {
                    frozenset((relabel.get(a, a), relabel.get(b, b)))
                    for a, b in ct.edges()
                }
                assert mapped == {frozenset(e) for e in T.edges()}
                assert CT.local_mean_order_clique(T, (v,)) == local_mean_order_vertex(
                    adj, v
                )


def test_reduction_matches_oracle_small():
    for k in (1, 2, 3):
        for n in range(k, 7):
            for T in ktree_classes(k, n):
                full = oracle.enumerate_sub_ktrees(T)
                for C in core.k_cliques(T):
                    assert CT.local_poly_clique(T, C) == full.restricted(C).poly()


def test_all_clique_means_match_oracle_on_every_small_class():
    for k in (1, 2, 3):
        for n in range(k, 8):
            for T in ktree_classes(k, n):
                assert CT.all_clique_means(T) == oracle.oracle_all_clique_means(T)


def _ordered_adjacent_pairs(T):
    for q in core.kp1_cliques(T):
        subs = [tuple(sorted(set(q) - {x})) for x in q]
        for C1 in subs:
            for C2 in subs:
                if C1 != C2:
                    yield q, C1, C2


def test_adjacent_reduction_moves_the_far_vertices():
    # reference: vertices outside q joined to >= k vertices of q, but not to
    # all of C1 or all of C2
    for k in (1, 2, 3):
        for n in range(k + 1, 8):
            for T in ktree_classes(k, n):
                cache = {}
                for q, C1, C2 in _ordered_adjacent_pairs(T):
                    far = tuple(
                        v for v in T.vertices
                        if v not in q
                        and sum(T.has_edge(v, u) for u in q) >= k
                        and not all(T.has_edge(v, u) for u in C1)
                        and not all(T.has_edge(v, u) for u in C2)
                    )
                    rep = CT.verify_adjacent_reduction(T, C1, C2, cache)
                    assert rep.moved == far, (T.edges(), C1, C2)
                    assert rep.isomorphic and rep.detail == ""


def test_adjacent_reduction_rejects_non_adjacent():
    T = core.gen_path_type(2, 6)
    with pytest.raises(NotAdjacentCliques):
        CT.verify_adjacent_reduction(T, (1, 2), (1, 2))
    with pytest.raises(NotAdjacentCliques):
        CT.verify_adjacent_reduction(T, (1, 2), (4, 5))
    # one vertex apart, but 4 is not joined to 1: no common (k+1)-clique
    with pytest.raises(NotAdjacentCliques):
        CT.verify_adjacent_reduction(T, (1, 2), (2, 4))


def reference_move_detail(t1, t2, solo1, solo2, moved):
    """The relation check that `_move_detail` replaced, kept as a
    reference: the partial move of `moved` from solo2 to the C1-node on the
    adjacency of T'_C1, with a failed precondition as the detail, then
    every parent edge of T'_C2 looked up in the moved tree."""
    try:
        shifted = partial_kelmans(tree_adj(t1), solo2, 0, moved)
    except KTreeError as exc:
        return str(exc)
    back = {solo1: 0, 0: solo2}
    nodes = [back.get(v, v) for v in t2.labels]
    ok = all(nodes[p] in shifted[v] for v, p in zip(nodes[1:], t2.up[1:]))
    return "" if ok else "edge sets differ under the canonical relabeling"


def reference_adjacent_reduction(T, C1, C2):
    """`verify_adjacent_reduction` as it was when it checked the relation
    by applying the partial move (`reference_move_detail`)."""
    m1, m2 = T.clique_mask(C1), T.clique_mask(C2)
    solo1, solo2 = (m1 & ~m2).bit_length(), (m2 & ~m1).bit_length()
    q = C1 + (solo2,)
    far = 0
    for x in C1:
        if x != solo1:
            far |= core._common_mask(T, [v for v in q if v != x])
    moved = tuple(core._mask_vertices(far & ~(m1 | m2)))
    t1, t2 = CT.characteristic_tree(T, C1), CT.characteristic_tree(T, C2)
    detail = reference_move_detail(t1, t2, solo1, solo2, moved)
    return CT.ReductionReport(moved, not detail, detail)


def test_adjacent_reduction_matches_the_partial_move_reference():
    """Every ordered adjacent pair of every class with k <= 3, n <= 8."""
    pairs = Counter()
    for k in (1, 2, 3):
        for n in range(k + 1, 9):
            for T in ktree_classes(k, n):
                cache = {}
                for _, C1, C2 in _ordered_adjacent_pairs(T):
                    rep = CT.verify_adjacent_reduction(T, C1, C2, cache)
                    assert rep == reference_adjacent_reduction(T, C1, C2)
                    pairs[bool(rep.moved)] += 1
    assert pairs == {False: 2042, True: 1700}
    # the cliques are the caller's own arguments, so the report does not
    # echo them back
    assert CT.ReductionReport._fields == ("moved", "isomorphic", "detail")


def test_adjacent_reduction_fails_when_the_move_drops_a_vertex():
    """Given a wrong moved set, the parent-list check refutes it with the
    detail that the partial move gives: one vertex short or one child of
    solo2 too many (the edges differ), or a vertex that is not a child of
    solo2 (outside N2)."""
    seen = Counter()
    for T in ktree_classes(2, 6) + ktree_classes(3, 7):
        cache = {}
        for _, C1, C2 in _ordered_adjacent_pairs(T):
            moved = CT.verify_adjacent_reduction(T, C1, C2, cache).moved
            (solo1,) = set(C1) - set(C2)
            (solo2,) = set(C2) - set(C1)
            t1, t2 = CT.characteristic_tree(T, C1), CT.characteristic_tree(T, C2)
            e1, e2 = cache[C1], cache[C2]
            wrong = [("short", moved[:i] + moved[i + 1 :]) for i in range(len(moved))]
            for w in t1.labels[1:]:
                if w not in moved:
                    kind = "extra" if e1.par[w] == solo2 else "stray"
                    wrong.append((kind, tuple(sorted(moved + (w,)))))
            for kind, bad in wrong:
                detail = CT._move_detail(e1, e2, solo1, solo2, bad)
                assert detail == reference_move_detail(t1, t2, solo1, solo2, bad)
                if kind == "stray":
                    assert detail == f"moved set {list(bad)} not within N2"
                else:
                    assert detail == "edge sets differ under the canonical relabeling"
                seen[kind] += 1
    assert all(seen[kind] for kind in ("short", "extra", "stray")), seen


def test_each_clique_is_validated_once_per_host(monkeypatch):
    """Over every ordered pair of a host, the clique check (`_clique_node`)
    runs once per distinct clique: a cache hit is a clique validated when it
    went in."""
    calls = Counter()
    real = CT._clique_node

    def counting(T, C):
        calls[tuple(sorted(C))] += 1
        return real(T, C)

    monkeypatch.setattr(CT, "_clique_node", counting)
    for T in (shuffled_host(2, 40, 1), shuffled_host(3, 30, 2), shuffled_host(1, 20, 3)):
        calls.clear()
        cache = {}
        seen = set()
        for _, C1, C2 in _ordered_adjacent_pairs(T):
            assert CT.verify_adjacent_reduction(T, C1, C2, cache).isomorphic
            seen.update((C1, C2))
        assert calls == dict.fromkeys(seen, 1), T.k
        assert seen == set(core.k_cliques(T))


def test_unsorted_cliques_give_the_same_report():
    T = shuffled_host(3, 12, 4)
    cache = {}
    for _, C1, C2 in _ordered_adjacent_pairs(T):
        rep = CT.verify_adjacent_reduction(T, C1, C2, cache)
        for a, b in ((C1[::-1], C2), (C1, C2[::-1]), (list(C1[::-1]), C2[::-1])):
            assert CT.verify_adjacent_reduction(T, a, b, cache) == rep
            assert CT.verify_adjacent_reduction(T, a, b) == rep
    # the unsorted forms were looked up, never stored
    assert sorted(cache) == core.k_cliques(T)


def test_bad_cliques_raise_on_a_warm_cache():
    T = core.gen_path_type(2, 6)
    cache = {}
    for _, C1, C2 in _ordered_adjacent_pairs(T):
        CT.verify_adjacent_reduction(T, C1, C2, cache)
    warm = dict(cache)
    for bad in ((1, 6), (1, 1), (1, 2, 3), (0, 1), (6, 7), (6, 1)):
        with pytest.raises(NotAClique):
            CT.verify_adjacent_reduction(T, bad, (1, 2), cache)
        with pytest.raises(NotAClique):
            CT.verify_adjacent_reduction(T, (1, 2), bad, cache)
    with pytest.raises(NotAdjacentCliques):
        CT.verify_adjacent_reduction(T, (1, 2), (4, 5), cache)
    with pytest.raises(NotAdjacentCliques):
        CT.verify_adjacent_reduction(T, (2, 1), (1, 2), cache)
    assert cache.keys() == warm.keys()


def test_adjacent_reduction_on_trees():
    """k = 1: C1 and C2 are the ends of an edge, nothing moves, and T'_C2 is
    the tree itself rooted at C2's vertex."""
    hosts = [T for n in range(2, 9) for T in ktree_classes(1, n)]
    hosts += [shuffled_host(1, n, seed) for n in (2, 3, 12, 40) for seed in range(3)]
    for T in hosts:
        cache = {}
        for _, C1, C2 in _ordered_adjacent_pairs(T):
            rep = CT.verify_adjacent_reduction(T, C1, C2, cache)
            assert rep == reference_adjacent_reduction(T, C1, C2)
            assert rep.isomorphic and rep.moved == ()
        assert len(cache) == T.n
        for (v,), e in cache.items():
            assert e.par[0] == e.par[v] == -1
            got = {frozenset((a, e.par[a] or v)) for a in T.vertices if a != v}
            assert got == {frozenset(x) for x in T.edges()}


def test_adjacency_cache_over_a_deep_host_stays_small():
    """Over every ordered pair of a path-type 2-tree of order 1000, the
    cache keeps one parent array per clique, not its tree.  A traced copy
    of it stays under 32 MiB; a cache of `CharTree`s with their parent maps
    took 87 MiB.  The copy is traced, not the checks, because tracing every
    allocation of the walks slows them about 30-fold."""
    T = core.gen_path_type(2, 1000)
    cache = {}
    for _, C1, C2 in _ordered_adjacent_pairs(T):
        assert CT.verify_adjacent_reduction(T, C1, C2, cache).isomorphic
    assert len(cache) == len(core.k_cliques(T))
    tracemalloc.start()
    try:
        clone = copy.deepcopy(cache)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(clone) == len(cache) and size < 32 << 20, size


def test_adjacent_reduction_examples():
    rep = CT.verify_adjacent_reduction(four_vertex(), (1, 2), (1, 3))
    assert rep.isomorphic and rep.moved == ()
    rep = CT.verify_adjacent_reduction(triangle(), (1, 2), (1, 3))
    assert rep.isomorphic
    T = core.gen_bristled_star(3, 3)
    q = core.kp1_cliques(T)[0]
    C1 = tuple(sorted(set(q) - {q[0]}))
    C2 = tuple(sorted(set(q) - {q[1]}))
    assert CT.verify_adjacent_reduction(T, C1, C2).isomorphic


def test_adjacent_reduction_exhaustive_small():
    for k in (1, 2, 3):
        for n in range(k + 1, 7):
            for T in ktree_classes(k, n):
                for q in core.kp1_cliques(T):
                    subs = [tuple(sorted(set(q) - {x})) for x in q]
                    for i in range(len(subs)):
                        for j in range(len(subs)):
                            if i != j:
                                rep = CT.verify_adjacent_reduction(
                                    T, subs[i], subs[j]
                                )
                                assert rep.isomorphic, (T.edges(), subs[i], subs[j])


def test_dot_output():
    ct = CT.characteristic_tree(four_vertex(), (1, 3))
    dot = ct.to_dot()
    assert dot.startswith("graph chartree {")
    assert dot.count("--") == 2
    assert '"C{1,3}" [shape=doublecircle];' in dot
