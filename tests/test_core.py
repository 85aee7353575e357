"""k-tree construction, recognition, cliques, generators, and text formats."""

import pytest
from hypothesis import given, settings, strategies as st

from ktrees import core
from ktrees.errors import (
    AttachmentNotClique,
    BadVertexOrder,
    Disconnected,
    FormatError,
    NotAClique,
    NotKTree,
    SizeTooSmall,
    TrivialKTree,
)

from conftest import ktree_classes


def triangle():
    return core.build_from_construction(2, [(3, (1, 2))])


def four_vertex():
    # edges 12,13,23,14,34
    return core.build_from_construction(2, [(3, (1, 2)), (4, (1, 3))])


# -- construction ---------------------------------------------------------------


def test_build_triangle():
    T = triangle()
    assert T.edges() == [(1, 2), (1, 3), (2, 3)]
    assert T.n == 3 and T.k == 2


def test_build_four_vertex_counts():
    T = four_vertex()
    assert sorted(T.edges()) == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    assert T.edge_count == 1 + 2 * 2  # k*n - k(k+1)/2 = 5


def test_build_path_as_one_tree():
    T = core.build_from_construction(1, [(2, (1,)), (3, (2,)), (4, (3,))])
    assert T.edges() == [(1, 2), (2, 3), (3, 4)]


def test_build_rejects_non_clique_attachment():
    with pytest.raises(AttachmentNotClique):
        core.build_from_construction(2, [(3, (1, 2)), (4, (1, 3)), (5, (2, 4))])


def test_build_rejects_out_of_order_ids():
    with pytest.raises(BadVertexOrder):
        core.build_from_construction(2, [(4, (1, 2))])


# -- recognition ----------------------------------------------------------------


def test_recognize_triangle():
    T = core.recognize_ktree([(1, 2), (2, 3), (1, 3)], 2)
    assert T.n == 3 and T.edge_count == 3


def test_recognize_rejects_p3_as_two_tree():
    with pytest.raises(NotKTree):
        core.recognize_ktree([(1, 2), (2, 3)], 2)


def test_recognize_rejects_nonsimplicial_degree_k_vertex():
    # 5 is the only vertex of degree 2, and its neighbours 1 and 4 are not
    # adjacent, although the graph is connected with 2n - 3 edges.
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4)]
    with pytest.raises(NotKTree):
        core.recognize_ktree(edges, 2)


def test_recognize_k4_minus_edge():
    T = core.recognize_ktree([(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)], 2)
    assert T.n == 4
    assert core.k_leaves(T) == (2, 4)


def test_recognize_rejects_disconnected():
    with pytest.raises(Disconnected):
        core.recognize_ktree([(1, 2), (3, 4)], 1)


def test_recognition_round_trip():
    T = four_vertex()
    R = core.recognize_ktree(T.edges(), 2)
    assert R.edges() == T.edges()
    rebuilt = core.KTree.from_parts(R.k, R.base, R.build)
    assert rebuilt.edges() == T.edges()


# -- clique anatomy --------------------------------------------------------------


def test_clique_lists_triangle():
    T = triangle()
    assert core.k_cliques(T) == [(1, 2), (1, 3), (2, 3)]
    assert core.kp1_cliques(T) == [(1, 2, 3)]


def test_clique_lists_trivial():
    T = core.build_from_construction(2, [])
    assert core.k_cliques(T) == [(1, 2)]
    assert core.kp1_cliques(T) == []


def test_clique_lists_four_vertex():
    T = four_vertex()
    assert len(core.k_cliques(T)) == 1 + 2 * 2
    assert len(core.kp1_cliques(T)) == 2


def test_clique_degree_classes():
    T = four_vertex()
    assert core.clique_degree(triangle(), (1, 2)) == core.CliqueInfo(1, "end")
    assert core.clique_degree(T, (1, 3)).degree == 2
    assert core.clique_degree(T, (1, 3)).kind == "degree2"
    trivial = core.build_from_construction(2, [])
    assert core.clique_degree(trivial, (1, 2)) == core.CliqueInfo(0, "isolated")


def test_clique_degree_rejects_non_clique():
    with pytest.raises(NotAClique):
        core.clique_degree(four_vertex(), (2, 4))


def test_k_leaves():
    T = core.build_from_construction(2, [(3, (1, 2))])
    assert core.k_leaves(T) == (1, 2, 3)  # every vertex of K_{k+1}
    assert core.k_leaves(four_vertex()) == (2, 4)
    p5 = core.gen_path_type(1, 5)
    assert core.k_leaves(p5) == (1, 5)
    with pytest.raises(TrivialKTree):
        core.k_leaves(core.build_from_construction(2, []))


def test_adjacent_cliques():
    assert core.adjacent_cliques(triangle(), (1, 2)) == [(1, 3), (2, 3)]
    p3 = core.gen_path_type(1, 3)
    assert core.adjacent_cliques(p3, (2,)) == [(1,), (3,)]
    trivial = core.build_from_construction(3, [])
    assert core.adjacent_cliques(trivial, (1, 2, 3)) == []


def test_adjacent_cliques_symmetric_and_counted():
    for T in ktree_classes(2, 6) + ktree_classes(3, 6):
        for C in core.k_cliques(T):
            adj = core.adjacent_cliques(T, C)
            assert len(adj) == T.k * core.clique_degree(T, C).degree
            for D in adj:
                assert C in core.adjacent_cliques(T, D)


# -- generators -----------------------------------------------------------------


def test_gen_path_type_is_path_for_k1():
    assert core.gen_path_type(1, 5).edges() == [(1, 2), (2, 3), (3, 4), (4, 5)]


def test_gen_path_type_has_two_k_leaves():
    for k in (1, 2, 3):
        for n in range(k + 2, k + 6):
            T = core.gen_path_type(k, n)
            assert len(core.k_leaves(T)) == 2


def test_gen_star_type_attaches_to_base():
    T = core.gen_star_type(2, 4)
    assert all(attach == (1, 2) for _, attach in T.build)
    assert T.n == 6


def test_gen_bristled_star_structure():
    T = core.gen_bristled_star(3, 3)
    assert T.n == 9    # order 3 + 3 + 3
    base = (1, 2, 3)
    assert core.clique_degree(T, base).degree == 3
    for i in (1, 2, 3):
        drop = (i - 1) % 3 + 1
        mid = tuple(sorted({3 + i} | (set(base) - {drop})))
        assert core.clique_degree(T, mid).degree == 2
    leaves = core.k_leaves(T)
    assert leaves == (7, 8, 9)
    with pytest.raises(SizeTooSmall):
        core.gen_bristled_star(3, 2)


def test_gen_double_broom_order():
    T = core.gen_double_broom(7)
    assert T.n == 19
    degs = sorted(T.degree(v) for v in T.vertices)
    assert degs.count(1) == 4 and degs.count(3) == 2
    with pytest.raises(SizeTooSmall):
        core.gen_double_broom(0)


def test_random_ktree_deterministic():
    a = core.random_ktree(2, 10, 42)
    b = core.random_ktree(2, 10, 42)
    assert a.edges() == b.edges()
    c = core.random_ktree(2, 10, 43)
    assert a.edges() != c.edges()


def test_random_ktree_forced_small_cases():
    assert core.random_ktree(2, 2, 7).edges() == [(1, 2)]
    k4 = core.random_ktree(3, 4, 99)
    assert k4.edge_count == 6


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_random_ktree_invariants(k, extra, seed):
    n = k + extra
    T = core.random_ktree(k, n, seed)
    assert T.edge_count == k * n - k * (k + 1) // 2
    assert len(core.k_cliques(T)) == 1 + k * (n - k)
    assert len(core.kp1_cliques(T)) == n - k
    R = core.recognize_ktree(T.edges(), k, n=n)
    assert R.edges() == T.edges()
    if n >= k + 2:
        leaves = core.k_leaves(T)
        assert len(leaves) >= 2
        assert not any(
            T.has_edge(a, b) for a in leaves for b in leaves if a < b
        )
        # some k-leaf survives outside any clique
        for C in core.k_cliques(T):
            assert set(leaves) - set(C)


# -- text formats -----------------------------------------------------------------


def test_kt_round_trip_bit_stable():
    T = four_vertex()
    text, relabel = core.format_kt(T)
    assert relabel is None
    again, _ = core.format_kt(core.parse_kt(text))
    assert again == text


def test_kt_relabels_unordered_builds():
    # original ids cannot be emitted in id order for this tree
    T = core.recognize_ktree([(1, 3), (3, 2)], 1)
    text, relabel = core.format_kt(T)
    assert relabel is not None
    R = core.parse_kt(text)
    assert R.n == 3 and R.k == 1


def test_parse_kt_rejects_bad_input():
    with pytest.raises(FormatError):
        core.parse_kt("nope\n")
    with pytest.raises(FormatError):
        core.parse_kt("ktree 1\nk 2\nn 3\nbase 1 3\nadd 2 1 3\n")
    with pytest.raises(BadVertexOrder):
        core.parse_kt("ktree 1\nk 2\nn 4\nbase 1 2\nadd 4 1 2\nadd 3 1 2\n")


def test_parse_edge_list():
    T = core.parse_edge_list("1 2\n2 3\n1 3\n", 2)
    assert T.n == 3
    with pytest.raises(FormatError):
        core.parse_edge_list("1 2 3\n", 2)


def test_validate_table():
    table = four_vertex().validate()
    assert all(got == want for got, want in table.values())
