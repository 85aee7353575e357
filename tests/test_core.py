"""k-tree construction, recognition, cliques, generators, and text formats."""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ktrees import core
from ktrees.errors import (
    AttachmentNotClique,
    BadK,
    BadVertexOrder,
    Disconnected,
    FormatError,
    KTreeError,
    NotAClique,
    NotKTree,
    SizeTooSmall,
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
    assert T.k_leaf_set() == (2, 4)


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


def test_require_k_clique_accepts_exactly_the_k_cliques():
    """Non-cliques, repeated vertices and ids outside 1..n give NotAClique."""
    for T in (four_vertex(), core.random_ktree(3, 7, 2), core.gen_star_type(1, 3)):
        cliques = set(core.k_cliques(T))
        for C in product(range(-1, T.n + 2), repeat=T.k):
            if tuple(sorted(C)) in cliques:
                assert core.require_k_clique(T, C) == tuple(sorted(C))
            else:
                with pytest.raises(NotAClique):
                    core.require_k_clique(T, C)
        for C in ((), tuple(range(1, T.k + 2))):
            with pytest.raises(NotAClique):
                core.require_k_clique(T, C)


def test_clique_table_lists_the_incidence_nodes_in_sorted_order():
    """The table maps each k-clique, in the order of `k_cliques`, to the
    node the incidence index gives it, on every host of the criterion-1
    corpus and on large uniform hosts."""
    from test_acceptance import _labeled_corpus, _random_corpus

    hosts = (T for _, T in _labeled_corpus((1, 2, 3), 8))
    hosts = [*hosts, *(T for _, T in _random_corpus())]
    hosts += [core.random_ktree(k, 300, s) for k in (1, 2, 3, 4) for s in (1, 2)]
    for T in hosts:
        inc = T._incidence
        table = T._k_cliques
        assert list(table) == core.k_cliques(T)
        assert sorted(map(inc.clique, table.values())) == list(table)
        assert all(inc.node(C) == j and inc.clique(j) == C for C, j in table.items())
        assert sorted(table.values()) == list(range(1 + T.k * (T.n - T.k)))


def _answer(f, *args):
    """What a call gives: its value, or its exception's type and message."""
    try:
        return f(*args)
    except KTreeError as exc:
        return type(exc), str(exc)


def _structures(T):
    """Everything a host carries, its lazy index and table included, as
    plain values."""
    inc = T._incidence
    return (T.k, T.n, T.base, T.build, list(T.masks), list(inc.step_of),
            list(inc.attach_node), list(inc.layout), core.k_cliques(T),
            list(T._k_cliques.items()))


def test_an_extension_equals_a_rebuild_and_leaves_its_parent_alone():
    """`KTree.from_parent(P, C)` carries P's structures over to P + v@C:
    they equal those of the same host rebuilt from its records, the table
    exists from the start, and P's own structures do not change."""
    from conftest import shuffled_host

    cases = [(P, C) for k in (1, 2, 3) for n in range(k, 9)
             for P in ktree_classes(k, n) for C in core.k_cliques(P)]
    for k in (1, 2, 3, 4):
        for s in (1, 2):
            for P in (core.random_ktree(k, 200, s), shuffled_host(k, 60, s)):
                sample = random.Random(s).sample(core.k_cliques(P), 12)
                cases += [(P, C) for C in sample]
    assert len(cases) > 1500
    for P, C in cases:
        before = _structures(P)
        T = core.KTree.from_parent(P, list(reversed(C)))
        assert "_k_cliques" in T.__dict__
        want = core.KTree.from_parts(P.k, P.base, [*P.build, (P.n + 1, C)])
        assert _structures(T) == _structures(want)
        assert _structures(P) == before


def test_clique_queries_answer_alike_before_and_after_the_table():
    """Every clique query gives the same value, or the same refusal, on a
    host whose clique table exists and on an equal host where it does not;
    the queries never build the table."""
    from ktrees.chartree import characteristic_tree

    queries = (core.require_k_clique, core.clique_degree, core.adjacent_cliques,
               characteristic_tree)
    makers = (lambda: four_vertex(), lambda: core.random_ktree(3, 7, 2),
              lambda: core.gen_star_type(1, 3), lambda: core.build_from_construction(2, []))
    refused = 0
    for make in makers:
        cold, warm = make(), make()
        core.k_cliques(warm)
        k, n = cold.k, cold.n
        probes = list(product(range(-1, n + 2), repeat=k))  # unsorted, repeats, ids off 1..n
        probes += [list(C) for C in probes]
        probes += [(), tuple(range(1, k)), tuple(range(1, k + 2))]
        # ids that are not ints, among them floats equal to a clique's ids
        foreign = [tuple(map(float, C)) for C in core.k_cliques(warm)]
        foreign += [tuple(map(str, C)) for C in core.k_cliques(warm)]
        foreign += [(*C[:-1], None) for C in core.k_cliques(warm)]
        # a bool stands for the int it equals
        truthy = [(True, *C[1:]) for C in core.k_cliques(warm) if C[0] == 1]
        assert truthy
        for C, must_refuse in [*((C, None) for C in probes), *((C, True) for C in foreign),
                               *((C, False) for C in truthy)]:
            for query in queries:
                want = _answer(query, cold, C)
                assert _answer(query, warm, C) == want, (query.__name__, C)
                no = type(want) is tuple and want[0] is NotAClique
                refused += no
                assert must_refuse in (None, no), (query.__name__, C)
        assert "_k_cliques" not in cold.__dict__
    assert refused > 1000


def test_single_clique_queries_leave_the_table_unbuilt():
    """A query at one clique of a large host builds no tuple per clique."""
    from ktrees.chartree import local_mean_order_clique, verify_adjacent_reduction

    T = core.gen_path_type(2, 2000)
    for C in ((1, 2), (1000, 1001), (1999, 2000)):
        local_mean_order_clique(T, C)
        core.clique_degree(T, C)
        core.adjacent_cliques(T, C)
    cache = {}
    verify_adjacent_reduction(T, (1000, 1001), (1000, 1002), cache)
    verify_adjacent_reduction(T, (1001, 1002), (1000, 1001), cache)
    assert "_k_cliques" not in T.__dict__


def test_k_leaves():
    T = core.build_from_construction(2, [(3, (1, 2))])
    assert T.k_leaf_set() == (1, 2, 3)  # every vertex of K_{k+1}
    assert four_vertex().k_leaf_set() == (2, 4)
    assert core.gen_path_type(1, 5).k_leaf_set() == (1, 5)


def test_adjacent_cliques():
    assert core.adjacent_cliques(triangle(), (1, 2)) == [(1, 3), (2, 3)]
    p3 = core.gen_path_type(1, 3)
    assert core.adjacent_cliques(p3, (2,)) == [(1,), (3,)]
    trivial = core.build_from_construction(3, [])
    assert core.adjacent_cliques(trivial, (1, 2, 3)) == []


def _scan_clique_incidence(T, C):
    """Degree and adjacent cliques of C by scanning every (k+1)-clique."""
    deg = 0
    adjacent = set()
    for q in core.kp1_cliques(T):
        if set(C) <= set(q):
            deg += 1
            (x,) = set(q) - set(C)
            for c in C:
                adjacent.add(tuple(sorted((set(C) - {c}) | {x})))
    return deg, sorted(adjacent)


def test_clique_queries_match_a_scan_of_the_kp1_cliques():
    hosts = [core.build_from_construction(k, []) for k in (1, 2, 3, 4)]
    hosts += [core.random_ktree(k, n, seed) for k in (1, 2, 3, 4)
              for n, seed in ((k + 1, 1), (k + 9, 2), (k + 30, 3))]
    for T in hosts:
        for C in core.k_cliques(T):
            deg, adjacent = _scan_clique_incidence(T, C)
            assert core.clique_degree(T, C).degree == deg
            assert core.adjacent_cliques(T, C) == adjacent
            assert core._mask_vertices(core._common_mask(T, C)) == [
                x for x in T.vertices
                if x not in C and all(T.has_edge(x, u) for u in C)
            ]


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
            assert len(T.k_leaf_set()) == 2


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
    leaves = T.k_leaf_set()
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
        leaves = T.k_leaf_set()
        assert len(leaves) >= 2
        assert not any(
            T.has_edge(a, b) for a in leaves for b in leaves if a < b
        )
        # some k-leaf survives outside any clique
        for C in core.k_cliques(T):
            assert set(leaves) - set(C)


@pytest.mark.parametrize("k", [0, -1])
def test_constructors_refuse_k_below_1(k):
    # a "0-tree" has no k-clique to list and no .kt text that parses back
    builds = [
        lambda: core.random_ktree(k, 3, 1),
        lambda: core.gen_path_type(k, 3),
        lambda: core.gen_star_type(k, 3),
        lambda: core.KTree.from_parts(k, (), []),
        lambda: core.grow_ktree(k, [0, 0]),
    ]
    for build in builds:
        with pytest.raises(BadK, match=f"^k must be at least 1, got {k}$"):
            build()
    # the .kt reader refuses the header before it reads a base line
    with pytest.raises(BadK, match=f"^k must be at least 1, got {k}$"):
        core.parse_kt(f"ktree 1\nk {k}\nn 3\nnot-a-base\n")


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


_TOKEN = st.one_of(
    st.integers(-1, 9).map(str),
    st.sampled_from(["ktree", "k", "n", "base", "add", "x", "#"]),
)


@st.composite
def _mutated(draw, lines):
    """`lines` (lists of tokens) after a few drops, repeats, cuts and
    token edits, joined into text."""
    lines = [list(ln) for ln in lines]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "cut", "token"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, list(lines[i]))
        elif edit == "cut":
            del lines[i][-1:]
        else:
            j = draw(st.integers(0, len(lines[i])))
            lines[i][j:j + draw(st.integers(0, 1))] = [draw(_TOKEN)]
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


_HOSTS = st.builds(
    lambda k, extra, seed: core.random_ktree(k, k + extra, seed),
    st.integers(1, 3),
    st.integers(0, 5),
    st.integers(0, 99),
)
_ANY_TEXT = st.text(alphabet="ktreabsdn 0123456789-x#\n", max_size=60)
_KT_TEXT = st.one_of(
    _HOSTS.flatmap(
        lambda T: _mutated([ln.split() for ln in core.format_kt(T)[0].splitlines()])
    ),
    _ANY_TEXT,
)
_EDGE_TEXT = st.one_of(
    _HOSTS.flatmap(lambda T: _mutated([list(map(str, e)) for e in T.edges()])),
    _ANY_TEXT,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_KT_TEXT)
def test_parse_kt_parses_or_raises_ktree_error(text):
    try:
        core.parse_kt(text)
    except KTreeError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    text=_EDGE_TEXT,
    k=st.integers(-1, 4),
    n=st.one_of(st.none(), st.integers(-1, 9)),
)
def test_parse_edge_list_parses_or_raises_ktree_error(text, k, n):
    try:
        core.parse_edge_list(text, k, n=n)
    except KTreeError:
        pass


# -- recognition against the reference path ------------------------------------
#
# The reference parses line by line, collects a set of sorted pairs, and
# builds the masks twice: once from the pairs to peel, then again in
# `KTree.from_parts` from the peel records.  The program reads plain text in
# bulk and keeps the masks it ORs together from the pairs.


def _reference_edges(text):
    edges = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line: {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"bad edge line: {ln!r}") from None
    return edges


def _reference_neighbor_dict(edges, n=None):
    verts = set()
    pairs = set()
    for u, v in edges:
        if u == v:
            raise FormatError(f"self-loop at {u}")
        a, b = (u, v) if u < v else (v, u)
        pairs.add((a, b))
        verts.add(u)
        verts.add(v)
    if n is None:
        n = max(verts) if verts else 0
    if verts and (min(verts) < 1 or max(verts) > n):
        raise FormatError("vertex ids must lie in 1..n")
    return n, pairs


def _reference_recognize(edges, k, n=None):
    if k < 1:
        raise BadK(f"k must be at least 1, got {k}")
    n, pairs = _reference_neighbor_dict(edges, n)
    if n < k:
        raise NotKTree(f"order {n} below k={k}")
    if len(pairs) < n - 1:
        raise Disconnected(f"{len(pairs)} edges cannot connect {n} vertices")
    masks = [0] * (n + 1)
    for u, v in pairs:
        masks[u] |= 1 << (v - 1)
        masks[v] |= 1 << (u - 1)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in core._mask_vertices(frontier):
            nxt |= masks[v]
        frontier = nxt & ~seen
        seen |= nxt
    if n >= 1 and seen != (1 << n) - 1:
        raise Disconnected(f"graph on 1..{n} is not connected")
    if len(pairs) != k * n - k * (k + 1) // 2:
        raise NotKTree(
            f"edge count {len(pairs)} != {k * n - k * (k + 1) // 2} required for a k-tree"
        )
    peeled = core._peel_k_leaves(k, list(masks), 0)
    alive = (1 << n) - 1 - sum(1 << (v - 1) for v, _ in peeled)
    if len(peeled) != n - k:
        raise NotKTree(
            f"no simplicial degree-{k} vertex among {core._mask_vertices(alive)}"
        )
    rest = core._mask_vertices(alive)
    if not all(masks[v] & alive == alive & ~(1 << (v - 1)) for v in rest):
        raise NotKTree(f"residue {rest} is not K_{k}")
    return core.KTree.from_parts(k, rest, peeled[::-1])


def _outcome(recognize, *args):
    """(base, build, masks) of the recognized host with their types, or the
    type and message of the error raised."""
    try:
        T = recognize(*args)
    except KTreeError as exc:
        return type(exc), str(exc)
    kinds = {type(T.masks), *map(type, T.masks), *map(type, T.base)}
    for v, attach in T.build:
        kinds |= {type(v), type(attach), *map(type, attach)}
    return (T.base, T.build, T.masks), kinds


def _assert_recognized_alike(edges, text, k, n=None):
    """The program and the reference agree on the pairs and on the text,
    and a recognized host's records rebuild its masks."""
    want = _outcome(_reference_recognize, edges, k, n)
    assert _outcome(core.recognize_ktree, edges, k, n) == want
    assert _outcome(core.parse_edge_list, text, k, n) == want
    if isinstance(want[0], tuple):
        T = core.recognize_ktree(edges, k, n)
        assert core.KTree.from_parts(T.k, T.base, T.build).masks == T.masks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    text=_EDGE_TEXT,
    k=st.integers(-1, 4),
    n=st.one_of(st.none(), st.integers(-1, 9)),
)
def test_edge_list_recognition_matches_the_reference(text, k, n):
    try:
        edges = _reference_edges(text)
    except KTreeError as exc:
        assert _outcome(core.parse_edge_list, text, k, n) == (type(exc), str(exc))
        return
    _assert_recognized_alike(edges, text, k, n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(1, 4),
    extra=st.integers(0, 56),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_shuffled_hosts_with_repeated_edges_match_the_reference(k, extra, seed, data):
    n = k + extra
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = [(perm[u - 1], perm[v - 1]) for u, v in core.random_ktree(k, n, seed).edges()]
    # duplicated and reversed edges collapse onto the same host
    edges += [e[::-1] if rng.random() < 0.5 else e for e in rng.sample(edges, len(edges) // 3)]
    edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    rng.shuffle(edges)
    lines = [f"{u} {v}" for u, v in edges]
    if data.draw(st.booleans()):  # comments and blank lines: read line by line
        lines.insert(rng.randrange(len(lines) + 1), "# a comment")
        lines.insert(rng.randrange(len(lines) + 1), "")
    text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n", "\r\n"]))
    _assert_recognized_alike(edges, text, k, data.draw(st.sampled_from([None, n])))
    assert core.recognize_ktree(edges, k, n).edges() == sorted(
        tuple(sorted(e)) for e in set(map(frozenset, edges))
    )


@pytest.mark.parametrize("k", [1, 2])
def test_a_huge_id_is_refused_before_anything_sized_by_it(k):
    tracemalloc.start()
    try:
        with pytest.raises(Disconnected, match="^1 edges cannot connect 1000000000000000 vertices$"):
            core.parse_edge_list("1 1000000000000000\n", k)
        with pytest.raises(Disconnected, match="^1 edges cannot connect"):
            core.recognize_ktree([(10**15, 1), (1, 10**15)], k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_an_id_past_the_int_digit_limit_is_a_bad_line():
    line = "2 " + "9" * 5000  # int() refuses a string of over 4,300 digits
    assert _outcome(core.parse_edge_list, f"1 2\n{line}\n", 1) == (
        FormatError,
        f"bad edge line: {line!r}",
    )
