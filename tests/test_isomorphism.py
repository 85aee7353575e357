"""Canonical codes: permutation-invariant, isomorphism-separating."""

import hashlib
import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from ktrees import chartree, core, isomorphism as I, verify as V
from ktrees.errors import NotAClique, SizeTooSmall, TooLarge

from conftest import enumerate_labeled_ktrees, ktree_classes


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
    ts = list(enumerate_labeled_ktrees(2, 4))
    assert len(ts) == 3
    assert len({I.canonical_code(t) for t in ts}) == 1


def test_path_vs_star_codes_differ():
    p4 = core.gen_path_type(1, 4)
    star = core.recognize_ktree([(1, 2), (1, 3), (1, 4)], 1)
    assert I.canonical_code(p4) != I.canonical_code(star)


def test_relabeling_preserves_code():
    rng = random.Random(17)
    hosts = [
        core.random_ktree(k, n, rng.randrange(10**9))
        for k in (1, 2, 3, 4)
        for n in [*range(k, 10), *rng.sample(range(20, 81), 3)]
    ]
    hosts += [core.gen_star_type(k, m) for k in (1, 2, 3) for m in (1, 2, 7)]
    hosts += [core.gen_bristled_star(k, n) for k in (2, 3) for n in (3, 4, 9)]
    for T in hosts:
        T2 = relabeled(T, rng)
        assert I.canonical_code(T) == I.canonical_code(T2)


def test_centre_code_agrees_with_all_roots_reference():
    """Centre codes decide isomorphism exactly as one rooted code probed
    against every rooted code of the other host does."""
    rng = random.Random(29)
    pairs = 0
    for k in (1, 2, 3):
        for n in range(k + 1, 9):
            hosts = list(ktree_classes(k, n))
            hosts += [relabeled(T, rng) for T in hosts]
            codes = [I.canonical_code(T) for T in hosts]
            probes = [I.rooted_code(T, core.k_cliques(T)[0]) for T in hosts]
            sets = [I.rooted_code_set(T) for T in hosts]
            same = 0
            for i in range(len(hosts)):
                for j in range(len(hosts)):
                    want = probes[i] in sets[j]
                    assert (codes[i] == codes[j]) == want
                    pairs += 1
                    same += want
            assert same == 2 * len(hosts)  # itself and its relabeled twin
    assert pairs > 10000


def reference_rooted_structure(T, C):
    """`_rooted_structure` with every label read per vertex: the k-clique
    node j that the vertex joins, found from its neighbours among C and the
    vertices before it, and its attachment `inc.clique(j)`."""
    inc = T._incidence
    ct = chartree.characteristic_tree(T, C)
    verts, up = list(ct.labels[1:]), list(ct.up)
    cset = set(C)
    seen = T.clique_mask(C)
    depth = [0]
    at_depth = [0] * (T.n + 1)
    labels = [None]
    for i, v in enumerate(verts, 1):
        j = inc.node(tuple(core._mask_vertices(T.masks[v] & seen)))
        seen |= 1 << (v - 1)
        d = depth[up[i]] + 1
        attach = inc.clique(j)
        cmem = [u for u in attach if u in cset]
        offsets = sorted(d - at_depth[u] for u in attach if u not in cset)
        head = bytes([len(offsets), *offsets, len(cmem)])
        depth.append(d)
        at_depth[v] = d
        labels.append((head, cmem))
    return verts, up, labels, at_depth


def test_rooted_structure_matches_the_per_vertex_clique_reference():
    roots = 0
    for k in (1, 2, 3):
        for n in range(k, 9):
            for T in ktree_classes(k, n):
                for C in core.k_cliques(T):
                    got = I._rooted_structure(T, C)
                    assert got == reference_rooted_structure(T, C)
                    roots += 1
    assert roots > 1000


def test_code_separates_iff_isomorphic():
    pairs = 0
    for k, n in [(1, 5), (1, 6), (2, 5), (2, 6), (3, 6)]:
        ts = list(enumerate_labeled_ktrees(k, n))
        codes = [I.canonical_code(t) for t in ts]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                assert (codes[i] == codes[j]) == brute_isomorphic(ts[i], ts[j])
                pairs += 1
    assert pairs > 1000


def test_code_separates_sampled_n7():
    rng = random.Random(5)
    for k in (1, 2, 3):
        ts = list(enumerate_labeled_ktrees(k, 7))
        for _ in range(120):
            i, j = rng.randrange(len(ts)), rng.randrange(len(ts))
            got = I.canonical_code(ts[i]) == I.canonical_code(ts[j])
            assert got == brute_isomorphic(ts[i], ts[j])


def test_codes_agree_with_networkx_on_sampled_pairs():
    nx = pytest.importorskip("networkx")

    def graph(T):
        G = nx.Graph(T.edges())
        G.add_nodes_from(T.vertices)
        return G

    rng = random.Random(23)
    seen = set()
    for k in (1, 2, 3):
        for n in range(k, 10):
            for _ in range(12):
                T1 = core.random_ktree(k, n, rng.randrange(10**9))
                T2 = core.random_ktree(k, n, rng.randrange(10**9))
                if rng.random() < 0.3:
                    T2 = relabeled(T2, rng)
                want = nx.is_isomorphic(graph(T1), graph(T2))
                assert (I.canonical_code(T1) == I.canonical_code(T2)) == want
                seen.add(want)
    assert seen == {True, False}


def test_class_counts_match_known_sequences():
    trees = [len(ktree_classes(1, n)) for n in range(1, 11)]
    assert trees == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    two_trees = [len(ktree_classes(2, n)) for n in range(2, 11)]
    assert two_trees == [1, 1, 1, 2, 5, 12, 39, 136, 529]
    three_trees = [len(ktree_classes(3, n)) for n in range(3, 10)]
    assert three_trees == [1, 1, 1, 2, 5, 15, 58]  # OEIS A078792


def test_class_enumeration_agrees_with_labeled_dedup():
    for k, n in [(1, 6), (2, 6), (3, 7)]:
        labeled = {I.canonical_code(t) for t in enumerate_labeled_ktrees(k, n)}
        assert len(labeled) == len(ktree_classes(k, n))


def double_fan(m):
    """Two fans back to back: hub 1 over 3..m+2, hub m+2 over m+3..2m+2,
    each fan vertex joined to its hub and the vertex before it.  Rooted at
    the centre (m+1, m+2), hub 1 is about m levels above v = 3."""
    h = m + 2
    adds = [(3, (1, 2))] + [(v, (1, v - 1)) for v in range(4, h + 1)]
    adds += [(h + 1, (h - 1, h))]
    adds += [(v, (h, v - 1)) for v in range(h + 2, 2 * h - 1)]
    return core.build_from_construction(2, adds)


def test_rooted_code_refuses_a_non_clique():
    """The root is validated before the walk: an id off the host, a
    non-edge and a repeated vertex are refused, not coded."""
    T = core.gen_path_type(2, 6)
    for bad in ((1, 99), (1, 4), (2, 2), (1, 2, 3)):
        with pytest.raises(NotAClique):
            I.rooted_code(T, bad)
    assert I.rooted_code(T, [2, 1]) == I.rooted_code(T, (1, 2))


def test_canonical_code_limits_raise_too_large():
    with pytest.raises(TooLarge):
        I.canonical_code(core.gen_star_type(256, 0))
    with pytest.raises(TooLarge):
        I.canonical_code(core.gen_star_type(256, 1))
    with pytest.raises(TooLarge):  # k and n are checked before anything is read
        I.canonical_code(SimpleNamespace(k=1, n=65536))
    # a fan: v >= 5 joins (3, v - 1), so rooted at (1, 2) v is v - 3 below 3
    fan = core.build_from_construction(
        2, [(3, (1, 2)), (4, (1, 3))] + [(v, (3, v - 1)) for v in range(5, 300)]
    )
    with pytest.raises(TooLarge):
        I.rooted_code(fan, (1, 2))
    I.canonical_code(fan)  # the centre (3, 150) contains the hub
    big = double_fan(300)
    assert big.n == 602
    with pytest.raises(TooLarge):
        I.canonical_code(big)
    small = double_fan(150)
    assert small.n == 302 and I.canonical_code(small)


def test_deep_hosts_are_coded_without_recursion():
    """Codes fold in a loop, so a host's depth is bounded by n alone."""
    path = core.gen_path_type(2, 600)
    assert I.canonical_code(path)
    deep = core.gen_path_type(3, 2000)
    copy = relabeled(deep, random.Random(3))
    assert I.canonical_code(deep) == I.canonical_code(copy)


def test_class_enumeration_guard():
    with pytest.raises(TooLarge):
        I.enumerate_ktrees_up_to_iso(1, 15)
    # the level generator checks its range before the first level is asked for
    with pytest.raises(TooLarge):
        I.iso_levels(1, 15)
    with pytest.raises(SizeTooSmall):
        I.iso_levels(3, 2)


@pytest.mark.parametrize("k, n", [(1, 9), (2, 8), (3, 8)])
def test_each_level_equals_the_enumeration_of_its_order(k, n):
    levels = list(I.iso_levels(k, n))
    assert [m for m, _ in levels] == list(range(k, n + 1))
    for m, level in levels:
        want = ktree_classes(k, m)
        assert [(T.base, T.build) for T in level] == [(T.base, T.build) for T in want]


def test_corpus_builds_each_level_once(monkeypatch):
    calls = []
    code = I.canonical_code
    child_codes = I._child_codes

    def counted(T):
        calls.append(T.n)
        return code(T)

    def counted_children(T, cliques):
        calls.extend([T.n + 1] * len(cliques))
        return child_codes(T, cliques)

    monkeypatch.setattr(I, "canonical_code", counted)
    monkeypatch.setattr(I, "_child_codes", counted_children)
    cfg = V.SuiteConfig(suite="nonmajor-max", ks=(2,), max_n=8).validate()
    corpus = list(V.iter_corpus(cfg))
    in_corpus = len(calls)
    calls.clear()
    I.enumerate_ktrees_up_to_iso(2, 8)
    assert in_corpus == len(calls) > 0
    want = [
        (f"k2-n{n}-c{i}", T) for n in range(2, 9) for i, T in enumerate(ktree_classes(2, n))
    ]
    assert corpus == want


def reference_levels(k, n):
    """Class levels as built before candidates were coded from their
    parents: every candidate is built, then coded from scratch."""
    level = [core.build_from_construction(k, [])]
    yield k, level
    for m in range(k + 1, n + 1):
        classes = {}  # canonical code -> first candidate with it
        for T in level:
            for C in core.k_cliques(T):
                cand = I._extend(T, C)
                classes.setdefault(I.canonical_code(cand), cand)
        level = list(classes.values())
        yield m, level


@pytest.mark.parametrize("k, n", [(1, 10), (2, 10), (3, 9), (4, 9)])
def test_levels_match_the_build_every_candidate_reference(k, n):
    def builds(levels):
        return [(m, [(T.base, T.build) for T in level]) for m, level in levels]

    assert builds(I.iso_levels(k, n)) == builds(reference_levels(k, n))


@pytest.mark.parametrize("k, n", [(1, 9), (2, 9), (3, 8), (4, 8)])
def test_child_codes_equal_the_codes_of_built_children(k, n):
    candidates = 0
    for _, level in I.iso_levels(k, n - 1):
        for P in level:
            cliques = core.k_cliques(P)
            want = [I.canonical_code(I._extend(P, C)) for C in cliques]
            assert I._child_codes(P, cliques) == want
            candidates += len(cliques)
    assert candidates > 30


def test_child_codes_hold_one_fold_at_a_time():
    """Each child of K_7 has one root and 6! orderings; keeping every fold
    until the last child is coded would hold 7 * 720 of them (about 5 MB),
    where folding root by root holds one (a few kB)."""
    P = I._extend(core.build_from_construction(6, []), tuple(range(1, 7)))
    cliques = core.k_cliques(P)
    tracemalloc.start()
    try:
        got = I._child_codes(P, cliques)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(got)) == 1 and len(got) == 7
    assert got[0] == I.canonical_code(I._extend(P, cliques[0]))
    assert peak < 500_000


def test_levels_build_only_the_classes_they_keep(monkeypatch):
    built = []
    extend = I._extend

    def counted(T, C):
        built.append(T.n + 1)
        return extend(T, C)

    monkeypatch.setattr(I, "_extend", counted)
    sizes = {m: len(level) for m, level in I.iso_levels(2, 9)}
    assert sorted(built) == [m for m in range(3, 10) for _ in range(sizes[m])]
    assert len(built) == 1 + 1 + 2 + 5 + 12 + 39 + 136


def test_child_codes_keep_the_code_limits():
    """The child coder raises TooLarge exactly when `canonical_code` of the
    built child does: on double fans whose offsets reach the one-byte
    limit, and at k = 256."""

    def outcome(code, *args):
        try:
            return code(*args)
        except TooLarge:
            return TooLarge

    def child_code(P, C):
        (code,) = I._child_codes(P, [C])
        return code

    seen = []
    for m in (255, 256, 257):
        P = double_fan(m)
        h, n = m + 2, P.n
        # the far ends move the centre; (h, n) at m = 256 overflows only in
        # the new vertex's own offset
        for C in [(1, 2), (2, 3), (1, h - 1), (h - 1, h), (h, h + 1), (h, n)]:
            got = outcome(child_code, P, C)
            assert got == outcome(I.canonical_code, I._extend(P, C))
            seen.append((m, C, got is TooLarge))
    assert (256, (258, 514), True) in seen
    assert {too for *_, too in seen} == {True, False}
    # k is checked before any of the 256! orderings of a clique is tried
    P = core.gen_star_type(256, 1)
    assert outcome(child_code, P, P.base) is TooLarge
    assert outcome(I.canonical_code, I._extend(P, P.base)) is TooLarge


def test_codes_refuse_k_above_nine_before_any_ordering(monkeypatch):
    """From k = 10 on a code would try 10! orderings per root; every coder
    raises TooLarge first.  Orderings are replaced by a trap, so a coder
    that tried one fails here at once instead of running for minutes."""

    def trap(*args):
        raise AssertionError("an ordering of a root clique was tried")

    monkeypatch.setattr(I, "permutations", trap)
    T = core.gen_star_type(10, 1)
    coders = (
        I.canonical_code,
        I.rooted_code_set,
        lambda T: I.rooted_code(T, T.base),
        lambda T: I._child_codes(T, [T.base]),
    )
    for code in coders:
        with pytest.raises(TooLarge, match="k <= 9"):
            code(T)
    # k = 9 passes the check: K_9 is coded by its header alone
    assert I.canonical_code(core.gen_star_type(9, 0)) == bytes([9, 0, 9])


def test_codes_are_pinned_for_every_small_class():
    """The code bytes of every class with k = 1..3 and n <= 9, in enumeration
    order; any change to the code format or to the centre shows here."""
    digest = hashlib.sha256()
    for k in (1, 2, 3):
        for n in range(k, 10):
            for T in ktree_classes(k, n):
                digest.update(I.canonical_code(T))
    assert digest.hexdigest() == (
        "13b066673d403283126195b3a51c2c2616da109d93b7050911208eb59a072bee"
    )


def test_centre_roots_agree_with_networkx_center():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    for k in (1, 2, 3, 4):
        for _ in range(40):
            T = core.random_ktree(k, rng.randint(k, 24), rng.randrange(10**9))
            G = nx.Graph()
            G.add_nodes_from(core.k_cliques(T))
            for q in core.kp1_cliques(T):
                G.add_edges_from((q, f) for f in itertools.combinations(q, k))
            (centre,) = nx.center(G)
            faces = [centre] if len(centre) == k else itertools.combinations(centre, k)
            roots = map(T._incidence.clique, I._centre_roots(T))
            assert sorted(roots) == sorted(faces)


def test_centre_of_a_deep_host_is_found_without_recursion():
    # 2998 (k+1)-cliques in a chain: the centre is the face shared by the
    # 1499th and 1500th of them
    T = core.gen_path_type(2, 3000)
    assert [T._incidence.clique(r) for r in I._centre_roots(T)] == [(1500, 1501)]
