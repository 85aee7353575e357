"""Exhaustive sub-k-tree enumeration as the package's ground truth."""

import gc
import itertools
import weakref
from fractions import Fraction

import pytest

from ktrees import core, oracle as O
from ktrees.chartree import argmax_cliques
from ktrees.errors import KTreeError, NotASubKTree, TooLarge
from ktrees.polynomials import IntPolynomial

from conftest import count_and_total, ktree_classes, shuffled_host


def triangle():
    return core.build_from_construction(2, [(3, (1, 2))])


def four_vertex():
    return core.build_from_construction(2, [(3, (1, 2)), (4, (1, 3))])


def test_enumerate_triangle():
    full = O.enumerate_sub_ktrees(triangle())
    assert sorted(full.vertex_sets()) == [(1, 2), (1, 2, 3), (1, 3), (2, 3)]


def test_enumerate_p3_subtrees():
    T = core.gen_path_type(1, 3)
    assert len(O.enumerate_sub_ktrees(T)) == 6


def test_enumerate_with_required():
    got = O.enumerate_sub_ktrees(four_vertex()).restricted((1, 2))
    assert sorted(got.vertex_sets()) == [(1, 2), (1, 2, 3), (1, 2, 3, 4)]


def test_global_poly_examples():
    assert O.enumerate_sub_ktrees(triangle()).poly() == IntPolynomial((0, 0, 3, 1))
    assert O.enumerate_sub_ktrees(triangle()).mean() == Fraction(9, 4)
    k2 = core.build_from_construction(1, [(2, (1,))])
    assert O.enumerate_sub_ktrees(k2).poly() == IntPolynomial((0, 2, 1))
    assert O.enumerate_sub_ktrees(k2).mean() == Fraction(4, 3)
    trivial = core.build_from_construction(3, [])
    assert O.enumerate_sub_ktrees(trivial).poly() == IntPolynomial((0, 0, 0, 1))
    assert O.enumerate_sub_ktrees(trivial).mean() == 3


def test_local_poly_examples():
    members = O.local_members(triangle(), (1, 2))
    assert members.poly() == IntPolynomial((0, 0, 1, 1))
    assert members.mean() == Fraction(5, 2)
    T = four_vertex()
    members = O.local_members(T, (1, 2))
    assert members.poly() == IntPolynomial((0, 0, 1, 1, 1))
    assert members.mean() == 3
    members = O.local_members(T, (1, 2, 3, 4))
    assert members.poly() == IntPolynomial((0, 0, 0, 0, 1))
    assert members.mean() == 4


def test_local_rejects_non_sub_ktree():
    with pytest.raises(NotASubKTree):
        O.local_members(four_vertex(), (2, 4))
    with pytest.raises(NotASubKTree):
        O.local_members(four_vertex(), (2,))  # too small for k=2


def test_all_clique_means_examples():
    assert set(O.oracle_all_clique_means(triangle()).values()) == {Fraction(5, 2)}
    means = O.oracle_all_clique_means(four_vertex())
    assert len(means) == 5
    arg, best = argmax_cliques(four_vertex(), means)
    assert best == max(means.values())
    assert any(core.clique_degree(four_vertex(), C).degree == 1 for C in arg)
    star = core.recognize_ktree([(1, 2), (1, 3), (1, 4)], 1)
    means = O.oracle_all_clique_means(star)
    assert means[(1,)] == Fraction(5, 2)
    assert means[(2,)] == Fraction(13, 5)
    arg, _ = argmax_cliques(star, means)
    assert arg == [(2,), (3,), (4,)]


def test_members_are_sub_ktrees_and_closed_downward():
    for k in (1, 2, 3):
        for n in range(k, 7):
            for T in ktree_classes(k, n):
                full = O.enumerate_sub_ktrees(T)
                members = set(full.masks)
                for S in full.vertex_sets():
                    assert O.is_sub_ktree(T, S)
                    if len(S) > k:
                        sub = core.recognize_ktree(
                            [
                                (S.index(a) + 1, S.index(b) + 1)
                                for a, b in T.edges()
                                if a in S and b in S
                            ],
                            k,
                            n=len(S),
                        )
                        for leaf in sub.k_leaf_set():
                            smaller = set(S) - {S[leaf - 1]}
                            mask = 0
                            for v in smaller:
                                mask |= 1 << (v - 1)
                            assert mask in members


def test_filter_monotone_and_totals():
    for T in ktree_classes(2, 6):
        full = O.enumerate_sub_ktrees(T)
        total = full.poly()
        for C in core.k_cliques(T):
            local = full.restricted(C).poly()
            assert len(full.restricted(C)) == count_and_total(local)[0]
            padded = list(local.coeffs) + [0] * (
                len(total.coeffs) - len(local.coeffs)
            )
            assert all(a <= b for a, b in zip(padded, total.coeffs))
        assert count_and_total(total)[0] == len(full)


def test_path_subtree_closed_form():
    for n in range(1, 11):
        T = core.gen_path_type(1, n)
        count, _ = count_and_total(O.enumerate_sub_ktrees(T).poly())
        assert count == n * (n + 1) // 2


def test_cap_guard():
    T = core.random_ktree(1, 17, 3)
    with pytest.raises(TooLarge):
        O.enumerate_sub_ktrees(T)
    assert len(O.enumerate_sub_ktrees(T, cap=17)) > 0
    # member orders are one byte each, whatever the cap
    with pytest.raises(TooLarge):
        O.enumerate_sub_ktrees(core.gen_path_type(1, 256), cap=300)


def _subset_is_sub_ktree(T, S):
    """Subset filter for the completeness test, apart from `core`'s
    recognition: peel simplicial degree-k vertices of the subgraph induced
    by the mask S until k vertices are left, which must form a clique."""
    k, masks = T.k, T.masks
    if S.bit_count() < k:
        return False
    while S.bit_count() > k:
        rest = S
        while rest:
            low = rest & -rest
            rest ^= low
            nb = masks[low.bit_length()] & S
            if nb.bit_count() == k and all(
                masks[u] & nb == nb & ~(1 << (u - 1))
                for u in range(1, T.n + 1)
                if nb >> (u - 1) & 1
            ):
                S ^= low
                break
        else:
            return False
    return all(
        masks[u] & S == S & ~(1 << (u - 1)) for u in range(1, T.n + 1) if S >> (u - 1) & 1
    )


def _completeness_hosts():
    for k in (1, 2, 3):
        yield core.gen_star_type(k, 12 - k)
        yield core.gen_path_type(k, 12)
        for n, seed in ((k, 0), (k + 1, 1), (7, 2), (10, 3), (11, 4), (12, 5), (12, 6)):
            yield core.random_ktree(k, n, seed)


def test_enumeration_finds_every_sub_ktree():
    """Every vertex subset that passes the peel filter is enumerated, and
    nothing else is."""
    for T in _completeness_hosts():
        want = tuple(S for S in range(1, 1 << T.n) if _subset_is_sub_ktree(T, S))
        assert O.enumerate_sub_ktrees(T).masks == want, (T.k, T.n)


def test_required_outside_the_host_is_rejected():
    T = four_vertex()
    full = O.enumerate_sub_ktrees(T)
    for bad in ((0,), (T.n + 1,), (1, -2)):
        with pytest.raises(NotASubKTree):
            full.restricted(bad)
    with pytest.raises(KTreeError):
        O.SubKTreeSet(T, ()).mean()
    assert O.SubKTreeSet(T, ()).poly() == IntPolynomial()


def test_k_neighbours_in_a_sub_ktree_form_a_clique():
    """The growth's attach test counts neighbours only: a vertex outside a
    sub-k-tree S with exactly k neighbours in S sees a k-clique.  Checked
    over every sub-k-tree found by the peel filter, on every class with
    k <= 3 and n <= 8."""
    cases = 0
    for k in (1, 2, 3):
        for n in range(k, 9):
            for T in ktree_classes(k, n):
                masks = T.masks
                for S in range(1, 1 << T.n):
                    if not _subset_is_sub_ktree(T, S):
                        continue
                    for v in range(1, T.n + 1):
                        nb = masks[v] & S
                        if S >> (v - 1) & 1 or nb.bit_count() != k:
                            continue
                        assert T.is_clique(core._mask_vertices(nb)), (k, n, S, v)
                        cases += 1
    assert cases > 5000


def _seen_set_growth(T):
    """Reference growth with a set of seen members: from every k-clique,
    attach any outside vertex whose neighbours in the set form a k-clique."""
    k, masks = T.k, T.masks
    seen = set()
    stack = []
    for C in core.k_cliques(T):
        S = T.clique_mask(C)
        if S not in seen:
            seen.add(S)
            stack.append(S)
    while stack:
        S = stack.pop()
        for v in range(1, T.n + 1):
            low = 1 << (v - 1)
            inter = masks[v] & S
            if S & low or S | low in seen or inter.bit_count() != k:
                continue
            if all(masks[u] & inter == inter & ~(1 << (u - 1))
                   for u in range(1, T.n + 1) if inter >> (u - 1) & 1):
                seen.add(S | low)
                stack.append(S | low)
    return tuple(sorted(seen))


def _growth_hosts():
    for k in (1, 2, 3):
        for n in range(k, 10):
            yield from ktree_classes(k, n)
        yield core.gen_star_type(k, 16 - k)
        yield core.gen_path_type(k, 16)
    # ids that do not follow the build, as on the benchmark's hosts
    for k in (1, 2, 3, 4):
        for n in (k, k + 1, k + 2, 9, 12, 14):
            for seed in range(4):
                yield shuffled_host(k, n, seed)


def test_growth_reaches_each_member_once_and_matches_a_seen_set():
    for T in _growth_hosts():
        masks = O._grow_all(T)
        assert len(set(masks)) == len(masks), (T.k, T.n)
        assert masks == _seen_set_growth(T), (T.k, T.n)


def test_seed_cliques_are_read_off_the_masks():
    hosts = [T for k in (1, 2, 3) for n in range(k, 10) for T in ktree_classes(k, n)]
    hosts += [shuffled_host(k, n, seed) for k in (1, 2, 3, 4)
              for n in (k, k + 1, 9, 14) for seed in (0, 1)]
    for T in hosts:
        assert O._cliques(T) == core.k_cliques(T), (T.k, T.n)


def _required_sets(T):
    """Vertex sets of size 0..k+1: cliques, non-cliques and sets of members."""
    vs = range(1, T.n + 1)
    for size in range(T.k + 2):
        yield from itertools.combinations(vs, size)


def _filtered(masks, required):
    req = sum(1 << (v - 1) for v in set(required))
    return tuple(m for m in masks if m & req == req)


def _poly_of(masks):
    coeffs = [0] * (max(map(int.bit_count, masks), default=-1) + 1)
    for m in masks:
        coeffs[m.bit_count()] += 1
    return IntPolynomial(coeffs)


def test_restriction_and_means_equal_a_plain_filter():
    hosts = [core.build_from_construction(k, []) for k in (1, 2, 3)]
    hosts += [triangle(), four_vertex(), core.gen_star_type(2, 5)]
    hosts += [shuffled_host(k, 8, k) for k in (1, 2, 3)]
    for T in hosts:
        full = O.enumerate_sub_ktrees(T)
        empty = O.SubKTreeSet(T, ())
        for required in _required_sets(T):
            want = _filtered(full.masks, required)
            got = full.restricted(required)
            # counts first: they must not need the members spelled out
            assert len(got) == len(want) and got.poly() == _poly_of(want)
            if want:
                mean = Fraction(sum(map(int.bit_count, want)), len(want))
                assert got.mean() == mean
            else:
                with pytest.raises(KTreeError):
                    got.mean()
            assert got.masks == want, (T.k, T.n, required)
            twice = got.restricted(required[:1])
            assert twice.masks == want and twice.poly() == got.poly()
            assert len(empty.restricted(required)) == 0
            assert empty.restricted(required).poly() == IntPolynomial()
        assert full.poly() == _poly_of(full.masks)
        means = O.oracle_all_clique_means(T)
        assert list(means) == core.k_cliques(T)
        for C, mean in means.items():
            kept = _filtered(full.masks, C)
            assert mean == Fraction(sum(map(int.bit_count, kept)), len(kept))


def test_restriction_across_column_words():
    """Hosts of more than 64 vertices transpose one 64-bit word per 64
    vertices; sets that straddle a word or byte edge restrict exactly."""
    straddling = [(64,), (65,), (64, 65), (63, 66), (128,), (129,), (128, 129),
                  (129, 130), (1, 130), (60, 70, 100), (127, 128, 129, 130)]
    for k in (1, 2):
        T = core.gen_path_type(k, 130)
        full = O.enumerate_sub_ktrees(T, cap=130)
        for required in straddling:
            want = _filtered(full.masks, required)
            got = full.restricted(required)
            assert len(got) == len(want) and got.poly() == _poly_of(want), required
            assert got.mean() == Fraction(sum(map(int.bit_count, want)), len(want))
            assert got.masks == want, (k, required)
            inner = got.restricted((required[0] + 1,))
            assert inner.masks == _filtered(want, (required[0] + 1,)), (k, required)


def test_counting_never_spells_out_the_members():
    """`len`, `poly` and `mean` of a restricted set read its per-order counts,
    and those equal a plain filter on every clique of every host."""
    for T in _growth_hosts():
        full = O.enumerate_sub_ktrees(T)
        for C in core.k_cliques(T):
            want = _filtered(full.masks, C)
            got = full.restricted(C)
            assert len(got) == len(want) and got.poly() == _poly_of(want)
            assert got.mean() == Fraction(sum(map(int.bit_count, want)), len(want))
            assert "masks" not in vars(got), (T.k, T.n, C)


def per_vertex_clique_means(T):
    """`oracle_all_clique_means` as it was, kept as a reference: each
    clique's order total is one column AND and bit count per vertex."""
    full = O.enumerate_sub_ktrees(T)
    cols = full._columns[1:]
    out = {}
    for C in O._cliques(T):
        sel = full._selector(O._required_mask(T, C))
        out[C] = Fraction(sum((sel & col).bit_count() for col in cols), sel.bit_count())
    return out


def test_clique_means_from_the_level_masks_match_the_per_vertex_sum():
    for T in _growth_hosts():
        assert O.oracle_all_clique_means(T) == per_vertex_clique_means(T), (T.k, T.n)


def test_member_orders_fill_one_byte():
    """Orders are read one byte each into the level masks; on a host of
    order 255 the largest member still counts exactly."""
    T = core.gen_path_type(1, 255)
    full = O.enumerate_sub_ktrees(T, cap=300)
    assert len(full) == 255 * 256 // 2
    assert full.mean() == Fraction(257, 3)
    assert full.poly().coeffs[-1] == 1 and count_and_total(full.poly())[0] == len(full)
    mid = full.restricted((127, 128))
    assert len(mid) == 127 * 128 and mid.mean() == Fraction(257, 2)


@pytest.fixture
def empty_slot(monkeypatch):
    """Start from an empty one-host slot, so test order cannot matter."""
    monkeypatch.setattr(O, "_last", None)


@pytest.fixture
def grown(empty_slot, monkeypatch):
    """Hosts handed to `_grow_all`, in call order."""
    hosts = []
    grow = O._grow_all

    def counting(T):
        hosts.append(T)
        return grow(T)

    monkeypatch.setattr(O, "_grow_all", counting)
    return hosts


def test_one_host_is_grown_once_across_the_entry_points(grown):
    T = four_vertex()
    full = O.enumerate_sub_ktrees(T)
    assert O.enumerate_sub_ktrees(T) is full
    assert O.local_members(T, (1, 2)).poly() == IntPolynomial((0, 0, 1, 1, 1))
    assert O.local_members(T, (1, 2)).mean() == 3
    columns = full._columns
    means = O.oracle_all_clique_means(T)
    assert O.oracle_all_clique_means(T) == means
    assert full._columns is columns  # the all-clique means read the slot's columns
    assert len(grown) == 1 and grown[0] is T


def test_an_equal_host_parsed_again_is_grown_again(grown):
    edges = list(four_vertex().edges())
    T1, T2 = core.recognize_ktree(edges, 2), core.recognize_ktree(edges, 2)
    assert T1 == T2 and T1 is not T2
    first, second = O.enumerate_sub_ktrees(T1), O.enumerate_sub_ktrees(T2)
    assert first == second and first is not second and second.host is T2
    assert [T is T1 for T in grown] == [True, False] and grown[1] is T2


def test_the_slot_frees_the_previous_host_before_growing_the_next(grown, monkeypatch):
    A, B = triangle(), four_vertex()
    held = weakref.ref(O.enumerate_sub_ktrees(A))
    counting = O._grow_all

    def grow(T):
        gc.collect()
        assert held() is None, "the previous host's members outlived the next grow"
        return counting(T)

    monkeypatch.setattr(O, "_grow_all", grow)
    O.enumerate_sub_ktrees(B)
    gc.collect()
    assert held() is None
    assert [T is A for T in grown] == [True, False] and grown[1] is B


def test_cap_and_required_are_checked_on_every_call(grown):
    T = core.gen_path_type(1, 10)
    O.enumerate_sub_ktrees(T)
    with pytest.raises(TooLarge):
        O.enumerate_sub_ktrees(T, cap=9)
    with pytest.raises(TooLarge):
        O.oracle_all_clique_means(T, cap=9)
    with pytest.raises(TooLarge):
        O.local_members(T, (1, 2), cap=9)
    for host in (T, four_vertex()):  # in the slot, and a host never grown
        for bad in ((0,), (host.n + 1,)):
            with pytest.raises(NotASubKTree):
                O.local_members(host, bad)
    assert len(grown) == 1 and O._last.host is T  # no refused call touched the slot


def test_remembered_sets_equal_a_fresh_growth(empty_slot):
    for T in _growth_hosts():
        first = O.enumerate_sub_ktrees(T)
        O.oracle_all_clique_means(T)
        again = O.enumerate_sub_ktrees(T)
        fresh = O.SubKTreeSet(T, O._grow_all(T))
        assert again is first and again == fresh, (T.k, T.n)
        assert again.counts == fresh.counts and again._columns == fresh._columns
        assert again._levels == fresh._levels
