"""Independent ground truth by exhaustive sub-k-tree enumeration.

Sub-k-trees are identified with their vertex sets (induced semantics).
Enumeration grows from every k-clique by attaching one vertex at a time to
a k-clique of the current set, deduplicating by vertex bitmask, so only
genuine sub-k-tree states are ever visited.

Each state S on the stack carries its frontier: the vertices outside S with
a neighbour in S.  Adding v makes the child's frontier
`(front | masks[v]) & ~(S | v)`, so no state rescans its own vertices.  A
frontier vertex v attaches when `masks[v] & S` is a k-clique of the host.
That test reads only the adjacency masks, never the construction records,
and its verdict is kept per host by intersection mask, since many states
share one attachment set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import _mask_vertices, k_cliques, recognize_ktree
from .errors import KTreeError, NotASubKTree, TooLarge
from .polynomials import IntPolynomial

DEFAULT_CAP = 16


@dataclass(frozen=True)
class SubKTreeSet:
    """All sub-k-trees of a host, as bitmasks, optionally filtered."""

    host: object
    masks: tuple

    def vertex_sets(self):
        return [tuple(_mask_vertices(m)) for m in self.masks]

    def __len__(self):
        return len(self.masks)

    def restricted(self, required):
        """Members containing every vertex of `required`."""
        n = self.host.n
        req = 0
        for v in required:
            if not 1 <= v <= n:
                raise NotASubKTree(f"vertex {v} is not a vertex 1..{n} of the host")
            req |= 1 << (v - 1)
        return SubKTreeSet(self.host, tuple([m for m in self.masks if m & req == req]))

    def poly(self):
        """Generating polynomial: coefficient of x^i counts members of order i."""
        hist = Counter(map(int.bit_count, self.masks))
        if not hist:
            return IntPolynomial()
        out = [0] * (max(hist) + 1)
        for order, cnt in hist.items():
            out[order] = cnt
        return IntPolynomial(out)

    def mean(self):
        if not self.masks:
            raise KTreeError("the mean order of an empty set of sub-k-trees")
        return Fraction(sum(map(int.bit_count, self.masks)), len(self.masks))


def _grow_all(T):
    """Bitmasks of every sub-k-tree of T, via attachment growth."""
    k = T.k
    masks = T.masks
    attaches = {}  # intersection mask -> is it a k-clique of T
    seen = set()
    stack = []  # flat (S, frontier of S) pairs
    for C in T._k_cliques:
        S = T.clique_mask(C)
        if S not in seen:
            seen.add(S)
            front = 0
            for v in C:
                front |= masks[v]
            stack.append(S)
            stack.append(front & ~S)
    while stack:
        front = stack.pop()
        S = stack.pop()
        cand = front
        while cand:
            low = cand & -cand
            cand ^= low
            S2 = S | low
            if S2 in seen:
                continue
            v = low.bit_length()
            inter = masks[v] & S
            ok = attaches.get(inter)
            if ok is None:
                ok = inter.bit_count() == k
                rest = inter
                while ok and rest:
                    b = rest & -rest
                    ok = masks[b.bit_length()] & inter == inter ^ b
                    rest ^= b
                attaches[inter] = ok
            if ok:
                seen.add(S2)
                stack.append(S2)
                stack.append((front | masks[v]) & ~S2)
    return tuple(sorted(seen))


def enumerate_sub_ktrees(T, required=(), cap=DEFAULT_CAP):
    """Every sub-k-tree vertex set, optionally filtered to those >= required."""
    if T.n > cap:
        raise TooLarge(f"order {T.n} exceeds enumeration cap {cap}")
    full = SubKTreeSet(T, _grow_all(T))
    if required:
        return full.restricted(required)
    return full


def is_sub_ktree(T, S):
    """Does the vertex set S induce a sub-k-tree of T?"""
    S = sorted(set(S))
    if not S or any(not 1 <= v <= T.n for v in S):
        return False
    if len(S) < T.k:
        return False
    idx = {v: i + 1 for i, v in enumerate(S)}
    edges = [(idx[u], idx[v]) for u, v in T.edges() if u in idx and v in idx]
    try:
        recognize_ktree(edges, T.k, n=len(S))
    except KTreeError:
        return False
    return True


def oracle_global_poly(T, cap=DEFAULT_CAP):
    return enumerate_sub_ktrees(T, cap=cap).poly()


def oracle_global_mean(T, cap=DEFAULT_CAP):
    return enumerate_sub_ktrees(T, cap=cap).mean()


def _local_members(T, S, cap):
    """Members containing S, after checking that S is itself a sub-k-tree."""
    if not is_sub_ktree(T, S):
        raise NotASubKTree(f"{tuple(S)} does not induce a sub-k-tree")
    return enumerate_sub_ktrees(T, required=S, cap=cap)


def oracle_local_poly(T, S, cap=DEFAULT_CAP):
    """Generating polynomial of sub-k-trees containing the sub-k-tree S."""
    return _local_members(T, S, cap).poly()


def oracle_local_mean(T, S, cap=DEFAULT_CAP):
    return _local_members(T, S, cap).mean()


def oracle_all_clique_means(T, cap=DEFAULT_CAP):
    """Exact map clique -> mean order over all sub-k-trees containing it."""
    masks = enumerate_sub_ktrees(T, cap=cap).masks
    out = {}
    for C in k_cliques(T):
        req = T.clique_mask(C)
        kept = [m for m in masks if m & req == req]
        out[C] = Fraction(sum(map(int.bit_count, kept)), len(kept))
    return out


def oracle_argmax_cliques(T, cap=DEFAULT_CAP):
    """Cliques attaining the maximum local mean order, with the value."""
    means = oracle_all_clique_means(T, cap=cap)
    best = max(means.values())
    return sorted(C for C, m in means.items() if m == best), best


__all__ = [
    "DEFAULT_CAP",
    "SubKTreeSet",
    "enumerate_sub_ktrees",
    "is_sub_ktree",
    "oracle_all_clique_means",
    "oracle_argmax_cliques",
    "oracle_global_mean",
    "oracle_global_poly",
    "oracle_local_mean",
    "oracle_local_poly",
]
