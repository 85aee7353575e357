"""Independent ground truth by exhaustive sub-k-tree enumeration.

Sub-k-trees are identified with their vertex sets (induced semantics).
Enumeration grows from every k-clique by attaching one vertex at a time to
a k-clique of the current set, deduplicating by vertex bitmask, so only
genuine sub-k-tree states are ever visited.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import _bit, _mask_vertices, k_cliques, recognize_ktree
from .errors import KTreeError, NotASubKTree, TooLarge
from .polynomials import IntPolynomial

DEFAULT_CAP = 16


@dataclass(frozen=True)
class SubKTreeSet:
    """All sub-k-trees of a host, as bitmasks, optionally filtered."""

    host: object
    masks: tuple
    required: tuple = ()

    def vertex_sets(self):
        return [tuple(_mask_vertices(m)) for m in self.masks]

    def __len__(self):
        return len(self.masks)

    def restricted(self, required):
        """Members containing every vertex of `required`."""
        req = 0
        for v in required:
            req |= _bit(v)
        kept = tuple(m for m in self.masks if m & req == req)
        return SubKTreeSet(self.host, kept, tuple(sorted(required)))

    def poly(self):
        """Generating polynomial: coefficient of x^i counts members of order i."""
        hist = Counter(m.bit_count() for m in self.masks)
        if not hist:
            return IntPolynomial()
        out = [0] * (max(hist) + 1)
        for order, cnt in hist.items():
            out[order] = cnt
        return IntPolynomial(out)

    def mean(self):
        total = sum(m.bit_count() for m in self.masks)
        return Fraction(total, len(self.masks))


def _grow_all(T):
    """Bitmasks of every sub-k-tree of T, via attachment growth."""
    k = T.k
    masks = T.masks
    seen = set()
    stack = []
    for C in T._k_cliques:
        m = T.clique_mask(C)
        if m not in seen:
            seen.add(m)
            stack.append(m)
    while stack:
        S = stack.pop()
        cand = 0
        rest = S
        while rest:
            low = rest & -rest
            cand |= masks[low.bit_length()]
            rest ^= low
        cand &= ~S
        while cand:
            low = cand & -cand
            v = low.bit_length()
            cand ^= low
            inter = masks[v] & S
            if inter.bit_count() == k:
                ok = True
                for u in _mask_vertices(inter):
                    if masks[u] & inter != inter & ~_bit(u):
                        ok = False
                        break
                if ok:
                    S2 = S | low
                    if S2 not in seen:
                        seen.add(S2)
                        stack.append(S2)
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


def oracle_local_poly(T, S, cap=DEFAULT_CAP):
    """Generating polynomial of sub-k-trees containing the sub-k-tree S."""
    if not is_sub_ktree(T, S):
        raise NotASubKTree(f"{tuple(S)} does not induce a sub-k-tree")
    return enumerate_sub_ktrees(T, cap=cap).restricted(S).poly()


def oracle_local_mean(T, S, cap=DEFAULT_CAP):
    if not is_sub_ktree(T, S):
        raise NotASubKTree(f"{tuple(S)} does not induce a sub-k-tree")
    return enumerate_sub_ktrees(T, cap=cap).restricted(S).mean()


def oracle_all_clique_means(T, cap=DEFAULT_CAP):
    """Exact map clique -> mean order over all sub-k-trees containing it."""
    full = enumerate_sub_ktrees(T, cap=cap)
    out = {}
    for C in k_cliques(T):
        out[C] = full.restricted(C).mean()
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
