"""Canonical codes and isomorphism-reduced enumeration of k-trees.

A rooted code fixes a k-clique C and an ordering of its vertices, rebuilds
the host from C, and serializes the rooted characteristic-tree shape where
every vertex is labeled by (a) the ancestor offsets of its attachment
outside C and (b) the ordered positions of its attachment inside C.  Two
k-trees are isomorphic iff any one rooted code of the first appears among
all rooted codes of the second; the canonical code is the minimum over all
roots and orderings.  A plain shape code of the clique incidence tree is
NOT enough: non-isomorphic k-trees can share it, which is why the labels
carry the attachment data.

Class enumeration keeps one set of rooted codes per level: a candidate is
new iff its first rooted code is missing, and then all of its codes join.
"""

from __future__ import annotations

from itertools import permutations

from .chartree import _construction_with_parents
from .core import KTree, build_from_construction, k_cliques, kp1_cliques
from .errors import SizeTooSmall, TooLarge

ISO_ENUM_GUARD = 13  # max n - k for class enumeration


def _rooted_structure(T, C):
    """Children lists and per-vertex attachment labels for root clique C."""
    cset = set(C)
    depth = {None: 0}
    children = {None: []}
    info = {}
    for v, attach, parent in _construction_with_parents(T, C):
        d = depth[parent] + 1
        depth[v] = d
        offsets = tuple(sorted(d - depth[u] for u in attach if u not in cset))
        cmem = tuple(u for u in attach if u in cset)
        info[v] = (offsets, cmem)
        children[v] = []
        children[parent].append(v)
    return children, info


def _code_with_order(children, info, cindex):
    def code_of(v):
        if v is None:
            label = b"R"
        else:
            offs, cmem = info[v]
            label = (
                bytes([len(offs)])
                + bytes(offs)
                + bytes([len(cmem)])
                + bytes(sorted(cindex[u] for u in cmem))
            )
        subs = sorted(code_of(w) for w in children[v])
        return b"(" + label + b"".join(subs) + b")"

    return code_of(None)


def rooted_code(T, C, order=None):
    """Code of T rooted at clique C with the given vertex ordering of C."""
    C = tuple(sorted(C))
    if order is None:
        order = C
    children, info = _rooted_structure(T, C)
    cindex = {v: i + 1 for i, v in enumerate(order)}
    return _code_with_order(children, info, cindex)


def rooted_code_set(T):
    """Every rooted code of T, over all root cliques and orderings."""
    out = set()
    for C in k_cliques(T):
        children, info = _rooted_structure(T, C)
        for order in permutations(C):
            cindex = {v: i + 1 for i, v in enumerate(order)}
            out.add(_code_with_order(children, info, cindex))
    return frozenset(out)


def canonical_code(T):
    """Equal for two k-trees iff they are isomorphic."""
    header = bytes([T.k]) + T.n.to_bytes(2, "big")
    if T.n == T.k:
        return header
    return header + min(rooted_code_set(T))


def _cheap_invariant(T):
    degs = tuple(sorted(T.degree(v) for v in T.vertices))
    cm = [T.clique_mask(q) for q in kp1_cliques(T)]
    cliq = []
    for C in k_cliques(T):
        m = T.clique_mask(C)
        cliq.append(sum(1 for q in cm if q & m == m))
    return degs, tuple(sorted(cliq))


def isomorphic(T1, T2):
    """Exact k-tree isomorphism test."""
    if T1.k != T2.k or T1.n != T2.n:
        return False
    if _cheap_invariant(T1) != _cheap_invariant(T2):
        return False
    if T1.n == T1.k:
        return True
    probe = rooted_code(T1, k_cliques(T1)[0])
    return probe in rooted_code_set(T2)


def _extend(T, C):
    """T plus one new vertex attached at clique C."""
    adds = list(T.build) + [(T.n + 1, C)]
    return KTree.from_parts(T.k, T.base, adds, validate=False)


def enumerate_ktrees_up_to_iso(k, n):
    """One representative per isomorphism class of k-trees of order n.

    Builds levels k..n; at each level every representative is extended at
    every clique and duplicates are dropped by rooted-code membership.
    Every class at level m+1 has a parent class at level m (delete any
    k-leaf), so extending representatives alone reaches every class.
    """
    if n < k:
        raise SizeTooSmall(f"need n >= k, got n={n}")
    if n - k > ISO_ENUM_GUARD:
        raise TooLarge(f"class enumeration capped at n - k <= {ISO_ENUM_GUARD}")
    level = [build_from_construction(k, [])]
    for _ in range(k + 1, n + 1):
        seen = set()  # every rooted code of every class kept at this level
        nxt = []
        for T in level:
            for C in k_cliques(T):
                cand = _extend(T, C)
                if rooted_code(cand, k_cliques(cand)[0]) in seen:
                    continue
                seen |= rooted_code_set(cand)
                nxt.append(cand)
        level = nxt
    return level


def enumerate_trees_up_to_iso(n):
    """One representative per isomorphism class of trees of order n."""
    return enumerate_ktrees_up_to_iso(1, n)
