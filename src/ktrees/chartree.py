"""Characteristic 1-trees: elimination sequences, the clique-to-tree
reduction of local mean orders, the adjacent-clique relation, and the
climb from major cliques to better ones.

For a k-tree T and a k-clique C, the characteristic tree T'_C lives on
{C-node} union (V(T) \\ V(C)).  It is built from `construction_from`, the
order of T starting at C that the k-leaf peeler of `core` gives: a vertex's
parent is the clique node when its attachment lies inside C, otherwise the
latest-added vertex of the attachment outside C (`isomorphism` uses the same
rule).  The C-to-v path then spells the unique elimination sequence of v,
which `elimination_sequence` also derives independently (greedy peel) and
checks against its defining conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    _bit,
    _mask_vertices,
    _peel_k_leaves,
    adjacent_cliques,
    clique_degree,
    k_cliques,
    require_k_clique,
)
from .errors import (
    KTreeError,
    NotAClique,
    NotAdjacentCliques,
    NotKTree,
    VertexInClique,
)
from .kelmans_ops import partial_kelmans
from .polynomials import subtree_poly_at_vertex


@dataclass(frozen=True)
class CliqueNode:
    """Synthetic node standing for the whole clique C inside T'_C."""

    vertices: tuple

    def __str__(self):
        return "C{" + ",".join(str(v) for v in self.vertices) + "}"

    def __repr__(self):
        return f"CliqueNode({self.vertices})"


@dataclass(frozen=True)
class ElimSequence:
    """The unique sequence (C, w_1..w_s, v) ending the path-type sub-k-tree
    P_T(C, v); reversed interior + target is a peeling order down to C."""

    clique: tuple
    interior: tuple
    target: int

    @property
    def labels(self):
        return self.interior + (self.target,)


@dataclass(frozen=True)
class CharTree:
    """A tree on {C-node} union (V(T) \\ V(C)) carrying all local mean-order
    information of the host at C."""

    clique_node: CliqueNode
    adj: dict
    host_k: int
    host_n: int

    @property
    def order(self):
        return len(self.adj)

    def nodes(self):
        out = sorted(n for n in self.adj if isinstance(n, int))
        return [self.clique_node] + out

    def edges(self):
        seen = set()
        out = []
        for a in self.nodes():
            for b in self.adj[a]:
                key = frozenset((a, b))
                if key not in seen:
                    seen.add(key)
                    out.append((a, b))
        return out

    def to_dot(self):
        lines = ["graph chartree {"]
        lines.append(f'  "{self.clique_node}" [shape=doublecircle];')
        for v in self.nodes()[1:]:
            lines.append(f'  "{v}";')
        for a, b in self.edges():
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- construction orders -------------------------------------------------------


def construction_from(T, C):
    """A construction order of T starting at C: list of (vertex, attachment).

    Obtained by peeling the lowest-id k-leaf outside C until C remains,
    then reversing.  Attachments are the peel-time neighborhoods.
    """
    C = require_k_clique(T, C)
    peeled = _peel_k_leaves(T.k, list(T.masks), T.clique_mask(C))
    if len(peeled) != T.n - T.k:
        raise NotKTree("no k-leaf outside the clique; host is not a k-tree")
    return peeled[::-1]


def _construction_with_parents(T, C):
    """Yield (vertex, attachment, parent) along `construction_from(T, C)`.

    The parent is the latest-added vertex of the attachment outside C, or
    None (the clique node) when the attachment lies inside C.
    """
    steps = construction_from(T, C)
    cset = set(C)
    pos = {}
    for i, (v, attach) in enumerate(steps):
        pos[v] = i
        parent = None
        for u in attach:
            if u not in cset and (parent is None or pos[u] > pos[parent]):
                parent = u
        yield v, attach, parent


def char_parents(T, C):
    """Parent map of T'_C: vertex -> parent vertex, or None for the C-node.

    The parent is the latest-added vertex of the attachment outside C; the
    clique node when the attachment is contained in C.
    """
    C = require_k_clique(T, C)
    return {v: p for v, _, p in _construction_with_parents(T, C)}


def characteristic_tree(T, C):
    """The characteristic 1-tree T'_C; K_1 for the trivial host."""
    C = require_k_clique(T, C)
    node = CliqueNode(C)
    adj = {node: set()}
    for v, p in char_parents(T, C).items():
        q = node if p is None else p
        adj.setdefault(v, set()).add(q)
        adj.setdefault(q, set()).add(v)
    return CharTree(node, {a: frozenset(b) for a, b in adj.items()}, T.k, T.n)


# -- elimination sequences -----------------------------------------------------


def elimination_sequence(T, C, v):
    """Greedy-peel construction of the elimination sequence of v from C,
    verified against its two defining conditions before returning."""
    C = require_k_clique(T, C)
    if v in C:
        raise VertexInClique(f"target {v} lies inside {C}")
    if not 1 <= v <= T.n:
        raise NotAClique(f"vertex {v} outside host")
    cmask = T.clique_mask(C)
    work = list(T.masks)
    # peel k-leaves that are neither v nor in C, lowest id first
    peeled = _peel_k_leaves(T.k, work, cmask | _bit(v))
    alive = (1 << T.n) - 1 - sum(_bit(x) for x, _ in peeled)
    # read the peeling order of what is left: v first, then forced steps
    seq = []
    while alive != cmask:
        candidates = [
            x
            for x in _mask_vertices(alive & ~cmask)
            if work[x].bit_count() == T.k
        ]
        if not seq:
            if candidates != [v]:
                raise NotKTree(f"{v} is not the unique removable k-leaf")
            x = v
        elif len(candidates) == 1:
            x = candidates[0]
        else:
            raise NotKTree("peeling order is not forced; reduction failed")
        for u in _mask_vertices(work[x]):
            work[u] &= ~_bit(x)
        work[x] = 0
        alive &= ~_bit(x)
        seq.append(x)
    seq.reverse()
    out = ElimSequence(C, tuple(seq[:-1]), v)
    _verify_elimination(T, out)
    return out


def _verify_elimination(T, seq):
    """Check both defining conditions of an elimination sequence."""
    C, labels = seq.clique, seq.labels
    vs = set(C) | set(labels)
    sub = {x: set(T.neighbors(x)) & vs for x in vs}
    # reversed labels must peel as simplicial k-leaves down to C
    remaining = dict(sub)
    for x in reversed(labels):
        nb = remaining[x]
        if len(nb) != T.k or not T.is_clique(tuple(nb)):
            raise NotKTree(f"{x} not a simplicial k-leaf while peeling {labels}")
        for y in nb:
            remaining[y] = remaining[y] - {x}
        del remaining[x]
    if set(remaining) != set(C):
        raise NotKTree("peeling did not end at the clique")
    # the induced subgraph must be path-type with C simplicial, v a k-leaf
    order = len(vs)
    if order >= T.k + 2:
        leaves = [x for x in vs if len(sub[x]) == T.k]
        if len(leaves) != 2:
            raise NotKTree(f"induced subgraph has {len(leaves)} k-leaves")
        if seq.target not in leaves or not any(x in C for x in leaves):
            raise NotKTree("induced subgraph misplaces its k-leaves")


# -- the reduction -------------------------------------------------------------


def local_poly_clique(T, C):
    """phi_{T,C}(x) = x^(k-1) * phi_{T'_C, C-node}(x)."""
    tc = characteristic_tree(T, C)
    phi = subtree_poly_at_vertex(tc.adj, tc.clique_node)
    return phi.shift(T.k - 1)


def local_mean_order_clique(T, C):
    """Average order of the sub-k-trees containing C, via T'_C."""
    tc = characteristic_tree(T, C)
    phi = subtree_poly_at_vertex(tc.adj, tc.clique_node)
    return Fraction(phi.derivative()(1), phi(1)) + (T.k - 1)


def all_clique_means(T):
    """Exact mu(T; C) for every k-clique C, via characteristic trees."""
    return {C: local_mean_order_clique(T, C) for C in k_cliques(T)}


def argmax_cliques(T, means=None):
    """Cliques attaining the maximum local mean order, with the value."""
    if means is None:
        means = all_clique_means(T)
    best = max(means.values())
    return sorted(C for C, m in means.items() if m == best), best


# -- adjacent cliques ----------------------------------------------------------


@dataclass(frozen=True)
class AdjacencyContext:
    """Vertex bookkeeping around two adjacent k-cliques C1, C2.

    q is the (k+1)-clique they span; solo1/solo2 the vertices private to
    each; nbrs1/nbrs2 the vertices adjacent to all of C1 (resp. C2); u_q
    everyone outside q adjacent to all of some k-clique of q; far the part
    of u_q adjacent to neither C1 nor C2 entirely.
    """

    clique1: tuple
    clique2: tuple
    q: tuple
    solo1: int
    solo2: int
    nbrs1: frozenset
    nbrs2: frozenset
    u_q: frozenset
    far: frozenset


def common_neighbors(T, C):
    """Vertices outside C adjacent to every vertex of C."""
    m = (1 << T.n) - 1
    for v in C:
        m &= T.masks[v]
    return frozenset(_mask_vertices(m))


def adjacency_context(T, C1, C2):
    C1 = require_k_clique(T, C1)
    C2 = require_k_clique(T, C2)
    shared = set(C1) & set(C2)
    union = tuple(sorted(set(C1) | set(C2)))
    if len(shared) != T.k - 1 or len(union) != T.k + 1 or not T.is_clique(union):
        raise NotAdjacentCliques(f"{C1} and {C2} do not span a (k+1)-clique")
    (solo1,) = set(C1) - shared
    (solo2,) = set(C2) - shared
    qmask = T.clique_mask(union)
    u_q = set()
    for v in T.vertices:
        if not qmask & _bit(v) and (T.masks[v] & qmask).bit_count() >= T.k:
            u_q.add(v)
    nbrs1 = common_neighbors(T, C1)
    nbrs2 = common_neighbors(T, C2)
    far = frozenset(u_q - nbrs1 - nbrs2)
    return AdjacencyContext(
        C1, C2, union, solo1, solo2, nbrs1, nbrs2, frozenset(u_q), far
    )


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of checking that T'_C2 arises from T'_C1 by the partial
    move of `moved` from solo2 to the C1-node."""

    clique1: tuple
    clique2: tuple
    moved: tuple
    isomorphic: bool
    detail: str = ""


def verify_adjacent_reduction(T, C1, C2, cache=None):
    """Build both characteristic trees and check the partial-move relation.

    `cache` maps clique -> CharTree; pass a per-host dict when checking
    many pairs of the same host.
    """
    ctx = adjacency_context(T, C1, C2)
    if cache is None:
        cache = {}
    for C in (ctx.clique1, ctx.clique2):
        if C not in cache:
            cache[C] = characteristic_tree(T, C)
    t1 = cache[ctx.clique1]
    t2 = cache[ctx.clique2]
    moved = tuple(sorted(ctx.far))
    try:
        shifted = partial_kelmans(t1.adj, ctx.solo2, t1.clique_node, moved)
    except KTreeError as exc:  # a failed precondition refutes the relation
        return ReductionReport(ctx.clique1, ctx.clique2, moved, False, str(exc))

    relabel = {t1.clique_node: ctx.solo1, ctx.solo2: t2.clique_node}

    def f(x):
        return relabel.get(x, x)

    image = {frozenset((f(a), f(b))) for a in shifted for b in shifted[a]}
    target = {frozenset((a, b)) for a in t2.adj for b in t2.adj[a]}
    ok = image == target
    return ReductionReport(
        ctx.clique1,
        ctx.clique2,
        moved,
        ok,
        "" if ok else "edge sets differ under the canonical relabeling",
    )


# -- climbing away from major cliques ------------------------------------------


def climb_to_nonmajor(T, C_start):
    """Follow strictly improving adjacent cliques until a non-major one.

    Picks the adjacent clique of maximum mean (ties broken by label) at
    each step; the trace of (clique, mean) pairs is strictly increasing.
    """
    C = require_k_clique(T, C_start)
    means = all_clique_means(T)
    trace = [(C, means[C])]
    while clique_degree(T, C).degree >= 3:
        best = None
        for C2 in adjacent_cliques(T, C):
            if means[C2] > means[C]:
                if best is None or (means[C2], C2) > (means[best], best):
                    best = C2
        if best is None:
            raise NotKTree(
                f"no improving neighbor at major clique {C}; claim violated"
            )
        C = best
        trace.append((C, means[C]))
    return C, tuple(trace)
