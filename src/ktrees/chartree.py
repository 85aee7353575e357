"""Characteristic 1-trees: elimination sequences, the clique-to-tree
reduction of local mean orders, the adjacent-clique relation, and the
adjacent cliques with a strictly better mean.

For a k-tree T and a k-clique C, the characteristic tree T'_C lives on
{C-node} union (V(T) \\ V(C)).  It is read off one walk from C over the
host's clique-incidence index (`core.CliqueIncidence`, built once per
host): entering a (k+1)-clique through one of its faces adds the vertex
outside that face, and its parent is the vertex that made the face, or the
C-node when the face is C.  That is the latest-added vertex of its
attachment outside C in any construction order from C (`isomorphism`
reads the same walk).  The walk climbs from C to the base clique and
copies the rest as whole runs of the index's preorder layout, so T'_C
comes out parents first with no per-vertex loop beyond the chain.  The
C-to-v path then spells the unique elimination sequence of v, which
`elimination_sequence` derives independently (greedy peel) and checks
against its defining conditions.

A `CharTree` stores T'_C as the data the folds read: `labels`, the C-node
followed by the vertices in walk order, and `up`, the position of each
node's parent (-1 at the C-node).  The order is parents-first, so the
reduction mu(T;C) = mu(T'_C;C) + k - 1 folds the integer pair
(phi(1), phi'(1)) of phi_{T'_C,C} straight over `up`
(`local_mean_order_clique`), and `local_poly_clique` folds the
polynomial over the same array as one packed integer; neither builds an
adjacency.  The adjacent-clique check takes its moved vertices from the
common-neighbour masks of `core` and compares the parent maps (`parent`)
of the two trees; the adjacency mapping `adj`, built once on first read,
serves only the edge readers (`nodes`, `edges`, `to_dot`).  Clique
degrees and adjacent cliques also come from `core`, read off one
common-neighbour mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    _bit,
    _common_mask,
    _mask_vertices,
    _peel_k_leaves,
    adjacent_cliques,
    k_cliques,
    require_k_clique,
)
from .errors import NotAClique, NotAdjacentCliques, NotKTree, VertexInClique
from .polynomials import _phi_pair, _phi_poly


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
    information of the host at C.

    `labels[0]` is the C-node and `labels[1:]` the vertices in walk order;
    `up[i]` is the position of the parent of `labels[i]`, with
    `up[0] = -1` and `up[i] < i`.
    """

    clique_node: CliqueNode
    labels: tuple
    up: tuple

    @property
    def order(self):
        return len(self.labels)

    @cached_property
    def parent(self):
        """{node: its parent's label}, every node but the C-node."""
        labels = self.labels
        return {v: labels[i] for v, i in zip(labels[1:], self.up[1:])}

    @cached_property
    def adj(self):
        """{node: frozenset(neighbours)}, for the readers of edges."""
        adj = {self.clique_node: set()}
        for v, i in zip(self.labels[1:], self.up[1:]):
            q = self.labels[i]
            adj.setdefault(v, set()).add(q)
            adj.setdefault(q, set()).add(v)
        return {a: frozenset(b) for a, b in adj.items()}

    def nodes(self):
        return [self.clique_node] + sorted(self.labels[1:])

    def edges(self):
        """Every edge once, as (a, b) with a before b in `nodes()`: the C-node
        first, then the vertices ascending, so the order depends on the tree
        alone."""
        nodes = self.nodes()
        rank = {a: i for i, a in enumerate(nodes)}
        return [
            (a, b)
            for a in nodes
            for b in sorted(self.adj[a], key=rank.__getitem__)
            if rank[b] > rank[a]
        ]

    def to_dot(self):
        lines = ["graph chartree {"]
        lines.append(f'  "{self.clique_node}" [shape=doublecircle];')
        for v in self.nodes()[1:]:
            lines.append(f'  "{v}";')
        for a, b in self.edges():
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- the walk over the clique-incidence index ----------------------------------


def _walk(T, C):
    """Walk the clique-incidence tree of T from the k-clique C, which the
    caller has validated.

    Returns (vertices, up, via): the vertices outside C in walk order (the
    chain, then the copied runs), parents first; the parent position of
    every node of T'_C (the C-node at position 0, `up[0] = -1`); and, per
    vertex, the k-clique node it joins.  Entering a (k+1)-clique Q through its face F adds the one
    vertex x of Q outside F, and every other face of Q contains x.  So a
    vertex's parent is the vertex added on entering the (k+1)-clique that
    made its face, or the C-node when that face is C.

    The (k+1)-cliques on the index path from C up to the base clique are
    entered through a face they made, so each adds the attachment vertex
    missing from that face, and they form a chain below the C-node.  Every
    other step s is entered through attach_s and adds v_s, under the same
    parent as in the index's preorder layout (`CliqueIncidence.layout`),
    except that a step whose attachment is C or on the chain hangs from the
    C-node or that chain vertex.  Those steps are copied as whole runs of
    the layout, after the chain: the run below C, and per chain step the
    runs below its other faces and beside it at its attachment.
    """
    inc = T._incidence
    k, build, attach_node = inc.k, inc.build, inc.attach_node
    lay = inc.layout
    m = len(build)
    f = inc.node(C)
    verts = []
    via = []
    a, b = inc.run(f)
    runs = [(a, b, 0)] if a < b else []  # (a, b, r): a..b-1 hang from r
    i = 0
    while f:
        s, t = divmod(f - 1, k)
        i += 1
        verts.append(build[s][1][t])
        via.append(f)
        e = 3 * m + (k + 1) * s  # s's bounds: its faces' run starts, its end
        a, b = lay[e], lay[e + k]
        f = attach_node[s]
        if f:
            # inc.run(f), inlined: a call per chain step slows small walks
            j = 3 * m + f - 1 + (f - 1) // k
            c, g = lay[j], lay[j + 1]
        else:
            c, g = 0, m
        # below s's other faces, and beside s at attach_s; empty runs are
        # dropped, so a deep chain holds no more runs than vertices
        for x, y in ((a, lay[e + t]), (lay[e + t + 1], b), (c, a - 1), (b, g)):
            if x < y:
                runs.append((x, y, i))
    up = [-1, *range(i)]
    for a, b, r in runs:
        d = len(up) - a
        verts += lay[a:b]
        up += [q + d if q >= a else r for q in lay[m + a : m + b]]
        via += lay[2 * m + a : 2 * m + b]
    return verts, up, via


def construction_from(T, C):
    """A construction order of T starting at C: list of (vertex, attachment).

    The vertices come in the walk order of `characteristic_tree`, each with
    the sorted k-clique it joins.
    """
    C = require_k_clique(T, C)
    verts, _, via = _walk(T, C)
    clique = T._incidence.clique
    return [(v, clique(j)) for v, j in zip(verts, via)]


def characteristic_tree(T, C):
    """The characteristic 1-tree T'_C; K_1 for the trivial host."""
    C = require_k_clique(T, C)
    verts, up, _ = _walk(T, C)
    node = CliqueNode(C)
    return CharTree(node, (node, *verts), tuple(up))


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
    return _phi_poly(characteristic_tree(T, C).up).shift(T.k - 1)


def local_mean_order_clique(T, C):
    """Average order of the sub-k-trees containing C: mu(T'_C; C) + k - 1."""
    count, total = _phi_pair(characteristic_tree(T, C).up)
    return Fraction(total + (T.k - 1) * count, count)


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

    C1 and C2 are adjacent when C2 = C1 - solo1 + solo2 for a common
    neighbour solo2 of C1; they span q = C1 + solo2.  The moved vertices are
    those outside q joined to a face of q other than C1 and C2 (in a k-tree
    a vertex outside q is joined to at most one face); they come from the
    common-neighbour masks, apart from both trees.  `cache` maps
    clique -> CharTree; pass a per-host dict when checking many pairs of
    the same host.
    """
    C1 = require_k_clique(T, C1)
    C2 = require_k_clique(T, C2)
    m1, m2 = T.clique_mask(C1), T.clique_mask(C2)
    x2 = m2 & ~m1
    if x2.bit_count() != 1 or not x2 & _common_mask(T, C1):
        raise NotAdjacentCliques(f"{C1} and {C2} do not span a (k+1)-clique")
    solo1, solo2 = (m1 & ~m2).bit_length(), x2.bit_length()
    q = C1 + (solo2,)
    far = 0
    for x in C1:
        if x != solo1:
            far |= _common_mask(T, [v for v in q if v != x])
    moved = tuple(_mask_vertices(far & ~(m1 | x2)))
    if cache is None:
        cache = {}
    for C in (C1, C2):
        if C not in cache:
            cache[C] = characteristic_tree(T, C)
    detail = _move_detail(cache[C1], cache[C2], solo1, solo2, moved)
    return ReductionReport(C1, C2, moved, not detail, detail)


def _move_detail(t1, t2, solo1, solo2, moved):
    """Why T'_C2 (t2) is not T'_C1 (t1) with `moved` moved from solo2 to
    the C1-node, or "" if it is.  C1 - C2 = {solo1}, C2 - C1 = {solo2}.

    The move needs every moved vertex in N2 = N(solo2) minus the closed
    neighbourhood of the C1-node.  solo2 joins C1, so it hangs from the
    C1-node, and N2 is the set of its children.  Both the precondition and
    the moved tree are read off the parent map of t1.
    """
    root, parent = t1.clique_node, t1.parent
    if any(parent.get(w) != solo2 for w in moved):
        return f"moved set {sorted(moved)} not within N2"
    shifted = {**parent, **dict.fromkeys(moved, root)}
    # t2 on the nodes of t1 under the canonical relabeling; both trees have
    # n - k edges, so an image holding each parent edge of t2 equals t2
    back = {solo1: root, t2.clique_node: solo2}
    nodes = [back.get(v, v) for v in t2.labels]
    if all(
        shifted.get(v) == a or shifted.get(a) == v
        for v, a in zip(nodes[1:], [nodes[p] for p in t2.up[1:]])
    ):
        return ""
    return "edge sets differ under the canonical relabeling"


# -- strictly better neighbours ------------------------------------------------


def better_neighbors(T, C, means):
    """The adjacent cliques of C whose mean in `means` exceeds C's, sorted."""
    return [D for D in adjacent_cliques(T, C) if means[D] > means[C]]
