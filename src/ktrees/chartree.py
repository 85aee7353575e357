"""Characteristic 1-trees: elimination sequences, the clique-to-tree
reduction of local mean orders and the adjacent-clique relation.

For a k-tree T and a k-clique C, the characteristic tree T'_C lives on
{C-node} union (V(T) \\ V(C)).  It is read off one walk from C over the
host's clique-incidence index (`core.CliqueIncidence`, built once per
host), from C's node as `core._clique_node` gives it: one dict lookup once
the host's clique table exists (`k_cliques(T)` has been read, as on the
all-clique path), else the mask check.  A single query never builds the
table.  Entering a (k+1)-clique through one of its faces adds the vertex
outside that face, and its parent is the vertex that made the face, or the
C-node when the face is C.  That is the latest-added vertex of its
attachment outside C in any construction order from C (`isomorphism`
reads the same walk).  The walk climbs from C to the base clique and
copies the rest as whole runs of the index's preorder layout, at most
three per chain step, so T'_C comes out parents first with no per-vertex
loop beyond the chain.  It returns the k-clique node that each chain
vertex joins; every other vertex joins its own attachment, read from the
host's build records where a reader needs it (`construction_from`,
`isomorphism`).  The C-to-v path then spells the unique elimination
sequence of v, which `elimination_sequence` derives independently (greedy
peel) and checks against its defining conditions.

A `CharTree` stores T'_C as the data the folds read: `labels`, the C-node
(0) followed by the vertices in walk order, and `up`, the position of each
node's parent (-1 at the C-node).  Walk order is parents-first and nothing
more: the edges, `str` and `to_dot` are sorted and do not depend on it.
The clique tuple only names the C-node when the tree is printed.  So
the reduction mu(T;C) = mu(T'_C;C) + k - 1 folds the integer pair
(phi(1), phi'(1)) of phi_{T'_C,C} straight over `up`
(`local_mean_order_clique`), and `local_poly_clique` folds the
polynomial over the same array as one packed integer; neither builds an
adjacency.

The adjacent-clique check takes its moved vertices from the adjacency
masks of `core`, apart from both trees, and compares two integer lists.
Its per-host `cache` is opaque: it maps each validated, sorted clique to
the clique's mask, its common-neighbour mask, T'_C as a parent array
indexed by vertex, and the children of the C-node and of each of its
children.  Each clique is walked once, with no `CharTree` built, and
validated only on its first miss.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import NamedTuple

from .core import (
    _bit,
    _clique_node,
    _common_mask,
    _mask_vertices,
    _peel_k_leaves,
    k_cliques,
    require_k_clique,
)
from .errors import NotAClique, NotAdjacentCliques, NotKTree, VertexInClique
from .polynomials import _phi_pair, _phi_poly


class ElimSequence(NamedTuple):
    """The unique sequence (C, w_1..w_s, v) ending the path-type sub-k-tree
    P_T(C, v); reversed interior + target is a peeling order down to C."""

    clique: tuple
    interior: tuple
    target: int

    @property
    def labels(self):
        return self.interior + (self.target,)


class CharTree(NamedTuple):
    """A tree on {C-node} union (V(T) \\ V(C)) carrying all local mean-order
    information of the host at C.

    The C-node is 0 and the other nodes are their vertices.  `labels[0]` is
    the C-node and `labels[1:]` the vertices in walk order; `up[i]` is the
    position of the parent of `labels[i]`, with `up[0] = -1` and
    `up[i] < i`.  `clique`, the sorted C, only names the C-node in print.
    """

    clique: tuple
    labels: tuple
    up: tuple

    @property
    def order(self):
        return len(self.labels)

    def nodes(self):
        return sorted(self.labels)

    def edges(self):
        """Every edge once, as (a, b) with a < b, ascending: the C-node's
        edges first, so the order depends on the tree alone."""
        labels = self.labels
        pairs = zip(labels[1:], map(labels.__getitem__, self.up[1:]))
        return sorted((min(e), max(e)) for e in pairs)

    def _name(self, a):
        return f"C{{{','.join(map(str, self.clique))}}}" if a == 0 else str(a)

    def __str__(self):
        C = ",".join(map(str, self.clique))
        lines = [f"characteristic tree at {{{C}}}: {self.order} nodes"]
        lines += [f"  {self._name(a)} -- {self._name(b)}" for a, b in self.edges()]
        return "\n".join(lines)

    def to_dot(self):
        lines = ["graph chartree {"]
        lines.append(f'  "{self._name(0)}" [shape=doublecircle];')
        for v in self.nodes()[1:]:
            lines.append(f'  "{v}";')
        for a, b in self.edges():
            lines.append(f'  "{self._name(a)}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- the walk over the clique-incidence index ----------------------------------


def _walk(T, f):
    """Walk the clique-incidence tree of T from k-clique node f (the
    caller has validated the clique and located its node).

    Returns (vertices, up, chain): the vertices outside C in walk order
    (the chain, then the copied runs), parents first; the parent position
    of every node of T'_C (the C-node at position 0, `up[0] = -1`); and the
    k-clique node `chain[i]` that chain vertex i (`vertices[i]`) joins.
    Every later vertex v joins its own attachment, `build[step_of[v]][1]`
    of the incidence index, so the walk keeps no node per vertex.

    Entering a (k+1)-clique Q through its face F adds the one vertex x of Q
    outside F, and every other face of Q contains x.  So a vertex's parent
    is the vertex added on entering the (k+1)-clique that made its face, or
    the C-node when that face is C.

    The (k+1)-cliques on the index path from C up to the base clique are
    entered through a face they made, so each adds the attachment vertex
    missing from that face, and they form a chain below the C-node.  Every
    other step s is entered through attach_s and adds v_s, under the same
    parent as in the index's preorder layout (`CliqueIncidence.layout`),
    except that a step whose attachment is C or on the chain hangs from the
    C-node or that chain vertex.  Those steps are copied as whole runs of
    the layout, after the chain: the run below C, and at most three per
    chain step s, entered through its face t: the run below its faces
    before t, the steps beside s at attach_s laid out before s, and one run
    from the start of face t + 1's run to the end of attach_s's run, which
    holds the steps below s's later faces and then those beside s after it.
    """
    inc = T._incidence
    k, build, attach_node = inc.k, inc.build, inc.attach_node
    lay = inc.layout
    m = len(build)
    verts = []
    chain = []
    a, b = inc.run(f)
    runs = [(a, b, 0)] if a < b else []  # (a, b, r): a..b-1 hang from r
    bounds = 2 * m
    i = 0
    while f:
        s, t = divmod(f - 1, k)
        i += 1
        verts.append(build[s][1][t])
        chain.append(f)
        e = bounds + (k + 1) * s  # s's bounds: its faces' run starts, its end
        a = lay[e]
        f = attach_node[s]
        if f:
            # inc.run(f), inlined: a call per chain step slows small walks
            j = bounds + f - 1 + (f - 1) // k
            c, g = lay[j], lay[j + 1]
        else:
            c, g = 0, m
        # below s's earlier faces, beside s before it, and below its later
        # faces then beside it after it; empty runs are dropped, so a deep
        # chain holds no more runs than vertices
        x = lay[e + t]
        if a < x:
            runs.append((a, x, i))
        if c < a - 1:
            runs.append((c, a - 1, i))
        x = lay[e + t + 1]
        if x < g:
            runs.append((x, g, i))
    up = [-1, *range(i)]
    for a, b, r in runs:
        if b - a == 1:  # one step, which hangs from r
            verts.append(lay[a])
            up.append(r)
        else:
            d = len(up) - a
            verts += lay[a:b]
            up += [q + d if q >= a else r for q in lay[m + a : m + b]]
    return verts, up, chain


def _joined(inc, verts, chain):
    """The sorted k-clique that each vertex of a walk joins: a chain vertex
    its chain node's clique, every later vertex its own build record's
    attachment."""
    build, step_of = inc.build, inc.step_of
    later = map(step_of.__getitem__, verts[len(chain) :])
    return [*map(inc.clique, chain), *(build[s][1] for s in later)]


def construction_from(T, C):
    """A construction order of T starting at C: list of (vertex, attachment).

    The vertices come in the walk order of `characteristic_tree`, each with
    the sorted k-clique it joins.
    """
    C, j = _clique_node(T, C)
    verts, _, chain = _walk(T, j)
    return list(zip(verts, _joined(T._incidence, verts, chain)))


def characteristic_tree(T, C):
    """The characteristic 1-tree T'_C; K_1 for the trivial host."""
    C, j = _clique_node(T, C)
    verts, up, _ = _walk(T, j)
    return CharTree(C, (0, *verts), tuple(up))


# -- elimination sequences -----------------------------------------------------


def elimination_sequence(T, C, v):
    """Greedy-peel construction of the elimination sequence of v from C,
    verified against its two defining conditions before returning."""
    C = require_k_clique(T, C)
    if not isinstance(v, int):
        raise NotAClique(f"target {v!r} is not an int")
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


def argmax_cliques(T, means):
    """Cliques attaining the maximum local mean order in `means`, with the
    value."""
    best = max(means.values())
    return sorted(C for C, m in means.items() if m == best), best


# -- adjacent cliques ----------------------------------------------------------


class ReductionReport(NamedTuple):
    """Outcome of checking that T'_C2 arises from T'_C1 by the partial
    move of `moved` from solo2 to the C1-node."""

    moved: tuple
    isomorphic: bool
    detail: str


class _Entry(NamedTuple):
    """What the pair check keeps of one k-clique C of a host: no tree, only
    masks, a parent array indexed by vertex and the children near the
    C-node."""

    clique: tuple  # sorted C
    mask: int
    common: int  # the common-neighbour mask of C
    par: array  # par[v]: v's parent in T'_C, 0 for the C-node; -1 on C and at 0
    kids: dict  # 0 and each child c of the C-node -> the children of c


def _clique_entry(T, C, cache):
    """The entry of the k-clique C, stored in `cache` under its sorted tuple.

    Only a validated clique is ever stored, so a hit needs no check.  An
    unsorted C misses and is looked up again in sorted form; an invalid one
    misses twice and raises NotAClique.  A miss walks from C once and keeps
    the parent of every vertex and the children next to the C-node.
    """
    e = cache.get(C) if type(C) is tuple else None
    if e is None:
        C = tuple(sorted(C))
        e = cache.get(C)
        if e is None:
            C, j = _clique_node(T, C)
            verts, up, _ = _walk(T, j)
            labels = (0, *verts)
            par = array("i", [-1]) * (T.n + 1)
            kids = {0: []}
            for v, i in zip(verts, up[1:]):
                p = labels[i]
                par[v] = p
                if p in kids:
                    kids[p].append(v)
                    if not p:
                        kids[v] = []
            mask = T.clique_mask(C)
            e = cache[C] = _Entry(C, mask, _common_mask(T, C), par, kids)
    return e


def verify_adjacent_reduction(T, C1, C2, cache=None):
    """Check that T'_C2 is T'_C1 after the partial move.

    C1 and C2 are adjacent when C2 = C1 - solo1 + solo2 for a common
    neighbour solo2 of C1; they span q = C1 + solo2.  The moved vertices are
    those outside q joined to a face of q other than C1 and C2 (in a k-tree
    a vertex outside q is joined to at most one face); they come from the
    adjacency masks of those faces, apart from both trees.  `cache` is an opaque
    per-host dict; pass the same one when checking many pairs of a host, so
    that each clique is validated and its tree built once.
    """
    if cache is None:
        cache = {}
    e1 = _clique_entry(T, C1, cache)
    e2 = _clique_entry(T, C2, cache)
    C1, C2, m1, m2 = e1.clique, e2.clique, e1.mask, e2.mask
    x2 = m2 & ~m1
    if x2.bit_count() != 1 or not x2 & e1.common:
        raise NotAdjacentCliques(f"{C1} and {C2} do not span a (k+1)-clique")
    solo1, solo2 = (m1 & ~m2).bit_length(), x2.bit_length()
    masks = T.masks
    far = 0
    for x in C1:
        if x != solo1:
            face = masks[solo2]  # the common neighbours of q - x
            for v in C1:
                if v != x:
                    face &= masks[v]
            far |= face
    moved = tuple(_mask_vertices(far & ~(m1 | x2)))
    detail = _move_detail(e1, e2, solo1, solo2, moved)
    return ReductionReport(moved, not detail, detail)


def _move_detail(e1, e2, solo1, solo2, moved):
    """Why T'_C2 (entry e2) is not T'_C1 (entry e1) with `moved` moved from
    solo2 to the C1-node, or "" if it is.  C1 - C2 = {solo1}, C2 - C1 =
    {solo2}.

    The move needs every moved vertex in N2 = N(solo2) minus the closed
    neighbourhood of the C1-node.  solo2 joins C1, so it hangs from the
    C1-node, and N2 is the set of its children.  The moved tree, rooted at
    solo2 and named as in T'_C2 (the C1-node is solo1, solo2 the C2-node),
    is T'_C1's parent list with the children of the C1-node under solo1,
    those of solo2 under the C2-node, the moved vertices under solo1, solo2
    in C2 and solo1 under the C2-node.  Rooting it at solo2 reverses only
    the edge between solo2 and the C1-node, and two trees on the same nodes
    with the same root have the same edges iff their parent lists are
    equal, so one list comparison decides the relation.
    """
    par = e1.par
    if any(par[w] != solo2 for w in moved):
        return f"moved set {sorted(moved)} not within N2"
    exp = par[:]
    for c in e1.kids[0]:
        exp[c] = solo1
    for c in e1.kids.get(solo2, ()):
        exp[c] = 0
    for w in moved:
        exp[w] = solo1
    exp[solo2] = -1
    exp[solo1] = 0
    if exp == e2.par:
        return ""
    return "edge sets differ under the canonical relabeling"
