"""k-tree representation, recognition, construction and clique anatomy.

A k-tree is grown from the complete graph K_k by repeatedly adding a new
vertex joined to all vertices of an existing k-clique.  Vertices are always
1..n; cliques are strictly sorted tuples of vertex ids.  Internally every
vertex keeps an adjacency bitmask (vertex v <-> bit v-1), which is what the
enumeration-heavy modules operate on.

Every clique query validates its clique, and finds its node in the host's
clique-incidence index, through one helper, `_clique_node`.  The first
`k_cliques(T)` builds the host's clique table, each sorted k-clique mapped
to its node, and from then on the helper needs one lookup per clique.  The
helper never builds the table, so a single query on a large host costs no
tuple per clique.  A host made by `KTree.from_parent`, a class level's
parent plus one vertex, gets its table with its masks and index, each
carried over from the parent's.

`all_clique_pairs` reads the index alone for the exact local mean order
of every k-clique at once, apart from `chartree`'s characteristic trees.
"""

from __future__ import annotations

import random as _random
import re
from array import array
from collections.abc import Iterable
from functools import cached_property, partial
from itertools import chain, combinations, starmap
from operator import eq
from typing import NamedTuple

from .errors import (
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

END = "end"
DEGREE2 = "degree2"
MAJOR = "major"
ISOLATED = "isolated"


def _bit(v):
    return 1 << (v - 1)


# -- argument readers, which every public function calls first ----------------
# Ids, sizes, caps and seeds are ints; a bool, though an int to Python, is refused.


def _require_int(x, name, lo=None, error=KTreeError):
    """x, an int (never a bool) of at least lo; `error` otherwise."""
    if type(x) is not int:
        raise error(f"{name} must be an int, got {x!r}")
    if lo is not None and x < lo:
        raise error(f"{name} must be at least {lo}, got {x}")
    return x


_require_k = partial(_require_int, name="k", lo=1, error=BadK)


def _require_ids(ids, what, error, among=None, where=None):
    """The collection `ids` as a tuple of ints (never bools), each one of
    `among` (named `where`) if given; `error` naming each `what` otherwise."""
    if not isinstance(ids, (tuple, Iterable)):  # a tuple skips the ABC check
        raise error(f"{what} values must come as a collection, got {ids!r}")
    ids = tuple(ids)
    for v in ids:
        if type(v) is not int:
            raise error(f"{what} {v!r} is not an integer")
        if among is not None and v not in among:
            raise error(f"{what} {v} must belong to {where}")
    return ids


def _require_pairs(items, what, error):
    """`items` as a tuple of pairs, each a tuple or list of two; `error` else."""
    if not isinstance(items, Iterable):
        raise error(f"{what}s must come as a collection, got {items!r}")
    items = tuple(items)
    for pair in items:
        if type(pair) not in (tuple, list) or len(pair) != 2:
            raise error(f"{what} {pair!r} is not a pair")
    return items


def _require_text(text, what):
    """`text` if it is a str; FormatError naming `what` otherwise."""
    if not isinstance(text, str):
        raise FormatError(f"{what} must be text, got {text!r}")
    return text


def _mask_vertices(mask):
    """Sorted vertex ids of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _peel_k_leaves(k, work, keep):
    """Peel simplicial degree-k vertices outside the mask `keep`, always the
    lowest id first, until none is left.

    `work` holds the adjacency masks and is updated in place.  Returns the
    (vertex, sorted neighbours at peel time) pairs in peel order.
    """
    # Degrees only fall, so a vertex is a candidate from the peel that brings
    # its degree to k until the next one that touches it.  Its neighbourhood
    # cannot change in between, so a failed clique test drops it for good.
    cand = 0
    for v in range(1, len(work)):
        if work[v].bit_count() == k:
            cand |= 1 << (v - 1)
    cand &= ~keep
    peeled = []
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length()
        nb = work[v]
        nbs = []
        rest = nb
        while rest:
            lw = rest & -rest
            u = lw.bit_length()
            if work[u] & nb != nb ^ lw:
                break
            nbs.append(u)
            rest ^= lw
        if rest:
            continue
        peeled.append((v, tuple(nbs)))
        work[v] = 0
        for u in nbs:
            work[u] ^= low
            if work[u].bit_count() == k:
                cand |= 1 << (u - 1)
            else:
                cand &= ~(1 << (u - 1))
        cand &= ~keep
    return peeled


class CliqueInfo(NamedTuple):
    """Degree of a k-clique and its class under the degree thresholds.

    end = degree 1, degree2 = degree 2, major = degree >= 3.  The lone
    k-clique of the trivial k-tree has degree 0 and gets the synthetic
    class "isolated".
    """

    degree: int
    kind: str


class CliqueIncidence:
    """The clique-incidence tree of a k-tree (k-cliques joined to the
    (k+1)-cliques that contain them), as flat integer arrays read off the
    construction records.

    The index is internal, reached only as `T._incidence`; its methods take
    node ids and steps that the package made, unchecked.  Only this class
    knows its numbering and its layout; other modules call its methods.

    The (k+1)-cliques are the steps s = 0..m-1 (m = n - k): step s adds v_s
    at attach_s and makes Q_s = attach_s + v_s.  k-clique node 0 is the base
    clique, and node 1 + k*s + t is the face Q_s - attach_s[t], which
    contains v_s.  `attach_node[s]` is the node of attach_s and `step_of[v]`
    the step that added v, or -1 for a base vertex.  Every k-clique node but
    0 was made by step (j - 1) // k.

    `nodes`, `faces` and `holders` give the tree's adjacency; the holders
    are built on each call and never stored, since a class level keeps
    every host's index alive.  `walk` and `joined` read characteristic
    trees, and `centre` the centre of the tree.

    `layout`, built on first read, lays the tree out in preorder from the
    base clique: a step comes first, then the steps below each of its k
    faces in turn, so the steps below any k-clique node fill one run of
    positions, `run(j)`.  It is one packed array of (k + 3) * m ints:
    the vertex v_s and the position of the step that made attach_s (-1 for
    the base), each by position p in blocks of m; then, per step s, k + 1
    run bounds at 2m + (k+1)*s: the run starts of its faces and the end of
    the run below s, so s itself sits one before the first.
    """

    __slots__ = ("k", "base", "build", "attach_node", "step_of", "_layout")

    def __init__(self, T):
        k, build = T.k, T.build
        self.k, self.base, self.build = k, T.base, build
        self.step_of = step_of = array("i", [-1]) * (T.n + 1)
        self.attach_node = attach_node = array("i", [0]) * len(build)
        for s, (v, attach) in enumerate(build):
            attach_node[s] = self.node(attach)
            step_of[v] = s
        self._layout = None

    def _with_step(self, build, j):
        """A copy of this index plus one step: the last record of `build`,
        attached at k-clique node j.  The layout is left to the first
        walk."""
        inc = object.__new__(CliqueIncidence)
        inc.k, inc.base, inc.build, inc._layout = self.k, self.base, build, None
        inc.step_of = self.step_of + array("i", [len(self.build)])
        inc.attach_node = self.attach_node + array("i", [j])
        return inc

    @property
    def nodes(self):
        """The k-clique node ids."""
        return range(1 + self.k * len(self.build))

    def faces(self, s):
        """The k + 1 nodes of step s, which are mutually adjacent: its
        attachment, then the k faces it made."""
        low = 1 + self.k * s
        return (self.attach_node[s], *range(low, low + self.k))

    def holders(self):
        """Per node, the steps that hold it, as many as its degree: the step
        that made it (none for the base clique), then those attached at it."""
        out = [[]] + [[s] for s in range(len(self.build)) for _ in range(self.k)]
        for s, j in enumerate(self.attach_node):
            out[j].append(s)
        return out

    def node(self, C):
        """The node of the k-clique C, found from its latest-added vertex.
        C must be a k-clique of the host."""
        s = max(map(self.step_of.__getitem__, C))
        if s < 0:
            return 0
        v, attach = self.build[s]
        # C is Q_s less one vertex of attach_s
        return 1 + self.k * s + attach.index(sum(attach) + v - sum(C))

    def clique(self, j):
        """The sorted vertices of k-clique node j."""
        if not j:
            return self.base
        s, t = divmod(j - 1, self.k)
        v, attach = self.build[s]
        return tuple(sorted(attach[:t] + attach[t + 1 :] + (v,)))

    @property
    def layout(self):
        lay = self._layout
        if lay is None:
            lay = self._layout = self._preorder()
        return lay

    def run(self, j):
        """The positions [a, b) of the steps below k-clique node j."""
        if not j:
            return 0, len(self.build)
        i = 2 * len(self.build) + j - 1 + (j - 1) // self.k
        lay = self.layout
        return lay[i], lay[i + 1]

    def _preorder(self):
        k, build, attach_node = self.k, self.build, self.attach_node
        m = len(build)
        lay = array("i", [0]) * ((k + 3) * m)
        # count the steps below every node, latest step first: a step's
        # faces are attached to only by later steps
        below = array("i", [0]) * (1 + k * m)
        for s in range(m - 1, -1, -1):
            low = 1 + k * s
            below[attach_node[s]] += 1 + sum(below[low : low + k])
        # place each step at its attachment's next free position; `below`
        # now holds that position for every node laid out so far
        below[0] = 0
        bounds = 2 * m
        for s, (v, _) in enumerate(build):
            j = attach_node[s]
            p = below[j]
            lay[p] = v
            lay[m + p] = lay[bounds + (k + 1) * ((j - 1) // k)] - 1 if j else -1
            e = bounds + (k + 1) * s
            q = p + 1
            for f in range(1 + k * s, 1 + k * s + k):
                lay[e] = q
                e += 1
                q, below[f] = q + below[f], q
            lay[e] = below[j] = q
        return lay

    def walk(self, f):
        """Walk the tree from k-clique node f: the characteristic tree T'_C
        of its clique C, whose nodes are the C-node and the vertices outside
        C.

        Returns (vertices, up, chain): the vertices outside C in walk order
        (the chain, then the copied runs), parents first; the parent position
        of every node of T'_C (the C-node at position 0, `up[0] = -1`); and the
        k-clique node `chain[i]` that chain vertex i (`vertices[i]`) joins.
        Every later vertex v joins its own attachment, `build[step_of[v]][1]`,
        so the walk keeps no node per vertex; `joined` reads both.

        Entering a (k+1)-clique Q through its face F adds the one vertex x of Q
        outside F, and every other face of Q contains x.  So a vertex's parent
        is the vertex added on entering the (k+1)-clique that made its face, or
        the C-node when that face is C.

        The (k+1)-cliques on the index path from C up to the base clique are
        entered through a face they made, so each adds the attachment vertex
        missing from that face, and they form a chain below the C-node.  Every
        other step s is entered through attach_s and adds v_s, under the same
        parent as in the preorder `layout`, except that a step whose
        attachment is C or on the chain hangs from the C-node or that chain
        vertex.  Those steps are copied as whole runs of the layout, after the
        chain: the run below C, and at most three per chain step s, entered
        through its face t: the run below its faces before t, the steps beside
        s at attach_s laid out before s, and one run from the start of face
        t + 1's run to the end of attach_s's run, which holds the steps below
        s's later faces and then those beside s after it.
        """
        k, build, attach_node = self.k, self.build, self.attach_node
        lay = self.layout
        m = len(build)
        verts = []
        chain = []
        a, b = self.run(f)
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
                # self.run(f), inlined: a call per chain step slows small walks
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

    def joined(self, verts, chain):
        """The sorted k-clique that each vertex of a walk joins: a chain vertex
        its chain node's clique, every later vertex its own build record's
        attachment."""
        build = self.build
        later = map(self.step_of.__getitem__, verts[len(chain) :])
        return [*map(self.clique, chain), *(build[s][1] for s in later)]

    def centre(self):
        """The centre of the tree, which every isomorphism fixes, as k-clique
        nodes: (roots, grown, degree).  `roots` is the centre, or the k + 1
        faces of a centre step; `grown[j]` the same once one more step is
        attached at node j; `degree[j]` the number of steps that hold j.

        The centre is the middle of a longest path: a sweep from any node
        ends at one end a of such a path, and a sweep from a at the other.
        Every leaf is a k-clique, so the path has even length and one middle.
        A step attached at j adds leaves two edges further out than j.  Every
        leaf lies at most the radius from the centre, at its parity, so the
        centre moves, one hop towards j, only if j lies at the radius.  On
        the one node of K_k, the new step is the centre; of its alike faces,
        `grown[0]` gives node 0.  The sweeps number step s as node s and
        k-clique node j as m + j.
        """
        m = len(self.build)
        holders = self.holders()
        nbrs = [[m + j for j in self.faces(s)] for s in range(m)] + holders
        a = _bfs(nbrs, m)[0][-1]
        order, parent = _bfs(nbrs, a)
        path = [order[-1]]
        while path[-1] != a:
            path.append(parent[path[-1]])
        centre = path[len(path) // 2]
        order, parent = _bfs(nbrs, centre)
        dist = [0] * len(nbrs)
        hop = list(range(len(nbrs)))
        for y in order[1:]:
            x = parent[y]
            dist[y] = dist[x] + 1
            if x != centre:
                hop[y] = hop[x]
        radius = dist[order[-1]]

        def roots(x):
            return (x - m,) if x >= m else self.faces(x)

        mid = roots(centre)
        grown = [mid if d < radius else roots(h) for d, h in zip(dist[m:], hop[m:])]
        return mid, grown, list(map(len, holders))


def _bfs(nbrs, x):
    """The nodes of a tree, given as neighbour lists, in breadth-first order
    from x, and the parent of each (x is its own)."""
    parent = [-1] * len(nbrs)
    parent[x] = x
    order = [x]
    for y in order:
        for z in nbrs[y]:
            if parent[z] < 0:
                parent[z] = y
                order.append(z)
    return order, parent


class KTree:
    """An immutable k-tree on vertices 1..n with a recorded construction.

    `base` is the starting k-clique and `build` the sequence of
    (new_vertex, attachment_clique) pairs; together they reproduce the
    edge set exactly.
    """

    def __init__(self, k, base, build, masks):
        self.k = k
        self.base = tuple(base)
        self.build = tuple(build)
        self.n = k + len(self.build)
        self.masks = masks  # list indexed by vertex id; masks[0] unused

    # -- construction -----------------------------------------------------

    @classmethod
    def from_parts(cls, k, base, adds):
        """Assemble a k-tree from a base clique and attachment records.

        `adds` is a sequence of (new_vertex, attachment) pairs; ids are ints
        in any order, as long as they end up covering 1..n.  Every attachment
        is checked to be a clique of the graph built so far.
        """
        _require_k(k)
        adds = _require_pairs(adds, "record", BadVertexOrder)
        n = k + len(adds)
        hosted, where = range(1, n + 1), f"1..{n}"
        base = _require_ids(base, "base vertex", BadVertexOrder, hosted, where)
        base = tuple(sorted(base))
        if len(base) != k or len(set(base)) != k:
            raise BadVertexOrder(f"base must be {k} distinct vertices, got {base}")
        masks = [0] * (n + 1)
        present = base_mask = sum(map(_bit, base))
        for v in base:
            masks[v] = base_mask & ~_bit(v)
        build = []
        for v, attach in adds:
            _require_int(v, "new vertex", 1, BadVertexOrder)
            if v > n or present & _bit(v):
                raise BadVertexOrder(f"new vertex {v!r} invalid or repeated")
            attach = _require_ids(
                attach, "attachment vertex", AttachmentNotClique, hosted, where
            )
            attach = tuple(sorted(attach))
            amask = 0
            for u in attach:
                amask |= _bit(u)
            if len(attach) != k or amask.bit_count() != k or amask & present != amask:
                raise AttachmentNotClique(
                    f"attachment {attach} for vertex {v} is not {k} present vertices"
                )
            for u in attach:
                if masks[u] & amask != amask & ~_bit(u):
                    raise AttachmentNotClique(
                        f"attachment {attach} for vertex {v} is not a clique"
                    )
            masks[v] = amask
            for u in attach:
                masks[u] |= _bit(v)
            present |= _bit(v)
            build.append((v, attach))
        if present != (1 << n) - 1:
            raise BadVertexOrder("vertex ids do not cover 1..n")
        return cls(k, base, build, masks)

    @classmethod
    def from_parent(cls, P, C):
        """P plus the vertex n + 1 attached at P's k-clique C, carried over
        from P's structures, which it leaves as they are: P's masks plus the
        new vertex's, P's incidence arrays plus the new step, and P's clique
        table plus the step's k new faces, in sorted order."""
        C, j = _clique_node(P, C)
        k, v, s = P.k, P.n + 1, len(P.build)
        masks = P.masks + [0]
        for u in C:
            masks[u] |= _bit(v)
            masks[v] |= _bit(u)
        T = cls(k, P.base, P.build + ((v, C),), masks)
        T._incidence = P._incidence._with_step(T.build, j)
        # v exceeds every vertex of C, so each new face stays sorted
        faces = [(C[:t] + C[t + 1 :] + (v,), 1 + k * s + t) for t in range(k)]
        T._k_cliques = dict(sorted([*P._k_cliques.items(), *faces]))
        return T

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def _vertices(self, *vs):
        """vs, each an int id of the host (never a bool); KTreeError otherwise.
        The public queries read their ids here; the package's own loops read
        `masks` directly."""
        return _require_ids(vs, "vertex", KTreeError, self.vertices, "the host")

    def neighbors(self, v):
        (v,) = self._vertices(v)
        return tuple(_mask_vertices(self.masks[v]))

    def degree(self, v):
        (v,) = self._vertices(v)
        return self.masks[v].bit_count()

    def has_edge(self, u, v):
        u, v = self._vertices(u, v)
        return bool(self.masks[u] & _bit(v))

    def edges(self):
        return [
            (v, u) for v in self.vertices for u in _mask_vertices(self.masks[v]) if u > v
        ]

    @property
    def edge_count(self):
        return sum(self.masks[v].bit_count() for v in self.vertices) // 2

    def clique_mask(self, vs):
        m = 0
        for v in vs:
            m |= _bit(v)
        return m

    def is_clique(self, vs):
        vs = list(vs)
        m = self.clique_mask(vs)
        return all(self.masks[v] & m == m & ~_bit(v) for v in vs)

    @cached_property
    def _kp1_cliques(self):
        out = [tuple(sorted(attach + (v,))) for v, attach in self.build]
        return tuple(sorted(out))

    @cached_property
    def _k_cliques(self):
        """The clique table: every k-clique, sorted, mapped to its incidence
        node."""
        inc = self._incidence
        return dict(sorted(zip(map(inc.clique, inc.nodes), inc.nodes)))

    def k_leaf_set(self):
        masks, k = self.masks, self.k
        return tuple(v for v in self.vertices if masks[v].bit_count() == k)

    @cached_property
    def _incidence(self):
        return CliqueIncidence(self)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, KTree):
            return NotImplemented
        return self.k == other.k and self.masks == other.masks

    def __hash__(self):
        return hash((self.k, tuple(self.masks)))

    def __repr__(self):
        return f"KTree(k={self.k}, n={self.n}, edges={self.edges()})"

    def validate(self):
        """Invariant table used by the CLI `validate` verdict."""
        k, n = self.k, self.n
        # counted from the (k+1)-cliques, not from the index that names them
        faces = {sub for q in self._kp1_cliques for sub in combinations(q, k)}
        table = {
            "edge_count": (self.edge_count, k * n - k * (k + 1) // 2),
            "k_cliques": (len(faces | {self.base}), 1 + k * (n - k)),
            "kp1_cliques": (len(self._kp1_cliques), n - k),
        }
        leaves = self.k_leaf_set()
        if n >= k + 2:
            ok = len(leaves) >= 2 and all(
                not self.masks[a] & _bit(b) for a, b in combinations(leaves, 2)
            )
            table["k_leaves_independent"] = (ok, True)
        return table


# -- spec'd operations ------------------------------------------------------


def build_from_construction(k, adds):
    """Grow a k-tree from base 1..k; new ids must run k+1..n in order."""
    _require_k(k)
    adds = _require_pairs(adds, "record", BadVertexOrder)
    for expected, (v, _) in enumerate(adds, k + 1):
        if v != expected:
            raise BadVertexOrder(f"expected vertex {expected}, got {v}")
    return KTree.from_parts(k, range(1, k + 1), adds)


def recognize_ktree(edges, k, n=None):
    """Recognize a k-tree from an iterable of edges (plus n for isolated K_1).

    Repeatedly deletes the lowest-id vertex of degree k whose neighborhood
    is a clique; succeeds when k vertices remain.  Returns a KTree carrying the
    reconstructed build sequence and the adjacency masks read off the edges.
    """
    pairs = _require_pairs(edges, "edge", FormatError)
    _require_ids(chain.from_iterable(pairs), "edge end", FormatError)
    return _recognize(pairs, k, n)


def _recognize(pairs, k, n):
    """`recognize_ktree` of pairs of ints, as read or as `_edge_pairs` parses."""
    _require_k(k)
    if n is not None:
        _require_int(n, "n", error=FormatError)
    if any(starmap(eq, pairs)):
        raise FormatError(f"self-loop at {next(u for u, v in pairs if u == v)}")
    if pairs:
        lo, hi = min(map(min, pairs)), max(map(max, pairs))
        if n is None:
            n = hi
        if lo < 1 or hi > n:
            raise FormatError("vertex ids must lie in 1..n")
    elif n is None:
        n = 0
    if n < k:
        raise NotKTree(f"order {n} below k={k}")
    if len(pairs) < n - 1:  # refused just below, so allocate nothing sized by n
        edge_count = len({(u, v) if u < v else (v, u) for u, v in pairs})
    else:
        masks = [0] * (n + 1)
        for u, v in pairs:  # duplicate and reversed pairs set the same bits
            masks[u] |= 1 << (v - 1)
            masks[v] |= 1 << (u - 1)
        edge_count = sum(map(int.bit_count, masks)) // 2
    if edge_count < n - 1:
        raise Disconnected(f"{edge_count} edges cannot connect {n} vertices")
    # connectivity; n >= k >= 1, so vertex 1 exists
    seen = frontier = _bit(1)
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= masks[low.bit_length()]
            m ^= low
        frontier = nxt & ~seen
        seen |= nxt
    if seen != (1 << n) - 1:
        raise Disconnected(f"graph on 1..{n} is not connected")
    if edge_count != k * n - k * (k + 1) // 2:
        raise NotKTree(
            f"edge count {edge_count} != {k * n - k * (k + 1) // 2} required for a k-tree"
        )
    peeled = _peel_k_leaves(k, list(masks), 0)
    rest = sorted(set(range(1, n + 1)).difference(v for v, _ in peeled))
    if len(peeled) != n - k:
        raise NotKTree(f"no simplicial degree-{k} vertex among {rest}")
    # Each peel removed its vertex with its k edges, so of the k*n - k(k+1)/2
    # edges exactly k(k-1)/2 are left on the k survivors: they form K_k, and
    # the records rebuild these masks.
    return KTree(k, rest, peeled[::-1], masks)


def k_cliques(T):
    """All k-cliques, sorted lexicographically; count is 1 + k(n-k)."""
    return list(T._k_cliques)


def kp1_cliques(T):
    """All (k+1)-cliques, sorted lexicographically; count is n - k."""
    return list(T._kp1_cliques)


def _table_hit(table, C):
    """table[C] if C is a tuple of ints (never bools) that `table`, keyed by
    sorted cliques of ints, holds; else None, and nothing is refused."""
    if type(C) is tuple:
        try:
            j = table.get(C)
            # a float or Fraction equal to an id also finds the clique, but its
            # sum is no int; a bool can equal only vertex 1, which sorts first
            if j is not None and type(sum(C)) is int and C[0] is not True:
                return j
        except TypeError:  # an unhashable id, which the full check refuses
            pass
    return None


def _clique_node(T, C):
    """C as a sorted tuple and its incidence node; NotAClique unless C is
    k distinct, pairwise adjacent vertices of T, each an int (never a bool).

    Once the host's clique table exists, a tuple of ints found in it
    (`_table_hit`) is valid and its node is one lookup away.  Anything else
    takes one pass over C on the adjacency masks, then
    `CliqueIncidence.node`.  The table is read only if it is there, never
    built.
    """
    table = T.__dict__.get("_k_cliques")
    if table is not None and (j := _table_hit(table, C)) is not None:
        return C, j
    C = tuple(sorted(_require_ids(C, "clique vertex", NotAClique)))
    if len(C) == T.k:
        masks = T.masks
        m = 0
        common = -1  # vertices adjacent or equal to every vertex seen so far
        for v in C:
            if not 1 <= v <= T.n:
                break
            b = 1 << (v - 1)
            m |= b
            common &= masks[v] | b
        else:
            if m.bit_count() == T.k and common & m == m:
                return C, T._incidence.node(C)
    raise NotAClique(f"{C} is not a {T.k}-clique of the host")


def require_k_clique(T, C):
    """C as a sorted tuple; NotAClique unless it is a k-clique of T."""
    return _clique_node(T, C)[0]


def _common_mask(T, C):
    """Mask of the vertices outside C adjacent to every vertex of C.

    In a k-tree the (k+1)-cliques containing a k-clique C are exactly
    C + x for the vertices x of this mask.
    """
    masks = T.masks
    m = -1  # every bit set
    for v in C:
        m &= masks[v]
    return m


def _clique_info(deg):
    """The CliqueInfo of a k-clique in deg (k+1)-cliques."""
    if deg == 0:
        kind = ISOLATED
    elif deg == 1:
        kind = END
    elif deg == 2:
        kind = DEGREE2
    else:
        kind = MAJOR
    return CliqueInfo(deg, kind)


def clique_degree(T, C):
    """Number of (k+1)-cliques containing C, with the class it implies."""
    C = _clique_node(T, C)[0]
    return _clique_info(_common_mask(T, C).bit_count())


def adjacent_cliques(T, C):
    """k-cliques sharing a (k+1)-clique with C, sorted; count k*deg(C)."""
    C = _clique_node(T, C)[0]
    out = []
    for x in _mask_vertices(_common_mask(T, C)):
        for i in range(len(C)):
            out.append(tuple(sorted(C[:i] + C[i + 1 :] + (x,))))
    return sorted(out)


def all_clique_pairs(T):
    """(phi_{T,C}(1), phi_{T,C}'(1)) for every k-clique node C of T's
    clique-incidence index: the number of sub-k-trees containing C and the
    sum of their orders, so mu(T; C) is the second over the first.

    One backward and one forward pass over the steps, with no walk from any
    clique.  For a k-clique C in the (k+1)-clique Q = C + x, the branch
    B(C->Q) is x times the product of (1 + B(C'->Q')) over the faces C' of
    Q that contain x and the other (k+1)-cliques Q' on C'; phi_{T,C} is x^k
    times the product of (1 + B(C->Q)) over every Q on C.  Only the value
    and slope at 1 of each product are kept, as an integer pair.

    Backward, latest step first: the down product D(j) of node j is the
    product over the steps s attached at j of (1 + B_s), where B_s is x
    times the product of D over s's faces, whose steps all come after s.
    Forward, earliest step first: the full product F(j) of node j also has
    the factor of the step that made j.  For a face f of step s attached at
    j, F(f) = D(f) (1 + B(f->Q_s)), and D(f) B(f->Q_s) is x times F(j)
    without its factor (1 + B_s) times the D of every face of s, that is
    F(j) B_s / (1 + B_s) = F(j) - F(j) / (1 + B_s).  So each face gains one
    amount, and dividing the factor out is exact.
    """
    inc = T._incidence
    k, attach = inc.k, inc.attach_node
    count = [1] * (1 + k * len(attach))
    total = [0] * len(count)
    branch = []
    for s in range(len(attach) - 1, -1, -1):
        c, t = 1, 0
        for f in range(1 + k * s, 1 + k * s + k):
            c, t = c * count[f], t * count[f] + c * total[f]
        t += c  # times x
        branch.append((c, t))
        j = attach[s]
        count[j], total[j] = count[j] * (c + 1), count[j] * t + total[j] * (c + 1)
    branch.reverse()
    for s, (c, t) in enumerate(branch):
        j = attach[s]
        rc = count[j] // (c + 1)  # F(j) / (1 + B_s)
        rt = (total[j] - rc * t) // (c + 1)
        gc, gt = count[j] - rc, total[j] - rt
        for f in range(1 + k * s, 1 + k * s + k):
            count[f] += gc
            total[f] += gt
    return [(c, t + k * c) for c, t in zip(count, total)]


# -- named families ----------------------------------------------------------


def gen_path_type(k, n):
    """The canonical path-type k-tree: vertex j > k joins the previous k."""
    _require_int(n, "n", _require_k(k), SizeTooSmall)
    adds = [(j, tuple(range(j - k, j))) for j in range(k + 1, n + 1)]
    return build_from_construction(k, adds)


def gen_star_type(k, n_added):
    """Star-type k-tree: every added vertex joins the base clique."""
    _require_k(k)
    _require_int(n_added, "n_added", 0, SizeTooSmall)
    base = tuple(range(1, k + 1))
    adds = [(k + i, base) for i in range(1, n_added + 1)]
    return build_from_construction(k, adds)


def gen_bristled_star(k, n):
    """Star-type k-tree S_{n+k} plus one companion per added vertex.

    Companion c_i joins {b_i} union (base minus one base vertex, cycling
    through the base when n > k).  The base clique ends with degree n, each
    {b_i}-clique with degree 2, and every other k-clique is an end clique.
    """
    _require_k(k)
    _require_int(n, "n", 3, SizeTooSmall)
    if k < 2:
        raise SizeTooSmall("family needs k >= 2 so companions drop a base vertex")
    base = tuple(range(1, k + 1))
    adds = [(k + i, base) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        drop = (i - 1) % k + 1
        clique = tuple(sorted({k + i} | (set(base) - {drop})))
        adds.append((k + n + i, clique))
    return build_from_construction(k, adds)


def gen_double_broom(n):
    """Tree of order 2n+5: path P_{2n+1} with two pendant edges at each end."""
    m = 2 * _require_int(n, "n", 1, SizeTooSmall) + 1
    adds = [(j, (j - 1,)) for j in range(2, m + 1)]
    adds += [(m + 1, (1,)), (m + 2, (1,)), (m + 3, (m,)), (m + 4, (m,))]
    return build_from_construction(1, adds)


def grow_ktree(k, picks):
    """The k-tree grown from the base 1..k by attaching vertex k + 1 + i at
    the picks[i]-th of the 1 + k*i k-cliques made so far; NotAClique for a
    pick outside 0..k*i.  Attaching v at C appends C - c + v for each c of
    C, in order."""
    _require_k(k)  # before the picks are drawn, which k < 0 can fail
    cliques = [tuple(range(1, k + 1))]
    adds = []
    for v, i in enumerate(_require_ids(picks, "pick", NotAClique), k + 1):
        if not 0 <= i < len(cliques):
            raise NotAClique(
                f"pick {i!r} is not one of the {len(cliques)} k-cliques made so far"
            )
        C = cliques[i]
        adds.append((v, C))
        # v exceeds every vertex of C, so each new clique stays sorted
        cliques += (C[:j] + C[j + 1 :] + (v,) for j in range(k))
    return KTree.from_parts(k, cliques[0], adds)


def random_ktree(k, n, seed):
    """Uniform attachment-clique choice at each growth step; deterministic."""
    _require_int(n, "n", _require_k(k), SizeTooSmall)
    rng = _random.Random(_require_int(seed, "seed"))
    return grow_ktree(k, (rng.randrange(1 + k * i) for i in range(n - k)))


# -- text formats -------------------------------------------------------------

KT_VERSION = 1


def _ints(tokens, line):
    try:
        out = [int(x) for x in tokens]
    except ValueError:
        raise FormatError(f"non-integer token in {line!r}") from None
    if any(x < 1 for x in out):
        raise FormatError(f"vertex ids must be positive in {line!r}")
    return out


def parse_kt(text):
    """Parse the line-oriented .kt construction format."""
    text = _require_text(text, ".kt input")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["ktree", str(KT_VERSION)]:
        raise FormatError("first line must be 'ktree 1'")
    if len(lines) < 4:
        raise FormatError("truncated .kt input")
    try:
        k = int(lines[1].removeprefix("k "))
        n = int(lines[2].removeprefix("n "))
    except ValueError as exc:
        raise FormatError(f"bad k/n header: {exc}") from None
    _require_k(k)
    base_parts = lines[3].split()
    if base_parts[0] != "base":
        raise FormatError("fourth line must list the base clique")
    base = _ints(base_parts[1:], lines[3])
    if len(base) != k or base != list(range(1, k + 1)):
        raise FormatError(f"base must be 1..{k}, got {base}")
    adds = []
    for ln in lines[4:]:
        parts = ln.split()
        if parts[0] != "add" or len(parts) != k + 2:
            raise FormatError(f"bad add line: {ln!r}")
        v, *attach = _ints(parts[1:], ln)
        adds.append((v, tuple(attach)))
    if len(adds) != n - k:
        raise FormatError(f"expected {n - k} add lines, got {len(adds)}")
    return build_from_construction(k, adds)


def format_kt(T):
    """Emit the .kt text; relabels when the stored build is not id-ordered.

    Returns (text, relabel_map) where relabel_map is None when the original
    ids were kept and otherwise maps old id -> emitted id.
    """
    ordered = T.base == tuple(range(1, T.k + 1)) and all(
        v == T.k + 1 + i for i, (v, _) in enumerate(T.build)
    )
    relabel = None
    if ordered:
        base, build = T.base, T.build
    else:
        relabel = {v: i + 1 for i, v in enumerate(T.base)}
        for i, (v, _) in enumerate(T.build):
            relabel[v] = T.k + 1 + i
        base = tuple(range(1, T.k + 1))
        build = [
            (relabel[v], tuple(sorted(relabel[u] for u in attach)))
            for v, attach in T.build
        ]
    lines = [f"ktree {KT_VERSION}", f"k {T.k}", f"n {T.n}"]
    lines.append("base " + " ".join(str(v) for v in base))
    for v, attach in build:
        lines.append(f"add {v} " + " ".join(str(u) for u in attach))
    return "\n".join(lines) + "\n", relabel


# the start of a line that is not two decimal ids: a comment, a blank line or
# a bad line; each line is checked on its own, so nothing backtracks across lines
_NOT_PLAIN_EDGE = re.compile(r"^(?![ \t]*[0-9]+[ \t]+[0-9]+[ \t]*\r?$)", re.M)


def _edge_pairs(text):
    """The (u, v) pairs of an edge list, read in bulk when every line is two
    decimal ids, else line by line."""
    if not _NOT_PLAIN_EDGE.search(text, 0, len(text) - text.endswith("\n")):
        ids = map(int, text.split())
        try:
            return list(zip(ids, ids))
        except ValueError:  # an id past int()'s digit limit: the loop says where
            pass
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


def parse_edge_list(text, k, n=None):
    """Parse 'u v' lines and recognize the result as a k-tree."""
    return _recognize(_edge_pairs(_require_text(text, "an edge list")), k, n)
