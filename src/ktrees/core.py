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
"""

from __future__ import annotations

import random as _random
import re
from array import array
from functools import cached_property
from itertools import combinations, starmap
from operator import eq
from typing import NamedTuple

from .errors import (
    AttachmentNotClique,
    BadK,
    BadVertexOrder,
    Disconnected,
    FormatError,
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


def _require_k(k):
    if k < 1:
        raise BadK(f"k must be at least 1, got {k}")


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

    The (k+1)-cliques are the steps s = 0..m-1 (m = n - k): step s adds v_s
    at attach_s and makes Q_s = attach_s + v_s.  k-clique node 0 is the base
    clique, and node 1 + k*s + t is the face Q_s - attach_s[t], which
    contains v_s.  `attach_node[s]` is the node of attach_s and `step_of[v]`
    the step that added v, or -1 for a base vertex.  Every k-clique node but
    0 was made by step (j - 1) // k.

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

        `adds` is a sequence of (new_vertex, attachment) pairs; ids may be
        arbitrary as long as they end up covering 1..n.  Every attachment is
        checked to be a clique of the graph built so far.
        """
        _require_k(k)
        base = tuple(sorted(base))
        if len(base) != k or len(set(base)) != k:
            raise BadVertexOrder(f"base must be {k} distinct vertices, got {base}")
        n = k + len(adds)
        masks = [0] * (n + 1)
        present = 0
        for v in base:
            if not 1 <= v <= n:
                raise BadVertexOrder(f"vertex {v} outside 1..{n}")
            present |= _bit(v)
        base_mask = present
        for v in base:
            masks[v] = base_mask & ~_bit(v)
        build = []
        for v, attach in adds:
            attach = tuple(sorted(attach))
            if not 1 <= v <= n or present & _bit(v):
                raise BadVertexOrder(f"new vertex {v} invalid or repeated")
            amask = 0
            for u in attach:
                amask |= _bit(u)
            if amask.bit_count() != k or amask & present != amask:
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

    def neighbors(self, v):
        return tuple(_mask_vertices(self.masks[v]))

    def degree(self, v):
        return self.masks[v].bit_count()

    def has_edge(self, u, v):
        return bool(self.masks[u] & _bit(v))

    def edges(self):
        out = []
        for v in self.vertices:
            m = self.masks[v]
            while m:
                low = m & -m
                u = low.bit_length()
                if u > v:
                    out.append((v, u))
                m ^= low
        return out

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
        nodes = range(1 + self.k * len(self.build))
        return dict(sorted(zip(map(inc.clique, nodes), nodes)))

    def k_leaf_set(self):
        return tuple(v for v in self.vertices if self.degree(v) == self.k)

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
                not self.has_edge(a, b) for a, b in combinations(leaves, 2)
            )
            table["k_leaves_independent"] = (ok, True)
        return table


# -- spec'd operations ------------------------------------------------------


def build_from_construction(k, adds):
    """Grow a k-tree from base 1..k; new ids must run k+1..n in order."""
    expected = k + 1
    for v, _ in adds:
        if v != expected:
            raise BadVertexOrder(f"expected vertex {expected}, got {v}")
        expected += 1
    return KTree.from_parts(k, range(1, k + 1), adds)


def recognize_ktree(edges, k, n=None):
    """Recognize a k-tree from an iterable of edges (plus n for isolated K_1).

    Repeatedly deletes the lowest-id vertex of degree k whose neighborhood
    is a clique; succeeds when k vertices remain.  Returns a KTree carrying the
    reconstructed build sequence and the adjacency masks read off the edges.
    """
    _require_k(k)
    pairs = list(edges)
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


def _clique_node(T, C, node=True):
    """C as a sorted tuple and its incidence node (None unless `node`);
    NotAClique unless C is k distinct, pairwise adjacent vertices of T,
    each an int (a bool counts as the int it equals).

    Once the host's clique table exists, a tuple of ints found in it (by
    equality) is valid and its node is one lookup away.  Anything else
    takes one pass over C on the adjacency masks, then
    `CliqueIncidence.node`.  The table is read only if it is there, never
    built.
    """
    table = T.__dict__.get("_k_cliques")
    if table is not None and type(C) is tuple:
        j = table.get(C)
        # a float, Fraction or other number equal to an id also finds the
        # clique, but makes the sum of C something other than an int
        if j is not None and type(sum(C)) is int:
            return C, j
    C = tuple(C)
    if not all(isinstance(v, int) for v in C):
        raise NotAClique(f"{C} has a vertex id that is not an int")
    C = tuple(sorted(C))
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
                return C, T._incidence.node(C) if node else None
    raise NotAClique(f"{C} is not a {T.k}-clique of the host")


def require_k_clique(T, C):
    """C as a sorted tuple; NotAClique unless it is a k-clique of T."""
    return _clique_node(T, C, False)[0]


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


def clique_degree(T, C):
    """Number of (k+1)-cliques containing C, with the class it implies."""
    C = _clique_node(T, C, False)[0]
    deg = _common_mask(T, C).bit_count()
    if deg == 0:
        kind = ISOLATED
    elif deg == 1:
        kind = END
    elif deg == 2:
        kind = DEGREE2
    else:
        kind = MAJOR
    return CliqueInfo(deg, kind)


def adjacent_cliques(T, C):
    """k-cliques sharing a (k+1)-clique with C, sorted; count k*deg(C)."""
    C = _clique_node(T, C, False)[0]
    out = []
    for x in _mask_vertices(_common_mask(T, C)):
        for i in range(len(C)):
            out.append(tuple(sorted(C[:i] + C[i + 1 :] + (x,))))
    return sorted(out)


# -- named families ----------------------------------------------------------


def gen_path_type(k, n):
    """The canonical path-type k-tree: vertex j > k joins the previous k."""
    if n < k:
        raise SizeTooSmall(f"need n >= k, got n={n}, k={k}")
    adds = [(j, tuple(range(j - k, j))) for j in range(k + 1, n + 1)]
    return build_from_construction(k, adds)


def gen_star_type(k, n_added):
    """Star-type k-tree: every added vertex joins the base clique."""
    if n_added < 0:
        raise SizeTooSmall("n_added must be >= 0")
    base = tuple(range(1, k + 1))
    adds = [(k + i, base) for i in range(1, n_added + 1)]
    return build_from_construction(k, adds)


def gen_bristled_star(k, n):
    """Star-type k-tree S_{n+k} plus one companion per added vertex.

    Companion c_i joins {b_i} union (base minus one base vertex, cycling
    through the base when n > k).  The base clique ends with degree n, each
    {b_i}-clique with degree 2, and every other k-clique is an end clique.
    """
    if n < 3:
        raise SizeTooSmall(f"family needs n >= 3, got {n}")
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
    if n < 1:
        raise SizeTooSmall("need n >= 1")
    m = 2 * n + 1
    adds = [(j, (j - 1,)) for j in range(2, m + 1)]
    adds += [(m + 1, (1,)), (m + 2, (1,)), (m + 3, (m,)), (m + 4, (m,))]
    return build_from_construction(1, adds)


def grow_ktree(k, picks):
    """The k-tree grown from the base 1..k by attaching vertex k + 1 + i at
    the picks[i]-th of the 1 + k*i k-cliques made so far.  Attaching v at C
    appends C - c + v for each c of C, in order."""
    _require_k(k)  # before the picks are drawn, which k < 0 can fail
    cliques = [tuple(range(1, k + 1))]
    adds = []
    for v, i in enumerate(picks, k + 1):
        C = cliques[i]
        adds.append((v, C))
        # v exceeds every vertex of C, so each new clique stays sorted
        cliques += (C[:j] + C[j + 1 :] + (v,) for j in range(k))
    return KTree.from_parts(k, cliques[0], adds)


def random_ktree(k, n, seed):
    """Uniform attachment-clique choice at each growth step; deterministic."""
    if n < k:
        raise SizeTooSmall(f"need n >= k, got n={n}, k={k}")
    rng = _random.Random(seed)
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
    return recognize_ktree(_edge_pairs(text), k, n=n)
