"""k-tree representation, recognition, construction and clique anatomy.

A k-tree is grown from the complete graph K_k by repeatedly adding a new
vertex joined to all vertices of an existing k-clique.  Vertices are always
1..n; cliques are strictly sorted tuples of vertex ids.  Internally every
vertex keeps an adjacency bitmask (vertex v <-> bit v-1), which is what the
enumeration-heavy modules operate on.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import (
    AttachmentNotClique,
    BadK,
    BadVertexOrder,
    Disconnected,
    FormatError,
    NotAClique,
    NotKTree,
    SizeTooSmall,
    TrivialKTree,
)

Clique = tuple  # strictly sorted tuple of vertex ids

END = "end"
DEGREE2 = "degree2"
MAJOR = "major"
ISOLATED = "isolated"


def _bit(v):
    return 1 << (v - 1)


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


@dataclass(frozen=True)
class CliqueInfo:
    """Degree of a k-clique and its class under the degree thresholds.

    end = degree 1, degree2 = degree 2, major = degree >= 3.  The lone
    k-clique of the trivial k-tree has degree 0 and gets the synthetic
    class "isolated".
    """

    degree: int
    kind: str


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
    def from_parts(cls, k, base, adds, validate=True):
        """Assemble a k-tree from a base clique and attachment records.

        `adds` is a sequence of (new_vertex, attachment) pairs; ids may be
        arbitrary as long as they end up covering 1..n.  With validate=True
        every attachment is checked to be a clique of the graph built so far.
        """
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
            if validate:
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
        found = {self.base}
        for q in self._kp1_cliques:
            for sub in combinations(q, self.k):
                found.add(sub)
        return tuple(sorted(found))

    def k_leaf_set(self):
        return tuple(v for v in self.vertices if self.degree(v) == self.k)

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
        table = {
            "edge_count": (self.edge_count, k * n - k * (k + 1) // 2),
            "k_cliques": (len(self._k_cliques), 1 + k * (n - k)),
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


def _neighbor_dict_from_edges(edges, n=None):
    verts = set()
    pairs = set()
    for u, v in edges:
        if u == v:
            raise FormatError(f"self-loop at {u}")
        a, b = (u, v) if u < v else (v, u)
        pairs.add((a, b))
        verts.add(u)
        verts.add(v)
    if n is None:
        n = max(verts) if verts else 0
    if verts and (min(verts) < 1 or max(verts) > n):
        raise FormatError("vertex ids must lie in 1..n")
    return n, pairs


def recognize_ktree(edges, k, n=None):
    """Recognize a k-tree from an iterable of edges (plus n for isolated K_1).

    Repeatedly deletes the lowest-id vertex of degree k whose neighborhood
    is a clique; succeeds when K_k remains.  Returns a KTree carrying the
    reconstructed build sequence.
    """
    if k < 1:
        raise BadK(f"k must be at least 1, got {k}")
    n, pairs = _neighbor_dict_from_edges(edges, n)
    if n < k:
        raise NotKTree(f"order {n} below k={k}")
    masks = [0] * (n + 1)
    for u, v in pairs:
        masks[u] |= _bit(v)
        masks[v] |= _bit(u)
    # connectivity
    if n >= 1:
        seen = _bit(1)
        frontier = _bit(1)
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
    if len(pairs) != k * n - k * (k + 1) // 2:
        raise NotKTree(
            f"edge count {len(pairs)} != {k * n - k * (k + 1) // 2} required for a k-tree"
        )
    peeled = _peel_k_leaves(k, list(masks), 0)
    alive = (1 << n) - 1 - sum(_bit(v) for v, _ in peeled)
    if len(peeled) != n - k:
        raise NotKTree(
            f"no simplicial degree-{k} vertex among {_mask_vertices(alive)}"
        )
    rest = _mask_vertices(alive)
    if not all(masks[v] & alive == alive & ~_bit(v) for v in rest):
        raise NotKTree(f"residue {rest} is not K_{k}")
    return KTree.from_parts(k, rest, peeled[::-1], validate=False)


def k_cliques(T):
    """All k-cliques, sorted lexicographically; count is 1 + k(n-k)."""
    return list(T._k_cliques)


def kp1_cliques(T):
    """All (k+1)-cliques, sorted lexicographically; count is n - k."""
    return list(T._kp1_cliques)


def require_k_clique(T, C):
    C = tuple(sorted(C))
    if len(C) != T.k or not all(1 <= v <= T.n for v in C) or not T.is_clique(C):
        raise NotAClique(f"{C} is not a {T.k}-clique of the host")
    return C


def clique_degree(T, C):
    """Number of (k+1)-cliques containing C, with the class it implies."""
    C = require_k_clique(T, C)
    cm = T.clique_mask(C)
    deg = 0
    for q in T._kp1_cliques:
        if T.clique_mask(q) & cm == cm:
            deg += 1
    if deg == 0:
        kind = ISOLATED
    elif deg == 1:
        kind = END
    elif deg == 2:
        kind = DEGREE2
    else:
        kind = MAJOR
    return CliqueInfo(deg, kind)


def k_leaves(T):
    """Vertices of degree exactly k; undefined on the trivial k-tree."""
    if T.n == T.k:
        raise TrivialKTree("the trivial k-tree has no k-leaves")
    return T.k_leaf_set()


def adjacent_cliques(T, C):
    """k-cliques sharing a (k+1)-clique with C, sorted; count k*deg(C)."""
    C = require_k_clique(T, C)
    cm = T.clique_mask(C)
    out = set()
    for q in T._kp1_cliques:
        if T.clique_mask(q) & cm == cm:
            (x,) = [v for v in q if not cm & _bit(v)]
            for c in C:
                out.add(tuple(sorted((set(C) - {c}) | {x})))
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


def random_ktree(k, n, seed):
    """Uniform attachment-clique choice at each growth step; deterministic."""
    if n < k:
        raise SizeTooSmall(f"need n >= k, got n={n}, k={k}")
    rng = _random.Random(seed)
    base = tuple(range(1, k + 1))
    cliques = [base]
    adds = []
    for v in range(k + 1, n + 1):
        attach = cliques[rng.randrange(len(cliques))]
        adds.append((v, attach))
        for c in attach:
            cliques.append(tuple(sorted((set(attach) - {c}) | {v})))
    return build_from_construction(k, adds)


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
    if k < 1:
        raise BadK(f"k must be at least 1, got {k}")
    base_parts = lines[3].split()
    if base_parts[0] != "base":
        raise FormatError("fourth line must list the base clique")
    base = _ints(base_parts[1:], lines[3])
    if base != list(range(1, k + 1)):
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


def parse_edge_list(text, k, n=None):
    """Parse 'u v' lines and recognize the result as a k-tree."""
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
    return recognize_ktree(edges, k, n=n)
