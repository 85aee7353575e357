"""Canonical codes and isomorphism-reduced enumeration of k-trees.

A rooted code fixes a k-clique C and an ordering of its vertices, walks
the host from C, and serializes the rooted characteristic-tree shape where
every vertex is labeled by (a) the ancestor offsets of its attachment
outside C and (b) the ordered positions of its attachment inside C.  The
code is folded bottom-up over the parent positions of the walk, so its
cost does not depend on the depth of the host.  A plain shape code of the
clique incidence tree is NOT enough: non-isomorphic k-trees can share it,
which is why the labels carry the attachment data.

The clique-incidence tree (k-cliques joined to the (k+1)-cliques that
contain them) has a centre that every isomorphism fixes.  The canonical
code is the minimum rooted code over the centre's k-cliques and their
orderings, at most (k+1) * k! of them, so two k-trees are isomorphic iff
their canonical codes are equal.  The tree's neighbour lists are read off
the host's shared incidence index (`core.CliqueIncidence`), the same index
whose walk from C (`chartree._walk`) gives the rooted structure, so no code
peels the host.  A vertex's label reads the k-clique it joins: the clique
of its chain node for a vertex on the walk's chain, and its own build
record's attachment, already sorted, for every other.  The centre is the
middle of a longest path, found by two breadth-first sweeps; the sweep
from the centre then gives the distances that `_child_codes` reads.

Class enumeration keeps one canonical code per class and level.
`iso_levels` yields the levels k..n in turn, each built once from the one
before, so a corpus over a range of orders builds every level once;
`enumerate_ktrees_up_to_iso` is its last level.  A candidate P + v@C is
coded from its parent P without being built (`_child_codes`): its centre
is P's or one hop from it, so its roots are cliques of P, and rooted at
each it is P's rooted structure plus v as one new leaf.  P is folded once
per root and ordering, every candidate rooted there refolds only v's
ancestors and keeps a running minimum, and the fold is then dropped, so
memory holds one fold and one code per candidate.  Only a candidate whose
code is new in its level is built, so every level builds exactly its
classes, each carried over from its parent's masks, incidence arrays and
clique table (`KTree.from_parent`) rather than rebuilt from its records.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import permutations

from .chartree import _joined, _walk
from .core import KTree, _clique_node, build_from_construction, k_cliques
from .errors import BadK, SizeTooSmall, TooLarge

# The largest order of a class enumeration, per k; any other k is refused.
# Each entry is the last order whose levels k..n built in at most about 90 s,
# the time of k = 2, n = 13, on 2 shared cores (Python 3.11); for k >= 3 the
# next order took over 170 s.  Those times were taken when every candidate was
# built.  Coded from its parent and extended from it, iso_levels(k,
# CLASS_MAX_ORDER[k]) took, in fresh processes on the same machine, with n and
# the process's peak RSS in parentheses, three runs each: 0.61-0.66 s at k = 1
# (n = 14, 23 MB), 7.8-9.4 s at k = 2 (n = 13, 130 MB), 2.8-3.1 s at k = 3
# (n = 12, 40 MB) and 2.5-2.7 s at k = 4 (n = 12, 21 MB); one run each: 2.9 s
# at k = 5, 6.6 s at k = 6 and 17 s at k = 7 (n = 12), 18 s at k = 8 and 27 s
# at k = 9 (n = 11), each at 14-15 MB.  The caps still stand on the older
# times; no order past a cap has been timed again.  Trees stop at n = 14,
# where a tree suite costs far more per host than the enumeration.  From
# k = 10 on, coding the one class of order k + 1 alone takes minutes, so no
# code is made above k = 9.
CLASS_MAX_ORDER = {1: 14, 2: 13, 3: 12, 4: 12, 5: 12, 6: 12, 7: 12, 8: 11, 9: 11}


def require_class_order(k, n):
    """Refuse a class enumeration that `CLASS_MAX_ORDER` does not admit."""
    top = CLASS_MAX_ORDER.get(k)
    if top is None:
        raise BadK(f"class enumeration takes k in 1..{max(CLASS_MAX_ORDER)}, got {k}")
    if n > top:
        raise TooLarge(f"class enumeration at k={k} is capped at n <= {top}")


def _require_codable(k, n):
    """Codes spend two bytes on n, and a host is coded under all k!
    orderings of a root clique; refuse n that would not fit and k above
    the largest k that `CLASS_MAX_ORDER` admits, before any ordering."""
    top = max(CLASS_MAX_ORDER)
    if k > top or n > 65535:
        raise TooLarge(f"codes need k <= {top} and n <= 65535, got k={k}, n={n}")


def _head(offsets, cmem):
    """A vertex's label head: its sorted ancestor offsets, each in one byte,
    and the size of its attachment inside the root clique."""
    if offsets and offsets[-1] > 255:
        raise TooLarge(f"ancestor offset {offsets[-1]} exceeds one code byte")
    return bytes([len(offsets), *offsets, len(cmem)])


def _rooted_structure(T, C):
    """`_rooted_at` the k-clique C, given in any vertex order and located
    through `core`."""
    return _rooted_at(T, *_clique_node(T, C))


def _rooted_at(T, C, r):
    """Parent positions (`up[i] < i`, position 0 the clique node) and, per
    vertex, its ancestor-offset label head and attachment inside C; also
    the walk's vertices and the depth of each vertex (by id, 0 in C).  C is
    the sorted root clique and r its incidence node."""
    _require_codable(T.k, T.n)
    inc = T._incidence
    verts, up, chain = _walk(T, r)
    cset = set(C)
    depth = [0]  # by position
    at_depth = [0] * (T.n + 1)  # by vertex
    labels = [None]
    for i, (v, attach) in enumerate(zip(verts, _joined(inc, verts, chain)), 1):
        d = depth[up[i]] + 1
        cmem = [u for u in attach if u in cset]
        head = _head(sorted(d - at_depth[u] for u in attach if u not in cset), cmem)
        depth.append(d)
        at_depth[v] = d
        labels.append((head, cmem))
    return verts, up, labels, at_depth


def _fold(up, labels, cindex):
    """Fold child codes into their parents, last position first, so every
    node's children are complete before it is.

    Returns, by position, each node's stem (its code up to its children),
    its code, and its children's codes sorted; `codes[0]` is the rooted
    code, and `_grow` reads the rest.
    """
    stems = [b"(R"] * len(up)
    codes = stems[:]
    subs = [[] for _ in up]
    for i in range(len(up) - 1, 0, -1):
        head, cmem = labels[i]
        kids = subs[i]
        kids.sort()
        stems[i] = stem = b"(" + head + bytes(sorted(cindex[u] for u in cmem))
        codes[i] = code = stem + b"".join(kids) + b")"
        subs[up[i]].append(code)
    subs[0].sort()
    codes[0] = b"(R" + b"".join(subs[0]) + b")"
    return stems, codes, subs


def _grow(up, folded, i, stem):
    """The rooted code of a folded host with one leaf appended below
    position i, refolding only the leaf's ancestors."""
    stems, codes, subs = folded
    new = stem + b")"
    kids = subs[i][:]
    insort(kids, new)
    while i:
        new = stems[i] + b"".join(kids) + b")"
        old = codes[i]
        i = up[i]
        kids = subs[i][:]
        kids[bisect_left(kids, old)] = new
        kids.sort()
    return b"(R" + b"".join(kids) + b")"


def _codes(T, roots):
    """Rooted codes of T over the given root clique nodes and all the
    orderings of their cliques."""
    clique = T._incidence.clique
    for r in roots:
        C = clique(r)
        _, up, labels, _ = _rooted_at(T, C, r)
        for order in permutations(C):
            yield _fold(up, labels, {v: i + 1 for i, v in enumerate(order)})[1][0]


def rooted_code(T, C):
    """Code of T rooted at clique C, its vertices ordered ascending."""
    _, up, labels, _ = _rooted_structure(T, C)
    return _fold(up, labels, {v: i + 1 for i, v in enumerate(sorted(C))})[1][0]


def rooted_code_set(T):
    """Every rooted code of T, over all root cliques and orderings."""
    return frozenset(_codes(T, range(1 + T.k * len(T.build))))


def _faces(inc, s):
    """The k-clique nodes of step s: attach_s, then the faces it made."""
    k = inc.k
    return (inc.attach_node[s], *range(1 + k * s, 1 + k * s + k))


def _incidence_tree(inc):
    """Neighbour lists of the clique-incidence tree: a k-clique node j as
    j, step s as K + s, where K = 1 + k*m is the number of k-cliques.

    Its nodes are the k-cliques and the (k+1)-cliques (the steps) of the
    host's incidence index (`core.CliqueIncidence`), each step joined to
    its k+1 faces.
    """
    m = len(inc.attach_node)
    K = 1 + inc.k * m
    nbrs = [[] for _ in range(K + m)]
    for s in range(m):
        for j in _faces(inc, s):
            nbrs[j].append(K + s)
            nbrs[K + s].append(j)
    return nbrs


def _bfs(nbrs, x):
    """The nodes in breadth-first order from x, and the parent of each
    (x is its own)."""
    parent = [-1] * len(nbrs)
    parent[x] = x
    order = [x]
    for y in order:
        for z in nbrs[y]:
            if parent[z] < 0:
                parent[z] = y
                order.append(z)
    return order, parent


def _centre(nbrs):
    """The centre node of the clique-incidence tree: the middle of a
    longest path.  A sweep from any node ends at one end a of such a path,
    and a sweep from a ends at the other.  A step has k+1 faces, so every
    leaf is a k-clique, every leaf-to-leaf path has even length, and the
    middle is one node."""
    a = _bfs(nbrs, 0)[0][-1]
    order, parent = _bfs(nbrs, a)
    path = [order[-1]]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[len(path) // 2]


def _root_nodes(inc, x):
    """The root k-clique nodes of incidence node x (numbered as by
    `_incidence_tree`): x itself if it is a k-clique, else the k+1 faces
    of its step."""
    K = 1 + inc.k * len(inc.attach_node)
    return (x,) if x < K else _faces(inc, x - K)


def _centre_roots(T):
    """The k-clique nodes at the centre of the clique-incidence tree."""
    inc = T._incidence
    return _root_nodes(inc, _centre(_incidence_tree(inc)))


def canonical_code(T):
    """Equal for two k-trees iff they are isomorphic.

    The code spends one byte on k and on each ancestor offset and two bytes
    on n; a host beyond those limits, or with k above 9, raises TooLarge.
    """
    _require_codable(T.k, T.n)
    header = bytes([T.k]) + T.n.to_bytes(2, "big")
    if T.n == T.k:
        return header
    return header + min(_codes(T, _centre_roots(T)))


def _extend(T, C):
    """T plus one new vertex attached at clique C, carried over from T's
    masks, incidence arrays and clique table."""
    return KTree.from_parent(T, C)


def _child_codes(T, cliques):
    """`canonical_code(_extend(T, C))` for each C in cliques, in order,
    without building the children.

    The child's incidence tree is T's plus one step at C and that step's k
    new leaf faces, two edges further from T's centre than C.  Every leaf
    of T lies at most the radius r from the centre, at the parity of r, so
    the child keeps T's centre unless C lies at distance r; then its centre
    is the node one hop from T's centre toward C.  Either way every root of
    the child is a clique R of T, and the child rooted at R is T rooted at
    R with v = n + 1 appended: v's parent is the deepest vertex of C - R
    (the C-node if C = R), its offsets are measured from there, and C & R
    is its attachment inside R.  So the children are grouped by root, T is
    folded once per root and ordering, and each child of that root refolds
    only v's ancestors (`_grow`) and keeps its least code so far; a fold is
    dropped once its children have read it.
    """
    k, n = T.k, T.n + 1
    _require_codable(k, n)
    inc = T._incidence
    nbrs = _incidence_tree(inc)
    centre = _centre(nbrs)
    # each node's distance from the centre, and the first hop on the way
    order, parent = _bfs(nbrs, centre)
    dist = [0] * len(nbrs)
    hop = list(range(len(nbrs)))
    for y in order[1:]:
        x = parent[y]
        dist[y] = dist[x] + 1
        if x != centre:
            hop[y] = hop[x]
    radius = dist[order[-1]]
    by_root = {}  # root node -> the children rooted there, by index
    for c, C in enumerate(cliques):
        j = _clique_node(T, C)[1]
        for r in _root_nodes(inc, centre if dist[j] < radius else hop[j]):
            by_root.setdefault(r, []).append(c)
    best = [None] * len(cliques)
    for r, children in by_root.items():
        R = inc.clique(r)
        verts, up, labels, depth = _rooted_at(T, R, r)
        pos = dict(zip(verts, range(1, len(up))))
        rset = set(R)
        leaves = []  # per child: v's parent position, label head and C & R
        for c in children:
            C = cliques[c]
            out = [u for u in C if u not in rset]
            if out:
                p = max(out, key=depth.__getitem__)
                i, d = pos[p], depth[p] + 1
            else:
                i, d = 0, 1
            cmem = [u for u in C if u in rset]
            head = b"(" + _head(sorted(d - depth[u] for u in out), cmem)
            leaves.append((c, i, head, cmem))
        for order in permutations(R):
            cindex = {v: i + 1 for i, v in enumerate(order)}
            folded = _fold(up, labels, cindex)
            for c, i, head, cmem in leaves:
                code = _grow(up, folded, i, head + bytes(sorted(cindex[u] for u in cmem)))
                if best[c] is None or code < best[c]:
                    best[c] = code
    header = bytes([k]) + n.to_bytes(2, "big")
    return [header + code for code in best]


def _levels(k, n):
    level = [build_from_construction(k, [])]
    yield k, level
    for m in range(k + 1, n + 1):
        classes = {}  # canonical code -> first candidate with it, built
        for T in level:
            cliques = k_cliques(T)
            for C, code in zip(cliques, _child_codes(T, cliques)):
                if code not in classes:
                    classes[code] = _extend(T, C)
        level = list(classes.values())
        yield m, level


def iso_levels(k, n):
    """Yield (m, one representative per isomorphism class of order m) for
    m = k..n, building each level once from the one before it.

    At each level every representative P is extended at every clique C,
    and a candidate is kept iff its canonical code is new.  Every class at
    level m+1 has a parent class at level m (delete any k-leaf), so
    extending representatives alone reaches every class.  A candidate is
    coded from P's rooted structures (`_child_codes`), with the bytes
    `canonical_code` would give it, and only a candidate that is kept is
    built.  The order range is checked, against `CLASS_MAX_ORDER` too,
    before the first level is built.
    """
    if n < k:
        raise SizeTooSmall(f"need n >= k, got n={n}")
    require_class_order(k, n)
    return _levels(k, n)


def enumerate_ktrees_up_to_iso(k, n):
    """One representative per isomorphism class of k-trees of order n: the
    last level of `iso_levels(k, n)`."""
    for _, level in iso_levels(k, n):
        pass
    return level
