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
their canonical codes are equal.  The centre is found by stripping leaves
in a loop on the host's shared incidence index (`core.CliqueIncidence`),
the same index whose walk from C (`chartree._walk`) gives the rooted
structure, so no code peels the host.

Class enumeration keeps one canonical code per class and level.
`iso_levels` yields the levels k..n in turn, each built once from the one
before, so a corpus over a range of orders builds every level once;
`enumerate_ktrees_up_to_iso` is its last level.
"""

from __future__ import annotations

from itertools import permutations

from .chartree import _walk
from .core import KTree, build_from_construction, k_cliques
from .errors import BadK, SizeTooSmall, TooLarge

# The largest order of a class enumeration, per k; any other k is refused.
# Each entry is the last order whose levels k..n built in at most about 90 s,
# the time of k = 2, n = 13, on 2 shared cores (Python 3.11); for k >= 3 the
# next order took over 170 s.  Trees stop at n = 14, where a tree suite costs
# far more per host than the enumeration.  From k = 10 on, coding the one
# class of order k + 1 alone takes minutes.
CLASS_MAX_ORDER = {1: 14, 2: 13, 3: 12, 4: 12, 5: 12, 6: 12, 7: 12, 8: 11, 9: 11}


def require_class_order(k, n):
    """Refuse a class enumeration that `CLASS_MAX_ORDER` does not admit."""
    top = CLASS_MAX_ORDER.get(k)
    if top is None:
        raise BadK(f"class enumeration takes k in 1..{max(CLASS_MAX_ORDER)}, got {k}")
    if n > top:
        raise TooLarge(f"class enumeration at k={k} is capped at n <= {top}")


def _require_codable(T):
    """Codes spend one byte on a clique position and two on n; refuse
    hosts whose k or n would not fit."""
    if T.k > 255 or T.n > 65535:
        raise TooLarge(f"codes need k <= 255 and n <= 65535, got k={T.k}, n={T.n}")


def _rooted_structure(T, C):
    """Parent positions (`up[i] < i`, position 0 the clique node) and, per
    vertex, its ancestor-offset label head and attachment inside C."""
    _require_codable(T)
    verts, up, via = _walk(T, C)
    clique = T._incidence.clique
    cset = set(C)
    depth = [0]  # by position
    at_depth = [0] * (T.n + 1)  # by vertex
    labels = [None]
    for i, (v, j) in enumerate(zip(verts, via), 1):
        d = depth[up[i]] + 1
        attach = clique(j)
        offsets = sorted(d - at_depth[u] for u in attach if u not in cset)
        if offsets and offsets[-1] > 255:
            raise TooLarge(f"ancestor offset {offsets[-1]} exceeds one code byte")
        cmem = [u for u in attach if u in cset]
        head = bytes([len(offsets), *offsets, len(cmem)])
        depth.append(d)
        at_depth[v] = d
        labels.append((head, cmem))
    return up, labels


def _code_with_order(up, labels, cindex):
    """Fold child codes into their parents, last position first, so every
    node's children are complete before it is."""
    subs = [[] for _ in up]
    for i in range(len(up) - 1, 0, -1):
        head, cmem = labels[i]
        kids = subs[i]
        kids.sort()
        subs[up[i]].append(
            b"(" + head + bytes(sorted(cindex[u] for u in cmem)) + b"".join(kids) + b")"
        )
    subs[0].sort()
    return b"(R" + b"".join(subs[0]) + b")"


def _codes(T, roots):
    """Rooted codes of T over the given root cliques and all their orderings."""
    for C in roots:
        up, labels = _rooted_structure(T, C)
        for order in permutations(C):
            yield _code_with_order(up, labels, {v: i + 1 for i, v in enumerate(order)})


def rooted_code(T, C, order=None):
    """Code of T rooted at clique C with the given vertex ordering of C."""
    C = tuple(sorted(C))
    if order is None:
        order = C
    up, labels = _rooted_structure(T, C)
    return _code_with_order(up, labels, {v: i + 1 for i, v in enumerate(order)})


def rooted_code_set(T):
    """Every rooted code of T, over all root cliques and orderings."""
    return frozenset(_codes(T, k_cliques(T)))


def _centre_roots(T):
    """The k-cliques at the centre of the clique-incidence tree.

    The tree is the host's incidence index (`core.CliqueIncidence`), whose
    nodes are the k-cliques and the (k+1)-cliques (the steps).  A
    (k+1)-clique has k+1 faces, so every leaf is a k-clique, every
    leaf-to-leaf path has even length, and stripping all leaves round by
    round ends at a single node.  The rounds alternate: k-cliques, then
    (k+1)-cliques.  The roots are the last node if it is a k-clique, else
    its k+1 faces.  A k-clique keeps the XOR of its steps not yet
    stripped, so a leaf names its one remaining step without a scan.
    """
    inc = T._incidence
    k, attach_node = inc.k, inc.attach_node

    def faces(s):
        return (attach_node[s], *range(1 + k * s, 1 + k * s + k))

    kdeg = [1] * (1 + k * len(attach_node))
    kxor = [(j - 1) // k for j in range(len(kdeg))]
    kdeg[0] = kxor[0] = 0
    for s, j in enumerate(attach_node):
        kdeg[j] += 1
        kxor[j] ^= s
    sdeg = [k + 1] * len(attach_node)
    leaves = [j for j, d in enumerate(kdeg) if d <= 1]
    # a node stripped earlier drops from 1 to 0, never to 1
    while True:
        tops = []
        for j in leaves:
            # a k-clique whose last two steps went in one round is at 0:
            # it is the centre, and its XOR names no step
            if kdeg[j]:
                s = kxor[j]
                sdeg[s] -= 1
                if sdeg[s] == 1:
                    tops.append(s)
        if not tops:
            (j,) = leaves
            return [inc.clique(j)]
        leaves = []
        for s in tops:
            for j in faces(s):
                kdeg[j] -= 1
                kxor[j] ^= s
                if kdeg[j] == 1:
                    leaves.append(j)
        if not leaves:
            (s,) = tops
            return [inc.clique(j) for j in faces(s)]


def canonical_code(T):
    """Equal for two k-trees iff they are isomorphic.

    The code spends one byte on k and on each ancestor offset and two bytes
    on n; a host beyond those limits raises TooLarge.
    """
    _require_codable(T)
    header = bytes([T.k]) + T.n.to_bytes(2, "big")
    if T.n == T.k:
        return header
    return header + min(_codes(T, _centre_roots(T)))


def isomorphic(T1, T2):
    """Exact k-tree isomorphism test."""
    return canonical_code(T1) == canonical_code(T2)


def _extend(T, C):
    """T plus one new vertex attached at clique C."""
    adds = list(T.build) + [(T.n + 1, C)]
    return KTree.from_parts(T.k, T.base, adds, validate=False)


def _levels(k, n):
    level = [build_from_construction(k, [])]
    yield k, level
    for m in range(k + 1, n + 1):
        classes = {}  # canonical code -> first candidate with it
        for T in level:
            for C in k_cliques(T):
                cand = _extend(T, C)
                classes.setdefault(canonical_code(cand), cand)
        level = list(classes.values())
        yield m, level


def iso_levels(k, n):
    """Yield (m, one representative per isomorphism class of order m) for
    m = k..n, building each level once from the one before it.

    At each level every representative is extended at every clique and a
    candidate is kept iff its canonical code is new.  Every class at level
    m+1 has a parent class at level m (delete any k-leaf), so extending
    representatives alone reaches every class.  The order range is checked,
    against `CLASS_MAX_ORDER` too, before the first level is built.
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
