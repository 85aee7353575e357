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
code is the minimum rooted code over the centre's k-cliques that lie in
the most (k+1)-cliques (one clique, or some faces of a centre step), each
under the orderings along which the vertex degree never falls (the
clique sorted by degree, permuted within each run of equal degree).  An
isomorphism maps the centre, clique counts and degrees onto themselves,
so it maps these (root, ordering) pairs onto the other host's, and two
k-trees are isomorphic iff their canonical codes are equal.  This is the
first step of individualisation-refinement (McKay and Piperno, "Practical
graph isomorphism, II", 2014): at most (k+1) * k! pairs, and far fewer
when the degrees differ.  The host's shared incidence index
(`core.CliqueIncidence`) gives both halves, so no code peels the host and
this module knows neither its numbering nor its layout: `centre()` gives
the centre's root cliques, the roots of each child's centre and every
clique count, and the walk from C (`walk`, with `joined`) gives the
rooted structure.  A vertex's label reads the k-clique it joins: the
clique of its chain node for a vertex on the walk's chain, and its own
build record's attachment, already sorted, for every other.

Class enumeration keeps one canonical code per class and level.
`iso_levels` yields the levels k..n in turn, each built once from the one
before, so a corpus over a range of orders builds every level once;
`enumerate_ktrees_up_to_iso` is its last level.  A candidate P + v@C is
coded from its parent P without being built (`_child_codes`): its centre
is P's or one hop from it, so its roots are cliques of P, and rooted at
each it is P's rooted structure plus v as one new leaf.  Its clique
counts are P's plus one at C, and its degrees P's plus one at each vertex
of C, so its roots and orderings are read off P before it exists.  P is
folded once per root and per ordering that some candidate rooted there
admits; each candidate admitting it refolds only v's ancestors and keeps
a running minimum, and the fold is then dropped, so memory holds one fold
and one code per candidate.  Only a candidate whose code is new in its
level is built, so every level builds exactly its classes.  `_levels`
builds each with `KTree.from_parent`, carried over from its parent's
masks, incidence arrays and clique table rather than rebuilt from its
records.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import partial
from itertools import groupby, permutations, product

from .core import KTree, _clique_node, _require_int, build_from_construction, k_cliques
from .errors import BadK, SizeTooSmall, TooLarge

# The largest order of a class enumeration, per k; any other k is refused.
# Each entry is the last order whose levels k..n built in at most about 90 s,
# the time of k = 2, n = 13, on 2 shared cores (Python 3.11); for k >= 3 the
# next order took over 170 s.  Those times were taken when every candidate was
# built.  Coded from its parent at every centre root and all k! orderings,
# then at the kept roots and degree orderings only, iso_levels(k,
# CLASS_MAX_ORDER[k]) took, in fresh processes on the same machine, with n and
# the process's peak RSS in parentheses, three alternating runs each:
# 0.60-0.70 -> 0.67-0.69 s at k = 1 (n = 14, 27 MB), 7.6-7.9 -> 6.3-6.6 s at
# k = 2 (n = 13, 146 MB), 2.7-2.9 -> 1.2-1.3 s at k = 3 (n = 12, 44-46 MB) and
# 2.5-2.6 -> 0.45-0.54 s at k = 4 (n = 12, 24-25 MB); one run each: 2.7 ->
# 0.22 s at k = 5, 4.8 -> 0.26 s at k = 6 and 13 -> 0.86 s at k = 7 (n = 12),
# 16 -> 3.9 s at k = 8 and 20 -> 20 s at k = 9 (n = 11), at 17-20 MB.  At
# k = 9 each child of K_10 ties all 9 degrees on its one root, so all 9!
# orderings stay.  The caps still stand on the older times; no order past a
# cap has been timed again.  Trees stop at n = 14,
# where a tree suite costs far more per host than the enumeration.  From
# k = 10 on, coding the one class of order k + 1 alone takes minutes, so no
# code is made above k = 9.
CLASS_MAX_ORDER = {1: 14, 2: 13, 3: 12, 4: 12, 5: 12, 6: 12, 7: 12, 8: 11, 9: 11}


def require_class_order(k, n):
    """Refuse a class enumeration that `CLASS_MAX_ORDER` does not admit."""
    _require_int(n, "n")
    top = CLASS_MAX_ORDER.get(_require_int(k, "k", error=BadK))
    if top is None:
        raise BadK(f"class enumeration takes k in 1..{max(CLASS_MAX_ORDER)}, got {k}")
    if n > top:
        raise TooLarge(f"class enumeration at k={k} is capped at n <= {top}")


def _require_codable(k, n):
    """Codes spend two bytes on n, and a host whose degrees tie on a root
    clique is coded under all k! orderings of it; refuse n that would not
    fit and k above the largest k that `CLASS_MAX_ORDER` admits, before
    any ordering."""
    top = max(CLASS_MAX_ORDER)
    if k > top or n > 65535:
        raise TooLarge(f"codes need k <= {top} and n <= 65535, got k={k}, n={n}")


def _header(k, n):
    """A code's header: k in one byte, then n in two."""
    return bytes([k]) + n.to_bytes(2, "big")


def _head(offsets, cmem):
    """A vertex's label head: its sorted ancestor offsets, each in one byte,
    and the size of its attachment inside the root clique."""
    if offsets and offsets[-1] > 255:
        raise TooLarge(f"ancestor offset {offsets[-1]} exceeds one code byte")
    return bytes([len(offsets), *offsets, len(cmem)])


def _rooted_at(T, C, r):
    """Parent positions (`up[i] < i`, position 0 the clique node) and, per
    vertex, its ancestor-offset label head and attachment inside C; also
    the walk's vertices and the depth of each vertex (by id, 0 in C).  C is
    the sorted root clique and r its incidence node."""
    _require_codable(T.k, T.n)
    inc = T._incidence
    verts, up, chain = inc.walk(r)
    cset = set(C)
    depth = [0]  # by position
    at_depth = [0] * (T.n + 1)  # by vertex
    labels = [None]
    for i, (v, attach) in enumerate(zip(verts, inc.joined(verts, chain)), 1):
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


def _codes(T, roots, orderings):
    """Rooted codes of T over the given root clique nodes, each under the
    orderings of its clique that `orderings` yields."""
    clique = T._incidence.clique
    for r in roots:
        C = clique(r)
        _, up, labels, _ = _rooted_at(T, C, r)
        for order in orderings(C):
            yield _fold(up, labels, {v: i + 1 for i, v in enumerate(order)})[1][0]


def _orderings(R, deg):
    """The orderings of clique R along which the degree `deg[v]` never
    falls: R sorted by degree, permuted within each run of equal degree.
    The largest run's permutations are drawn lazily, innermost; the other
    runs' are held, a few dozen at most, since none is larger (all k! of a
    clique whose degrees tie would be 362,880 tuples at k = 9)."""
    by_degree = sorted(R, key=deg.__getitem__)
    runs = [tuple(run) for _, run in groupby(by_degree, key=deg.__getitem__)]
    big = max(range(len(runs)), key=lambda i: len(runs[i]))
    for parts in product(*map(permutations, runs[:big] + runs[big + 1 :])):
        head, tail = sum(parts[:big], ()), sum(parts[big:], ())
        for middle in permutations(runs[big]):
            yield head + middle + tail


def _admits(deg, order):
    """Whether the degree `deg[v]` never falls along `order`."""
    return all(deg[a] <= deg[b] for a, b in zip(order, order[1:]))


def _busiest(roots, counts):
    """The roots that lie in the most (k+1)-cliques, `counts[i]` of them
    for `roots[i]`."""
    top = max(counts)
    return [r for r, count in zip(roots, counts) if count == top]


def rooted_code(T, C):
    """Code of T rooted at clique C, its vertices ordered ascending."""
    C, j = _clique_node(T, C)
    return next(_codes(T, (j,), lambda R: (R,)))


def rooted_code_set(T):
    """Every rooted code of T, over all root cliques and orderings."""
    return frozenset(_codes(T, T._incidence.nodes, permutations))


def canonical_code(T):
    """Equal for two k-trees iff they are isomorphic.

    The least rooted code over the centre cliques in the most
    (k+1)-cliques, each under the orderings along which the degree never
    falls.  The code spends one byte on k and on each ancestor offset and
    two bytes on n; a host beyond those limits, or with k above 9, raises
    TooLarge.  Only the kept roots are walked, so a host whose ancestor
    offsets pass one byte only at a centre clique that is not kept is
    coded, not refused.
    """
    _require_codable(T.k, T.n)
    header = _header(T.k, T.n)
    if T.n == T.k:
        return header
    roots, _, degree = T._incidence.centre()
    roots = _busiest(roots, [degree[r] for r in roots])
    deg = [m.bit_count() for m in T.masks]
    return header + min(_codes(T, roots, partial(_orderings, deg=deg)))


def _child_codes(T, cliques):
    """`canonical_code(KTree.from_parent(T, C))` for each C in cliques, in
    order, without building the children.

    The child's incidence tree is T's plus one step at C, so its centre is
    T's or one hop from it toward C, as the index's `centre()` gives it.
    Every root of the child is a clique R of T, and the child rooted at R
    is T rooted at R with v = n + 1 appended: v's parent is the deepest vertex of C - R
    (the C-node if C = R), its offsets are measured from there, and C & R
    is its attachment inside R.  In the child, R lies in T's count of
    (k+1)-cliques, plus one if R = C, and a vertex of R has its degree in
    T, plus one if it lies in C; so the child's kept roots are read off T,
    and its orderings of R off its degree key: each vertex of R ranked by
    its child degree, so that children whose degrees sort R into the same
    runs share a key.  The children are grouped by root and, within a
    root, by degree key; T is folded once per root and per ordering that
    some key admits, and each child whose key admits it refolds only v's
    ancestors (`_grow`) and keeps its least code so far; a fold is dropped
    once its children have read it.
    """
    k, n = T.k, T.n + 1
    _require_codable(k, n)
    inc = T._incidence
    _, grown, degree = inc.centre()
    by_root = {}  # root node -> the children rooted there, by index
    for c, C in enumerate(cliques):
        j = _clique_node(T, C)[1]
        roots = grown[j]
        for r in _busiest(roots, [degree[r] + (r == j) for r in roots]):
            by_root.setdefault(r, []).append(c)
    deg = [m.bit_count() for m in T.masks]
    best = [None] * len(cliques)
    for r, children in by_root.items():
        R = inc.clique(r)
        verts, up, labels, depth = _rooted_at(T, R, r)
        pos = dict(zip(verts, range(1, len(up))))
        rset = set(R)
        groups = {}  # degree key -> per child: v's parent position, head, C & R
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
            degree = [deg[u] + (u in C) for u in R]
            key = tuple(map(sorted(degree).index, degree))
            groups.setdefault(key, []).append((c, i, head, cmem))
        keys = [dict(zip(R, key)) for key in groups]  # rank by vertex
        groups = list(groups.values())
        for g, key in enumerate(keys):
            earlier, later = keys[:g], list(zip(keys[g:], groups[g:]))
            for order in _orderings(R, key):
                if earlier and any(_admits(e, order) for e in earlier):
                    continue  # folded already, under an earlier key
                cindex = {v: i + 1 for i, v in enumerate(order)}
                folded = _fold(up, labels, cindex)
                for e, leaves in later:
                    if e is not key and not _admits(e, order):
                        continue
                    for c, i, head, cmem in leaves:
                        code = _grow(up, folded, i, head + bytes(sorted(cindex[u] for u in cmem)))
                        if best[c] is None or code < best[c]:
                            best[c] = code
    header = _header(k, n)
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
                    classes[code] = KTree.from_parent(T, C)
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
    built.  k and n are read, and the order range checked against
    `CLASS_MAX_ORDER`, on the call itself, before the generator is made.
    """
    require_class_order(k, n)
    _require_int(n, "n", k, SizeTooSmall)
    return _levels(k, n)


def enumerate_ktrees_up_to_iso(k, n):
    """One representative per isomorphism class of k-trees of order n: the
    last level of `iso_levels(k, n)`."""
    for _, level in iso_levels(k, n):
        pass
    return level
