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

Class enumeration is canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998), with an invariant ranking of
k-leaves in place of a canonical one.  `iso_levels` yields the levels
k..n in turn, each made once from the one before, so a corpus over a
range of orders makes every level once; `enumerate_ktrees_up_to_iso` is
its last level.  A candidate P + v@C is a representative P with a new
vertex v joined to its k-clique C.  Its k-leaves are v and P's k-leaves
outside C, each ranked by the sorted degrees of its k neighbours, all read
off P (`_leaf_rank`); L is the set of best-ranked leaves.  A candidate
whose v is not in L is skipped unseen, since its class is reached by
deleting a leaf of L instead.  If every leaf of L shares v's
neighbourhood (v alone, or v and its twins), deleting any of them gives
P, so the class is reached from P alone: it is kept once among P's own
children, told apart by their sorted leaf keys, and coded only where two
of them share those keys.  Otherwise the class may be reached from
several parents, and is kept by its code in a set that the level holds
for these classes alone.  Before any of P's children is coded, those
whose cliques meet each twin class of P (`_twins`) in as many vertices
are merged: permuting twins is an automorphism of P, which maps one
clique onto the other, so their children are isomorphic.

A candidate is coded from its parent P without being built
(`_child_codes`): its centre is P's or one hop from it, so its roots are
cliques of P, and rooted at each it is P's rooted structure plus v as one
new leaf.  Its clique counts are P's plus one at C, and its degrees P's
plus one at each vertex of C, so its roots and orderings are read off P
before it exists.  P is folded once per root and per ordering that some
candidate rooted there admits; each candidate admitting it refolds only
v's ancestors and keeps a running minimum, and the fold is then dropped,
so memory holds one fold and one code per candidate.  Only the candidate
that is kept for its class is built, so every level builds exactly its
classes.  `_levels` builds each with `KTree.from_parent`, carried over
from its parent's masks, incidence arrays and clique table rather than
rebuilt from its records.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from functools import partial
from itertools import groupby, permutations, product
from operator import itemgetter

from .core import (
    KTree,
    _clique_node,
    _mask_vertices,
    _require_int,
    build_from_construction,
    k_cliques,
)
from .errors import BadK, SizeTooSmall, TooLarge

# The largest order of a class enumeration, per k; any other k is refused.
# Each entry is the last order whose levels k..n built in at most about 90 s,
# the time of k = 2, n = 13, on 2 shared cores (Python 3.11), when every
# candidate was built; for k >= 3 the next order took over 170 s.  No order
# past a cap has been timed since, and a cap is raised only with a new
# measurement.  Coding every candidate from its parent, then only candidates
# whose new vertex is a best-ranked k-leaf, that no twin swap merges and that
# an invariant cannot tell apart, iso_levels(k, CLASS_MAX_ORDER[k]) took, in
# fresh processes on the same machine, with n and the process's peak RSS in
# parentheses, three alternating runs each: 0.69-0.84 -> 0.42-0.50 s at k = 1
# (n = 14, 22 MB), 6.1-7.1 -> 3.7-4.5 s at k = 2 (n = 13, 130 -> 124 MB),
# 1.24-1.35 -> 0.68-0.77 s at k = 3 (n = 12, 40 -> 39 MB) and 0.46-0.47 ->
# 0.20-0.22 s at k = 4 (n = 12, 21 MB); one run each, at 14-16 MB: 0.21 ->
# 0.08 s at k = 5, 0.25 -> 0.05 s at k = 6 and 0.85 -> 0.10 s at k = 7
# (n = 12), 3.6 -> 0.07 s at k = 8 and 23 -> 0.00 s at k = 9 (n = 11).  At
# k = 9 every vertex of K_10 is a twin of the others, so its ten children
# are merged into one and none is coded, where each took all 9! orderings
# of its one root.  Trees stop at n = 14, where a tree suite costs far more
# per host than the enumeration.  From k = 10 on, coding K_(k+1), whose
# degrees all tie, takes minutes, so no code is made above k = 9.
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
    runs share a key.  The key depends on C only through C & R, so it is
    made once per C & R.  The children are grouped by root and, within a
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
        key_of = {}  # C & R -> the degree key of the children that share it
        groups = {}  # degree key -> per child: v's parent position, head, C & R
        for c in children:
            C = cliques[c]
            out = [u for u in C if u not in rset]
            if out:
                p = max(out, key=depth.__getitem__)
                i, d = pos[p], depth[p] + 1
            else:
                i, d = 0, 1
            cmem = tuple(u for u in C if u in rset)
            head = b"(" + _head(sorted(d - depth[u] for u in out), cmem)
            key = key_of.get(cmem)
            if key is None:
                degree = [deg[u] + (u in cmem) for u in R]
                key_of[cmem] = key = tuple(map(sorted(degree).index, degree))
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


_TIE = object()  # the best-ranked k-leaves of a child differ in neighbourhood


def _leaf_rank(deg, leaves, C):
    """How the child P + v@C ranks its new vertex v among its k-leaves.

    `deg` holds P's degrees and `leaves` P's k-leaves, each as (its bit,
    its neighbour mask, its neighbours, its key in P).  The child's k-leaves
    are v and P's k-leaves outside C.  A leaf's key is the sorted child
    degrees (P's, plus one on C) of its k neighbours, and L is the set of
    leaves of greatest key.  Returns None if v is not in L, `_TIE` if some
    leaf of L has a neighbourhood other than C, and otherwise the child's
    leaf keys, sorted: an invariant of the child.
    """
    key = tuple(sorted(deg[u] + 1 for u in C))
    cmask = 0
    for u in C:
        cmask |= 1 << (u - 1)
    ranked = [key]
    tie = False
    for bit, nmask, nbrs, own in leaves:
        if bit & cmask:
            continue  # a vertex of C gains v and is no k-leaf of the child
        if own > key:
            return None  # a key in the child is at least the key in P
        if nmask & cmask:
            own = tuple(sorted(deg[w] + (w in C) for w in nbrs))
            if own > key:
                return None
        tie = tie or (own == key and nmask != cmask)
        ranked.append(own)
    return _TIE if tie else tuple(sorted(ranked))


def _twins(P):
    """Per vertex of P, the least vertex of its twin class: the vertices
    with its closed neighbourhood if there are others, else those with its
    open neighbourhood.  No vertex has twins of both kinds: if a shares
    u's closed neighbourhood and c its open one, a lies in N(c) = N(u), so
    c lies in N[a] = N[u], yet c is not adjacent to u.  So the classes are
    disjoint, and any permutation within each is an automorphism of P:
    two cliques that meet every class in as many vertices are mapped onto
    each other by one, and their children are isomorphic."""
    closed, opened = {}, {}
    for u in P.vertices:
        closed.setdefault(P.masks[u] | 1 << (u - 1), []).append(u)
        opened.setdefault(P.masks[u], []).append(u)
    twin = list(range(P.n + 1))
    for group in [*closed.values(), *opened.values()]:
        if len(group) > 1:
            for u in group:
                twin[u] = group[0]
    return twin


def _levels(level, n):
    """Yield `level`, one representative per class of some order, and each
    level after it up to order n, each made from the one before it."""
    yield level[0].n, level
    for m in range(level[0].n + 1, n + 1):
        ties = set()  # codes of this level's classes whose L holds non-twins
        out = []
        for P in level:
            cliques = k_cliques(P)
            deg = [mask.bit_count() for mask in P.masks]
            leaves = []
            for u in P.k_leaf_set():
                nbrs = _mask_vertices(P.masks[u])
                key = tuple(sorted(deg[w] for w in nbrs))
                leaves.append((1 << (u - 1), P.masks[u], nbrs, key))
            # best keys first: most candidates are skipped at the first leaf
            leaves.sort(key=itemgetter(3), reverse=True)
            kept = [
                (C, rank) for C in cliques if (rank := _leaf_rank(deg, leaves, C)) is not None
            ]
            shared = Counter(rank for _, rank in kept)
            if any(rank is _TIE or shared[rank] > 1 for _, rank in kept):
                # before coding, keep one child per clique orbit that twins give
                twin, orbits = _twins(P), {}
                for C, rank in kept:
                    orbits.setdefault(tuple(sorted(twin[u] for u in C)), (C, rank))
                kept = orbits.values()
                shared = Counter(rank for _, rank in kept)
            coded = [C for C, rank in kept if rank is _TIE or shared[rank] > 1]
            codes = dict(zip(coded, _child_codes(P, coded))) if coded else {}
            siblings = set()  # codes of P's children whose L is v and its twins
            for C, rank in kept:
                if C in codes:
                    seen = ties if rank is _TIE else siblings
                    if codes[C] in seen:
                        continue
                    seen.add(codes[C])
                out.append(KTree.from_parent(P, C))
        level = out
        yield m, level


def iso_levels(k, n):
    """Yield (m, one representative per isomorphism class of order m) for
    m = k..n, building each level once from the one before it.

    Each representative P of a level is extended at each k-clique C to a
    candidate P + v@C, ranked as the module docstring says.  Every class
    is reached: a k-tree X of order m + 1 has a best-ranked k-leaf w, and
    X - w is isomorphic to some representative P, by a map that takes w's
    neighbourhood to a clique C of P.  So P + v@C is isomorphic to X with
    v in w's place, and since the ranking reads only degrees, v is
    best-ranked there and the candidate is not skipped; the twin merge
    drops a candidate only for an isomorphic child of P that stays, with
    the same rank.  No class is kept
    twice: whether every best-ranked leaf of X shares one neighbourhood is
    a property of X's class.  If it does, every leaf of L is a twin of the
    others, so deleting any gives the same class, and every candidate of
    X's class that is not skipped comes from that class's one
    representative P; P's children are told apart by their sorted leaf
    keys, an invariant, and by their codes where the keys agree.  If it
    does not, the level's set of codes of such classes keeps the first.  A
    candidate is coded from P's rooted structures (`_child_codes`), with
    the bytes `canonical_code` would give it, and only a candidate that is
    kept is built.  k and n are read, and the order range checked against
    `CLASS_MAX_ORDER`, on the call itself, before the generator is made.
    """
    require_class_order(k, n)
    _require_int(n, "n", k, SizeTooSmall)
    return _levels([build_from_construction(k, [])], n)


def enumerate_ktrees_up_to_iso(k, n):
    """One representative per isomorphism class of k-trees of order n: the
    last level of `iso_levels(k, n)`."""
    for _, level in iso_levels(k, n):
        pass
    return level
