"""Independent ground truth by exhaustive sub-k-tree enumeration.

Sub-k-trees are identified with their vertex sets (induced semantics).  The
oracle reads the host only through `T.k`, `T.n` and the adjacency masks
(`is_sub_ktree` also reads `T.edges()`), never the construction records,
the clique-incidence index or the characteristic-tree path it checks.

Seeds.  The k-cliques are listed from the masks: each clique is extended
by the common neighbours above its highest vertex, carrying the common
mask.

Growth is a reverse search, so each member is reached exactly once and no
set of seen members is kept.  A k-leaf of a sub-k-tree S of order > k is a
vertex of degree k inside S; the parent of S is S minus its highest k-leaf,
and the k-cliques are the roots.  Each state carries S, its frontier (the
outside vertices with a neighbour in S) and its k-leaf mask.  A frontier
vertex v gives the child S + v when

- v attaches: v has exactly k neighbours in S; and
- v is the highest k-leaf of S + v: no k-leaf of S that is not adjacent
  to v lies above v.

Exactly k neighbours in S always form a clique, so no clique test is made.
Suppose two of them, a and b, were not adjacent.  T[S] is a k-tree, so a
minimal a-b separator X of it is a k-clique.  X + v separates a from b in
T[S + v], and minimally: each vertex of X has neighbours in the components
of a and b, and so has v, namely a and b.  T[S + v] is an induced subgraph
of a k-tree, hence chordal, and a minimal separator of a chordal graph is a
clique.  So v is adjacent to all of X, and has k + 2 neighbours in S (X, a
and b), not k.

The child's frontier is `(front | masks[v]) & ~(S | v)` and its k-leaf mask
`(leaves & ~masks[v]) | v`; a root clique C passes `C | v`, and only the
common neighbours above C's highest vertex.  Only frontier vertices above
the top k-leaf, or adjacent to it, can pass, so no other is tested.

Restriction.  A `SubKTreeSet` builds on first use one membership column per
vertex, an int whose bit i, counted from member 0 at the top, is 1 iff
member i contains the vertex.  The columns are the member masks transposed
through one array of 64-bit words per 64 vertices: byte b of every word is
one slice of the raw array, and each of its bits is translated to ASCII
digits and parsed base 2.  One level mask per order, 0 where no member has
that order, is built the same way from the member orders, read one byte
each, so hosts have at most 255 vertices here.  The members containing a vertex set are the
AND of its columns, the selector; a restricted set keeps its selector and
its per-order counts, the bits the selector shares with each level, and
spells its masks only when they are read, so polynomials, means and sizes
count bits, never members.  The all-clique means read each clique's counts
off its selector the same way.

Entry points.  `enumerate_sub_ktrees` gives every member; a caller keeps
those that contain a vertex set with `.restricted(S)`, and reads a
polynomial or a mean off a set (`.poly()`, `.mean()`).  `local_members`
gives the members that contain a vertex set it has checked to be a
sub-k-tree, and `oracle_all_clique_means` the mean at every k-clique.

One enumeration per host.  Every entry point reads the full set of its host
from one slot, `_host_set`, which grows the members (and later builds the
columns and levels) once per host object.  The slot is keyed by identity,
never by `KTree.__eq__`, so an equal host parsed again is grown again, and
it holds only the most recent host: a set per host would keep every member
of a corpus, and their columns, alive at once.  Nothing is stored on the host.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import and_, rshift

from .core import _mask_vertices, recognize_ktree
from .errors import KTreeError, NotASubKTree, TooLarge
from .polynomials import IntPolynomial

DEFAULT_CAP = 16
MAX_ORDER = 255  # member orders are read one byte each

_WORD = (1 << 64) - 1
# _DIGIT[j][b] is bit j of the byte b as an ASCII digit
_DIGIT = tuple(bytes(48 | (b >> j) & 1 for b in range(256)) for j in range(8))
# _LEVEL[o][b] is the ASCII digit 1 iff the byte b is o
_LEVEL = tuple(b"0" * o + b"1" + b"0" * (255 - o) for o in range(256))
_KEEP = bytes.maketrans(b"01", b"\0\1")  # ASCII digits to the bytes 0 and 1


def _required_mask(T, required):
    """Mask of the vertices of `required`; NotASubKTree unless each is one
    of the host's vertices 1..n."""
    n = T.n
    req = 0
    for v in required:
        if not 1 <= v <= n:
            raise NotASubKTree(f"vertex {v} is not a vertex 1..{n} of the host")
        req |= 1 << (v - 1)
    return req


class SubKTreeSet:
    """All sub-k-trees of a host, as bitmasks in ascending order, optionally
    filtered.

    A full set holds its `masks`, and its selector is -1.  A restricted set
    holds the host's members, columns and level masks, its selector (bit i,
    counted from member 0 at the top, is 1 iff the set keeps member i) and
    its per-order counts, read off the selector when the set is made.  Its
    masks are spelled out only when first read, so a restricted set that
    only counts never copies them.
    """

    def __init__(self, host, masks, selector=-1, tables=None):
        self.host = host
        self._all = masks
        self._sel = selector
        if selector == -1:
            self.masks = masks
        if tables is not None:
            self._columns, self._levels = tables
            self.counts = self._counts(selector)

    @cached_property
    def masks(self):
        keep = format(self._sel, f"0{len(self._all)}b").encode().translate(_KEEP)
        return tuple(compress(self._all, keep))

    def __eq__(self, other):
        if not isinstance(other, SubKTreeSet):
            return NotImplemented
        return self.host == other.host and self.masks == other.masks

    def vertex_sets(self):
        return [tuple(_mask_vertices(m)) for m in self.masks]

    def __len__(self):
        return len(self._all) if self._sel == -1 else sum(self.counts)

    @cached_property
    def _columns(self):
        """Membership column of each vertex 1..n (index 0 unused), as an int
        whose bit i, counted from member 0 at the top, is 1 iff member i
        contains the vertex."""
        n, masks = self.host.n, self._all
        if not masks:
            return [0] * (n + 1)
        cols = [0]
        for shift in range(0, n, 64):
            # word i holds vertices shift+1..shift+64 of member i
            if n <= 64:
                words = array("Q", masks)
            else:
                words = array("Q", map(and_, map(rshift, masks, repeat(shift)), repeat(_WORD)))
            if sys.byteorder == "big":
                words.byteswap()
            raw = words.tobytes()
            for byte in range(min(8, (n - shift + 7) // 8)):
                plane = raw[byte::8]  # byte i holds 8 vertices of member i
                for j in range(min(8, n - shift - 8 * byte)):
                    cols.append(int(plane.translate(_DIGIT[j]), 2))
        return cols

    @cached_property
    def _levels(self):
        """Level mask of each order o = 0..n: bit i, counted from member 0 at
        the top, is 1 iff member i has order o; 0 if no member has."""
        orders = bytes(map(int.bit_count, self._all))
        return [int(orders.translate(_LEVEL[o]), 2) if o in orders else 0
                for o in range(self.host.n + 1)]

    def _selector(self, req):
        """The selector of this set ANDed with the columns of the vertices of
        the non-empty mask `req`: bit i is 1 iff the set keeps member i and
        member i contains all of them."""
        cols = self._columns
        sel = self._sel
        while req:
            low = req & -req
            req ^= low
            sel &= cols[low.bit_length()]
        return sel

    def _counts(self, sel):
        """counts[o] is the number of members of order o that `sel` keeps,
        o = 0..n."""
        return [(sel & level).bit_count() for level in self._levels]

    @cached_property
    def counts(self):
        """counts[o] is the number of members of order o, o = 0..n."""
        return self._counts(self._sel)

    def restricted(self, required):
        """Members containing every vertex of `required`."""
        req = _required_mask(self.host, required)
        if not req:
            return self
        tables = (self._columns, self._levels)
        return SubKTreeSet(self.host, self._all, self._selector(req), tables)

    def poly(self):
        """Generating polynomial: coefficient of x^i counts members of order i."""
        return IntPolynomial(self.counts)

    def mean(self):
        if not len(self):
            raise KTreeError("the mean order of an empty set of sub-k-trees")
        return _mean(self.counts)


def _mean(counts):
    """Mean order of a non-empty set with counts[o] members of order o."""
    return Fraction(sum(o * c for o, c in enumerate(counts)), sum(counts))


def _clique_seeds(T):
    """(mask, common-neighbour mask) of every k-clique of T, read off the
    adjacency masks: a clique grows only by common neighbours above its
    highest vertex, so each is listed once."""
    k, masks = T.k, T.masks
    out = []
    stack = [(1 << (v - 1), masks[v]) for v in range(1, T.n + 1)]
    while stack:
        C, common = stack.pop()
        if C.bit_count() == k:
            out.append((C, common))
            continue
        cand = common & -(1 << C.bit_length())
        while cand:
            low = cand & -cand
            cand ^= low
            stack.append((C | low, common & masks[low.bit_length()]))
    return out


def _cliques(T):
    """The k-cliques of T as sorted tuples, in lexicographic order."""
    return sorted(tuple(_mask_vertices(C)) for C, _ in _clique_seeds(T))


def _grow_all(T):
    """Bitmasks of every sub-k-tree of T in ascending order, each grown once
    from its parent (see the module docstring)."""
    k = T.k
    masks = T.masks
    out = []
    stack = []  # flat (S, frontier of S, k-leaves of S) triples
    for C, common in _clique_seeds(T):
        out.append(C)
        front = 0
        rest = C
        while rest:
            low = rest & -rest
            rest ^= low
            front |= masks[low.bit_length()]
        cand = common & -(1 << C.bit_length())
        while cand:
            low = cand & -cand
            cand ^= low
            S2 = C | low
            out.append(S2)
            stack.append(S2)
            stack.append((front | masks[low.bit_length()]) & ~S2)
            stack.append(S2)
    while stack:
        leaves = stack.pop()
        front = stack.pop()
        S = stack.pop()
        top = leaves.bit_length()
        cand = front & (-(1 << top) | masks[top])
        while cand:
            low = cand & -cand
            cand ^= low
            mv = masks[low.bit_length()]
            kept = leaves & ~mv
            if kept > low:  # a k-leaf of S above v stays a k-leaf
                continue
            if (mv & S).bit_count() == k:
                S2 = S | low
                out.append(S2)
                stack.append(S2)
                stack.append((front | mv) & ~S2)
                stack.append(kept | low)
    out.sort()
    return tuple(out)


_last = None  # the full SubKTreeSet of the most recent host


def _host_set(T, cap):
    """The full SubKTreeSet of T, grown only if T is not the host in the
    slot.  The cap is checked on every call, before the slot is read."""
    global _last
    if T.n > min(cap, MAX_ORDER):
        raise TooLarge(f"order {T.n} exceeds enumeration cap {min(cap, MAX_ORDER)}")
    if _last is None or _last.host is not T:
        _last = None  # free the previous host's members before growing these
        _last = SubKTreeSet(T, _grow_all(T))
    return _last


def enumerate_sub_ktrees(T, cap=DEFAULT_CAP):
    """Every sub-k-tree of T, as one SubKTreeSet."""
    return _host_set(T, cap)


def is_sub_ktree(T, S):
    """Does the vertex set S induce a sub-k-tree of T?"""
    S = sorted(set(S))
    if not S or any(not 1 <= v <= T.n for v in S):
        return False
    if len(S) < T.k:
        return False
    idx = {v: i + 1 for i, v in enumerate(S)}
    edges = [(idx[u], idx[v]) for u, v in T.edges() if u in idx and v in idx]
    try:
        recognize_ktree(edges, T.k, n=len(S))
    except KTreeError:
        return False
    return True


def local_members(T, S, cap=DEFAULT_CAP):
    """Members containing S, after checking that S is itself a sub-k-tree."""
    if not is_sub_ktree(T, S):
        raise NotASubKTree(f"{tuple(S)} does not induce a sub-k-tree")
    return enumerate_sub_ktrees(T, cap=cap).restricted(S)


def oracle_all_clique_means(T, cap=DEFAULT_CAP):
    """Exact map clique -> mean order over all sub-k-trees containing it."""
    full = _host_set(T, cap)
    out = {}
    for C in _cliques(T):
        # members containing C, counted by order
        out[C] = _mean(full._counts(full._selector(_required_mask(T, C))))
    return out
