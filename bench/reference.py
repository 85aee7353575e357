"""Computations made apart from the program, used to check its outputs.

Nothing here imports `ktrees`.  Everything works from a host's own
construction records (`hosts.Host.base`, `.adds`) or its edge set:

- `Incidence`: the clique-incidence tree (k-cliques and the (k+1)-cliques
  containing them), clique degrees and adjacent cliques, and exact local
  mean orders by an iterative recursion on (count, total order);
- `brute_force_sub_ktrees`: every sub-k-tree by filtering all vertex subsets;
- published counts of unlabeled 2-trees and 3-trees.

The recursion: for a k-clique C and a (k+1)-clique Q = C + x, the branch
B(C->Q) = x * prod over faces C' = Q - c (c in C) and (k+1)-cliques Q' != Q
containing C' of (1 + B(C'->Q')); then phi_{T,C} = x^k prod_{Q > C} (1 + B(C->Q)).
Only F(1) (count) and F'(1) (total order) of each factor are kept.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations

# OEIS A054581 (unlabeled 2-trees with n nodes), n = 2..10
UNLABELED_2TREES = {2: 1, 3: 1, 4: 1, 5: 2, 6: 5, 7: 12, 8: 39, 9: 136, 10: 529}
# OEIS A078792 (unlabeled 3-trees with n nodes), n = 3..9
UNLABELED_3TREES = {3: 1, 4: 1, 5: 1, 6: 2, 7: 5, 8: 15, 9: 58}


def _mul(a, b):
    """(count, total) of a product of generating functions."""
    return a[0] * b[0], a[1] * b[0] + a[0] * b[1]


class Incidence:
    """Clique-incidence tree of a k-tree given by its construction records."""

    def __init__(self, k, base, adds):
        self.k = k
        self.n = k + len(adds)
        self.kp1 = {}  # added vertex -> sorted (k+1)-clique it created
        self.containing = defaultdict(list)  # k-clique -> added vertices
        self.containing[tuple(sorted(base))]
        for v, attach in adds:
            q = tuple(sorted(tuple(attach) + (v,)))
            self.kp1[v] = q
            for c in q:
                self.containing[tuple(u for u in q if u != c)].append(v)
        self._branch = {}  # (C, v) -> (count, total) of B(C -> Q_v)

    def cliques(self):
        return sorted(self.containing)

    def degree(self, C):
        return len(self.containing[C])

    def adjacent(self, C):
        """k-cliques sharing a (k+1)-clique with C, sorted."""
        out = set()
        for v in self.containing[C]:
            q = self.kp1[v]
            (x,) = set(q) - set(C)
            for c in C:
                out.add(tuple(sorted((set(C) - {c}) | {x})))
        return sorted(out)

    def ordered_adjacent_pairs(self):
        """Every ordered pair of distinct k-cliques inside one (k+1)-clique."""
        out = []
        for v in sorted(self.kp1):
            faces = list(combinations(self.kp1[v], self.k))
            for a, b in combinations(faces, 2):
                out += [(a, b), (b, a)]
        return out

    def _children(self, C, v):
        q = self.kp1[v]
        out = []
        for c in C:
            face = tuple(u for u in q if u != c)
            out += [(face, w) for w in self.containing[face] if w != v]
        return out

    def _branch_value(self, key):
        """B(C -> Q_v) by an explicit stack, so deep hosts need no recursion."""
        memo = self._branch
        stack = [key]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            kids = self._children(*top)
            missing = [kid for kid in kids if kid not in memo]
            if missing:
                stack += missing
                continue
            stack.pop()
            acc = (1, 0)
            for kid in kids:
                cnt, tot = memo[kid]
                acc = _mul(acc, (1 + cnt, tot))
            memo[top] = (acc[0], acc[1] + acc[0])  # times x
        return memo[key]

    def poly_pair(self, C):
        """(count, total order) of the sub-k-trees containing C."""
        acc = (1, 0)
        for v in self.containing[C]:
            cnt, tot = self._branch_value((C, v))
            acc = _mul(acc, (1 + cnt, tot))
        return acc[0], acc[1] + self.k * acc[0]

    def mean(self, C):
        cnt, tot = self.poly_pair(C)
        return Fraction(tot, cnt)


def closed_form_mean(k, n):
    """mu at an end clique of a path-type host, or at the base clique of a
    star-type or bristled-star host: k + (n - k)/2."""
    return k + Fraction(n - k, 2)


def _is_ktree(S, k, masks):
    """Does vertex bitmask S induce a k-tree?  Edge count, then greedy peel."""
    size = S.bit_count()
    edges = sum((masks[v] & S).bit_count() for v in _bits(S)) // 2
    if size < k or edges != k * size - k * (k + 1) // 2:
        return False
    alive = S
    while alive.bit_count() > k:
        for v in _bits(alive):
            nb = masks[v] & alive
            if nb.bit_count() == k and all(
                (masks[u] & nb) | (1 << u) == nb for u in _bits(nb)
            ):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def brute_force_sub_ktrees(k, n, edges):
    """Vertex sets (frozensets over 1..n) of every sub-k-tree, by subset filter."""
    masks = [0] * n
    for u, v in edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return {
        frozenset(v + 1 for v in _bits(S))
        for S in range(1, 1 << n)
        if _is_ktree(S, k, masks)
    }


def restricted_counts(members, C):
    """Coefficient list (index = order) of the members containing C."""
    orders = [len(S) for S in members if S.issuperset(C)]
    out = [0] * (max(orders) + 1)
    for m in orders:
        out[m] += 1
    return out


def host_edges(k, base, adds):
    """Edge set of a host from its construction records."""
    edges = set(combinations(sorted(base), 2))
    for v, attach in adds:
        edges |= {tuple(sorted((u, v))) for u in attach}
    return edges
