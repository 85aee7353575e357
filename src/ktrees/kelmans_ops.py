"""Kelmans and partial Kelmans operations with exact inequality checkers.

The operation on a graph G from v to u re-attaches to u every edge from v
to N2 = N(v) \\ N[u]; the partial variant moves only a chosen W subseteq N2.
Each checker returns a TheoremReport whose `consistent` flag says whether
exact equality occurred precisely when the stated condition predicts it.
A checker validates its tree once with `as_tree_adj` (integer labels, as on
every tree read off a `KTree`) and folds every mean over the adjacency it
validated; `check_kelmans` gives the three reports on a full move from one
move.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import BadMoveSet, KTreeError, NotAdjacent, NotALeaf, SameVertex
from .polynomials import _bfs_tree, _local_mean, as_tree_adj


def _endpoints(graph, v, u):
    """A frozen copy of the graph, once v and u are two of its vertices."""
    adj = {w: frozenset(vs) for w, vs in graph.items()}
    if u == v:
        raise SameVertex(f"cannot move from {v} to itself")
    if u not in adj or v not in adj:
        raise KTreeError(f"vertices {u}, {v} must belong to the graph")
    return adj


def second_neighborhood(adj, v, u):
    """N2 = N(v) minus the closed neighborhood of u."""
    return adj[v] - adj[u] - {u}


def kelmans(graph, v, u):
    """Replace every edge vw, w in N2, by uw.  Graphs stay simple."""
    adj = _endpoints(graph, v, u)
    return _move(adj, v, u, second_neighborhood(adj, v, u))


def partial_kelmans(graph, v, u, moved):
    """Move only the edges vw with w in `moved`; W = N2 recovers kelmans.

    The result shares the frozen neighbour sets of every vertex but v, u
    and the moved ones, which are rebuilt; `graph` is left as it was.
    """
    adj = _endpoints(graph, v, u)
    moved = frozenset(moved)
    if not moved <= second_neighborhood(adj, v, u):
        raise BadMoveSet(f"moved set {sorted(moved)} not within N2")
    return _move(adj, v, u, moved)


def _move(adj, v, u, moved):
    """Move the edges vw, w in the frozenset `moved`, on the frozen copy
    `adj`, in place."""
    adj[v] -= moved
    adj[u] |= moved
    for w in moved:
        adj[w] = adj[w] - {v} | {u}
    return adj


class TheoremReport(NamedTuple):
    """One checked inequality with its predicted equality condition."""

    claim: str
    instance: str
    lhs: Fraction
    rhs: Fraction
    inequality_holds: bool
    equality: bool
    predicted_equality: bool

    @classmethod
    def at_least(cls, claim, instance, lhs, rhs, predicted):
        """The report on lhs >= rhs, with equality predicted as given."""
        return cls(claim, instance, lhs, rhs, lhs >= rhs, lhs == rhs, predicted)

    @property
    def consistent(self):
        return self.equality == self.predicted_equality

    @property
    def ok(self):
        return self.inequality_holds and self.consistent


def path_with_leaf_predicate(tree, x):
    """Is the tree a path with x as one of its ends (K_1 counts)?"""
    adj = as_tree_adj(tree)
    return x in adj and len(adj[x]) <= 1 and all(len(vs) <= 2 for vs in adj.values())


def _component_path(adj, v, u):
    """Is the component of u in T - v a path with u as its leaf?  It is iff
    no node of its walk from u is the parent of two others.  `adj` is a
    tree its checker has validated, with u among its vertices."""
    up = _bfs_tree(adj, u, {v})
    return len(set(up)) == len(up)


def _describe(adj, pairs):
    edges = sorted({(a, b) for a in adj for b in adj[a] if a < b})
    tag = " ".join(f"{name}={val}" for name, val in pairs)
    return f"n={len(adj)} edges={edges} {tag}"


def _is_path(adj):
    return all(len(vs) <= 2 for vs in adj.values())


def check_kelmans(tree, u, v):
    """The three reports of the full move G = G(v->u), from one move and
    the four means of u and v in T and G: mu(G;v) >= mu(T;u), equality iff
    u is a leaf or T is a path with v a leaf; mu(T;v) >= mu(G;u), equality
    iff u's component in T - v is a path with u as its leaf; mu(G;v) >=
    mu(T;v), equality iff v is a leaf or T is a path with u a leaf."""
    adj = as_tree_adj(tree)
    if u not in adj or v not in adj[u]:
        raise NotAdjacent(f"{u} and {v} must be adjacent")
    shifted = kelmans(adj, v, u)
    inst = _describe(adj, (("u", u), ("v", v)))
    t_u, t_v = _local_mean(adj, u), _local_mean(adj, v)
    g_u, g_v = _local_mean(shifted, u), _local_mean(shifted, v)
    u_leaf, v_leaf, path = len(adj[u]) == 1, len(adj[v]) == 1, _is_path(adj)
    u_path = _component_path(adj, v, u)
    return tuple(
        TheoremReport.at_least(claim, inst, lhs, rhs, predicted)
        for claim, lhs, rhs, predicted in (
            ("mu(G(v->u); v) >= mu(T; u)", g_v, t_u, u_leaf or (path and v_leaf)),
            ("mu(T; v) >= mu(G(v->u); u)", t_v, g_u, u_path),
            ("mu(G(v->u); v) >= mu(T; v)", g_v, t_v, v_leaf or (path and u_leaf)),
        )
    )


def check_partial_kelmans_monotone(tree, u, v, moved):
    """mu(T'; v) >= mu(T; v) for the partial move of `moved` from v to u.

    Equality iff nothing moved, or u is a leaf and the single moved branch
    is a path hanging at v by its leaf.
    """
    adj = as_tree_adj(tree)
    if u not in adj or v not in adj[u]:
        raise NotAdjacent(f"{u} and {v} must be adjacent")
    moved = frozenset(moved)
    if not moved <= adj[v] - {u}:
        raise BadMoveSet("moved set must lie in N(v) minus u")
    pred = not moved or (
        len(adj[u]) == 1
        and len(moved) == 1
        and _component_path(adj, v, next(iter(moved)))
    )
    return TheoremReport.at_least(
        "mu(T'; v) >= mu(T; v)",
        _describe(adj, (("u", u), ("v", v), ("W", sorted(moved)))),
        _local_mean(partial_kelmans(adj, v, u, moved), v),
        _local_mean(adj, v),
        pred,
    )


def check_leaf_dominates_neighbor(tree, v, u):
    """mu(T; v) >= mu(T; u) for a leaf v and its neighbor u; equality iff
    T is a path."""
    adj = as_tree_adj(tree)
    if v not in adj or len(adj[v]) != 1:
        raise NotALeaf(f"{v} is not a leaf")
    if u not in adj[v]:
        raise NotAdjacent(f"{u} is not the neighbor of leaf {v}")
    return TheoremReport.at_least(
        "mu(T; v) >= mu(T; u)",
        _describe(adj, (("v", v), ("u", u))),
        _local_mean(adj, v),
        _local_mean(adj, u),
        _is_path(adj),
    )
