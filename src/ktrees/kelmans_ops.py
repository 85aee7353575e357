"""Kelmans and partial Kelmans operations with exact inequality checkers.

The operation on a graph G from v to u re-attaches to u every edge from v
to N2 = N(v) \\ N[u]; the partial variant moves only a chosen W subseteq N2.
Each checker returns a TheoremReport whose `consistent` flag says whether
exact equality occurred precisely when the stated condition predicts it.
A checker validates its tree once with `as_tree_adj` (integer labels, as on
every tree read off a `KTree`), moves on a copy of the adjacency it
validated (`_move`, with no second check of the endpoints or the moved set)
and folds every mean over those two; `check_kelmans` gives the three
reports on a full move from one move.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import _require_ids
from .errors import BadMoveSet, KTreeError, NotAdjacent, NotALeaf, NotATree, SameVertex
from .polynomials import _bfs_tree, _local_mean, _tree_at, as_tree_adj


def _endpoints(graph, v, u):
    """The frozen graph and its N2, once v and u are two of its vertices."""
    adj = {w: frozenset(vs) for w, vs in graph.items()}
    if u == v:
        raise SameVertex(f"cannot move from {v} to itself")
    return adj, second_neighborhood(adj, v, u)


def second_neighborhood(adj, v, u):
    """N2 = N(v) minus the closed neighborhood of u, for vertices v, u of `adj`."""
    _require_ids((v, u), "vertex", KTreeError, adj, "the graph")
    return adj[v] - adj[u] - {u}


def kelmans(graph, v, u):
    """Replace every edge vw, w in N2, by uw.  Graphs stay simple."""
    adj, n2 = _endpoints(graph, v, u)
    return _move(adj, v, u, n2)


def partial_kelmans(graph, v, u, moved):
    """Move only the edges vw with w in `moved`; W = N2 recovers kelmans.

    The result shares the frozen neighbour sets of every vertex but v, u
    and the moved ones, which are rebuilt; `graph` is left as it was.
    """
    adj, n2 = _endpoints(graph, v, u)
    moved = frozenset(_require_ids(moved, "moved vertex", BadMoveSet))
    if not moved <= n2:
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
    (x,) = _require_ids((x,), "vertex", NotATree)
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
    adj = _tree_at(tree, u, v, error=NotAdjacent)
    shifted = _move(dict(adj), v, u, adj[v] - adj[u] - {u})
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
    adj = _tree_at(tree, u, v, error=NotAdjacent)
    moved = frozenset(_require_ids(moved, "moved vertex", BadMoveSet))
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
        _local_mean(_move(dict(adj), v, u, moved), v),
        _local_mean(adj, v),
        pred,
    )


def check_leaf_dominates_neighbor(tree, v, u):
    """mu(T; v) >= mu(T; u) for a leaf v and its neighbor u; equality iff
    T is a path."""
    adj = _tree_at(tree, v, error=NotALeaf)
    if len(adj[v]) != 1:
        raise NotALeaf(f"{v} is not a leaf")
    _require_ids((u,), "vertex", NotAdjacent, adj[v], f"the neighbour of leaf {v}")
    return TheoremReport.at_least(
        "mu(T; v) >= mu(T; u)",
        _describe(adj, (("v", v), ("u", u))),
        _local_mean(adj, v),
        _local_mean(adj, u),
        _is_path(adj),
    )
