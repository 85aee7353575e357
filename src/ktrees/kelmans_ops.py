"""Kelmans and partial Kelmans operations with exact inequality checkers.

The operation on a graph G from v to u re-attaches to u every edge from v
to N2 = N(v) \\ N[u]; the partial variant moves only a chosen W subseteq N2.
Each checker returns a TheoremReport whose `consistent` flag says whether
exact equality occurred precisely when the stated condition predicts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadMoveSet, KTreeError, NotAdjacent, NotALeaf, SameVertex
from .polynomials import as_tree_adj, local_mean_order_vertex, node_key


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
    return partial_kelmans(adj, v, u, second_neighborhood(adj, v, u))


def partial_kelmans(graph, v, u, moved):
    """Move only the edges vw with w in `moved`; W = N2 recovers kelmans.

    The result shares the frozen neighbour sets of every vertex but v, u
    and the moved ones, which are rebuilt; `graph` is left as it was.
    """
    adj = _endpoints(graph, v, u)
    moved = frozenset(moved)
    if not moved <= second_neighborhood(adj, v, u):
        raise BadMoveSet(f"moved set {sorted(moved, key=node_key)} not within N2")
    adj[v] -= moved
    adj[u] |= moved
    for w in moved:
        adj[w] = adj[w] - {v} | {u}
    return adj


@dataclass(frozen=True)
class TheoremReport:
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
    if x not in adj:
        return False
    if any(len(vs) > 2 for vs in adj.values()):
        return False
    return len(adj[x]) <= 1


def component_path_predicate(tree, v, u):
    """Is the component of u in T - v a path with u as its leaf?"""
    adj = as_tree_adj(tree)
    comp = {u}
    stack = [u]
    while stack:
        for w in adj[stack.pop()]:
            if w != v and w not in comp:
                comp.add(w)
                stack.append(w)
    sub = {x: adj[x] & comp for x in comp}
    return path_with_leaf_predicate(sub, u)


def _describe(adj, pairs):
    edges = sorted(
        {tuple(sorted((a, b), key=node_key)) for a in adj for b in adj[a]},
        key=lambda e: (node_key(e[0]), node_key(e[1])),
    )
    tag = " ".join(f"{name}={val}" for name, val in pairs)
    return f"n={len(adj)} edges={edges} {tag}"


def _is_path(adj):
    return all(len(vs) <= 2 for vs in adj.values())


def check_kelmans_shift(tree, u, v):
    """Both mean-order inequalities for the full move from v to u.

    Returns a pair of reports: mu(G;v) >= mu(T;u) with equality iff u is a
    leaf or T is a path with v a leaf, and mu(T;v) >= mu(G;u) with equality
    iff the component of u in T - v is a path with u as its leaf.
    """
    adj = as_tree_adj(tree)
    if u not in adj or v not in adj[u]:
        raise NotAdjacent(f"{u} and {v} must be adjacent")
    shifted = kelmans(adj, v, u)
    inst = _describe(adj, (("u", u), ("v", v)))

    rep2 = TheoremReport.at_least(
        "mu(G(v->u); v) >= mu(T; u)",
        inst,
        local_mean_order_vertex(shifted, v),
        local_mean_order_vertex(adj, u),
        len(adj[u]) == 1 or (_is_path(adj) and len(adj[v]) == 1),
    )
    rep3 = TheoremReport.at_least(
        "mu(T; v) >= mu(G(v->u); u)",
        inst,
        local_mean_order_vertex(adj, v),
        local_mean_order_vertex(shifted, u),
        component_path_predicate(adj, v, u),
    )
    return rep2, rep3


def check_kelmans_monotone(tree, u, v):
    """mu(G(v->u); v) >= mu(T; v); equality iff v is a leaf or T is a path
    with u as a leaf."""
    adj = as_tree_adj(tree)
    if u not in adj or v not in adj[u]:
        raise NotAdjacent(f"{u} and {v} must be adjacent")
    return TheoremReport.at_least(
        "mu(G(v->u); v) >= mu(T; v)",
        _describe(adj, (("u", u), ("v", v))),
        local_mean_order_vertex(kelmans(adj, v, u), v),
        local_mean_order_vertex(adj, v),
        len(adj[v]) == 1 or (_is_path(adj) and len(adj[u]) == 1),
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
    if not moved:
        pred = True
    elif len(adj[u]) == 1 and len(moved) == 1:
        (w,) = moved
        pred = component_path_predicate(adj, v, w)
    else:
        pred = False
    return TheoremReport.at_least(
        "mu(T'; v) >= mu(T; v)",
        _describe(adj, (("u", u), ("v", v), ("W", sorted(moved, key=node_key)))),
        local_mean_order_vertex(partial_kelmans(adj, v, u, moved), v),
        local_mean_order_vertex(adj, v),
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
        local_mean_order_vertex(adj, v),
        local_mean_order_vertex(adj, u),
        _is_path(adj),
    )
