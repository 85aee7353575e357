"""Exact subtree polynomials and mean orders for trees.

The public functions take trees as adjacency mappings {node: set-of-neighbors}
over integer node labels, as every tree read off a `KTree` has, and validate
them once per call with `as_tree_adj`, which refuses any other label;
`_local_mean` folds a tree a caller has already validated.
The folds `_phi_poly` and `_phi_pair` read only a rooted tree's parent
positions: `up[0] = -1` at the root and `up[i] < i`, so every node folds
into its parent after all of its children.  `_bfs_tree` gives that array for
a vertex tree, and it is the one walk over an adjacency mapping here and in
`kelmans_ops`; `chartree` stores the array for a characteristic tree, whose
construction order is already parents-first.  All arithmetic is exact:
integer coefficient polynomials, integer pairs (phi(1), phi'(1)) and reduced
fractions; no floating point is ever compared.  A mean order needs only the
pair, so the means fold pairs up the tree.  The callers that read
coefficients fold the polynomial as one packed integer, its coefficients
as fixed-width digits that the pair's phi(1) bounds, and unpack it once.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from itertools import zip_longest

from .core import _require_ids
from .errors import KTreeError, NotATree


class IntPolynomial:
    """Dense integer-coefficient polynomial; index = degree.  A value:
    compared, hashed, added, shifted and printed, never evaluated."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        try:
            coeffs = list(coeffs)
        except TypeError:
            raise KTreeError(f"coefficients {coeffs!r} are not a collection") from None
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        # bench/test_bench.py perturbs a computed polynomial with a sum
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return IntPolynomial(map(sum, pairs))

    def shift(self, m):
        """Multiply by x**m."""
        return IntPolynomial((0,) * m + self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}x^{i}" if i > 1 else f"{head}x")
        return " + ".join(parts)


def format_rational(q):
    """Render exactly as 'p/q (d.dddddd)'; six digits, round-half-even."""
    return f"{q.numerator}/{q.denominator} ({format_decimal(q)})"


def format_decimal(q):
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(q.numerator) / Decimal(q.denominator)
        return str(d.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def fraction_str(q):
    return f"{q.numerator}/{q.denominator}"


# -- tree plumbing ------------------------------------------------------------


def as_tree_adj(tree):
    """Normalize to {node: frozenset(nbrs)} and verify it is a tree with
    integer labels."""
    adj = {u: frozenset(vs) for u, vs in tree.items()}
    _require_ids(adj, "node label", NotATree)
    for u, vs in adj.items():
        for v in vs:
            if v == u or v not in adj or u not in adj[v]:
                raise NotATree(f"adjacency is not symmetric at ({u}, {v})")
    if not adj:
        raise NotATree("empty vertex set")
    m = sum(len(vs) for vs in adj.values()) // 2
    if m != len(adj) - 1:
        raise NotATree(f"{len(adj)} vertices with {m} edges cannot be a tree")
    if len(_bfs_tree(adj, next(iter(adj)))) != len(adj):
        raise NotATree("graph is disconnected")
    return adj


def _bfs_tree(adj, root, forbidden=frozenset()):
    """Parent positions of the component of `root` avoiding `forbidden`,
    listed in BFS order from `root` (-1 at the root)."""
    order = [root]
    up = [-1]
    seen = {root}
    for i, u in enumerate(order):
        for w in adj[u]:
            if w not in seen and w not in forbidden:
                seen.add(w)
                order.append(w)
                up.append(i)
    return up


def _phi_poly(up):
    """phi_{T,root}(x) of the rooted tree with parent positions `up`.

    The fold runs at one integer point X = 2^B (Kronecker substitution),
    B being the bit length of phi(1) from `_phi_pair`.  Adding the path up
    to the root turns the subtrees at any node into distinct subtrees at
    the root, so every polynomial the fold builds has non-negative
    coefficients of at most the root's phi(1), and its value at X holds
    them as B-bit digits.  A node's phi is x times rest, the product of
    (1 + phi_w) over its children w, so rest folds over `up` as one integer
    per node: each child multiplies its parent's by 1 + X * rest_w, and a
    leaf's factor 1 + X is a shift and an add.  The root's rest read in
    B-bit digits is phi's coefficients from x^1 on.
    """
    bits = _phi_pair(up)[0].bit_length()
    rest = [1] * len(up)
    for i in range(len(up) - 1, 0, -1):
        p = up[i]
        if rest[i] == 1:
            rest[p] += rest[p] << bits
        else:
            rest[p] *= 1 + (rest[i] << bits)
    v, mask, coeffs = rest[0], (1 << bits) - 1, [0]
    while v:
        coeffs.append(v & mask)
        v >>= bits
    return IntPolynomial(coeffs)


def _phi_pair(up):
    """(phi(1), phi'(1)) of `_phi_poly(up)`, in integers.

    A node's phi is x times the product of (1 + phi_w) over its children w,
    so each child folds into its parent's (count, total) by the product
    rule: count * (1 + c_w), and total * (1 + c_w) + count * t_w.
    """
    count = [1] * len(up)
    total = [1] * len(up)
    for i in range(len(up) - 1, 0, -1):
        p = up[i]
        c = 1 + count[i]
        total[p] = total[p] * c + count[p] * total[i]
        count[p] *= c
    return count[0], total[0]


def _tree_at(tree, *path, error=NotATree):
    """`as_tree_adj(tree)`, checked to hold the walk `path`, each vertex a
    neighbour of the one before; `error` otherwise."""
    adj = among = as_tree_adj(tree)
    where = "the tree"
    for u in path:
        _require_ids((u,), "vertex", error, among, where)
        among, where = adj[u], f"the neighbours of {u}"
    return adj


def subtree_poly_at_vertex(tree, u):
    """Generating polynomial of the subtrees containing u, by order."""
    return _phi_poly(_bfs_tree(_tree_at(tree, u), u))


def _local_mean(adj, u):
    """mu(T; u) of a tree `as_tree_adj` has normalized, or of a move of one."""
    count, total = _phi_pair(_bfs_tree(adj, u))
    return Fraction(total, count)


def local_mean_order_vertex(tree, u):
    """Average order of the subtrees containing u, exact."""
    return _local_mean(_tree_at(tree, u), u)


def global_mean_order_tree(tree):
    adj = as_tree_adj(tree)
    count = total = 0
    gone = set()
    # v's term restricted to the component left after deleting the earlier
    # vertices counts every subtree exactly once, at its least vertex
    for v in sorted(adj):
        c, t = _phi_pair(_bfs_tree(adj, v, gone))
        count += c
        total += t
        gone.add(v)
    return Fraction(total, count)


def jamison_ratio_check(tree, u):
    """(lhs, rhs, tight) for phi'/(1+phi) <= phi/2 at vertex u."""
    p1, dp1 = _phi_pair(_bfs_tree(_tree_at(tree, u), u))
    lhs = Fraction(dp1, 1 + p1)
    rhs = Fraction(p1, 2)
    return lhs, rhs, lhs == rhs
