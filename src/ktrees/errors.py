"""Exception types shared across the package."""


class KTreeError(Exception):
    """Base class for all errors raised by this package."""


class BadVertexOrder(KTreeError):
    """Construction ids are not 1..k base followed by k+1..n in order."""


class AttachmentNotClique(KTreeError):
    """An attachment set is not a k-clique of the graph built so far."""


class NotKTree(KTreeError):
    """Recognition failed; the message carries the first obstruction."""


class Disconnected(KTreeError):
    """Input graph is not connected."""


class NotAClique(KTreeError):
    """A vertex set that was expected to be a clique is not one."""


class SizeTooSmall(KTreeError):
    """Requested family member is below the minimal size."""


class NotATree(KTreeError):
    """Adjacency structure is not a tree (connected and acyclic)."""


class NotAdjacent(KTreeError):
    """The two vertices are not adjacent."""


class SameVertex(KTreeError):
    """The two vertices of a Kelmans move must differ."""


class BadMoveSet(KTreeError):
    """Moved set is not a subset of the movable neighborhood."""


class NotALeaf(KTreeError):
    """Vertex was expected to be a leaf."""


class VertexInClique(KTreeError):
    """Target vertex must lie outside the clique."""


class NotAdjacentCliques(KTreeError):
    """The two k-cliques do not share a (k+1)-clique."""


class NotASubKTree(KTreeError):
    """Vertex set does not induce a sub-k-tree of the host."""


class TooLarge(KTreeError):
    """Instance exceeds the configured enumeration cap."""


class UnknownSuite(KTreeError):
    """No verification suite registered under that name."""


class BadK(KTreeError):
    """Parameter k is outside the supported range for this operation."""


class FormatError(KTreeError):
    """Malformed .kt or edge-list input."""
