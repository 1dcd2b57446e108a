"""Exception types shared across the package.

Every operation that can fail raises one of these instead of returning a
sentinel, so callers (and the CLI exit-code mapping) can distinguish usage
errors from verification failures.
"""


class SymcircError(Exception):
    """Base class for all package errors."""


class InvalidParameter(SymcircError):
    """An argument violates a documented precondition."""


class MissingVariable(SymcircError):
    """An assignment does not cover every variable it must."""


class SizeCap(SymcircError):
    """An exact computation would exceed its configured size cap."""


class ArityMismatch(SymcircError):
    """Labelled patterns with incompatible label arities."""


class IndexOutOfRange(SymcircError):
    """A label or vertex index outside its valid range."""


class InvalidDecomposition(SymcircError):
    """A tree/path decomposition violating one of the axioms."""


class InvalidEliminationTree(SymcircError):
    """An elimination forest not compatible with the graph."""


class NotSymmetric(SymcircError):
    """A circuit operation requiring symmetry got a non-symmetric circuit."""


class NotRigid(SymcircError):
    """A circuit operation requiring rigidity got a non-rigid circuit."""


class ParseError(SymcircError):
    """Malformed serialized input."""


class NotConnected(SymcircError):
    """A construction requiring a connected base graph."""


class NotSquare(SymcircError):
    """A host that must have equally many left and right vertices."""


class ColourMismatch(SymcircError):
    """Coloured graphs over different colour sets."""


class InvalidBranchSets(SymcircError):
    """Branch sets that do not witness the claimed minor."""


class BasisNotFound(SymcircError):
    """Interpolation basis search exhausted its attempt cap."""


class ZeroCoefficient(SymcircError):
    """Extraction of a term whose coefficient is zero."""
