"""Exception types shared across the package, and the size caps.

Every operation that can fail raises one of these instead of returning a
sentinel, so callers (and the CLI exit-code mapping) can distinguish usage
errors from verification failures.  The five caps a user can set live in
the context variable `CAPS`, a read-only mapping that `cli.run` overrides
with `--caps` for one run; the routines they bound call `check_cap` where
the size is known, and the SizeCap raised names the cap's key.
"""

import contextvars
from types import MappingProxyType


class SymcircError(Exception):
    """Base class for all package errors."""


class InvalidParameter(SymcircError):
    """An argument violates a documented precondition."""


class MissingVariable(SymcircError):
    """An assignment does not cover every variable it must."""


class SizeCap(SymcircError):
    """An exact computation would exceed its configured size cap."""


CAPS = contextvars.ContextVar("caps", default=MappingProxyType(
    {"width_vertices": 14, "brute_force_maps": 10 ** 7, "minor_norm": 24,
     "pattern_norm": 10 ** 5, "circuit_gates": 2 * 10 ** 6}))


def check_cap(name: str, count: int, what: str) -> None:
    """SizeCap if `count` (the size of `what`) exceeds the cap `name` in CAPS.
    A count of 100 digits or more is named by its number of digits, so the
    message never meets Python's limit on converting ints to text."""
    cap = CAPS.get()[name]
    if count > cap:
        if count >= 10 ** 99:
            # count >= 2 ** (bits - 1), and log10(2) > 0.30102.
            digits = (count.bit_length() - 1) * 30102 // 100000 + 1
            raise SizeCap(f"{what} of {digits}+ digits exceeds cap {cap} (set by --caps {name})")
        raise SizeCap(f"{what} {count} exceeds cap {cap} (set by --caps {name})")


class IndexOutOfRange(SymcircError):
    """A vertex index outside its valid range."""


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


class IdentityFailed(SymcircError):
    """Both sides of a checked identity were computed and differ."""
