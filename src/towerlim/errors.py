"""Exceptions the command line maps to exit codes, kept apart from the
modules that raise them.

`cli` imports them from here, so it can map an exception to its exit code
without loading `simplicial`, `shape` or `lab`.  Each home module
re-exports its own, so every name is one class object everywhere;
`TooLarge` has four raisers and is re-exported by `limits`.
"""


class TooLarge(Exception):
    """An input past a resource bound, refused before the work starts
    (raised by `limits`, `shape`, `simplicial` and `towerfile`; the reason
    names the bound)."""


class SimplicialError(Exception):
    """A malformed simplicial complex, map or chain (raised by `simplicial`)."""


class ShapeError(Exception):
    """A shape-theoretic input the computation does not apply to (raised by
    `shape`)."""


class DegreeMismatch(ShapeError):
    """Steenrod descriptors that `shape.cluster` cannot combine."""


class UnknownSuite(Exception):
    """A lab suite name that is not registered (raised by `lab.run_suite`)."""
