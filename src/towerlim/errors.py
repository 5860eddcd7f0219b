"""Exceptions the command line maps to exit codes, kept apart from the
modules that raise them, and the resource bounds behind `TooLarge`.

`cli` imports them from here, so it can map an exception to its exit code
without loading `simplicial`, `shape` or `lab`.  Each home module
re-exports its own, so every name is one class object everywhere;
`TooLarge` has four raisers and is re-exported by `limits`.

The bounds are one table: each check reads its bound from this module
when it runs (`errors.MAX_GENERATORS`, ...), so the reason it gives and a
lowered bound in a test are both this module's value.
"""


class TooLarge(Exception):
    """An input past a resource bound, refused before the work starts
    (raised by `limits`, `shape`, `simplicial` and `towerfile`; the reason
    names the bound)."""


# The most generators a [group] may declare (`towerfile`); a larger count
# is refused before its relation matrix is allocated.  The largest count
# in the shipped files and the benchmark is 12.
MAX_GENERATORS = 10_000

# The most vertices one level of a registered family may have (`shape`);
# a larger level is refused, from the closed form of its vertex count,
# before it is built.
MAX_LEVEL_VERTICES = 100_000

# The most entries a dense residue may have, about a 700 x 700 matrix
# (`simplicial`): what the unit pivots leave of a boundary map, whether
# for its Smith invariants or as a boundary map of the reduced complex K'.
# A larger one is refused before it is allocated; the dense Smith form and
# kernel of such a matrix would run for minutes.
MAX_DENSE_ENTRIES = 500_000


class SimplicialError(Exception):
    """A malformed simplicial complex, map or chain (raised by `simplicial`)."""


class ShapeError(Exception):
    """A shape-theoretic input the computation does not apply to (raised by
    `shape`)."""


class DegreeMismatch(ShapeError):
    """Steenrod descriptors that `shape.cluster` cannot combine."""


class UnknownSuite(Exception):
    """A lab suite name that is not registered (raised by `lab.run_suite`)."""
