"""Exact integer matrix algebra and finitely generated abelian groups.

Everything here runs on Python's arbitrary-precision integers; there are
no modular shortcuts and no floating point anywhere.  Lattices (subgroups
of Z^n) are represented by matrices of column generators and compared
through a canonical column-style Hermite normal form, so equality of
lattices is equality of canonical forms.

An IntMatrix holds its entries as a tuple of row tuples of Python ints,
so equality and hashing go by value.  The public constructor,
`from_rows` and `from_columns` coerce every entry with int() and check
the shape; results computed inside this module are built with the
trusted `IntMatrix._new`, which skips both and is for internal code
only.  Hermite forms run the row algorithm on plain lists; the column
form runs it on the columns of a matrix as rows, so nothing is
transposed back and forth.

solve_columns and kernel build the transforms their callers read;
snf carries U and U^-1 through its row steps and forms no V.
Membership, lattice_index, ambient_index and Smith invariants are
transform-free: they reduce against echelon pivots or alternate Hermite
forms to a diagonal.  An FgAbGroup caches the echelon of its relations
on its first membership test, like its invariants.  exactness_defect
answers injective, surjective and image = kernel with these lattice
tests, where hom_parts would build the kernel, image and cokernel groups.

The records of the package (FgAbGroup and Homomorphism here, the towers,
reports and verdicts elsewhere) are plain classes on Record.  Each names
its fields in `_fields` and writes its own `__init__`, which checks its
input and sets each field with object.__setattr__; Record gives them all
value equality within one class, the hash of the field tuple, the repr
Name(field=value, ...) and no assignment or deletion afterwards.  A
cached_property writes the instance dictionary directly, so a record
still caches what it computes.  The two records a caller fills in,
TowerFile and LabReport, are MutableRecords, with no hash.  Nothing
imports dataclasses, whose import and decoration were a third of the
start-up of every command.

>>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> S, U, Uinv = snf(M)
>>> S.diagonal()
[2, 4]
>>> lattice_canon(U * M) == lattice_canon(S)    # S = U * M * V, V unimodular
True
>>> U * Uinv == IntMatrix.identity(2)
True
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import add, attrgetter, mul


class ExactLatticeError(Exception):
    pass


class IllDefined(ExactLatticeError):
    """A homomorphism candidate does not respect the relations."""


class IndexUndefined(ExactLatticeError):
    """Lattice index requested for a pair that is not nested."""


class Record:
    """Value semantics over the fields a subclass names, in order, in
    `_fields`: equality only with a record of the same class and equal
    fields, the hash of the field tuple, the repr Name(field=value, ...),
    and no assignment or deletion once `__init__` has set the fields
    with object.__setattr__."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        names = cls._fields
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(attrgetter(*names) if len(names) > 1 else
                                   lambda record: tuple(getattr(record, n) for n in names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class MutableRecord(Record):
    """A Record whose fields may be reassigned after construction; it has
    no hash."""

    __slots__ = ()
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


class IntMatrix:
    """Immutable integer matrix, row-major tuple of tuples of ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows:
            raise ValueError("row count mismatch")
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(int(x) for x in r) for r in data)
        for r in self.data:
            if len(r) != cols:
                raise ValueError("column count mismatch")

    @classmethod
    def _new(cls, rows, cols, data):
        """Trusted constructor: data is already `rows` tuples of `cols` ints."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.data = data
        return self

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, [])
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def identity(cls, n):
        return cls._new(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                                    for i in range(n)))

    @classmethod
    def zero(cls, rows, cols):
        return cls._new(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def from_columns(cls, n, columns):
        """Matrix with the given n-vectors as columns."""
        cols = [list(c) for c in columns]
        for c in cols:
            if len(c) != n:
                raise ValueError("column length mismatch")
        return cls(n, len(cols), [[c[i] for c in cols] for i in range(n)])

    def column(self, j):
        return [r[j] for r in self.data]

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def transpose(self):
        return IntMatrix._new(self.cols, self.rows, _transposed(self.data, self.cols))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix._new(self.rows, self.cols + other.cols,
                              tuple(map(add, self.data, other.data)))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return IntMatrix._new(self.rows + other.rows, self.cols, self.data + other.data)

    def submatrix(self, row_range, col_range):
        rr = list(row_range)
        cc = list(col_range)
        data = self.data
        return IntMatrix._new(len(rr), len(cc),
                              tuple(tuple(data[i][j] for j in cc) for i in rr))

    def apply(self, vector):
        """Matrix times column vector, returned as a list."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(map(mul, row, vector)) for row in self.data]

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._new(self.rows, self.cols,
                                  tuple(tuple(x * other for x in row) for row in self.data))
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        ocols = _transposed(other.data, other.cols)
        return IntMatrix._new(self.rows, other.cols,
                              tuple(tuple(sum(map(mul, row, col)) for col in ocols)
                                    for row in self.data))

    __rmul__ = __mul__

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._new(self.rows, self.cols,
                              tuple(tuple(map(add, r1, r2))
                                    for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other):
        return self + (other * -1)

    def __neg__(self):
        return self * -1

    def __pow__(self, k):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def charpoly(mat):
    """Characteristic polynomial det(xI - A), ascending coefficients.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984):
    the polynomial of each leading principal block is a Toeplitz matrix
    times that of the block before it.

    >>> charpoly(IntMatrix.from_rows([[0, 1], [1, 1]]))
    [-1, -1, 1]
    """
    a = mat.data
    poly = [1]                 # descending, for the leading r x r block
    for r in range(mat.rows):
        row = a[r][:r]
        # first Toeplitz column: 1, -a_rr, -R C, -R M C, ..., -R M^(r-1) C
        col = [1, -a[r][r]]
        v = [a[i][r] for i in range(r)]
        for _ in range(r):
            col.append(-sum(map(mul, row, v)))
            v = [sum(map(mul, a[i][:r], v)) for i in range(r)]
        poly = [sum(col[i - j] * poly[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return poly[::-1]


def _transposed(rows, width):
    """Transpose of a sequence of rows of length `width`, as a tuple of tuples."""
    return tuple(zip(*rows)) if rows else ((),) * width


def _row_hnf(a, n, t=None, reduce=True):
    """Row Hermite form of the first n columns of the rows `a`, in place.

    The row steps E act on whole rows, so the columns after the first n
    ride along: a caller that appends U to each row gets back E*U.  The
    rows `t`, when given, take the contragredient step (a_p -= q*a_i is
    t_i += q*t_p; swaps and signs act alike) and end as E^-T*t.  Without
    reduce the entries above each pivot are left as they are, so the form
    is only a row echelon form.
    """
    m = len(a)
    pivot_row = 0
    for col in range(n):
        # find a nonzero entry at or below pivot_row
        i0 = next((i for i in range(pivot_row, m) if a[i][col]), None)
        if i0 is None:
            continue
        # gcd the column entries into pivot_row by extended euclid on rows
        if i0 != pivot_row:
            a[pivot_row], a[i0] = a[i0], a[pivot_row]
            if t is not None:
                t[pivot_row], t[i0] = t[i0], t[pivot_row]
        ap = a[pivot_row]
        tp = t[pivot_row] if t is not None else None
        for i in range(pivot_row + 1, m):
            ai = a[i]
            if not ai[col]:
                continue
            ti = t[i] if t is not None else None
            while ai[col]:
                q = ap[col] // ai[col]
                if q:
                    ap = [x - q * y for x, y in zip(ap, ai)]
                    if t is not None:
                        ti = [x + q * y for x, y in zip(ti, tp)]
                ap, ai = ai, ap
                tp, ti = ti, tp
            a[i] = ai
            if t is not None:
                t[i] = ti
        if ap[col] < 0:
            ap = [-x for x in ap]
            if t is not None:
                tp = [-x for x in tp]
        a[pivot_row] = ap
        if reduce:
            # reduce the entries above the pivot into [0, p)
            p = ap[col]
            for i in range(pivot_row):
                q = a[i][col] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], ap)]
                    if t is not None:
                        tp = [x + q * y for x, y in zip(tp, t[i])]
        if t is not None:
            t[pivot_row] = tp
        pivot_row += 1
        if pivot_row == m:
            break


def _column_hnf(mat, transform=True, reduce=True):
    """Column Hermite form of mat, read by columns: (H columns, U columns).

    The row algorithm runs on the columns of mat as rows, so no matrix
    is transposed; with transform each column carries its row of the
    identity, which ends as its column of U.  U is None when transform is
    false, and H is only an echelon form when reduce is false.
    """
    n, k = mat.rows, mat.cols
    ident = IntMatrix.identity(k).data if transform else ((),) * k
    cols = [list(c + e) for c, e in zip(_transposed(mat.data, k), ident)]
    _row_hnf(cols, n, reduce=reduce)
    return ([c[:n] for c in cols], [c[n:] for c in cols]) if transform else (cols, None)


def _is_diagonal(a):
    return all(not any(row[:i]) and not any(row[i + 1:]) for i, row in enumerate(a))


def snf(mat):
    """Smith normal form (S, U, U^-1) with S = U * mat * V.

    S is diagonal with nonnegative entries d1 | d2 | ...; U and V are
    unimodular, and V is not formed.  Alternating row and column Hermite
    reductions converge to a diagonal form with polynomially bounded
    entries (the canonical reduction steps keep everything below the
    pivots); a final pass enforces the divisibility chain.  The row steps
    carry U and, by their contragredient, U^-T (as Kannan and Bachem,
    SIAM J. Comput. 8, 1979, carry transforms), so U is never inverted.

    >>> S, U, Uinv = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> S.diagonal()
    [1, 6]
    >>> U * Uinv == IntMatrix.identity(2)
    True
    """
    m, n = mat.rows, mat.cols
    a = [list(r) for r in mat.data]
    u = IntMatrix.identity(m).data
    t = list(u)                        # the rows of U^-T
    while True:
        au = [r + list(ur) for r, ur in zip(a, u)]      # the rows of a | U
        _row_hnf(au, n, t)
        u = [r[n:] for r in au]
        # the column step, transform-free: the row algorithm on the columns of a
        ct = [list(c) for c in _transposed(au, n)[:n]]
        _row_hnf(ct, m)
        a = [list(r) for r in _transposed(ct, m)]
        if _is_diagonal(a):
            k = min(m, n)
            # sort the nonzero diagonal entries to the front
            order = sorted(range(k), key=lambda i: (a[i][i] == 0, i))
            if order != list(range(k)):
                perm_rows = order + list(range(k, m))
                u = [u[i] for i in perm_rows]
                t = [t[i] for i in perm_rows]
                diag = [a[i][i] for i in order]
                a = [[0] * n for _ in range(m)]
                for j, d in enumerate(diag):
                    a[j][j] = d
            # enforce the divisibility chain: add column i + 1 to column i
            # and restart
            for i in range(k - 1):
                di, dj = a[i][i], a[i + 1][i + 1]
                if di != 0 and dj % di != 0:
                    a[i + 1][i] = dj
                    break
            else:
                break
    # normalize signs
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
            t[i] = [-x for x in t[i]]
    return (IntMatrix._new(m, n, tuple(map(tuple, a))),
            IntMatrix._new(m, m, tuple(map(tuple, u))),
            IntMatrix._new(m, m, _transposed(t, m)))


def _invariant_factors(mat):
    """The nonzero invariant factors d1 | d2 | ... of mat, without U or V.

    Row Hermite forms of the rows and of the columns alternate, as in
    snf, until the matrix is diagonal; the exchanges d_i, d_j -> gcd,
    lcm for i < j then sort every prime's exponents along the diagonal.

    >>> _invariant_factors(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]]))
    [1, 6]
    """
    a, n = [list(r) for r in mat.data], mat.cols
    while True:
        _row_hnf(a, n)
        if _is_diagonal(a):
            break
        a, n = [list(c) for c in _transposed(a, n)], len(a)
    d = [row[i] for i, row in enumerate(a[:n]) if row[i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


# ---------------------------------------------------------------------------
# lattices: column spans of integer matrices inside a fixed Z^n


def lattice_canon(gens):
    """Canonical generator matrix: column HNF with zero columns dropped."""
    hcols, _ = _column_hnf(gens, transform=False)
    cols = [c for c in hcols if any(c)]
    return IntMatrix._new(gens.rows, len(cols), _transposed(cols, gens.rows))


def _echelon(gens):
    """(pivot row, column) of each nonzero column of a column echelon
    form of gens, built without a transform: the pivot rows strictly
    increase and the pivots are positive.  They depend only on the
    Q-span of gens."""
    hcols, _ = _column_hnf(gens, transform=False, reduce=False)
    return [(next(i for i, x in enumerate(hc) if x), hc) for hc in hcols if any(hc)]


def _in_span(echelon, vector):
    """Is the vector in the lattice with this _echelon?"""
    r = vector
    start = 0
    for prow, hc in echelon:
        if any(r[start:prow]):
            return False
        q, rem = divmod(r[prow], hc[prow])
        if rem:
            return False
        if q:
            r = [e - q * h for e, h in zip(r, hc)]
        start = prow + 1
    return not any(r[start:])


def solve_columns(gens, target):
    """Solve gens * X = target over Z; None when some column has no solution."""
    if target.rows != gens.rows:
        raise ValueError("row mismatch in solve_columns")
    hcols, ucols = _column_hnf(gens)
    pivots = []
    for hc, uc in zip(hcols, ucols):
        prow = next((i for i, x in enumerate(hc) if x), None)
        if prow is not None:
            pivots.append((prow, hc, uc))
    xcols = []
    for b in _transposed(target.data, target.cols):
        residual = list(b)
        x = [0] * gens.cols
        for prow, hc, uc in pivots:
            # rows above the pivot row must already be cleared
            if any(residual[:prow]):
                return None
            q, r = divmod(residual[prow], hc[prow])
            if r:
                return None
            if q:
                residual = [e - q * h for e, h in zip(residual, hc)]
                x = [e + q * u for e, u in zip(x, uc)]
        if any(residual):
            return None
        xcols.append(x)
    return IntMatrix._new(gens.cols, target.cols, _transposed(xcols, gens.cols))


def lattice_contains(gens, vector):
    """Is the vector in the column span of gens (over Z)?"""
    if len(vector) != gens.rows:
        raise ValueError("column length mismatch")
    return _in_span(_echelon(gens), vector)


def kernel(mat):
    """Basis of the integer kernel of mat, as a matrix of columns.

    The basis spans a saturated sublattice (a direct summand of Z^cols).

    It is read off an echelon form: the columns of U whose column of
    H = mat * U is zero, where H is the column Hermite form without its
    reduction above the pivots.  That reduction changes only finished
    pivot columns, by multiples of the pivot column just found, and the
    elimination never reads a finished pivot column again.  So the zero
    columns of H and their columns of U are the same with or without it,
    and the basis is the one the full Hermite form gives.
    """
    hcols, ucols = _column_hnf(mat, reduce=False)
    basis = [uc for hc, uc in zip(hcols, ucols) if not any(hc)]
    return IntMatrix._new(mat.cols, len(basis), _transposed(basis, mat.cols))


def preimage(mat, rel):
    """Column generators of {x : mat x in span(rel)}: the first mat.cols
    rows of the kernel of mat | rel."""
    K = kernel(mat.hstack(rel))
    return IntMatrix._new(mat.cols, K.cols, K.data[:mat.cols])


def lattice_index(sub, sup):
    """Index of span(sub) inside span(sup); None stands for infinite index.

    Raises IndexUndefined when sub is not contained in sup.  A contained
    sub of full rank spans the same Q-space, so the two echelon forms
    share their pivot rows; on those rows sub = sup * X with both sides
    triangular, and |det X| is the ratio of the pivot products.

    >>> lattice_index(IntMatrix.from_rows([[2, 0], [1, 3]]), IntMatrix.identity(2))
    6
    """
    if sub.rows != sup.rows:
        raise ValueError("row mismatch in lattice_index")
    sup_ech = _echelon(sup)
    if not all(_in_span(sup_ech, b) for b in _transposed(sub.data, sub.cols)):
        raise IndexUndefined("first lattice is not contained in the second")
    sub_ech = _echelon(sub)
    if len(sub_ech) < len(sup_ech):
        return None
    d = 1
    for (prow, hc), (_, hs) in zip(sub_ech, sup_ech):
        d = d * hc[prow] // hs[prow]
    return d


def ambient_index(gens):
    """Index of span(gens) inside the whole of Z^rows; None stands for
    infinite index.  It is lattice_index(gens, identity) read off one
    echelon form: the product of its pivots once there is one in every row.

    >>> ambient_index(IntMatrix.from_rows([[2, 0], [1, 3]]))
    6
    >>> ambient_index(IntMatrix.from_rows([[2], [1]])) is None
    True
    """
    echelon = _echelon(gens)
    if len(echelon) < gens.rows:
        return None
    d = 1
    for prow, hc in echelon:
        d *= hc[prow]
    return d


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FgAbGroup(Record):
    """Finitely generated abelian group Z^generators / (column span of relations)."""

    _fields = ("generators", "relations")

    def __init__(self, generators, relations):
        if relations.rows != generators:
            raise ValueError("relations must have one row per generator")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)

    @cached_property
    def _smith(self):
        # (rank, torsion tuple), computed once per group
        nonzero = _invariant_factors(self.relations)
        return self.generators - len(nonzero), tuple(d for d in nonzero if d >= 2)

    @cached_property
    def _relation_echelon(self):
        # the _echelon of the relations, built on the first membership test
        return _echelon(self.relations)

    @property
    def smith_invariants(self):
        rank, torsion = self._smith
        return rank, list(torsion)

    @property
    def rank(self):
        return self._smith[0]

    @property
    def torsion(self):
        return list(self._smith[1])

    def is_trivial(self):
        r, t = self._smith
        return r == 0 and not t

    def order(self):
        """Group order; None when infinite."""
        r, t = self._smith
        if r > 0:
            return None
        out = 1
        for d in t:
            out *= d
        return out

    def is_isomorphic(self, other):
        return self._smith == other._smith

    def describe(self):
        r, t = self._smith
        parts = []
        if r == 1:
            parts.append("Z")
        elif r > 1:
            parts.append("Z^%d" % r)
        parts.extend("Z/%d" % d for d in t)
        return " (+) ".join(parts) if parts else "0"

    def __repr__(self):
        return "FgAbGroup(%s)" % self.describe()


def present(generators, relations):
    """Build a group from a presentation; relations columns are relators.

    >>> present(2, IntMatrix.from_rows([[2, 0], [0, 3]])).smith_invariants
    (0, [6])
    >>> present(2, IntMatrix.from_columns(2, [])).smith_invariants
    (2, [])
    """
    if isinstance(relations, list):
        relations = IntMatrix.from_rows(relations)
    if relations.rows != generators:
        raise ValueError("relations must have %d rows" % generators)
    return FgAbGroup(generators, relations)


def free_group(rank):
    return FgAbGroup(rank, IntMatrix.from_columns(rank, []))


def cyclic_group(order):
    if order == 0:
        return free_group(1)
    return FgAbGroup(1, IntMatrix.from_rows([[order]]))


def direct_sum(a, b):
    top = a.relations.hstack(IntMatrix.zero(a.generators, b.relations.cols))
    bottom = IntMatrix.zero(b.generators, a.relations.cols).hstack(b.relations)
    return FgAbGroup(a.generators + b.generators, top.vstack(bottom))


def diagonal_orders(group):
    """The order of each generator of a group whose relation columns are
    d e_i (0 for a free generator).

    >>> diagonal_orders(direct_sum(free_group(1), cyclic_group(4)))
    (0, 4)
    """
    orders = [0] * group.generators
    for col in zip(*group.relations.data):
        i = next(i for i, x in enumerate(col) if x)
        orders[i] = abs(col[i])
    return tuple(orders)


def diagonal_group(orders):
    """Z^k / (+) d_i Z: one relation column d e_i for each nonzero d, in
    order; the inverse of diagonal_orders.

    >>> diagonal_group((0, 4)).describe()
    'Z (+) Z/4'
    """
    n = len(orders)
    return present(n, IntMatrix.from_columns(
        n, [[d if j == i else 0 for j in range(n)] for i, d in enumerate(orders) if d]))


class Homomorphism(Record):
    """Map of f.g. abelian groups given by a matrix on chosen generators."""

    _fields = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __call__(self, vector):
        return self.matrix.apply(vector)

    def compose(self, inner):
        """self o inner."""
        if inner.target.generators != self.source.generators:
            raise ValueError("composition mismatch")
        return Homomorphism(inner.source, self.target, self.matrix * inner.matrix)

    def equals(self, other):
        """Equality as maps of groups (matrices may differ by relations)."""
        if (self.source.generators != other.source.generators
                or self.target.generators != other.target.generators):
            return False
        diff = self.matrix - other.matrix
        for col in _transposed(diff.data, diff.cols):
            if any(col) and not _in_span(self.target._relation_echelon, col):
                return False
        return True

    def __repr__(self):
        return "Homomorphism(%s -> %s, %r)" % (
            self.source.describe(), self.target.describe(),
            [list(r) for r in self.matrix.data])


def identity_hom(group):
    return Homomorphism(group, group, IntMatrix.identity(group.generators))


def hom_make(source, target, matrix):
    """Validated homomorphism: every relator image must be a relation.

    >>> Z2 = cyclic_group(2); Z4 = cyclic_group(4)
    >>> hom_make(Z2, Z4, IntMatrix.from_rows([[2]])).matrix.data
    ((2,),)
    >>> hom_make(Z2, Z4, IntMatrix.from_rows([[1]]))
    Traceback (most recent call last):
        ...
    towerlim.exactlat.IllDefined: relator image lies outside the target relations
    """
    if isinstance(matrix, list):
        matrix = IntMatrix.from_rows(matrix)
    if matrix.cols != source.generators or matrix.rows != target.generators:
        raise ValueError("matrix shape does not match generator counts")
    rel = source.relations
    for col in _transposed(rel.data, rel.cols):
        image = matrix.apply(col)
        if any(image) and not _in_span(target._relation_echelon, image):
            raise IllDefined("relator image lies outside the target relations")
    return Homomorphism(source, target, matrix)


class Subquotient(Record):
    """A subquotient of some Z^n with a witness matrix into/out of Z^n."""

    _fields = ("group", "witness")

    def __init__(self, group, witness):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "witness", witness)


def subquotient(ambient_rank, sub_gens, rel_gens):
    """Group (span sub_gens)/(span rel_gens) inside Z^ambient_rank.

    rel_gens must be contained in sub_gens.  Returns a Subquotient whose
    witness columns are the chosen generating vectors in Z^ambient_rank.
    """
    B = lattice_canon(sub_gens)
    if B.cols == 0:
        return Subquotient(free_group(0), IntMatrix.from_columns(ambient_rank, []))
    X = solve_columns(B, rel_gens)
    if X is None:
        raise ExactLatticeError("relations do not lie in the subgroup")
    return Subquotient(FgAbGroup(B.cols, X), B)


def hom_parts(h):
    """Kernel, image and cokernel of a homomorphism, with witnesses.

    >>> Z = free_group(1)
    >>> k, im, ck = hom_parts(hom_make(Z, Z, IntMatrix.from_rows([[5]])))
    >>> k.group.describe(), im.group.describe(), ck.group.describe()
    ('0', 'Z', 'Z/5')
    """
    src, tgt, M = h.source, h.target, h.matrix
    # cokernel: target modulo (image + target relations); witness projects
    coker = FgAbGroup(tgt.generators, M.hstack(tgt.relations))
    coker_part = Subquotient(coker, IntMatrix.identity(tgt.generators))
    # image: (im M + R_t)/R_t as a subquotient of the target ambient
    image_part = subquotient(tgt.generators, M.hstack(tgt.relations), tgt.relations)
    # kernel: preimage of R_t under M, modulo R_s
    pre = preimage(M, tgt.relations).hstack(src.relations)
    kernel_part = subquotient(src.generators, pre, src.relations)
    return kernel_part, image_part, coker_part


def exactness_defect(inj, sur, tests=("injective", "surjective", "exact")):
    """The first of `tests` that  A --inj--> B --sur--> C  fails, or None.

    Each test is a yes/no lattice test, with no group built:

    * injective: the preimage of the relations of B under inj lies in the
      relations of A;
    * surjective: im sur + the relations of C is all of Z^c (index 1);
    * exact: im inj + the relations of B and the preimage under sur of
      the relations of C have one canonical form.

    >>> Z = free_group(1)
    >>> two = hom_make(Z, Z, IntMatrix.from_rows([[2]]))
    >>> exactness_defect(two, hom_make(Z, cyclic_group(2), IntMatrix.from_rows([[1]])))
    >>> exactness_defect(two, identity_hom(Z))
    'exact'
    >>> exactness_defect(two, two, ("injective", "exact", "surjective"))
    'exact'
    """
    mid = inj.target.relations
    for test in tests:
        if test == "injective":
            ech = inj.source._relation_echelon
            pre = preimage(inj.matrix, mid)
            holds = all(_in_span(ech, c) for c in _transposed(pre.data, pre.cols))
        elif test == "surjective":
            holds = ambient_index(sur.matrix.hstack(sur.target.relations)) == 1
        elif test == "exact":
            kernel_gens = preimage(sur.matrix, sur.target.relations)
            holds = (lattice_canon(inj.matrix.hstack(mid))
                     == lattice_canon(kernel_gens.hstack(mid)))
        else:
            raise ValueError("unknown exactness test %r" % test)
        if not holds:
            return test
    return None
