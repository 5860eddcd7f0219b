"""Finite simplicial complexes, simplicial maps and exact homology.

Vertices are integers 0..n-1; simplices are sorted vertex tuples closed
under faces.  Homology is computed over Z with exact integer kernels and
Smith invariants, and no boundary or chain map is ever formed as a
dense matrix whole.  Each complex is reduced once by unit pivots, and
both its homology invariants and its witnesses are read from that
reduction.  The boundary from k-chains is eliminated for k = 1, 2, ...
in turn, without the rows of the (k-1)-cells already paired with a
face.  The edges are paired along a spanning forest, each tree edge
with its endpoint away from the root: V - c unit pivots for V vertices
in c components.  Every other boundary map loses its free faces and
coreductions first, +-1 entries alone in their row or column, which
cause no fill-in, from a worklist in linear time (Kaczynski, Mischaikow
and Mrozek 2004; Mrozek and Batko 2009), then the +-1 pivot of least
Markowitz cost (len(row) - 1) * (len(col) - 1), from a heap whose stale
keys are checked again when popped (Markowitz 1957; Dumas, Heckenbach,
Saunders and Welker 2003).  The Smith invariants of a boundary map are
a 1 for each pivot and those of the dense residue.

Each unit pivot pairs a k-cell with a (k-1)-cell, and the pairs span an
acyclic subcomplex, so the quotient K' on the unpaired (critical)
cells, with the residues as its boundary maps, is chain equivalent to
K: the projection pi clears a chain's cells paired with a coface by
boundaries of their partners and keeps its critical coefficients, and
the lift iota adds to a critical cell the paired cells that clear its
boundary on their partners.  Groups and their witnesses are the exact
kernels and subquotients of the small dense boundary maps of K'; the
map induced by f on degree-n (co)homology is read from pi_L f_# iota_K
on the critical n-cells (its transpose for cohomology), with f_#
applied to the few lifted chains directly.  A complex indexes its
simplices by dimension, its maximal simplices, its reduction and its
witnesses once, on the object itself.  A dense residue of more than
`errors.MAX_DENSE_ENTRIES` entries is refused with TooLarge before it is
allocated.

SimplicialComplex.from_maximal closes its input once, from the top
dimension down, and reads the index by dimension and the maximal
simplices from that trusted closure; only the public constructor
SimplicialComplex(n, simplices) checks the codimension-1 faces.

Subdivisions and mapping cylinders are built by walking the face poset
from the maximal simplices: sd(K) is closed from the full flags
vertex < ... < maximal simplex, and the cylinder of f from the
codimension-1 descents below each maximal simplex, each capped by the
image of its last simplex.  Every other simplex is a face of one of
these, so the cost is linear in the size of the result.  The flags and
the descents both go down through facets; the descents come from one
generator, cylinder_cells, which takes the vertex ids to emit, so a
mapping telescope writes each cylinder's cells in its own ids;
subdivide_map maps between subdivisions its caller already holds.
A simplicial map is validated on the maximal simplices of its source:
every simplex is a face of one, and the target is closed under faces.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import filterfalse

from . import errors
from .errors import SimplicialError, TooLarge
from .exactlat import (
    IntMatrix,
    Record,
    _invariant_factors,
    diagonal_group,
    hom_make,
    kernel as lattice_kernel,
    solve_columns,
    subquotient,
)


class SimplicialComplex(Record):
    """A face-closed frozenset of simplices, each a sorted tuple of
    vertices below vertex_count."""

    _fields = ("vertex_count", "simplices")

    def __init__(self, vertex_count, simplices):
        # the codimension-1 faces suffice: by induction on the dimension
        # every face of every simplex is then present
        for s in simplices:
            if tuple(sorted(s)) != s:
                raise SimplicialError("simplex %r is not sorted" % (s,))
            if len(s) > 1:
                for i in range(len(s)):
                    f = s[:i] + s[i + 1:]
                    if f not in simplices:
                        raise SimplicialError("missing face %r of %r" % (f, s))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "simplices", simplices)

    @staticmethod
    def from_maximal(vertex_count, maximal):
        """Close the given simplices under faces, from the top dimension
        down: each dimension holds the facets of the dimension above, a
        vertex column left out at a time, and the given simplices, of
        which those that are no such facet are maximal.  The closure is
        face-closed by construction, so the complex is built through
        _new, with its index by dimension and its maximal simplices, and
        its faces are not checked again."""
        given = {}
        for s in maximal:
            s = tuple(sorted(s))
            if len(set(s)) != len(s) or (s and (s[0] < 0 or s[-1] >= vertex_count)):
                raise SimplicialError("bad simplex %r" % (s,))
            if s:
                given.setdefault(len(s) - 1, set()).add(s)
        by_dim, closures, tops, above = {}, [], [], ()
        for k in range(max(given, default=-1), -1, -1):
            closed = set()
            columns = list(zip(*above))
            for i in range(len(columns)):
                closed.update(zip(*columns[:i], *columns[i + 1:]))
            own = given.pop(k, set())
            tops += own - closed
            closed |= own
            closures.append(closed)
            above = by_dim[k] = sorted(closed)
        # a union of sets sizes its table for them, which one of lists does not
        return SimplicialComplex._new(vertex_count, frozenset().union(*closures),
                                      by_dim, sorted(tops))

    @classmethod
    def _new(cls, vertex_count, simplices, by_dim, maximal):
        """Trusted constructor: simplices is face-closed, by_dim holds its
        sorted simplices of each dimension and maximal its sorted maximal
        simplices; none of it is checked again."""
        self = object.__new__(cls)
        self.__dict__.update(vertex_count=vertex_count, simplices=simplices,
                             _by_dim=by_dim, _maximal_simplices=maximal)
        return self

    @cached_property
    def _by_dim(self):
        """Sorted simplices of each dimension, indexed once per complex."""
        by_dim = {}
        for s in self.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        for group in by_dim.values():
            group.sort()
        return by_dim

    @cached_property
    def _witness_memo(self):
        """(Co)homology with witnesses, by (cohomology?, degree, reduced)."""
        return {}

    @cached_property
    def _reduction(self):
        """The unit-pivot reduction of the chain complex, degree by degree
        as the homology invariants and the witnesses ask for it."""
        return _Reduction(self._by_dim, self.vertex_count)

    @cached_property
    def _maximal_simplices(self):
        """The simplices that are no proper face of another, sorted: those
        of each dimension that are no facet of one a dimension higher."""
        by_dim = self._by_dim
        maximal = []
        for k, simplices in by_dim.items():
            # the facets of the (k+1)-simplices, a vertex column left out at a time
            columns = list(zip(*by_dim.get(k + 1, ())))
            facets = set()
            for i in range(len(columns)):
                facets.update(zip(*columns[:i], *columns[i + 1:]))
            maximal += filterfalse(facets.__contains__, simplices)
        return sorted(maximal)

    @property
    def dimension(self):
        return max(self._by_dim, default=-1)


# ---------------------------------------------------------------------------
# unit-pivot elimination of sparse boundary matrices


def _sparse_boundary(by_dim, k):
    """Sparse column dict of the boundary from k-chains, over the index
    by_dim: the i-th facets of all k-simplices, with the sign (-1)^i, are
    taken a vertex column left out at a time, as in from_maximal."""
    index = {s: i for i, s in enumerate(by_dim[k - 1])}.__getitem__
    columns = list(zip(*by_dim[k]))
    facets = [map(index, zip(*columns[:i], *columns[i + 1:])) for i in range(k + 1)]
    signs = [(-1) ** i for i in range(k + 1)]
    return {j: dict(zip(faces, signs)) for j, faces in enumerate(zip(*facets))}


def _collapse(cols, steps):
    """Build the row view of the column dict cols and eliminate every +-1
    entry alone in its row (a free face) or its column (a coreduction),
    until none is left; returns the rows.

    A lone unit of a line a, at the crossing line b, clears the rest of b
    by operations with a alone, so the pivot deletes a and b and nothing
    fills in.  A line that loses its entry in b and is left with one
    entry goes on the worklist, so the pass costs time linear in the
    entries it removes.  A lone entry that is no unit stays.  The
    worklist holds (lines, cross, a): the view of line a and the other
    view, rows and columns in either order.  Each pivot is appended to
    steps as _markowitz does.
    """
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    work = [(rows, cols, i) for i, row in rows.items() if len(row) == 1]
    work += [(cols, rows, j) for j, col in cols.items() if len(col) == 1]
    while work:
        lines, cross, a = work.pop()
        line = lines.get(a)
        if line is None or len(line) != 1:
            continue
        ((b, v),) = line.items()
        if v not in (1, -1):
            continue
        del lines[a]
        other = cross.pop(b)
        del other[a]
        for c in other:
            shrunk = lines[c]
            del shrunk[b]
            if len(shrunk) == 1:
                work.append((lines, cross, c))
        # a free face takes no column operation; a coreduction clears its
        # row from the columns in `other`
        steps.append((a, b, v, other, {}) if lines is rows else (b, a, v, {}, other))
    return rows


def _markowitz(cols, rows, steps):
    """Eliminate the +-1 pivots of the column dict cols (with its row view
    rows) in Markowitz order, from a heap whose stale keys are checked
    again when popped.

    Column operations clear the pivot row; the entries of the pivot
    column then leave with it, so no row operation is needed.  Each
    pivot is appended to steps as (row, column, unit, the rest of the
    column, the rest of the row), taken when it was pivoted: the record
    _Reduction lifts and projects chains with.
    """
    heap = [((len(rows[i]) - 1) * (len(col) - 1), i, j) for j, col in cols.items()
            for i, v in col.items() if v in (1, -1)]
    heapify(heap)
    while heap:
        cost, pi, pj = heappop(heap)
        pcol = cols.get(pj)
        if pcol is None or pcol.get(pi) not in (1, -1):
            continue
        prow = rows[pi]
        now = (len(prow) - 1) * (len(pcol) - 1)
        if now > cost:
            heappush(heap, (now, pi, pj))
            continue
        pv = pcol.pop(pi)
        del prow[pj]
        del cols[pj], rows[pi]
        for i in pcol:
            del rows[i][pj]
        for j, a in prow.items():
            col = cols[j]
            del col[pi]
            f = a * pv        # a / pv, since pv is +-1
            for i, b in pcol.items():
                row = rows[i]
                new = col.get(i, 0) - f * b
                if new:
                    col[i] = row[j] = new
                    if new in (1, -1):
                        heappush(heap, ((len(row) - 1) * (len(col) - 1), i, j))
                else:
                    del col[i], row[j]
        steps.append((pi, pj, pv, pcol, prow))


def _dense_residue(row_pos, columns):
    """The columns (dicts keyed by row) as a dense matrix, with row i at
    row_pos[i]; refused past errors.MAX_DENSE_ENTRIES before it is allocated."""
    entries = len(row_pos) * len(columns)
    if entries > errors.MAX_DENSE_ENTRIES:
        raise TooLarge(
            "the dense residue of a boundary map would have %d x %d = %d entries, "
            "over the bound of %d entries on a dense residue"
            % (len(row_pos), len(columns), entries, errors.MAX_DENSE_ENTRIES))
    dense = [[0] * len(columns) for _ in range(len(row_pos))]
    for j, col in enumerate(columns):
        for i, v in col.items():
            dense[row_pos[i]][j] = v
    return IntMatrix(len(row_pos), len(columns), dense)


def _unit_pivots(cols):
    """Eliminate the unit pivots of the column dict cols (consumed): first
    the free faces and coreductions of _collapse, in time linear in the
    entries they remove, then the rest by _markowitz."""
    steps = []
    _markowitz(cols, _collapse(cols, steps), steps)
    return _Pivots(steps, cols)


# ---------------------------------------------------------------------------
# the reduced complex K' and homology


class _Pivots:
    """The unit pivots of one boundary map, in the order they were taken,
    and the columns that no pivot took, with what is left of them."""

    def __init__(self, steps, residue):
        self.steps = steps          # (row, column, unit, rest of column, rest of row)
        self.residue = residue
        self.paired = {step[1] for step in steps}

    @cached_property
    def row_step(self):
        return {step[0]: t for t, step in enumerate(self.steps)}

    @cached_property
    def absorbed(self):
        """For each column, the (step, factor) of every pivot column that a
        column operation subtracted from it, factor times, in step order."""
        out = {}
        for t, (_, _, unit, _, rest_of_row) in enumerate(self.steps):
            for j, a in rest_of_row.items():
                out.setdefault(j, []).append((t, a * unit))
        return out

    @cached_property
    def invariants(self):
        """The nonzero Smith invariants of the boundary map: a 1 for each
        pivot, then those of the residue's nonzero rows and columns.  The
        rows the level below paired are zero in the basis it leaves, and
        unit pivots are unimodular, so these are those of the whole map."""
        columns = [col for _, col in sorted(self.residue.items()) if col]
        rows = sorted({i for col in columns for i in col})
        residue = _dense_residue({i: r for r, i in enumerate(rows)}, columns)
        return [1] * len(self.paired) + _invariant_factors(residue)


_NO_PIVOTS = _Pivots([], {})


class _Forest(_Pivots):
    """The boundary from edges to vertices, paired along a spanning forest.

    A union-find over the edges takes each edge that joins two of its
    components as a tree edge.  Pivoting root outwards, each tree edge
    pairs with its endpoint away from the root (towards which the pairing
    leads, so it is acyclic), the earlier pivots having moved the rest of
    its column onto the root: {root: -unit}.  Every other edge closes a
    cycle and ends as a zero column.  The steps are built when asked for.
    """

    def __init__(self, by_dim, vertex_count):
        self.by_dim = by_dim
        self.residue = {}
        self.paired = paired = set()
        parent = list(range(vertex_count))
        for j, (a, b) in enumerate(by_dim[1]):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                paired.add(j)

    @cached_property
    def steps(self):
        position = {v: i for i, (v,) in enumerate(self.by_dim[0])}
        incidences, ends = [{} for _ in position], []
        for j, (a, b) in enumerate(self.by_dim[1]):
            a, b = position[a], position[b]
            incidences[a][j], incidences[b][j] = -1, 1
            ends.append(a + b)      # so the end of edge j away from v is ends[j] - v
        steps, seen = [], [False] * len(position)
        for root in range(len(position)):
            if seen[root]:
                continue
            seen[root] = True
            stack = [root]
            while stack:
                v = stack.pop()
                for j in incidences[v]:
                    w = ends[j] - v
                    if j in self.paired and not seen[w]:
                        seen[w] = True
                        rest_of_row = dict(incidences[w])
                        unit = rest_of_row.pop(j)
                        steps.append((w, j, unit, {root: -unit}, rest_of_row))
                        stack.append(w)
        return steps


class _Reduction:
    """The reduction by unit pivots, kept, of the chain complex of the
    complex whose index by dimension is by_dim (no reference back to it).

    The boundary from edges is paired along a spanning forest (_Forest),
    and the boundary from k-chains for k = 2, 3, ... is eliminated by
    _unit_pivots in turn, without the rows of the (k-1)-cells that the
    level below paired with a face: in the basis its column operations
    leave, those rows are zero and the others are as they were.  So each
    pivot pairs two cells of a chain complex equivalent to K, and the
    critical (unpaired) cells span K', with the residues as boundaries.
    """

    def __init__(self, by_dim, vertex_count):
        self.by_dim = by_dim
        self.vertex_count = vertex_count
        self._levels = [_NO_PIVOTS]     # _levels[k]: the boundary from k-chains
        self._critical = {}

    def _level(self, k):
        while len(self._levels) <= k:
            self._levels.append(self._eliminate(len(self._levels)))
        return self._levels[k]

    def _eliminate(self, k):
        if k not in self.by_dim:
            return _NO_PIVOTS
        if k == 1:
            return _Forest(self.by_dim, self.vertex_count)
        cols = _sparse_boundary(self.by_dim, k)
        # the (k-1)-cells paired with a face leave their rows behind
        paired = self._levels[k - 1].paired
        for col in cols.values():
            for i in col.keys() & paired:
                del col[i]
        return _unit_pivots(cols)

    def critical(self, k):
        """The positions of the critical k-cells in by_dim[k], and the
        position of each among them."""
        if k not in self._critical:
            cells = []
            if k >= 0:
                down, up = self._level(k).paired, self._level(k + 1).row_step
                cells = [c for c in range(len(self.by_dim.get(k, ())))
                         if c not in down and c not in up]
            self._critical[k] = (cells, {c: i for i, c in enumerate(cells)})
        return self._critical[k]

    def boundary(self, k):
        """The boundary map of K' from k-chains, as a dense matrix."""
        cells, _ = self.critical(k)
        _, row_pos = self.critical(k - 1)
        residue = self._level(k).residue
        return _dense_residue(row_pos, [residue.get(c, {}) for c in cells])

    def augmentation(self):
        """The augmentation of K' onto Z: every critical vertex is a
        vertex of K, which iota leaves as it is."""
        count = len(self.critical(0)[0])
        return IntMatrix(1, count, [[1] * count])

    def lift(self, n, cell):
        """iota of the critical n-cell at position cell, as an n-chain of K.

        The elimination of the boundary from n-chains subtracted pivot
        columns from the cell's column, and each pivot column had itself
        absorbed earlier ones; the lift is the cell minus those multiples
        of the pivot cells, expanded from the last pivot down, so that its
        boundary vanishes on every face paired with a pivot cell."""
        chain = {cell: 1}
        level = self._level(n)
        absorbed, steps = level.absorbed, level.steps
        coef = {t: -f for t, f in absorbed.get(cell, ())}
        heap = [-t for t in coef]
        heapify(heap)
        while heap:
            t = -heappop(heap)
            c = coef.pop(t)
            if not c:
                continue
            b = steps[t][1]
            chain[b] = c
            for s, f in absorbed.get(b, ()):
                if s not in coef:
                    coef[s] = 0
                    heappush(heap, -s)
                coef[s] -= c * f
        return chain

    def project(self, n, chain):
        """pi of the n-chain {position: coefficient}, as a vector over the
        critical n-cells: the cells paired with a face are dropped, and the
        ones paired with a coface are cleared, in pivot order, by the pivot
        columns of the boundary from (n+1)-chains."""
        down = self._level(n).paired
        up = self._level(n + 1)
        row_step, steps = up.row_step, up.steps
        w = {i: c for i, c in chain.items() if c and i not in down}
        heap = [row_step[i] for i in w if i in row_step]
        heapify(heap)
        while heap:
            row, _, unit, rest_of_col, _ = steps[heappop(heap)]
            g = w.pop(row, 0) * unit
            if not g:
                continue
            for i, v in rest_of_col.items():
                new = w.get(i, 0) - g * v
                if not new:
                    del w[i]
                    continue
                if i not in w and i in row_step:
                    heappush(heap, row_step[i])
                w[i] = new
        _, pos = self.critical(n)
        vector = [0] * len(pos)
        for i, c in w.items():
            vector[pos[i]] = c
        return vector


def homology_invariants(K, n, reduced=False):
    """(rank, torsion) of H_n over Z, without witnesses, from the Smith
    invariants of two levels of the complex's reduction."""
    if n < 0:
        raise SimplicialError("negative degree")
    c_n = len(K._by_dim.get(n, ()))
    if c_n == 0:
        return (0, [])
    R = K._reduction
    # in degree 0 the reduced lower map is the augmentation, onto Z
    rank_lower = 1 if reduced and n == 0 else len(R._level(n).invariants)
    upper_inv = R._level(n + 1).invariants
    free = c_n - rank_lower - len(upper_inv)
    torsion = sorted(d for d in upper_inv if d >= 2)
    return (free, torsion)


class HomologyData(Record):
    """The FgAbGroup group, the IntMatrix cycle_basis whose columns are the
    (co)cycles generating it over the critical cells, and the IntMatrix
    incoming, the map into degree-n (co)chains of K' whose image is
    divided out."""

    _fields = ("group", "cycle_basis", "incoming")

    def __init__(self, group, cycle_basis, incoming):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "cycle_basis", cycle_basis)
        object.__setattr__(self, "incoming", incoming)


def _witness(K, co, n, reduced=False):
    """ker(outgoing) / im(incoming) on the degree-n chains of the reduced
    complex K' (the cochains when co is true), computed once per complex."""
    memo = K._witness_memo
    key = (co, n, reduced)
    if key not in memo:
        R = K._reduction
        if co:
            outgoing = R.boundary(n + 1).transpose()
            incoming = R.boundary(n).transpose()
        else:
            # in degree 0 the reduced outgoing map is the augmentation onto Z
            outgoing = R.augmentation() if reduced and n == 0 else R.boundary(n)
            incoming = R.boundary(n + 1)
        part = subquotient(incoming.rows, lattice_kernel(outgoing), incoming)
        memo[key] = HomologyData(part.group, part.witness, incoming)
    return memo[key]


def homology_data(K, n, reduced=False):
    return _witness(K, False, n, reduced)


def simplicial_homology(K, n, reduced=False):
    """H_n(K) as a finitely generated abelian group.

    >>> tri = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    >>> simplicial_homology(tri, 1).describe()
    'Z'
    >>> simplicial_homology(tri, 0).describe()
    'Z'
    """
    r, t = homology_invariants(K, n, reduced)
    return diagonal_group(tuple(t) + (0,) * r)


class SimplicialMap(Record):
    _fields = ("source", "target", "vertex_map")

    def __init__(self, source, target, vertex_map):
        # the maximal simplices suffice: every simplex is a face of one,
        # and the image of a face is a face of the image, which the
        # face-closed target then holds
        if len(vertex_map) != source.vertex_count:
            raise SimplicialError("vertex map has the wrong length")
        simplices = target.simplices
        for s in source._maximal_simplices:
            if tuple(sorted({vertex_map[v] for v in s})) not in simplices:
                raise SimplicialError("image of %r is not a simplex" % (s,))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "vertex_map", vertex_map)

    def compose(self, inner):
        if inner.target is not self.source and inner.target != self.source:
            raise SimplicialError("composition mismatch")
        vm = tuple(self.vertex_map[v] for v in inner.vertex_map)
        return SimplicialMap(inner.source, self.target, vm)


def _sort_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def _reduced_chain_map(f, n):
    """pi_L f_# iota_K: the map f induces from the critical n-cells of its
    source K to those of its target L, as a matrix.  f_# sends each
    simplex of a lifted chain to its image with the sign of the sorting
    permutation, and degenerate images to zero."""
    K, L = f.source, f.target
    simplices, vm = K._by_dim.get(n, ()), f.vertex_map
    index = {s: i for i, s in enumerate(L._by_dim.get(n, ()))}
    columns = []
    for cell in K._reduction.critical(n)[0]:
        image = {}
        for j, c in K._reduction.lift(n, cell).items():
            img = [vm[v] for v in simplices[j]]
            if len(set(img)) == len(img):
                i = index[tuple(sorted(img))]
                image[i] = image.get(i, 0) + _sort_sign(img) * c
        columns.append(L._reduction.project(n, image))
    return IntMatrix.from_columns(len(L._reduction.critical(n)[0]), columns)


def _induced(f, co, n, reduced=False):
    """The map induced by f on degree-n homology, or contravariantly on
    cohomology: one solve in the reduced target against its basis stacked
    with its incoming map."""
    src, tgt = (f.target, f.source) if co else (f.source, f.target)
    src, tgt = _witness(src, co, n, reduced), _witness(tgt, co, n, reduced)
    if src.group.generators == 0 or tgt.group.generators == 0:
        return hom_make(src.group, tgt.group,
                        IntMatrix.zero(tgt.group.generators, src.group.generators))
    C = _reduced_chain_map(f, n)
    if co:
        C = C.transpose()
    X = solve_columns(tgt.cycle_basis.hstack(tgt.incoming), C * src.cycle_basis)
    if X is None:
        raise SimplicialError("{0}chain image is not a {0}cycle modulo {0}boundaries"
                              .format("co" if co else ""))
    M = X.submatrix(range(tgt.cycle_basis.cols), range(X.cols))
    return hom_make(src.group, tgt.group, M)


def induced_hom(f, n, reduced=False):
    """The induced map on degree-n homology, as a validated Homomorphism."""
    return _induced(f, False, n, reduced)


def induced_cohom(f, n):
    """The contravariant induced map H^n(target) -> H^n(source)."""
    return _induced(f, True, n)


# ---------------------------------------------------------------------------
# barycentric subdivision and the simplicial mapping cylinder


def _facets(s):
    """The codimension-1 faces of the simplex s."""
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def barycentric_subdivision(K):
    """sd(K) together with the vertex labeling (new vertex -> simplex).

    The simplices of sd(K) are the chains of the face poset of K.  Each
    chain refines to a full flag vertex < edge < ... < maximal simplex,
    so the full flags are closed under faces; they are taken by
    descending from each maximal simplex through its facets, as
    cylinder_cells does.
    """
    simplices = sorted(K.simplices)
    label = {s: i for i, s in enumerate(simplices)}
    flags = []
    stack = [([label[top]], top) for top in K._maximal_simplices]
    while stack:
        flag, last = stack.pop()
        if len(last) == 1:
            flags.append(flag)
        else:
            stack += [(flag + [label[face]], face) for face in _facets(last)]
    sd = SimplicialComplex.from_maximal(len(simplices), flags)
    return sd, simplices


def subdivide_map(f, source_sd, target_sd):
    """sd(f): barycenters map to barycenters of image simplices.

    source_sd and target_sd are the pairs (sd(K), labels) that
    barycentric_subdivision gives for the source and the target of f, so
    a chain of subdivisions is built once and mapped between level by
    level.
    """
    (sd_src, src_labels), (sd_tgt, tgt_labels) = source_sd, target_sd
    tgt_index = {s: i for i, s in enumerate(tgt_labels)}
    vm = f.vertex_map
    return SimplicialMap(sd_src, sd_tgt, tuple(
        tgt_index[tuple(sorted({vm[v] for v in s}))] for s in src_labels))


def cylinder_cells(f, bary, target_ids):
    """The cells of the mapping cylinder of f that lie over its source.

    For each descending chain s_1 > ... > s_k of simplices of the source
    K, the barycenters of the chain joined to any face of f(s_k) form a
    simplex of the cylinder.  Each is a face of one where the chain
    descends by codimension-1 steps from a maximal simplex of K and is
    capped by all of f(s_k), so only those are returned: bary gives the
    vertex id of the barycenter of each simplex of K, and target_ids the
    id of each vertex of the target.  A vertex that f hits more than once
    on one simplex is emitted once, so no cell repeats a vertex.
    """
    vm = f.vertex_map
    cells = []
    stack = [([bary[top]], top) for top in f.source._maximal_simplices]
    while stack:
        chain, last = stack.pop()
        cells.append(chain + list({target_ids[vm[v]] for v in last}))
        if len(last) > 1:
            stack += [(chain + [bary[face]], face) for face in _facets(last)]
    return cells
