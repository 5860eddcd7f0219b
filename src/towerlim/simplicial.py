"""Finite simplicial complexes, simplicial maps and exact homology.

Vertices are integers 0..n-1; simplices are sorted vertex tuples closed
under faces.  Homology is computed over Z with exact integer kernels and
Smith invariants.  Large complexes (mapping telescopes) never reach a
dense matrix whole, and stay exact.  The boundary from edges to vertices
is an oriented incidence matrix, totally unimodular, so its invariants
are V - c ones, counted by a union-find (a spanning forest).  Every
other boundary map goes through a sparse unit-pivot elimination before
the dense Smith normal form of the residue: first the free faces and
coreductions, +-1 entries alone in their row or column, which cause no
fill-in and are removed from a worklist in linear time (Kaczynski,
Mischaikow and Mrozek 2004; Mrozek and Batko 2009), then the +-1 pivot
of least Markowitz cost (len(row) - 1) * (len(col) - 1), taken from a
heap whose stale keys are checked again when popped, so fill-in stays
small (Markowitz 1957; Dumas, Heckenbach, Saunders and Welker 2003 use
the same order on simplicial boundary matrices).  A complex indexes its
simplices by dimension once, and keeps the invariants of each boundary
map it has eliminated, on the object itself.  The dense witnesses of
induced maps refuse a boundary matrix of more than MAX_DENSE_ENTRIES
entries with TooLarge, before allocating it.

Subdivisions and mapping cylinders are built by walking the face poset
from the maximal simplices: sd(K) is closed from the full flags
vertex < ... < maximal simplex, and the cylinder of f from the
codimension-1 descents below each maximal simplex, each capped by the
image of its last simplex.  Every other simplex is a face of one of
these, so the cost is linear in the size of the result.  The descents
come from one generator, cylinder_cells, which takes the vertex ids to
emit, so a mapping telescope writes each cylinder's cells in its own
ids; subdivide_map maps between subdivisions its caller already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations

from .errors import SimplicialError, TooLarge
from .exactlat import (
    FgAbGroup,
    IntMatrix,
    diagonal_group,
    hom_make,
    kernel as lattice_kernel,
    snf,
    solve_columns,
    subquotient,
)


# The most entries a dense boundary matrix of _witness may have, about a
# 700 x 700 matrix; a larger one is refused with TooLarge before it is
# allocated.  The slowest witness below the bound, the cohomology bond of
# a 675-vertex circle in `cech`, takes seconds, and the time grows with
# about the third power of the vertex count.
MAX_DENSE_ENTRIES = 500_000


@dataclass(frozen=True)
class SimplicialComplex:
    vertex_count: int
    simplices: frozenset   # of sorted vertex tuples, face-closed

    @staticmethod
    def from_maximal(vertex_count, maximal):
        """Close the given simplices under faces."""
        closed = set()
        for s in maximal:
            s = tuple(sorted(s))
            if len(set(s)) != len(s) or (s and (s[0] < 0 or s[-1] >= vertex_count)):
                raise SimplicialError("bad simplex %r" % (s,))
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        return SimplicialComplex(vertex_count, frozenset(closed))

    def __post_init__(self):
        # the codimension-1 faces suffice: by induction on the dimension
        # every face of every simplex is then present
        simplices = self.simplices
        for s in simplices:
            if tuple(sorted(s)) != s:
                raise SimplicialError("simplex %r is not sorted" % (s,))
            if len(s) > 1:
                for i in range(len(s)):
                    f = s[:i] + s[i + 1:]
                    if f not in simplices:
                        raise SimplicialError("missing face %r of %r" % (f, s))

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
    def _boundary_memo(self):
        """Nonzero Smith invariants of each boundary map eliminated so far."""
        return {}

    @cached_property
    def _witness_memo(self):
        """(Co)homology with witnesses, by (cohomology?, degree, reduced)."""
        return {}

    @property
    def dimension(self):
        return max(self._by_dim, default=-1)

    def simplices_of_dim(self, k):
        return list(self._by_dim.get(k, ()))

    def euler_characteristic(self):
        chi = 0
        for s in self.simplices:
            chi += (-1) ** (len(s) - 1)
        return chi

    def boundary_matrix(self, k):
        """The boundary map from k-chains to (k-1)-chains."""
        rows = self.simplices_of_dim(k - 1)
        cols = self.simplices_of_dim(k)
        idx = {s: i for i, s in enumerate(rows)}
        data = [[0] * len(cols) for _ in range(len(rows))]
        for j, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face:
                    data[idx[face]][j] = (-1) ** i
        return IntMatrix(len(rows), len(cols), data)

    def augmentation_matrix(self):
        verts = self.simplices_of_dim(0)
        return IntMatrix(1, len(verts), [[1] * len(verts)])


# ---------------------------------------------------------------------------
# sparse invariant-factor computation for big boundary matrices


def _sparse_from_matrix(mat):
    cols = {}
    for j in range(mat.cols):
        col = {}
        for i in range(mat.rows):
            v = mat.data[i][j]
            if v:
                col[i] = v
        cols[j] = col
    return cols


def _sparse_boundary(K, k):
    """Sparse column dict of the boundary map from k-chains."""
    idx = {s: i for i, s in enumerate(K.simplices_of_dim(k - 1))}
    cols = {}
    for j, s in enumerate(K.simplices_of_dim(k)):
        col = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face:
                col[idx[face]] = (-1) ** i
        cols[j] = col
    return cols


def sparse_invariants(mat):
    """Smith invariant factors (nonzero ones) of a sparse-ish matrix.

    Eliminates +-1 pivots with unimodular operations, then runs the dense
    Smith form on the small residue.  Pivots that cause no fill-in go
    first: a +-1 entry alone in its row (a free face) or alone in its
    column (a coreduction) is eliminated by deleting its row and column.
    The remaining pivots are the +-1 entries of least Markowitz cost
    (len(row) - 1) * (len(col) - 1), the fill-in their elimination can
    cause at most.  Any sequence of unit pivots is unimodular, so the
    order changes the residue but not its Smith form: the result is the
    Smith diagonal of the whole matrix, units first.

    >>> sparse_invariants(IntMatrix.from_rows([[1, 1, 0], [0, 2, 2]]))
    [1, 2]
    """
    return _sparse_invariants_from_cols(_sparse_from_matrix(mat))


def _collapse(cols):
    """Build the row view of the column dict cols and eliminate every +-1
    entry alone in its row (a free face) or its column (a coreduction),
    until none is left; returns the rows and the number of pivots.

    A lone unit of a line a, at the crossing line b, clears the rest of b
    by operations with a alone, so the pivot deletes a and b and nothing
    fills in.  A line that loses its entry in b and is left with one
    entry goes on the worklist, so the pass costs time linear in the
    entries it removes.  A lone entry that is no unit stays.  The
    worklist holds (lines, cross, a): the view of line a and the other
    view, rows and columns in either order.
    """
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    work = [(rows, cols, i) for i, row in rows.items() if len(row) == 1]
    work += [(cols, rows, j) for j, col in cols.items() if len(col) == 1]
    units = 0
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
        units += 1
    return rows, units


def _sparse_invariants_from_cols(cols):
    """Eliminate unit pivots of the column dict cols (consumed): first the
    free faces and coreductions of _collapse, in time linear in the
    entries they remove, then the rest in Markowitz order from a heap
    whose stale keys are checked again when popped; the dense Smith form
    of what is left gives the other invariants."""
    rows, units = _collapse(cols)
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
        # column operations clear row pi; the entries of column pj then
        # leave with it, so no row operation is needed
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
        units += 1
    live_rows = sorted({i for col in cols.values() for i in col})
    live_cols = sorted(j for j, col in cols.items() if col)
    if not live_cols:
        return [1] * units
    ri = {v: k for k, v in enumerate(live_rows)}
    dense = [[0] * len(live_cols) for _ in range(len(live_rows))]
    for cj, j in enumerate(live_cols):
        for i, v in cols[j].items():
            dense[ri[i]][cj] = v
    S, _, _ = snf(IntMatrix(len(live_rows), len(live_cols), dense))
    rest = [d for d in S.diagonal() if d != 0]
    return [1] * units + rest


def _forest_size(K):
    """The number of edges in a spanning forest of the 1-skeleton of K.

    The boundary from edges to vertices is the incidence matrix of an
    oriented graph, which is totally unimodular, so its nonzero Smith
    invariants are all 1 and there are as many as its rank: V - c for V
    vertices in c components, the size of any spanning forest.  Each
    union of two components in a union-find over the edges adds one
    forest edge.
    """
    parent = list(range(K.vertex_count))
    size = 0
    for a, b in K._by_dim.get(1, ()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            size += 1
    return size


def _boundary_invariants(K, k):
    """Nonzero Smith invariants of the boundary map from k-chains of K,
    computed once per complex: V - c ones for k = 1 (_forest_size), the
    unit-pivot elimination for every other k."""
    memo = K._boundary_memo
    if k not in memo:
        if k == 1:
            memo[k] = [1] * _forest_size(K)
        else:
            memo[k] = _sparse_invariants_from_cols(_sparse_boundary(K, k))
    return memo[k]


def homology_invariants(K, n, reduced=False):
    """(rank, torsion) of H_n over Z, without witnesses."""
    if n < 0:
        raise SimplicialError("negative degree")
    c_n = len(K.simplices_of_dim(n))
    if c_n == 0:
        return (0, [])
    if n == 0:
        rank_lower = 1 if reduced else 0      # the augmentation is onto Z
    else:
        rank_lower = len(_boundary_invariants(K, n))
    upper_inv = _boundary_invariants(K, n + 1)
    free = c_n - rank_lower - len(upper_inv)
    torsion = sorted(d for d in upper_inv if d >= 2)
    return (free, torsion)


# ---------------------------------------------------------------------------
# homology with witnesses (dense; used for induced maps)


@dataclass(frozen=True)
class HomologyData:
    group: FgAbGroup
    cycle_basis: IntMatrix     # columns: (co)cycles generating the group, in chain coords
    incoming: IntMatrix        # the map into degree-n (co)chains whose image is divided out


def _witness(K, co, n, reduced=False):
    """ker(outgoing) / im(incoming) on the degree-n chains of K (the
    cochains when co is true), computed once per complex."""
    memo = K._witness_memo
    key = (co, n, reduced)
    if key not in memo:
        for k in (n, n + 1):
            entries = len(K._by_dim.get(k - 1, ())) * len(K._by_dim.get(k, ()))
            if entries > MAX_DENSE_ENTRIES:
                raise TooLarge(
                    "the dense boundary matrix from %d-chains would have %d entries, "
                    "over the bound of %d entries on a dense boundary matrix"
                    % (k, entries, MAX_DENSE_ENTRIES))
        if co:
            outgoing = K.boundary_matrix(n + 1).transpose()
            incoming = K.boundary_matrix(n).transpose()
        else:
            # in degree 0 the reduced outgoing map is the augmentation onto Z
            outgoing = K.augmentation_matrix() if reduced and n == 0 else K.boundary_matrix(n)
            incoming = K.boundary_matrix(n + 1)
        part = subquotient(incoming.rows, lattice_kernel(outgoing), incoming)
        memo[key] = HomologyData(part.group, part.witness, incoming)
    return memo[key]


def homology_data(K, n, reduced=False):
    return _witness(K, False, n, reduced)


def cohomology_data(K, n):
    return _witness(K, True, n)


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


@dataclass(frozen=True)
class SimplicialMap:
    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: tuple

    def __post_init__(self):
        if len(self.vertex_map) != self.source.vertex_count:
            raise SimplicialError("vertex map has the wrong length")
        for s in self.source.simplices:
            img = tuple(sorted(set(self.vertex_map[v] for v in s)))
            if img not in self.target.simplices:
                raise SimplicialError("image of %r is not a simplex" % (s,))

    def compose(self, inner):
        if inner.target is not self.source and inner.target != self.source:
            raise SimplicialError("composition mismatch")
        vm = tuple(self.vertex_map[v] for v in inner.vertex_map)
        return SimplicialMap(inner.source, self.target, vm)

    def chain_matrix(self, k):
        """Induced map on k-chains; degenerate images contribute zero."""
        src = self.source.simplices_of_dim(k)
        tgt = self.target.simplices_of_dim(k)
        idx = {s: i for i, s in enumerate(tgt)}
        data = [[0] * len(src) for _ in range(len(tgt))]
        for j, s in enumerate(src):
            img = [self.vertex_map[v] for v in s]
            if len(set(img)) != len(img):
                continue
            sign = _sort_sign(img)
            data[idx[tuple(sorted(img))]][j] = sign
        return IntMatrix(len(tgt), len(src), data)


def _sort_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def identity_map(K):
    return SimplicialMap(K, K, tuple(range(K.vertex_count)))


def _induced(f, co, n, reduced=False):
    """The map induced by f on degree-n homology, or contravariantly on
    cohomology: one solve against the target basis stacked with its
    incoming map."""
    src, tgt = (f.target, f.source) if co else (f.source, f.target)
    src, tgt = _witness(src, co, n, reduced), _witness(tgt, co, n, reduced)
    if src.group.generators == 0 or tgt.group.generators == 0:
        return hom_make(src.group, tgt.group,
                        IntMatrix.zero(tgt.group.generators, src.group.generators))
    C = f.chain_matrix(n).transpose() if co else f.chain_matrix(n)
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


def _maximal_simplices(K):
    """The simplices of K that are no proper face of another, in sorted order."""
    faces = {f for s in K.simplices if len(s) > 1 for f in _facets(s)}
    return sorted(s for s in K.simplices if s not in faces)


def barycentric_subdivision(K):
    """sd(K) together with the vertex labeling (new vertex -> simplex).

    The simplices of sd(K) are the chains of the face poset of K.  Each
    chain refines to a full flag vertex < edge < ... < maximal simplex,
    so the full flags (one per ordering of the vertices of a maximal
    simplex) are closed under faces.
    """
    simplices = sorted(K.simplices)
    label = {s: i for i, s in enumerate(simplices)}
    flags = []
    for top in _maximal_simplices(K):
        for order in permutations(top):
            flags.append([label[tuple(sorted(order[:k]))]
                          for k in range(1, len(top) + 1)])
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
    def descend(chain, last):
        cells.append(chain + list({target_ids[vm[v]] for v in last}))
        if len(last) > 1:
            for face in _facets(last):
                descend(chain + [bary[face]], face)
    for top in _maximal_simplices(f.source):
        descend([bary[top]], top)
    return cells
