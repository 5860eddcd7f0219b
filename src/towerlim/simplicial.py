"""Finite simplicial complexes, simplicial maps and exact homology.

Vertices are integers 0..n-1; simplices are sorted vertex tuples closed
under faces.  Homology is computed over Z with exact integer kernels and
Smith invariants.  Large complexes (mapping telescopes) go through a
sparse unit-pivot elimination before the dense Smith normal form, which
keeps the desk-scale cost low without giving up exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exactlat import (
    FgAbGroup,
    IntMatrix,
    free_group,
    hom_make,
    kernel as lattice_kernel,
    present,
    snf,
    solve_columns,
    subquotient,
)


class SimplicialError(Exception):
    pass


@dataclass(frozen=True)
class SimplicialComplex:
    vertex_count: int
    simplices: frozenset   # of sorted vertex tuples, face-closed

    @staticmethod
    def from_maximal(vertex_count, maximal):
        """Close the given simplices under faces."""
        closed = set()
        for s in maximal:
            s = tuple(sorted(set(s)))
            if len(set(s)) != len(s) or (s and (s[0] < 0 or s[-1] >= vertex_count)):
                raise SimplicialError("bad simplex %r" % (s,))
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        return SimplicialComplex(vertex_count, frozenset(closed))

    def __post_init__(self):
        for s in self.simplices:
            if tuple(sorted(s)) != s:
                raise SimplicialError("simplex %r is not sorted" % (s,))
            for k in range(1, len(s)):
                for f in combinations(s, k):
                    if f not in self.simplices:
                        raise SimplicialError("missing face %r of %r" % (f, s))

    @property
    def dimension(self):
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def simplices_of_dim(self, k):
        return sorted(s for s in self.simplices if len(s) == k + 1)

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
    """Sparse column dict of the boundary map from k-chains, plus its shape."""
    rows = K.simplices_of_dim(k - 1)
    cols_list = K.simplices_of_dim(k)
    idx = {s: i for i, s in enumerate(rows)}
    cols = {}
    for j, s in enumerate(cols_list):
        col = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face:
                col[idx[face]] = (-1) ** i
        cols[j] = col
    return cols, len(rows), len(cols_list)


def sparse_invariants(mat):
    """Smith invariant factors (nonzero ones) of a sparse-ish matrix.

    Eliminates +-1 pivots with unimodular operations, then runs the dense
    Smith form on the small residue.
    """
    cols = _sparse_from_matrix(mat)
    return _sparse_invariants_from_cols(cols)


def _sparse_invariants_from_cols(cols):
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    queue = [(i, j) for j, col in cols.items()
             for i, v in col.items() if v in (1, -1)]
    units = 0
    while queue:
        pi, pj = queue.pop()
        if pj not in cols or pi not in cols[pj]:
            continue
        pv = cols[pj][pi]
        if pv not in (1, -1):
            continue
        prow = dict(rows.get(pi, {}))
        pcol = dict(cols.get(pj, {}))
        for j in list(prow):
            if j == pj:
                continue
            f = prow[j] * pv  # pv in {1,-1} so this is prow[j]/pv
            for i in list(pcol):
                if i == pi:
                    continue
                new = cols[j].get(i, 0) - f * pcol[i]
                if new:
                    cols[j][i] = new
                    rows.setdefault(i, {})[j] = new
                    if new in (1, -1):
                        queue.append((i, j))
                else:
                    cols[j].pop(i, None)
                    rows.get(i, {}).pop(j, None)
        for j in list(prow):
            if j in cols:
                cols[j].pop(pi, None)
        for i in list(pcol):
            rows.get(i, {}).pop(pj, None)
        cols.pop(pj, None)
        rows.pop(pi, None)
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


def homology_invariants(K, n, reduced=False):
    """(rank, torsion) of H_n over Z, without witnesses."""
    if n < 0:
        raise SimplicialError("negative degree")
    c_n = len(K.simplices_of_dim(n))
    if c_n == 0:
        return (0, [])
    if n == 0:
        if reduced:
            lower_cols = {j: {0: 1} for j in range(c_n)}
        else:
            lower_cols = {}
    else:
        lower_cols, _, _ = _sparse_boundary(K, n)
    upper_cols, _, _ = _sparse_boundary(K, n + 1)
    rank_lower = len(_sparse_invariants_from_cols(lower_cols)) if lower_cols else 0
    upper_inv = _sparse_invariants_from_cols(upper_cols)
    rank_upper = len(upper_inv)
    free = c_n - rank_lower - rank_upper
    torsion = sorted(d for d in upper_inv if d >= 2)
    return (free, torsion)


# ---------------------------------------------------------------------------
# homology with witnesses (dense; used for induced maps)


@dataclass(frozen=True)
class HomologyData:
    group: FgAbGroup
    cycle_basis: IntMatrix     # columns: cycles generating H_n, in chain coords
    chain_rank: int
    degree: int
    reduced: bool


def homology_data(K, n, reduced=False):
    c_n = len(K.simplices_of_dim(n))
    if c_n == 0:
        return HomologyData(free_group(0), IntMatrix.from_columns(0, []), 0, n, reduced)
    if n == 0:
        lower = K.augmentation_matrix() if reduced else IntMatrix.zero(0, c_n)
    else:
        lower = K.boundary_matrix(n)
    upper = K.boundary_matrix(n + 1)
    cycles = lattice_kernel(lower) if lower.rows else IntMatrix.identity(c_n)
    part = subquotient(c_n, cycles, upper)
    return HomologyData(part.group, part.witness, c_n, n, reduced)


def simplicial_homology(K, n, reduced=False):
    """H_n(K) as a finitely generated abelian group.

    >>> tri = SimplicialComplex.from_maximal(3, [(0, 1), (1, 2), (0, 2)])
    >>> simplicial_homology(tri, 1).describe()
    'Z'
    >>> simplicial_homology(tri, 0).describe()
    'Z'
    """
    r, t = homology_invariants(K, n, reduced)
    k = r + len(t)
    rel_cols = [[t[i] if j == i else 0 for j in range(k)] for i in range(len(t))]
    return present(k, IntMatrix.from_columns(k, rel_cols))


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


def induced_hom(f, n, reduced=False):
    """The induced map on degree-n homology, as a validated Homomorphism."""
    src = homology_data(f.source, n, reduced)
    tgt = homology_data(f.target, n, reduced)
    if src.group.generators == 0 or tgt.group.generators == 0:
        return hom_make(src.group, tgt.group,
                        IntMatrix.zero(tgt.group.generators, src.group.generators))
    C = f.chain_matrix(n)
    img = C * src.cycle_basis
    upper = f.target.boundary_matrix(n + 1)
    stacked = tgt.cycle_basis.hstack(upper)
    X = solve_columns(stacked, img)
    if X is None:
        raise SimplicialError("chain image is not a cycle modulo boundaries")
    M = X.submatrix(range(tgt.cycle_basis.cols), range(X.cols))
    return hom_make(src.group, tgt.group, M)


# ---------------------------------------------------------------------------
# cohomology


def simplicial_cohomology(K, n):
    """H^n(K) over Z via the transposed boundary maps."""
    c_n = len(K.simplices_of_dim(n))
    if c_n == 0:
        return free_group(0)
    delta_up = K.boundary_matrix(n + 1).transpose()    # C^n -> C^(n+1)
    delta_down = K.boundary_matrix(n).transpose() if n > 0 else IntMatrix.zero(c_n, 0)
    cocycles = lattice_kernel(delta_up)
    part = subquotient(c_n, cocycles, delta_down)
    return part.group


def cohomology_data(K, n):
    c_n = len(K.simplices_of_dim(n))
    if c_n == 0:
        return HomologyData(free_group(0), IntMatrix.from_columns(0, []), 0, n, False)
    delta_up = K.boundary_matrix(n + 1).transpose()
    delta_down = K.boundary_matrix(n).transpose() if n > 0 else IntMatrix.zero(c_n, 0)
    cocycles = lattice_kernel(delta_up)
    part = subquotient(c_n, cocycles, delta_down)
    return HomologyData(part.group, part.witness, c_n, n, False)


def induced_cohom(f, n):
    """The contravariant induced map H^n(target) -> H^n(source)."""
    src = cohomology_data(f.target, n)
    tgt = cohomology_data(f.source, n)
    if src.group.generators == 0 or tgt.group.generators == 0:
        return hom_make(src.group, tgt.group,
                        IntMatrix.zero(tgt.group.generators, src.group.generators))
    C = f.chain_matrix(n).transpose()
    img = C * src.cycle_basis
    delta_down = f.source.boundary_matrix(n).transpose() if n > 0 else \
        IntMatrix.zero(len(f.source.simplices_of_dim(0)), 0)
    stacked = tgt.cycle_basis.hstack(delta_down) if delta_down.cols else tgt.cycle_basis
    X = solve_columns(stacked, img)
    if X is None:
        raise SimplicialError("cochain image is not a cocycle modulo coboundaries")
    M = X.submatrix(range(tgt.cycle_basis.cols), range(X.cols))
    return hom_make(src.group, tgt.group, M)


# ---------------------------------------------------------------------------
# barycentric subdivision and the simplicial mapping cylinder


def barycentric_subdivision(K):
    """sd(K) together with the vertex labeling (new vertex -> simplex)."""
    simplices = sorted(K.simplices)
    label = {s: i for i, s in enumerate(simplices)}
    chains = []
    def grow(chain):
        chains.append(tuple(chain))
        last = chain[-1]
        for s in simplices:
            if len(s) > len(last) and set(last) < set(s):
                grow(chain + [s])
    for s in simplices:
        grow([s])
    maximal = [tuple(sorted(label[s] for s in ch)) for ch in chains]
    sd = SimplicialComplex.from_maximal(len(simplices), maximal)
    return sd, simplices


def subdivide_map(f, src_labels, tgt_labels):
    """sd(f): barycenters map to barycenters of image simplices."""
    tgt_index = {s: i for i, s in enumerate(tgt_labels)}
    vm = []
    for s in src_labels:
        img = tuple(sorted(set(f.vertex_map[v] for v in s)))
        vm.append(tgt_index[img])
    sd_src, _ = barycentric_subdivision(f.source)
    sd_tgt, _ = barycentric_subdivision(f.target)
    return SimplicialMap(sd_src, sd_tgt, tuple(vm))


@dataclass(frozen=True)
class MappingCylinder:
    """Simplicial mapping cylinder of f: K -> L.

    complex contains a copy of L (bottom) and of sd(K) (top); the two
    inclusions and the simplicial retraction onto L are provided.
    """

    complex: SimplicialComplex
    target_inclusion: SimplicialMap       # L -> cylinder
    source_inclusion: SimplicialMap       # sd(K) -> cylinder
    retraction: SimplicialMap             # cylinder -> L
    source_subdivision: SimplicialComplex
    source_labels: tuple                  # simplex of K for each sd(K) vertex


def mapping_cylinder(f):
    K, L = f.source, f.target
    simplices = sorted(K.simplices)
    bary = {s: i for i, s in enumerate(simplices)}          # barycenter vertices
    offset = len(simplices)                                  # then L vertices
    n_vertices = offset + L.vertex_count

    cyl = set()
    for s in L.simplices:
        cyl.add(tuple(v + offset for v in s))
    # descending chains of simplices of K, optionally capped by tau <= f(last)
    def descend(chain):
        verts = tuple(sorted(bary[s] for s in chain))
        cyl.add(verts)
        last = chain[-1]
        fimg = tuple(sorted(set(f.vertex_map[v] for v in last)))
        for k in range(1, len(fimg) + 1):
            for tau in combinations(fimg, k):
                cyl.add(tuple(sorted(verts + tuple(v + offset for v in tau))))
        for s in simplices:
            if len(s) < len(last) and set(s) < set(last):
                descend(chain + [s])
    for s in simplices:
        descend([s])
    complex_ = SimplicialComplex(n_vertices, frozenset(cyl))

    tgt_inc = SimplicialMap(L, complex_, tuple(range(offset, n_vertices)))
    sdK, labels = barycentric_subdivision(K)
    src_inc = SimplicialMap(sdK, complex_, tuple(range(len(simplices))))
    retraction = SimplicialMap(
        complex_, L,
        tuple(f.vertex_map[s[0]] for s in simplices) + tuple(range(L.vertex_count)))
    return MappingCylinder(complex_, tgt_inc, src_inc, retraction, sdK, tuple(labels))
