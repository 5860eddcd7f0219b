import functools
import random
from itertools import combinations

import pytest

from towerlim import simplicial
from towerlim.exactlat import (
    IntMatrix,
    hom_make,
    hom_parts,
    identity_hom,
    kernel,
    solve_columns,
    subquotient,
)
from towerlim.shape import PeriodicSimplicialTower, Telescope, make_example, telescope
from towerlim.simplicial import (
    SimplicialComplex,
    SimplicialError,
    SimplicialMap,
    barycentric_subdivision,
    homology_data,
    homology_invariants,
    induced_cohom,
    induced_hom,
    simplicial_homology,
    subdivide_map,
)

from testkit import constant_tower, identity_map, level_inclusion, level_to_base


def circle(n):
    """Cycle with n vertices (n >= 3)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SimplicialComplex.from_maximal(n, edges)


def winding_map(p):
    """The degree-p map from the 3p-vertex circle onto the 3-vertex circle,
    k -> k mod 3."""
    src = circle(3 * p)
    tgt = circle(3)
    return SimplicialMap(src, tgt, tuple(k % 3 for k in range(3 * p)))


def point():
    return SimplicialComplex.from_maximal(1, [(0,)])


def simplices_of_dim(K, k):
    """A fresh list of the k-simplices of K, from its index by dimension."""
    return list(K._by_dim.get(k, ()))


def euler_characteristic(K):
    return sum((-1) ** (len(s) - 1) for s in K.simplices)


def sparse_invariants(mat):
    """The nonzero Smith invariant factors of mat: a 1 for each unit pivot
    that simplicial._unit_pivots takes, then the invariant factors of the
    dense residue.  Any sequence of unit pivots is unimodular, so the order
    changes the residue but not its Smith form."""
    cols = {j: {i: row[j] for i, row in enumerate(mat.data) if row[j]}
            for j in range(mat.cols)}
    return simplicial._unit_pivots(cols).invariants


# ---------------------------------------------------------------------------
# the dense reference: boundary and chain matrices of the whole complex,
# and the witnesses and induced maps read off them


def dense_boundary(K, k):
    """The boundary map from k-chains to (k-1)-chains."""
    rows = simplices_of_dim(K, k - 1)
    cols = simplices_of_dim(K, k)
    idx = {s: i for i, s in enumerate(rows)}
    data = [[0] * len(cols) for _ in range(len(rows))]
    for j, s in enumerate(cols):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face:
                data[idx[face]][j] = (-1) ** i
    return IntMatrix(len(rows), len(cols), data)


def dense_chain_matrix(f, k):
    """Induced map on k-chains; degenerate images contribute zero."""
    src = simplices_of_dim(f.source, k)
    tgt = simplices_of_dim(f.target, k)
    idx = {s: i for i, s in enumerate(tgt)}
    data = [[0] * len(src) for _ in range(len(tgt))]
    for j, s in enumerate(src):
        img = [f.vertex_map[v] for v in s]
        if len(set(img)) == len(img):
            data[idx[tuple(sorted(img))]][j] = simplicial._sort_sign(img)
    return IntMatrix(len(tgt), len(src), data)


@functools.lru_cache(maxsize=None)
def dense_witness(K, co, n, reduced=False):
    """(group, cycle basis, incoming) of ker(outgoing) / im(incoming) on
    the degree-n chains of K, or its cochains when co is true."""
    if co:
        outgoing = dense_boundary(K, n + 1).transpose()
        incoming = dense_boundary(K, n).transpose()
    elif reduced and n == 0:
        verts = simplices_of_dim(K, 0)
        outgoing = IntMatrix(1, len(verts), [[1] * len(verts)])
        incoming = dense_boundary(K, 1)
    else:
        outgoing = dense_boundary(K, n)
        incoming = dense_boundary(K, n + 1)
    part = subquotient(incoming.rows, kernel(outgoing), incoming)
    return part.group, part.witness, incoming


def dense_induced(f, co, n, reduced=False):
    """The map f induces on degree-n (co)homology, through the dense
    chain matrix of f and the dense witnesses of its source and target."""
    src, tgt = (f.target, f.source) if co else (f.source, f.target)
    (sg, sb, _), (tg, tb, tinc) = (dense_witness(src, co, n, reduced),
                                   dense_witness(tgt, co, n, reduced))
    if sg.generators == 0 or tg.generators == 0:
        return hom_make(sg, tg, IntMatrix.zero(tg.generators, sg.generators))
    C = dense_chain_matrix(f, n)
    if co:
        C = C.transpose()
    X = solve_columns(tb.hstack(tinc), C * sb)
    assert X is not None
    return hom_make(sg, tg, X.submatrix(range(tb.cols), range(X.cols)))


class TestComplexes:
    def test_face_closure(self):
        K = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
        assert (0,) in K.simplices and (1, 2) in K.simplices
        assert K.dimension == 2

    def test_repeated_vertex_rejected(self):
        with pytest.raises(SimplicialError, match=r"bad simplex \(0, 0, 1\)"):
            SimplicialComplex.from_maximal(2, [(0, 1, 0)])

    def test_missing_face_rejected(self):
        with pytest.raises(SimplicialError):
            SimplicialComplex(2, frozenset({(0, 1)}))

    def test_unsorted_simplex_rejected(self):
        with pytest.raises(SimplicialError, match=r"simplex \(1, 0\) is not sorted"):
            SimplicialComplex(2, frozenset({(0,), (1,), (1, 0)}))

    def test_boundary_squares_to_zero(self):
        K = SimplicialComplex.from_maximal(4, [(0, 1, 2), (1, 2, 3)])
        d1, d2 = dense_boundary(K, 1), dense_boundary(K, 2)
        assert d1 * d2 == IntMatrix.zero(d1.rows, d2.cols)

    def test_euler_characteristic(self):
        assert euler_characteristic(circle(5)) == 0
        assert euler_characteristic(point()) == 1
        disk = SimplicialComplex.from_maximal(3, [(0, 1, 2)])
        assert euler_characteristic(disk) == 1


class TestHomology:
    def test_circle(self):
        K = circle(3)
        assert simplicial_homology(K, 1).describe() == "Z"
        assert simplicial_homology(K, 0).describe() == "Z"
        assert simplicial_homology(K, 2).is_trivial()

    def test_point(self):
        K = point()
        assert simplicial_homology(K, 0).describe() == "Z"
        assert simplicial_homology(K, 0, reduced=True).is_trivial()

    def test_two_circles(self):
        K = SimplicialComplex.from_maximal(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert simplicial_homology(K, 0).smith_invariants == (2, [])
        assert simplicial_homology(K, 1).smith_invariants == (2, [])

    def test_sphere(self):
        K = SimplicialComplex.from_maximal(
            4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert simplicial_homology(K, 2).describe() == "Z"
        assert simplicial_homology(K, 1).is_trivial()

    def test_projective_plane_torsion(self):
        # minimal 6-vertex triangulation of the projective plane
        tris = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
                (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
        K = SimplicialComplex.from_maximal(6, tris)
        # sanity: every one of the 15 edges lies in exactly two triangles
        from collections import Counter
        edge_count = Counter()
        for t in tris:
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                edge_count[e] += 1
        assert all(c == 2 for c in edge_count.values()) and len(edge_count) == 15
        assert simplicial_homology(K, 1).smith_invariants == (0, [2])
        assert simplicial_homology(K, 2).is_trivial()
        assert simplicial_homology(K, 0).describe() == "Z"

    def test_euler_characteristic_is_alternating_betti_sum(self):
        complexes = [
            circle(4),
            SimplicialComplex.from_maximal(4, [(0, 1, 2), (1, 2, 3)]),
            SimplicialComplex.from_maximal(
                4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        ]
        for K in complexes:
            chi = euler_characteristic(K)
            betti = sum((-1) ** n * homology_invariants(K, n)[0]
                        for n in range(K.dimension + 1))
            assert chi == betti

    def test_sparse_matches_dense_oracle(self):
        from towerlim.exactlat import snf
        assert sparse_invariants(IntMatrix.from_rows([[1, 1, 0], [0, 2, 2]])) == [1, 2]
        rng = random.Random(23)
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            M = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)]
                                     for _ in range(rows)])
            S, _, _ = snf(M)
            dense = [d for d in S.diagonal() if d != 0]
            assert sorted(sparse_invariants(M)) == sorted(dense)


class TestInducedMaps:
    def test_winding_degree(self):
        for p in (2, 3):
            h = induced_hom(winding_map(p), 1)
            assert h.matrix.data in (((p,),), ((-p,),))

    def test_winding_composition(self):
        f = winding_map(2)
        g = SimplicialMap(circle(12), circle(6),
                          tuple(k % 6 for k in range(12)))
        f2 = SimplicialMap(circle(6), circle(3), tuple(k % 3 for k in range(6)))
        comp = f2.compose(g)
        h = induced_hom(comp, 1)
        assert abs(h.matrix.data[0][0]) == 4

    def test_identity(self):
        K = circle(4)
        h = induced_hom(identity_map(K), 1)
        assert h.matrix.data in (((1,),), ((-1,),))

    def test_constant_map_kills_h1(self):
        K = circle(3)
        f = SimplicialMap(K, K, (0, 0, 0))
        assert induced_hom(f, 1).matrix.data == ((0,),)

    def test_functoriality_random_graph_maps(self):
        rng = random.Random(5)
        K = circle(6)
        for _ in range(10):
            shiftv = rng.randrange(6)
            f = SimplicialMap(K, K, tuple((v + shiftv) % 6 for v in range(6)))
            g = SimplicialMap(K, K, tuple((v + 1) % 6 for v in range(6)))
            lhs = induced_hom(g.compose(f), 1)
            rhs = induced_hom(g, 1).compose(induced_hom(f, 1))
            assert lhs.equals(rhs)

    def test_cohomology_winding(self):
        h = induced_cohom(winding_map(2), 1)
        # contravariant: H^1(target) -> H^1(source) is multiplication by 2
        assert abs(h.matrix.data[0][0]) == 2


class TestCohomology:
    def test_self_map_witness_computed_once(self, monkeypatch):
        calls = []
        real = simplicial.subquotient
        monkeypatch.setattr(simplicial, "subquotient",
                            lambda *args: calls.append(args) or real(*args))
        K = circle(6)
        f = identity_map(K)
        h = induced_cohom(f, 1)
        assert len(calls) == 1         # source and target share one record
        assert h.source is h.target and h.source.describe() == "Z"
        assert h.equals(identity_hom(h.source))
        induced_cohom(f, 1)
        assert induced_hom(f, 1).equals(identity_hom(homology_data(K, 1).group))
        assert len(calls) == 2         # the homology witness is its own record
        assert simplicial._witness(K, True, 1) is simplicial._witness(K, True, 1)

    def test_circle(self):
        assert simplicial._witness(circle(3), True, 1).group.describe() == "Z"
        assert simplicial._witness(circle(3), True, 0).group.describe() == "Z"

    def test_point(self):
        assert simplicial._witness(point(), True, 0).group.describe() == "Z"


class TestSubdivision:
    def test_circle_subdivision(self):
        K = circle(3)
        sd, labels = barycentric_subdivision(K)
        assert sd.vertex_count == 6  # 3 vertices + 3 edges
        assert len(simplices_of_dim(sd, 1)) == 6
        assert simplicial_homology(sd, 1).describe() == "Z"

    def test_subdivided_map_keeps_degree(self):
        f = winding_map(2)
        sdf = subdivide_map(f, barycentric_subdivision(f.source),
                            barycentric_subdivision(f.target))
        h = induced_hom(sdf, 1)
        assert abs(h.matrix.data[0][0]) == 2


def one_bond_tower(f):
    """The tower L <- K with the single bond f: K -> L.  Its telescope at
    m = 1 is the mapping cylinder of f: a copy of L (level 0), then the
    barycenters of sd(K) (level 1), with the retraction onto L."""
    K = f.source
    return PeriodicSimplicialTower(((f.target, None),), K, identity_map(K), f)


class TestMappingCylinder:
    def test_cylinder_of_identity(self):
        K = circle(3)
        cyl = telescope(one_bond_tower(identity_map(K)), 1)
        assert homology_invariants(cyl.complex, 0) == (1, [])
        assert homology_invariants(cyl.complex, 1) == (1, [])

    def test_cylinder_retracts_to_target(self):
        f = winding_map(2)
        cyl = telescope(one_bond_tower(f), 1)
        for n in (0, 1, 2):
            assert homology_invariants(cyl.complex, n) == \
                   homology_invariants(f.target, n)
        # the retraction is the identity on the bottom copy of L
        assert level_to_base(cyl, 0) == identity_map(f.target)

    def test_source_inclusion_realizes_the_map(self):
        # including sd(K) at the top and retracting to L equals sd-collapse
        # followed by f; on H_1 of the winding map that is multiplication by p
        f = winding_map(3)
        cyl = telescope(one_bond_tower(f), 1)
        inc = induced_hom(level_inclusion(cyl, 1), 1)
        retr = induced_hom(cyl.retraction_to_base(), 1)
        comp = retr.compose(inc)
        assert abs(comp.matrix.data[0][0]) == 3
        assert induced_hom(level_to_base(cyl, 1), 1).matrix == comp.matrix

    def test_cylinder_of_collapse(self):
        K = circle(3)
        L = point()
        f = SimplicialMap(K, L, (0, 0, 0))
        cyl = telescope(one_bond_tower(f), 1)
        assert homology_invariants(cyl.complex, 0) == (1, [])
        assert homology_invariants(cyl.complex, 1) == (0, [])


# ---------------------------------------------------------------------------
# differential tests of the top-down closure of from_maximal against every
# face of every given simplex, checked again by the public constructor


def reference_from_maximal(vertex_count, maximal):
    """The closure by combinations, through the checking constructor."""
    closed = set()
    for s in maximal:
        s = tuple(sorted(s))
        if len(set(s)) != len(s) or (s and (s[0] < 0 or s[-1] >= vertex_count)):
            raise SimplicialError("bad simplex %r" % (s,))
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
    return SimplicialComplex(vertex_count, frozenset(closed))


def random_simplices(rng, n):
    """Up to eight simplices of dimension 0-3 on n vertices, in random
    vertex order, with some faces of earlier ones, some repeats and now
    and then the empty simplex."""
    out = []
    for _ in range(rng.randint(0, 8) if n else 0):
        r = rng.random()
        if out and r < 0.2:
            s = list(rng.choice(out))
            out.append(tuple(rng.sample(s, len(s))))          # a repeat
        elif out and r < 0.4:
            s = rng.choice(out)
            out.append(tuple(rng.sample(s, rng.randint(1, len(s)))))  # a face
        else:
            out.append(tuple(rng.sample(range(n), rng.randint(1, min(4, n)))))
    if rng.random() < 0.05:
        out.append(())
    return out


def by_dim_of(simplices):
    """The sorted simplices of each dimension."""
    by_dim = {}
    for s in sorted(simplices):
        by_dim.setdefault(len(s) - 1, []).append(s)
    return by_dim


class TestFromMaximalDifferential:
    def test_matches_the_checked_closure(self):
        rng = random.Random(59)
        inputs = [(0, []), (3, []), (1, [(0,)]), (2, [(1, 0), (0, 1), (1,)])]
        inputs += [(n, random_simplices(rng, n))
                   for n in (rng.randint(0, 7) for _ in range(300))]
        assert any(len(s) == 4 for _, ss in inputs for s in ss)
        for n, given in inputs:
            K = SimplicialComplex.from_maximal(n, iter(given))
            ref = reference_from_maximal(n, given)
            assert K.simplices == ref.simplices
            assert K._by_dim == by_dim_of(ref.simplices)
            assert K._maximal_simplices == ref._maximal_simplices
            assert K == ref and hash(K) == hash(ref)
            assert K.dimension == ref.dimension

    def test_bad_simplices_rejected_alike(self):
        # a repeated, negative or out-of-range vertex, alone or among good
        # simplices; the first bad simplex given is the one named
        rng = random.Random(61)
        inputs = [(3, [(0, 1), (2, 1, 2)]), (3, [(0, 0)]), (3, [(1, -1)]),
                  (3, [(0, 1, 3)]), (0, [(0,)]), (4, [(0, 1), (3, 4), (1, 1)])]
        for _ in range(100):
            n = rng.randint(1, 7)
            given = random_simplices(rng, n)
            bad = rng.sample(range(n), rng.randint(1, min(3, n)))
            bad[rng.randrange(len(bad))] = rng.choice((bad[0], -1, n, n + 2))
            if len(set(bad)) == len(bad) and 0 <= min(bad) and max(bad) < n:
                bad.append(bad[0])          # the draw kept a good simplex
            given.insert(rng.randint(0, len(given)), tuple(bad))
            inputs.append((n, given))
        for n, given in inputs:
            with pytest.raises(SimplicialError) as ref:
                reference_from_maximal(n, given)
            with pytest.raises(SimplicialError) as got:
                SimplicialComplex.from_maximal(n, given)
            assert str(got.value) == str(ref.value)
            assert str(got.value).startswith("bad simplex")


# ---------------------------------------------------------------------------
# differential tests of the face-poset builders against the quadratic
# chain enumerations they replaced


def naive_barycentric_subdivision(K):
    """Every chain of the face poset, found by rescanning all simplices."""
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
    return SimplicialComplex.from_maximal(len(simplices), maximal), simplices


def naive_mapping_cylinder(f):
    """Every descending chain of K, joined to every face of f(last): the
    cylinder complex (barycenters of sd(K) first, then L), sd(K) and the
    retraction onto L."""
    K, L = f.source, f.target
    simplices = sorted(K.simplices)
    bary = {s: i for i, s in enumerate(simplices)}
    offset = len(simplices)
    n_vertices = offset + L.vertex_count
    cyl = {tuple(v + offset for v in s) for s in L.simplices}
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
    sdK, _ = naive_barycentric_subdivision(K)
    retraction = SimplicialMap(
        complex_, L,
        tuple(f.vertex_map[s[0]] for s in simplices) + tuple(range(L.vertex_count)))
    return complex_, sdK, retraction


def random_complex(rng, n_vertices, max_dim=3, n_maximal=4):
    maximal = []
    for _ in range(rng.randint(1, n_maximal)):
        size = rng.randint(1, min(max_dim + 1, n_vertices))
        maximal.append(tuple(rng.sample(range(n_vertices), size)))
    return SimplicialComplex.from_maximal(n_vertices, maximal)


def random_map(rng, K):
    """A random vertex map out of K into a complex made to contain every
    image, with a few extra simplices; images may be degenerate."""
    n = rng.randint(1, 5)
    vm = tuple(rng.randrange(n) for _ in range(K.vertex_count))
    images = [tuple({vm[v] for v in s}) for s in K.simplices]
    extra = random_complex(rng, n, 2, 2).simplices if rng.random() < 0.5 else ()
    L = SimplicialComplex.from_maximal(
        n, images + [(v,) for v in range(n)] + list(extra))
    return SimplicialMap(K, L, vm)


def sample_maps():
    rng = random.Random(41)
    maps = [winding_map(2), winding_map(3), identity_map(circle(4)),
            SimplicialMap(circle(3), point(), (0, 0, 0))]
    for _ in range(60):
        K = random_complex(rng, rng.randint(1, 6))
        maps.append(random_map(rng, K))
    return maps


def random_self_map(rng):
    """A small complex closed under the images of a random vertex map, and
    that map as a simplicial self-map; images may be degenerate."""
    n = rng.randint(1, 5)
    vm = tuple(rng.randrange(n) for _ in range(n))
    K = random_complex(rng, n, 2, 3)
    while True:
        closed = SimplicialComplex.from_maximal(
            n, list(K.simplices) + [tuple({vm[v] for v in s}) for s in K.simplices])
        if closed == K:
            return K, SimplicialMap(K, K, vm)
        K = closed


def reference_telescope(st, m):
    """The telescope built round by round: in round i the bond is
    subdivided i times from scratch, its whole mapping cylinder is built,
    relabelled into T and sorted again, and its retraction is chased down
    to level 0; subdivisions and cylinders come from the chain
    enumerations above."""
    P0 = st.complex_at(0)
    simplices = set(P0.simplices)
    total_vertices = P0.vertex_count
    level_ids = [tuple(range(P0.vertex_count))]
    level_complexes = [P0]
    top_embed = list(range(P0.vertex_count))
    top_complex = P0
    to_base = list(range(P0.vertex_count))
    for i in range(m):
        bond = st.bond_at(i)
        for _ in range(i):
            bond = subdivide_map(bond, naive_barycentric_subdivision(bond.source),
                                 naive_barycentric_subdivision(bond.target))
        assert bond.target.simplices == top_complex.simplices
        cyl, sd_source, retraction = naive_mapping_cylinder(bond)
        nb = sd_source.vertex_count
        fresh = list(range(total_vertices, total_vertices + nb))
        total_vertices += nb
        relabel = fresh + top_embed
        for s in cyl.simplices:
            simplices.add(tuple(sorted(relabel[v] for v in s)))
        for j in range(nb):
            to_base.append(to_base[top_embed[retraction.vertex_map[j]]])
        top_embed = fresh
        top_complex = sd_source
        level_ids.append(tuple(fresh))
        level_complexes.append(top_complex)
    T = SimplicialComplex(total_vertices, frozenset(simplices))
    return Telescope(T, tuple(level_ids), tuple(level_complexes), tuple(to_base))


def assert_same_telescope(tel, ref):
    assert tel.complex == ref.complex
    assert tel.level_vertex_ids == ref.level_vertex_ids
    assert tel.level_complexes == ref.level_complexes
    assert tel.base_vertex_map == ref.base_vertex_map


class TestFacePosetBuilders:
    def test_subdivision_matches_chain_enumeration(self):
        rng = random.Random(17)
        complexes = [circle(3), point(), winding_map(2).source]
        complexes += [random_complex(rng, rng.randint(1, 7)) for _ in range(80)]
        assert any(K.dimension == 3 for K in complexes)
        for K in complexes:
            sd, labels = barycentric_subdivision(K)
            ref_sd, ref_labels = naive_barycentric_subdivision(K)
            assert sd == ref_sd
            assert labels == ref_labels

    def test_cylinder_matches_chain_enumeration(self):
        maps = sample_maps()
        assert any(f.source.dimension == 3 for f in maps)
        assert any(len(set(f.vertex_map)) < f.source.vertex_count for f in maps)
        for f in maps:
            st = one_bond_tower(f)
            assert_same_telescope(telescope(st, 1), reference_telescope(st, 1))

    def test_subdivided_maps_match(self):
        for f in sample_maps()[:30]:
            sd_src = barycentric_subdivision(f.source)
            sd_tgt = barycentric_subdivision(f.target)
            sdf = subdivide_map(f, sd_src, sd_tgt)
            assert sdf == subdivide_map(f, naive_barycentric_subdivision(f.source),
                                        naive_barycentric_subdivision(f.target))
            for s, v in zip(sd_src[1], sdf.vertex_map):
                assert sd_tgt[1][v] == tuple(sorted({f.vertex_map[u] for u in s}))

    @pytest.mark.parametrize("name,params,m", [
        ("solenoid", (2,), 4), ("solenoid", (3,), 3), ("solenoid", (5,), 2),
        ("hawaiian", (), 5), ("cluster_solenoids", (2,), 4),
        ("null_sequence", (), 7)])
    def test_telescopes_match(self, name, params, m):
        st = make_example(name, params)
        assert_same_telescope(telescope(st, m), reference_telescope(st, m))

    def test_telescopes_of_random_self_maps_match(self):
        rng = random.Random(43)
        towers = [PeriodicSimplicialTower((), *random_self_map(rng)) for _ in range(25)]
        assert any(len(set(t.tail_map.vertex_map)) < t.tail_complex.vertex_count
                   for t in towers)
        assert any(t.tail_complex.dimension == 2 for t in towers)
        for st in towers:
            for m in range(4):
                assert_same_telescope(telescope(st, m), reference_telescope(st, m))


class TestUnitPivotElimination:
    def test_sparse_matches_dense_on_larger_matrices(self):
        from towerlim.exactlat import snf
        rng = random.Random(29)
        values = [1, -1] * 6 + [2, -2, 3, -3]
        for _ in range(60):
            rows, cols = rng.randint(5, 20), rng.randint(5, 30)
            density = rng.choice((0.1, 0.2, 0.35))
            M = IntMatrix.from_rows([[rng.choice(values) if rng.random() < density else 0
                                      for _ in range(cols)] for _ in range(rows)])
            S, _, _ = snf(M)
            assert sparse_invariants(M) == [d for d in S.diagonal() if d != 0]

    def test_simplices_of_dim_is_a_fresh_list(self):
        K = circle(4)
        edges = simplices_of_dim(K, 1)
        edges.clear()
        assert len(simplices_of_dim(K, 1)) == 4
        assert homology_invariants(K, 1) == (1, [])

    def test_projective_plane_telescope_torsion(self):
        # the Z/2 comes out of the dense residue after the unit pivots
        from towerlim.shape import telescope
        tris = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
                (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
        RP2 = SimplicialComplex.from_maximal(6, tris)
        T = telescope(constant_tower(RP2), 2).complex
        assert len(T.simplices) == 3605
        assert homology_invariants(T, 1) == (0, [2])
        assert homology_invariants(T, 2) == (0, [])

    def test_solenoid_5_telescope_retracts(self):
        from towerlim.shape import make_example, telescope
        st = make_example("solenoid", (5,))
        T = telescope(st, 3).complex
        assert len(T.simplices) == 16656
        base = st.complex_at(0)
        for n in (0, 1, 2):
            assert homology_invariants(T, n) == homology_invariants(base, n)

    def test_sphere_rotation_telescope_retracts(self):
        # the boundary of a tetrahedron turned by a 3-cycle of its vertices:
        # its cylinders are 3-dimensional
        S2 = SimplicialComplex.from_maximal(
            4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        st = PeriodicSimplicialTower((), S2, SimplicialMap(S2, S2, (1, 2, 0, 3)))
        for m in (1, 2, 3):
            tel = telescope(st, m)
            assert tel.complex.dimension == 3
            assert [homology_invariants(tel.complex, n) for n in range(4)] == \
                [(1, []), (0, []), (1, []), (0, [])]
            assert level_to_base(tel, 0) == identity_map(S2)
            assert abs(induced_hom(tel.retraction_to_base(), 2).matrix.data[0][0]) == 1
        assert len(tel.complex.simplices) == 8798

    def test_sphere_telescope_homology_takes_no_markowitz_pivot(self, monkeypatch):
        # once the spanning forest has taken its edges' rows, the boundary
        # from triangles collapses by coreductions alone (a heap reduction
        # took all 2,153 of its pivots when the edges were reduced apart)
        S2 = SimplicialComplex.from_maximal(
            4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        st = PeriodicSimplicialTower((), S2, SimplicialMap(S2, S2, (1, 2, 0, 3)))
        T = telescope(st, 3).complex
        pivots, markowitz = [], simplicial._markowitz

        def counted(cols, rows, steps):
            before = len(steps)
            markowitz(cols, rows, steps)
            pivots.append(len(steps) - before)

        monkeypatch.setattr(simplicial, "_markowitz", counted)
        assert [homology_invariants(T, n) for n in range(4)] == \
            [(1, []), (0, []), (1, []), (0, [])]
        assert len(pivots) == 2 and sum(pivots) == 0


# ---------------------------------------------------------------------------
# differential tests of the sparse boundary invariants against the dense
# Smith form of the boundary matrix


def dense_invariants(M):
    from towerlim.exactlat import snf
    S, _, _ = snf(M)
    return [d for d in S.diagonal() if d != 0]


def disjoint_union(*complexes):
    """The complexes side by side, vertex ids shifted past each other."""
    simplices, offset = [], 0
    for K in complexes:
        simplices += [tuple(v + offset for v in s) for s in K.simplices]
        offset += K.vertex_count
    return SimplicialComplex(offset, frozenset(simplices))


def projective_plane():
    """The minimal 6-vertex triangulation of RP^2: H_1 = Z/2."""
    return SimplicialComplex.from_maximal(6, [
        (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)])


def klein_bottle():
    """The 3 x 3 grid of squares, each cut in two triangles, with the
    columns glued plainly and the rows glued with a flip: H_1 = Z + Z/2."""
    def v(i, j):
        if j == 3:
            i, j = -i, 0
        return (i % 3) * 3 + j
    tris = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris += [(a, b, d), (a, c, d)]
    return SimplicialComplex.from_maximal(9, tris)


def grid_disk(n):
    """The n x n grid of squares, each cut in two triangles: a disk whose
    inner triangles have no free face until the outer ones are gone."""
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            tris += [(a, a + 1, b + 1), (a, b, b + 1)]
    return SimplicialComplex.from_maximal((n + 1) ** 2, tris)


def assert_matches_dense(K):
    for k in range(K.dimension + 2):
        assert K._reduction._level(k).invariants == \
            dense_invariants(dense_boundary(K, k)), k


def components(K):
    """The vertex sets of the connected components of K, by a search over
    its edges."""
    neighbours = {v: set() for (v,) in simplices_of_dim(K, 0)}
    for a, b in simplices_of_dim(K, 1):
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, parts = set(), []
    for v in neighbours:
        if v not in seen:
            part, stack = {v}, [v]
            while stack:
                for w in neighbours[stack.pop()] - part:
                    part.add(w)
                    stack.append(w)
            seen |= part
            parts.append(part)
    return parts


class TestBoundaryInvariantsDifferential:
    def test_random_complexes(self):
        rng = random.Random(47)
        for _ in range(80):
            assert_matches_dense(random_complex(rng, rng.randint(1, 9), 3, 8))

    def test_disconnected_complexes_and_isolated_vertices(self):
        rng = random.Random(53)
        for _ in range(40):
            parts = [random_complex(rng, rng.randint(1, 6), 3, 5)
                     for _ in range(rng.randint(2, 4))]
            isolated = SimplicialComplex.from_maximal(
                3, [(v,) for v in range(rng.randint(0, 3))])
            K = disjoint_union(*parts, isolated)
            assert_matches_dense(K)
        # vertex ids that are no simplex at all are no components either
        K = SimplicialComplex.from_maximal(7, [(0, 1), (1, 2), (5,)])
        assert K._reduction._level(1).invariants == [1, 1]
        assert homology_invariants(K, 0) == (2, [])

    def test_empty_complex(self):
        K = SimplicialComplex(0, frozenset())
        assert K.dimension == -1
        assert_matches_dense(K)
        assert K._reduction._level(1).invariants == []
        assert homology_invariants(K, 0) == (0, [])

    def test_surfaces_with_torsion(self):
        for K, h1 in ((projective_plane(), (0, [2])), (klein_bottle(), (1, [2]))):
            for L in (K, barycentric_subdivision(K)[0]):
                assert_matches_dense(L)
                assert homology_invariants(L, 1) == h1
                assert homology_invariants(L, 2) == (0, [])

    def test_edge_boundary_counts_a_spanning_forest(self):
        # a cycle of n vertices has a spanning tree of n - 1 edges; two
        # cycles and a point have 2n - 2
        assert circle(6)._reduction._level(1).invariants == [1] * 5
        K = disjoint_union(circle(6), circle(6), point())
        assert K._reduction._level(1).invariants == [1] * 10

    def test_a_complex_and_its_reduction_make_no_reference_cycle(self):
        import gc
        import weakref
        K = circle(5)
        assert homology_data(K, 1).group.describe() == "Z"
        ref = weakref.ref(K)
        gc.disable()
        try:
            del K
            assert ref() is None
        finally:
            gc.enable()

    def test_lone_non_units_are_not_pivots(self):
        rng = random.Random(59)
        lone_values = (2, -2, 3, 4, -6)
        for _ in range(80):
            rows, cols = rng.randint(3, 12), rng.randint(3, 12)
            density = rng.choice((0.15, 0.3))
            data = [[rng.choice((1, -1, 1, -1, 2)) if rng.random() < density else 0
                     for _ in range(cols)] for _ in range(rows)]
            # a lone non-unit in a new row, one in a new column, and one
            # alone in both a new row and a new column
            data.append([0] * cols)
            data[-1][rng.randrange(cols)] = rng.choice(lone_values)
            for row in data:
                row += [0, 0]
            data[rng.randrange(rows)][cols] = rng.choice(lone_values)
            data.append([0] * (cols + 2))
            data[-1][cols + 1] = rng.choice(lone_values)
            M = IntMatrix.from_rows(data)
            assert sparse_invariants(M) == dense_invariants(M)

    def test_collapse_keeps_a_lone_non_unit(self):
        steps = []
        rows = simplicial._collapse({0: {0: 2}, 1: {0: 1, 1: 1}}, steps)
        # row 1 holds a lone +1 and goes with column 1; then row 0 and
        # column 0 hold only the 2, which stays
        assert len(steps) == 1
        assert rows == {0: {0: 2}}

    def test_collapse_alone_clears_a_disk(self):
        # every triangle of a disk goes by free faces and coreductions, the
        # inner ones only after the outer ones have made them free
        D = grid_disk(4)
        cols, steps = simplicial._sparse_boundary(D._by_dim, 2), []
        rows = simplicial._collapse(cols, steps)
        assert len(steps) == len(simplices_of_dim(D, 2)) == 32
        assert not any(cols.values()) and not any(rows.values())


class TestSpanningForestLevel:
    def complexes(self):
        rng = random.Random(71)
        out = [random_complex(rng, rng.randint(1, 9), 3, 8) for _ in range(40)]
        out += [disjoint_union(*[random_complex(rng, rng.randint(1, 6), 2, 5)
                                 for _ in range(rng.randint(2, 4))]) for _ in range(30)]
        # vertex ids 3, 4 and 6 are no simplices
        out.append(SimplicialComplex.from_maximal(7, [(0, 1), (1, 2), (5,)]))
        assert any(len(components(K)) > 1 for K in out)
        return out

    def test_one_critical_vertex_per_component(self):
        for K in self.complexes():
            R, vertices = K._reduction, simplices_of_dim(K, 0)
            parts = components(K)
            assert len(R._level(1).paired) == len(vertices) - len(parts)
            critical = [vertices[c][0] for c in R.critical(0)[0]]
            assert sorted(len(part & set(critical)) for part in parts) == [1] * len(parts)
            assert not any(any(row) for row in R.boundary(1).data)
            # pi takes each vertex to the critical vertex of its component
            for c, (v,) in enumerate(vertices):
                (part,) = [p for p in parts if v in p]
                assert R.project(0, {c: 1}) == [int(x in part) for x in critical]
            # iota of each critical edge is a cycle
            for e in R.critical(1)[0]:
                boundary = {}
                for j, coef in R.lift(1, e).items():
                    a, b = simplices_of_dim(K, 1)[j]
                    boundary[a] = boundary.get(a, 0) - coef
                    boundary[b] = boundary.get(b, 0) + coef
                assert not any(boundary.values())

    def test_homology_invariants_leave_the_forest_steps_unbuilt(self):
        for K in self.complexes():
            for n in range(K.dimension + 2):
                assert homology_invariants(K, n) == \
                    dense_homology_invariants(K, n)
            level = K._reduction._level(1)
            if simplices_of_dim(K, 1):
                assert isinstance(level, simplicial._Forest)
                assert "steps" not in vars(level) and "row_step" not in vars(level)


def dense_homology_invariants(K, n):
    """(rank, torsion) of H_n from the dense Smith forms of the boundary maps."""
    lower = dense_invariants(dense_boundary(K, n)) if n else []
    upper = dense_invariants(dense_boundary(K, n + 1))
    return (len(simplices_of_dim(K, n)) - len(lower) - len(upper),
            [d for d in upper if d > 1])


# ---------------------------------------------------------------------------
# differential tests of the reduced complex K' against the dense reference


@functools.lru_cache(maxsize=None)
def as_dense(K, co, n, reduced=False):
    """The isomorphism from the (co)homology of K' onto the dense
    witness group of K: a cycle of K' goes to its lift iota, a cocycle of
    K' to its pullback along pi, each solved in the dense basis."""
    R = K._reduction
    sparse = simplicial._witness(K, co, n, reduced)
    group, basis, incoming = dense_witness(K, co, n, reduced)
    cells = simplices_of_dim(K, n)
    if co:
        # the value of the pulled-back cocycle on each cell is its value on pi(cell)
        projected = [R.project(n, {j: 1}) for j in range(len(cells))]
        columns = [[sum(a * b for a, b in zip(g, p)) for p in projected]
                   for g in zip(*sparse.cycle_basis.data)]
    else:
        columns = []
        for g in zip(*sparse.cycle_basis.data):
            chain = [0] * len(cells)
            for x, c in zip(R.critical(n)[0], g):
                for j, v in R.lift(n, x).items():
                    chain[j] += c * v
            columns.append(chain)
    target = IntMatrix.from_columns(len(cells), columns)
    if not columns:
        return hom_make(sparse.group, group, IntMatrix.zero(group.generators, 0))
    X = solve_columns(basis.hstack(incoming), target)
    assert X is not None
    phi = hom_make(sparse.group, group, X.submatrix(range(basis.cols), range(X.cols)))
    k, _, ck = hom_parts(phi)
    assert k.group.is_trivial() and ck.group.is_trivial()
    return phi


def part_invariants(h):
    return [p.group.smith_invariants for p in hom_parts(h)]


def assert_agrees_with_dense(f, co, n, reduced=False):
    """The induced map of the reduced path is the dense one, conjugated
    by the isomorphisms of as_dense; groups and the invariants of kernel,
    image and cokernel agree, and so does a matrix that is 1 x 1 on both
    paths."""
    got, want = simplicial._induced(f, co, n, reduced), dense_induced(f, co, n, reduced)
    assert got.source.smith_invariants == want.source.smith_invariants
    assert got.target.smith_invariants == want.target.smith_invariants
    assert part_invariants(got) == part_invariants(want)
    src, tgt = (f.target, f.source) if co else (f.source, f.target)
    phi_src, phi_tgt = as_dense(src, co, n, reduced), as_dense(tgt, co, n, reduced)
    assert want.compose(phi_src).equals(phi_tgt.compose(got))
    if got.matrix.rows == got.matrix.cols == 1 == want.matrix.rows == want.matrix.cols:
        assert got.matrix == want.matrix
    return got


def every_degree(f, check):
    for n in range(max(f.source.dimension, f.target.dimension) + 2):
        for co, reduced in ((False, False), (True, False), (False, True)):
            if not (reduced and n):
                check(f, co, n, reduced)


def sample_complexes(rng, count):
    """The two torsion surfaces, the subdivided projective plane, and
    random complexes up to dimension 3."""
    complexes = [projective_plane(), klein_bottle(),
                 barycentric_subdivision(projective_plane())[0]]
    complexes += [random_complex(rng, rng.randint(1, 8), 3, 6) for _ in range(count)]
    return complexes


class TestReducedComplexDifferential:
    def test_groups_match_the_dense_witnesses(self):
        complexes = sample_complexes(random.Random(61), 60)
        assert any(K.dimension == 3 for K in complexes)
        for K in complexes:
            for n in range(K.dimension + 2):
                for co, reduced in ((False, False), (True, False), (False, True)):
                    if reduced and n:
                        continue
                    got = simplicial._witness(K, co, n, reduced).group
                    assert got.smith_invariants == \
                        dense_witness(K, co, n, reduced)[0].smith_invariants
                    if not co:
                        assert got.smith_invariants == \
                            simplicial_homology(K, n, reduced).smith_invariants
                    as_dense(K, co, n, reduced)

    def test_torsion_surfaces(self):
        for K, h1 in ((projective_plane(), (0, [2])), (klein_bottle(), (1, [2]))):
            for L in (K, barycentric_subdivision(K)[0]):
                assert homology_data(L, 1).group.smith_invariants == h1
                # H^2 = Ext(H_1, Z) + Hom(H_2, Z) = Z/2 on both surfaces
                assert simplicial._witness(L, True, 2).group.smith_invariants == (0, [2])
                assert simplicial._witness(L, True, 1).group.smith_invariants == (h1[0], [])
        for K in sample_complexes(random.Random(0), 0):
            every_degree(identity_map(K), assert_agrees_with_dense)
        # sd(RP^2) -> RP^2, each barycenter to the first vertex of its simplex
        sd, labels = barycentric_subdivision(projective_plane())
        f = SimplicialMap(sd, projective_plane(), tuple(s[0] for s in labels))
        every_degree(f, assert_agrees_with_dense)
        assert part_invariants(induced_hom(f, 1)) == [(0, []), (0, [2]), (0, [])]

    def test_random_maps(self):
        for f in sample_maps():
            every_degree(f, assert_agrees_with_dense)

    def test_random_self_maps(self):
        rng = random.Random(67)
        for _ in range(40):
            K, f = random_self_map(rng)
            every_degree(f, assert_agrees_with_dense)

    @pytest.mark.parametrize("name,params,bonds", [
        ("solenoid", (2,), 2), ("solenoid", (3,), 2), ("solenoid", (5,), 1),
        ("hawaiian", (), 2), ("cluster_solenoids", (2,), 2), ("null_sequence", (), 2)])
    def test_bonds_of_the_shape_spaces(self, name, params, bonds):
        # the bonds that the spot checks of `shape` reach; the dense
        # reference takes seconds on the 75-vertex level 2 of solenoid(5)
        st = make_example(name, params)
        for i in range(bonds):
            every_degree(st.bond_at(i), assert_agrees_with_dense)

    def test_functoriality(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(40):
            K = random_complex(rng, rng.randint(1, 6), 3, 4)
            f = random_map(rng, K)
            g = random_map(rng, f.target)
            gf = SimplicialMap(K, g.target, tuple(g.vertex_map[v] for v in f.vertex_map))
            for n in range(K.dimension + 1):
                for co in (False, True):
                    h_f, h_g, h_gf = (simplicial._induced(m, co, n) for m in (f, g, gf))
                    both = h_g.compose(h_f) if not co else h_f.compose(h_g)
                    assert h_gf.equals(both)
                    checked += 1
                for co in (False, True):
                    ident = simplicial._induced(identity_map(K), co, n)
                    assert ident.equals(identity_hom(ident.source))
        assert checked > 100

    def test_images_are_cycles(self):
        # iota of a critical cell has the reduced boundary as its boundary
        # on the critical faces, and none on the faces paired with a coface
        for K in sample_complexes(random.Random(73), 30):
            R = K._reduction
            for n in range(1, K.dimension + 1):
                d = dense_boundary(K, n)
                reduced = R.boundary(n)
                for col, x in enumerate(R.critical(n)[0]):
                    chain = [0] * d.cols
                    for j, v in R.lift(n, x).items():
                        chain[j] = v
                    image = {i: v for i, v in enumerate(d.apply(chain)) if v}
                    assert R.project(n - 1, image) == reduced.column(col)
                    cells, _ = R.critical(n - 1)
                    assert all(i in cells or i in R._level(n - 1).paired for i in image)


class TestMapValidation:
    def test_maximal_simplices_decide_like_the_full_scan(self):
        rng = random.Random(79)
        verdicts = []
        for _ in range(300):
            K = random_complex(rng, rng.randint(1, 7), 3, 5)
            if rng.random() < 0.5:
                # a valid map, with one vertex image moved at random half the time
                f = random_map(rng, K)
                L, vm = f.target, list(f.vertex_map)
                if rng.random() < 0.5:
                    vm[rng.randrange(len(vm))] = rng.randrange(L.vertex_count)
            else:
                L = random_complex(rng, rng.randint(1, 6), 3, 5)
                vm = [rng.randrange(L.vertex_count) for _ in range(K.vertex_count)]
            full_scan = all(tuple(sorted({vm[v] for v in s})) in L.simplices
                            for s in K.simplices)
            try:
                SimplicialMap(K, L, tuple(vm))
                accepted = True
            except SimplicialError:
                accepted = False
            assert accepted == full_scan
            verdicts.append(accepted)
        assert 50 < sum(verdicts) < 250

    def test_maximal_simplices_are_cached(self):
        K = SimplicialComplex.from_maximal(5, [(0, 1, 2), (2, 3), (4,)])
        assert K._maximal_simplices == [(0, 1, 2), (2, 3), (4,)]
        assert K._maximal_simplices is K._maximal_simplices
