"""Towers of simplicial complexes and the homology of their limits.

The Steenrod homology of the inverse limit of a tower of complexes is
assembled from the exact sequence

    0 -> lim1 H_{n+1}(P_i) -> H_n(X) -> lim H_n(P_i) -> 0

so a SteenrodDescriptor carries the two computed parts plus a splitting
flag.  Pontryagin (Cech) cohomology is the colimit of the level
cohomologies.  The example builders produce the classical compacta:
solenoids, the Hawaiian earring, clusters of solenoids and the
one-point compactification of a discrete null-sequence.
"""

from . import errors
from .errors import DegreeMismatch, ShapeError, TooLarge
from .exactlat import IntMatrix, Record, free_group, hom_make, hom_parts, identity_hom
from .limits import derived_limit, limit
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    cylinder_cells,
    homology_data,
    induced_cohom,
    induced_hom,
    subdivide_map,
)
from .structured import StructuredGroup
from .towers import PeriodicTower, make_streamed, tail_reduction


class UnknownExample(ShapeError):
    pass


class PeriodicSimplicialTower(Record):
    """Constant-complex tail with a simplicial self-map (plus optional
    prefix of (complex, bond to previous level) pairs)."""

    _fields = ("prefix", "tail_complex", "tail_map", "splice")

    def __init__(self, prefix, tail_complex, tail_map, splice=None):
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_complex", tail_complex)
        object.__setattr__(self, "tail_map", tail_map)
        object.__setattr__(self, "splice", splice)

    def complex_at(self, i):
        if i < len(self.prefix):
            return self.prefix[i][0]
        return self.tail_complex

    def bond_at(self, i):
        if i + 1 < len(self.prefix):
            return self.prefix[i + 1][1]
        if i + 1 == len(self.prefix):
            return self.splice
        return self.tail_map


class StreamedSimplicialTower(Record):
    _fields = ("family", "params")

    def __init__(self, family, params=()):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def complex_at(self, i):
        self._check_levels(i)
        return _EXAMPLES[self.family].complex(self.params, i)

    def bond_at(self, i):
        self._check_levels(i, i + 1)
        return _EXAMPLES[self.family].bond(self.params, i)

    def _check_levels(self, *levels):
        for i in levels:
            count = _EXAMPLES[self.family].vertices(self.params, i)
            if count > errors.MAX_LEVEL_VERTICES:
                params = ", ".join(map(str, self.params))
                raise TooLarge(
                    "level %d of %s(%s) would have %d vertices, over the bound of "
                    "%d vertices per level"
                    % (i, self.family, params, count, errors.MAX_LEVEL_VERTICES))


# ---------------------------------------------------------------------------
# example builders


def circle_complex(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SimplicialComplex.from_maximal(n, edges)


def _solenoid_vertices(params, i):
    (p,) = params
    return 3 * p ** i


def _solenoid_complex(params, i):
    return circle_complex(_solenoid_vertices(params, i))


def _solenoid_bond(params, i):
    big, small = _solenoid_vertices(params, i + 1), _solenoid_vertices(params, i)
    return SimplicialMap(circle_complex(big), circle_complex(small),
                         tuple(k % small for k in range(big)))


def _wedge_of_circles(sizes):
    """Wedge at a common basepoint 0; circle j has sizes[j] vertices."""
    vertices = 1 + sum(s - 1 for s in sizes)
    edges = []
    offset = 1
    for s in sizes:
        ring = [0] + list(range(offset, offset + s - 1))
        for k in range(s):
            edges.append((ring[k], ring[(k + 1) % s]))
        offset += s - 1
    return SimplicialComplex.from_maximal(max(vertices, 1), edges)


def _wedge_vertex(sizes, j, k):
    """Global vertex id of local vertex k on circle j (0 is the basepoint)."""
    if k == 0:
        return 0
    return 1 + sum(s - 1 for s in sizes[:j]) + (k - 1)


def _null_vertices(params, i):
    return i + 1


def _null_complex(params, i):
    n = _null_vertices(params, i)
    return SimplicialComplex.from_maximal(n, [(v,) for v in range(n)])


def _null_bond(params, i):
    src = _null_complex(params, i + 1)
    tgt = _null_complex(params, i)
    vm = list(range(i + 1)) + [0]
    return SimplicialMap(src, tgt, tuple(vm))


def _cluster_sizes(p, i):
    # circle j (0-based) at level i has been wound i-1-j times
    return [3 * p ** (i - 1 - j) for j in range(i)]


def _cluster_vertices(params, i):
    (p,) = params
    return 1 + sum(s - 1 for s in _cluster_sizes(p, i))


def _cluster_complex(params, i):
    (p,) = params
    if i == 0:
        return SimplicialComplex.from_maximal(1, [(0,)])
    return _wedge_of_circles(_cluster_sizes(p, i))


def _cluster_bond(params, i):
    (p,) = params
    src_sizes = _cluster_sizes(p, i + 1)
    tgt_sizes = _cluster_sizes(p, i)
    src = _cluster_complex(params, i + 1)
    tgt = _cluster_complex(params, i)
    vm = [0] * src.vertex_count
    for j in range(i):
        big, small = src_sizes[j], tgt_sizes[j]
        for k in range(big):
            vm[_wedge_vertex(src_sizes, j, k)] = _wedge_vertex(tgt_sizes, j, k % small)
    # circle i (the newest) collapses to the basepoint
    return SimplicialMap(src, tgt, tuple(vm))


class _Example:
    """A registered family: its level complexes, its bonds, and the closed
    form of the vertex count of a level."""

    def __init__(self, complex_fn, bond_fn, vertices_fn):
        self.complex = complex_fn
        self.bond = bond_fn
        self.vertices = vertices_fn


_EXAMPLES = {
    "solenoid": _Example(_solenoid_complex, _solenoid_bond, _solenoid_vertices),
    # the Hawaiian earring is the cluster of circles wound once: p = 1
    "hawaiian": _Example(lambda params, i: _cluster_complex((1,), i),
                         lambda params, i: _cluster_bond((1,), i),
                         lambda params, i: _cluster_vertices((1,), i)),
    "cluster_solenoids": _Example(_cluster_complex, _cluster_bond, _cluster_vertices),
    "null_sequence": _Example(_null_complex, _null_bond, _null_vertices),
}


def make_example(name, params=()):
    """Builders: solenoid(p), hawaiian, cluster_solenoids(p), null_sequence."""
    params = tuple(params)
    if name not in _EXAMPLES:
        raise UnknownExample(name)
    if name in ("solenoid", "cluster_solenoids"):
        if len(params) != 1 or params[0] < 2:
            raise UnknownExample("%s needs one parameter p >= 2" % name)
    elif params:
        raise UnknownExample("%s takes no parameters" % name)
    return StreamedSimplicialTower(name, params)


# ---------------------------------------------------------------------------
# homology towers


def homology_tower(st, n, reduced=False):
    """The tower of degree-n homology groups with induced bonds.

    Periodic simplicial towers give eventually periodic algebraic towers.
    The registered example families give their closed-form towers after a
    spot verification of the induced maps on the first levels.
    """
    if isinstance(st, PeriodicSimplicialTower):
        tail_e = induced_hom(st.tail_map, n, reduced)
        tail_g = tail_e.source
        if not st.prefix:
            return PeriodicTower((), (), tail_g, tail_e, None)
        groups = tuple(homology_data(c, n, reduced).group for c, _ in st.prefix)
        bonds = tuple(induced_hom(b, n, reduced) for _, b in st.prefix[1:])
        splice = induced_hom(st.splice, n, reduced)
        return PeriodicTower(groups, bonds, tail_g, tail_e, splice)
    if isinstance(st, StreamedSimplicialTower):
        return _registered_homology_tower(st, n, reduced)
    raise ShapeError("homology_tower needs a simplicial tower")


def _zero_tower():
    return PeriodicTower((), (), free_group(0), identity_hom(free_group(0)), None)


def _scalar_tower(d):
    """Z at every level, each bond multiplication by d."""
    Z = free_group(1)
    return PeriodicTower((), (), Z, hom_make(Z, Z, [[d]]), None)


def _verify_levels(st, n, model, co=False):
    """Spot check: the maps induced on homology (on cohomology when co is
    true) by the first two bonds must match the registered model levelwise
    (kernel, image and cokernel invariants agree)."""
    for i in range(2):
        bond = st.bond_at(i)
        actual = induced_cohom(bond, n) if co else induced_hom(bond, n)
        expected = model.bond_at(i)
        pairs = zip(hom_parts(actual), hom_parts(expected))
        for got, want in pairs:
            if got.group.smith_invariants != want.group.smith_invariants:
                raise ShapeError(
                    "level %d induced map disagrees with the registered %s tower"
                    % (i, st.family))


def _registered_homology_tower(st, n, reduced):
    fam, params = st.family, st.params
    if fam == "solenoid":
        (p,) = params
        if n == 0:
            return _zero_tower() if reduced else _scalar_tower(1)
        if n == 1:
            model = _scalar_tower(p)
            _verify_levels(st, 1, model)
            return model
        return _zero_tower()
    if fam == "hawaiian":
        if n == 0:
            return _zero_tower() if reduced else _scalar_tower(1)
        if n == 1:
            model = make_streamed("hawaiian_h1")
            _verify_levels(st, 1, model)
            return model
        return _zero_tower()
    if fam == "null_sequence":
        if n == 0:
            if reduced:
                return make_streamed("hawaiian_h1")
            model = make_streamed("finite_sets")
            _verify_levels(st, 0, model)
            return model
        return _zero_tower()
    if fam == "cluster_solenoids":
        (p,) = params
        if n == 0:
            return _zero_tower() if reduced else _scalar_tower(1)
        if n == 1:
            model = make_streamed("cluster_h1", (p,))
            _verify_levels(st, 1, model)
            return model
        return _zero_tower()
    raise UnknownExample(fam)


# ---------------------------------------------------------------------------
# Steenrod homology descriptors


class SteenrodDescriptor(Record):
    """The two computed parts of the homology of the limit in one degree.

    The group sits in an extension 0 -> lim1_part -> H -> lim_part -> 0;
    splits records when the extension is known to be trivial (a free or
    vanishing lim part, or a vanishing lim1 part); it is "yes" or "unknown".
    """

    _fields = ("degree", "lim1_part", "lim_part", "splits", "reduced")

    def __init__(self, degree, lim1_part, lim_part, splits, reduced):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "lim1_part", lim1_part)
        object.__setattr__(self, "lim_part", lim_part)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "reduced", reduced)

    def middle(self):
        """The limit's homology group itself, when the extension splits."""
        if self.splits != "yes":
            return None
        return StructuredGroup.direct_sum([self.lim_part, self.lim1_part])

    def render(self):
        if self.splits == "yes":
            return self.middle().render()
        return "extension of %s by %s (splitting unknown)" % (
            self.lim_part.render(), self.lim1_part.render())

    def to_json(self):
        return {"degree": self.degree, "reduced": self.reduced,
                "lim1_part": self.lim1_part.to_json(),
                "lim_part": self.lim_part.to_json(),
                "splits": self.splits, "render": self.render()}


def _splits(lim_part, lim1_part):
    if lim1_part.is_trivial or lim_part.is_fg_free():
        return "yes"
    return "unknown"


def steenrod(st, n, reduced=False):
    """Steenrod homology descriptor of the limit of a simplicial tower."""
    lim1_part = derived_limit(homology_tower(st, n + 1))
    lim_part = limit(homology_tower(st, n, reduced))
    return SteenrodDescriptor(n, lim1_part, lim_part, _splits(lim_part, lim1_part),
                              reduced)


def cluster(parts, countable_repetition=False):
    """Steenrod descriptor of a one-point union, degreewise a product of
    the reduced parts."""
    if not parts:
        raise DegreeMismatch("cluster of nothing")
    deg = parts[0].degree
    for p in parts:
        if p.degree != deg:
            raise DegreeMismatch("cluster parts must share one degree")
        if not p.reduced:
            raise DegreeMismatch("cluster parts must be reduced descriptors")
    lim1_part = StructuredGroup.product_of(
        [p.lim1_part for p in parts], countable_repetition)
    lim_part = StructuredGroup.product_of(
        [p.lim_part for p in parts], countable_repetition)
    return SteenrodDescriptor(deg, lim1_part, lim_part,
                              _splits(lim_part, lim1_part), True)


# ---------------------------------------------------------------------------
# Pontryagin (Cech) cohomology


def cech_cohomology(st, n):
    """Colimit of the level cohomologies.

    Periodic towers give a finitely generated answer when the induced map
    is bijective and a localization otherwise; a bond with a kernel is
    first reduced by its stable kernel chain, which the colimit kills.
    The solenoid family has its registered localization, and the wedges of
    circles (hawaiian, cluster_solenoids) have H^0 = Z, each after a spot
    check of the first bonds; the growing-rank cases (H^1 of the wedges,
    H^0 of null_sequence) are reported depth-limited.
    """
    if isinstance(st, PeriodicSimplicialTower):
        B = induced_cohom(st.tail_map, n)
        H = B.source
        k, _, ck = hom_parts(B)
        if not k.group.is_trivial():
            red = tail_reduction(PeriodicTower((), (), H, B, None))
            H, B = red.group, red.endo
            ck = hom_parts(B)[2]
        if ck.group.is_trivial():
            return StructuredGroup.fg(H)
        return StructuredGroup.localization(H, B.matrix)
    if isinstance(st, StreamedSimplicialTower):
        if st.family == "solenoid":
            (p,) = st.params
            if n == 0:
                return StructuredGroup.fg(free_group(1))
            if n == 1:
                _verify_levels(st, 1, _scalar_tower(p), co=True)
                return StructuredGroup.localization(free_group(1),
                                                    IntMatrix.from_rows([[p]]))
            return StructuredGroup.zero()
        if st.family == "null_sequence" and n >= 1:
            return StructuredGroup.zero()
        if st.family in ("hawaiian", "cluster_solenoids"):
            if n == 0:
                # every level is connected: each bond is an isomorphism of Z
                _verify_levels(st, 0, _scalar_tower(1), co=True)
                return StructuredGroup.fg(free_group(1))
            if n >= 2:
                return StructuredGroup.zero()
        return StructuredGroup.depth_limited(
            "colimit of a growing-rank cohomology sequence (a countable direct sum)")
    raise ShapeError("cech_cohomology needs a simplicial tower")


# ---------------------------------------------------------------------------
# finite mapping telescopes


class Telescope(Record):
    """The telescope complex; level_vertex_ids holds the telescope ids of
    each level copy, level_complexes the (iterated subdivision) complex of
    each level, and base_vertex_map the simplicial retraction onto the
    level-0 copy."""

    _fields = ("complex", "level_vertex_ids", "level_complexes", "base_vertex_map")

    def __init__(self, complex, level_vertex_ids, level_complexes, base_vertex_map):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "level_vertex_ids", level_vertex_ids)
        object.__setattr__(self, "level_complexes", level_complexes)
        object.__setattr__(self, "base_vertex_map", base_vertex_map)

    def retraction_to_base(self):
        return SimplicialMap(self.complex, self.level_complexes[0],
                             self.base_vertex_map)


def telescope(st, m):
    """The finite mapping telescope of levels 0..m, as one complex.

    Level i enters as sd^i of its complex, so the cylinder of the bond
    sd^i(K_(i+1)) -> sd^i(K_i) has the current top copy as its bottom and
    a fresh copy of sd^(i+1)(K_(i+1)) as its top.  The chain sd^0 ... sd^i
    of the top level is kept from the round that built it, and the bond is
    subdivided through it one level at a time; each round then emits its
    cylinder cells straight in telescope vertex ids (the barycenters of
    the new level, then the top copy), and T is closed once, from the top
    dimension down, by SimplicialComplex.from_maximal, which indexes T by
    dimension from that closure and does not check its faces again (the
    public constructor still does).  The composite retraction onto
    level 0 is validated as a simplicial map of T, which the homology
    tests then witness as a deformation retraction.
    """
    if m < 0:
        raise ShapeError("telescope needs m >= 0")
    P0 = st.complex_at(0)
    chain = [(P0, None)]                       # sd^0 ... sd^i of the top level
    top_embed = tuple(range(P0.vertex_count))  # ids of the current top copy
    level_ids = [top_embed]
    level_complexes = [P0]
    to_base = list(top_embed)                  # composite retraction, id-chased
    cells = list(P0.simplices)
    for i in range(m):
        bond = st.bond_at(i)
        if bond.target.simplices != chain[0][0].simplices:
            raise ShapeError("telescope gluing mismatch at level %d" % i)
        sources = [(bond.source, None)]
        for k in range(1, i + 1):
            sources.append(barycentric_subdivision(sources[k - 1][0]))
            bond = subdivide_map(bond, sources[k], chain[k])
        top, labels = barycentric_subdivision(bond.source)
        sources.append((top, labels))
        fresh = range(len(to_base), len(to_base) + len(labels))
        cells += cylinder_cells(bond, dict(zip(labels, fresh)), top_embed)
        vm = bond.vertex_map
        # the cylinder retraction sends a barycenter to the image of its
        # simplex's first vertex in the top copy
        to_base += [to_base[top_embed[vm[s[0]]]] for s in labels]
        chain = sources
        top_embed = tuple(fresh)
        level_ids.append(top_embed)
        level_complexes.append(top)
    T = SimplicialComplex.from_maximal(len(to_base), cells)
    tel = Telescope(T, tuple(level_ids), tuple(level_complexes), tuple(to_base))
    tel.retraction_to_base()           # validates the composite retraction once
    return tel
