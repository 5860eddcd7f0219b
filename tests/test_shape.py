import pytest

from towerlim import shape
from towerlim.errors import TooLarge
from towerlim.exactlat import free_group, hom_make
from towerlim.limits import limit, derived_limit, ml_conditions
from towerlim.shape import (
    DegreeMismatch,
    PeriodicSimplicialTower,
    SteenrodDescriptor,
    UnknownExample,
    cech_cohomology,
    circle_complex,
    cluster,
    homology_tower,
    make_example,
    steenrod,
    telescope,
    _EXAMPLES,
    _cluster_bond,
    _cluster_complex,
    _wedge_of_circles,
    _wedge_vertex,
)
from towerlim.simplicial import (
    SimplicialComplex,
    SimplicialMap,
    homology_invariants,
    induced_hom,
    simplicial_homology,
)
from towerlim.structured import StructuredGroup, compare_structured
from towerlim.towers import PeriodicTower, StreamedTower

from testkit import constant_tower, level_inclusion, level_to_base


class TestBuilders:
    def test_solenoid_levels(self):
        st = make_example("solenoid", (2,))
        assert st.complex_at(0).vertex_count == 3
        assert st.complex_at(1).vertex_count == 6
        b = st.bond_at(0)
        assert b.source.vertex_count == 6 and b.target.vertex_count == 3

    def test_hawaiian_level_3(self):
        st = make_example("hawaiian")
        K = st.complex_at(3)
        assert homology_invariants(K, 1) == (3, [])
        assert homology_invariants(K, 0) == (1, [])

    def test_hawaiian_is_the_cluster_at_p_1(self):
        # direct builders of the Hawaiian earring, as the reference
        def hawaiian_complex(i):
            if i == 0:
                return SimplicialComplex.from_maximal(1, [(0,)])
            return _wedge_of_circles([3] * i)

        def hawaiian_bond(i):
            src, tgt = hawaiian_complex(i + 1), hawaiian_complex(i)
            vm = [0] * src.vertex_count
            for j in range(i):
                for k in range(3):
                    vm[_wedge_vertex([3] * (i + 1), j, k)] = _wedge_vertex([3] * i, j, k)
            return SimplicialMap(src, tgt, tuple(vm))

        st = make_example("hawaiian")
        for i in range(6):
            assert st.complex_at(i) == hawaiian_complex(i) == _cluster_complex((1,), i)
            assert st.bond_at(i) == hawaiian_bond(i) == _cluster_bond((1,), i)
        for params in ((1,), (2,)):
            with pytest.raises(UnknownExample):
                make_example("hawaiian", params)
        with pytest.raises(UnknownExample):
            make_example("cluster_solenoids", (1,))

    def test_null_sequence_levels(self):
        st = make_example("null_sequence")
        assert st.complex_at(4).vertex_count == 5
        assert homology_invariants(st.complex_at(4), 0) == (5, [])

    def test_cluster_levels(self):
        st = make_example("cluster_solenoids", (2,))
        K = st.complex_at(2)       # circles of sizes 6 and 3
        assert homology_invariants(K, 1) == (2, [])

    def test_unknown(self):
        with pytest.raises(UnknownExample):
            make_example("torus")

    @pytest.mark.parametrize("name, params", [
        ("solenoid", (2,)), ("solenoid", (5,)), ("hawaiian", ()),
        ("cluster_solenoids", (3,)), ("null_sequence", ())])
    def test_vertex_closed_forms(self, name, params):
        st = make_example(name, params)
        for i in range(4):
            assert _EXAMPLES[name].vertices(params, i) == st.complex_at(i).vertex_count
            assert st.bond_at(i).source.vertex_count == \
                _EXAMPLES[name].vertices(params, i + 1)

    def test_level_past_the_vertex_bound_is_refused_unbuilt(self, monkeypatch):
        def unbuilt(n):
            raise AssertionError("circle of %d vertices built" % n)

        monkeypatch.setattr(shape, "circle_complex", unbuilt)
        st = make_example("solenoid", (10 ** 13,))
        with pytest.raises(TooLarge, match="level 1 of solenoid\\(10000000000000\\) would "
                           "have 30000000000000 vertices, over the bound of 100000 "
                           "vertices per level"):
            st.bond_at(0)
        # the cluster level 2 of p = 10^5 has 1 + (3 * 10^5 - 1) + 2 vertices
        with pytest.raises(TooLarge, match="level 2 of cluster_solenoids"):
            make_example("cluster_solenoids", (10 ** 5,)).complex_at(2)


class TestHomologyTower:
    def test_solenoid_h1(self):
        t = homology_tower(make_example("solenoid", (3,)), 1)
        assert isinstance(t, PeriodicTower)
        assert t.tail_group.smith_invariants == (1, [])
        assert abs(t.tail_endo.matrix.data[0][0]) == 3

    def test_solenoid_h0(self):
        t = homology_tower(make_example("solenoid", (2,)), 0)
        assert t.tail_group.smith_invariants == (1, [])
        assert t.tail_endo.matrix.data == ((1,),)

    def test_hawaiian_h1_streamed(self):
        t = homology_tower(make_example("hawaiian"), 1)
        assert isinstance(t, StreamedTower)
        assert t.family == "hawaiian_h1"

    def test_constant_tower_identity(self):
        K = circle_complex(4)
        t = homology_tower(constant_tower(K), 1)
        assert t.tail_group.smith_invariants == (1, [])
        assert limit(t).group.is_isomorphic(simplicial_homology(K, 1))

    def test_degree_two_zero(self):
        t = homology_tower(make_example("solenoid", (2,)), 2)
        assert t.tail_group.is_trivial()


class TestSteenrod:
    def test_solenoid_reduced_degree0(self):
        for p in (2, 3):
            d = steenrod(make_example("solenoid", (p,)), 0, reduced=True)
            assert d.lim_part.is_trivial
            assert d.lim1_part.tag == "completion_quotient"
            assert d.lim1_part.missing_primes == (p,)
            assert d.splits == "yes"
            assert d.render() == "Z_%d/Z" % p

    def test_solenoid_unreduced_degree0(self):
        d = steenrod(make_example("solenoid", (2,)), 0)
        assert d.lim_part.tag == "fg"
        assert d.lim_part.group.smith_invariants == (1, [])
        assert d.splits == "yes"
        assert d.middle().render() == "Z (+) Z_2/Z"

    def test_solenoid_degree1_vanishes(self):
        d = steenrod(make_example("solenoid", (2,)), 1)
        assert d.lim_part.is_trivial and d.lim1_part.is_trivial

    def test_hawaiian_degree1(self):
        d = steenrod(make_example("hawaiian"), 1)
        assert d.lim_part.tag == "full_product"
        assert d.lim1_part.is_trivial
        assert d.splits == "yes"

    def test_null_sequence_degree0(self):
        d = steenrod(make_example("null_sequence"), 0)
        assert d.lim_part.tag == "full_product"
        assert d.lim1_part.is_trivial

    def test_constant_tower_agrees_with_homology(self):
        K = circle_complex(5)
        for n in (0, 1):
            d = steenrod(constant_tower(K), n)
            assert d.splits == "yes"
            mid = d.middle()
            assert mid.tag == "fg"
            assert mid.group.is_isomorphic(simplicial_homology(K, n))

    def test_cluster_model_matches_cluster_of_parts(self):
        p = 2
        model = steenrod(make_example("cluster_solenoids", (p,)), 0, reduced=True)
        part = steenrod(make_example("solenoid", (p,)), 0, reduced=True)
        combined = cluster([part], countable_repetition=True)
        assert compare_structured(model.lim1_part, combined.lim1_part) == "equal"
        assert model.lim_part.is_trivial and combined.lim_part.is_trivial


class TestCluster:
    def test_countable_product_of_solenoids(self):
        part = steenrod(make_example("solenoid", (2,)), 0, reduced=True)
        d = cluster([part], countable_repetition=True)
        assert d.lim1_part.tag == "product_of"
        assert d.lim1_part.countable_repetition
        assert d.lim1_part.factors[0].render() == "Z_2/Z"
        assert d.render() == "prod(Z_2/Z)"

    def test_cluster_of_points(self):
        pt = steenrod(make_example("null_sequence"), 1, reduced=True)
        assert cluster([pt, pt]).lim1_part.is_trivial

    def test_degree_mismatch(self):
        a = steenrod(make_example("solenoid", (2,)), 0, reduced=True)
        b = steenrod(make_example("solenoid", (2,)), 1, reduced=True)
        with pytest.raises(DegreeMismatch):
            cluster([a, b])

    def test_unreduced_rejected(self):
        a = steenrod(make_example("solenoid", (2,)), 0, reduced=False)
        with pytest.raises(DegreeMismatch):
            cluster([a])


class TestCech:
    def test_solenoid_h1_localization(self):
        sg = cech_cohomology(make_example("solenoid", (2,)), 1)
        assert sg.tag == "localization"
        assert sg.render() == "Z[1/2]"

    def test_solenoid_h0(self):
        sg = cech_cohomology(make_example("solenoid", (5,)), 0)
        assert sg.tag == "fg" and sg.group.smith_invariants == (1, [])

    def test_constant_circle(self):
        sg = cech_cohomology(constant_tower(circle_complex(3)), 1)
        assert sg.tag == "fg" and sg.group.smith_invariants == (1, [])

    def test_periodic_doubling(self):
        K = circle_complex(3)
        # the identity tower twisted by a degree-2 self-map does not exist
        # simplicially; use the subdivision-free doubling on H^1 through a
        # periodic algebraic check instead: constant tower keeps H^1 = Z
        sg = cech_cohomology(constant_tower(K), 0)
        assert sg.tag == "fg"

    def test_constant_map_kills_h1(self):
        K = circle_complex(3)
        st = PeriodicSimplicialTower((), K, SimplicialMap(K, K, (0, 0, 0)))
        assert cech_cohomology(st, 1).is_trivial

    def test_collapsing_one_circle_of_a_wedge(self):
        # the self-map keeps the first circle and collapses the second, so
        # the bond on H^1 = Z^2 has a kernel that the colimit kills
        K = _wedge_of_circles([3, 3])
        st = PeriodicSimplicialTower((), K, SimplicialMap(K, K, (0, 1, 2, 0, 0)))
        sg = cech_cohomology(st, 1)
        assert sg.tag == "fg" and sg.render() == "Z"


class TestTelescope:
    @pytest.mark.parametrize("name,params", [
        ("solenoid", (2,)), ("hawaiian", ()),
        ("cluster_solenoids", (2,)), ("null_sequence", ())])
    def test_retracts_to_level_zero(self, name, params):
        st = make_example(name, params)
        base_h = [homology_invariants(st.complex_at(0), n) for n in (0, 1)]
        for m in (1, 2):
            tel = telescope(st, m)
            for n in (0, 1):
                assert homology_invariants(tel.complex, n) == base_h[n]

    def test_deeper_solenoid(self):
        st = make_example("solenoid", (2,))
        tel = telescope(st, 3)
        assert homology_invariants(tel.complex, 1) == (1, [])
        assert homology_invariants(tel.complex, 0) == (1, [])

    def test_point_tower_contractible(self):
        st = make_example("null_sequence")
        tel = telescope(st, 3)
        assert homology_invariants(tel.complex, 0) == (1, [])

    def test_level_inclusion_winds(self):
        # including level m and retracting to the level-0 circle hits H_1
        # by multiplication with p^m
        from towerlim.exactlat import hom_parts
        st = make_example("solenoid", (2,))
        for m in (1, 2, 3):
            tel = telescope(st, m)
            h = induced_hom(level_to_base(tel, m), 1)
            _, _, ck = hom_parts(h)
            assert ck.group.smith_invariants == (0, [2 ** m])

    def test_retraction_is_simplicial_and_collapses(self):
        st = make_example("solenoid", (2,))
        tel = telescope(st, 2)
        r = tel.retraction_to_base()    # construction validates simpliciality
        h = induced_hom(r.compose(level_inclusion(tel, 0)), 1)
        assert abs(h.matrix.data[0][0]) == 1
