import itertools
import random

import pytest

from towerlim.exactlat import (
    Homomorphism,
    IntMatrix,
    cyclic_group,
    diagonal_group,
    exactness_defect,
    free_group,
    hom_make,
    hom_parts,
    identity_hom,
    kernel,
    lattice_canon,
    lattice_contains,
    present,
)
from towerlim.lab import LabConfig, gen_diag_group, gen_matrix_between, gen_tower, trial_rng
from towerlim.towers import (
    FiniteTower,
    NotExact,
    PeriodicTower,
    StreamedTower,
    TowerError,
    UnknownFamily,
    _cluster_bond,
    _cluster_group,
    _exact_at,
    _kernel_chain_bound,
    adic_quotient_tower,
    canonical_completion_ses,
    kernel_chain,
    make_streamed,
    periodic_tower,
    pure_tower,
    reduce_to_images,
    shift,
    tail_reduction,
    tower_ses,
    truncate,
)

Z = free_group(1)


def mult(group, k):
    return hom_make(group, group, [[k]])


class TestConstruction:
    def test_pure_periodic(self):
        t = pure_tower(Z, [[5]])
        assert t.is_pure_periodic()
        assert t.group_at(3) is Z
        assert t.bond_at(7).matrix.data == ((5,),)

    def test_constant(self):
        t = pure_tower(Z, [[1]])
        assert t.tail_endo.equals(identity_hom(Z))

    def test_rank2(self):
        t = pure_tower(free_group(2), [[2, 1], [0, 1]])
        assert t.tail_group.rank == 2

    def test_prefix(self):
        Z2 = cyclic_group(2)
        spl = hom_make(Z, Z2, [[1]])
        t = periodic_tower([Z2], [], Z, mult(Z, 3), splice=spl)
        assert t.prefix_len == 1
        assert t.group_at(0) is Z2
        assert t.group_at(1) is Z
        assert t.bond_at(0) is spl
        assert t.bond_at(1).matrix.data == ((3,),)

    def test_prefix_needs_splice(self):
        with pytest.raises(TowerError):
            periodic_tower([cyclic_group(2)], [], Z, mult(Z, 3))


class TestShiftTruncate:
    def test_shift_pure_is_identity(self):
        t = pure_tower(Z, [[7]])
        assert shift(t, 3) == t

    def test_shift_peels_prefix(self):
        Z2 = cyclic_group(2)
        t = periodic_tower([Z2], [], Z, mult(Z, 5), splice=hom_make(Z, Z2, [[1]]))
        s = shift(t, 1)
        assert s.is_pure_periodic()
        assert s.tail_group is Z

    def test_shift_streamed_reindexes(self):
        t = make_streamed("hawaiian_h1")
        s = shift(t, 2)
        assert s.group_at(2).rank == 4

    def test_truncate_periodic(self):
        ft = truncate(pure_tower(Z, [[2]]), 2)
        assert ft.depth == 2
        assert [g.rank for g in ft.groups] == [1, 1, 1]
        assert ft.composite(2, 0).matrix.data == ((4,),)

    def test_truncate_hawaiian(self):
        ft = truncate(make_streamed("hawaiian_h1"), 3)
        assert [g.rank for g in ft.groups] == [0, 1, 2, 3]

    def test_truncate_constant_torsion(self):
        t = pure_tower(cyclic_group(2), [[1]])
        ft = truncate(t, 5)
        assert len(ft.groups) == 6
        assert all(g.smith_invariants == (0, [2]) for g in ft.groups)

    def test_truncate_shift_compatibility(self):
        Z2 = cyclic_group(2)
        t = periodic_tower([Z2], [], Z, mult(Z, 5), splice=hom_make(Z, Z2, [[1]]))
        n = 4
        left = truncate(shift(t, 1), n)
        right = truncate(t, n + 1)
        dropped = FiniteTower(right.groups[1:], right.bonds[1:])
        assert [g.smith_invariants for g in left.groups] == \
               [g.smith_invariants for g in dropped.groups]
        assert all(a.matrix == b.matrix for a, b in zip(left.bonds, dropped.bonds))


class TestStreamedFamilies:
    def test_hawaiian_levels(self):
        t = make_streamed("hawaiian_h1")
        assert t.group_at(4).rank == 4
        b = t.bond_at(3)  # Z^4 -> Z^3 dropping the last coordinate
        assert b.matrix == IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])

    def test_hawaiian_is_the_cluster_at_p_1(self):
        # direct builders of the Hawaiian earring, as the reference
        def hawaiian_group(i):
            return free_group(i)

        def hawaiian_bond(i):
            m = [[1 if r == c else 0 for c in range(i + 1)] for r in range(i)]
            return Homomorphism(free_group(i + 1), free_group(i), IntMatrix(i, i + 1, m))

        t = make_streamed("hawaiian_h1")
        for i in range(6):
            assert t.group_at(i) == hawaiian_group(i) == _cluster_group((1,), i)
            assert t.bond_at(i) == hawaiian_bond(i) == _cluster_bond((1,), i)

    def test_cluster_needs_p_at_least_2(self):
        for params in ((1,), (0,), ()):
            with pytest.raises(UnknownFamily):
                make_streamed("cluster_h1", params)

    def test_cluster_bond(self):
        t = make_streamed("cluster_h1", (2,))
        b = t.bond_at(3)
        assert b.matrix == IntMatrix.from_rows(
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0]])

    def test_finite_sets_level(self):
        t = make_streamed("finite_sets")
        assert t.group_at(2).rank == 3

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            make_streamed("does_not_exist")

    def test_adic_quotient_levels(self):
        t = adic_quotient_tower(Z, mult(Z, 2))
        assert t.group_at(0).is_trivial()
        assert t.group_at(3).smith_invariants == (0, [8])


class TestReduceToImages:
    def test_projection_kernel_quotient(self):
        t = pure_tower(free_group(2), [[0, 0], [0, 1]])
        r = reduce_to_images(t)
        assert r.tail_group.smith_invariants == (1, [])
        assert r.tail_endo.matrix.det() in (1, -1)

    def test_injective_unchanged(self):
        t = pure_tower(Z, [[5]])
        r = reduce_to_images(t)
        assert r.tail_group.smith_invariants == (1, [])
        assert abs(r.tail_endo.matrix.data[0][0]) == 5

    def test_torsion_nilpotent_to_zero(self):
        Z4 = cyclic_group(4)
        t = pure_tower(Z4, [[2]])
        r = reduce_to_images(t)
        assert r.tail_group.is_trivial()

    def test_deep_torsion_kernel_chain(self):
        Z16 = cyclic_group(16)
        t = pure_tower(Z16, [[2]])
        r = reduce_to_images(t)
        assert r.tail_group.is_trivial()

    def test_stable_kernel_of_unit(self):
        K = kernel_chain(Z, mult(Z, 1))[-1]
        assert K.cols == 0


def power_kernel_chain(group, endo):
    """The kernel chain read from the powers: K_k = {x : A^k x in R}."""
    n, rel = group.generators, group.relations
    chain = [lattice_canon(rel)]
    power = IntMatrix.identity(n)
    for _ in range(_kernel_chain_bound(group) + 1):
        power = power * endo.matrix
        K = kernel(power.hstack(rel))
        nxt = lattice_canon(IntMatrix.from_columns(
            n, [K.column(j)[:n] for j in range(K.cols)]))
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise AssertionError("the power chain did not stabilize")


class TestKernelChainDifferential:
    def test_lab_towers_match_the_power_chain(self):
        config = LabConfig(master_seed=31, trials=1)
        long_chains = 0
        for i in range(400):
            t = gen_tower(trial_rng(31, "kernel_chain", i), config,
                          torsion_only=i % 3 == 0, with_prefix=False)
            T, A = t.tail_group, t.tail_endo
            chain = kernel_chain(T, A)
            assert chain == power_kernel_chain(T, A)
            long_chains += len(chain) >= 3
        assert long_chains >= 15

    def test_presented_groups_match_the_power_chain(self):
        # A = k I + R Z maps the relations R into themselves for any Z, so
        # it is an endomorphism of a group whose relations are not diagonal
        rng = random.Random(32)
        long_chains = 0
        for _ in range(150):
            n = rng.randint(1, 3)
            R = IntMatrix(n, n, [[rng.randint(-4, 4) for _ in range(n)]
                                 for _ in range(n)])
            Zm = IntMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
                                  for _ in range(n)])
            A = IntMatrix.identity(n) * rng.choice([0, 2, 3, 4, 6]) + R * Zm
            G = present(n, R)
            h = hom_make(G, G, A)
            chain = kernel_chain(G, h)
            assert chain == power_kernel_chain(G, h)
            long_chains += len(chain) >= 3
        assert long_chains >= 10


class TestTailReduction:
    def test_transport_on_lab_tails(self):
        # project . section = I, the reduced endomorphism is project . A .
        # section, and project sends everything the reduction quotients out
        # (the relations and the top of the kernel chain) into the diagonal
        # relations of the reduced group
        config = LabConfig(master_seed=34, trials=1)
        mixing = 0
        for i in range(300):
            t = gen_tower(trial_rng(34, "tail_reduction", i), config,
                          torsion_only=i % 3 == 0, with_prefix=False)
            red = tail_reduction(t)
            P, S = red.project, red.section
            assert P * S == IntMatrix.identity(red.group.generators)
            assert red.endo.matrix == P * red.original_endo.matrix * S
            quotiented = P * red.original_group.relations.hstack(red.kernel_chain[-1])
            assert all(lattice_contains(red.group.relations, quotiented.column(j))
                       for j in range(quotiented.cols))
            # a row of project that mixes coordinates
            mixing += any(sum(map(bool, row)) > 1 for row in P.data)
        assert mixing >= 30


class TestTowerSES:
    def test_trivial_ses(self):
        t = pure_tower(Z, [[3]])
        zero = pure_tower(free_group(0), IntMatrix.from_columns(0, []))
        inj = hom_make(Z, Z, [[1]])
        sur = hom_make(Z, zero.tail_group, IntMatrix.zero(0, 1))
        ses = tower_ses(t, t, zero, inj, sur)
        assert ses.verified_to >= 3

    def test_direct_sum_ses(self):
        ZxZ = free_group(2)
        sub = pure_tower(Z, [[2]])
        total = pure_tower(ZxZ, [[2, 0], [0, 3]])
        quot = pure_tower(Z, [[3]])
        inj = hom_make(Z, ZxZ, [[1], [0]])
        sur = hom_make(ZxZ, Z, [[0, 1]])
        ses = tower_ses(sub, total, quot, inj, sur)
        assert ses.inject_at(5).matrix.column(0)[0] == 1
        # the templates commute with the tail maps, so they hold at every level
        assert ses.inject_at(40) == inj and ses.surject_at(40) == sur

    def test_not_exact_squares(self):
        a = pure_tower(Z, [[1]])
        b = pure_tower(Z, [[2]])
        zero = pure_tower(free_group(0), IntMatrix.from_columns(0, []))
        inj = hom_make(Z, Z, [[1]])
        sur = hom_make(Z, zero.tail_group, IntMatrix.zero(0, 1))
        with pytest.raises(NotExact):
            tower_ses(a, b, zero, inj, sur)

    def test_canonical_completion_ses(self):
        ses = canonical_completion_ses(Z, mult(Z, 2))
        assert ses.canonical_completion
        assert ses.quot.group_at(2).smith_invariants == (0, [4])
        # inclusion at level i is multiplication by 2^i
        assert ses.inject_at(3).matrix.data == ((8,),)

    def test_levels_past_the_stored_chain(self):
        # the canonical sequence is A^i, id at every level, past the four
        # levels it checks
        ses = canonical_completion_ses(Z, mult(Z, 2))
        for i in (4, 5, 6):
            assert ses.inject_at(i).matrix.data == ((2 ** i,),)
            sur = ses.surject_at(i)
            assert sur.target == ses.quot.group_at(i)
            assert sur.target.smith_invariants == (0, [2 ** i])
        # a propagated chain that is not constant: the inclusion at level i
        # is (-i, 1) and the projection (1, i); past the stored levels it
        # raises instead of repeating the last map
        ZxZ = free_group(2)
        one = pure_tower(Z, [[1]])
        total = pure_tower(ZxZ, [[1, 1], [0, 1]])
        ses = tower_ses(one, total, one, hom_make(Z, ZxZ, [[0], [1]]),
                        hom_make(ZxZ, Z, [[1, 0]]))
        stored = len(ses.inject_chain)
        assert stored >= 4
        for i in range(stored):
            assert ses.inject_at(i).matrix.data == ((-i,), (1,))
            assert ses.surject_at(i).matrix.data == ((1, i),)
        for i in range(stored, stored + 3):
            with pytest.raises(TowerError, match="past the %d stored levels" % stored):
                ses.inject_at(i)
            with pytest.raises(TowerError, match="past the %d stored levels" % stored):
                ses.surject_at(i)

    def test_prefix_is_rejected(self):
        Z2 = cyclic_group(2)
        t = periodic_tower([Z2], [], Z, mult(Z, 1), splice=hom_make(Z, Z2, [[1]]))
        one = identity_hom(Z)
        with pytest.raises(TowerError, match="without a prefix"):
            tower_ses(t, t, t, one, one)

    def test_rank_additivity(self):
        ZxZ = free_group(2)
        sub = pure_tower(Z, [[2]])
        total = pure_tower(ZxZ, [[2, 5], [0, 3]])
        quot = pure_tower(Z, [[3]])
        inj = hom_make(Z, ZxZ, [[1], [0]])
        sur = hom_make(ZxZ, Z, [[0, 1]])
        ses = tower_ses(sub, total, quot, inj, sur)
        for i in range(4):
            assert (ses.total.group_at(i).rank
                    == ses.sub.group_at(i).rank + ses.quot.group_at(i).rank)


def hom_parts_verdicts(inj, sur):
    """Injectivity, surjectivity and image = kernel read from the full
    kernel, image and cokernel groups that hom_parts builds."""
    k_inj, im_inj, _ = hom_parts(inj)
    k_sur, _, ck_sur = hom_parts(sur)
    mid = sur.source.relations
    return {"injective": k_inj.group.is_trivial(),
            "surjective": ck_sur.group.is_trivial(),
            "exact": (lattice_canon(im_inj.witness.hstack(mid))
                      == lattice_canon(k_sur.witness.hstack(mid)))}


HOM_PARTS_REASONS = (
    ("injective", "inclusion is not injective"),
    ("surjective", "projection is not surjective"),
    ("exact", "image of the inclusion differs from the kernel of the projection"),
)


def random_short_sequence(rng, config, kind):
    """inj: A -> B and sur: B -> C between diagonal groups.

    kind 0 draws both maps at random.  kind 1 is A >-> A (+) C ->> C
    through a (x, Xx) and (y, z) -> z - Xy, exact for any map X; kind 2
    is Z/a >-> Z/ab ->> Z/b (a = 0 for Z).  Half of the kind 1 and 2
    sequences have one map scaled by 2 or 3 or, in kind 1, X replaced."""
    bound = config.entry_bound
    if kind == 0:
        (A, da), (B, db), (C, dc) = (gen_diag_group(rng, config) for _ in range(3))
        return (hom_make(A, B, gen_matrix_between(rng, db, da, bound)),
                hom_make(B, C, gen_matrix_between(rng, dc, db, bound)))
    if kind == 1:
        (A, da), (C, dc) = gen_diag_group(rng, config), gen_diag_group(rng, config)
        B = diagonal_group(da + dc)
        X = gen_matrix_between(rng, dc, da, bound)
        Y = X if rng.below(4) else gen_matrix_between(rng, dc, da, bound)
        inj = IntMatrix.identity(len(da)).vstack(X)
        sur = (-Y).hstack(IntMatrix.identity(len(dc)))
    else:
        a, b = rng.rand_range(0, 6), rng.rand_range(1, 6)
        A, B, C = cyclic_group(a), cyclic_group(a * b), cyclic_group(b)
        inj, sur = IntMatrix.from_rows([[b]]), IntMatrix.identity(1)
    if rng.below(2):
        k = rng.rand_range(2, 3)
        if rng.below(2):
            inj = inj * k
        else:
            sur = sur * k
    return hom_make(A, B, inj), hom_make(B, C, sur)


class TestExactnessDifferential:
    def test_lattice_tests_match_hom_parts(self):
        config = LabConfig(master_seed=53, trials=0)
        outcomes = {}
        finite_cokernels = 0
        for i in range(600):
            inj, sur = random_short_sequence(trial_rng(53, "exactness", i), config, i % 3)
            verdicts = hom_parts_verdicts(inj, sur)
            want = next((reason for test, reason in HOM_PARTS_REASONS
                         if not verdicts[test]), None)
            try:
                _exact_at(inj, sur, 7)
                got = None
            except NotExact as e:
                assert e.level == 7
                got = e.reason
            assert got == want, (inj, sur)
            for order in itertools.permutations(verdicts):
                assert exactness_defect(inj, sur, order) == next(
                    (test for test in order if not verdicts[test]), None), (inj, sur, order)
            outcomes[want] = outcomes.get(want, 0) + 1
            # im sur + R_C of full rank but index > 1: every pivot is
            # there, and one of them is not 1
            order = hom_parts(sur)[2].group.order()
            finite_cokernels += order is not None and order > 1
        assert outcomes.get(None, 0) >= 100
        for _, reason in HOM_PARTS_REASONS:
            assert outcomes.get(reason, 0) >= 40, outcomes
        assert finite_cokernels >= 40

    def test_unknown_test_name_is_refused(self):
        one = identity_hom(Z)
        with pytest.raises(ValueError, match="unknown exactness test"):
            exactness_defect(one, one, ("injective", "onto"))
