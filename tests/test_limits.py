"""Limit and derived-limit tests.

Derived expected values are computed by independent oracles before being
asserted: bounded-box thread enumeration for lim of matrix towers,
levelwise Smith invariants for completion growth, and literal element
enumeration for finite towers.
"""

import itertools
import random
import sys
import time

import pytest

from towerlim import limits, poly, procat
from towerlim.exactlat import (
    IntMatrix,
    Subquotient,
    ambient_index,
    charpoly,
    cyclic_group,
    free_group,
    hom_make,
    hom_parts,
    kernel as lattice_kernel,
    lattice_canon,
    lattice_index,
    present,
)
from towerlim.limits import (
    InconsistentSES,
    InternalInconsistency,
    TooLarge,
    brute_lim,
    derived_limit,
    limit,
    ml_conditions,
    six_term,
)
from towerlim.limits import _unit_lattice
from towerlim.poly import (
    _modular_factors,
    factor_kernel,
    factor_monic,
    poly_mul,
    poly_of_matrix,
)
from towerlim.structured import StructuredGroup, compare_structured
from towerlim.towers import (
    FiniteTower,
    adic_quotient_tower,
    canonical_completion_ses,
    kernel_chain,
    make_streamed,
    periodic_tower,
    pure_tower,
    shift,
    tower_ses,
    truncate,
)

Z = free_group(1)
Z2 = free_group(2)


def tower_Zp(p):
    return pure_tower(Z, [[p]])


def threads_in_box(matrix, box, depth):
    """Level-0 values of depth-long threads with all coordinates in
    [-box, box]; a brute-force oracle for the unit-part computation."""
    r = matrix.rows
    if r == 0:
        return {()}
    current = set(itertools.product(range(-box, box + 1), repeat=r))
    for _ in range(depth):
        nxt = set()
        for x in current:
            y = tuple(matrix.apply(list(x)))
            if all(abs(c) <= box for c in y):
                nxt.add(y)
        current = nxt
    return current


def random_matrix(rng, rank, bound):
    return [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rank)]


def rank_mod(rows, q):
    """Rank over GF(q) by Gaussian elimination."""
    rows = [[x % q for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % q
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sympy_factors(f):
    """sympy's factorization of the monic f, as factor_monic writes it."""
    sympy = pytest.importorskip("sympy")
    _, factors = sympy.factor_list(sympy.Poly(f[::-1], sympy.Symbol("x")))
    return sorted(([int(c) for c in g.all_coeffs()[::-1]], m) for g, m in factors)


def expand(factors):
    out = [1]
    for f, m in factors:
        for _ in range(m):
            out = poly_mul(out, f)
    return out


class TestCharpoly:
    def test_diag(self):
        # det(xI - diag(2,3)) = (x-2)(x-3) = x^2 - 5x + 6
        assert charpoly(IntMatrix.from_rows([[2, 0], [0, 3]])) == [6, -5, 1]

    def test_companion(self):
        # companion of x^2 - x - 1
        assert charpoly(IntMatrix.from_rows([[0, 1], [1, 1]])) == [-1, -1, 1]

    def test_zero_dim(self):
        assert charpoly(IntMatrix.from_columns(0, [])) == [1]

    def test_factor_monic(self):
        #  x^2 - 5x + 6 = (x-2)(x-3)
        fs = factor_monic([6, -5, 1])
        assert sorted(f for f, _ in fs) == [[-3, 1], [-2, 1]]


def companion(f):
    """The companion matrix of the monic f (ascending coefficients)."""
    n = len(f) - 1
    return IntMatrix.from_rows([[1 if i == j + 1 else 0 for j in range(n - 1)] + [-f[i]]
                                for i in range(n)])


def is_unit_factor(f):
    return abs(f[0]) == 1


class TestFactorKernel:
    def test_unit_lattice(self):
        # (x-1)(x-2): the unit part x-1 cuts out the first axis
        N = _unit_lattice(IntMatrix.from_rows([[1, 0], [0, 2]]))
        assert lattice_canon(N) == IntMatrix.from_columns(2, [[1, 0]])
        # x^2 - x - 1 is irreducible with constant -1: all of Z^2
        N = _unit_lattice(companion([-1, -1, 1]))
        assert lattice_canon(N) == IntMatrix.identity(2)
        # x^2 - 2: none of it
        assert _unit_lattice(companion([-2, 0, 1])) == IntMatrix.from_columns(2, [])
        assert _unit_lattice(IntMatrix.from_columns(0, [])) == IntMatrix.from_columns(0, [])

    def test_kronecker_degree4(self):
        # (x^2 - x - 1)(x^2 - 2) has no rational roots; the unit lattice must
        # be the kernel of the golden-ratio factor alone
        A = companion([2, 2, -3, -1, 1])
        N = _unit_lattice(A)
        assert N.cols == 2
        assert poly_of_matrix([-1, -1, 1], A) * N == IntMatrix.zero(4, 2)
        assert N == factor_kernel(A, lambda f: f == [-1, -1, 1])

    def test_unit_lattice_is_kernel_of_unit_part(self):
        # against the product of the unit factors, multiplied out here and
        # its kernel taken directly, on random matrices of rank 1 to 5
        rng = random.Random(21)
        ranks = set()
        for _ in range(80):
            A = IntMatrix.from_rows(random_matrix(rng, rng.randint(1, 5), 3))
            u = expand((f, m) for f, m in factor_monic(charpoly(A)) if is_unit_factor(f))
            expected = lattice_kernel(poly_of_matrix(u, A))
            assert factor_kernel(A, is_unit_factor) == _unit_lattice(A) == expected
            ranks.add((A.rows, expected.cols))
        assert any(0 < k < n for n, k in ranks) and any(k == 0 for _, k in ranks)


# Dense rank-6 tails on which the former budgeted divisor search gave up,
# and one on which it ran past 10 s.
FORMER_CLIFF_TAILS = (
    [[2, 2, 0, 3, 0, -2], [0, -2, 0, -3, -1, 1], [3, -2, 3, 2, -1, -3],
     [-3, 3, 3, 3, -1, 2], [-1, -3, -2, -1, 3, 0], [0, -1, -1, 3, 1, 0]],
    [[-2, -1, 3, 2, -2, -2], [-2, -1, -3, -3, 0, 1], [-1, -1, -1, -1, -3, -3],
     [-1, -2, 3, 3, 2, 2], [0, 3, 0, 3, -3, 2], [-3, 2, 0, 1, 3, -3]],
    [[1, -1, 3, 1, -3, 0], [-1, 1, 1, -3, 1, 1], [-1, -3, 2, 1, 3, 2],
     [3, 0, 2, -2, 2, -1], [2, -1, 3, 3, 0, 1], [-3, 0, -1, 0, 1, -1]],
    [[2, -1, -3, 1, 1, 2], [3, -1, 2, 0, 3, -3], [-3, 2, 3, 3, 0, 0],
     [-2, 0, 3, -2, 3, -2], [0, 3, -2, -1, -3, -1], [2, 3, -1, 3, -1, 2]],
)

PHI5 = [1, 1, 1, 1, 1]
PHI7 = [1, 1, 1, 1, 1, 1, 1]
SWINNERTON_DYER_4 = [1, 0, -10, 0, 1]          # minimal polynomial of sqrt2 + sqrt3
SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]   # of sqrt2 + sqrt3 + sqrt5


class TestFactoring:
    # each of these characteristic polynomials is irreducible (checked with
    # sympy) with constant term other than +-1: lim = 0 and lim1 has full rank
    @pytest.mark.parametrize("rows", FORMER_CLIFF_TAILS + tuple(
        random_matrix(random.Random(seed), 10, 9) for seed in (1, 2)))
    def test_dense_tails_irreducible(self, rows):
        f = charpoly(IntMatrix.from_rows(rows))
        assert factor_monic(f) == [(f, 1)]
        t = pure_tower(free_group(len(rows)), rows)
        assert limit(t).is_trivial
        lim1 = derived_limit(t)
        assert lim1.tag == "completion_quotient"
        assert lim1.rank == len(rows)

    def test_swinnerton_dyer_splits_modulo_primes(self):
        # irreducible over Z, but a product of quadratics or linears mod
        # every prime: the irreducibility comes out of recombination alone
        for f in (SWINNERTON_DYER_4, SWINNERTON_DYER_8):
            _, us = _modular_factors(f)
            assert len(us) >= 2
            assert factor_monic(f) == [(f, 1)]

    def test_repeated_factor(self):
        f = expand([([-2, 0, 1], 2), ([-1, -1, 1], 1)])
        assert factor_monic(f) == [([-2, 0, 1], 2), ([-1, -1, 1], 1)]

    def test_x_power_and_cyclotomics(self):
        f = expand([([0, 1], 3), (PHI5, 1), (PHI7, 1)])
        assert factor_monic(f) == [([0, 1], 3), (PHI5, 1), (PHI7, 1)]

    def test_two_irreducible_quartics(self):
        q = [1, 1, 0, 0, 1]     # x^4 + x + 1, irreducible modulo 2
        f = poly_mul(SWINNERTON_DYER_4, q)
        assert factor_monic(f) == sorted([(SWINNERTON_DYER_4, 1), (q, 1)])

    def test_product_of_factors_is_input(self):
        rng = random.Random(3)
        for _ in range(60):
            f = [1]
            for _ in range(rng.randint(1, 4)):
                g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [1]
                for _ in range(rng.randint(1, 3)):
                    f = poly_mul(f, g)
            fs = factor_monic(f)
            assert expand(fs) == f
            assert all(m >= 1 and g[-1] == 1 for g, m in fs)
            assert fs == sorted(fs)

    def test_against_sympy(self):
        pytest.importorskip("sympy")
        rng = random.Random(20)
        for _ in range(200):
            rank = rng.randint(1, 8)
            f = charpoly(IntMatrix.from_rows(random_matrix(rng, rank, 9)))
            assert factor_monic(f) == sympy_factors(f)

    def test_repeated_factors_against_sympy(self, monkeypatch):
        # a polynomial with a repeated factor is squarefree modulo no prime,
        # so the gcd over Z must run; one that is squarefree modulo 3 skips it
        pytest.importorskip("sympy")
        calls = []

        def record(a, b):
            calls.append(a)
            return gcd_primitive(a, b)

        def bounded_primes():
            # a prime search on a polynomial with a repeated factor never ends
            for p, _ in zip(odd_primes(), range(100)):
                yield p
            raise AssertionError("no good prime among the first 100 odd primes")

        gcd_primitive, odd_primes = poly._gcd_primitive, poly._odd_primes
        monkeypatch.setattr(poly, "_gcd_primitive", record)
        monkeypatch.setattr(poly, "_odd_primes", bounded_primes)
        rng = random.Random(21)
        for _ in range(150):
            g = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1]
            h = [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))] + [1]
            f = poly_mul(poly_mul(g, g), poly_mul(h, [rng.randint(-4, 4), 1]))
            if f[0] == 0:
                continue
            calls.clear()
            assert factor_monic(f) == sympy_factors(f)
            assert calls == [f]
        calls.clear()
        assert factor_monic([2, 1, 0, 1]) == sympy_factors([2, 1, 0, 1])
        assert calls == []

    # dense tails (irreducible charpolys with 45-55 bit constant terms) and
    # block-triangular ones with a repeated integer root, so that linear
    # factors with multiplicity come out of the Zassenhaus path
    @pytest.mark.parametrize("blocks,seed", [
        ((12,), 1), ((1, 1, 3, 7), 2), ((16,), 3), ((1, 1, 2, 12), 4)])
    def test_large_charpolys_against_sympy(self, blocks, seed):
        pytest.importorskip("sympy")
        rng = random.Random(seed)
        n = sum(blocks)
        rows = [[0] * n for _ in range(n)]
        root = rng.choice([-3, -2, 2, 3])
        start = 0
        for size in blocks:
            for i in range(start, start + size):
                rows[i][start:] = [rng.randint(-9, 9) for _ in range(start, n)]
            if size == 1:
                rows[start][start] = root
            start += size
        f = charpoly(IntMatrix.from_rows(rows))
        got = factor_monic(f)
        assert got == sympy_factors(f)
        if 1 in blocks:
            assert ([-root, 1], 2) in got

    def test_split_charpolys_against_sympy(self):
        # block-triangular tails of rank <= 12 whose diagonal holds a
        # repeated integer eigenvalue r and at least one 0 (a power of x)
        # between dense blocks, so that the integer roots, their
        # multiplicities and the residual all come out
        pytest.importorskip("sympy")
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(3, 12)
            r = rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
            # (size, fixed diagonal entry or None for a dense block)
            blocks = [(1, r), (1, r), (1, 0)]
            left = n - len(blocks)
            while left:
                size = min(rng.randint(1, 4), left)
                blocks.append((size, None))
                left -= size
            rng.shuffle(blocks)
            rows = [[0] * n for _ in range(n)]
            start = 0
            for size, value in blocks:
                for i in range(start, start + size):
                    rows[i][start:] = [rng.randint(-9, 9) for _ in range(start, n)]
                if value is not None:
                    rows[start][start] = value
                start += size
            f = charpoly(IntMatrix.from_rows(rows))
            got = factor_monic(f)
            assert got == sympy_factors(f)
            mults = dict((tuple(g), m) for g, m in got)
            assert mults[(-r, 1)] >= 2 and mults[(0, 1)] >= 1

    def test_chain_lattice_polynomials_against_sympy(self, monkeypatch):
        # the characteristic polynomials chain_lattice factors, on the
        # root2 pair (A^2 = 2I) and on the companions of x^2+x+2 and
        # x^2+x-4, in both directions at gaps 1 to 4
        pytest.importorskip("sympy")
        seen = []

        def record(f):
            seen.append(f)
            return factor_monic(f)

        monkeypatch.setattr(poly, "factor_monic", record)
        for a, b in (([[0, 2], [1, 0]], [[2, 0], [0, 2]]),
                     ([[0, -2], [1, -1]], [[0, 4], [1, -1]])):
            A, B = IntMatrix.from_rows(a), IntMatrix.from_rows(b)
            for g in range(1, 5):
                procat.chain_lattice(A ** g, B)
                procat.chain_lattice(B ** g, A)
        assert len(seen) == 16
        for f in seen:
            assert factor_monic(f) == sympy_factors(f)

    # the integer-root step on polynomials where trial division up to
    # sqrt|f(0)|, a loop over the root bound or a search for a prime above
    # it would not finish; each finishes in milliseconds
    @pytest.mark.parametrize("factors", [
        [([-(2 ** 89 - 1), 0, 1], 1)],
        [([-(2 ** 89 - 1), 0, 1], 1), ([-3, 1], 2)],
        [([-(2 ** 61 - 1), 1], 1), ([2, 1], 1)],
        [([-(2 ** 61 - 1), 1], 2)],
    ])
    def test_huge_constant_terms(self, factors):
        f = expand(factors)
        start = time.perf_counter()
        assert factor_monic(f) == factors
        assert time.perf_counter() - start < 1.0


class TestLim:
    def test_lim_Zp_zero(self):
        for p in (2, 3, 5):
            assert limit(tower_Zp(p)).is_trivial

    def test_lim_constant(self):
        sg = limit(tower_Zp(1))
        assert sg.tag == "fg"
        assert sg.group.smith_invariants == (1, [])

    def test_lim_shear_oracle(self):
        # the derived example: threads of [[2,1],[0,1]] with |coords| <= 64
        # to depth 12 all lie on Z(1,-1)
        A = IntMatrix.from_rows([[2, 1], [0, 1]])
        accepted = threads_in_box(A, 64, 12)
        assert accepted == {(a, -a) for a in range(-64, 65)}
        sg = limit(pure_tower(Z2, [[2, 1], [0, 1]]))
        assert sg.tag == "fg"
        assert sg.group.smith_invariants == (1, [])
        # the computed generator witness is the class of (1, -1)
        from towerlim.limits import _tail_analysis
        t = pure_tower(Z2, [[2, 1], [0, 1]])
        gen = _tail_analysis(t.tail_group, t.tail_endo).lim_basis.column(0)
        assert gen in ([1, -1], [-1, 1])

    def test_lim_projection_rank2(self):
        # diag(0,1): kernel chain collapses one coordinate
        t = pure_tower(Z2, [[0, 0], [0, 1]])
        accepted = threads_in_box(IntMatrix.from_rows([[0, 0], [0, 1]]), 8, 8)
        assert accepted == {(0, b) for b in range(-8, 9)}
        sg = limit(t)
        assert sg.group.smith_invariants == (1, [])

    def test_lim_unimodular_full(self):
        # Fibonacci matrix is invertible over Z: every element starts a thread
        sg = limit(pure_tower(Z2, [[1, 1], [1, 0]]))
        assert sg.group.smith_invariants == (2, [])

    def test_lim_torsion_bijective(self):
        t = pure_tower(cyclic_group(4), [[3]])
        sg = limit(t)
        assert sg.group.smith_invariants == (0, [4])

    def test_lim_torsion_nilpotent(self):
        assert limit(pure_tower(cyclic_group(4), [[2]])).is_trivial

    def test_lim_hawaiian_full_product(self):
        assert limit(make_streamed("hawaiian_h1")).tag == "full_product"

    def test_lim_cluster_zero(self):
        assert limit(make_streamed("cluster_h1", (2,))).is_trivial


class TestLim1:
    def test_lim1_Zp(self):
        for p in (2, 3, 5):
            sg = derived_limit(tower_Zp(p))
            assert sg.tag == "completion_quotient"
            assert sg.is_uncountable
            assert sg.missing_primes == (p,)
            assert not sg.is_trivial

    def test_lim1_constant_zero(self):
        assert derived_limit(tower_Zp(1)).is_trivial

    def test_lim1_diag23_levelwise_oracle(self):
        # oracle first: Z^2 / diag(2,3)^k has invariants (0, [6^k])
        A = IntMatrix.from_rows([[2, 0], [0, 3]])
        for k in range(1, 7):
            q = present(2, A ** k)
            assert q.smith_invariants == (0, [6 ** k])
        sg = derived_limit(pure_tower(Z2, [[2, 0], [0, 3]]))
        assert sg.tag == "completion_quotient"
        assert sg.missing_primes == (2, 3)
        assert sg.rank == 2

    def test_lim1_mixed_unit(self):
        # (x-1)(x-2): the unit direction is split off, one 2-adic direction left
        sg = derived_limit(pure_tower(Z2, [[1, 1], [0, 2]]))
        assert sg.tag == "completion_quotient"
        assert sg.rank == 1
        assert sg.missing_primes == (2,)

    def test_lim1_hawaiian_zero(self):
        assert derived_limit(make_streamed("hawaiian_h1")).is_trivial

    def test_lim1_cluster(self):
        sg = derived_limit(make_streamed("cluster_h1", (3,)))
        assert sg.tag == "product_of"
        assert sg.countable_repetition
        assert sg.factors[0].tag == "completion_quotient"
        assert sg.factors[0].missing_primes == (3,)

    def test_lim1_uncountable_iff_nonzero(self):
        for mat in ([[2]], [[5]], [[2, 1], [0, 3]]):
            g = free_group(len(mat))
            sg = derived_limit(pure_tower(g, mat))
            assert sg.is_uncountable and not sg.is_trivial


class TestMlConditions:
    def test_Zp_not_ml(self):
        for p in (2, 3, 5):
            rep = ml_conditions(tower_Zp(p))
            assert not rep.ml.holds
            assert rep.ml.certificate.kind == "non_ml"
            assert rep.ml.certificate.index == p

    def test_constant_ml(self):
        rep = ml_conditions(tower_Zp(1))
        assert rep.ml.holds
        assert rep.ml.certificate.kind == "stabilized"

    def test_hawaiian_ml_by_rule(self):
        rep = ml_conditions(make_streamed("hawaiian_h1"))
        assert rep.ml.holds
        assert "j(i) = i" in rep.ml.certificate.to_json()["witness"]

    def test_cluster_not_ml(self):
        rep = ml_conditions(make_streamed("cluster_h1", (2,)))
        assert not rep.ml.holds
        assert rep.ml.certificate.index == 2

    @pytest.mark.parametrize("family,params", [
        ("hawaiian_h1", ()), ("finite_sets", ()), ("cluster_h1", (2,))])
    def test_streamed_dual_ml_closed_form(self, family, params):
        # the level sampler the closed form replaced, as its oracle: at
        # every shift the composite from level i to level 0 has a kernel
        # of rank i, so the kernels never stabilize
        for s in range(4):
            t = shift(make_streamed(family, params), s)
            ft = truncate(t, 8)
            for i in range(9):
                assert hom_parts(ft.composite(i, 0))[0].group.rank == i
            dual = ml_conditions(t).dual_ml
            assert not dual.holds
            assert dual.certificate.to_json() == {
                "kind": "depth_limited", "depth": 8,
                "note": "kernels into level 0 grew at every checked depth"}

    @pytest.mark.parametrize("endo", [[[-1]], [[2, 1], [1, 1]]])
    def test_adic_quotient_dual_ml_unimodular(self, endo):
        # |det A| = 1: every level L/A^i L is 0, so the kernels into a
        # fixed level are all 0
        g = free_group(len(endo))
        t = adic_quotient_tower(g, hom_make(g, g, endo))
        assert all(t.group_at(i).is_trivial() for i in range(6))
        dual = ml_conditions(t).dual_ml
        assert dual.holds
        assert dual.certificate.to_json() == {
            "kind": "stabilized", "witness": "j(i) = i + 0",
            "verified_symbolically": True,
            "note": "|det A| = 1, so every level L/A^i L is 0"}

    def test_adic_quotient_dual_ml_fails_off_the_units(self):
        for endo, det in (([[2]], 2), ([[1, 1], [0, 2]], 2), ([[3, 0], [0, -1]], -3)):
            g = free_group(len(endo))
            t = adic_quotient_tower(g, hom_make(g, g, endo))
            assert t.group_at(3).order() == abs(det) ** 3
            dual = ml_conditions(t).dual_ml
            assert not dual.holds
            assert dual.certificate.to_json()["depth"] == 16

    def test_dual_ml_periodic_always(self):
        for mat in ([[2]], [[0]], [[2, 1], [0, 1]]):
            g = free_group(len(mat))
            assert ml_conditions(pure_tower(g, mat)).dual_ml.holds

    def test_virtually_ml_periodic_always(self):
        for mat in ([[2]], [[0]], [[6, 0], [0, 1]]):
            g = free_group(len(mat))
            assert ml_conditions(pure_tower(g, mat)).virtually_ml.holds

    def test_nearly_equals_ml(self):
        for mat in ([[2]], [[1]], [[3, 1], [0, 1]]):
            g = free_group(len(mat))
            rep = ml_conditions(pure_tower(g, mat))
            assert rep.nearly_ml.holds == rep.ml.holds

    def test_ml_iff_lim1_zero(self):
        mats = ([[1]], [[2]], [[0]], [[2, 1], [0, 1]], [[1, 1], [1, 0]],
                [[2, 0], [0, 3]], [[0, 1], [1, 0]], [[4, 2], [2, 4]])
        for mat in mats:
            g = free_group(len(mat))
            t = pure_tower(g, mat)
            assert ml_conditions(t).ml.holds == derived_limit(t).is_trivial

    def test_torsion_tower_always_ml(self):
        t = pure_tower(cyclic_group(8), [[2]])
        rep = ml_conditions(t)
        assert rep.ml.holds
        assert derived_limit(t).is_trivial

    def test_non_ml_stable_index_of_z8_plus_z(self):
        # T = Z/8 (+) Z, A = [[2, -1], [0, 6]]: the image chain indices are
        # 12, 12, 12, 6, 6, ..., so the stable index is 6 from level 3 on
        T = present(2, IntMatrix.from_rows([[8], [0]]))
        cert = ml_conditions(pure_tower(T, [[2, -1], [0, 6]])).ml.certificate
        assert cert.kind == "non_ml"
        assert (cert.index, cert.onset) == (6, 3)

    def test_non_ml_index_plateau_before_chain_end(self):
        # T = Z (+) Z/4, A = diag(5, 2): indices 10, 10, 5, 5, ...; the
        # first two agree, but the stable index is 5 from level 2 on
        T = present(2, IntMatrix.from_rows([[0], [4]]))
        cert = ml_conditions(pure_tower(T, [[5, 0], [0, 2]])).ml.certificate
        assert cert.kind == "non_ml"
        assert (cert.index, cert.onset) == (5, 2)

    def test_stabilized_offset_is_kernel_chain_step(self):
        # A = [[1, 0], [0, 0]]: im A = im A^2 = Z (+) 0, reached after one step
        cert = ml_conditions(pure_tower(Z2, [[1, 0], [0, 0]])).ml.certificate
        assert cert.kind == "stabilized" and cert.j_offset == 1

    def test_chain_index_is_the_pivot_product(self):
        # [Z^n : A Z^n + K_k] from one echelon form against lattice_index;
        # a singular A on a free part leaves A | K_0 of rank below n
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=47, trials=0)
        rng = random.Random(47)
        tails = [gen_tower(trial_rng(47, "ml_index", i), cfg, with_prefix=False)
                 for i in range(300)]
        for _ in range(100):
            n, r = rng.randint(1, 4), rng.randint(0, 3)
            B = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)])
            C = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)])
            A = B * C if r else IntMatrix.zero(n, n)
            tails.append(pure_tower(free_group(n), A))
        infinite = finite = 0
        for t in tails:
            A = t.tail_endo.matrix
            whole = IntMatrix.identity(A.rows)
            for K in kernel_chain(t.tail_group, t.tail_endo):
                want = lattice_index(A.hstack(K), whole)
                assert ambient_index(A.hstack(K)) == want, (A, K)
                infinite += want is None
                finite += want is not None and want > 1
        assert infinite >= 50 and finite >= 200


class TestShiftInvariance:
    def test_lim_and_lim1_shift_invariant(self):
        Z2t = cyclic_group(2)
        t = periodic_tower([Z2t], [], Z, hom_make(Z, Z, [[2]]),
                           splice=hom_make(Z, Z2t, [[1]]))
        for k in range(6):
            s = shift(t, k)
            assert limit(s).canonical_key() == limit(t).canonical_key()
            assert derived_limit(s).canonical_key() == derived_limit(t).canonical_key()


class TestBruteLim:
    def test_constant_Z2(self):
        ft = truncate(pure_tower(cyclic_group(2), [[1]]), 5)
        assert brute_lim(ft).smith_invariants == (0, [2])

    def test_Z4_doubling(self):
        ft = truncate(pure_tower(cyclic_group(4), [[2]]), 4)
        assert brute_lim(ft).is_trivial()

    def test_alternating_by_enumeration(self):
        Z2t, Z4t = cyclic_group(2), cyclic_group(4)
        groups = (Z2t, Z4t, Z2t, Z4t)
        bonds = (hom_make(Z4t, Z2t, [[1]]),   # reduction mod 2
                 hom_make(Z2t, Z4t, [[2]]),   # doubling
                 hom_make(Z4t, Z2t, [[1]]))
        ft = FiniteTower(groups, bonds)
        # independent oracle: walk every top element by hand
        values = set()
        for x3 in range(4):
            x2 = x3 % 2
            x1 = (2 * x2) % 4
            x0 = x1 % 2
            values.add(x0)
        assert values == {0}
        assert brute_lim(ft).is_trivial()

    def test_agrees_with_lim_on_periodic_torsion(self):
        t = pure_tower(cyclic_group(6), [[2]])
        deep = truncate(t, 8)
        lim_sg = limit(t)
        bl = brute_lim(deep)
        assert lim_sg.tag == "fg" and lim_sg.group.is_isomorphic(bl)

    def test_oracle_disagreement_is_caught(self, monkeypatch):
        # a value group of the wrong order raises, also under python -O
        monkeypatch.setattr(limits, "subquotient", lambda *args: Subquotient(
            cyclic_group(3), IntMatrix.from_columns(1, [])))
        with pytest.raises(InternalInconsistency, match="2 thread values"):
            brute_lim(truncate(pure_tower(cyclic_group(2), [[1]]), 5))

    def test_too_large_guard(self):
        big = cyclic_group(1 << 20)
        with pytest.raises(TooLarge):
            brute_lim(truncate(pure_tower(big, [[1]]), 1))


class TestSixTerm:
    def test_example_completion_ses(self):
        # (Z, x2) >-> (Z, id) ->> (Z/2^i): lim Q = Z_2, lim1 K = Z_2/Z
        ses = canonical_completion_ses(Z, hom_make(Z, Z, [[2]]))
        rep = six_term(ses)
        assert rep.lim_sub.is_trivial
        assert rep.lim_total.group.smith_invariants == (1, [])
        assert rep.lim_quot.tag == "completion"
        assert rep.lim_quot.render() == "Z_2"
        assert rep.lim1_sub.tag == "completion_quotient"
        assert rep.lim1_sub.render() == "Z_2/Z"
        assert rep.lim1_total.is_trivial and rep.lim1_quot.is_trivial
        verdicts = {j.position: j.verdict for j in rep.joints}
        assert verdicts["lim_sub"] == "verified"
        assert verdicts["lim_total"] == "verified"
        assert verdicts["lim_quot"] == "consistent"
        assert verdicts["lim1_total"] == "verified"
        assert verdicts["lim1_quot"] == "verified"

    def test_self_ses_collapses(self):
        t = pure_tower(Z, [[3]])
        zero = pure_tower(free_group(0), IntMatrix.from_columns(0, []))
        inj = hom_make(Z, Z, [[1]])
        sur = hom_make(Z, zero.tail_group, IntMatrix.zero(0, 1))
        rep = six_term(tower_ses(t, t, zero, inj, sur))
        assert rep.lim_sub.canonical_key() == rep.lim_total.canonical_key()
        assert rep.lim_quot.is_trivial
        assert rep.lim1_sub.canonical_key() == rep.lim1_total.canonical_key()

    def test_constant_torsion_ses(self):
        Z2t = cyclic_group(2)
        t = pure_tower(Z2t, [[1]])
        zero = pure_tower(free_group(0), IntMatrix.from_columns(0, []))
        inj = hom_make(Z2t, Z2t, [[1]])
        sur = hom_make(Z2t, zero.tail_group, IntMatrix.zero(0, 1))
        rep = six_term(tower_ses(t, t, zero, inj, sur))
        assert rep.lim_sub.group.smith_invariants == (0, [2])
        assert rep.lim_total.group.smith_invariants == (0, [2])
        assert all(v.is_trivial for v in
                   (rep.lim_quot, rep.lim1_sub, rep.lim1_total, rep.lim1_quot))

    def test_twisted_direct_sum(self):
        sub = pure_tower(Z, [[1]])
        total = pure_tower(Z2, [[1, 1], [0, 2]])
        quot = pure_tower(Z, [[2]])
        inj = hom_make(Z, Z2, [[1], [0]])
        sur = hom_make(Z2, Z, [[0, 1]])
        ses = tower_ses(sub, total, quot, inj, sur)
        rep = six_term(ses)
        assert rep.lim_sub.group.smith_invariants == (1, [])
        assert rep.lim_total.group.smith_invariants == (1, [])
        assert rep.lim_quot.is_trivial
        assert rep.lim1_sub.is_trivial
        assert rep.lim1_total.tag == "completion_quotient"
        assert rep.lim1_quot.tag == "completion_quotient"
        verdicts = {j.position: j.verdict for j in rep.joints}
        assert verdicts["lim_sub"] == "verified"
        assert verdicts["lim_total"] == "verified"
        assert verdicts["lim_quot"] == "verified"

    def test_non_canonical_connecting_map(self):
        # (Z, x2) >-> (Z^2, [[2, 1], [0, 3]]) ->> (Z, x3) is no completion
        # sequence; its delta is described, and names no function
        ses = tower_ses(pure_tower(Z, [[2]]), pure_tower(Z2, [[2, 1], [0, 3]]),
                        pure_tower(Z, [[3]]), hom_make(Z, Z2, [[1], [0]]),
                        hom_make(Z2, Z, [[0, 1]]))
        assert not ses.canonical_completion
        rep = six_term(ses)
        assert rep.connecting == (
            "delta sends a limit thread (q_i) of the quotient tower to the "
            "class of (g_i - bond(g_{i+1})) for any lifts g_i")
        assert "six_term" not in rep.connecting


class TestReductionPreservesLimits:
    def test_random_tails(self):
        import random as _random
        from towerlim.towers import reduce_to_images
        rng = _random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 3)
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            t = pure_tower(free_group(n), mat)
            r = reduce_to_images(t)
            assert limit(r).canonical_key() == limit(t).canonical_key()
            assert derived_limit(r).canonical_key() == derived_limit(t).canonical_key()


class TestComparator:
    def test_prime_spectra_distinct(self):
        a = derived_limit(tower_Zp(2))
        b = derived_limit(tower_Zp(3))
        assert compare_structured(a, b) == "distinct"

    def test_equal_keys(self):
        a = derived_limit(tower_Zp(2))
        b = derived_limit(pure_tower(Z, [[2]]))
        assert compare_structured(a, b) == "equal"

    def test_zero_vs_nonzero(self):
        assert compare_structured(StructuredGroup.zero(),
                                  derived_limit(tower_Zp(2))) == "distinct"

    def test_rank_one_vs_two_2adic(self):
        a = derived_limit(pure_tower(Z, [[2]]))
        b = derived_limit(pure_tower(Z2, [[2, 0], [0, 2]]))
        assert compare_structured(a, b) == "distinct"

    def test_root_of_two_and_two_have_equal_keys(self):
        # chi = x^2 - 2 has both roots of 2-valuation 1/2: c_2 = 0, as for 2I
        a = derived_limit(pure_tower(Z2, [[0, 2], [1, 0]]))
        b = derived_limit(pure_tower(Z2, [[2, 0], [0, 2]]))
        assert a.corank_profile == b.corank_profile == ((2, 0),)
        assert a.canonical_key() == b.canonical_key()
        assert compare_structured(a, b) == "equal"

    def test_coranks_match_jensen_ext_oracle(self):
        # With lim = 0, lim1 = Ext(G, Z) for G the colimit of the transposed
        # system (Jensen, LNM 254), so c_q = dim G/qG = rank of A^r mod q
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=0, trials=0, max_rank=4)
        checked = 0
        for seed in range(1, 5):
            for i in range(60):
                sg = derived_limit(gen_tower(trial_rng(seed, "jensen", i), cfg))
                if sg.tag != "completion_quotient":
                    continue
                power = sg.matrix ** sg.rank
                for q, c in sg.corank_profile:
                    assert c == rank_mod(power.data, q), (sg.matrix, q)
                    checked += 1
        assert checked >= 100


class TestTailAnalysis:
    def test_memoized_and_plain_analysis_agree(self, monkeypatch):
        from towerlim import limits
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=23, trials=0)
        towers = [gen_tower(trial_rng(23, "analysis", i), cfg) for i in range(100)]

        def reports():
            return [(limit(t).to_json(), derived_limit(t).to_json(),
                     ml_conditions(t).to_json()) for t in towers]

        limits._tail_analysis.cache_clear()
        memoized = reports()
        assert limits._tail_analysis.cache_info().hits >= len(towers)
        monkeypatch.setattr(limits, "_tail_analysis", limits._tail_analysis.__wrapped__)
        assert reports() == memoized

    def test_keyed_by_value(self):
        from towerlim import limits
        t = pure_tower(Z2, [[2, 1], [0, 1]])
        same = pure_tower(free_group(2), IntMatrix.from_rows([[2, 1], [0, 1]]))
        assert same is not t and same == t
        assert limits._tail_analysis(same.tail_group, same.tail_endo) \
            is limits._tail_analysis(t.tail_group, t.tail_endo)

    def test_shifts_share_one_record(self):
        from towerlim import limits
        Z2t = cyclic_group(2)
        t = periodic_tower([Z2t], [], Z2, hom_make(Z2, Z2, [[2, 1], [0, 3]]),
                           splice=hom_make(Z2, Z2t, [[1, 0]]))
        limits._tail_analysis.cache_clear()
        for k in range(4):
            s = shift(t, k)
            limit(s), derived_limit(s), ml_conditions(s)
        info = limits._tail_analysis.cache_info()
        assert info.misses == 1 and info.hits == 11


def _record_calls(monkeypatch, names):
    """Wrap every binding of the named functions in the loaded towerlim
    modules; each call appends its name to the list returned."""
    calls = []
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("towerlim."):
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    monkeypatch.setattr(mod, name, lambda *args, _fn=fn, _name=name:
                                        calls.append(_name) or _fn(*args))
    return calls


class TestOneAnalysisAnswersAll:
    """Every periodic answer is a property of the one TailAnalysis, so no
    second query of a tail recomputes a lattice, a factorization or a
    characteristic polynomial."""

    def test_second_queries_of_a_tail_and_its_shifts_compute_nothing(self, monkeypatch):
        # [[2, 1], [0, 1]] has a unit part and a non-unit quotient, so the
        # first queries reach snf, prime_factors and charpoly
        Z2t = cyclic_group(2)
        t = periodic_tower([Z2t], [], Z2, hom_make(Z2, Z2, [[2, 1], [0, 1]]),
                           splice=hom_make(Z2, Z2t, [[1, 0]]))
        shifts = [shift(t, k) for k in range(4)]
        queries = (limit, derived_limit, ml_conditions)
        limits._tail_analysis.cache_clear()
        calls = _record_calls(monkeypatch, ("snf", "prime_factors", "charpoly"))
        first = [q(t).to_json() for q in queries]
        assert {"snf", "prime_factors", "charpoly"} <= set(calls)
        del calls[:]
        for s in shifts:
            assert [q(s).to_json() for q in queries] == first
        assert calls == []

    def test_undecided_compare_pair_runs_snf_once_per_tower(self, monkeypatch):
        # compare reads lim1 of each tower twice; the snf of the unit
        # lattice N behind it runs once per tower
        a, b = pure_tower(Z2, [[2, 0], [0, 1]]), pure_tower(Z2, [[1, 0], [0, 2]])
        limits._tail_analysis.cache_clear()
        calls = []
        snf = limits.snf
        monkeypatch.setattr(limits, "snf", lambda N: calls.append(N) or snf(N))
        assert procat.compare_invariants(a, b, depth=0).kind == "undecided"
        assert len(calls) == 2


class TestUnitLatticeCertificate:
    def test_empty_lattice_on_unimodular_tail_is_caught(self, monkeypatch):
        from towerlim import limits
        limits._tail_analysis.cache_clear()
        monkeypatch.setattr(limits, "_unit_lattice",
                            lambda A: IntMatrix.from_columns(A.rows, []))
        with pytest.raises(limits.InternalInconsistency, match="stable image lattice"):
            limit(pure_tower(Z2, [[2, 1], [1, 1]]))

    def test_non_invariant_lattice_is_caught(self, monkeypatch):
        from towerlim import limits
        limits._tail_analysis.cache_clear()
        monkeypatch.setattr(limits, "_unit_lattice",
                            lambda A: IntMatrix.from_columns(A.rows, [[1, 0]]))
        with pytest.raises(limits.InternalInconsistency, match="not invariant"):
            limit(pure_tower(Z2, [[2, 1], [1, 1]]))


class TestMLReadsNoUnitLattice:
    def test_ml_answers_with_the_unit_lattice_refused(self, monkeypatch):
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=59, trials=0)
        towers = [gen_tower(trial_rng(59, "ml_unit", i), cfg) for i in range(80)]
        towers += [shift(t, k) for t in towers if t.prefix_len for k in (1, 3)]
        limits._tail_analysis.cache_clear()
        want = [ml_conditions(t).to_json() for t in towers]

        def refuse(A):
            raise AssertionError("the unit lattice was read")

        limits._tail_analysis.cache_clear()
        monkeypatch.setattr(limits, "_unit_lattice", refuse)
        assert [ml_conditions(t).to_json() for t in towers] == want
        for t in towers:
            with pytest.raises(AssertionError, match="unit lattice was read"):
                limit(t)
