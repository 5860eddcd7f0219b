import itertools
import random

import pytest

from towerlim import procat
from towerlim.cli import dispatch
from towerlim.exactlat import IntMatrix, cyclic_group, direct_sum, free_group, hom_make
from towerlim.procat import (
    Interleaving,
    chain_basis,
    chain_extends,
    chain_lattice,
    compare_invariants,
    find_interleaving,
    separating_invariant,
)
from towerlim.towerfile import parse
from towerlim.towers import TowerError, pure_tower, reduce_to_images

Z = free_group(1)


def tz(k):
    return pure_tower(Z, [[k]])


class TestFindInterleaving:
    def test_self_identity(self):
        cert = find_interleaving(tz(3), tz(3), depth=1)
        assert cert is not None
        assert cert.gap_forward == 1 and cert.gap_backward == 1

    def test_subsequence_4_vs_2(self):
        cert = find_interleaving(tz(4), tz(2), depth=4)
        assert cert is not None
        # a valid certificate must pair a deeper reindexing against the
        # slower tower, through gaps or offsets
        total_a = cert.gap_forward * cert.gap_backward + cert.offset_forward
        assert total_a >= 1
        assert any(abs(m.matrix.data[0][0]) > 0 for m in cert.forward_maps)

    def test_2_vs_3_absent(self):
        assert find_interleaving(tz(2), tz(3), depth=6) is None

    def test_torsion_self(self):
        t = pure_tower(cyclic_group(8), [[3]])
        assert find_interleaving(t, t, depth=1) is not None

    def test_rank_two_self(self):
        t = pure_tower(free_group(2), [[2, 1], [0, 1]])
        assert find_interleaving(t, t, depth=2) is not None


class TestPinnedCertificates:
    """The search order is fixed, so the first certificate is too.  Each
    holds levels 0..max(offsets) of chains that extend to every level."""

    def test_root_of_two_vs_two(self):
        # A^2 = 2I: no forward chain at gap 1 (A/2 has non-integral
        # eigenvalues), all of Hom at gap 2, where f_i = f_0; the first
        # invertible f_0 of the enumeration is the swap, and g_0 = f_0^-1,
        # with g_j = A^j g_0
        Z2 = free_group(2)
        cert = find_interleaving(pure_tower(Z2, [[0, 2], [1, 0]]),
                                 pure_tower(Z2, [[2, 0], [0, 2]]), depth=2)
        assert cert.to_json() == {
            "gap_forward": 2, "gap_backward": 1,
            "offset_forward": 0, "offset_backward": 0,
            "forward": [[[0, 1], [1, 0]]],
            "backward": [[[0, 1], [1, 0]]],
            "checked_levels": 0,
        }

    def test_4_vs_2(self):
        # f_(i+1) = 2 f_i at gap 1; the backward chain needs gap 2 (g_j = g_0)
        cert = find_interleaving(tz(4), tz(2), depth=4)
        assert cert.to_json() == {
            "gap_forward": 1, "gap_backward": 2,
            "offset_forward": 0, "offset_backward": 0,
            "forward": [[[1]]], "backward": [[[1]]],
            "checked_levels": 0,
        }

    def test_diag_2_3_vs_2_5_absent(self):
        Z2 = free_group(2)
        truncated = []
        assert find_interleaving(pure_tower(Z2, [[2, 0], [0, 3]]),
                                 pure_tower(Z2, [[2, 0], [0, 5]]), 1,
                                 truncated) is None
        assert truncated == []


class TestCandidateCap:
    def test_enumeration_order(self):
        assert list(procat._enumerate_small(2, 1)) == [
            (0, 0), (0, 1), (0, -1), (1, 0), (1, 1), (1, -1),
            (-1, 0), (-1, 1), (-1, -1)]
        assert list(procat._enumerate_small(0, 2)) == [()]

    def test_capped_cells_are_reported(self, monkeypatch):
        # both chain lattices of the triangular pair have dimension 2 at
        # gap 1, so a cap of 1 cuts every cell short
        monkeypatch.setattr(procat, "_CANDIDATE_CAP", 1)
        truncated = []
        assert find_interleaving(*_triangular_pair(), 1, truncated) is None
        assert truncated == [(1, 1, c1, c2) for c1 in (0, 1) for c2 in (0, 1)]

    def test_uncapped_search_reports_nothing(self):
        truncated = []
        assert find_interleaving(*_triangular_pair(), 1, truncated) is None
        assert truncated == []

    def test_cli_warns_when_cut_short(self, monkeypatch, tmp_path):
        path = tmp_path / "pair.tower"
        path.write_text(_PAIR_FILE)
        # the triangular pair agrees on lim and lim1, so the CLI searches
        argv = ["interleave", str(path), "--a", "up", "--b", "down", "--depth", "1"]
        code, report, text = dispatch(argv)
        assert (code, report["warnings"]) == (0, [])
        assert text == "absent (searched to depth 1)"
        monkeypatch.setattr(procat, "_CANDIDATE_CAP", 1)
        code, report, text = dispatch(argv)
        assert code == 0 and not report["result"]["found"]
        assert report["warnings"][0] == (
            "search cut short by the candidate cap in cell gaps (1, 1) offsets (0, 0)")
        assert len(report["warnings"]) == 4
        assert text == "not found (searched to depth 1, 4 cells cut short)"
        # lim1 tells (Z, 2) from (Z, 3): answered without a search, so
        # the cap cannot cut it short
        argv = ["interleave", str(path), "--a", "two", "--b", "three", "--depth", "1"]
        code, report, text = dispatch(argv)
        reason = "lim1 invariants differ: Z_2/Z vs Z_3/Z"
        assert (code, report["warnings"]) == (0, [])
        assert report["result"] == {"found": False, "reason": reason}
        assert text == "absent (no interleaving at any depth: %s)" % reason


def _triangular_pair():
    """Upper triangular maps with swapped diagonals: lim and lim1 agree,
    both chain lattices have dimension 2 at gap 1, and no certificate
    exists at depth 1."""
    Z2 = free_group(2)
    return (pure_tower(Z2, [[-2, -1], [0, 3]]), pure_tower(Z2, [[3, -2], [0, 2]]))


_PAIR_FILE = ("[group Zg]\ngenerators = 1\n[group Z2g]\ngenerators = 2\n"
              "[map two]\nsource = Zg\ntarget = Zg\nmatrix = [2]\n"
              "[map up]\nsource = Z2g\ntarget = Z2g\nmatrix = [-2 -1; 0 3]\n"
              "[map down]\nsource = Z2g\ntarget = Z2g\nmatrix = [3 -2; 0 2]\n"
              "[map three]\nsource = Zg\ntarget = Zg\nmatrix = [3]\n"
              "[map four]\nsource = Zg\ntarget = Zg\nmatrix = [4]\n"
              "[tower two]\ntail_group = Zg\ntail_endo = two\n"
              "[tower three]\ntail_group = Zg\ntail_endo = three\n"
              "[tower four]\ntail_group = Zg\ntail_endo = four\n"
              "[tower up]\ntail_group = Z2g\ntail_endo = up\n"
              "[tower down]\ntail_group = Z2g\ntail_endo = down\n")


def _naive_rows(A, B, ga, gb, c1, c2, fs, g_chains):
    """The level-0 composite system g_0 f_c2 = A^(ga*c2 + c1),
    f_0 g_c1 = B^(gb*c1 + c2) built from the combined f-chain by matrix
    products, one entry at a time."""
    TA, MA = A.tail_group, A.tail_endo
    TB, MB = B.tail_group, B.tail_endo
    cond_rows, rhs = [], []
    power_a = MA.matrix ** (ga * c2 + c1)
    for r in range(TA.generators):
        for c in range(TA.generators):
            cond_rows.append(([(ch[0] * fs[c2]).data[r][c] for ch in g_chains],
                              ("A", r, c)))
            rhs.append(power_a.data[r][c])
    power_b = MB.matrix ** (gb * c1 + c2)
    for r in range(TB.generators):
        for c in range(TB.generators):
            cond_rows.append(([(fs[0] * ch[c1]).data[r][c] for ch in g_chains],
                              ("B", r, c)))
            rhs.append(power_b.data[r][c])
    relA, relB = TA.relations, TB.relations
    extraA = relA.cols * TA.generators
    extraB = relB.cols * TB.generators
    rows = []
    for row, (side, r, c) in cond_rows:
        full = list(row) + [0] * (extraA + extraB)
        if side == "A":
            for k in range(relA.cols):
                full[len(g_chains) + k * TA.generators + c] = relA.data[r][k]
        else:
            for k in range(relB.cols):
                full[len(g_chains) + extraA + k * TB.generators + c] = relB.data[r][k]
        rows.append(full)
    return rows, rhs


class TestCompositeSystem:
    def test_cached_rows_match_naive_products(self):
        rng = random.Random(20081407)
        TA = direct_sum(free_group(1), cyclic_group(4))
        TB = direct_sum(cyclic_group(6), free_group(2))

        def rand(rows, cols):
            return IntMatrix(rows, cols, [[rng.randint(-3, 3) for _ in range(cols)]
                                          for _ in range(rows)])

        for trial in range(6):
            a = pure_tower(TA, [[rng.randint(-3, 3), 0],
                                [rng.randint(-3, 3), rng.randint(-3, 3)]])
            b = pure_tower(TB, [[rng.randint(-3, 3)] + [rng.randint(-3, 3)
                                                         for _ in range(2)]]
                           + [[0] + [rng.randint(-3, 3) for _ in range(2)]
                              for _ in range(2)])
            A, B = (a, b) if trial % 2 else (b, a)
            nA, nB = A.tail_group.generators, B.tail_group.generators
            ga, gb = rng.randint(1, 2), rng.randint(1, 2)
            depth = 3
            f_chains = [[rand(nB, nA) for _ in range(depth + 1)]
                        for _ in range(rng.randint(1, 3))]
            g_chains = [[rand(nA, nB) for _ in range(depth + 1)]
                        for _ in range(rng.randint(1, 3))]
            system = procat._CompositeSystem(procat._SearchTables(A, B), ga, gb,
                                             f_chains, g_chains)
            for c1 in range(depth + 1):
                for c2 in range(depth + 1):
                    blocks, target = system.cell(c1, c2)
                    for _ in range(3):
                        coeffs = tuple(rng.randint(-2, 2) for _ in f_chains)
                        fs = procat._combine(f_chains, coeffs, depth + 1)
                        rows, rhs = _naive_rows(A, B, ga, gb, c1, c2, fs, g_chains)
                        assert procat._rows(blocks, coeffs) == rows
                        assert target.column(0) == rhs


class TestModularRejection:
    """The residue-class filter of `_search_cell` only drops candidates
    the exact solve would reject, so the first certificate is unchanged."""

    def test_solvable_mod_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(300):
            p = rng.choice((2, 3, 5))
            n_rows, n_cols = rng.randint(1, 4), rng.randint(0, 3)
            rows = [[rng.randint(-7, 7) for _ in range(n_cols)] for _ in range(n_rows)]
            rhs = [rng.randint(-7, 7) for _ in range(n_rows)]
            brute = any(all((sum(a * z for a, z in zip(row, zs)) - t) % p == 0
                            for row, t in zip(rows, rhs))
                        for zs in itertools.product(range(p), repeat=n_cols))
            assert procat._solvable_mod(rows, rhs, p) == brute

    def test_residue_class_decides_like_the_candidate(self):
        # M(x) mod p depends only on x mod p, so the memoized verdict of
        # the class must be the verdict of the candidate itself
        rng = random.Random(1807)
        a, b = tz(3), tz(-5)
        seen = set()
        for _ in range(40):
            # chains of one level: the cell (0, 0) holds the two conditions
            # g_0 f_0 = 1 and f_0 g_0 = 1, two rows in one or two unknowns
            f_chains = [[IntMatrix(1, 1, [[rng.randint(-4, 4)]])]
                        for _ in range(rng.randint(2, 3))]
            g_chains = [[IntMatrix(1, 1, [[rng.randint(-4, 4)]])]
                        for _ in range(rng.randint(1, 2))]
            system = procat._CompositeSystem(procat._SearchTables(a, b), 1, 1,
                                             f_chains, g_chains)
            blocks, target = system.cell(0, 0)
            rhs = target.column(0)
            memo = {}
            for coeffs in procat._candidates(len(f_chains))[0]:
                for p in (2, 3, 5):
                    want = procat._solvable_mod(procat._rows(blocks, coeffs), rhs, p)
                    assert procat._consistent_class(memo, blocks, rhs, p, coeffs) == want
                    seen.add((p, want))
        assert len(seen) == 6

    def test_search_primes(self):
        A, B = (reduce_to_images(pure_tower(free_group(2), m))
                for m in ([[0, 2], [1, 0]], [[2, 0], [0, 2]]))
        assert procat._search_primes(A, B) == (2,)
        assert procat._search_primes(A, tz(15)) == (2, 3, 5)
        singular = pure_tower(free_group(2), [[1, 1], [1, 1]])
        assert procat._search_primes(singular, tz(3)) == ()
        torsion = pure_tower(direct_sum(Z, cyclic_group(12)), [[3, 0], [1, 5]])
        assert procat._search_primes(torsion, tz(1)) == (2, 3, 5)

    def test_primes_are_found_once_per_search(self, monkeypatch):
        # the 16 gap pairs of a depth-4 search share one prime set, the
        # primes of det A det B = 60
        calls = []
        factor = procat.prime_factors
        monkeypatch.setattr(procat, "prime_factors", lambda n: calls.append(n) or factor(n))
        Z2 = free_group(2)
        assert find_interleaving(pure_tower(Z2, [[2, 0], [0, 3]]),
                                 pure_tower(Z2, [[2, 0], [0, 5]]), depth=4) is None
        assert calls == [60]

    def test_search_without_a_system_finds_no_primes(self, monkeypatch):
        # no chain from Z(x2) to Z(x3) at any gap, so no composite system is
        # built and the primes are never needed
        calls = []
        factor = procat.prime_factors
        monkeypatch.setattr(procat, "prime_factors", lambda n: calls.append(n) or factor(n))
        assert find_interleaving(tz(2), tz(3), depth=3) is None
        assert calls == []

    def test_filter_keeps_the_first_certificate(self, monkeypatch):
        Z2 = free_group(2)
        pairs = [(tz(p), tz(q), 3) for p, q in ((2, 4), (4, 2), (2, 3), (3, 9),
                                                 (2, 8), (-2, 4), (6, 36), (6, 4))]
        pairs += [(pure_tower(Z2, a), pure_tower(Z2, b), d) for a, b, d in (
            ([[0, 2], [1, 0]], [[2, 0], [0, 2]], 2),             # A^2 = 2I
            ([[2, 0], [0, 3]], [[2, 0], [0, 5]], 1),
            ([[-1, 2], [-2, -2]], [[-3, -1], [5, 1]], 1),
            ([[-1, 2], [-2, -2]], [[-3, 3], [-2, 0]], 2),        # conjugates
            ([[2, 1], [0, 3]], [[3, 0], [1, 2]], 1),
            ([[2, 1], [0, 1]], [[2, 1], [0, 1]], 2))]
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=11, trials=0, max_rank=2, entry_bound=3)
        corpus = [gen_tower(trial_rng(11, "procat", i), cfg, with_prefix=False)
                  for i in range(12)]
        pairs += [(t, u, 1, 300) for t, u in zip(corpus, corpus[1:] + corpus[:1])]
        # torsion tails: (T, A) against (T, A^2) and against another map;
        # a cap of 60 candidates keeps every cell short (both searches see
        # the same capped candidate list)
        full_cap = procat._CANDIDATE_CAP
        rng = random.Random(20081018)
        for T in (cyclic_group(4), cyclic_group(8), direct_sum(Z, cyclic_group(4))):
            for _ in range(3):
                if T.generators == 1:
                    A, B = ([[rng.choice((1, 2, 3, 5))]] for _ in range(2))
                else:
                    A, B = ([[rng.choice((-3, -2, 2, 3)), 0],
                             [rng.randint(-3, 3), rng.choice((1, 2, 3))]]
                            for _ in range(2))
                A2 = [list(r) for r in (IntMatrix.from_rows(A) ** 2).data]
                for other in (A2, B):
                    pairs.append((pure_tower(T, A), pure_tower(T, other), 1, 60))

        def search_all():
            out = []
            for a, b, depth, *cap in pairs:
                monkeypatch.setattr(procat, "_CANDIDATE_CAP", cap[0] if cap else full_cap)
                cert = find_interleaving(a, b, depth)
                out.append(None if cert is None else cert.to_json())
            return out

        filtered = search_all()
        monkeypatch.setattr(procat, "_search_primes", lambda A, B: ())
        assert search_all() == filtered
        assert sum(map(bool, filtered)) >= 10 and not all(filtered)

    def test_solve_count_of_root_of_two_pair(self, monkeypatch):
        # the first cell, gaps (2, 1) and offsets (0, 0), asks for f_0 in
        # GL_2(Z) with g_0 = f_0^-1; the 11 candidates before the swap are
        # singular modulo 2, the one prime of det A det B = -8, so the
        # filter spares their 11 exact solves
        calls = []
        solve = procat.solve_columns
        monkeypatch.setattr(procat, "solve_columns",
                            lambda *args: calls.append(1) or solve(*args))
        Z2 = free_group(2)
        pair = (pure_tower(Z2, [[0, 2], [1, 0]]), pure_tower(Z2, [[2, 0], [0, 2]]))
        cert = find_interleaving(*pair, depth=2)
        filtered = len(calls)
        monkeypatch.setattr(procat, "_search_primes", lambda A, B: ())
        assert find_interleaving(*pair, depth=2) == cert
        assert len(calls) - 2 * filtered == 11


class TestInvariantsFirst:
    def test_cli_does_not_search_separated_pairs(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("searched a pair that lim or lim1 separates")

        monkeypatch.setattr(procat, "find_interleaving", refuse)
        path = tmp_path / "pairs.tower"
        path.write_text("[group Zg]\ngenerators = 1\n[group Z2g]\ngenerators = 2\n"
                        "[group T]\ngenerators = 1\nrelations = [2]\n"
                        "[map two]\nsource = Zg\ntarget = Zg\nmatrix = [2]\n"
                        "[map three]\nsource = Zg\ntarget = Zg\nmatrix = [3]\n"
                        "[map one]\nsource = Zg\ntarget = Zg\nmatrix = [1]\n"
                        "[map t1]\nsource = T\ntarget = T\nmatrix = [1]\n"
                        "[map d23]\nsource = Z2g\ntarget = Z2g\nmatrix = [2 0; 0 3]\n"
                        "[map d25]\nsource = Z2g\ntarget = Z2g\nmatrix = [2 0; 0 5]\n"
                        "[tower two]\ntail_group = Zg\ntail_endo = two\n"
                        "[tower three]\ntail_group = Zg\ntail_endo = three\n"
                        "[tower z]\ntail_group = Zg\ntail_endo = one\n"
                        "[tower z2]\ntail_group = T\ntail_endo = t1\n"
                        "[tower d23]\ntail_group = Z2g\ntail_endo = d23\n"
                        "[tower d25]\ntail_group = Z2g\ntail_endo = d25\n")
        towers = parse(path.read_bytes()).towers
        for a, b, reason in (
                ("two", "three", "lim1 invariants differ: Z_2/Z vs Z_3/Z"),
                ("z", "z2", "lim invariants differ: Z vs Z/2"),
                ("d23", "d25", "lim1 invariants differ: "
                               "Lambda_A(Z^2)/Z^2 vs Lambda_A(Z^2)/Z^2 (c_3 = 1 vs 2)")):
            code, report, text = dispatch(["interleave", str(path), "--a", a,
                                           "--b", b, "--depth", "4"])
            assert code == 0
            assert report["result"] == {"found": False, "reason": reason}
            assert text == "absent (no interleaving at any depth: %s)" % reason
            assert compare_invariants(towers[a], towers[b], depth=0).reason == reason

    def test_diag_pair_reason_names_the_corank(self, tmp_path):
        # diag(2,3) and diag(2,5) both render Lambda_A(Z^2)/Z^2; the reason
        # adds the first prime whose coranks differ (c_3 is the full rank 2
        # away from det = 10)
        path = tmp_path / "diag.tower"
        path.write_text("[group Z2g]\ngenerators = 2\n"
                        "[map d23]\nsource = Z2g\ntarget = Z2g\nmatrix = [2 0; 0 3]\n"
                        "[map d25]\nsource = Z2g\ntarget = Z2g\nmatrix = [2 0; 0 5]\n"
                        "[tower d23]\ntail_group = Z2g\ntail_endo = d23\n"
                        "[tower d25]\ntail_group = Z2g\ntail_endo = d25\n")
        lim1 = "lim1 invariants differ: Lambda_A(Z^2)/Z^2 vs Lambda_A(Z^2)/Z^2"
        for a, b, coranks in (("d23", "d25", "1 vs 2"), ("d25", "d23", "2 vs 1")):
            reason = "%s (c_3 = %s)" % (lim1, coranks)
            argv = [str(path), "--a", a, "--b", b, "--depth", "1"]
            assert dispatch(["compare"] + argv)[2] == "not_isomorphic: " + reason
            assert dispatch(["interleave"] + argv)[2] == (
                "absent (no interleaving at any depth: %s)" % reason)

    def test_streamed_input_still_reaches_the_search(self, tmp_path):
        path = tmp_path / "mixed.tower"
        path.write_text("[group Zg]\ngenerators = 1\n"
                        "[map two]\nsource = Zg\ntarget = Zg\nmatrix = [2]\n"
                        "[tower p]\ntail_group = Zg\ntail_endo = two\n"
                        "[tower h]\nfamily = hawaiian_h1\n")
        with pytest.raises(TowerError, match="find_interleaving"):
            dispatch(["interleave", str(path), "--a", "h", "--b", "p"])

    def test_separating_invariant_agrees_with_compare(self):
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=7, trials=0, max_rank=2, entry_bound=3)
        towers = [gen_tower(trial_rng(7, "procat", i), cfg, with_prefix=False)
                  for i in range(16)]
        for a, b in zip(towers, towers[1:]):
            reason = separating_invariant(a, b)
            verdict = compare_invariants(a, b, depth=0)
            assert (verdict.kind == "not_isomorphic") == (reason is not None)
            if reason is not None:
                assert verdict.reason == reason


class TestCompareInvariants:
    def test_2_vs_3_not_isomorphic(self):
        v = compare_invariants(tz(2), tz(3))
        assert v.kind == "not_isomorphic"
        assert "lim1" in v.reason

    def test_2_vs_4_isomorphic(self):
        v = compare_invariants(tz(2), tz(4), depth=4)
        assert v.kind == "isomorphic"
        assert v.witness is not None

    def test_constant_vs_torsion(self):
        v = compare_invariants(tz(1), pure_tower(cyclic_group(2), [[1]]))
        assert v.kind == "not_isomorphic"
        assert "lim invariants" in v.reason

    def test_found_implies_never_not_isomorphic(self):
        for p, q in ((2, 4), (2, 8), (3, 9)):
            cert = find_interleaving(tz(p), tz(q), depth=4)
            if cert is not None:
                assert compare_invariants(tz(p), tz(q)).kind != "not_isomorphic"

    def test_companions_of_distinct_quadratic_fields(self):
        # x^2+x+2 and x^2+x-4: lim 0 and lim1 key c_2 = 1 on both sides,
        # but the towers are not pro-isomorphic (Q(sqrt -7) is not
        # Q(sqrt 17)); no chain of maps exists either way at gaps <= 4
        a = pure_tower(free_group(2), [[0, -2], [1, -1]])
        b = pure_tower(free_group(2), [[0, 4], [1, -1]])
        for g in range(1, 5):
            assert chain_lattice(a.tail_endo.matrix ** g, b.tail_endo.matrix) == []
            assert chain_lattice(b.tail_endo.matrix ** g, a.tail_endo.matrix) == []
        for depth in (0, 2, 4):
            assert compare_invariants(a, b, depth=depth).kind != "isomorphic"
            assert compare_invariants(b, a, depth=depth).kind != "isomorphic"

    def test_shift_invariance_of_search(self):
        from towerlim.towers import shift, periodic_tower
        Z2 = cyclic_group(2)
        t = periodic_tower([Z2], [], Z, hom_make(Z, Z, [[4]]),
                           splice=hom_make(Z, Z2, [[1]]))
        a = find_interleaving(t, tz(2), depth=4)
        b = find_interleaving(shift(t, 1), tz(2), depth=5)
        assert (a is None) == (b is None)

    def test_root_of_two_vs_two_not_separated(self):
        # A^2 = 2I, so the towers are pro-isomorphic (Mardesic-Segal) and a
        # certificate exists at gaps (2, 1); the pinned one is in
        # TestPinnedCertificates
        Z2 = free_group(2)
        a = pure_tower(Z2, [[0, 2], [1, 0]])
        b = pure_tower(Z2, [[2, 0], [0, 2]])
        assert find_interleaving(a, b, depth=2) is not None
        assert compare_invariants(a, b, depth=2).kind != "not_isomorphic"


class TestCorpusCoherence:
    def test_self_interleaving_and_no_false_separation(self):
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=11, trials=0, max_rank=2, entry_bound=3)
        for i in range(25):
            t = gen_tower(trial_rng(11, "procat", i), cfg, with_prefix=False)
            cert = find_interleaving(t, t, depth=1)
            assert cert is not None
            assert compare_invariants(t, t, depth=1).kind != "not_isomorphic"


class TestTorsionChains:
    """Between tails with torsion the level-0 maps whose chains extend are
    the free chain lattice plus every map into the target's torsion."""

    T = direct_sum(Z, cyclic_group(4))

    def test_power_pair_certificate(self):
        # (T, A) against (T, A^2): a certificate at gaps (2, 1), with no
        # cell cut short by the candidate cap
        a, b = pure_tower(self.T, [[2, 0], [0, 1]]), pure_tower(self.T, [[4, 0], [0, 1]])
        truncated = []
        cert = find_interleaving(a, b, 2, truncated)
        assert truncated == []
        assert (cert.gap_forward, cert.gap_backward) == (2, 1)
        assert procat._verify_certificate(reduce_to_images(a), reduce_to_images(b), cert)

    def test_absent_pair_is_exhaustive(self):
        a = pure_tower(self.T, [[-3, 0], [-1, 1]])
        b = pure_tower(self.T, [[9, 0], [2, 1]])
        truncated = []
        assert find_interleaving(a, b, 1, truncated) is None
        assert truncated == []

    def test_basis_of_reduced_torsion_tails(self):
        # reduced Z (+) Z/4 has the torsion coordinate first: relations
        # ((4,), (0,)); from Z/2 (+) Z the torsion row takes 2 e_00 and e_01
        A = reduce_to_images(pure_tower(self.T, [[2, 0], [0, 1]]))
        S = direct_sum(cyclic_group(2), Z)
        basis = chain_basis(S, A.tail_group, IntMatrix.from_rows([[1, 0], [0, 4]]),
                            A.tail_endo.matrix)
        assert basis == [IntMatrix.from_rows(m) for m in (
            [[0, 0], [0, 1]], [[2, 0], [0, 0]], [[0, 1], [0, 0]])]

    def test_free_tails_have_the_chain_lattice(self):
        for src, tgt in (([[0, 2], [1, 0]], [[2, 0], [0, 2]]),
                         ([[-2, -1], [0, 3]], [[3, -2], [0, 2]]),
                         ([[2]], [[4]]), ([[3]], [[2, 0], [0, 5]])):
            a = pure_tower(free_group(len(src)), src)
            b = pure_tower(free_group(len(tgt)), tgt)
            for g in (1, 2):
                power, bond = a.tail_endo.matrix ** g, b.tail_endo.matrix
                lattice = chain_lattice(power, bond)
                chains = procat._chain_basis(a, b, power, 3)
                assert [chain[0] for chain in chains] == lattice
                for chain in chains:
                    assert all(bond * chain[i + 1] == chain[i] * power for i in range(3))


class TestSoundCertificates:
    """Every certificate's chains extend to every level."""

    def test_window_certificate_between_separated_towers(self):
        # lim is 0 against Z (B fixes e1 up to sign), so no interleaving
        # exists; a search that checked its chains only on a finite window
        # returned one whose maps stop being integral just past it (found
        # by the compare_vs_interleave suite)
        Z2 = free_group(2)
        a = pure_tower(Z2, [[2, -1], [-2, -3]])
        b = pure_tower(Z2, [[-1, 3], [0, 2]])
        assert compare_invariants(a, b, depth=0).kind == "not_isomorphic"
        assert find_interleaving(a, b, depth=2) is None

    def test_chain_lattice_dimensions(self):
        # dim Lambda_g at g = 1, 2 for three pairs, inside Hom of dimension
        # 4, 1 and 4
        Z2 = free_group(2)
        cases = (([[-1, 3], [0, 2]], [[2, -1], [-2, -3]], (0, 0)),
                 ([[2]], [[4]], (0, 1)),
                 ([[0, 2], [1, 0]], [[2, 0], [0, 2]], (0, 4)))
        for src, tgt, dims in cases:
            A, B = IntMatrix.from_rows(src), IntMatrix.from_rows(tgt)
            assert tuple(len(chain_lattice(A ** g, B)) for g in (1, 2)) == dims
        # the basis holds maps of shape (target rank) x (source rank): from
        # (Z^3, 1) into (Z, 1) it is all of Hom
        assert chain_lattice(IntMatrix.identity(3), IntMatrix.identity(1)) == [
            IntMatrix(1, 3, [[1, 0, 0]]), IntMatrix(1, 3, [[0, 1, 0]]),
            IntMatrix(1, 3, [[0, 0, 1]])]
        assert chain_lattice(IntMatrix.identity(2), IntMatrix.zero(0, 0)) == []

    def test_extension_check(self):
        Z1 = free_group(1)
        two, four = (hom_make(Z1, Z1, [[k]]) for k in (2, 4))
        # f_(i+1) = f_i 4 / 2 extends; f_(i+1) = f_i 2 / 4 halves
        assert chain_extends((hom_make(Z1, Z1, [[1]]),), two, IntMatrix.from_rows([[4]]))
        assert not chain_extends((hom_make(Z1, Z1, [[16]]),), four,
                                 IntMatrix.from_rows([[2]]))
        # the backward chain 16, 8, 4, 2, 1 of a window certificate
        window = tuple(hom_make(Z1, Z1, [[16 >> i]]) for i in range(5))
        assert not chain_extends(window, four, IntMatrix.from_rows([[2]]))
        # stored maps that break a square
        assert not chain_extends((hom_make(Z1, Z1, [[1]]), hom_make(Z1, Z1, [[3]])),
                                 two, IntMatrix.from_rows([[4]]))
        # torsion: into Z/8 with bond 3, every chain extends (3 is a unit)
        Z8 = cyclic_group(8)
        three = hom_make(Z8, Z8, [[3]])
        assert chain_extends((hom_make(Z1, Z8, [[1]]),), three, IntMatrix.from_rows([[2]]))
        # the zero map
        assert chain_extends((hom_make(Z1, Z1, [[0]]),), four, IntMatrix.from_rows([[2]]))

    def test_verifier_checks_both_composites(self):
        # (Z, 1) is a retract of (Z^2, 1): g_0 f_0 = 1 holds, f_0 g_0 = 1 not
        Z1, Z2 = free_group(1), free_group(2)
        a, b = tz(1), pure_tower(Z2, [[1, 0], [0, 1]])
        f, g = hom_make(Z1, Z2, [[1], [0]]), hom_make(Z2, Z1, [[1, 0]])
        assert not procat._verify_certificate(a, b, Interleaving(1, 1, 0, 0, (f,), (g,), 0))
        assert not procat._verify_certificate(b, a, Interleaving(1, 1, 0, 0, (g,), (f,), 0))
        one = hom_make(Z1, Z1, [[1]])
        assert procat._verify_certificate(a, a, Interleaving(1, 1, 0, 0, (one,), (one,), 0))

    def test_search_returns_only_extending_chains(self):
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=5, trials=0, max_rank=2, entry_bound=3)
        corpus = [gen_tower(trial_rng(5, "procat", i), cfg, with_prefix=False)
                  for i in range(10)]
        Z2 = free_group(2)
        free = [tz(2), tz(4), tz(8), tz(-2), pure_tower(Z2, [[0, 2], [1, 0]]),
                pure_tower(Z2, [[2, 0], [0, 2]]), pure_tower(Z2, [[-2, 0], [0, -2]])]
        pairs = [(a, b, 1) for a in corpus for b in corpus]
        pairs += [(a, b, 3) for a in free for b in free]
        found = 0
        for a, b, depth in pairs:
            A, B = reduce_to_images(a), reduce_to_images(b)
            cert = find_interleaving(A, B, depth)
            if cert is None:
                continue
            found += 1
            assert cert.checked_levels == 0
            assert len(cert.forward_maps) == max(cert.offset_forward,
                                                 cert.offset_backward) + 1
            assert chain_extends(cert.forward_maps, B.tail_endo,
                                 A.tail_endo.matrix ** cert.gap_forward)
            assert chain_extends(cert.backward_maps, A.tail_endo,
                                 B.tail_endo.matrix ** cert.gap_backward)
        assert found >= 40
