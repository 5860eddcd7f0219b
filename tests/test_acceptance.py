"""Acceptance criteria, one test per criterion, with stated budgets.

Each test prints one pass line (run pytest -s to see them).  Tolerances
are exact: every asserted value is an exact integer invariant, a tag, or
a rendered descriptor; the only numeric bounds are the wall-clock
budgets stated alongside each criterion.
"""

import itertools
import os
import random
import time

import pytest

from towerlim.cli import dispatch
from towerlim.exactlat import IntMatrix, free_group, hom_make, lattice_canon, snf
from towerlim.lab import LabConfig, SUITE_NAMES, run_suite
from towerlim.limits import derived_limit, limit, six_term
from towerlim.procat import chain_extends, compare_invariants, find_interleaving
from towerlim.shape import cluster, make_example, steenrod, telescope
from towerlim.simplicial import homology_invariants
from towerlim.structured import compare_structured
from towerlim.towers import canonical_completion_ses, pure_tower

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fixture(name):
    return os.path.join(ROOT, "towers", name)


def _report(criterion, elapsed, budget):
    print("ACCEPTANCE %-38s PASS (%.2fs, budget %gs)"
          % (criterion, elapsed, budget))


def test_criterion_1_derived_limit_of_multiplication_towers():
    start = time.perf_counter()
    Z = free_group(1)
    for p in (2, 3, 5):
        t = pure_tower(Z, [[p]])
        sg = derived_limit(t)
        assert sg.tag == "completion_quotient"
        assert sg.rank == 1
        assert sg.matrix.data == ((p,),)
        assert not sg.is_trivial
        assert sg.is_uncountable
        assert sg.render() == "Z_%d/Z" % p
        assert limit(t).is_trivial
        code, report, text = dispatch(["lim1", _fixture("solenoid_%d.tower" % p)])
        assert code == 0
        assert report["result"]["tag"] == "completion_quotient"
        assert "Z_%d/Z" % p in text and "uncountable" in text
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1: lim1(Z, xp) = Z_p/Z, lim = 0", elapsed, 1.0)


def test_criterion_2_solenoid_degree0_descriptor():
    start = time.perf_counter()
    for p in (2, 3):
        code, report, _ = dispatch(
            ["steenrod", _fixture("solenoid_%d.tower" % p),
             "--degree", "0", "--reduced"])
        assert code == 0
        res = report["result"]
        assert res["lim1_part"]["render"] == "Z_%d/Z" % p
        assert res["lim_part"]["is_trivial"]
        assert res["splits"] == "yes"
        code, report, _ = dispatch(
            ["steenrod", _fixture("solenoid_%d.tower" % p), "--degree", "0"])
        assert report["result"]["render"] == "Z (+) Z_%d/Z" % p
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("2: solenoid H_0 = Z (+) Z_p/Z, splits", elapsed, 5.0)


def test_criterion_3_null_sequence_degree0():
    start = time.perf_counter()
    d = steenrod(make_example("null_sequence"), 0)
    assert d.lim_part.tag == "full_product"
    assert d.lim_part.render() == "prod Z"
    assert d.lim1_part.is_trivial
    elapsed = time.perf_counter() - start
    _report("3: null sequence H_0 = prod Z", elapsed, 5.0)


def test_criterion_4_hawaiian_degree1():
    start = time.perf_counter()
    d = steenrod(make_example("hawaiian"), 1)
    assert d.lim_part.tag == "full_product"
    assert d.lim1_part.is_trivial
    elapsed = time.perf_counter() - start
    _report("4: hawaiian H_1 = prod Z, lim1 = 0", elapsed, 5.0)


def test_criterion_5_cluster_of_solenoids():
    start = time.perf_counter()
    for p in (2, 3):
        part = steenrod(make_example("solenoid", (p,)), 0, reduced=True)
        d = cluster([part], countable_repetition=True)
        assert d.lim1_part.tag == "product_of"
        assert d.lim1_part.countable_repetition
        assert d.lim1_part.factors[0].render() == "Z_%d/Z" % p
        assert d.render() == "prod(Z_%d/Z)" % p
        # the direct simplicial model of the cluster gives the same value
        model = steenrod(make_example("cluster_solenoids", (p,)), 0, reduced=True)
        assert compare_structured(model.lim1_part, d.lim1_part) == "equal"
    elapsed = time.perf_counter() - start
    _report("5: cluster = prod(Z_p/Z)", elapsed, 5.0)


def test_criterion_6_six_term_exactness():
    start = time.perf_counter()
    Z = free_group(1)
    for p in (2, 3, 5):
        ses = canonical_completion_ses(Z, hom_make(Z, Z, [[p]]))
        rep = six_term(ses)
        verdicts = {j.position: j.verdict for j in rep.joints}
        # every joint between finitely generated or vanishing terms is verified
        assert verdicts["lim_sub"] == "verified"
        assert verdicts["lim_total"] == "verified"
        assert verdicts["lim1_total"] == "verified"
        assert verdicts["lim1_quot"] == "verified"
        # lim Q / image(lim G) is rendered consistently with lim1 K
        assert verdicts["lim_quot"] == "consistent"
        assert rep.lim_quot.render() == "Z_%d" % p
        assert rep.lim1_sub.render() == "Z_%d/Z" % p
        assert compare_structured(
            rep.lim1_sub,
            __import__("towerlim.structured", fromlist=["StructuredGroup"])
            .StructuredGroup.completion_quotient(1, IntMatrix.from_rows([[p]]))
        ) == "equal"
    elapsed = time.perf_counter() - start
    _report("6: six-term joints verified/consistent", elapsed, 5.0)


def test_criterion_7_property_suites():
    start = time.perf_counter()
    cfg = LabConfig(master_seed=42, trials=200, max_rank=3, entry_bound=5)
    expected = {"ml_equiv", "shift_invariance", "dual_ml", "nearly_ml",
                "finite_oracle", "six_term_exact", "ml_propagation"}
    assert set(SUITE_NAMES) == expected | {"ml_certificate", "compare_vs_interleave",
                                           "prohom"}
    for name in sorted(expected):
        rep = run_suite(cfg, name)
        assert rep.ok, (name, rep.counterexamples[:1])
        assert rep.passed == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("7: 7 suites x 200 trials all pass", elapsed, 60.0)


def test_criterion_8_pro_isomorphism():
    start = time.perf_counter()
    Z = free_group(1)
    verdict = compare_invariants(pure_tower(Z, [[2]]), pure_tower(Z, [[3]]))
    assert verdict.kind == "not_isomorphic"
    assert "lim1" in verdict.reason
    a, b = pure_tower(Z, [[4]]), pure_tower(Z, [[2]])
    cert = find_interleaving(a, b, depth=4)
    assert cert is not None
    # both chains extend to every level, so the level-0 composites decide
    assert chain_extends(cert.forward_maps, b.tail_endo,
                         a.tail_endo.matrix ** cert.gap_forward)
    assert chain_extends(cert.backward_maps, a.tail_endo,
                         b.tail_endo.matrix ** cert.gap_backward)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("8: (Z,x2) vs (Z,x3) distinct; (Z,x4)~(Z,x2)", elapsed, 1.0)


def test_criterion_9_telescope_retraction():
    start = time.perf_counter()
    builders = [("solenoid", (2,)), ("hawaiian", ()),
                ("cluster_solenoids", (2,)), ("null_sequence", ())]
    for name, params in builders:
        st = make_example(name, params)
        base = st.complex_at(0)
        base_h = [homology_invariants(base, n) for n in (0, 1, 2)]
        for m in (1, 2, 3, 4):
            tel = telescope(st, m)
            for n in (0, 1, 2):
                assert homology_invariants(tel.complex, n) == base_h[n], \
                    (name, m, n)
    elapsed = time.perf_counter() - start
    _report("9: telescopes retract to level 0 (m <= 4)", elapsed, 60.0)


def test_criterion_10_snf_against_minor_gcd_oracle():
    start = time.perf_counter()
    rng = random.Random(20260808)
    for _ in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                 for _ in range(rows)])
        S, U, Uinv = snf(M)
        # S = U M V with V unimodular: the same column count and lattice
        assert S.cols == M.cols and lattice_canon(U * M) == lattice_canon(S)
        assert U * Uinv == IntMatrix.identity(M.rows)
        assert S.diagonal() == _minor_gcd_invariants(M)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("10: SNF = minor-gcd oracle on 500 matrices", elapsed, 10.0)


def _minor_gcd_invariants(mat):
    m, n = mat.rows, mat.cols
    gcds = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rr in itertools.combinations(range(m), k):
            for cc in itertools.combinations(range(n), k):
                d = mat.submatrix(rr, cc).det()
                g = _gcd(g, d)
                if g == 1:
                    break
            if g == 1:
                break
        gcds.append(g)
    out, prev, seen_zero = [], 1, False
    for g in gcds:
        if g == 0 or seen_zero:
            seen_zero = True
            out.append(0)
        else:
            out.append(g // prev)
            prev = g
    return out


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a
