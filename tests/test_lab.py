import time

import pytest

from towerlim.lab import (
    LabConfig,
    SUITE_NAMES,
    SplitMix64,
    UnknownSuite,
    gen_tower,
    run_suite,
    trial_rng,
)


class TestRng:
    def test_known_stream_is_stable(self):
        r = SplitMix64(42)
        first = [r.next64() for _ in range(3)]
        r2 = SplitMix64(42)
        assert first == [r2.next64() for _ in range(3)]

    def test_below_in_range(self):
        r = SplitMix64(7)
        for _ in range(200):
            assert 0 <= r.below(6) < 6

    def test_trial_streams_differ(self):
        a = trial_rng(1, "ml_equiv", 0).next64()
        b = trial_rng(1, "ml_equiv", 1).next64()
        c = trial_rng(1, "dual_ml", 0).next64()
        assert len({a, b, c}) == 3


class TestGeneration:
    def test_deterministic(self):
        cfg = LabConfig(master_seed=5, trials=1)
        t1 = gen_tower(trial_rng(5, "x", 0), cfg)
        t2 = gen_tower(trial_rng(5, "x", 0), cfg)
        assert t1.tail_endo.matrix == t2.tail_endo.matrix
        assert t1.tail_group.smith_invariants == t2.tail_group.smith_invariants

    def test_rank_bound_one(self):
        cfg = LabConfig(master_seed=9, trials=1, max_rank=1)
        for i in range(20):
            t = gen_tower(trial_rng(9, "x", i), cfg, with_prefix=False)
            assert t.tail_group.generators <= 1

    def test_entry_bound_zero_gives_zero_endos(self):
        cfg = LabConfig(master_seed=3, trials=1, entry_bound=0)
        for i in range(10):
            t = gen_tower(trial_rng(3, "x", i), cfg, with_prefix=False)
            free_cols = [j for j, d in enumerate(
                _diag(t.tail_group)) if d == 0]
            for j in free_cols:
                col = t.tail_endo.matrix.column(j)
                assert all(x == 0 for x in col)


def _diag(group):
    diag = [0] * group.generators
    rel = group.relations
    for j in range(rel.cols):
        col = rel.column(j)
        nz = [i for i, x in enumerate(col) if x]
        diag[nz[0]] = col[nz[0]]
    return diag


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite(LabConfig(1, 1), "nope")

    def test_zero_trials_empty_pass(self):
        for name in SUITE_NAMES:
            rep = run_suite(LabConfig(master_seed=1, trials=0), name)
            assert rep.ok and rep.passed == 0 and rep.failed == 0

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_small_runs_pass(self, suite):
        rep = run_suite(LabConfig(master_seed=42, trials=25), suite)
        assert rep.ok, rep.counterexamples[:1]

    def test_determinism_bitwise(self):
        import json
        a = run_suite(LabConfig(master_seed=7, trials=10), "ml_equiv")
        b = run_suite(LabConfig(master_seed=7, trials=10), "ml_equiv")
        assert json.dumps(a.canonical_json(), sort_keys=True) == \
               json.dumps(b.canonical_json(), sort_keys=True)

    def test_prohom_torsion_draws_reach_the_basis_nontrivial(self, monkeypatch):
        # each trial is stopped where its two tails reach chain_basis; the
        # first draw of a trial's stream picks the torsion kind
        from towerlim import lab

        class Drawn(Exception):
            pass

        def record(src, tgt, power, bond):
            drawn.append((src, tgt))
            raise Drawn

        monkeypatch.setattr(lab, "chain_basis", record)
        cfg = LabConfig(master_seed=42, trials=200)
        torsion = 0
        for index in range(cfg.trials):
            drawn = []
            with pytest.raises(Drawn):
                lab._suite_prohom(trial_rng(42, "prohom", index), cfg,
                                  lab.LabReport("prohom", cfg))
            if trial_rng(42, "prohom", index).below(2) == 0:
                torsion += 1
                assert not any(g.is_trivial() for g in drawn[0])
        assert torsion == 98
