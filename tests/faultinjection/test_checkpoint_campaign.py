"""Checkpointed campaign engine: bit-identical outcomes, parallel parity.

The checkpoint engine is pure execution strategy — for any fixed seed its
:class:`OutcomeCounts` must be indistinguishable from the replay engine's,
across process counts and workloads (>= 3 workloads).
"""

import pytest

from repro.backend import compile_module
from repro.errors import InjectionError
from repro.faultinjection import campaign as campaign_mod
from repro.faultinjection.campaign import (
    _checkpoint_schedule,
    run_campaign,
    run_ir_campaign,
)
from repro.faultinjection.injector import FaultPlan
from repro.minic import compile_to_ir
from repro.workloads import get_workload
from tests.faultinjection.parity import (
    assert_campaigns_identical,
    assert_counts_identical,
)

#: Three Rodinia workloads at the smallest scale (acceptance: >= 3).
WORKLOADS = ("bfs", "knn", "pathfinder")
SAMPLES = 12
SEED = 21


@pytest.fixture(scope="module")
def built():
    out = {}
    for name in WORKLOADS:
        ir = compile_to_ir(get_workload(name).source(1))
        out[name] = (ir, compile_module(ir))
    return out


class TestBitIdenticalOutcomes:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_checkpoint_matches_replay(self, built, name):
        _, program = built[name]
        replay = run_campaign(program, samples=SAMPLES, seed=SEED,
                              engine="replay")
        checkpointed = run_campaign(program, samples=SAMPLES, seed=SEED,
                                    engine="checkpoint")
        assert_counts_identical(checkpointed, replay, context=name)

    def test_parallel_checkpoint_matches_sequential(self, built):
        _, program = built["knn"]
        sequential = run_campaign(program, samples=SAMPLES, seed=SEED)
        parallel = run_campaign(program, samples=SAMPLES, seed=SEED,
                                processes=2)
        assert parallel.outcomes.counts == sequential.outcomes.counts

    def test_ir_checkpoint_matches_replay(self, built):
        for name in WORKLOADS:
            ir, _ = built[name]
            replay = run_ir_campaign(ir, samples=SAMPLES, seed=SEED,
                                     engine="replay")
            checkpointed = run_ir_campaign(ir, samples=SAMPLES, seed=SEED,
                                           engine="checkpoint")
            assert checkpointed.outcomes.counts == replay.outcomes.counts

    def test_ir_parallel_matches_sequential(self, built):
        ir, _ = built["bfs"]
        sequential = run_ir_campaign(ir, samples=SAMPLES, seed=SEED)
        parallel = run_ir_campaign(ir, samples=SAMPLES, seed=SEED,
                                   processes=2)
        assert parallel.outcomes.counts == sequential.outcomes.counts

    def test_unknown_engine_rejected(self, built):
        _, program = built["bfs"]
        with pytest.raises(InjectionError):
            run_campaign(program, samples=2, engine="warp")
        ir, _ = built["bfs"]
        with pytest.raises(InjectionError):
            run_ir_campaign(ir, samples=2, engine="warp")


class TestGeneratedProgramEngineEquivalence:
    """Engine parity must hold for arbitrary generated programs, not just
    the three curated workloads — the fuzz generator exercises control-flow
    and protection shapes the workloads never produce."""

    FUZZ_SEEDS = (3, 17, 58)

    @pytest.fixture(scope="class")
    def generated(self):
        from repro.fuzz.generator import generate_program
        from repro.pipeline import build_variants

        out = {}
        for fuzz_seed in self.FUZZ_SEEDS:
            build = build_variants(generate_program(fuzz_seed),
                                   names=("raw", "ferrum"))
            out[fuzz_seed] = build
        return out

    @pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
    def test_asm_engines_bit_identical(self, generated, fuzz_seed):
        program = generated[fuzz_seed]["ferrum"].asm
        replay = run_campaign(program, samples=SAMPLES, seed=SEED,
                              engine="replay")
        checkpointed = run_campaign(program, samples=SAMPLES, seed=SEED,
                                    engine="checkpoint")
        assert_campaigns_identical(checkpointed, replay,
                                   context=f"fuzz-{fuzz_seed}")

    @pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
    def test_ir_engines_bit_identical(self, generated, fuzz_seed):
        ir = generated[fuzz_seed]["raw"].ir
        replay = run_ir_campaign(ir, samples=SAMPLES, seed=SEED,
                                 engine="replay")
        checkpointed = run_ir_campaign(ir, samples=SAMPLES, seed=SEED,
                                       engine="checkpoint")
        assert_campaigns_identical(checkpointed, replay,
                                   context=f"ir fuzz-{fuzz_seed}")

    def test_parallel_matches_sequential_on_generated(self, generated):
        program = generated[self.FUZZ_SEEDS[0]]["ferrum"].asm
        sequential = run_campaign(program, samples=SAMPLES, seed=SEED)
        parallel = run_campaign(program, samples=SAMPLES, seed=SEED,
                                processes=2)
        assert parallel.outcomes.counts == sequential.outcomes.counts


class TestExecutionEngineEquivalence:
    """The machine's fused execution engine (``FERRUM_ENGINE``) must be
    invisible to campaigns: outcomes, fault-site populations, and fault
    records are bit-identical whether machines run fused or through the
    reference handler loop — under both campaign engines."""

    @pytest.fixture(scope="class")
    def corpus(self, built):
        from repro.fuzz.generator import generate_program
        from repro.pipeline import build_variants

        programs = {name: program for name, (_, program) in built.items()}
        for fuzz_seed in (3, 17):
            build = build_variants(generate_program(fuzz_seed),
                                   names=("ferrum",))
            programs[f"fuzz-{fuzz_seed}"] = build["ferrum"].asm
        return programs

    def _campaign(self, monkeypatch, program, machine_engine, **kwargs):
        monkeypatch.setenv("FERRUM_ENGINE", machine_engine)
        try:
            return run_campaign(program, samples=SAMPLES, seed=SEED,
                                **kwargs)
        finally:
            monkeypatch.delenv("FERRUM_ENGINE")

    def test_campaigns_identical_across_machine_engines(self, corpus,
                                                        monkeypatch):
        for name, program in corpus.items():
            for campaign_engine in ("replay", "checkpoint"):
                reference = self._campaign(monkeypatch, program, "reference",
                                           engine=campaign_engine)
                fused = self._campaign(monkeypatch, program, "fused",
                                       engine=campaign_engine)
                assert_campaigns_identical(
                    fused, reference,
                    context=f"{name}/{campaign_engine}")

    def test_checkpoint_vs_replay_on_reference_engine(self, corpus,
                                                      monkeypatch):
        program = corpus["fuzz-3"]
        replay = self._campaign(monkeypatch, program, "reference",
                                engine="replay")
        checkpointed = self._campaign(monkeypatch, program, "reference",
                                      engine="checkpoint")
        assert_campaigns_identical(checkpointed, replay)


class TestCheckpointSchedule:
    def _plans(self, sites):
        return [(i, FaultPlan(site_index=s, register_pick=0.1, bit_pick=0.2))
                for i, s in enumerate(sites)]

    def test_exact_site_mode_groups_duplicates(self):
        schedule = _checkpoint_schedule(self._plans([30, 5, 30, 12]))
        assert [site for site, _ in schedule] == [5, 12, 30]
        assert [run for run, _ in schedule[-1][1]] == [0, 2]

    def test_serve_order_is_site_then_run_index(self):
        plans = self._plans([7, 3, 7, 3])
        schedule = _checkpoint_schedule(plans[::-1])
        assert [run for _, site_plans in schedule
                for run, _ in site_plans] == [1, 3, 0, 2]


class TestParallelStateHygiene:
    def test_sequential_fallback_without_fork(self, built, monkeypatch):
        _, program = built["bfs"]
        sequential = run_campaign(program, samples=SAMPLES, seed=SEED)
        monkeypatch.setattr(campaign_mod, "_fork_context", lambda: None)
        fallback = run_campaign(program, samples=SAMPLES, seed=SEED,
                                processes=4)
        assert fallback.outcomes.counts == sequential.outcomes.counts
        ir = compile_to_ir(get_workload("bfs").source(1))
        ir_sequential = run_ir_campaign(ir, samples=SAMPLES, seed=SEED)
        ir_fallback = run_ir_campaign(ir, samples=SAMPLES, seed=SEED,
                                      processes=4)
        assert ir_fallback.outcomes.counts == ir_sequential.outcomes.counts
