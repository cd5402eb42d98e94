"""DME as a first-class campaign technique: parity, coverage, service.

The detector rides the whole fault-injection stack with zero
special-casing — ``build_variants`` produces it, ``Machine`` dispatches
to the lockstep runner, and every execution strategy (replay/checkpoint
engines, pruning, composition, parallel workers, the durable service)
must deliver bit-identical counts and telemetry records. The gated
coverage test pins the headline claim: on backend-inserted fault sites
(non-programmer-visible work that IR-level duplication cannot even see)
DME's coverage is at least FERRUM's, with zero SDCs and zero false
detections on fault-free runs.
"""

import json

import pytest

from repro.asm.operands import Imm
from repro.backend.isel import LoweringKnobs, compile_module
from repro.core.ferrum import protect_program
from repro.errors import DmeDivergenceError
from repro.faultinjection import compose_campaign, run_campaign
from repro.faultinjection.outcome import Outcome
from repro.faultinjection.service import (
    CampaignSpec,
    ServiceConfig,
    resume_campaign,
    serve_campaign,
)
from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import DmeDivergenceOracle, Subject
from repro.minic import compile_to_ir
from repro.pipeline import build_variants
from repro.workloads import get_workload
from tests.faultinjection.parity import (
    assert_campaigns_identical,
    assert_jsonl_identical,
    assert_origin_maps_identical,
)

pytestmark = pytest.mark.dme

WORKLOADS = ("kmeans", "knn")
SAMPLES = 25
SEED = 21


@pytest.fixture(scope="module")
def built():
    return {
        name: build_variants(get_workload(name).source(1),
                             names=("raw", "dme"))["dme"].asm
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def flat(built):
    return {
        name: run_campaign(program, samples=SAMPLES, seed=SEED,
                           telemetry=True)
        for name, program in built.items()
    }


class TestVariantIdentity:
    def test_pipeline_builds_dme(self, built):
        from repro.core.dme import DmeProgram

        for program in built.values():
            assert isinstance(program, DmeProgram)
            assert program.detector == "dme"

    def test_fault_plans_match_raw_sampling(self, built):
        """The primary *is* the raw backend output, so site populations and
        sampled plans agree with a raw campaign plan-for-plan."""
        build = build_variants(get_workload("kmeans").source(1),
                               names=("raw", "dme"))
        raw = run_campaign(build["raw"].asm, samples=10, seed=3,
                           telemetry=True)
        dme = run_campaign(build["dme"].asm, samples=10, seed=3,
                           telemetry=True)
        assert dme.fault_sites == raw.fault_sites
        for dme_rec, raw_rec in zip(dme.records, raw.records):
            assert dme_rec.site_index == raw_rec.site_index
            assert dme_rec.register == raw_rec.register
            assert dme_rec.bit == raw_rec.bit


class TestEngineParity:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replay_matches_checkpoint(self, built, flat, name):
        replay = run_campaign(built[name], samples=SAMPLES, seed=SEED,
                              engine="replay", telemetry=True)
        assert_campaigns_identical(replay, flat[name], context=name)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_pruned_matches_flat(self, built, flat, name):
        pruned = run_campaign(built[name], samples=SAMPLES, seed=SEED,
                              telemetry=True, prune=True)
        assert_campaigns_identical(pruned, flat[name], context=name)
        assert pruned.pruning_stats is not None

    def test_parallel_matches_sequential(self, built, flat):
        parallel = run_campaign(built["kmeans"], samples=SAMPLES, seed=SEED,
                                telemetry=True, processes=2)
        assert_campaigns_identical(parallel, flat["kmeans"])

    def test_machine_engines_agree(self, built, flat, monkeypatch):
        for machine_engine in ("reference", "translated"):
            monkeypatch.setenv("FERRUM_ENGINE", machine_engine)
            campaign = run_campaign(built["kmeans"], samples=SAMPLES,
                                    seed=SEED, telemetry=True)
            assert_campaigns_identical(campaign, flat["kmeans"],
                                       context=machine_engine)
        monkeypatch.delenv("FERRUM_ENGINE")

    def test_origin_maps_tag_backend_sites(self, built, flat):
        pruned = run_campaign(built["kmeans"], samples=SAMPLES, seed=SEED,
                              telemetry=True, prune=True)
        assert_origin_maps_identical(pruned.records, flat["kmeans"].records)


class TestComposeParity:
    def test_composed_matches_flat_and_caches(self, built, flat, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = compose_campaign(built["kmeans"], samples=SAMPLES, seed=SEED,
                                telemetry=True, cache_dir=cache_dir)
        assert_campaigns_identical(cold, flat["kmeans"], context="cold")
        warm = compose_campaign(built["kmeans"], samples=SAMPLES, seed=SEED,
                                telemetry=True, cache_dir=cache_dir)
        assert_campaigns_identical(warm, flat["kmeans"], context="warm")
        assert warm.compose_stats.executed_injections == 0

    def test_cache_never_leaks_across_detectors(self, built, tmp_path):
        """Identical primary code under raw vs dme has different outcomes;
        the section cache must keep the two apart (the ``detector:`` digest
        line)."""
        cache_dir = tmp_path / "cache"
        build = build_variants(get_workload("kmeans").source(1),
                               names=("raw", "dme"))
        compose_campaign(build["dme"].asm, samples=15, seed=3,
                         telemetry=True, cache_dir=cache_dir)
        raw_composed = compose_campaign(build["raw"].asm, samples=15, seed=3,
                                        telemetry=True, cache_dir=cache_dir)
        assert raw_composed.compose_stats.cache_hits == 0
        raw_flat = run_campaign(build["raw"].asm, samples=15, seed=3,
                                telemetry=True)
        assert_campaigns_identical(raw_composed, raw_flat)


class TestFaultFreeGate:
    """A secondary that diverges fault-free fails the campaign loudly,
    before any record exists, whichever pass is the golden run."""

    @staticmethod
    def _diverging(program):
        sabotaged = program.copy()
        for instr in sabotaged.secondary.instructions():
            if (instr.mnemonic in ("addq", "subq") and instr.operands
                    and isinstance(instr.operands[0], Imm)):
                instr.operands = (
                    Imm(instr.operands[0].value + 8),
                ) + instr.operands[1:]
                return sabotaged
        raise AssertionError("no immediate add/sub to sabotage")

    @pytest.mark.parametrize("converge", (False, True))
    @pytest.mark.parametrize("campaign", (run_campaign, compose_campaign))
    def test_divergence_raises_before_records(self, built, tmp_path,
                                              campaign, converge):
        path = tmp_path / "records.jsonl"
        with pytest.raises(DmeDivergenceError):
            campaign(self._diverging(built["kmeans"]), samples=4, seed=SEED,
                     jsonl_path=path, converge=converge)
        assert not path.exists()


class TestDurableService:
    SPEC = CampaignSpec(workloads=("kmeans",), techniques=("dme",),
                        samples=18, seed=7, shard_size=6)

    def _config(self, **overrides):
        base = dict(workers=0, fsync=False,
                    backoff_base=0.01, backoff_cap=0.05)
        base.update(overrides)
        return ServiceConfig(**base)

    def test_serve_resume_and_worker_parity(self, tmp_path):
        baseline = serve_campaign(tmp_path / "a", self.SPEC, self._config())
        assert baseline.complete
        assert "kmeans-dme" in baseline.results

        forked = serve_campaign(tmp_path / "b", self.SPEC,
                                self._config(workers=2))
        assert forked.complete
        assert_jsonl_identical(forked.results["kmeans-dme"],
                               baseline.results["kmeans-dme"])

        again = resume_campaign(tmp_path / "a", self._config())
        assert again.complete and again.executed_shards == 0
        assert_jsonl_identical(again.results["kmeans-dme"],
                               baseline.results["kmeans-dme"])

    def test_killed_shards_resume_bit_identical(self, tmp_path):
        """Shard failures (the supervisor's kill-anywhere path) must not
        perturb a single output byte."""
        clean = serve_campaign(tmp_path / "clean", self.SPEC, self._config())
        chaotic = serve_campaign(
            tmp_path / "chaos", self.SPEC,
            self._config(fail_shards={"u00-s0000": 2}, max_failures=4))
        assert chaotic.complete
        assert_jsonl_identical(chaotic.results["kmeans-dme"],
                               clean.results["kmeans-dme"])

    def test_service_matches_flat_campaign(self, built, tmp_path):
        """The service's result file holds the flat campaign's stream, in
        the same serve order (instruction uids aside: the service writes
        program-local ordinals)."""
        report = serve_campaign(tmp_path / "state", self.SPEC, self._config())
        flat_path = tmp_path / "flat.jsonl"
        run_campaign(built["kmeans"], samples=self.SPEC.samples,
                     seed=self.SPEC.seed, jsonl_path=flat_path)

        def stream(path):
            with open(path, encoding="utf-8") as handle:
                return [(r["run_index"], r["site_index"], r["outcome"])
                        for r in map(json.loads, handle)]

        assert stream(report.results["kmeans-dme"]) == stream(flat_path)


class TestCoverageGate:
    """The acceptance gate: DME coverage on backend-inserted sites is at
    least FERRUM's, on two workloads, with zero SDCs — and zero false
    detections over a fuzz-corpus sweep of fault-free runs."""

    SAMPLES = 80

    def _backend_outcomes(self, program):
        campaign = run_campaign(program, samples=self.SAMPLES, seed=11,
                                telemetry=True, prune=True)
        backend = [r for r in campaign.records if r.origin == "backend"]
        sdc_total = sum(1 for r in campaign.records
                        if r.outcome is Outcome.SDC)
        return backend, sdc_total

    @staticmethod
    def _coverage(records):
        detected = sum(1 for r in records if r.outcome is Outcome.DETECTED)
        sdc = sum(1 for r in records if r.outcome is Outcome.SDC)
        return 1.0 if detected + sdc == 0 else detected / (detected + sdc)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_dme_covers_backend_sites_at_least_as_well_as_ferrum(
            self, built, name):
        module = compile_to_ir(get_workload(name).source(1))
        # FERRUM over a backend-tagged lowering, so its records can be
        # filtered to backend-origin sites just like DME's.
        tagged = compile_module(module, LoweringKnobs(tag_backend=True))
        ferrum_program, _ = protect_program(tagged)

        ferrum_backend, ferrum_sdc = self._backend_outcomes(ferrum_program)
        dme_backend, dme_sdc = self._backend_outcomes(built[name])

        assert dme_backend, f"{name}: no backend-origin sites sampled"
        assert dme_sdc == 0, f"{name}: DME let an SDC through"
        assert self._coverage(dme_backend) >= self._coverage(ferrum_backend)
        assert sum(1 for r in dme_backend
                   if r.outcome is Outcome.DETECTED) > 0

    def test_detection_latencies_are_recorded(self, built, flat):
        detected = [r for r in flat["kmeans"].records
                    if r.outcome is Outcome.DETECTED]
        assert detected
        for record in detected:
            assert record.detection_latency is not None
            assert record.detection_latency >= 0

    def test_zero_false_detections_on_fuzz_corpus(self):
        oracle = DmeDivergenceOracle()
        for seed in range(12):
            subject = Subject(generate_program(seed))
            verdict = oracle.check(subject)
            assert verdict.passed, f"seed {seed}: {verdict.detail}"
