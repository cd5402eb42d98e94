"""Convergence early-exit: bit-identity matrix and stats contract.

``converge=True`` is pure execution strategy — for any fixed seed the
outcome counts, FaultRecords, per-origin maps and JSONL bytes must be
bit-identical to ``converge=False``, across machine engines (reference /
translated / fused), campaign engines (checkpoint / replay), process
counts, static pruning, composition, the durable service, and detector
variants (ferrum / hybrid / dme) on >= 3 workloads.
"""

import json

import pytest

from repro.errors import InjectionError
from repro.faultinjection.campaign import run_campaign, run_ir_campaign
from repro.faultinjection.compose import compose_campaign
from repro.minic import compile_to_ir
from repro.pipeline import build_variants
from repro.workloads import get_workload
from tests.faultinjection.parity import (
    assert_campaigns_identical,
    assert_jsonl_identical,
    assert_origin_maps_identical,
)

WORKLOADS = ("bfs", "knn", "pathfinder")
TECHNIQUES = ("ferrum", "hybrid", "dme")
SAMPLES = 12
SEED = 21


@pytest.fixture(scope="module")
def built():
    out = {}
    for name in WORKLOADS:
        build = build_variants(get_workload(name).source(1),
                               names=("raw",) + TECHNIQUES)
        out[name] = {tech: build[tech].asm for tech in TECHNIQUES}
    return out


def _pair(program, tmp_path, tag, **kwargs):
    """One campaign with converge off and one with it on, JSONL streamed."""
    off_path = tmp_path / f"{tag}-off.jsonl"
    on_path = tmp_path / f"{tag}-on.jsonl"
    off = run_campaign(program, samples=SAMPLES, seed=SEED, telemetry=True,
                       jsonl_path=off_path, **kwargs)
    on = run_campaign(program, samples=SAMPLES, seed=SEED, telemetry=True,
                      jsonl_path=on_path, converge=True, **kwargs)
    return off, on, off_path, on_path


class TestBitIdentity:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_technique_matrix(self, built, tmp_path, name, technique):
        program = built[name][technique]
        off, on, off_path, on_path = _pair(program, tmp_path,
                                           f"{name}-{technique}")
        assert_campaigns_identical(on, off, context=f"{name}/{technique}")
        assert_origin_maps_identical(on.records, off.records,
                                     context=f"{name}/{technique}")
        assert_jsonl_identical(on_path, off_path)
        assert on.convergence_stats is not None
        assert on.convergence_stats.runs == SAMPLES
        assert off.convergence_stats is None

    @pytest.mark.parametrize("engine", ("checkpoint", "replay"))
    def test_campaign_engines(self, built, tmp_path, engine):
        program = built["bfs"]["ferrum"]
        off, on, off_path, on_path = _pair(program, tmp_path, engine,
                                           engine=engine)
        assert_campaigns_identical(on, off, context=engine)
        assert_jsonl_identical(on_path, off_path)

    @pytest.mark.parametrize("machine_engine",
                             ("reference", "translated", "fused"))
    def test_machine_engines(self, built, tmp_path, monkeypatch,
                             machine_engine):
        monkeypatch.setenv("FERRUM_ENGINE", machine_engine)
        program = built["knn"]["ferrum"]
        off, on, off_path, on_path = _pair(program, tmp_path, machine_engine)
        assert_campaigns_identical(on, off, context=machine_engine)
        assert_jsonl_identical(on_path, off_path)

    def test_parallel_matches_sequential(self, built, tmp_path):
        program = built["bfs"]["ferrum"]
        sequential = run_campaign(program, samples=SAMPLES, seed=SEED,
                                  telemetry=True, converge=True)
        parallel = run_campaign(program, samples=SAMPLES, seed=SEED,
                                telemetry=True, converge=True, processes=2)
        assert_campaigns_identical(parallel, sequential)
        # Stats are order-independent sums: parallel == sequential.
        assert (parallel.convergence_stats.summary()
                == sequential.convergence_stats.summary())

    def test_prune_composes_with_converge(self, built, tmp_path):
        program = built["pathfinder"]["ferrum"]
        off_path = tmp_path / "prune-off.jsonl"
        on_path = tmp_path / "prune-on.jsonl"
        off = run_campaign(program, samples=SAMPLES, seed=SEED,
                           telemetry=True, prune=True, jsonl_path=off_path)
        on = run_campaign(program, samples=SAMPLES, seed=SEED,
                          telemetry=True, prune=True, converge=True,
                          jsonl_path=on_path)
        assert_campaigns_identical(on, off, context="prune+converge")
        assert_jsonl_identical(on_path, off_path)
        # Convergence monitors only the executed representatives; the
        # synthesized/duplicate remainder never runs.
        assert (on.convergence_stats.runs
                == on.pruning_stats.executed_injections)
        assert on.convergence_stats.runs <= SAMPLES

    def test_converge_interval_does_not_change_results(self, built):
        program = built["bfs"]["ferrum"]
        reference = run_campaign(program, samples=SAMPLES, seed=SEED,
                                 telemetry=True)
        for interval in (16, 50, 1000):
            tuned = run_campaign(program, samples=SAMPLES, seed=SEED,
                                 telemetry=True, converge=True,
                                 converge_interval=interval)
            assert_campaigns_identical(tuned, reference,
                                       context=f"interval={interval}")


class TestComposeAndService:
    def test_compose_cold_and_warm_cache(self, built, tmp_path):
        program = built["knn"]["ferrum"]
        flat_path = tmp_path / "flat.jsonl"
        flat = run_campaign(program, samples=SAMPLES, seed=SEED,
                            telemetry=True, jsonl_path=flat_path)
        cache = tmp_path / "cache"
        for tag in ("cold", "warm"):
            path = tmp_path / f"{tag}.jsonl"
            composed = compose_campaign(program, SAMPLES, seed=SEED,
                                        telemetry=True, jsonl_path=path,
                                        cache_dir=cache, converge=True)
            assert_campaigns_identical(composed, flat, context=tag)
            assert_jsonl_identical(path, flat_path)
        # The warm pass never executed, so its stats cover zero runs.
        assert composed.compose_stats.cache_hits > 0
        assert composed.convergence_stats.runs == 0

    def test_compose_cache_keys_disjoint_from_plain(self, built, tmp_path):
        """Converged and plain campaigns must never share cache entries:
        the trail fingerprint partitions the key space."""
        program = built["bfs"]["ferrum"]
        cache = tmp_path / "cache"
        compose_campaign(program, SAMPLES, seed=SEED, telemetry=True,
                         cache_dir=cache, converge=True)
        from repro.faultinjection.compose import SectionCache

        converged_keys = SectionCache(cache).keys()
        plain = compose_campaign(program, SAMPLES, seed=SEED, telemetry=True,
                                 cache_dir=cache)
        assert plain.compose_stats.cache_hits == 0
        assert SectionCache(cache).keys() > converged_keys

    def test_service_bytes_identical_and_resume(self, built, tmp_path):
        from repro.faultinjection.service import (
            CampaignSpec,
            ServiceConfig,
            resume_campaign,
            serve_campaign,
        )

        config = ServiceConfig(workers=0, fsync=False)
        base = dict(workloads=("bfs",), techniques=("ferrum",),
                    samples=SAMPLES, seed=SEED, shard_size=5)
        off = serve_campaign(tmp_path / "off",
                             CampaignSpec(**base), config)
        on = serve_campaign(tmp_path / "on",
                            CampaignSpec(**base, converge=True), config)
        off_bytes = open(off.results["bfs-ferrum"], "rb").read()
        on_bytes = open(on.results["bfs-ferrum"], "rb").read()
        assert on_bytes == off_bytes
        resumed = resume_campaign(tmp_path / "on", config)
        assert resumed.complete and resumed.executed_shards == 0
        assert open(resumed.results["bfs-ferrum"], "rb").read() == off_bytes
        summary = json.load(open(on.summary_path))
        assert summary["spec"]["converge"] is True

    def test_service_kill_midway_resumes_identically(self, built, tmp_path):
        """A converge campaign whose supervisor dies mid-flight resumes to
        the same bytes an uninterrupted one produces (fail_shards makes
        the first attempt of one shard crash, exercising requeue)."""
        from repro.faultinjection.service import (
            CampaignSpec,
            ServiceConfig,
            serve_campaign,
        )

        spec = CampaignSpec(workloads=("bfs",), techniques=("ferrum",),
                            samples=SAMPLES, seed=SEED, shard_size=5,
                            converge=True)
        clean = serve_campaign(
            tmp_path / "clean", spec, ServiceConfig(workers=0, fsync=False))
        chaotic = serve_campaign(
            tmp_path / "chaos", spec,
            ServiceConfig(workers=2, fsync=False, backoff_base=0.01,
                          fail_shards={"u00-s0000": 1}))
        assert chaotic.complete
        assert (open(chaotic.results["bfs-ferrum"], "rb").read()
                == open(clean.results["bfs-ferrum"], "rb").read())


class TestStatsAndErrors:
    def test_stats_identical_across_campaign_engines(self, built):
        program = built["bfs"]["ferrum"]
        by_engine = {
            engine: run_campaign(program, samples=SAMPLES, seed=SEED,
                                 converge=True, engine=engine)
            for engine in ("checkpoint", "replay")
        }
        summaries = {engine: result.convergence_stats.summary()
                     for engine, result in by_engine.items()}
        assert summaries["checkpoint"] == summaries["replay"]
        stats = by_engine["checkpoint"].convergence_stats
        assert stats.runs == SAMPLES
        assert 0 <= stats.converged <= stats.runs
        assert stats.instructions_saved >= 0
        if stats.converged:
            assert stats.mean_convergence_distance > 0

    def test_stats_merge_is_sum(self):
        from repro.faultinjection.telemetry import ConvergenceStats

        a = ConvergenceStats(runs=3, converged=1, instructions_saved=100,
                             distance_sites=7, boundaries_compared=4)
        b = ConvergenceStats(runs=2, converged=2, instructions_saved=50,
                             distance_sites=9, boundaries_compared=3)
        a.merge(b)
        assert (a.runs, a.converged, a.instructions_saved,
                a.distance_sites, a.boundaries_compared) == (5, 3, 150, 16, 7)
        assert a.converged_fraction == 3 / 5
        assert a.mean_convergence_distance == 16 / 3

    def test_ir_campaign_rejects_converge(self):
        ir = compile_to_ir(get_workload("bfs").source(1))
        with pytest.raises(InjectionError, match="assembly-level only"):
            run_ir_campaign(ir, samples=2, converge=True)


class TestRunOrderedWriterBound:
    """Satellite: the pruned-campaign reorder buffer is bounded and eager.

    The pathological arrival order for the old implementation — every
    synthesized record pre-pushed, every duplicate clone materialized at
    representative-arrival time — made the buffer O(campaign). The
    rewritten buffer holds only out-of-order executed records plus
    representatives with pending clones; ``peak_buffer`` pins the bound.
    """

    @staticmethod
    def _record(run_index):
        from repro.faultinjection.outcome import Outcome
        from repro.faultinjection.telemetry import FaultRecord

        return FaultRecord(
            run_index=run_index, level="asm", site_index=run_index,
            instruction="nop", mnemonic="nop", origin="app",
            register="rax", bit=0, outcome=Outcome.BENIGN,
            detection_latency=None,
        )

    class _Spy:
        def __init__(self):
            self.seen = []

        def write(self, record):
            self.seen.append(record.run_index)

    def test_pathological_order_stays_bounded(self):
        """90 synthesized runs, one late representative with clones spread
        across the index space: peak residency stays O(executed), not
        O(campaign)."""
        from repro.faultinjection.campaign import _RunOrderedWriter
        from repro.faultinjection.equivalence import PruningAnalysis

        total = 100
        executed = (99, 50, 0)               # arrive in reverse run order
        clones = {0: [25, 75], 50: [60]}
        synthesized = [
            (run, self._record(run)) for run in range(total)
            if run not in executed
            and run not in {c for cs in clones.values() for c in cs}
        ]
        analysis = PruningAnalysis(synthesized=synthesized,
                                   duplicates=clones)
        sink = self._Spy()
        writer = _RunOrderedWriter(sink, analysis)
        assert sink.seen == []               # run 0 is executed, not synth
        writer.write(self._record(99))       # maximally out of order
        writer.write(self._record(50))
        assert sink.seen == []
        writer.write(self._record(0))        # releases the whole campaign
        assert sink.seen == list(range(total))
        # Peak: two pending executed records (99, 50) plus at most two
        # retained representatives — nowhere near the 100-run campaign.
        assert writer.peak_buffer <= 4

    def test_representative_released_after_last_clone(self):
        from repro.faultinjection.campaign import _RunOrderedWriter
        from repro.faultinjection.equivalence import PruningAnalysis

        analysis = PruningAnalysis(
            synthesized=[(1, self._record(1)), (3, self._record(3))],
            duplicates={0: [2, 4]},
        )
        sink = self._Spy()
        writer = _RunOrderedWriter(sink, analysis)
        writer.write(self._record(0))
        assert sink.seen == [0, 1, 2, 3, 4]
        assert writer._rep_records == {}     # dropped at clone 4's flush
        assert writer.peak_buffer <= 1

    def test_streamed_file_matches_buffered_order(self, built, tmp_path):
        program = built["bfs"]["ferrum"]
        path = tmp_path / "converge-prune.jsonl"
        result = run_campaign(program, samples=SAMPLES, seed=SEED,
                              telemetry=True, prune=True, converge=True,
                              jsonl_path=path)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["run_index"] for line in lines] \
            == list(range(SAMPLES))
        assert lines == [json.dumps(record.to_json(), sort_keys=True)
                         for record in result.records]
