"""Convergence early-exit: bit-identity matrix and stats contract.

``converge=True`` is pure execution strategy — for any fixed seed the
outcome counts, FaultRecords, per-origin maps and JSONL bytes must be
bit-identical to ``converge=False``, across machine engines (reference /
fused), campaign engines (checkpoint / replay), process
counts, static pruning, composition, the durable service, and detector
variants (ferrum / hybrid / dme) on >= 3 workloads.
"""

import json

import pytest

from repro.faultinjection.campaign import run_campaign
from repro.faultinjection.compose import compose_campaign
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
    off = run_campaign(program, samples=SAMPLES, seed=SEED,
                       jsonl_path=off_path, **kwargs)
    on = run_campaign(program, samples=SAMPLES, seed=SEED,
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
                             ("reference", "fused"))
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
                                  converge=True)
        parallel = run_campaign(program, samples=SAMPLES, seed=SEED,
                                converge=True, processes=2)
        assert_campaigns_identical(parallel, sequential)
        # Stats are order-independent sums: parallel == sequential.
        assert (parallel.convergence_stats.summary()
                == sequential.convergence_stats.summary())

    def test_prune_composes_with_converge(self, built, tmp_path):
        program = built["pathfinder"]["ferrum"]
        off_path = tmp_path / "prune-off.jsonl"
        on_path = tmp_path / "prune-on.jsonl"
        off = run_campaign(program, samples=SAMPLES, seed=SEED,
                           prune=True, jsonl_path=off_path)
        on = run_campaign(program, samples=SAMPLES, seed=SEED,
                          prune=True, converge=True,
                          jsonl_path=on_path)
        assert_campaigns_identical(on, off, context="prune+converge")
        assert_jsonl_identical(on_path, off_path)
        # Convergence monitors only the executed representatives; the
        # synthesized/duplicate remainder never runs.
        assert (on.convergence_stats.runs
                == on.pruning_stats.executed_injections)
        assert on.convergence_stats.runs <= SAMPLES

    def test_pruned_converged_stream_matches_unpruned_bytes(self, built,
                                                             tmp_path):
        """Prune and converge together still write the plain campaign's
        serve-order stream, byte for byte."""
        program = built["bfs"]["ferrum"]
        path = tmp_path / "converge-prune.jsonl"
        plain_path = tmp_path / "plain.jsonl"
        run_campaign(program, samples=SAMPLES, seed=SEED,
                     prune=True, converge=True, jsonl_path=path)
        run_campaign(program, samples=SAMPLES, seed=SEED,
                     jsonl_path=plain_path)
        assert_jsonl_identical(path, plain_path)


class TestComposeAndService:
    def test_compose_cold_and_warm_cache(self, built, tmp_path):
        program = built["knn"]["ferrum"]
        flat_path = tmp_path / "flat.jsonl"
        flat = run_campaign(program, samples=SAMPLES, seed=SEED,
                            jsonl_path=flat_path)
        cache = tmp_path / "cache"
        for tag in ("cold", "warm"):
            path = tmp_path / f"{tag}.jsonl"
            composed = compose_campaign(program, SAMPLES, seed=SEED,
                                        jsonl_path=path,
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
        compose_campaign(program, SAMPLES, seed=SEED,
                         cache_dir=cache, converge=True)
        from repro.faultinjection.compose import SectionCache

        converged_keys = SectionCache(cache).keys()
        plain = compose_campaign(program, SAMPLES, seed=SEED,
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
