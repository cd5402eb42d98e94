"""Outcome-equivalence pruning: bit-identical campaigns at a fraction of cost.

Pruning (``run_campaign(prune=True)``) classifies statically-masked fault
sites from the golden trace and collapses outcome-equivalent dynamic sites
into classes injected once. It is pure execution strategy: for any fixed
seed, the pruned campaign must report exactly the same aggregate outcome
counts, fault records, per-origin maps and JSONL bytes as the
unpruned one — only ``pruning_stats`` (and wall-clock) may differ.
"""

import json

import pytest

from repro.faultinjection.campaign import run_campaign
from repro.faultinjection.equivalence import PruningStats
from repro.pipeline import build_variants
from repro.workloads import get_workload
from tests.faultinjection.parity import (
    assert_campaigns_identical,
    assert_counts_identical,
    assert_jsonl_identical,
    assert_origin_maps_identical,
)

WORKLOADS = ("bfs", "knn")
VARIANTS = ("raw", "ferrum")
SAMPLES = 25
SEED = 21


@pytest.fixture(scope="module")
def built():
    out = {}
    for name in WORKLOADS:
        build = build_variants(get_workload(name).source_fn(),
                               names=VARIANTS)
        out[name] = {variant: build[variant].asm for variant in VARIANTS}
    return out


class TestPrunedBitIdentity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_outcome_counts_identical(self, built, name, variant):
        program = built[name][variant]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              prune=True)
        assert_counts_identical(pruned, plain, context=f"{name}/{variant}")

    @pytest.mark.parametrize("engine", ("checkpoint", "replay"))
    def test_engines_agree_under_pruning(self, built, engine):
        program = built["bfs"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED,
                             engine=engine)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              engine=engine, prune=True)
        assert_counts_identical(pruned, plain, context=engine)

    def test_telemetry_records_identical(self, built):
        """Synthesized and cloned records must be indistinguishable from
        executed ones — field for field, in run-index order."""
        program = built["knn"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              prune=True)
        assert_campaigns_identical(pruned, plain)

    def test_per_origin_telemetry_identical(self, built):
        program = built["bfs"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              prune=True)
        assert_origin_maps_identical(pruned.records, plain.records)

    def test_jsonl_content_identical(self, built, tmp_path):
        """The pruned campaign's JSONL sink must hold exactly the unpruned
        campaign's bytes: both stream in serve order."""
        program = built["bfs"]["ferrum"]
        plain_path = tmp_path / "plain.jsonl"
        pruned_path = tmp_path / "pruned.jsonl"
        run_campaign(program, samples=SAMPLES, seed=SEED,
                     jsonl_path=plain_path)
        run_campaign(program, samples=SAMPLES, seed=SEED,
                     jsonl_path=pruned_path, prune=True)
        assert_jsonl_identical(pruned_path, plain_path)
        # and the pruned file is complete: one record per sample
        pruned_lines = pruned_path.read_text().splitlines()
        assert len(pruned_lines) == SAMPLES
        assert all(json.loads(line)["level"] == "asm"
                   for line in pruned_lines)

    def test_parallel_pruned_matches_sequential(self, built):
        program = built["knn"]["ferrum"]
        sequential = run_campaign(program, samples=SAMPLES, seed=SEED,
                                  prune=True)
        parallel = run_campaign(program, samples=SAMPLES, seed=SEED,
                                prune=True, processes=2)
        assert_counts_identical(parallel, sequential)


class TestPruningStats:
    def test_stats_populated_only_when_pruning(self, built):
        program = built["bfs"]["ferrum"]
        plain = run_campaign(program, samples=SAMPLES, seed=SEED)
        pruned = run_campaign(program, samples=SAMPLES, seed=SEED,
                              prune=True)
        assert plain.pruning_stats is None
        stats = pruned.pruning_stats
        assert stats is not None
        assert stats.samples == SAMPLES

    def test_accounting_adds_up(self, built):
        program = built["bfs"]["ferrum"]
        stats = run_campaign(program, samples=SAMPLES, seed=SEED,
                             prune=True).pruning_stats
        synthesized = (stats.statically_masked + stats.detected
                       + stats.benign + stats.sdc)
        assert synthesized == stats.classified
        assert (stats.executed_injections + stats.classified
                + stats.duplicates_collapsed == stats.samples)
        assert 0.0 <= stats.executed_fraction <= 1.0

    def test_protected_variant_prunes_most_injections(self, built):
        """FERRUM-protected code is dominated by statically-classifiable
        sites; the scanner must prove a substantial majority without
        executing them (the benchmark gate asserts <= 60%)."""
        stats = run_campaign(built["bfs"]["ferrum"], samples=SAMPLES,
                             seed=SEED, prune=True).pruning_stats
        assert stats.executed_fraction <= 0.6
        assert stats.classified > 0


class TestPrunedStreaming:
    """Pruned plans are verdicts inside the executor loop: the stream is
    the unpruned campaign's serve-order stream, byte for byte."""

    def test_pruned_file_matches_unpruned_bytes_and_is_complete(
            self, built, tmp_path):
        program = built["knn"]["ferrum"]
        path = tmp_path / "pruned.jsonl"
        plain_path = tmp_path / "plain.jsonl"
        result = run_campaign(program, samples=SAMPLES, seed=SEED,
                              jsonl_path=path, prune=True)
        run_campaign(program, samples=SAMPLES, seed=SEED,
                     jsonl_path=plain_path)
        assert_jsonl_identical(path, plain_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted(record["run_index"] for record in records) \
            == list(range(SAMPLES))
        assert [(r["site_index"], r["run_index"]) for r in records] \
            == sorted((r.site_index, r.run_index) for r in result.records)


class TestPrunedWork:
    """Serving pruned plans in the executor loop does exactly the work the
    pruned campaign did before: the same prune verdicts, and a snapshot
    and a restore only where a plan executes (knn/ferrum, 25 samples,
    seed 21, pinned)."""

    def test_stats_pinned(self, built):
        result = run_campaign(built["knn"]["ferrum"], samples=SAMPLES,
                              seed=SEED, prune=True)
        assert result.pruning_stats == PruningStats(
            samples=25, classified=22, executed_injections=3,
            statically_masked=0, detected=19, benign=3, sdc=0,
            duplicates_collapsed=0, classes=25, scan_events=75)
        stats = result.checkpoint_stats
        assert (stats.snapshots, stats.restores, stats.snapshot_bytes) \
            == (3, 3, 25368)
        assert stats.fast_forward_sites == 0

    def test_duplicates_cloned_in_serve_order(self, tmp_path):
        """A duplicate clones its representative's result at its own place
        in the stream, sequentially and across pool shards (generated
        program 7, 120 samples, seed 2: two duplicates)."""
        from repro.fuzz.generator import generate_program

        program = build_variants(generate_program(7),
                                 names=("raw",))["raw"].asm
        paths = {tag: tmp_path / f"{tag}.jsonl"
                 for tag in ("plain", "pruned", "pooled")}
        run_campaign(program, samples=120, seed=2, jsonl_path=paths["plain"])
        pruned = run_campaign(program, samples=120, seed=2, prune=True,
                              jsonl_path=paths["pruned"])
        run_campaign(program, samples=120, seed=2, prune=True, processes=2,
                     jsonl_path=paths["pooled"])
        assert pruned.pruning_stats.duplicates_collapsed == 2
        assert_jsonl_identical(paths["pruned"], paths["plain"])
        assert_jsonl_identical(paths["pooled"], paths["plain"])
