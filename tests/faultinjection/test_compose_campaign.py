"""Compositional campaigns: flat-equivalent by construction, cached by content.

``compose_campaign`` partitions the dynamic fault-site population into
function/loop-nest sections, runs per-section sub-campaigns off shared
prefix snapshots, and composes the results. For any fixed seed the
composed campaign must be bit-identical to the flat ``run_campaign`` —
counts, per-origin maps, telemetry records and JSONL bytes — across
machine engines, ``prune`` and ``processes``. The on-disk section cache
must serve warm reruns without executing a single injection and
invalidate exactly the sections whose code changed.
"""

import json
import os

import pytest

from repro.errors import InjectionError
from repro.faultinjection.campaign import run_campaign, run_ir_campaign
from repro.faultinjection.compose import (
    SectionCache,
    _ProgramIndex,
    compose_campaign,
    trace_sections,
)
from repro.faultinjection.telemetry import read_jsonl
from repro.machine.cpu import Machine
from repro.minic import compile_to_ir
from repro.pipeline import build_variants
from repro.workloads import get_workload
from tests.faultinjection.parity import (
    assert_campaigns_identical,
    assert_jsonl_identical,
    assert_origin_maps_identical,
)

#: Four workloads (the acceptance bar) mixing single-function programs
#: (bfs: sections come from loop nests) and helper-calling ones (knn,
#: pathfinder, needle: helper sites interleave with main's).
WORKLOADS = ("bfs", "knn", "pathfinder", "needle")
SAMPLES = 20
SEED = 21


@pytest.fixture(scope="module")
def built():
    return {
        name: build_variants(get_workload(name).source(1),
                             names=("ferrum",))["ferrum"].asm
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def flat(built):
    """One flat telemetry campaign per workload — the reference results."""
    return {
        name: run_campaign(program, samples=SAMPLES, seed=SEED,
                           telemetry=True)
        for name, program in built.items()
    }


class TestComposedBitIdentity:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_counts_and_records_identical(self, built, flat, name):
        composed = run_composed(built[name])
        assert_campaigns_identical(composed, flat[name], context=name)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_per_origin_maps_identical(self, built, flat, name):
        composed = run_composed(built[name])
        assert_origin_maps_identical(composed.records, flat[name].records,
                                     context=name)

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("machine_engine",
                             ("translated", "fused", "reference"))
    def test_machine_engines_identical(self, built, flat, name,
                                       machine_engine, monkeypatch):
        monkeypatch.setenv("FERRUM_ENGINE", machine_engine)
        composed = run_composed(built[name])
        assert_campaigns_identical(composed, flat[name],
                                   context=f"{name}/{machine_engine}")

    @pytest.mark.parametrize("engine", ("checkpoint", "replay"))
    def test_campaign_engines_identical(self, built, flat, engine):
        """Compose's reference is the flat campaign under either engine."""
        reference = run_campaign(built["knn"], samples=SAMPLES, seed=SEED,
                                 telemetry=True, engine=engine)
        assert_campaigns_identical(run_composed(built["knn"]), reference,
                                   context=engine)

    @pytest.mark.parametrize("name", ("knn", "pathfinder"))
    def test_prune_identical(self, built, flat, name):
        composed = run_composed(built[name], prune=True)
        assert_campaigns_identical(composed, flat[name], context=name)
        assert composed.pruning_stats is not None

    @pytest.mark.parametrize("kwargs", (
        dict(processes=3),
        dict(processes=3, prune=True),
    ))
    def test_parallel_identical(self, built, flat, kwargs):
        composed = run_composed(built["knn"], **kwargs)
        assert_campaigns_identical(composed, flat["knn"])

    def test_jsonl_byte_identical(self, built, tmp_path):
        flat_path = tmp_path / "flat.jsonl"
        composed_path = tmp_path / "composed.jsonl"
        run_campaign(built["knn"], samples=SAMPLES, seed=SEED,
                     jsonl_path=flat_path)
        run_composed(built["knn"], telemetry=False,
                     jsonl_path=composed_path)
        assert_jsonl_identical(composed_path, flat_path)

    def test_pruned_jsonl_byte_identical(self, built, tmp_path):
        flat_path = tmp_path / "flat.jsonl"
        composed_path = tmp_path / "composed.jsonl"
        run_campaign(built["knn"], samples=SAMPLES, seed=SEED,
                     jsonl_path=flat_path, prune=True)
        run_composed(built["knn"], telemetry=False,
                     jsonl_path=composed_path, prune=True)
        assert_jsonl_identical(composed_path, flat_path)


def run_composed(program, telemetry=True, **kwargs):
    return compose_campaign(program, samples=SAMPLES, seed=SEED,
                            telemetry=telemetry, **kwargs)


class TestSectionPartition:
    def test_sections_partition_the_population(self, built):
        program = built["knn"]
        golden, sections = trace_sections(program)
        assert sections[0].start_site == 0
        assert sections[-1].end_site == golden.fault_sites
        for left, right in zip(sections, sections[1:]):
            assert left.end_site == right.start_site
            assert left.region != right.region  # maximal runs
        names = set(program.function_names())
        assert all(section.function in names for section in sections)

    def test_helper_sites_interleave(self, built):
        _, sections = trace_sections(built["knn"])
        assert sum(s.function == "sq_dist" for s in sections) > 1

    def test_loop_nests_form_regions(self, built):
        _, sections = trace_sections(built["bfs"])
        assert any("@" in section.region for section in sections)

    def test_golden_run_matches_plain_run(self, built):
        program = built["pathfinder"]
        golden, _ = trace_sections(program)
        plain = Machine(program).run()
        assert golden.output == plain.output
        assert golden.exit_code == plain.exit_code
        assert golden.fault_sites == plain.fault_sites
        assert golden.dynamic_instructions == plain.dynamic_instructions


class TestSectionCache:
    def test_warm_rerun_is_identical_and_free(self, built, flat, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_composed(built["knn"], cache_dir=cache_dir)
        warm = run_composed(built["knn"], cache_dir=cache_dir)
        assert_campaigns_identical(cold, flat["knn"], context="cold")
        assert_campaigns_identical(warm, flat["knn"], context="warm")
        assert cold.compose_stats.cache_hits == 0
        assert warm.compose_stats.cache_misses == 0
        assert warm.compose_stats.executed_injections == 0
        assert (warm.compose_stats.cached_injections
                == cold.compose_stats.executed_injections)

    def test_fresh_uids_still_hit(self, built, tmp_path):
        """Keys address content, not object identity: a deep copy of the
        program (new instruction uids) must be served fully from cache."""
        cache_dir = tmp_path / "cache"
        run_composed(built["pathfinder"], cache_dir=cache_dir)
        warm = run_composed(built["pathfinder"].copy(), cache_dir=cache_dir)
        assert warm.compose_stats.executed_injections == 0

    def test_refresh_reexecutes_named_function_only(self, built, flat,
                                                    tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_composed(built["knn"], cache_dir=cache_dir)
        refreshed = run_composed(built["knn"], cache_dir=cache_dir,
                                 refresh=("sq_dist",))
        assert_campaigns_identical(refreshed, flat["knn"])
        stats = refreshed.compose_stats
        assert stats.refreshed_sections > 0
        assert stats.cache_misses == stats.refreshed_sections
        assert stats.executed_injections < cold.compose_stats.executed_injections

    def test_refresh_unknown_function_raises(self, built, tmp_path):
        with pytest.raises(InjectionError, match="unknown function"):
            run_composed(built["knn"], cache_dir=tmp_path / "cache",
                         refresh=("nonesuch",))

    def test_editing_one_function_invalidates_only_its_sections(
        self, built, tmp_path
    ):
        """A content edit to one function misses exactly that function's
        sections; everything else hits, and the composed result equals a
        flat campaign on the edited program."""
        cache_dir = tmp_path / "cache"
        program = built["knn"]
        cold = run_composed(program, cache_dir=cache_dir)

        edited = program.copy()
        target = edited.function("sq_dist")
        # A comment is part of the printed code bytes (and so of the
        # section content hash) but not of behavior: the dynamic trace,
        # plan routing and outcomes are unchanged — the pure cache-key
        # experiment.
        target.entry.instructions[0].comment = "edited"
        after = run_composed(edited, cache_dir=cache_dir)
        flat_edited = run_campaign(edited, samples=SAMPLES, seed=SEED,
                                   telemetry=True)
        assert_campaigns_identical(after, flat_edited)

        stats = after.compose_stats
        cold_stats = cold.compose_stats
        assert 0 < stats.cache_misses < cold_stats.cache_misses
        assert stats.cache_hits == (cold_stats.populated_sections
                                    - stats.cache_misses)
        # The misses are exactly the plan-holding sections whose region
        # content digest the edit changed: sq_dist's own sections plus
        # sections of regions that can call into sq_dist (their behavior
        # includes the edited code). Regions that cannot reach sq_dist
        # must all hit.
        before_index = _ProgramIndex(program)
        after_index = _ProgramIndex(edited)
        _, edited_sections = trace_sections(edited)
        sampled_sites = [record.site_index for record in after.records]
        invalidated = populated = 0
        for section in edited_sections:
            if not any(section.start_site <= site < section.end_site
                       for site in sampled_sites):
                continue
            populated += 1
            if (after_index.region_digest(section.region)
                    != before_index.region_digest(section.region)):
                invalidated += 1
        assert populated == cold_stats.populated_sections
        assert stats.cache_misses == invalidated
        assert any(section.function == "sq_dist"
                   for section in edited_sections)

    def test_cache_grows_new_entries_for_edit(self, built, tmp_path):
        cache_dir = tmp_path / "cache"
        run_composed(built["knn"], cache_dir=cache_dir)
        before = SectionCache(cache_dir).keys()
        edited = built["knn"].copy()
        edited.function("sq_dist").entry.instructions[0].comment = "edited"
        run_composed(edited, cache_dir=cache_dir)
        after = SectionCache(cache_dir).keys()
        assert before < after  # old entries intact, new ones added

    def test_corrupt_entry_is_a_miss(self, built, tmp_path):
        cache_dir = tmp_path / "cache"
        run_composed(built["pathfinder"], cache_dir=cache_dir)
        for name in os.listdir(cache_dir):
            with open(cache_dir / name, "w", encoding="utf-8") as handle:
                handle.write("{not json")
        warm = run_composed(built["pathfinder"], cache_dir=cache_dir)
        assert warm.compose_stats.cache_hits == 0
        assert warm.compose_stats.executed_injections > 0


class TestCampaignParityFixes:
    """The satellite fixes: jsonl_mode threading and IR prune parity."""

    def test_jsonl_append_mode_accumulates(self, built, tmp_path):
        path = tmp_path / "campaign.jsonl"
        solo = tmp_path / "second.jsonl"
        run_campaign(built["knn"], samples=5, seed=1, jsonl_path=path)
        first_bytes = path.read_bytes()
        run_campaign(built["knn"], samples=5, seed=2, jsonl_path=path,
                     jsonl_mode="a")
        run_campaign(built["knn"], samples=5, seed=2, jsonl_path=solo)
        assert path.read_bytes() == first_bytes + solo.read_bytes()

    def test_jsonl_default_mode_truncates(self, built, tmp_path):
        path = tmp_path / "campaign.jsonl"
        solo = tmp_path / "second.jsonl"
        run_campaign(built["knn"], samples=5, seed=1, jsonl_path=path)
        run_campaign(built["knn"], samples=5, seed=2, jsonl_path=path)
        run_campaign(built["knn"], samples=5, seed=2, jsonl_path=solo)
        assert path.read_bytes() == solo.read_bytes()

    def test_invalid_jsonl_mode_raises(self, built, tmp_path):
        with pytest.raises(InjectionError, match="jsonl_mode"):
            run_campaign(built["knn"], samples=2, seed=1,
                         jsonl_path=tmp_path / "x.jsonl", jsonl_mode="x")

    def test_ir_campaign_jsonl_append(self, tmp_path):
        module = compile_to_ir(get_workload("pathfinder").source(1))
        path = tmp_path / "ir.jsonl"
        run_ir_campaign(module, samples=3, seed=1, jsonl_path=path)
        run_ir_campaign(module, samples=3, seed=2, jsonl_path=path,
                        jsonl_mode="a")
        assert len(read_jsonl(path)) == 6

    def test_ir_prune_raises_descriptive_error(self):
        module = compile_to_ir(get_workload("pathfinder").source(1))
        with pytest.raises(InjectionError,
                           match="assembly-level only"):
            run_ir_campaign(module, samples=2, seed=1, prune=True)

    def test_compose_jsonl_append_mode(self, built, tmp_path):
        path = tmp_path / "composed.jsonl"
        run_composed(built["knn"], telemetry=False, jsonl_path=path)
        run_composed(built["knn"], telemetry=False, jsonl_path=path,
                     jsonl_mode="a")
        assert len(read_jsonl(path)) == 2 * SAMPLES
