"""Durable campaign service tests: compile, supervise, crash, resume.

The headline contract under test: the service can be killed at any
instant (including SIGKILL, including mid-write) and a ``resume`` drives
the campaign to output bytes identical to an uninterrupted run. The
subprocess chaos test exercises exactly that; the in-process tests pin
the pieces it relies on — deterministic sharding, failure/requeue
accounting, quarantine, segment adoption, idempotent finalize.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.faultinjection.campaign import run_campaign
from repro.faultinjection.service import (
    SERVICE_VERSION,
    CampaignSpec,
    ServiceConfig,
    backoff_delay,
    compile_campaign,
    resume_campaign,
    serve_campaign,
)
from repro.pipeline import build_variants
from repro.workloads import get_workload
from tests.faultinjection.parity import assert_jsonl_identical

REPO_ROOT = Path(__file__).resolve().parents[2]

SPEC = CampaignSpec(workloads=("bfs",), techniques=("ferrum",),
                    samples=18, seed=7, shard_size=7)

#: Single-shard raw campaign for cheap failure-path tests.
TINY = CampaignSpec(workloads=("bfs",), techniques=("raw",),
                    samples=6, seed=3, shard_size=6)
TINY_SHARD = "u00-s0000"


def _config(**overrides) -> ServiceConfig:
    base = dict(workers=0, fsync=False, backoff_base=0.01, backoff_cap=0.05)
    base.update(overrides)
    return ServiceConfig(**base)


def _journal_types(state_dir) -> list[str]:
    with open(Path(state_dir) / "journal.jsonl", encoding="utf-8") as handle:
        return [json.loads(line)["type"] for line in handle if line.strip()]


class TestBackoff:
    def test_doubles_then_caps(self):
        delays = [backoff_delay(n, base=0.25, cap=2.0) for n in range(1, 7)]
        assert delays == [0.25, 0.5, 1.0, 2.0, 2.0, 2.0]

    def test_zero_failures_no_delay(self):
        assert backoff_delay(0, base=0.25, cap=2.0) == 0.0


class TestSpec:
    def test_round_trip(self):
        assert CampaignSpec.from_json(SPEC.to_json()) == SPEC

    @pytest.mark.parametrize("bad", [
        dict(workloads=()),
        dict(techniques=()),
        dict(techniques=("rose-gold",)),
        dict(samples=0),
        dict(shard_size=0),
        dict(scale=0),
    ])
    def test_validation(self, bad):
        spec = CampaignSpec(**{**dict(
            workloads=("bfs",), techniques=("raw",), samples=4, seed=1,
        ), **bad})
        with pytest.raises(Exception):
            spec.validate()


class TestConfig:
    @pytest.mark.parametrize("bad, message", [
        (dict(workers=-3), "workers"),
        (dict(max_failures=0), "max_failures"),
        (dict(shard_timeout=0.0), "shard_timeout"),
        (dict(shard_timeout=-1.0), "shard_timeout"),
    ])
    def test_unworkable_config_rejected_before_journal(self, tmp_path, bad,
                                                        message):
        """A config under which no shard could ever complete fails loudly,
        before the state directory or its journal exist."""
        state_dir = tmp_path / "state"
        with pytest.raises(ServiceError, match=message):
            serve_campaign(state_dir, TINY, _config(**bad))
        assert not state_dir.exists()


class TestCompile:
    def test_shard_boundaries_do_not_change_plans(self):
        coarse = compile_campaign(SPEC)[0]
        fine = compile_campaign(
            CampaignSpec(**{**SPEC.to_json(), "shard_size": 5}))[0]

        def plan_set(unit):
            return {(run, plan) for _, plans in unit.shards
                    for run, plan in plans}

        assert plan_set(coarse) == plan_set(fine)
        assert len(coarse.shards) == 3 and len(fine.shards) == 4

    def test_shards_are_contiguous_site_ranges(self):
        unit = compile_campaign(SPEC)[0]
        previous_hi = -1
        for descriptor, plans in unit.shards:
            sites = [plan.site_index for _, plan in plans]
            assert sites == sorted(sites)
            assert descriptor.site_lo == sites[0] >= previous_hi
            assert descriptor.site_hi == sites[-1]
            assert descriptor.plan_count == len(plans)
            previous_hi = descriptor.site_hi

    def test_plans_match_flat_campaign_sampling(self):
        # The exact plans a flat run_campaign(samples, seed) would draw.
        unit = compile_campaign(SPEC)[0]
        program = build_variants(get_workload("bfs").source(1),
                                 names=("raw", "ferrum"))["ferrum"].asm
        flat = run_campaign(program, SPEC.samples, seed=SPEC.seed)
        by_run = {run: plan for _, plans in unit.shards
                  for run, plan in plans}
        for record in flat.records:
            assert by_run[record.run_index].site_index == record.site_index

    def test_shard_ids_and_unit_ids(self):
        units = compile_campaign(CampaignSpec(
            workloads=("bfs",), techniques=("raw", "ferrum"),
            samples=4, seed=1, shard_size=2))
        assert [u.unit_id for u in units] == ["bfs-raw", "bfs-ferrum"]
        assert units[1].shards[0][0].shard_id == "u01-s0000"


class TestServeInProcess:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        state_dir = tmp_path_factory.mktemp("service") / "state"
        report = serve_campaign(state_dir, SPEC, _config())
        return state_dir, report

    def test_completes_with_flat_campaign_counts(self, served):
        _, report = served
        assert report.complete
        assert report.shards == report.done_shards == 3
        program = build_variants(get_workload("bfs").source(1),
                                 names=("raw", "ferrum"))["ferrum"].asm
        flat = run_campaign(program, SPEC.samples, seed=SPEC.seed)
        aggregate = report.aggregates["bfs-ferrum"]
        assert aggregate.records == SPEC.samples
        for outcome, count in flat.outcomes.counts.items():
            assert aggregate.counts[outcome] == count

    def test_results_are_segments_concatenated_in_serve_order(self,
                                                              served):
        state_dir, report = served
        segments = sorted((Path(state_dir) / "segments").iterdir())
        assert len(segments) == 3
        result = Path(report.results["bfs-ferrum"]).read_bytes()
        assert result == b"".join(path.read_bytes() for path in segments)
        records = [json.loads(line) for line in result.splitlines()]
        order = [(record["site_index"], record["run_index"])
                 for record in records]
        assert order == sorted(order)
        assert sorted(run for _, run in order) == list(range(SPEC.samples))

    def test_record_buffer_bounded_by_shard_size(self, served):
        _, report = served
        assert 0 < report.peak_record_buffer <= SPEC.shard_size

    def test_resume_is_idempotent(self, served):
        state_dir, report = served
        before = Path(report.results["bfs-ferrum"]).read_bytes()
        summary_before = Path(report.summary_path).read_bytes()
        again = resume_campaign(state_dir, _config())
        assert again.complete and again.executed_shards == 0
        assert Path(again.results["bfs-ferrum"]).read_bytes() == before
        assert Path(again.summary_path).read_bytes() == summary_before

    def test_serve_again_with_same_spec_is_allowed(self, served):
        state_dir, _ = served
        report = serve_campaign(state_dir, SPEC, _config())
        assert report.complete and report.executed_shards == 0

    def test_serve_with_different_spec_refuses(self, served):
        state_dir, _ = served
        other = CampaignSpec(**{**SPEC.to_json(), "seed": 8})
        with pytest.raises(ServiceError, match="different campaign"):
            serve_campaign(state_dir, other, _config())

    def test_summary_is_deterministic_json(self, served):
        _, report = served
        summary = json.loads(Path(report.summary_path).read_text())
        assert summary["complete"] is True
        unit = summary["units"]["bfs-ferrum"]
        assert unit["records"] == SPEC.samples
        assert unit["shards"] == 3

    def test_forked_workers_produce_identical_bytes(self, served, tmp_path):
        _, report = served
        forked = serve_campaign(tmp_path / "state", SPEC,
                                _config(workers=2))
        assert forked.complete
        assert_jsonl_identical(forked.results["bfs-ferrum"],
                               report.results["bfs-ferrum"])
        assert (Path(forked.summary_path).read_bytes()
                == Path(report.summary_path).read_bytes())


class TestResumeEdges:
    def test_resume_empty_dir_refuses(self, tmp_path):
        with pytest.raises(ServiceError, match="no campaign"):
            resume_campaign(tmp_path / "state", _config())

    def test_version_1_state_dir_refuses(self, tmp_path):
        # Version 1 wrote segments in run-index order; resuming into serve
        # order would mix the two in one result file.
        state_dir = tmp_path / "state"
        os.makedirs(state_dir)
        with open(state_dir / "journal.jsonl", "w", encoding="utf-8") as h:
            h.write(json.dumps({"type": "campaign", "version": 1,
                                "spec": TINY.to_json()},
                               sort_keys=True) + "\n")
        with pytest.raises(ServiceError, match="service version 1"):
            resume_campaign(state_dir, _config())
        assert not os.listdir(state_dir / "segments")

    def test_leases_do_not_count_toward_quarantine(self, tmp_path):
        # A supervisor SIGKILLed mid-lease leaves lease records with no
        # outcome; replay must not treat them as failures, or chaos kills
        # would quarantine healthy shards.
        state_dir = tmp_path / "state"
        os.makedirs(state_dir)
        with open(state_dir / "journal.jsonl", "w", encoding="utf-8") as h:
            h.write(json.dumps({"type": "campaign",
                                "version": SERVICE_VERSION,
                                "spec": TINY.to_json()},
                               sort_keys=True) + "\n")
            for attempt in range(1, 4):
                h.write(json.dumps({"type": "leased", "shard": TINY_SHARD,
                                    "attempt": attempt, "pid": 1},
                                   sort_keys=True) + "\n")
        report = resume_campaign(state_dir, _config(max_failures=2))
        assert report.complete and not report.quarantined

    def test_orphan_segments_are_adopted(self, tmp_path):
        # Worker finished (segment renamed into place) but the supervisor
        # died before journaling "done": resume must adopt, not re-run.
        baseline_dir = tmp_path / "baseline"
        serve_campaign(baseline_dir, SPEC, _config())
        orphan_dir = tmp_path / "orphan"
        os.makedirs(orphan_dir / "segments")
        with open(orphan_dir / "journal.jsonl", "w", encoding="utf-8") as h:
            h.write(json.dumps({"type": "campaign",
                                "version": SERVICE_VERSION,
                                "spec": SPEC.to_json()},
                               sort_keys=True) + "\n")
        for name in os.listdir(baseline_dir / "segments"):
            (orphan_dir / "segments" / name).write_bytes(
                (baseline_dir / "segments" / name).read_bytes())
        report = resume_campaign(orphan_dir, _config())
        assert report.complete
        assert report.executed_shards == 0
        assert report.adopted_segments == report.shards == 3
        assert (Path(report.results["bfs-ferrum"]).read_bytes()
                == (baseline_dir / "results" / "bfs-ferrum.jsonl"
                    ).read_bytes())

    def test_invalid_orphan_segment_is_reexecuted(self, tmp_path):
        state_dir = tmp_path / "state"
        os.makedirs(state_dir / "segments")
        with open(state_dir / "journal.jsonl", "w", encoding="utf-8") as h:
            h.write(json.dumps({"type": "campaign",
                                "version": SERVICE_VERSION,
                                "spec": TINY.to_json()},
                               sort_keys=True) + "\n")
        (state_dir / "segments" / f"{TINY_SHARD}.jsonl").write_text(
            '{"not": "a fault record"}\n{"also": "bad"}\n')
        report = resume_campaign(state_dir, _config())
        assert report.complete
        assert report.adopted_segments == 0
        assert report.executed_shards == 1


class TestFailureHandling:
    def test_transient_failures_are_requeued(self, tmp_path):
        report = serve_campaign(
            tmp_path / "state", TINY,
            _config(fail_shards={TINY_SHARD: 2}, max_failures=4))
        assert report.complete
        types = _journal_types(tmp_path / "state")
        assert types.count("failed") == 2
        assert types.count("done") == 1

    def test_worker_crash_requeues_in_process_mode(self, tmp_path):
        report = serve_campaign(
            tmp_path / "state", TINY,
            _config(workers=1, fail_shards={TINY_SHARD: 1}))
        assert report.complete
        types = _journal_types(tmp_path / "state")
        assert types.count("failed") == 1 and types.count("leased") == 2

    def test_hung_worker_is_killed_and_requeued(self, tmp_path):
        started = time.monotonic()
        report = serve_campaign(
            tmp_path / "state", TINY,
            _config(workers=1, hang_shards={TINY_SHARD: 1},
                    shard_timeout=0.4))
        assert report.complete
        assert time.monotonic() - started < 30  # killed, not waited out
        with open(tmp_path / "state" / "journal.jsonl",
                  encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        failed = [r for r in records if r["type"] == "failed"]
        assert len(failed) == 1 and "timeout" in failed[0]["reason"]

    def test_persistent_failure_quarantines(self, tmp_path):
        state_dir = tmp_path / "state"
        report = serve_campaign(
            state_dir, TINY,
            _config(fail_shards={TINY_SHARD: 99}, max_failures=2))
        assert not report.complete
        assert report.quarantined == (TINY_SHARD,)
        assert "bfs-raw" not in report.results  # unit left unmerged
        artifact = json.loads(
            (state_dir / "quarantine" / f"{TINY_SHARD}.json").read_text())
        assert artifact["failures"] == 2
        assert artifact["unit"] == "bfs-raw"
        assert len(artifact["reasons"]) == 2

    def test_quarantine_is_sticky_until_requeued(self, tmp_path):
        state_dir = tmp_path / "state"
        serve_campaign(state_dir, TINY,
                       _config(fail_shards={TINY_SHARD: 99}, max_failures=2))
        still = resume_campaign(state_dir, _config())
        assert not still.complete and still.executed_shards == 0
        # --requeue-quarantined grants a fresh set of attempts; with the
        # fault gone the campaign now completes normally.
        healed = resume_campaign(state_dir,
                                 _config(requeue_quarantined=True))
        assert healed.complete
        baseline = serve_campaign(tmp_path / "clean", TINY, _config())
        assert_jsonl_identical(healed.results["bfs-raw"],
                               baseline.results["bfs-raw"])


class TestKillAnywhereChaos:
    """SIGKILL the real CLI service mid-run; resumed bytes must match."""

    def _run_cli(self, args, kill_after=None):
        env = {**os.environ, "PYTHONPATH": "src"}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.evaluation.cli", *args],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if kill_after is None:
            return process.wait()
        time.sleep(kill_after)
        process.send_signal(signal.SIGKILL)
        process.wait()
        return -signal.SIGKILL

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        serve_args = ["--samples", "18", "--seed", "7", "--shard-size", "6",
                      "--workers", "2", "--workloads", "bfs",
                      "--techniques", "ferrum", "--no-fsync"]
        baseline = tmp_path / "baseline"
        assert self._run_cli(
            ["serve", "--state-dir", str(baseline), *serve_args]) == 0

        chaos = tmp_path / "chaos"
        self._run_cli(["serve", "--state-dir", str(chaos), *serve_args],
                      kill_after=0.6)
        self._run_cli(["resume", "--state-dir", str(chaos), "--workers",
                       "2", "--no-fsync"], kill_after=0.3)
        for _ in range(10):
            code = self._run_cli(["resume", "--state-dir", str(chaos),
                                  "--workers", "2", "--no-fsync"])
            if code == 0:
                break
        assert code == 0

        result = "results/bfs-ferrum.jsonl"
        assert_jsonl_identical(chaos / result, baseline / result)
        assert ((chaos / "summary.json").read_bytes()
                == (baseline / "summary.json").read_bytes())
