"""Fault-record tests: records, aggregation, streaming, engine invariance.

Every injection returns one :class:`FaultRecord`, and every campaign keeps
one per sample. Several tests here compare the checkpoint and replay
engines, and sequential and parallel runs, record by record.
"""

import json

import pytest

from repro.faultinjection.campaign import run_campaign, run_ir_campaign
from repro.faultinjection.injector import FaultPlan, inject_asm_fault
from repro.faultinjection.outcome import Outcome, OutcomeCounts
from repro.faultinjection.telemetry import (
    CheckpointStats,
    FaultRecord,
    JsonlSink,
    TelemetryAggregate,
    detection_latencies,
    latency_histogram,
    normalize_origin,
    outcomes_by_instruction,
    outcomes_by_origin,
    read_jsonl,
)
from repro.machine.cpu import Machine
from repro.pipeline import build_variants

SOURCE = """
int main() {
    int acc = 0;
    for (int i = 0; i < 12; i++) { acc += i * 5 + 2; }
    print_int(acc);
    return 0;
}
"""

SAMPLES = 60


@pytest.fixture(scope="module")
def build():
    return build_variants(SOURCE, names=("raw", "ir-eddi", "ferrum"))


def _record(run_index=0, origin="app", outcome=Outcome.BENIGN, latency=None,
            instruction="addl $1, %eax", uid=None):
    return FaultRecord(
        run_index=run_index, level="asm", site_index=run_index,
        instruction=instruction, mnemonic=instruction.split()[0],
        origin=origin, register="eax", bit=3, outcome=outcome,
        detection_latency=latency, instruction_uid=uid,
    )


class TestFaultRecord:
    def test_json_roundtrip(self):
        record = _record(origin="dup", outcome=Outcome.DETECTED, latency=7,
                         uid=99)
        data = record.to_json()
        assert data["outcome"] == "detected"
        assert FaultRecord.from_json(data) == record

    def test_normalize_origin(self):
        assert normalize_origin("orig") == "app"
        for tag in ("dup", "pre", "capture", "check", "instrumentation"):
            assert normalize_origin(tag) == tag


class TestAggregation:
    def test_outcomes_by_origin(self):
        records = [
            _record(0, "app", Outcome.SDC),
            _record(1, "app", Outcome.BENIGN),
            _record(2, "dup", Outcome.DETECTED, latency=3),
        ]
        by = outcomes_by_origin(records)
        assert by["app"][Outcome.SDC] == 1
        assert by["app"].total == 2
        assert by["dup"][Outcome.DETECTED] == 1

    def test_outcomes_by_instruction_prefers_uid(self):
        # Same printed text, different uids: distinct static instructions.
        records = [
            _record(0, uid=1), _record(1, uid=2), _record(2, uid=1),
        ]
        by = outcomes_by_instruction(records)
        assert len(by) == 2
        assert by[("asm", 1)].outcomes.total == 2

    def test_latency_histogram_buckets(self):
        records = [
            _record(i, outcome=Outcome.DETECTED, latency=lat)
            for i, lat in enumerate([0, 1, 1, 5, 9])
        ] + [_record(9, outcome=Outcome.BENIGN)]
        assert detection_latencies(records) == [0, 1, 1, 5, 9]
        buckets = latency_histogram(records)
        assert buckets[0] == (0, 1, 1)
        assert buckets[1] == (1, 2, 2)
        assert buckets[-1] == (8, 16, 1)

    def test_empty_histogram(self):
        assert latency_histogram([_record(0)]) == []


class TestJsonl:
    def test_sink_roundtrip(self, tmp_path):
        path = tmp_path / "faults.jsonl"
        records = [_record(i, outcome=Outcome.DETECTED, latency=i)
                   for i in range(5)]
        with JsonlSink(path) as sink:
            for record in records:
                sink.write(record)
        assert sink.written == 5
        assert read_jsonl(path) == records

    def test_write_after_close_rejected(self, tmp_path):
        sink = JsonlSink(tmp_path / "faults.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.write(_record(0))


class TestInjectorTelemetry:
    def test_record_matches_plain_outcome(self, build):
        """A record resumed from a cursor snapshot equals the one a run
        from instruction 0 returns, stamped with the caller's run index."""
        program = build["ferrum"].asm
        machine = Machine(program)
        golden = machine.run()
        cursor = None
        for site in range(0, golden.fault_sites, 7):
            plan = FaultPlan(site, 0.5, 0.5)
            cursor = machine.run_to_site(site, resume_from=cursor)
            record = inject_asm_fault(program, plan, golden, run_index=site)
            resumed = inject_asm_fault(program, plan, golden, machine=machine,
                                       resume_from=cursor, run_index=site)
            assert isinstance(record, FaultRecord)
            assert resumed == record
            assert record.run_index == site
            assert record.site_index == site
            if record.outcome is Outcome.DETECTED:
                assert record.detection_latency >= 1
            else:
                assert record.detection_latency is None

    def test_origin_attribution(self, build):
        program = build["ferrum"].asm
        golden = Machine(program).run()
        origins = {
            inject_asm_fault(program, FaultPlan(site, 0.5, 0.5),
                             golden).origin
            for site in range(0, golden.fault_sites, 5)
        }
        # FERRUM binaries interleave app code with transform-inserted
        # instructions; telemetry must see both sides.
        assert "app" in origins
        assert origins - {"app"}


class TestCampaignTelemetry:
    def test_one_record_per_sample_in_run_order(self, build):
        result = run_campaign(build["ferrum"].asm, SAMPLES, seed=7)
        assert [r.run_index for r in result.records] == list(range(SAMPLES))

    def test_checkpoint_and_replay_records_identical(self, build):
        program = build["ferrum"].asm
        checkpointed = run_campaign(program, SAMPLES, seed=7)
        replayed = run_campaign(program, SAMPLES, seed=7, engine="replay")
        assert checkpointed.records == replayed.records

    def test_checkpoint_stats_populated(self, build):
        result = run_campaign(build["ferrum"].asm, SAMPLES, seed=7)
        stats = result.checkpoint_stats
        assert isinstance(stats, CheckpointStats)
        assert 0 < stats.snapshots <= SAMPLES
        assert stats.restores == SAMPLES
        assert stats.snapshot_bytes > 0
        assert stats.fast_forward_sites == 0  # exact-site checkpoints
        assert "snapshots" in stats.summary()

    def test_replay_engine_has_no_checkpoint_stats(self, build):
        result = run_campaign(build["ferrum"].asm, 10, seed=7, engine="replay")
        assert result.checkpoint_stats is None

    def test_jsonl_stream_matches_memory(self, build, tmp_path):
        path = tmp_path / "campaign.jsonl"
        result = run_campaign(build["ferrum"].asm, SAMPLES, seed=7,
                              jsonl_path=path)
        assert sorted(read_jsonl(path), key=lambda r: r.run_index) \
            == result.records

    def test_parallel_telemetry_identical(self, build):
        program = build["ferrum"].asm
        sequential = run_campaign(program, SAMPLES, seed=7)
        parallel = run_campaign(program, SAMPLES, seed=7, processes=2)
        assert parallel.records == sequential.records
        assert parallel.outcomes.counts == sequential.outcomes.counts

    def test_detected_faults_have_latency(self, build):
        result = run_campaign(build["ferrum"].asm, SAMPLES, seed=7)
        detected = [r for r in result.records
                    if r.outcome is Outcome.DETECTED]
        assert detected
        assert all(r.detection_latency >= 1 for r in detected)

    def test_record_counts_rebuild_outcome_counts(self, build):
        result = run_campaign(build["ferrum"].asm, SAMPLES, seed=7)
        rebuilt = OutcomeCounts()
        for record in result.records:
            rebuilt.record(record.outcome)
        assert rebuilt.counts == result.outcomes.counts


class TestIRCampaignTelemetry:
    def test_ir_records(self, build):
        module = build["ir-eddi"].ir
        traced = run_ir_campaign(module, 30, seed=3)
        assert len(traced.records) == 30
        assert all(r.level == "ir" for r in traced.records)
        assert all(r.register is None for r in traced.records)
        detected = [r for r in traced.records
                    if r.outcome is Outcome.DETECTED]
        assert all(r.detection_latency >= 1 for r in detected)


class TestDurableJsonl:
    """Crash-durability of the sink and torn-tail tolerance of the reader."""

    def test_unterminated_tail_dropped(self, tmp_path):
        path = tmp_path / "faults.jsonl"
        with JsonlSink(path) as sink:
            sink.write(_record(0))
            sink.write(_record(1))
        with open(path, "ab") as handle:
            handle.write(b'{"run_index": 2, "level"')  # kill -9 mid-write
        assert [r.run_index for r in read_jsonl(path)] == [0, 1]

    def test_unparsable_final_line_dropped(self, tmp_path):
        path = tmp_path / "faults.jsonl"
        with JsonlSink(path) as sink:
            sink.write(_record(0))
        with open(path, "ab") as handle:
            handle.write(b'{"valid_json": "but not a fault record"}\n')
        assert [r.run_index for r in read_jsonl(path)] == [0]

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "faults.jsonl"
        record_line = (json.dumps(_record(0).to_json(), sort_keys=True)
                       + "\n").encode()
        with open(path, "wb") as handle:
            handle.write(record_line)
            handle.write(b"garbage\n")
            handle.write(record_line)
        with pytest.raises(ValueError, match="not the final line"):
            read_jsonl(path)

    def test_sync_after_close_rejected(self, tmp_path):
        sink = JsonlSink(tmp_path / "faults.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.sync()


class TestTelemetryAggregate:
    def _records(self):
        return [
            _record(0, origin="app", outcome=Outcome.BENIGN),
            _record(1, origin="dup", outcome=Outcome.DETECTED, latency=0),
            _record(2, origin="dup", outcome=Outcome.DETECTED, latency=1),
            _record(3, origin="check", outcome=Outcome.DETECTED, latency=5),
            _record(4, origin="app", outcome=Outcome.SDC),
            _record(5, origin="app", outcome=Outcome.CRASH),
        ]

    def test_add_matches_bulk_helpers(self):
        records = self._records()
        aggregate = TelemetryAggregate()
        for record in records:
            aggregate.add(record)
        assert aggregate.records == len(records)
        assert aggregate.counts[Outcome.DETECTED] == 3
        by_origin = outcomes_by_origin(records)
        for origin, counts in aggregate.by_origin.items():
            assert counts.counts == by_origin[origin].counts
        assert aggregate.latency_rows() == latency_histogram(records)

    def test_merge_equals_whole(self):
        records = self._records()
        whole = TelemetryAggregate()
        for record in records:
            whole.add(record)
        # Any partition, any order: shard-wise merge == sequential pass.
        merged = TelemetryAggregate()
        for chunk in (records[4:], records[:2], records[2:4]):
            part = TelemetryAggregate()
            for record in chunk:
                part.add(record)
            merged.merge(part)
        assert merged.to_json() == whole.to_json()
        assert merged.latency_rows() == whole.latency_rows()

    def test_json_roundtrip(self):
        aggregate = TelemetryAggregate()
        for record in self._records():
            aggregate.add(record)
        rebuilt = TelemetryAggregate.from_json(aggregate.to_json())
        assert rebuilt.to_json() == aggregate.to_json()
        assert rebuilt.latency_rows() == aggregate.latency_rows()

    def test_empty(self):
        aggregate = TelemetryAggregate()
        assert aggregate.records == 0
        assert aggregate.latency_rows() == []
        assert TelemetryAggregate.from_json(
            aggregate.to_json()).to_json() == aggregate.to_json()
