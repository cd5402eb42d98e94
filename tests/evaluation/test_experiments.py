"""Evaluation-harness tests (small campaigns on a subset of workloads)."""

import pytest

from repro.evaluation.experiments import (
    TECHNIQUES,
    run_crosslayer_gap,
    run_fig10,
    run_fig11,
    run_transform_time,
    table1,
    table2,
)
from repro.evaluation.metrics import sdc_coverage
from repro.faultinjection.campaign import run_campaign, run_ir_campaign
from repro.pipeline import build_variants
from repro.workloads import get_workload


class TestTables:
    def test_table1_rows(self):
        data = table1()
        assert set(data) == {"IR-LEVEL-EDDI", "HYBRID-ASSEMBLY-LEVEL-EDDI",
                             "FERRUM"}
        assert data["FERRUM"]["branch"] == "AS2"
        assert data["HYBRID-ASSEMBLY-LEVEL-EDDI"]["branch"] == "IR"
        assert data["IR-LEVEL-EDDI"]["basic"] == "IR"
        assert data["IR-LEVEL-EDDI"]["store"] == "-"

    def test_table2_matches_registry(self):
        rows = table2()
        assert len(rows) == 8
        assert rows[0]["Benchmark"] == "backprop"
        assert all(r["Suite"] == "Rodinia" for r in rows)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig11(workloads=("bfs",))

    def test_row_structure(self, result):
        (row,) = result.rows
        assert row["benchmark"] == "bfs"
        assert row["raw_cycles"] > 0

    def test_overhead_ordering(self, result):
        """The paper's headline: FERRUM < IR-EDDI < HYBRID."""
        (row,) = result.rows
        assert row["ferrum"] < row["ir-eddi"] < row["hybrid"]

    def test_all_overheads_positive(self, result):
        (row,) = result.rows
        assert all(row[t] > 0 for t in TECHNIQUES)

    def test_average_overhead(self, result):
        for technique in TECHNIQUES:
            assert result.average_overhead(technique) == \
                pytest.approx(result.rows[0][technique])


class TestTransformTime:
    def test_rows_and_average(self):
        result = run_transform_time(repeats=1, workloads=("bfs", "knn"))
        assert len(result.rows) == 2
        assert all(r["seconds"] > 0 for r in result.rows)
        assert all(r["output_instructions"] > r["static_instructions"]
                   for r in result.rows)
        assert result.average_seconds > 0


class TestFig10Small:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig10(samples=30, seed=11, workloads=("knn",))

    def test_protected_campaigns_present(self, result):
        (row,) = result.rows
        assert set(row.campaigns) == set(TECHNIQUES)

    def test_full_coverage_for_assembly_techniques(self, result):
        (row,) = result.rows
        assert row.coverage("ferrum") == 1.0
        assert row.coverage("hybrid") == 1.0

    def test_raw_shows_sdcs(self, result):
        (row,) = result.rows
        assert row.raw.sdc_probability > 0

    def test_rows_equal_direct_campaigns(self, result):
        """``run_fig10`` is Fig. 10's one definition: each count is the
        seeded campaign on that variant, as the benchmarks assume."""
        (row,) = result.rows
        build = build_variants(get_workload("knn").source(1))
        campaigns = {"raw": row.raw, **row.campaigns}
        for variant, campaign in campaigns.items():
            direct = run_campaign(build[variant].asm, 30, seed=11)
            assert campaign.outcomes.counts == direct.outcomes.counts, variant


class TestComposeSmall:
    def test_compose_matches_flat_and_caches(self, tmp_path):
        from repro.evaluation.experiments import run_compose, run_telemetry

        def portable(result):
            # Each run_* builds its own program object, so process-local
            # instruction uids differ; everything observable must not.
            records = []
            for record in result.records:
                data = record.to_json()
                data.pop("instruction_uid", None)
                records.append(data)
            return records

        flat = run_telemetry(workload="knn", samples=25, seed=8)
        cold = run_compose(workload="knn", samples=25, seed=8,
                           cache_dir=tmp_path / "cache")
        assert cold.outcomes.counts == flat.outcomes.counts
        assert portable(cold) == portable(flat)
        assert cold.compose_stats.cache_hits == 0
        warm = run_compose(workload="knn", samples=25, seed=8,
                           cache_dir=tmp_path / "cache")
        assert portable(warm) == portable(flat)
        assert warm.compose_stats.executed_injections == 0
        assert warm.compose_stats.hit_rate == 1.0


class TestGapSmall:
    def test_gap_row_structure(self):
        result = run_crosslayer_gap(samples=25, seed=8, workloads=("knn",))
        (row,) = result.rows
        assert 0.0 <= float(row["measured"]) <= 1.0
        assert float(row["gap"]) == pytest.approx(
            float(row["anticipated"]) - float(row["measured"])
        )

    def test_campaigns_equal_direct_campaigns(self, monkeypatch):
        """``run_crosslayer_gap`` is the gap's one definition: its four
        campaigns are the seeded IR- and assembly-level campaigns on each
        variant, as the benchmarks assume. The campaigns are recorded
        because the row keeps only coverages, which are 1.0 at this
        size."""
        from repro.evaluation import experiments

        ran = []

        def recording(run):
            def wrapper(*args, **kwargs):
                ran.append(run(*args, **kwargs))
                return ran[-1]
            return wrapper

        monkeypatch.setattr(experiments, "run_campaign",
                            recording(run_campaign))
        monkeypatch.setattr(experiments, "run_ir_campaign",
                            recording(run_ir_campaign))
        result = run_crosslayer_gap(samples=25, seed=8, workloads=("knn",))
        (row,) = result.rows
        build = build_variants(get_workload("knn").source(1),
                               names=("raw", "ir-eddi"))
        direct = ([run_ir_campaign(build[v].ir, 25, seed=8)
                   for v in ("raw", "ir-eddi")]
                  + [run_campaign(build[v].asm, 25, seed=8)
                     for v in ("raw", "ir-eddi")])
        assert ([c.outcomes.counts for c in ran]
                == [c.outcomes.counts for c in direct])
        raw_ir, prot_ir, raw_asm, prot_asm = ran
        assert row["anticipated"] == sdc_coverage(raw_ir.sdc_probability,
                                                  prot_ir.sdc_probability)
        assert row["measured"] == sdc_coverage(raw_asm.sdc_probability,
                                               prot_asm.sdc_probability)
