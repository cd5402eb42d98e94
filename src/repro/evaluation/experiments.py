"""Experiment drivers regenerating every table and figure of the paper."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import ferrum as ferrum_mod
from repro.core import hybrid as hybrid_mod
from repro.core.config import FerrumConfig
from repro.evaluation.metrics import runtime_overhead, sdc_coverage
from repro.faultinjection.campaign import (
    CampaignResult,
    run_campaign,
    run_ir_campaign,
)
from repro.machine.cpu import Machine
from repro.machine.timing import TimingConfig
from repro.pipeline import build_variants
from repro.workloads import WorkloadSpec, all_workloads, get_workload

#: Protection techniques in the paper's presentation order.
TECHNIQUES: tuple[str, ...] = ("ir-eddi", "hybrid", "ferrum")


def _selected(workloads: tuple[str, ...] | None) -> tuple[WorkloadSpec, ...]:
    if workloads is None:
        return all_workloads()
    return tuple(get_workload(name) for name in workloads)


# -- Table I / Table II --------------------------------------------------


def table1() -> dict[str, dict[str, str]]:
    """The capability matrix (paper Table I): technique -> class -> level."""
    ir_row = {key: "IR" if key == "basic" else "-"
              for key in ferrum_mod.CAPABILITIES}
    return {
        "IR-LEVEL-EDDI": ir_row,
        "HYBRID-ASSEMBLY-LEVEL-EDDI": dict(hybrid_mod.CAPABILITIES),
        "FERRUM": dict(ferrum_mod.CAPABILITIES),
    }


def table2() -> list[dict[str, str]]:
    """Benchmark roster (paper Table II)."""
    return [
        {"Benchmark": spec.name, "Suite": spec.suite, "Domain": spec.domain}
        for spec in all_workloads()
    ]


# -- Fig. 10: SDC coverage -----------------------------------------------


@dataclass
class CoverageRow:
    """One benchmark's coverage numbers across techniques."""

    benchmark: str
    raw: CampaignResult
    campaigns: dict[str, CampaignResult] = field(default_factory=dict)

    def coverage(self, technique: str) -> float:
        return sdc_coverage(
            self.raw.sdc_probability,
            self.campaigns[technique].sdc_probability,
        )


@dataclass
class Fig10Result:
    """SDC coverage per benchmark for each technique (paper Fig. 10)."""

    samples: int
    seed: int
    rows: list[CoverageRow] = field(default_factory=list)

    def average_coverage(self, technique: str) -> float:
        if not self.rows:
            return 0.0
        return sum(row.coverage(technique) for row in self.rows) / len(self.rows)


def run_fig10(
    samples: int = 200,
    seed: int = 2024,
    scale: int = 1,
    workloads: tuple[str, ...] | None = None,
    config: FerrumConfig | None = None,
    processes: int = 1,
) -> Fig10Result:
    """Measure assembly-level SDC coverage for every benchmark/technique.

    For each benchmark: one campaign on the unprotected binary establishes
    ``SDC_raw``; one campaign per technique yields ``SDC_prot``; coverage
    is ``(SDC_raw - SDC_prot) / SDC_raw`` (paper Sec. IV-A3). The paper
    samples 1000 faults per measurement; the default here is smaller so a
    full run stays laptop-friendly — pass ``samples=1000`` to match.
    """
    result = Fig10Result(samples=samples, seed=seed)
    for spec in _selected(workloads):
        build = build_variants(spec.source(scale), config=config)
        raw_campaign = run_campaign(build["raw"].asm, samples, seed=seed,
                                    processes=processes)
        row = CoverageRow(spec.name, raw_campaign)
        for technique in TECHNIQUES:
            row.campaigns[technique] = run_campaign(
                build[technique].asm, samples, seed=seed, processes=processes
            )
        result.rows.append(row)
    return result


# -- Fig. 11: runtime performance overhead -------------------------------


@dataclass
class Fig11Result:
    """Runtime overhead per benchmark for each technique (paper Fig. 11)."""

    rows: list[dict[str, object]] = field(default_factory=list)

    def average_overhead(self, technique: str) -> float:
        if not self.rows:
            return 0.0
        return sum(float(row[technique]) for row in self.rows) / len(self.rows)


def run_fig11(
    scale: int = 1,
    timing: TimingConfig | None = None,
    workloads: tuple[str, ...] | None = None,
    config: FerrumConfig | None = None,
    repeats: int = 1,
) -> Fig11Result:
    """Measure runtime overhead under the cycle model for every benchmark.

    The paper averages three wall-clock executions; the cycle model is
    deterministic, so one run per variant is the default. ``repeats > 1``
    re-times each variant on the same machine and asserts equal counts.
    """
    timing = timing or TimingConfig()
    result = Fig11Result()
    for spec in _selected(workloads):
        build = build_variants(spec.source(scale), config=config)
        cycles: dict[str, int] = {}
        for name, variant in build.variants.items():
            machine = Machine(variant.asm)
            runs = {machine.run(timing=timing).cycles for _ in range(repeats)}
            if len(runs) != 1:
                raise AssertionError(
                    f"non-deterministic cycle counts for {spec.name}/{name}"
                )
            cycles[name] = runs.pop()
        row: dict[str, object] = {"benchmark": spec.name,
                                  "raw_cycles": cycles["raw"]}
        for technique in TECHNIQUES:
            row[technique] = runtime_overhead(cycles[technique], cycles["raw"])
        result.rows.append(row)
    return result


# -- Sec. IV-B3: transform execution time ---------------------------------


@dataclass
class TransformTimeResult:
    """FERRUM transform wall-clock vs static size (paper Sec. IV-B3)."""

    rows: list[dict[str, object]] = field(default_factory=list)

    @property
    def average_seconds(self) -> float:
        if not self.rows:
            return 0.0
        return sum(float(r["seconds"]) for r in self.rows) / len(self.rows)


def run_transform_time(
    scale: int = 1,
    repeats: int = 5,
    workloads: tuple[str, ...] | None = None,
    config: FerrumConfig | None = None,
) -> TransformTimeResult:
    """Time the FERRUM transform per benchmark (best of ``repeats``).

    The paper reports 0.089-0.196 s and observes the time scales with the
    static instruction count; both columns are reproduced here.
    """
    from repro.backend import compile_module
    from repro.core.ferrum import protect_program
    from repro.minic import compile_to_ir

    result = TransformTimeResult()
    for spec in _selected(workloads):
        asm = compile_module(compile_to_ir(spec.source(scale)))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            protected, stats = protect_program(asm, config)
            best = min(best, time.perf_counter() - start)
        result.rows.append({
            "benchmark": spec.name,
            "static_instructions": asm.static_size(),
            "output_instructions": protected.static_size(),
            "seconds": best,
        })
    return result


# -- Sec. I / IV-B1: cross-layer coverage gap ------------------------------


@dataclass
class GapResult:
    """IR-level (anticipated) vs assembly-level (measured) IR-EDDI coverage."""

    samples: int
    seed: int
    rows: list[dict[str, object]] = field(default_factory=list)

    @property
    def average_gap(self) -> float:
        if not self.rows:
            return 0.0
        return sum(float(r["gap"]) for r in self.rows) / len(self.rows)


def run_crosslayer_gap(
    samples: int = 200,
    seed: int = 77,
    scale: int = 1,
    workloads: tuple[str, ...] | None = None,
    processes: int = 1,
) -> GapResult:
    """Measure IR-EDDI coverage twice: with IR-level and assembly-level
    injection (the paper's headline 28 % anticipated-vs-measured gap)."""
    result = GapResult(samples=samples, seed=seed)
    for spec in _selected(workloads):
        build = build_variants(spec.source(scale), names=("raw", "ir-eddi"))
        raw_ir = run_ir_campaign(build["raw"].ir, samples, seed=seed)
        prot_ir = run_ir_campaign(build["ir-eddi"].ir, samples, seed=seed)
        raw_asm = run_campaign(build["raw"].asm, samples, seed=seed,
                               processes=processes)
        prot_asm = run_campaign(build["ir-eddi"].asm, samples, seed=seed,
                                processes=processes)
        anticipated = sdc_coverage(raw_ir.sdc_probability,
                                   prot_ir.sdc_probability)
        measured = sdc_coverage(raw_asm.sdc_probability,
                                prot_asm.sdc_probability)
        result.rows.append({
            "benchmark": spec.name,
            "anticipated": anticipated,
            "measured": measured,
            "gap": anticipated - measured,
        })
    return result


# -- telemetry: per-fault observability campaign -------------------------


def run_telemetry(
    workload: str = "kmeans",
    technique: str = "ferrum",
    samples: int = 200,
    seed: int = 2024,
    scale: int = 1,
    jsonl_path: str | None = None,
    config: FerrumConfig | None = None,
    converge: bool = False,
) -> CampaignResult:
    """One per-fault observability campaign on one benchmark/technique binary.

    The experiment behind ``ferrum-eval telemetry``: every injected fault
    comes back as a :class:`FaultRecord`, so the evaluation layer can
    render the per-origin breakdown, the per-site outcome map, the
    detection-latency histogram, and the checkpoint-engine stats.
    ``jsonl_path`` additionally streams the records to disk.
    ``converge=True`` enables convergence early-exit (same counts, records
    and bytes; ``result.convergence_stats`` reports the economics).
    """
    variants = ("raw",) if technique == "raw" else ("raw", technique)
    build = build_variants(get_workload(workload).source(scale),
                           names=variants, config=config)
    return run_campaign(build[technique].asm, samples, seed=seed,
                        jsonl_path=jsonl_path, converge=converge)


# -- compose: incremental sectioned campaign -----------------------------


def run_compose(
    workload: str = "kmeans",
    technique: str = "ferrum",
    samples: int = 200,
    seed: int = 2024,
    scale: int = 1,
    cache_dir: str | None = None,
    reinject: tuple[str, ...] = (),
    prune: bool = False,
    jsonl_path: str | None = None,
    config: FerrumConfig | None = None,
    converge: bool = False,
) -> CampaignResult:
    """One compositional campaign on one benchmark/technique binary.

    The incremental-re-protection experiment behind ``ferrum-eval
    compose``: the program is partitioned into function/loop-nest
    sections, each section's sub-campaign is served from the
    content-addressed cache at ``cache_dir`` when its code (and transitive
    callees) are unchanged, and only stale or ``reinject``-ed sections
    re-execute. Outcome counts, fault records and JSONL output are
    bit-identical to the flat :func:`run_campaign` with the same seed.
    """
    from repro.faultinjection.compose import compose_campaign

    variants = ("raw",) if technique == "raw" else ("raw", technique)
    build = build_variants(get_workload(workload).source(scale),
                           names=variants, config=config)
    return compose_campaign(
        build[technique].asm, samples, seed=seed, jsonl_path=jsonl_path,
        prune=prune, cache_dir=cache_dir, refresh=reinject,
        converge=converge,
    )
