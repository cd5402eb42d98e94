"""Plain-text rendering of experiment results in paper-style tables."""

from __future__ import annotations

from typing import Iterable

from repro.evaluation.experiments import (
    Fig10Result,
    Fig11Result,
    GapResult,
    TECHNIQUES,
    TransformTimeResult,
    table1,
    table2,
)
from repro.faultinjection.compose import ComposeStats
from repro.faultinjection.outcome import Outcome
from repro.faultinjection.telemetry import (
    CheckpointStats,
    ConvergenceStats,
    FaultRecord,
    detection_latencies,
    latency_histogram,
    outcomes_by_instruction,
    outcomes_by_origin,
)
from repro.utils.text import format_table, percent


def render_table1() -> str:
    """Table I: technique capability matrix."""
    data = table1()
    classes = ["basic", "store", "branch", "call", "mapping", "comparison"]
    rows = [
        [name] + [data[name][cls] for cls in classes] for name in data
    ]
    return format_table(
        ["technique"] + classes, rows,
        title="Table I: protection level per instruction class",
    )


def render_table2() -> str:
    """Table II: benchmark roster."""
    rows = [[r["Benchmark"], r["Suite"], r["Domain"]] for r in table2()]
    return format_table(["Benchmark", "Suite", "Domain"], rows,
                        title="Table II: details of benchmarks")


def render_fig10(result: Fig10Result) -> str:
    """Fig. 10: SDC coverage per benchmark per technique."""
    headers = ["benchmark", "SDC_raw"] + [f"{t} cov" for t in TECHNIQUES]
    rows = []
    for row in result.rows:
        cells = [row.benchmark, percent(row.raw.sdc_probability)]
        cells.extend(percent(row.coverage(t)) for t in TECHNIQUES)
        rows.append(cells)
    rows.append(
        ["AVERAGE", ""]
        + [percent(result.average_coverage(t)) for t in TECHNIQUES]
    )
    return format_table(
        headers, rows,
        title=f"Fig. 10: SDC coverage ({result.samples} faults/campaign, "
              f"seed {result.seed})",
    )


def render_fig10_outcomes(result: Fig10Result) -> str:
    """Supplementary per-outcome breakdown behind Fig. 10."""
    headers = ["benchmark", "technique"] + [o.value for o in Outcome]
    rows = []
    for row in result.rows:
        rows.append([row.benchmark, "raw"]
                    + [str(row.raw.outcomes[o]) for o in Outcome])
        for technique in TECHNIQUES:
            campaign = row.campaigns[technique]
            rows.append([row.benchmark, technique]
                        + [str(campaign.outcomes[o]) for o in Outcome])
    return format_table(headers, rows, title="Fault outcome breakdown")


def render_fig11(result: Fig11Result) -> str:
    """Fig. 11: runtime performance overhead."""
    headers = ["benchmark", "raw cycles"] + list(TECHNIQUES)
    rows = []
    for row in result.rows:
        rows.append(
            [row["benchmark"], str(row["raw_cycles"])]
            + [percent(float(row[t])) for t in TECHNIQUES]
        )
    rows.append(
        ["AVERAGE", ""]
        + [percent(result.average_overhead(t)) for t in TECHNIQUES]
    )
    return format_table(headers, rows,
                        title="Fig. 11: runtime performance overhead")


def render_transform_time(result: TransformTimeResult) -> str:
    """Sec. IV-B3: FERRUM execution time vs static size."""
    rows = [
        [r["benchmark"], str(r["static_instructions"]),
         str(r["output_instructions"]), f"{float(r['seconds']) * 1000:.1f} ms"]
        for r in result.rows
    ]
    rows.append(["AVERAGE", "", "", f"{result.average_seconds * 1000:.1f} ms"])
    return format_table(
        ["benchmark", "static instrs", "protected instrs", "transform time"],
        rows, title="Sec. IV-B3: time to execute FERRUM",
    )


def render_origin_breakdown(records: Iterable[FaultRecord]) -> str:
    """Per-provenance outcome table: app code vs transform-inserted code.

    The telemetry counterpart of the paper's Figs. 8/9 narrative — it shows
    directly how faults that land in backend-inserted duplication/capture/
    check instructions fare compared to application instructions.
    """
    by_origin = outcomes_by_origin(records)
    headers = (["origin", "faults"] + [o.value for o in Outcome]
               + ["SDC rate"])
    rows = []
    for origin in sorted(by_origin, key=lambda o: -by_origin[o].total):
        counts = by_origin[origin]
        rows.append([origin, str(counts.total)]
                    + [str(counts[o]) for o in Outcome]
                    + [percent(counts.sdc_probability)])
    return format_table(headers, rows,
                        title="Fault outcomes by instruction provenance")


def render_site_map(records: Iterable[FaultRecord], top: int = 15) -> str:
    """The ``top`` static instructions ranked by SDCs (then by faults).

    A per-site outcome map in the FastFlip sense: which static instructions
    soak up faults, and which of them leak SDCs.
    """
    summaries = sorted(
        outcomes_by_instruction(records).values(),
        key=lambda s: (-s.sdc, -s.outcomes.total),
    )[:top]
    rows = [
        [s.instruction, s.origin, str(s.outcomes.total)]
        + [str(s.outcomes[o]) for o in Outcome]
        for s in summaries
    ]
    headers = ["instruction", "origin", "faults"] + [o.value for o in Outcome]
    return format_table(headers, rows,
                        title=f"Per-site outcomes (top {len(rows)} sites)")


def render_latency_table(records: Iterable[FaultRecord]) -> str:
    """Detection-latency histogram (power-of-two buckets) plus summary.

    Latency is dynamic instructions from the bit flip to ``DetectionExit``
    — the paper's "fast" claim, measured. Empty campaigns (no detections)
    render an explicit note instead of an empty table.
    """
    records = list(records)
    latencies = detection_latencies(records)
    if not latencies:
        return "Detection latency: no detected faults in this campaign."
    buckets = latency_histogram(records)
    peak = max(count for _, _, count in buckets)
    rows = [
        [f"[{lo}, {hi})", str(count), "#" * round(40 * count / peak)]
        for lo, hi, count in buckets
    ]
    latencies.sort()
    median = latencies[len(latencies) // 2]
    title = (
        f"Detection latency over {len(latencies)} detections "
        f"(median {median}, max {latencies[-1]} dynamic instructions)"
    )
    return format_table(["latency (dyn. instrs)", "detections", ""], rows,
                        title=title)


def render_checkpoint_stats(stats: CheckpointStats | None) -> str:
    """One-line checkpoint-engine economics (or a note when absent)."""
    if stats is None:
        return "Checkpoint stats: n/a (replay engine)."
    return "Checkpoint engine: " + stats.summary()


def render_compose_stats(stats: ComposeStats | None) -> str:
    """Section-cache economics of a composed campaign (or a note)."""
    if stats is None:
        return "Compose stats: n/a (flat campaign)."
    return "Composed campaign: " + stats.summary()


def render_convergence_stats(stats: ConvergenceStats | None) -> str:
    """Convergence early-exit economics (or a note when disabled)."""
    if stats is None:
        return "Convergence: n/a (run with --converge to enable)."
    data = stats.summary()
    return (
        f"Convergence early-exit: {data['converged']}/{data['runs']} runs "
        f"converged ({percent(data['converged_fraction'])}), "
        f"{data['instructions_saved']} instructions saved, "
        f"mean distance {data['mean_convergence_distance']} sites, "
        f"{data['boundaries_compared']} boundary compares"
    )


def render_gap(result: GapResult) -> str:
    """Sec. I/IV-B1: anticipated vs measured IR-EDDI coverage."""
    rows = [
        [r["benchmark"], percent(float(r["anticipated"])),
         percent(float(r["measured"])), percent(float(r["gap"]))]
        for r in result.rows
    ]
    rows.append(["AVERAGE", "", "", percent(result.average_gap)])
    return format_table(
        ["benchmark", "anticipated (IR FI)", "measured (asm FI)", "gap"],
        rows,
        title="Cross-layer gap: IR-EDDI coverage, IR-level vs assembly-level "
              "injection",
    )
