"""Tier-2 perf smoke: step throughput across the three machine engines.

The translated engine pre-compiles every static instruction into a
specialized closure (operands resolved to register slots, immediates
folded, flags inlined — see ``docs/performance.md``), so its
instructions/sec must beat the reference handler loop by >= 3x on at
least two workloads. The fused engine concatenates whole basic blocks
into single exec-compiled bodies with dead-flag elision and inlined
memory fast paths, and must beat the translated engine by >= 2x (>= 6x
over reference) on at least two workloads.

Clean runs are timed best-of-3 and campaigns once, with
``time.perf_counter``; every ratio is compared only after the engines'
``RunResult``s and campaign outcome counts are asserted equal. The
measured ratios are printed by ``test_report``; repeated, CPU-clocked
measurement lives in ``perfbench/``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_exec_throughput.py -q``
"""

from __future__ import annotations

import pytest

from conftest import build_for, timed
from repro.faultinjection.campaign import run_campaign
from repro.machine.cpu import ENGINE_ENV_VAR, Machine

pytestmark = pytest.mark.perf

WORKLOADS = ("bfs", "knn", "pathfinder")
ENGINES = ("reference", "translated", "fused")
SAMPLES = 24
SEED = 11
REPEATS = 3
#: The PR-5 gate: >= 3x instructions/sec on at least MIN_WORKLOADS_AT_GATE.
MIN_SPEEDUP = 3.0
MIN_WORKLOADS_AT_GATE = 2
#: The superblock gate: the fused engine must be >= 2x the translated
#: engine and >= 6x the reference loop (measured 2.97-3.10x / 9-12x).
FUSED_MIN_VS_TRANSLATED = 2.0
FUSED_MIN_VS_REFERENCE = 6.0

#: workload -> engine -> best-of-``REPEATS`` clean-run seconds.
_seconds: dict[str, dict[str, float]] = {}


def _clean_run(program, engine: str):
    """The last clean run under ``engine`` and its best-of-3 wall time."""
    machine = Machine(program, engine=engine)
    runs = [timed(machine.run) for _ in range(REPEATS)]
    return runs[-1][0], min(seconds for _, seconds in runs)


@pytest.mark.parametrize("name", WORKLOADS)
def test_translated_engine_faster(name, monkeypatch):
    program = build_for(name)["raw"].asm
    runs = {engine: _clean_run(program, engine) for engine in ENGINES}
    reference = runs["reference"][0]
    for engine in ("translated", "fused"):
        assert runs[engine][0] == reference, (
            f"{name}: {engine} engine disagrees with reference: "
            f"{runs[engine][0]} != {reference}"
        )

    campaigns = {}
    for engine in ENGINES:
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
        campaigns[engine] = timed(run_campaign, program, samples=SAMPLES,
                                  seed=SEED)
    reference_counts = campaigns["reference"][0].outcomes.counts
    for engine in ("translated", "fused"):
        counts = campaigns[engine][0].outcomes.counts
        assert counts == reference_counts, (
            f"{name}: {engine}-engine campaign outcomes diverge: "
            f"{counts} != {reference_counts}"
        )

    seconds = _seconds[name] = {engine: runs[engine][1] for engine in ENGINES}
    instructions = reference.dynamic_instructions
    assert seconds["translated"] < seconds["reference"], (
        f"{name}: translated engine slower than reference "
        f"({instructions / seconds['translated']:.0f} vs "
        f"{instructions / seconds['reference']:.0f} instr/sec)"
    )
    assert campaigns["translated"][1] < campaigns["reference"][1], (
        f"{name}: campaigns gained nothing from the translated engine "
        f"({SAMPLES / campaigns['translated'][1]:.2f} vs "
        f"{SAMPLES / campaigns['reference'][1]:.2f} faults/sec)"
    )
    assert seconds["fused"] < seconds["translated"], (
        f"{name}: fused engine slower than translated "
        f"({instructions / seconds['fused']:.0f} vs "
        f"{instructions / seconds['translated']:.0f} instr/sec)"
    )


def _ratios(name: str) -> tuple[float, float, float]:
    """(translated/ref, fused/translated, fused/ref) instr/sec ratios."""
    seconds = _seconds[name]
    return (seconds["reference"] / seconds["translated"],
            seconds["translated"] / seconds["fused"],
            seconds["reference"] / seconds["fused"])


def test_speedup_gate():
    if len(_seconds) < MIN_WORKLOADS_AT_GATE:
        pytest.skip("not enough throughput measurements collected")
    at_gate = [name for name in _seconds if _ratios(name)[0] >= MIN_SPEEDUP]
    assert len(at_gate) >= MIN_WORKLOADS_AT_GATE, (
        f"only {len(at_gate)}/{len(_seconds)} workloads reach "
        f"{MIN_SPEEDUP:.0f}x instr/sec: "
        + ", ".join(f"{name}={_ratios(name)[0]:.2f}x" for name in _seconds)
    )


def test_fused_speedup_gate():
    if len(_seconds) < MIN_WORKLOADS_AT_GATE:
        pytest.skip("not enough throughput measurements collected")
    at_gate = [
        name for name in _seconds
        if _ratios(name)[1] >= FUSED_MIN_VS_TRANSLATED
        and _ratios(name)[2] >= FUSED_MIN_VS_REFERENCE
    ]
    assert len(at_gate) >= MIN_WORKLOADS_AT_GATE, (
        f"only {len(at_gate)}/{len(_seconds)} workloads reach the fused "
        f"gate ({FUSED_MIN_VS_TRANSLATED:.0f}x over translated, "
        f"{FUSED_MIN_VS_REFERENCE:.0f}x over reference): "
        + ", ".join(
            f"{name}={_ratios(name)[1]:.2f}x/{_ratios(name)[2]:.2f}x"
            for name in _seconds
        )
    )


def test_report(capsys):
    if not _seconds:
        pytest.skip("no throughput measurements collected")
    with capsys.disabled():
        print()
        for name in _seconds:
            translated, fused_vs_translated, fused = _ratios(name)
            print(f"{name}: translated {translated:.2f}x reference, "
                  f"fused {fused_vs_translated:.2f}x translated / "
                  f"{fused:.2f}x reference")
