"""Tier-2 perf smoke: step throughput of the fused engine vs the reference.

The fused engine concatenates whole basic blocks into single exec-compiled
bodies with inlined memory fast paths, over one-instruction single steps
from the same emitter (see ``docs/performance.md``), and must
beat the reference handler loop by >= 6x instructions/sec on at least two
workloads.

Clean runs are timed best-of-3 and campaigns once, with
``time.perf_counter``; the ratio is compared only after the engines'
``RunResult``s and campaign outcome counts are asserted equal. The
measured ratios are printed by ``test_report``; repeated, CPU-clocked
measurement lives in ``perfbench/``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_exec_throughput.py -q``
"""

from __future__ import annotations

import pytest

from conftest import build_for, timed
from repro.faultinjection.campaign import run_campaign
from repro.machine.cpu import ENGINE_ENV_VAR, ENGINES, Machine

pytestmark = pytest.mark.perf

WORKLOADS = ("bfs", "knn", "pathfinder")
SAMPLES = 24
SEED = 11
REPEATS = 3
MIN_WORKLOADS_AT_GATE = 2
#: The superblock gate: the fused engine must be >= 6x the reference loop
#: (measured 9-12x).
FUSED_MIN_VS_REFERENCE = 6.0

#: workload -> engine -> best-of-``REPEATS`` clean-run seconds.
_seconds: dict[str, dict[str, float]] = {}


def _clean_run(program, engine: str):
    """The last clean run under ``engine`` and its best-of-3 wall time."""
    machine = Machine(program, engine=engine)
    runs = [timed(machine.run) for _ in range(REPEATS)]
    return runs[-1][0], min(seconds for _, seconds in runs)


@pytest.mark.parametrize("name", WORKLOADS)
def test_fused_engine_faster(name, monkeypatch):
    program = build_for(name)["raw"].asm
    runs = {engine: _clean_run(program, engine) for engine in ENGINES}
    reference = runs["reference"][0]
    assert runs["fused"][0] == reference, (
        f"{name}: fused engine disagrees with reference: "
        f"{runs['fused'][0]} != {reference}"
    )

    campaigns = {}
    for engine in ENGINES:
        monkeypatch.setenv(ENGINE_ENV_VAR, engine)
        campaigns[engine] = timed(run_campaign, program, samples=SAMPLES,
                                  seed=SEED)
    counts = campaigns["fused"][0].outcomes.counts
    reference_counts = campaigns["reference"][0].outcomes.counts
    assert counts == reference_counts, (
        f"{name}: fused-engine campaign outcomes diverge: "
        f"{counts} != {reference_counts}"
    )

    seconds = _seconds[name] = {engine: runs[engine][1] for engine in ENGINES}
    instructions = reference.dynamic_instructions
    assert seconds["fused"] < seconds["reference"], (
        f"{name}: fused engine slower than reference "
        f"({instructions / seconds['fused']:.0f} vs "
        f"{instructions / seconds['reference']:.0f} instr/sec)"
    )
    assert campaigns["fused"][1] < campaigns["reference"][1], (
        f"{name}: campaigns gained nothing from the fused engine "
        f"({SAMPLES / campaigns['fused'][1]:.2f} vs "
        f"{SAMPLES / campaigns['reference'][1]:.2f} faults/sec)"
    )


def _ratio(name: str) -> float:
    """Fused / reference instr/sec."""
    seconds = _seconds[name]
    return seconds["reference"] / seconds["fused"]


def test_fused_speedup_gate():
    if len(_seconds) < MIN_WORKLOADS_AT_GATE:
        pytest.skip("not enough throughput measurements collected")
    at_gate = [name for name in _seconds
               if _ratio(name) >= FUSED_MIN_VS_REFERENCE]
    assert len(at_gate) >= MIN_WORKLOADS_AT_GATE, (
        f"only {len(at_gate)}/{len(_seconds)} workloads reach the fused "
        f"gate ({FUSED_MIN_VS_REFERENCE:.0f}x over reference): "
        + ", ".join(f"{name}={_ratio(name):.2f}x" for name in _seconds)
    )


def test_report(capsys):
    if not _seconds:
        pytest.skip("no throughput measurements collected")
    with capsys.disabled():
        print()
        for name in _seconds:
            print(f"{name}: fused {_ratio(name):.2f}x reference")
