"""Tier-2 perf smoke: step throughput of the fused engine vs the reference.

The fused engine concatenates whole basic blocks into single exec-compiled
bodies with inlined memory fast paths, over one-instruction single steps
from the same emitter (see ``docs/performance.md``), and must
beat the reference handler loop by >= 6x instructions/sec on at least two
workloads' raw variant. The ferrum variant goes through the same
bit-identity asserts, and its ratio is reported without a gate.

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

#: workload -> engine -> best-of-``REPEATS`` clean-run seconds (raw,
#: the gated variant).
_seconds: dict[str, dict[str, float]] = {}
#: The same for the ferrum variant, reported but not gated.
_ferrum_seconds: dict[str, dict[str, float]] = {}


def _clean_run(program, engine: str):
    """The last clean run under ``engine`` and its best-of-3 wall time."""
    machine = Machine(program, engine=engine)
    runs = [timed(machine.run) for _ in range(REPEATS)]
    return runs[-1][0], min(seconds for _, seconds in runs)


def _measure(label: str, program, monkeypatch):
    """Clean runs and campaigns on both engines, asserted bit-identical.

    Returns ``(reference RunResult, engine -> clean-run seconds,
    engine -> campaign seconds)``.
    """
    runs = {engine: _clean_run(program, engine) for engine in ENGINES}
    reference = runs["reference"][0]
    assert runs["fused"][0] == reference, (
        f"{label}: fused engine disagrees with reference: "
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
        f"{label}: fused-engine campaign outcomes diverge: "
        f"{counts} != {reference_counts}"
    )
    return (reference, {engine: runs[engine][1] for engine in ENGINES},
            {engine: campaigns[engine][1] for engine in ENGINES})


@pytest.mark.parametrize("name", WORKLOADS)
def test_fused_engine_faster(name, monkeypatch):
    build = build_for(name)
    reference, seconds, campaign_seconds = _measure(
        name, build["raw"].asm, monkeypatch)
    _seconds[name] = seconds
    instructions = reference.dynamic_instructions
    assert seconds["fused"] < seconds["reference"], (
        f"{name}: fused engine slower than reference "
        f"({instructions / seconds['fused']:.0f} vs "
        f"{instructions / seconds['reference']:.0f} instr/sec)"
    )
    assert campaign_seconds["fused"] < campaign_seconds["reference"], (
        f"{name}: campaigns gained nothing from the fused engine "
        f"({SAMPLES / campaign_seconds['fused']:.2f} vs "
        f"{SAMPLES / campaign_seconds['reference']:.2f} faults/sec)"
    )
    # FERRUM's vector checks run fused too: same identity asserts, and
    # its ratio is reported, not gated.
    _ferrum_seconds[name] = _measure(f"{name}/ferrum", build["ferrum"].asm,
                                     monkeypatch)[1]


def _ratio(name: str, table=_seconds) -> float:
    """Fused / reference instr/sec."""
    seconds = table[name]
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
        for name in _ferrum_seconds:
            print(f"{name}/ferrum: fused "
                  f"{_ratio(name, _ferrum_seconds):.2f}x reference")
