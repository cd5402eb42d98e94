"""Tier-2 perf smoke: campaign throughput, checkpointed vs. replay engine.

The checkpointed engine executes the shared golden prefix of a campaign
once and serves every injection from an O(touched pages) snapshot, so its
faults/sec must beat the replay engine by >= 2x at the campaign sizes these
benchmarks actually run (``REPRO_FI_SAMPLES``, default 40).

Outcome-equivalence pruning gets its own gate on FERRUM-protected
variants (where most sampled sites are statically classifiable): the
pruned campaign must execute <= 60% of the sampled injections while
reporting bit-identical aggregate outcome counts.

Compositional campaigns get an incremental gate: with a warm section
cache, re-validating after an edit confined to one helper function must
re-execute <= 25% of the flat campaign's sampled injections.

Convergence early-exit gets two gates: the checkpoint engine with
``converge=True`` must deliver >= 2x faults/sec on at least 2 of
{kmeans, lud, knn} while producing byte-identical telemetry JSONL, and a
masked-fault microbench must show every converged early-site run
finishing after <= 25% of the golden run's dynamic instructions.

Every campaign is timed once with ``time.perf_counter``, and every ratio
is compared only after the campaigns it divides are asserted to agree —
a throughput number for a divergent engine would be meaningless. The
measured ratios are printed by ``test_report``; repeated, CPU-clocked
measurement lives in ``perfbench/``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_campaign_throughput.py -q``
"""

from __future__ import annotations

import pytest

from conftest import FI_SAMPLES, build_for, timed
from repro.faultinjection.campaign import run_campaign

pytestmark = pytest.mark.perf

#: kmeans and lud show the engine's speedup with the most headroom at scale
#: 1 (few early-crash shortcuts, no timeout runs at this seed).
WORKLOADS = ("kmeans", "lud")
SEED = 11
MIN_SPEEDUP = 2.0
#: Pruning gate: on ferrum-protected variants the equivalence scanner must
#: prove enough sites statically that at most 60% of sampled injections
#: actually execute (measured 3-12% executed on these workloads).
MAX_PRUNED_EXECUTED_FRACTION = 0.6
#: Compose gate: after a warm cache and an edit confined to one helper
#: function, re-injection must cost <= 25% of the flat campaign's sampled
#: injections (measured 10-20% on these workload/function pairs — helper
#: sections plus the caller regions whose call closure reaches them).
MAX_COMPOSE_REINJECT_FRACTION = 0.25
#: workload -> helper function whose edit drives the incremental gate.
COMPOSE_EDITS = {"knn": "sq_dist", "needle": "max3"}
#: Convergence gate: the bar is >= 2x on at least 2 of these
#: three (measured 2.3-3.3x on all three at 60 samples, seed 11).
CONVERGE_WORKLOADS = ("kmeans", "lud", "knn")
MIN_CONVERGE_PASSERS = 2
#: Microbench bar: a masked flip in the first eighth of the site
#: population must let the run finish after at most a quarter of the
#: golden run's dynamic instructions (flip prefix + a few trail
#: intervals of divergence-cone comparison).
MAX_CONVERGED_EXECUTED_FRACTION = 0.25
EARLY_SITE_FRACTION = 8  # flips in the first 1/8th of sites

#: One line per measured ratio, printed by ``test_report``.
_measured: list[str] = []


@pytest.mark.parametrize("name", WORKLOADS)
def test_checkpoint_engine_speedup(name):
    program = build_for(name)["raw"].asm
    replay, replay_seconds = timed(run_campaign, program, samples=FI_SAMPLES,
                                   seed=SEED, engine="replay")
    checkpointed, checkpoint_seconds = timed(
        run_campaign, program, samples=FI_SAMPLES, seed=SEED,
        engine="checkpoint")
    assert checkpointed.outcomes.counts == replay.outcomes.counts, (
        f"{name}: engines disagree: "
        f"{checkpointed.outcomes.counts} != {replay.outcomes.counts}"
    )
    speedup = replay_seconds / checkpoint_seconds
    _measured.append(f"{name}: checkpoint {speedup:.2f}x replay")
    assert checkpoint_seconds < replay_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: checkpointed engine only {speedup:.2f}x faster "
        f"({FI_SAMPLES / checkpoint_seconds:.2f} vs "
        f"{FI_SAMPLES / replay_seconds:.2f} faults/sec)"
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_pruned_campaign_gate(name):
    """Pruned campaigns: <= 60% executed injections, identical outcomes.

    Uses the ferrum variant — FERRUM's detectors make the bulk of sampled
    sites provably detected/masked without execution; raw variants have
    almost no statically-classifiable sites and would not exercise the
    scanner.
    """
    program = build_for(name)["ferrum"].asm
    plain = run_campaign(program, samples=FI_SAMPLES, seed=SEED)
    pruned = run_campaign(program, samples=FI_SAMPLES, seed=SEED, prune=True)
    assert pruned.outcomes.counts == plain.outcomes.counts, (
        f"{name}: pruning changed campaign outcomes: "
        f"{pruned.outcomes.counts} != {plain.outcomes.counts}"
    )
    stats = pruned.pruning_stats
    _measured.append(f"{name}: pruned campaign executed "
                     f"{stats.executed_fraction:.0%}")
    assert stats.executed_fraction <= MAX_PRUNED_EXECUTED_FRACTION, (
        f"{name}: pruned campaign executed "
        f"{stats.executed_fraction:.0%} of {stats.samples} sampled "
        f"injections (gate: <= {MAX_PRUNED_EXECUTED_FRACTION:.0%})"
    )


@pytest.mark.parametrize("name,function", sorted(COMPOSE_EDITS.items()))
def test_compose_incremental_gate(name, function, tmp_path):
    """Warm-cache single-function re-injection <= 25% of flat injections.

    Cold composed run populates the section cache; the warm rerun must be
    a 100% hit; ``refresh=(function,)`` models an edit to that one helper
    and may only re-execute its sections plus caller regions reaching it.
    Every composed run is asserted bit-identical to the flat campaign
    before the re-injection fraction is compared.
    """
    from repro.faultinjection.compose import compose_campaign

    program = build_for(name)["ferrum"].asm
    flat = run_campaign(program, samples=FI_SAMPLES, seed=SEED)
    composed = {}
    for phase, refresh in (("cold", ()), ("warm", ()),
                           ("refresh", (function,))):
        composed[phase] = compose_campaign(
            program, samples=FI_SAMPLES, seed=SEED,
            cache_dir=tmp_path / "sections", refresh=refresh,
        )
        assert composed[phase].outcomes.counts == flat.outcomes.counts, (
            f"{name}: composed ({phase}) campaign diverged: "
            f"{composed[phase].outcomes.counts} != {flat.outcomes.counts}"
        )
    warm = composed["warm"].compose_stats
    reinjected = composed["refresh"].compose_stats.executed_injections
    reinject_fraction = reinjected / FI_SAMPLES
    _measured.append(f"{name}: editing {function} re-injected "
                     f"{reinject_fraction:.0%}")
    assert warm.executed_injections == 0, (
        f"{name}: warm composed campaign re-executed "
        f"{warm.executed_injections} injections"
    )
    assert warm.hit_rate == 1.0
    assert reinject_fraction <= MAX_COMPOSE_REINJECT_FRACTION, (
        f"{name}: editing {function} re-injected "
        f"{reinject_fraction:.0%} of {FI_SAMPLES} sampled "
        f"injections (gate: <= {MAX_COMPOSE_REINJECT_FRACTION:.0%})"
    )


def test_converge_speedup_gate(tmp_path):
    """Convergence early-exit: >= 2x faults/sec on >= 2 of three workloads.

    Ferrum variants — their detector instructions dominate the dynamic
    site population and most masked flips hit dead detector registers
    early, which is exactly the population the early-exit targets. No
    speedup counts unless the outcome counts AND the telemetry JSONL are
    byte-identical with the feature off, so the speedup is also a
    bit-identity witness.
    """
    speedups = {}
    for name in CONVERGE_WORKLOADS:
        program = build_for(name)["ferrum"].asm
        base_path = tmp_path / f"{name}-base.jsonl"
        conv_path = tmp_path / f"{name}-converge.jsonl"
        baseline, baseline_seconds = timed(
            run_campaign, program, samples=FI_SAMPLES, seed=SEED,
            engine="checkpoint", telemetry=True, jsonl_path=base_path)
        converged, converge_seconds = timed(
            run_campaign, program, samples=FI_SAMPLES, seed=SEED,
            engine="checkpoint", telemetry=True, jsonl_path=conv_path,
            converge=True)
        assert converged.outcomes.counts == baseline.outcomes.counts, (
            f"{name}: convergence changed campaign outcomes: "
            f"{converged.outcomes.counts} != {baseline.outcomes.counts}"
        )
        assert base_path.read_bytes() == conv_path.read_bytes(), (
            f"{name}: convergence changed telemetry JSONL bytes")
        assert converged.convergence_stats.converged > 0, (
            f"{name}: no run converged — the gate would be vacuous")
        speedups[name] = baseline_seconds / converge_seconds
        _measured.append(f"{name}: converge {speedups[name]:.2f}x")
    passing = [name for name, speedup in speedups.items()
               if speedup >= MIN_SPEEDUP]
    assert len(passing) >= MIN_CONVERGE_PASSERS, (
        f"convergence early-exit reached {MIN_SPEEDUP:.1f}x on only "
        f"{passing or 'none'} of {CONVERGE_WORKLOADS}: "
        + ", ".join(f"{name}={speedup:.2f}x"
                    for name, speedup in speedups.items())
    )


def test_masked_fault_convergence_microbench():
    """Every converged early-site run executes <= 25% of golden length.

    Replays the campaign's own fault plans (same RNG forking as
    ``run_campaign``) but keeps only flips landing in the first eighth of
    the dynamic site population; each converged run's executed length is
    ``golden - instructions_saved`` (counters are cumulative-from-entry,
    so this holds for both injection protocols).
    """
    from repro.faultinjection.injector import FaultPlan, inject_asm_fault
    from repro.faultinjection.telemetry import ConvergenceStats
    from repro.machine.converge import record_trail
    from repro.machine.cpu import Machine
    from repro.utils.rng import DeterministicRng

    program = build_for("bfs")["ferrum"].asm
    machine = Machine(program)
    golden, trail = record_trail(machine)
    early_cutoff = golden.fault_sites // EARLY_SITE_FRACTION

    rng = DeterministicRng(SEED)
    fractions = []
    for run_index in range(FI_SAMPLES * EARLY_SITE_FRACTION):
        plan = FaultPlan.sample(rng.fork(run_index), golden.fault_sites)
        if plan.site_index > early_cutoff:
            continue
        stats = ConvergenceStats()
        inject_asm_fault(program, plan, golden, machine=machine,
                         converge=trail, converge_stats=stats)
        if stats.converged:
            executed = golden.dynamic_instructions - stats.instructions_saved
            fractions.append(executed / golden.dynamic_instructions)
        if len(fractions) >= 8:
            break
    assert len(fractions) >= 3, (
        f"only {len(fractions)} early masked flips converged — "
        f"not enough to make the bound meaningful")
    worst = max(fractions)
    assert worst <= MAX_CONVERGED_EXECUTED_FRACTION, (
        f"a converged early-site run executed {worst:.0%} of the golden "
        f"run (gate: <= {MAX_CONVERGED_EXECUTED_FRACTION:.0%})")


def test_report(capsys):
    if not _measured:
        pytest.skip("no throughput measurements collected")
    with capsys.disabled():
        print("\n" + "\n".join(_measured))
