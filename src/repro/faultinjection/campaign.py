"""Fault-injection campaigns: many sampled faults, aggregated outcomes.

A campaign reproduces the paper's measurement protocol (Sec. IV-A2): N
independent runs, one uniformly sampled single-bit fault each, outcomes
aggregated into an :class:`OutcomeCounts` histogram. Sampling is fully
deterministic from a seed; each run forks its own RNG stream, so campaigns
are reproducible and embarrassingly parallel in structure.

Every campaign path — flat assembly and IR campaigns, composed campaigns
(:mod:`repro.faultinjection.compose`) and service shards
(:mod:`repro.faultinjection.service`) — runs through one executor:
plans → site-range shards → executor (in-process | fork pool) → ordered
sink (site order, or run-index order under pruning). A *shard* is an
entry snapshot (or program entry) plus its site-sorted plans;
:func:`_serve` marches a cursor across the shard's checkpoint regions
(:meth:`Machine.run_to_site`), and each injection restores its region's
O(touched pages) snapshot and runs only its own suffix. A small target adapter (:class:`_ShardContext`) lets the same
loop serve assembly programs and IR modules. With ``processes > 1`` the
shards run on a fork pool whose workers inherit the campaign context; the
results stream back in shard order, so records, stats and JSONL bytes do
not depend on the process count. See ``docs/fault_model.md``.

``engine="replay"`` is kept as the sequential reference oracle: a plain
loop that re-executes every injection from instruction 0. The checkpoint
engine (the default) is bit-identical to it.

``telemetry=True`` (or a ``jsonl_path``) additionally collects one
:class:`FaultRecord` per fault — attribution, register/bit, detection
latency — plus :class:`CheckpointStats` under the checkpoint engine.
Telemetry is purely observational: outcome counts are bit-identical with
it on or off, and the default-off path adds no per-run work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.asm.program import AsmProgram
from repro.errors import InjectionError
from repro.faultinjection.equivalence import (
    PruningAnalysis,
    PruningStats,
    analyze_plans,
)
from repro.faultinjection.injector import (
    FaultPlan,
    inject_asm_fault,
    inject_ir_fault,
)
from repro.faultinjection.outcome import Outcome, OutcomeCounts
from repro.faultinjection.telemetry import (
    CheckpointStats,
    ConvergenceStats,
    FaultRecord,
    JsonlSink,
)
from repro.ir.interp import IRInterpreter
from repro.ir.module import IRModule
from repro.machine.converge import ConvergenceTrail, record_trail
from repro.machine.cpu import Machine
from repro.utils.rng import DeterministicRng

if TYPE_CHECKING:  # circular at runtime: compose builds on this module
    from repro.faultinjection.compose import ComposeStats

#: Execution strategies accepted by ``run_campaign``/``run_ir_campaign``.
ENGINES = ("checkpoint", "replay")

#: An (run_index, plan) pair — campaigns thread run indices through every
#: engine so telemetry records identify the RNG stream that drew them.
IndexedPlan = tuple[int, FaultPlan]


@dataclass
class CampaignResult:
    """Aggregated result of one injection campaign.

    ``records`` (telemetry campaigns only) holds one :class:`FaultRecord`
    per sample, sorted by run index; ``checkpoint_stats`` reports the
    checkpoint engine's snapshot/restore economics. Both are ``None`` when
    telemetry is off — the default — and their presence never changes
    ``outcomes``. ``compose_stats`` is filled only by
    :func:`repro.faultinjection.compose.compose_campaign` and reports the
    section partition and cache hit/miss economics; ``convergence_stats``
    is filled by ``converge=True`` campaigns and reports the convergence
    early-exit economics (converged fraction, instructions saved).
    """

    samples: int
    outcomes: OutcomeCounts = field(default_factory=OutcomeCounts)
    fault_sites: int = 0
    dynamic_instructions: int = 0
    records: list[FaultRecord] | None = None
    checkpoint_stats: CheckpointStats | None = None
    pruning_stats: PruningStats | None = None
    compose_stats: "ComposeStats | None" = None
    convergence_stats: ConvergenceStats | None = None

    @property
    def sdc_probability(self) -> float:
        return self.outcomes.sdc_probability

    def summary(self) -> str:
        parts = [
            f"{outcome.value}={self.outcomes[outcome]}" for outcome in Outcome
        ]
        return (
            f"{self.samples} faults over {self.fault_sites} sites: "
            + ", ".join(parts)
        )


def _expand_pruned(
    analysis: PruningAnalysis, executed, telemetry: bool
) -> list:
    """Results the pruning pass avoided executing.

    Synthesized verdicts are returned as-is; duplicate plans are served by
    cloning their representative's result (the machine is deterministic, so
    an identical (site, register, bit) flip yields an identical outcome),
    re-stamped with the duplicate's run index when telemetry is on.
    """
    extra = list(analysis.synthesized)
    if analysis.duplicates:
        by_run = dict(executed)
        for rep, dup_indices in analysis.duplicates.items():
            rep_result = by_run[rep]
            for dup in dup_indices:
                extra.append(
                    (dup, replace(rep_result, run_index=dup))
                    if telemetry else (dup, rep_result)
                )
    return extra


def _open_sink(jsonl_path, mode: str) -> JsonlSink | None:
    """Open the campaign's JSONL sink, validating the requested mode.

    ``mode="w"`` truncates (the default); ``mode="a"`` appends, which is
    what multi-invocation workflows — compositional campaigns above all —
    need to accumulate one stream across runs.
    """
    if jsonl_path is None:
        return None
    if mode not in ("w", "a"):
        raise InjectionError(
            f"jsonl_mode must be 'w' (truncate) or 'a' (append), got {mode!r}"
        )
    return JsonlSink(jsonl_path, mode=mode)


class _RunOrderedWriter:
    """Streams records to a sink in run-index order as they become available.

    Pruned campaigns complete their runs out of run-index order (executed
    representatives arrive in site order; synthesized verdicts exist before
    execution starts; duplicates complete when their representative does).
    This reorder buffer flushes each record the moment every lower run
    index has been written, so the final file stays byte-identical to the
    buffered (sorted-by-run-index) order — and it is *bounded*: synthesized
    verdicts are consulted lazily from the analysis at their flush point
    (never copied in), duplicate clones are materialized only at the
    instant they are written, and a representative's record is retained
    only until its last clone flushes. The buffer therefore holds at most
    the out-of-order executed records plus the representatives with
    pending clones, never the whole campaign; ``peak_buffer`` reports the
    high-water mark so tests can pin the bound.
    """

    def __init__(self, sink: JsonlSink, analysis: PruningAnalysis) -> None:
        self._sink = sink
        self._duplicates = analysis.duplicates
        self._dup_of = {
            dup: rep
            for rep, dups in analysis.duplicates.items()
            for dup in dups
        }
        self._last_dup = {
            rep: max(dups) for rep, dups in analysis.duplicates.items() if dups
        }
        # References into the analysis, not copies: synthesized records
        # already exist for the campaign result, so looking them up lazily
        # adds no resident memory.
        self._synth = dict(analysis.synthesized)
        self._pending: dict[int, FaultRecord] = {}
        self._rep_records: dict[int, FaultRecord] = {}
        self._next = 0
        self.peak_buffer = 0
        self._drain()  # a synthesized prefix may already start at run 0

    def _note_peak(self) -> None:
        resident = len(self._pending) + len(self._rep_records)
        if resident > self.peak_buffer:
            self.peak_buffer = resident

    def _drain(self) -> None:
        while True:
            run = self._next
            record = self._pending.pop(run, None)
            if record is None:
                record = self._synth.pop(run, None)
            if record is None:
                rep = self._dup_of.get(run)
                if rep is None or rep not in self._rep_records:
                    return  # gap: a lower run index is still executing
                record = replace(self._rep_records[rep], run_index=run)
                if run == self._last_dup[rep]:
                    del self._rep_records[rep]
            self._sink.write(record)
            self._next += 1

    def write(self, record: FaultRecord) -> None:
        """Engine-facing hook: accept one executed record."""
        run = record.run_index
        if run in self._duplicates:
            self._rep_records[run] = record
        if run != self._next:
            self._pending[run] = record
            self._note_peak()
            return
        self._sink.write(record)
        self._next += 1
        self._note_peak()
        self._drain()


def _checkpoint_schedule(
    plans: list[IndexedPlan], interval: int | None
) -> list[tuple[int, list[IndexedPlan]]]:
    """Group indexed plans by the checkpoint that serves them, by site.

    ``interval=None`` checkpoints at every distinct fault site (zero
    fast-forward per injection); ``interval=K`` snapshots only at multiples
    of K sites, trading up to K-1 sites of fast-forward per injection for
    fewer, coarser snapshots.
    """
    if interval is not None and interval < 1:
        raise InjectionError(f"checkpoint interval must be >= 1, got {interval}")
    regions: dict[int, list[IndexedPlan]] = {}
    for indexed in plans:
        site = indexed[1].site_index
        checkpoint = site if interval is None else site - site % interval
        regions.setdefault(checkpoint, []).append(indexed)
    return sorted(regions.items())


def _finish(
    result: CampaignResult,
    executed: list,
    analysis: PruningAnalysis | None,
    telemetry: bool,
) -> CampaignResult:
    """Fold per-run results into the campaign aggregate.

    ``executed`` holds (run_index, Outcome | FaultRecord) pairs; pruned
    campaigns add the results the pruning pass avoided executing. With
    telemetry the records are kept sorted by run index.
    """
    results = executed
    if analysis is not None:
        results = executed + _expand_pruned(analysis, executed, telemetry)
    if telemetry:
        ordered = [record for _, record in sorted(results,
                                                  key=lambda pair: pair[0])]
        for record in ordered:
            result.outcomes.record(record.outcome)
        result.records = ordered
    else:
        for _, outcome in results:
            result.outcomes.record(outcome)
    return result


# -- the executor ----------------------------------------------------------


class _ShardContext:
    """What every shard of one campaign shares: the target adapter.

    Holds the program (assembly) or module (IR), its golden run, the entry
    point, the checkpoint interval, the telemetry flag and the convergence
    trail, plus one runner — a :class:`Machine` or :class:`IRInterpreter`
    built once and reused by every cursor advance, restore and injection.
    Pool workers inherit the parent's context through ``fork``.
    """

    def __init__(self, target, golden, function, args, interval, telemetry,
                 trail: ConvergenceTrail | None = None) -> None:
        self.target = target
        self.ir = isinstance(target, IRModule)
        self.runner = IRInterpreter(target) if self.ir else Machine(target)
        self.golden = golden
        self.function = function
        self.args = args
        self.interval = interval
        self.telemetry = telemetry
        self.trail = trail

    def advance(self, site: int, cursor):
        """Run fault-free from ``cursor`` (or entry) and snapshot at ``site``."""
        return self.runner.run_to_site(site, function=self.function,
                                       args=self.args, resume_from=cursor)

    def inject(self, plan: FaultPlan, cursor, run_index: int, conv_stats):
        """One faulted run, resumed from ``cursor`` (``None``: instruction 0)."""
        if self.ir:
            return inject_ir_fault(self.target, plan, self.golden,
                                   function=self.function, args=self.args,
                                   interp=self.runner, resume_from=cursor,
                                   telemetry=self.telemetry,
                                   run_index=run_index)
        return inject_asm_fault(self.target, plan, self.golden,
                                function=self.function, args=self.args,
                                machine=self.runner, resume_from=cursor,
                                telemetry=self.telemetry, run_index=run_index,
                                converge=self.trail,
                                converge_stats=conv_stats)


def _serve(ctx: _ShardContext, entry, plans: list[IndexedPlan], sink=None):
    """Run one shard: its plans off a cursor marched from ``entry``.

    ``entry`` is the snapshot the shard starts from (``None``: program
    entry). The cursor advances checkpoint to checkpoint in site order, each
    injection restores its region's snapshot, and each result is written to
    ``sink`` the moment it exists. A cursor already at or past a region's
    checkpoint (a shard or section entry) serves that region as is.

    Returns ``(results, checkpoint_stats, convergence_stats)``; the stats
    are this shard's alone, for the caller to merge.
    """
    stats = CheckpointStats() if ctx.telemetry else None
    conv_stats = ConvergenceStats() if ctx.trail is not None else None
    results = []
    cursor = entry
    for checkpoint_site, region_plans in _checkpoint_schedule(plans,
                                                              ctx.interval):
        if cursor is None or cursor.sites < checkpoint_site:
            cursor = ctx.advance(checkpoint_site, cursor)
        if stats is not None:
            stats.note_snapshot(cursor)
        for run_index, plan in region_plans:
            outcome = ctx.inject(plan, cursor, run_index, conv_stats)
            if stats is not None:
                stats.restores += 1
                stats.fast_forward_sites += plan.site_index - cursor.sites
            if sink is not None:
                sink.write(outcome)
            results.append((run_index, outcome))
    return results, stats, conv_stats


#: Shards cut per pool worker: enough to even out shards whose suffixes
#: cost more, few enough that the parent holds only a handful of entry
#: snapshots.
SHARDS_PER_PROCESS = 4


def _cut_shards(
    ctx: _ShardContext, plans: list[IndexedPlan], processes: int
) -> list[tuple[object, list[IndexedPlan]]]:
    """Cut a campaign into site-range shards of whole checkpoint regions.

    One process serves the campaign as a single shard from program entry.
    Otherwise the checkpoint schedule is cut into ``processes *
    SHARDS_PER_PROCESS`` runs of regions, and one cursor pass takes each
    shard's entry snapshot at its first checkpoint. A region is never split,
    so every checkpoint snapshot is taken once, and the shards in order
    serve the plans in exactly the sequential order.
    """
    if processes == 1:
        return [(None, plans)]
    regions = _checkpoint_schedule(plans, ctx.interval)
    per_shard = max(1, -(-len(regions) // (processes * SHARDS_PER_PROCESS)))
    shards = []
    cursor = None
    for start in range(0, len(regions), per_shard):
        group = regions[start:start + per_shard]
        cursor = ctx.advance(group[0][0], cursor)
        shards.append((cursor, [indexed for _, region in group
                                for indexed in region]))
    return shards


#: ``(context, shards)`` of the pool a worker process belongs to, set by
#: :func:`_init_worker` in each worker; the parent never sets it.
_WORKER: tuple | None = None


def _init_worker(*state) -> None:
    global _WORKER
    _WORKER = state


def _serve_shard(index: int):
    """Pool task: serve shard ``index`` of the inherited campaign."""
    ctx, shards = _WORKER
    entry, plans = shards[index]
    return _serve(ctx, entry, plans)


def _fork_context():
    """The ``fork`` multiprocessing context, or None where unsupported.

    Campaign workers rely on inheriting the parent's program, golden run
    and snapshots by address-space copy; ``spawn``/``forkserver`` would need
    everything re-pickled and re-validated per worker. Callers fall back to
    sequential execution (identical results, no crash) when ``fork`` is
    unavailable (e.g. some non-POSIX platforms).
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _pooled(context, processes: int, worker, tasks, initargs=()):
    """Map ``worker`` over ``tasks`` on a fork pool, yielding in task order.

    Each worker runs :func:`_init_worker` with ``initargs``, which under
    ``fork`` are inherited, never pickled. Results stream back one task at
    a time (``imap``). A worker exception is re-raised as an
    :class:`InjectionError` naming how many tasks had completed, with the
    completed results attached as ``error.partial_results``.
    """
    tasks = list(tasks)
    done: list = []
    with context.Pool(processes, initializer=_init_worker,
                      initargs=initargs) as pool:
        try:
            for item in pool.imap(worker, tasks):
                done.append(item)
                yield item
        except Exception as exc:
            error = InjectionError(
                f"campaign worker failed after {len(done)}/{len(tasks)}"
                f" tasks completed: {type(exc).__name__}: {exc}"
            )
            error.partial_results = done
            raise error from exc


def _execute(
    ctx: _ShardContext,
    shards: list,
    processes: int,
    result: CampaignResult,
    sink=None,
) -> list[list]:
    """Serve ``shards`` in order; the one executor of every campaign path.

    With one process (or no ``fork``) the shards run in this process and
    stream their records into ``sink``; otherwise a fork pool serves them
    and the parent writes each shard's records as it arrives, in shard
    order, so the sink sees the same sequence either way. Shard stats merge
    into ``result``. Returns each shard's (run_index, result) pairs.
    """
    context = (_fork_context()
               if processes > 1 and len(shards) > 1 else None)
    if context is None:
        served = (_serve(ctx, entry, plans, sink) for entry, plans in shards)
    else:
        served = _pooled(context, processes, _serve_shard,
                         range(len(shards)), initargs=(ctx, shards))
    per_shard = []
    for pairs, stats, conv_stats in served:
        if context is not None and sink is not None:
            for _, record in pairs:
                sink.write(record)
        if stats is not None:
            result.checkpoint_stats.merge(stats)
        if conv_stats is not None:
            result.convergence_stats.merge(conv_stats)
        per_shard.append(pairs)
    return per_shard


def _validate(
    checkpoint_interval: int | None,
    jsonl_mode: str,
    processes: int,
    engine: str = "checkpoint",
) -> None:
    """Reject bad campaign arguments before any work runs."""
    if engine not in ENGINES:
        raise InjectionError(f"unknown engine {engine!r}; known: {ENGINES}")
    if checkpoint_interval is not None and checkpoint_interval < 1:
        raise InjectionError(
            f"checkpoint interval must be >= 1, got {checkpoint_interval}"
        )
    if jsonl_mode not in ("w", "a"):
        raise InjectionError(
            f"jsonl_mode must be 'w' (truncate) or 'a' (append), "
            f"got {jsonl_mode!r}"
        )
    if processes < 1:
        raise InjectionError(f"processes must be >= 1, got {processes}")
    if engine == "replay" and processes > 1:
        raise InjectionError(
            "engine='replay' is the sequential reference oracle; "
            "use the checkpoint engine for processes > 1"
        )


def _draw(golden, samples: int, seed: int):
    """The campaign result shell and its sampled plans, by run index."""
    result = CampaignResult(
        samples=samples,
        fault_sites=golden.fault_sites,
        dynamic_instructions=golden.dynamic_instructions,
    )
    rng = DeterministicRng(seed)
    plans: list[IndexedPlan] = [
        (run_index, FaultPlan.sample(rng.fork(run_index), golden.fault_sites))
        for run_index in range(samples)
    ]
    return result, plans


def _draw_asm(program, golden, samples, seed, function, args, telemetry,
              prune, converge, converge_interval):
    """:func:`_draw` for assembly, plus the optional prune pass and trail.

    Returns ``(result, plans, analysis, trail)``: under ``prune`` the plans
    are the ones left to execute, and ``analysis`` serves the rest.
    """
    result, plans = _draw(golden, samples, seed)
    analysis = None
    if prune:
        analysis = analyze_plans(program, plans, function=function, args=args,
                                 telemetry=telemetry)
        plans = analysis.to_execute
        result.pruning_stats = analysis.stats
    trail: ConvergenceTrail | None = None
    if converge:
        trail = record_trail(program, golden, function=function, args=args,
                             interval=converge_interval)
        result.convergence_stats = ConvergenceStats()
    return result, plans, analysis, trail


def _stream(sink: JsonlSink | None, analysis: PruningAnalysis | None):
    """Where executed records go: the sink, or its run-order buffer."""
    if sink is not None and analysis is not None:
        return _RunOrderedWriter(sink, analysis)
    return sink


def _run(
    ctx: _ShardContext,
    result: CampaignResult,
    plans: list[IndexedPlan],
    engine: str,
    processes: int,
    jsonl_path,
    jsonl_mode: str,
    analysis: PruningAnalysis | None = None,
) -> CampaignResult:
    """Execute a flat campaign's plans and fold the results."""
    sink = (JsonlSink(jsonl_path, mode=jsonl_mode)
            if jsonl_path is not None else None)
    try:
        stream = _stream(sink, analysis)
        if engine == "replay":
            # The sequential reference: every run from instruction 0.
            executed = []
            for run_index, plan in plans:
                outcome = ctx.inject(plan, None, run_index,
                                     result.convergence_stats)
                if stream is not None:
                    stream.write(outcome)
                executed.append((run_index, outcome))
        else:
            if ctx.telemetry:
                result.checkpoint_stats = CheckpointStats()
            shards = _cut_shards(ctx, plans, processes)
            executed = [pair
                        for pairs in _execute(ctx, shards, processes, result,
                                              stream)
                        for pair in pairs]
        return _finish(result, executed, analysis, ctx.telemetry)
    finally:
        if sink is not None:
            sink.close()


def run_campaign(
    program: AsmProgram,
    samples: int,
    seed: int = 0,
    function: str = "main",
    args: tuple[int, ...] = (),
    processes: int = 1,
    engine: str = "checkpoint",
    checkpoint_interval: int | None = None,
    telemetry: bool = False,
    jsonl_path=None,
    jsonl_mode: str = "w",
    prune: bool = False,
    converge: bool = False,
    converge_interval: int | None = None,
) -> CampaignResult:
    """Inject ``samples`` single-bit faults at assembly level.

    One golden (fault-free) execution establishes the reference output and
    the dynamic fault-site population; each sample then flips one bit at a
    uniformly chosen site/register/bit and classifies the outcome.

    ``engine`` selects the execution strategy (see the module docstring);
    both produce bit-identical :class:`OutcomeCounts` for the same seed.
    ``checkpoint_interval`` (checkpoint engine only) snapshots every K
    sites instead of at every served site. ``processes > 1`` cuts the
    checkpoint schedule into site-range shards served by forked worker
    processes, each restoring from its shard's entry snapshot rather than
    replaying the prefix; results, stats and JSONL bytes are identical to
    the sequential run because every run derives its own RNG stream from
    the seed and shards stream back in order. Where ``fork`` is
    unavailable the shards run in-process. The replay engine is the
    sequential reference and rejects ``processes > 1``.

    ``telemetry=True`` collects one :class:`FaultRecord` per fault into
    ``result.records`` (and fills ``result.checkpoint_stats`` under the
    checkpoint engine); ``jsonl_path`` implies telemetry and streams the
    records to disk as JSONL as they complete — in site order, or run-index
    order under ``prune``. ``jsonl_mode="a"`` appends to an existing file
    instead of truncating, so multi-invocation workflows can accumulate one
    stream. Outcome counts are bit-identical with telemetry on or off.
    Arguments are validated before the golden run.

    ``prune=True`` runs the outcome-equivalence pass
    (:mod:`repro.faultinjection.equivalence`) first: plans whose outcome is
    provable from the golden trace are synthesized without execution, and
    plans identical in (site, register, bit) to an already-executed one are
    served by cloning its result. Outcomes and telemetry records stay
    bit-identical to the unpruned campaign; ``result.pruning_stats``
    reports how much work was avoided.

    ``converge=True`` layers *dynamic* pruning on top: one extra fault-free
    pass records a golden digest trail (:mod:`repro.machine.converge`), and
    every injected run stops the moment its divergence cone — registers
    plus pages written since the flip — matches the trail at a boundary,
    finishing with the golden outcome. Counts, records, per-origin maps
    and JSONL bytes stay bit-identical to ``converge=False``;
    ``result.convergence_stats`` reports the converged fraction and
    instructions saved. ``converge_interval`` overrides the boundary
    spacing in fault sites (default: :func:`repro.machine.converge.
    trail_interval`). Composes with ``prune`` (static pruning removes
    runs, convergence shortens the surviving ones) and with both engines
    and any process count — the trail is recorded once and inherited by
    pool workers.
    """
    _validate(checkpoint_interval, jsonl_mode, processes, engine)
    telemetry = telemetry or jsonl_path is not None
    golden = Machine(program).run(function=function, args=args)
    result, plans, analysis, trail = _draw_asm(
        program, golden, samples, seed, function, args, telemetry, prune,
        converge, converge_interval)
    ctx = _ShardContext(program, golden, function, args, checkpoint_interval,
                        telemetry, trail)
    return _run(ctx, result, plans, engine, processes, jsonl_path, jsonl_mode,
                analysis)


def run_ir_campaign(
    module: IRModule,
    samples: int,
    seed: int = 0,
    function: str = "main",
    args: tuple[int, ...] = (),
    processes: int = 1,
    engine: str = "checkpoint",
    checkpoint_interval: int | None = None,
    telemetry: bool = False,
    jsonl_path=None,
    jsonl_mode: str = "w",
    prune: bool = False,
    converge: bool = False,
) -> CampaignResult:
    """Inject ``samples`` faults at IR level (LLFI-style).

    Supports the same ``engine``/``checkpoint_interval``/``processes``/
    ``telemetry``/``jsonl_path``/``jsonl_mode`` controls as
    :func:`run_campaign`, with identical guarantees: both engines and any
    process count yield bit-identical outcome counts for a given seed,
    telemetry on or off.

    ``prune`` and ``converge`` are accepted for signature parity but only
    ``False`` is supported: outcome-equivalence pruning is assembly-level
    analysis (see ``docs/fault_model.md``), and convergence early-exit
    compares machine-level state (register files, memory pages) that the
    IR interpreter does not expose — both raise :class:`InjectionError`
    instead of a bare ``TypeError``.
    """
    _validate(checkpoint_interval, jsonl_mode, processes, engine)
    if converge:
        raise InjectionError(
            "convergence early-exit is assembly-level only: the digest "
            "trail hashes machine state (register files, RFLAGS, memory "
            "pages) that IR values do not expose. Compile the module and "
            "run run_campaign(converge=True) on the assembly program "
            "instead."
        )
    if prune:
        raise InjectionError(
            "outcome-equivalence pruning is assembly-level only: the "
            "equivalence scanner classifies flips by propagating XOR deltas "
            "through the recorded machine trace (register, flag and memory "
            "bytes), state IR values do not expose. Compile the module and "
            "run run_campaign(prune=True) on the assembly program instead."
        )
    telemetry = telemetry or jsonl_path is not None
    golden = IRInterpreter(module).run(function=function, args=args)
    result, plans = _draw(golden, samples, seed)
    ctx = _ShardContext(module, golden, function, args, checkpoint_interval,
                        telemetry)
    return _run(ctx, result, plans, engine, processes, jsonl_path, jsonl_mode)
