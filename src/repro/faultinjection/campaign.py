"""Fault-injection campaigns: many sampled faults, aggregated outcomes.

A campaign reproduces the paper's measurement protocol (Sec. IV-A2): N
independent runs, one uniformly sampled single-bit fault each, outcomes
aggregated into an :class:`OutcomeCounts` histogram. Sampling is fully
deterministic from a seed; each run forks its own RNG stream, so campaigns
are reproducible and embarrassingly parallel in structure.

Every campaign path — flat assembly and IR campaigns, composed campaigns
(:mod:`repro.faultinjection.compose`) and service shards
(:mod:`repro.faultinjection.service`) — runs through one executor:
plans → site-range shards → executor (in-process | fork pool) → sink.
There is one record order, *serve order*: by fault site, then by run
index. :func:`_serve` fixes it; every other component concatenates. A
*shard* is an entry snapshot (or program entry) plus a contiguous range of
the serve order; :func:`_serve` marches a cursor across the shard's sites
(:meth:`Machine.run_to_site`), and each injection restores its site's
O(touched pages) snapshot and runs only its own suffix. Pruned plans are
verdicts inside the same loop: a synthesized or cloned result is written
at its place without execution. A small target adapter
(:class:`_ShardContext`) lets the same loop serve assembly programs and IR
modules. With ``processes > 1`` the shards run on a fork pool whose
workers inherit the campaign context; the results stream back in shard
order, so records, stats and JSONL bytes do not depend on the process
count. See ``docs/fault_model.md``.

``engine="replay"`` is kept as the sequential reference oracle: the same
loop in serve order, re-executing every injection from instruction 0. The
checkpoint engine (the default) is bit-identical to it.

Every injection yields one :class:`FaultRecord` — outcome, attribution,
register/bit, detection latency — so every campaign keeps its records,
plus :class:`CheckpointStats` under the checkpoint engine; a
``jsonl_path`` only streams the same records to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.asm.program import AsmProgram
from repro.errors import InjectionError
from repro.faultinjection.equivalence import PruningStats, analyze_plans
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
#: engine so fault records identify the RNG stream that drew them.
IndexedPlan = tuple[int, FaultPlan]


@dataclass
class CampaignResult:
    """Aggregated result of one injection campaign.

    ``records`` holds one :class:`FaultRecord` per sample, sorted by run
    index, for every flat, IR, composed and service campaign;
    :func:`repro.faultinjection.multibit.run_multibit_campaign`, whose
    plans are two flips each, fills only ``outcomes`` and leaves it
    ``None``. ``checkpoint_stats`` reports the checkpoint engine's
    snapshot/restore economics (``None`` under the replay engine and for
    multi-bit campaigns). ``compose_stats`` is filled only by
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


def _checkpoint_schedule(
    plans: list[IndexedPlan],
) -> list[tuple[int, list[IndexedPlan]]]:
    """Group indexed plans by fault site, in serve order.

    Serve order — by fault site, then by run index — is the one record
    order of every campaign path; each fault site is one checkpoint.
    """
    sites: dict[int, list[IndexedPlan]] = {}
    for indexed in sorted(plans, key=lambda pair: (pair[1].site_index,
                                                   pair[0])):
        sites.setdefault(indexed[1].site_index, []).append(indexed)
    return list(sites.items())


def _finish(result: CampaignResult, served: list) -> CampaignResult:
    """Fold ``served`` (run_index, FaultRecord) pairs into the campaign
    aggregate; the records are kept sorted by run index."""
    result.records = [record for _, record in sorted(served,
                                                     key=lambda pair: pair[0])]
    for record in result.records:
        result.outcomes.record(record.outcome)
    return result


# -- the executor ----------------------------------------------------------


@dataclass
class _ShardContext:
    """What every shard of one campaign shares: the target adapter.

    Built by :func:`_setup`: the program (assembly) or module (IR), the
    campaign's one runner — the :class:`Machine` or :class:`IRInterpreter`
    its golden pass ran on, reused by every cursor advance, restore and
    injection — the golden run, the entry point, the convergence trail and
    the prune verdicts. ``replay`` marks the sequential reference oracle,
    which never advances a cursor. Pool workers inherit the parent's
    context through ``fork``.
    """

    target: AsmProgram | IRModule
    runner: Machine | IRInterpreter
    golden: object
    function: str
    args: tuple[int, ...]
    trail: ConvergenceTrail | None
    replay: bool
    #: run index -> record the prune pass synthesized without execution
    synthesized: dict
    #: duplicate run index -> its representative's run index
    clone_of: dict[int, int]

    @property
    def ir(self) -> bool:
        return isinstance(self.target, IRModule)

    def executes(self, run_index: int) -> bool:
        """Whether the plan drawn as ``run_index`` is actually injected."""
        return (run_index not in self.synthesized
                and run_index not in self.clone_of)

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
                                   run_index=run_index)
        return inject_asm_fault(self.target, plan, self.golden,
                                function=self.function, args=self.args,
                                machine=self.runner, resume_from=cursor,
                                run_index=run_index, converge=self.trail,
                                converge_stats=conv_stats)


def _serve(ctx: _ShardContext, entry, plans: list[IndexedPlan], sink=None):
    """Run one shard: its plans in serve order, off a cursor from ``entry``.

    ``entry`` is the snapshot the shard starts from (``None``: program
    entry). Plans are served by fault site, then run index, and each
    record is written to ``sink`` the moment it exists. At a site where
    some plan executes, the cursor advances to the site (unless a shard or
    section entry already put it there) and each executed plan restores
    it; the replay oracle never advances and runs every injection from
    instruction 0. A pruned plan costs no execution: a synthesized plan
    yields its synthesized record, and a duplicate clones the record of
    its representative — the lowest run index at the same site, so
    already served. A pruned campaign's shards therefore hold whole sites.

    Returns ``(records, checkpoint_stats, convergence_stats)``, the
    records as (run_index, FaultRecord) pairs; the stats are this shard's
    alone, for the caller to merge.
    """
    stats = None if ctx.replay else CheckpointStats()
    conv_stats = ConvergenceStats() if ctx.trail is not None else None
    results = []
    cursor = entry
    for site, site_plans in _checkpoint_schedule(plans):
        if not ctx.replay and any(ctx.executes(run_index)
                                  for run_index, _ in site_plans):
            if cursor is None or cursor.sites < site:
                cursor = ctx.advance(site, cursor)
            stats.note_snapshot(cursor)
        executed = {}
        for run_index, plan in site_plans:
            if run_index in ctx.synthesized:
                record = ctx.synthesized[run_index]
            elif run_index in ctx.clone_of:
                record = replace(executed[ctx.clone_of[run_index]],
                                 run_index=run_index)
            else:
                record = ctx.inject(plan, cursor, run_index, conv_stats)
                executed[run_index] = record
                if stats is not None:
                    stats.restores += 1
            if sink is not None:
                sink.write(record)
            results.append((run_index, record))
    return results, stats, conv_stats


#: Shards cut per pool worker: enough to even out shards whose suffixes
#: cost more, few enough that the parent holds only a handful of entry
#: snapshots.
SHARDS_PER_PROCESS = 4


def _cut_shards(
    ctx: _ShardContext, plans: list[IndexedPlan], processes: int
) -> list[tuple[object, list[IndexedPlan]]]:
    """Cut a campaign into site-range shards of whole fault sites.

    One process serves the campaign as a single shard from program entry.
    Otherwise the sites of the schedule are cut into ``processes *
    SHARDS_PER_PROCESS`` runs, and one cursor pass takes each shard's
    entry snapshot at its first site. A site is never split, so every
    snapshot is taken once, a duplicate stays with its representative,
    and the shards in order serve the plans in exactly the sequential
    order.
    """
    if processes == 1:
        return [(None, plans)]
    sites = _checkpoint_schedule(plans)
    per_shard = max(1, -(-len(sites) // (processes * SHARDS_PER_PROCESS)))
    shards = []
    cursor = None
    for start in range(0, len(sites), per_shard):
        group = sites[start:start + per_shard]
        cursor = ctx.advance(group[0][0], cursor)
        shards.append((cursor, [indexed for _, site_plans in group
                                for indexed in site_plans]))
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
    into ``result``. Returns each shard's (run_index, FaultRecord) pairs.
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


def _validate(processes: int, engine: str = "checkpoint") -> None:
    """Reject bad campaign arguments before any work runs."""
    if engine not in ENGINES:
        raise InjectionError(f"unknown engine {engine!r}; known: {ENGINES}")
    if processes < 1:
        raise InjectionError(f"processes must be >= 1, got {processes}")
    if engine == "replay" and processes > 1:
        raise InjectionError(
            "engine='replay' is the sequential reference oracle; "
            "use the checkpoint engine for processes > 1"
        )


def _setup(target, samples: int, seed: int, function: str = "main",
           args: tuple[int, ...] = (), *, prune: bool = False,
           converge: bool = False, replay: bool = False, fault_hook=None):
    """The one campaign set-up: one runner, one golden pass, the plan draw.

    Builds the runner (a :class:`Machine`, or an :class:`IRInterpreter`
    for IR) and runs the single fault-free pass on it — :func:`record_trail`
    under ``converge`` — which ``fault_hook`` may observe. Returns ``(ctx,
    result, plans)``: the shard context holding that runner, the result
    shell, and the sampled plans by run index (with prune verdicts).
    """
    trail: ConvergenceTrail | None = None
    if isinstance(target, IRModule):
        runner = IRInterpreter(target)
        golden = runner.run(function=function, args=args)
    else:
        runner = Machine(target)
        if converge:
            golden, trail = record_trail(runner, function, args,
                                         fault_hook=fault_hook)
        else:
            golden = runner.run(function=function, args=args,
                                fault_hook=fault_hook)
    result = CampaignResult(
        samples=samples,
        fault_sites=golden.fault_sites,
        dynamic_instructions=golden.dynamic_instructions,
        checkpoint_stats=None if replay else CheckpointStats(),
        convergence_stats=ConvergenceStats() if converge else None,
    )
    rng = DeterministicRng(seed)
    plans: list[IndexedPlan] = [
        (run_index, FaultPlan.sample(rng.fork(run_index), golden.fault_sites))
        for run_index in range(samples)
    ]
    synthesized, clone_of = {}, {}
    if prune:
        analysis = analyze_plans(target, plans, function=function, args=args)
        result.pruning_stats = analysis.stats
        synthesized = dict(analysis.synthesized)
        clone_of = {dup: rep for rep, dups in analysis.duplicates.items()
                    for dup in dups}
    ctx = _ShardContext(target, runner, golden, function, args, trail,
                        replay, synthesized, clone_of)
    return ctx, result, plans


def _run(
    ctx: _ShardContext,
    result: CampaignResult,
    plans: list[IndexedPlan],
    processes: int,
    jsonl_path,
) -> CampaignResult:
    """Execute a flat campaign's plans and fold the results."""
    sink = JsonlSink(jsonl_path) if jsonl_path is not None else None
    try:
        shards = _cut_shards(ctx, plans, processes)
        served = [pair
                  for pairs in _execute(ctx, shards, processes, result, sink)
                  for pair in pairs]
        return _finish(result, served)
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
    jsonl_path=None,
    prune: bool = False,
    converge: bool = False,
) -> CampaignResult:
    """Inject ``samples`` single-bit faults at assembly level.

    One golden (fault-free) execution establishes the reference output and
    the dynamic fault-site population; each sample then flips one bit at a
    uniformly chosen site/register/bit and classifies the outcome. The
    golden run, every cursor advance and every injection share one
    :class:`Machine`, translated once.

    ``engine`` selects the execution strategy (see the module docstring);
    both produce bit-identical results for the same seed.
    ``processes > 1`` cuts the serve order into site-range shards served by
    forked worker processes, each restoring from its shard's entry
    snapshot rather than replaying the prefix; results, stats and JSONL
    bytes are identical to the sequential run because every run derives
    its own RNG stream from the seed and shards stream back in order. Where
    ``fork`` is unavailable the shards run in-process. The replay engine is
    the sequential reference and rejects ``processes > 1``.

    ``result.records`` holds one :class:`FaultRecord` per fault, and
    ``result.checkpoint_stats`` the checkpoint engine's economics.
    ``jsonl_path`` streams the records to disk as JSONL as they complete,
    in serve order (by fault site, then run index) whatever the engine,
    process count or ``prune``. Arguments are validated before the golden
    run.

    ``prune=True`` runs the outcome-equivalence pass
    (:mod:`repro.faultinjection.equivalence`) first: plans whose outcome is
    provable from the golden trace are synthesized without execution, and
    plans identical in (site, register, bit) to an already-executed one are
    served by cloning its record. Outcomes, records and JSONL bytes stay
    bit-identical to the unpruned campaign;
    ``result.pruning_stats`` reports how much work was avoided.

    ``converge=True`` layers *dynamic* pruning on top: the golden run
    records a digest trail as it goes (:mod:`repro.machine.converge`), and
    every injected run stops the moment its divergence cone — registers
    plus pages written since the flip — matches the trail at a boundary,
    finishing with the golden outcome. Counts, records, per-origin maps
    and JSONL bytes stay bit-identical to ``converge=False``;
    ``result.convergence_stats`` reports the converged fraction and
    instructions saved. Composes with ``prune`` (static pruning removes
    runs, convergence shortens the surviving ones) and with both engines
    and any process count — the trail is recorded once and inherited by
    pool workers.
    """
    _validate(processes, engine)
    ctx, result, plans = _setup(program, samples, seed, function, args,
                                prune=prune, converge=converge,
                                replay=engine == "replay")
    return _run(ctx, result, plans, processes, jsonl_path)


def run_ir_campaign(
    module: IRModule,
    samples: int,
    seed: int = 0,
    function: str = "main",
    args: tuple[int, ...] = (),
    processes: int = 1,
    engine: str = "checkpoint",
    jsonl_path=None,
) -> CampaignResult:
    """Inject ``samples`` faults at IR level (LLFI-style).

    Supports the same ``engine``/``processes``/``jsonl_path`` controls as
    :func:`run_campaign`, with identical guarantees: both engines and any
    process count yield bit-identical outcome counts, records and JSONL
    bytes for a given seed. Pruning and convergence early-exit are
    assembly-level only: both read machine state (register files, flags,
    memory pages) that IR values do not expose.
    """
    _validate(processes, engine)
    ctx, result, plans = _setup(module, samples, seed, function, args,
                                replay=engine == "replay")
    return _run(ctx, result, plans, processes, jsonl_path)
