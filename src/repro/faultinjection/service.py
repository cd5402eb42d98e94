"""Durable campaign service: journaled shards, supervision, idempotent resume.

This module wraps the campaign executor of
:mod:`repro.faultinjection.campaign` in a journal and a supervisor: a
campaign (workloads × techniques × fault plans) is *compiled* into
deterministic shard descriptors, each shard is run by the executor's serve
function in a supervised worker process, and every state transition is
journaled to disk so the service can be ``kill -9``-ed at any instant and
resumed to a byte-identical result.

**Sharding.** Each (workload, technique) *unit* draws its full plan
population with :func:`~repro.faultinjection.campaign.run_campaign`'s own
draw — ``FaultPlan.sample(rng.fork(i), fault_sites)`` per run index — so
plan contents are independent of shard boundaries. Plans are put in the
executor's serve order (by fault site, then run index) and chunked into
contiguous *site-range* shards of at most ``shard_size`` plans: a worker
executes one shard by marching a golden-prefix cursor only across its
range (:func:`campaign._serve`), which keeps per-shard work proportional
to its range plus one prefix replay, and its resident records bounded by
``shard_size``.

**Durability contract.** The state directory holds:

* ``journal.jsonl`` — append-only, fsync'd, single-``write`` records of
  every transition (``campaign``/``leased``/``done``/``failed``/
  ``quarantined``/``finalized``). A torn trailing record (the kill -9
  signature) is repaired on open (:class:`repro.utils.journal.Journal`).
* ``segments/<shard>.jsonl`` — one JSONL file per completed shard, in
  serve order, written to a temp name, fsync'd, then atomically
  renamed: a segment either exists complete or not at all. Resume adopts
  valid orphan segments (worker finished, supervisor died before
  journaling ``done``) instead of re-executing them.
* ``results/<workload>-<technique>.jsonl`` + ``summary.json`` — the
  finalized outputs: the unit's segments concatenated in shard order
  (which is serve order, the record order of a flat ``run_campaign``)
  and the merged :class:`TelemetryAggregate` totals. Both are
  pure functions of the segment set, so re-finalizing after a crash (or
  resuming an already-complete campaign) rewrites identical bytes.

**Supervision.** Up to ``workers`` shards run concurrently in forked
worker processes (bounding in-flight leases *and* resident record buffers
— a worker holds at most one shard of records; the supervisor holds
none). A worker crash or nonzero exit requeues its shard with capped
exponential backoff; exceeding the per-shard wall-clock timeout gets the
worker SIGKILLed and the shard requeued; a shard that keeps failing is
*quarantined* — journaled, documented with a diagnostic artifact under
``quarantine/``, and excluded so the rest of the campaign still
completes (the service then reports incomplete instead of wedging).

**Idempotent resume.** Because plans, shard partitioning, execution and
merge order are all deterministic functions of the spec, and every
persisted artifact is either append-repairable or atomically renamed,
``resume`` after a kill at *any* point yields final counts, aggregates
and result files byte-identical to an uninterrupted run — with 1 worker
or many. See ``docs/fault_model.md`` ("Durable campaign service").
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import ServiceError
from repro.faultinjection.campaign import (
    IndexedPlan,
    _checkpoint_schedule,
    _fork_context,
    _serve,
    _setup,
    _ShardContext,
)
from repro.faultinjection.outcome import Outcome
from repro.faultinjection.telemetry import (
    FaultRecord,
    JsonlSink,
    TelemetryAggregate,
    read_jsonl,
)
from repro.pipeline import VARIANTS, build_variants
from repro.utils.journal import Journal, durable_replace
from repro.utils.locking import FileLock
from repro.workloads import get_workload

#: Bumped when the journal schema or state layout changes; mismatched
#: state directories refuse to resume rather than misinterpret records.
#: Version 2 writes segments in serve order; version 1 wrote them in
#: run-index order.
SERVICE_VERSION = 2


def backoff_delay(failures: int, base: float, cap: float) -> float:
    """Capped exponential backoff before retrying a failed shard.

    The first retry waits ``base`` seconds, each further failure doubles
    the wait, and ``cap`` bounds it so a flaky-but-recoverable shard is
    never benched for unbounded time.
    """
    if failures <= 0:
        return 0.0
    return min(cap, base * (2.0 ** (failures - 1)))


@dataclass(frozen=True)
class CampaignSpec:
    """Deterministic description of one service campaign.

    Everything the service persists or re-derives on resume is a pure
    function of this spec: unit order is ``workloads × techniques`` (both
    in given order), plans come from ``seed`` exactly as in
    :func:`~repro.faultinjection.campaign.run_campaign`, and shards are
    serve-order chunks of ``shard_size`` plans.
    """

    workloads: tuple[str, ...]
    techniques: tuple[str, ...]
    samples: int
    seed: int
    scale: int = 1
    shard_size: int = 200
    #: Convergence early-exit (see :mod:`repro.machine.converge`): each
    #: unit's golden run records its digest trail at compile time; every
    #: shard worker inherits it through fork and stops masked runs at the
    #: first matching boundary. Result bytes are unchanged by contract, but the
    #: flag is still part of the spec identity — resuming with a spec
    #: that flips it is rejected like any other spec mismatch.
    converge: bool = False

    def validate(self) -> None:
        if not self.workloads:
            raise ServiceError("spec needs at least one workload")
        if not self.techniques:
            raise ServiceError("spec needs at least one technique")
        for name in self.workloads:
            get_workload(name)  # raises WorkloadError for unknown names
        for name in self.techniques:
            if name not in VARIANTS:
                raise ServiceError(
                    f"unknown technique {name!r}; known: {VARIANTS}"
                )
        if self.samples < 1:
            raise ServiceError(f"samples must be >= 1, got {self.samples}")
        if self.shard_size < 1:
            raise ServiceError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        if self.scale < 1:
            raise ServiceError(f"scale must be >= 1, got {self.scale}")

    def to_json(self) -> dict:
        return {
            "workloads": list(self.workloads),
            "techniques": list(self.techniques),
            "samples": self.samples,
            "seed": self.seed,
            "scale": self.scale,
            "shard_size": self.shard_size,
            "converge": self.converge,
        }

    @staticmethod
    def from_json(data: dict) -> "CampaignSpec":
        return CampaignSpec(
            workloads=tuple(data["workloads"]),
            techniques=tuple(data["techniques"]),
            samples=data["samples"],
            seed=data["seed"],
            scale=data["scale"],
            shard_size=data["shard_size"],
            converge=data["converge"],
        )


@dataclass(frozen=True)
class ShardDescriptor:
    """One unit of durable work: a contiguous site range of one unit.

    ``site_lo``/``site_hi`` are the first/last fault sites of the plans
    routed to the shard (informational — the plan list itself is
    re-derived from the spec). ``shard_id`` doubles as the journal key
    and the segment file stem.
    """

    unit_index: int
    shard_index: int
    site_lo: int
    site_hi: int
    plan_count: int

    @property
    def shard_id(self) -> str:
        return f"u{self.unit_index:02d}-s{self.shard_index:04d}"

    def to_json(self) -> dict:
        return {
            "unit_index": self.unit_index,
            "shard_index": self.shard_index,
            "site_lo": self.site_lo,
            "site_hi": self.site_hi,
            "plan_count": self.plan_count,
        }


@dataclass
class CompiledUnit:
    """One (workload, technique) unit, compiled and sharded."""

    index: int
    workload: str
    technique: str
    #: program, golden run, trail and the one machine, set up once here
    #: and inherited by every forked shard worker
    ctx: _ShardContext
    shards: list[tuple[ShardDescriptor, list[IndexedPlan]]]
    #: static-instruction uid -> program-local ordinal (see execute_shard)
    uid_map: dict[int, int]

    @property
    def unit_id(self) -> str:
        return f"{self.workload}-{self.technique}"


def _partition_plans(
    unit_index: int, plans: list[IndexedPlan], shard_size: int
) -> list[tuple[ShardDescriptor, list[IndexedPlan]]]:
    """Chunk the unit's plans, in serve order, into site-range shards."""
    ordered = [indexed for _, site_plans in _checkpoint_schedule(plans)
               for indexed in site_plans]
    shards = []
    for shard_index, start in enumerate(range(0, len(ordered), shard_size)):
        chunk = ordered[start:start + shard_size]
        shards.append((
            ShardDescriptor(
                unit_index=unit_index,
                shard_index=shard_index,
                site_lo=chunk[0][1].site_index,
                site_hi=chunk[-1][1].site_index,
                plan_count=len(chunk),
            ),
            chunk,
        ))
    return shards


def compile_campaign(spec: CampaignSpec) -> list[CompiledUnit]:
    """Compile a spec into executable units with deterministic shards.

    Builds each unit's protected program and runs the campaign set-up a
    flat ``run_campaign`` runs — one machine, one golden pass, the full
    plan population (shard boundaries never influence plan contents) —
    then partitions the plans into site-range shards.
    """
    spec.validate()
    units: list[CompiledUnit] = []
    for workload in spec.workloads:
        source = get_workload(workload).source(spec.scale)
        for technique in spec.techniques:
            names = ("raw",) if technique == "raw" else ("raw", technique)
            build = build_variants(source, names=names)
            program = build[technique].asm
            ctx, _, plans = _setup(program, spec.samples, spec.seed,
                                   telemetry=True, converge=spec.converge)
            index = len(units)
            uid_map = {instr.uid: ordinal for ordinal, instr
                       in enumerate(program.instructions())}
            units.append(CompiledUnit(
                index=index, workload=workload, technique=technique, ctx=ctx,
                shards=_partition_plans(index, plans, spec.shard_size),
                uid_map=uid_map,
            ))
    return units


def execute_shard(
    unit: CompiledUnit, plans: list[IndexedPlan]
) -> list[tuple[int, FaultRecord]]:
    """Execute one shard's injections; records in serve order.

    Pure and deterministic: re-executing a shard (after a crash, on
    another host, years later) reproduces the identical record list.
    ``instruction_uid`` is rewritten from the process-global uid counter
    to the instruction's program-local ordinal — uids depend on how many
    instructions the hosting process happened to allocate earlier, and
    the service's byte-identity contract cannot tolerate that.

    When the unit carries a convergence trail (``spec.converge``), every
    injection runs under it — masked runs finish at their first matching
    boundary with bit-identical records, so segments, merges and the
    summary stay byte-stable with the flag on or off.
    """
    results, _, _ = _serve(unit.ctx, None, plans)
    return [
        (run, replace(record,
                      instruction_uid=unit.uid_map.get(record.instruction_uid)
                      if record.instruction_uid is not None else None))
        for run, record in results
    ]


@dataclass
class ServiceConfig:
    """Operational knobs of one service invocation (not part of the spec).

    None of these affect result bytes — they only shape *how* the work is
    executed: concurrency, timeouts, retry policy. ``workers=0`` executes
    shards in-process (no fork; timeouts unenforced), which is also the
    automatic fallback where ``fork`` is unavailable.

    ``fail_shards``/``hang_shards`` are test hooks mapping shard ids to
    the number of leading attempts that should crash (nonzero exit) or
    hang (until the timeout kills them); production code leaves them
    empty.
    """

    workers: int = 2
    shard_timeout: float = 300.0
    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    max_failures: int = 3
    poll_interval: float = 0.02
    fsync: bool = True
    requeue_quarantined: bool = False
    log: Callable[[str], None] | None = None
    fail_shards: dict[str, int] = field(default_factory=dict)
    hang_shards: dict[str, int] = field(default_factory=dict)


@dataclass
class ServiceReport:
    """What one ``serve``/``resume`` invocation did and where results are."""

    complete: bool
    shards: int
    done_shards: int
    executed_shards: int      # shards executed by *this* invocation
    adopted_segments: int     # orphan segments validated and adopted
    quarantined: tuple[str, ...]
    peak_record_buffer: int   # most FaultRecords resident at once
    results: dict[str, str]   # unit_id -> results JSONL path
    aggregates: dict[str, TelemetryAggregate]
    summary_path: str


@dataclass
class _ShardState:
    """Supervisor-side mutable state of one shard."""

    descriptor: ShardDescriptor
    unit: CompiledUnit
    plans: list[IndexedPlan]
    failures: int = 0
    done: bool = False
    quarantined: bool = False
    ready_at: float = 0.0
    reasons: list[str] = field(default_factory=list)

    @property
    def shard_id(self) -> str:
        return self.descriptor.shard_id


def _write_segment(path: str, results, fsync: bool) -> None:
    """Persist one shard's records atomically: tmp + fsync + rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with JsonlSink(tmp) as sink:
            for _, record in results:
                sink.write(record)
            if fsync:
                sink.sync()
        durable_replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _worker_entry(
    service: "CampaignService",
    state: _ShardState,
    attempt: int,
    log_path: str,
) -> None:
    """Forked worker: execute one shard, persist its segment, exit.

    Runs in a child process. The inherited state-directory lock fd is
    closed (without unlocking — flock is shared across fork, and LOCK_UN
    would release the supervisor's lock too). All exits go through
    ``os._exit`` so inherited buffers are never double-flushed.
    """
    code = 1
    try:
        service._lock.close_inherited()
        config = service.config
        sid = state.shard_id
        if attempt <= config.hang_shards.get(sid, 0):
            time.sleep(3600.0)  # test hook: hold the lease until killed
        if attempt <= config.fail_shards.get(sid, 0):
            os._exit(21)  # test hook: simulated worker crash
        results = execute_shard(state.unit, state.plans)
        _write_segment(service._segment_path(sid), results, config.fsync)
        code = 0
    except BaseException:
        try:
            with open(log_path, "a", encoding="utf-8") as handle:
                handle.write(traceback.format_exc())
        except OSError:
            pass
    finally:
        os._exit(code)


class CampaignService:
    """Supervisor owning one state directory's campaign lifecycle.

    Construct with a ``spec`` to initialize (or idempotently re-attach
    to) a campaign, or without one to resume whatever the journal
    records. :meth:`run` drives the campaign to completion — or as far as
    quarantine policy allows — and finalizes outputs.
    """

    def __init__(
        self,
        state_dir,
        spec: CampaignSpec | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        self.state_dir = os.fspath(state_dir)
        self.spec = spec
        self.config = config or ServiceConfig()
        self._lock = FileLock(os.path.join(self.state_dir, "lock"))
        self.peak_record_buffer = 0
        self._adopted = 0
        for sub in ("segments", "results", "logs", "quarantine"):
            os.makedirs(os.path.join(self.state_dir, sub), exist_ok=True)

    # -- paths ------------------------------------------------------------

    def _journal_path(self) -> str:
        return os.path.join(self.state_dir, "journal.jsonl")

    def _segment_path(self, shard_id: str) -> str:
        return os.path.join(self.state_dir, "segments", f"{shard_id}.jsonl")

    def _results_path(self, unit_id: str) -> str:
        return os.path.join(self.state_dir, "results", f"{unit_id}.jsonl")

    def _log_path(self, shard_id: str, attempt: int) -> str:
        return os.path.join(self.state_dir, "logs",
                            f"{shard_id}.attempt-{attempt}.log")

    def _quarantine_path(self, shard_id: str) -> str:
        return os.path.join(self.state_dir, "quarantine", f"{shard_id}.json")

    def summary_path(self) -> str:
        return os.path.join(self.state_dir, "summary.json")

    def _say(self, message: str) -> None:
        if self.config.log is not None:
            self.config.log(message)

    # -- lifecycle --------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drive the campaign to completion (or quarantine) and finalize."""
        with self._lock:
            journal = Journal(self._journal_path(), fsync=self.config.fsync)
            try:
                spec = self._resolve_spec(journal)
                units = compile_campaign(spec)
                states = self._build_states(units)
                self._replay(journal, states)
                self._adopt_segments(journal, states)
                adopted = self._adopted
                executed = self._supervise(journal, states)
                return self._finalize(journal, spec, units, states,
                                      executed, adopted)
            finally:
                journal.close()

    def _resolve_spec(self, journal: Journal) -> CampaignSpec:
        stored = None
        for record in journal.recovered:
            if record.get("type") == "campaign":
                if record.get("version") != SERVICE_VERSION:
                    raise ServiceError(
                        f"{self.state_dir} was written by service version "
                        f"{record.get('version')}, this is {SERVICE_VERSION}"
                    )
                stored = CampaignSpec.from_json(record["spec"])
        if stored is None:
            if self.spec is None:
                raise ServiceError(
                    f"{self.state_dir} holds no campaign to resume; start "
                    f"one with `ferrum-eval serve`"
                )
            self.spec.validate()
            journal.append({"type": "campaign", "version": SERVICE_VERSION,
                            "spec": self.spec.to_json()})
            return self.spec
        if self.spec is not None and self.spec.to_json() != stored.to_json():
            raise ServiceError(
                f"{self.state_dir} already holds a different campaign "
                f"(stored {stored.to_json()}, requested "
                f"{self.spec.to_json()}); use a fresh state directory or "
                f"resume without a spec"
            )
        self.spec = stored
        return stored

    def _build_states(
        self, units: list[CompiledUnit]
    ) -> dict[str, _ShardState]:
        states: dict[str, _ShardState] = {}
        for unit in units:
            for descriptor, plans in unit.shards:
                states[descriptor.shard_id] = _ShardState(
                    descriptor=descriptor, unit=unit, plans=plans,
                )
        return states

    def _replay(
        self, journal: Journal, states: dict[str, _ShardState]
    ) -> None:
        """Fold journal history into shard states.

        ``failed`` records (worker crashes/timeouts) count toward
        quarantine; ``leased`` records do not — a supervisor killed
        mid-lease says nothing about the shard's health, and counting
        kills would quarantine innocent shards under chaos. Quarantine is
        re-derived from the failure count, so losing a torn
        ``quarantined`` record changes nothing.
        """
        for record in journal.recovered:
            kind = record.get("type")
            if kind not in ("done", "failed", "quarantined", "requeued"):
                continue
            state = states.get(record.get("shard", ""))
            if state is None:
                raise ServiceError(
                    f"journal references unknown shard "
                    f"{record.get('shard')!r}; the state directory does "
                    f"not match its spec"
                )
            if kind == "done":
                state.done = True
            elif kind == "failed":
                state.failures += 1
                state.reasons.append(record.get("reason", "unknown"))
            elif kind == "quarantined":
                # Sticky across resumes (even under a laxer max_failures)
                # until explicitly requeued.
                state.quarantined = True
            elif kind == "requeued":
                state.failures = 0
                state.quarantined = False
                state.reasons.clear()
        for state in states.values():
            if state.done:
                state.quarantined = False
                continue
            if (state.quarantined
                    or state.failures >= self.config.max_failures):
                if self.config.requeue_quarantined:
                    journal.append({"type": "requeued",
                                    "shard": state.shard_id})
                    state.failures = 0
                    state.quarantined = False
                    state.reasons.clear()
                    self._say(f"[{state.shard_id}] requeued from quarantine")
                else:
                    state.quarantined = True

    def _adopt_segments(
        self, journal: Journal, states: dict[str, _ShardState]
    ) -> None:
        """Adopt complete orphan segments left by killed supervisors.

        A worker that finished after its supervisor died leaves a valid
        segment with no ``done`` record. Segments are atomically renamed,
        so existence means completeness; the record count is still
        validated against the shard's plan count before adoption.
        """
        self._adopted = 0
        for shard_id in sorted(states):
            state = states[shard_id]
            if state.done:
                continue
            path = self._segment_path(shard_id)
            if not os.path.exists(path):
                continue
            if self._segment_valid(path, state):
                journal.append({"type": "done", "shard": shard_id,
                                "records": state.descriptor.plan_count,
                                "adopted": True})
                state.done = True
                state.quarantined = False
                self._adopted += 1
                self._say(f"[{shard_id}] adopted orphan segment")
            else:
                os.unlink(path)  # foreign or stale: re-execute

    def _segment_valid(self, path: str, state: _ShardState) -> bool:
        try:
            records = read_jsonl(path)
        except (OSError, ValueError):
            return False
        self._note_buffer(len(records))
        if len(records) != state.descriptor.plan_count:
            return False
        indices = [record.run_index for record in records]
        return indices == [run for run, _ in state.plans]

    def _note_buffer(self, resident_records: int) -> None:
        self.peak_record_buffer = max(self.peak_record_buffer,
                                      resident_records)

    # -- supervision ------------------------------------------------------

    def _record_failure(
        self, journal: Journal, state: _ShardState, reason: str
    ) -> None:
        state.failures += 1
        state.reasons.append(reason)
        journal.append({"type": "failed", "shard": state.shard_id,
                        "failures": state.failures, "reason": reason})
        if state.failures >= self.config.max_failures:
            state.quarantined = True
            journal.append({"type": "quarantined", "shard": state.shard_id,
                            "failures": state.failures})
            self._write_quarantine_artifact(state)
            self._say(f"[{state.shard_id}] quarantined after "
                      f"{state.failures} failures: {reason}")
        else:
            delay = backoff_delay(state.failures, self.config.backoff_base,
                                  self.config.backoff_cap)
            state.ready_at = time.monotonic() + delay
            self._say(f"[{state.shard_id}] failed ({reason}); retry "
                      f"{state.failures + 1} in {delay:.2f}s")

    def _write_quarantine_artifact(self, state: _ShardState) -> None:
        artifact = {
            "shard": state.shard_id,
            "unit": state.unit.unit_id,
            "descriptor": state.descriptor.to_json(),
            "failures": state.failures,
            "reasons": state.reasons,
            "logs": [
                self._log_path(state.shard_id, attempt)
                for attempt in range(1, state.failures + 1)
                if os.path.exists(self._log_path(state.shard_id, attempt))
            ],
            "replay": (
                f"re-run after fixing: ferrum-eval resume --state-dir "
                f"{self.state_dir} --requeue-quarantined"
            ),
        }
        path = self._quarantine_path(state.shard_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def _mark_done(
        self, journal: Journal, state: _ShardState
    ) -> None:
        journal.append({"type": "done", "shard": state.shard_id,
                        "records": state.descriptor.plan_count})
        state.done = True
        self._say(f"[{state.shard_id}] done "
                  f"({state.descriptor.plan_count} records)")

    def _supervise(
        self, journal: Journal, states: dict[str, _ShardState]
    ) -> int:
        """Execute every non-done, non-quarantined shard. Returns count."""
        pending = [states[sid] for sid in sorted(states)
                   if not states[sid].done and not states[sid].quarantined]
        if not pending:
            return 0
        for state in pending:
            self._note_buffer(state.descriptor.plan_count)
        context = _fork_context() if self.config.workers >= 1 else None
        if context is None:
            return self._supervise_inprocess(journal, pending)
        return self._supervise_workers(journal, pending, context)

    def _supervise_inprocess(self, journal: Journal, pending) -> int:
        """Sequential fallback: same journal/segment flow, no processes.

        Wall-clock timeouts are unenforced here (there is no worker to
        kill); the ``fail_shards`` hook still exercises the failure path.
        """
        executed = 0
        for state in pending:
            while not state.done and not state.quarantined:
                delay = state.ready_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                attempt = state.failures + 1
                journal.append({"type": "leased", "shard": state.shard_id,
                                "attempt": attempt, "pid": os.getpid()})
                try:
                    if attempt <= self.config.fail_shards.get(
                            state.shard_id, 0):
                        raise ServiceError("injected test failure")
                    results = execute_shard(state.unit, state.plans)
                    _write_segment(self._segment_path(state.shard_id),
                                   results, self.config.fsync)
                except Exception as exc:
                    self._record_failure(
                        journal, state, f"{type(exc).__name__}: {exc}")
                else:
                    executed += 1
                    self._mark_done(journal, state)
        return executed

    def _supervise_workers(self, journal: Journal, pending, context) -> int:
        """Fork-based supervisor: bounded leases, timeouts, requeue."""
        executed = 0
        waiting = list(pending)  # sorted by shard id already
        running: dict[str, tuple] = {}

        def next_ready(now: float):
            for state in waiting:
                if state.ready_at <= now:
                    return state
            return None

        while waiting or running:
            now = time.monotonic()
            progressed = False
            while len(running) < max(1, self.config.workers):
                state = next_ready(now)
                if state is None:
                    break
                waiting.remove(state)
                attempt = state.failures + 1
                log_path = self._log_path(state.shard_id, attempt)
                process = context.Process(
                    target=_worker_entry,
                    args=(self, state, attempt, log_path),
                    daemon=True,
                )
                process.start()
                journal.append({"type": "leased", "shard": state.shard_id,
                                "attempt": attempt, "pid": process.pid})
                deadline = now + self.config.shard_timeout
                running[state.shard_id] = (process, deadline, state)
                self._say(f"[{state.shard_id}] leased attempt {attempt} "
                          f"(pid {process.pid})")
                progressed = True
            for shard_id in list(running):
                process, deadline, state = running[shard_id]
                if process.exitcode is not None:
                    process.join()
                    del running[shard_id]
                    progressed = True
                    segment = self._segment_path(shard_id)
                    if (process.exitcode == 0
                            and os.path.exists(segment)
                            and self._segment_valid(segment, state)):
                        executed += 1
                        self._mark_done(journal, state)
                    else:
                        reason = (f"exit {process.exitcode}"
                                  if process.exitcode != 0
                                  else "segment missing or invalid")
                        self._record_failure(journal, state, reason)
                        if not state.done and not state.quarantined:
                            waiting.append(state)
                            waiting.sort(key=lambda s: s.shard_id)
                elif time.monotonic() >= deadline:
                    process.kill()
                    process.join()
                    del running[shard_id]
                    progressed = True
                    self._record_failure(
                        journal, state,
                        f"timeout after {self.config.shard_timeout}s")
                    if not state.done and not state.quarantined:
                        waiting.append(state)
                        waiting.sort(key=lambda s: s.shard_id)
            if not progressed:
                time.sleep(self.config.poll_interval)
        return executed

    # -- finalize ---------------------------------------------------------

    def _merge_unit(
        self, unit: CompiledUnit, aggregate: TelemetryAggregate
    ) -> str:
        """Concatenate the unit's segments, in shard order, into one JSONL.

        Shards are contiguous ranges of the serve order and each segment
        is in serve order, so the concatenation is the unit's serve
        order. Lines are copied verbatim (they were serialized
        deterministically at execution time), so the output file is a
        pure, byte-stable function of the segment set.
        """
        out_path = self._results_path(unit.unit_id)
        tmp = f"{out_path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as out:
                for descriptor, _ in unit.shards:
                    path = self._segment_path(descriptor.shard_id)
                    with open(path, encoding="utf-8") as segment:
                        for line in segment:
                            if line.strip():
                                out.write(line)
                                aggregate.add(
                                    FaultRecord.from_json(json.loads(line)))
                out.flush()
                if self.config.fsync:
                    os.fsync(out.fileno())
            durable_replace(tmp, out_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return out_path

    def _finalize(
        self,
        journal: Journal,
        spec: CampaignSpec,
        units: list[CompiledUnit],
        states: dict[str, _ShardState],
        executed: int,
        adopted: int,
    ) -> ServiceReport:
        quarantined = tuple(sid for sid in sorted(states)
                            if states[sid].quarantined)
        complete = not quarantined
        results: dict[str, str] = {}
        aggregates: dict[str, TelemetryAggregate] = {}
        unit_summaries: dict[str, dict] = {}
        for unit in units:
            if any(not states[descriptor.shard_id].done
                   for descriptor, _ in unit.shards):
                continue  # a quarantined shard leaves the unit unmerged
            aggregate = TelemetryAggregate()
            results[unit.unit_id] = self._merge_unit(unit, aggregate)
            aggregates[unit.unit_id] = aggregate
            sdc = aggregate.counts[Outcome.SDC]
            unit_summaries[unit.unit_id] = {
                "workload": unit.workload,
                "technique": unit.technique,
                "fault_sites": unit.ctx.golden.fault_sites,
                "dynamic_instructions": unit.ctx.golden.dynamic_instructions,
                "shards": len(unit.shards),
                "records": aggregate.records,
                "sdc_probability": (sdc / aggregate.records
                                    if aggregate.records else 0.0),
                "aggregate": aggregate.to_json(),
                "latency_histogram": [list(row)
                                      for row in aggregate.latency_rows()],
            }
        summary = {
            "version": SERVICE_VERSION,
            "spec": spec.to_json(),
            "complete": complete,
            "shards": len(states),
            "done_shards": sum(1 for s in states.values() if s.done),
            "quarantined": list(quarantined),
            "units": unit_summaries,
        }
        path = self.summary_path()
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
                handle.write("\n")
                handle.flush()
                if self.config.fsync:
                    os.fsync(handle.fileno())
            durable_replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        journal.append({"type": "finalized", "complete": complete})
        self._say(
            f"campaign {'complete' if complete else 'INCOMPLETE'}: "
            f"{summary['done_shards']}/{len(states)} shards done, "
            f"{len(quarantined)} quarantined; summary at {path}"
        )
        return ServiceReport(
            complete=complete,
            shards=len(states),
            done_shards=summary["done_shards"],
            executed_shards=executed,
            adopted_segments=adopted,
            quarantined=quarantined,
            peak_record_buffer=self.peak_record_buffer,
            results=results,
            aggregates=aggregates,
            summary_path=path,
        )


def serve_campaign(
    state_dir,
    spec: CampaignSpec,
    config: ServiceConfig | None = None,
) -> ServiceReport:
    """Initialize (or idempotently re-attach to) a campaign and run it.

    Starting over an existing state directory is allowed only when the
    stored spec matches exactly; otherwise a :class:`ServiceError` points
    at the conflict instead of silently mixing campaigns.
    """
    return CampaignService(state_dir, spec=spec, config=config).run()


def resume_campaign(
    state_dir,
    config: ServiceConfig | None = None,
) -> ServiceReport:
    """Resume the campaign recorded in ``state_dir``'s journal.

    Safe after a kill at any instant: the journal's torn tail is
    repaired, orphan segments are adopted, completed shards are skipped,
    and the remainder executes to the same bytes an uninterrupted run
    produces. Resuming an already-complete campaign just re-finalizes
    (idempotently) and reports.
    """
    return CampaignService(state_dir, spec=None, config=config).run()
