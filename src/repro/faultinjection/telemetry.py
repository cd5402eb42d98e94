"""Per-fault campaign telemetry: records, aggregation, JSONL streaming.

The paper's headline analysis is *attribution*: Figs. 8/9 trace every SDC
escape back to the static instruction the fault hit and its provenance
(application code vs backend-inserted duplication/capture/check code), and
the "fast" in the title is about how quickly a checker catches a flipped
bit. Outcome counters alone cannot reproduce that, so campaigns optionally
emit one :class:`FaultRecord` per injected fault:

* **where** — dynamic site ordinal, static instruction text, mnemonic,
  provenance tag (``app`` for application code; ``dup``/``pre``/
  ``capture``/``check`` for transform-inserted code), register and bit;
* **what** — the classified :class:`Outcome`;
* **how fast** — the detection latency: dynamic instructions executed from
  the bit flip to the ``DetectionExit``, for detected faults.

Records are plain data (JSON round-trippable) so large campaigns can
stream them to a :class:`JsonlSink` instead of holding them in memory.
Aggregation helpers build the per-origin / per-instruction outcome maps
and the detection-latency histogram the evaluation layer renders.

Telemetry is strictly observational: enabling it never changes which
faults are sampled or how outcomes classify, so telemetry-on campaigns
stay bit-identical in counts to telemetry-off ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable

from repro.faultinjection.outcome import Outcome, OutcomeCounts


def normalize_origin(origin: str) -> str:
    """Map the transforms' ``"orig"`` tag to the report-facing ``"app"``.

    Transform-inserted tags (``dup``, ``pre``, ``capture``, ``check``) pass
    through unchanged; anything unknown does too, so new tags degrade to
    honest labels instead of errors.
    """
    return "app" if origin == "orig" else origin


@dataclass(frozen=True)
class FaultRecord:
    """Everything known about one injected fault and its consequence.

    ``detection_latency`` is the number of dynamic instructions executed
    after the bit flip up to and including the instruction whose checker
    raised :class:`repro.errors.DetectionExit`; ``None`` for every other
    outcome. Counters are cumulative-from-entry on both sides of the
    subtraction, so checkpointed and replayed executions report identical
    latencies.
    """

    run_index: int           # campaign run (RNG stream) that drew the plan
    level: str               # "asm" | "ir"
    site_index: int          # dynamic fault-site ordinal of the flip
    instruction: str         # static instruction, printed
    mnemonic: str            # asm mnemonic or IR opcode
    origin: str              # app | dup | pre | capture | check | ...
    register: str | None     # destination register hit (None at IR level)
    bit: int                 # resolved bit index within the destination
    outcome: Outcome
    detection_latency: int | None
    instruction_uid: int | None = None  # asm static-instruction identity

    def to_json(self) -> dict:
        """Plain-dict form with the enum flattened (one JSONL line)."""
        data = asdict(self)
        data["outcome"] = self.outcome.value
        return data

    @staticmethod
    def from_json(data: dict) -> "FaultRecord":
        fields = dict(data)
        fields["outcome"] = Outcome(fields["outcome"])
        return FaultRecord(**fields)


@dataclass
class CheckpointStats:
    """Execution-strategy counters for one checkpointed campaign.

    ``snapshot_bytes`` is the payload estimate of every cursor snapshot
    taken (dirty memory pages plus register/frame words), not process RSS;
    ``fast_forward_sites`` totals the sites each injection replayed between
    its region checkpoint and its own fault site.
    """

    snapshots: int = 0
    snapshot_bytes: int = 0
    restores: int = 0
    fast_forward_sites: int = 0

    def note_snapshot(self, snap: object) -> None:
        self.snapshots += 1
        self.snapshot_bytes += snapshot_nbytes(snap)

    def merge(self, other: "CheckpointStats") -> None:
        self.snapshots += other.snapshots
        self.snapshot_bytes += other.snapshot_bytes
        self.restores += other.restores
        self.fast_forward_sites += other.fast_forward_sites

    def summary(self) -> str:
        return (
            f"{self.snapshots} snapshots ({self.snapshot_bytes} bytes), "
            f"{self.restores} restores, "
            f"{self.fast_forward_sites} sites fast-forwarded"
        )


def snapshot_nbytes(snap: object) -> int:
    """Estimated payload bytes of a Machine/IR snapshot.

    Duck-typed over both snapshot flavours: dirty memory pages are counted
    exactly; register files and IR frame environments as 8 bytes per value.
    """
    total = sum(
        len(page)
        for segment in snap.memory.pages  # type: ignore[attr-defined]
        for page in segment.values()
    )
    registers = getattr(snap, "registers", None)
    if registers is not None:
        total += 8 * (len(registers.gprs) + len(registers.vectors) + 1)
    frames = getattr(snap, "frames", None)
    if frames is not None:
        total += sum(8 * len(frame.values) for frame in frames)
    return total


@dataclass
class ConvergenceStats:
    """Economics of convergence early-exit (``converge=True`` campaigns).

    ``runs`` counts every injection that ran under a convergence monitor
    (including flips with no trail boundary after them); ``converged``
    counts runs that provably rejoined the golden execution at a boundary
    and were finished with the golden outcome. ``instructions_saved`` sums
    the dynamic instructions those runs skipped; ``distance_sites`` sums
    the flip-to-convergence distance in fault sites; and
    ``boundaries_compared`` counts divergence-cone comparisons performed
    (each O(registers + cone pages)). Mergeable across workers and shards
    — all fields are order-independent sums.
    """

    runs: int = 0
    converged: int = 0
    instructions_saved: int = 0
    distance_sites: int = 0
    boundaries_compared: int = 0

    def note(self, monitor) -> None:
        """Fold one finished run's monitor into the totals (None = no
        boundary after the flip; the run still counts toward ``runs``)."""
        self.runs += 1
        if monitor is None:
            return
        self.boundaries_compared += monitor.boundaries_compared
        if monitor.converged:
            self.converged += 1
            self.instructions_saved += monitor.instructions_saved
            self.distance_sites += monitor.convergence_distance

    def merge(self, other: "ConvergenceStats") -> None:
        self.runs += other.runs
        self.converged += other.converged
        self.instructions_saved += other.instructions_saved
        self.distance_sites += other.distance_sites
        self.boundaries_compared += other.boundaries_compared

    @property
    def converged_fraction(self) -> float:
        return self.converged / self.runs if self.runs else 0.0

    @property
    def mean_convergence_distance(self) -> float:
        """Mean flip-to-convergence distance in fault sites (converged runs)."""
        return self.distance_sites / self.converged if self.converged else 0.0

    def summary(self) -> dict:
        return {
            "runs": self.runs,
            "converged": self.converged,
            "converged_fraction": round(self.converged_fraction, 4),
            "instructions_saved": self.instructions_saved,
            "mean_convergence_distance": round(
                self.mean_convergence_distance, 2),
            "boundaries_compared": self.boundaries_compared,
        }


class JsonlSink:
    """Streaming JSONL writer: one :class:`FaultRecord` object per line.

    Context-manager friendly; each record is serialized to a single
    ``write`` call (so a killed campaign can tear at most the final line,
    never interleave two). ``fsync=True`` additionally flushes and fsyncs
    after every record, making each line durable the moment ``write``
    returns — the mode the campaign service's journals run in. ``close``
    finalizes the file (always flushing; fsyncing in fsync mode).
    Incremental campaigns append to an existing file with ``mode="a"``.
    """

    def __init__(self, path, mode: str = "w", fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self._handle: IO[str] | None = open(path, mode, encoding="utf-8")
        self.written = 0

    def write(self, record: FaultRecord) -> None:
        if self._handle is None:
            raise ValueError(f"sink {self.path} is closed")
        self._handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
        self.written += 1
        if self.fsync:
            self.sync()

    def sync(self) -> None:
        """Flush buffered lines and force them to stable storage."""
        if self._handle is None:
            raise ValueError(f"sink {self.path} is closed")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            if self.fsync:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path) -> list[FaultRecord]:
    """Load every record from a JSONL file written by :class:`JsonlSink`.

    Tolerates a *torn trailing record* — the signature of a campaign
    killed mid-append (an unterminated final line, or a terminated final
    line that does not parse back into a :class:`FaultRecord`): the tail
    is dropped and every complete record is returned, so a killed
    campaign's stream is always loadable for resume. Corruption anywhere
    before the final line still raises — single-write appends cannot
    produce it, so it signals real file damage.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        terminated = newline >= 0
        line = data[offset:newline] if terminated else data[offset:]
        is_last = not terminated or newline + 1 >= len(data)
        if line.strip():
            try:
                records.append(
                    FaultRecord.from_json(json.loads(line.decode("utf-8")))
                )
            except (UnicodeDecodeError, ValueError, TypeError, KeyError) as exc:
                if is_last:
                    break  # torn trailing record: truncate, don't raise
                raise ValueError(
                    f"{path}: corrupt record at byte {offset} is not the "
                    f"final line: {exc}"
                ) from exc
        if not terminated:
            break
        offset = newline + 1
    return records


# -- aggregation -----------------------------------------------------------


def outcomes_by_origin(records: Iterable[FaultRecord]) -> dict[str, OutcomeCounts]:
    """Outcome histogram per provenance tag (the Fig. 8/9 attribution)."""
    by: dict[str, OutcomeCounts] = {}
    for record in records:
        by.setdefault(record.origin, OutcomeCounts()).record(record.outcome)
    return by


@dataclass
class SiteSummary:
    """Aggregated outcomes of every fault that hit one static instruction."""

    instruction: str
    origin: str
    outcomes: OutcomeCounts = field(default_factory=OutcomeCounts)

    @property
    def sdc(self) -> int:
        return self.outcomes[Outcome.SDC]


def outcomes_by_instruction(
    records: Iterable[FaultRecord],
) -> dict[tuple, SiteSummary]:
    """Per-static-instruction outcome map (FastFlip-style substrate).

    Keyed by ``instruction_uid`` where available (assembly level — distinct
    static instructions can print identically), falling back to the printed
    text (IR level).
    """
    by: dict[tuple, SiteSummary] = {}
    for record in records:
        key = (record.level, record.instruction_uid
               if record.instruction_uid is not None else record.instruction)
        summary = by.get(key)
        if summary is None:
            summary = by[key] = SiteSummary(record.instruction, record.origin)
        summary.outcomes.record(record.outcome)
    return by


@dataclass
class TelemetryAggregate:
    """Mergeable, constant-size summary of a stream of fault records.

    The durable campaign service merges per-shard partial aggregates into
    campaign totals instead of holding record lists in memory, so its
    resident footprint is bounded by the shard size, not the campaign
    size. ``add`` folds in one record; ``merge`` folds in another
    aggregate; both are associative and order-insensitive, so any shard
    partition (and any replay/resume interleaving) produces the identical
    aggregate a single sequential pass would.

    Latencies are kept as power-of-two bucket counts (bucket ``k`` covers
    ``[2**(k-1), 2**k)``; bucket 0 is latency 0), the exact shape
    :func:`latency_histogram` reports, so ``latency_rows()`` reproduces
    that helper's output without the record list.
    """

    records: int = 0
    counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    by_origin: dict[str, OutcomeCounts] = field(default_factory=dict)
    latency_buckets: dict[int, int] = field(default_factory=dict)
    max_latency: int = -1

    def add(self, record: FaultRecord) -> None:
        self.records += 1
        self.counts.record(record.outcome)
        self.by_origin.setdefault(record.origin,
                                  OutcomeCounts()).record(record.outcome)
        if (record.outcome is Outcome.DETECTED
                and record.detection_latency is not None):
            latency = record.detection_latency
            bucket = latency.bit_length()
            self.latency_buckets[bucket] = (
                self.latency_buckets.get(bucket, 0) + 1
            )
            self.max_latency = max(self.max_latency, latency)

    def merge(self, other: "TelemetryAggregate") -> None:
        self.records += other.records
        for outcome, count in other.counts.counts.items():
            self.counts.counts[outcome] += count
        for origin, counts in other.by_origin.items():
            mine = self.by_origin.setdefault(origin, OutcomeCounts())
            for outcome, count in counts.counts.items():
                mine.counts[outcome] += count
        for bucket, count in other.latency_buckets.items():
            self.latency_buckets[bucket] = (
                self.latency_buckets.get(bucket, 0) + count
            )
        self.max_latency = max(self.max_latency, other.max_latency)

    def latency_rows(self) -> list[tuple[int, int, int]]:
        """The :func:`latency_histogram` rows, rebuilt from bucket counts."""
        if self.max_latency < 0:
            return []
        rows: list[tuple[int, int, int]] = []
        lo, hi, bucket = 0, 1, 0
        while lo <= self.max_latency:
            rows.append((lo, hi, self.latency_buckets.get(bucket, 0)))
            lo, hi, bucket = hi, hi * 2, bucket + 1
        return rows

    def to_json(self) -> dict:
        """Deterministic plain-dict form (JSON round-trippable)."""
        return {
            "records": self.records,
            "counts": {o.value: self.counts[o] for o in Outcome},
            "by_origin": {
                origin: {o.value: counts[o] for o in Outcome}
                for origin, counts in sorted(self.by_origin.items())
            },
            "latency_buckets": {
                str(bucket): count
                for bucket, count in sorted(self.latency_buckets.items())
            },
            "max_latency": self.max_latency,
        }

    @staticmethod
    def from_json(data: dict) -> "TelemetryAggregate":
        aggregate = TelemetryAggregate(records=data["records"],
                                       max_latency=data["max_latency"])
        for name, count in data["counts"].items():
            aggregate.counts.counts[Outcome(name)] = count
        for origin, counts in data["by_origin"].items():
            mine = aggregate.by_origin.setdefault(origin, OutcomeCounts())
            for name, count in counts.items():
                mine.counts[Outcome(name)] = count
        for bucket, count in data["latency_buckets"].items():
            aggregate.latency_buckets[int(bucket)] = count
        return aggregate


def detection_latencies(records: Iterable[FaultRecord]) -> list[int]:
    """Latencies of every detected fault, in record order."""
    return [
        record.detection_latency
        for record in records
        if record.outcome is Outcome.DETECTED
        and record.detection_latency is not None
    ]


def latency_histogram(
    records: Iterable[FaultRecord],
) -> list[tuple[int, int, int]]:
    """Detection-latency histogram over power-of-two buckets.

    Returns ``(lo, hi, count)`` rows covering ``lo <= latency < hi``; empty
    when nothing was detected. Buckets grow geometrically because latencies
    span "next instruction" (a FERRUM check right after the flip) to whole
    loop bodies (deferred IR-level checks).
    """
    latencies = detection_latencies(records)
    if not latencies:
        return []
    peak = max(latencies)
    buckets: list[tuple[int, int, int]] = []
    lo, hi = 0, 1
    while lo <= peak:
        count = sum(1 for latency in latencies if lo <= latency < hi)
        buckets.append((lo, hi, count))
        lo, hi = hi, hi * 2
    return buckets
