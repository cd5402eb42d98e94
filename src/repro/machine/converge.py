"""Golden digest trails and convergence early-exit for faulted runs.

The large masked majority of injected faults re-converges to the fault-free
execution within a short window: the flipped register is overwritten, the
perturbed pages are rewritten with the golden values, and from that point
the run is bit-identical to the golden one. FastFlip exploits exactly this
re-join point to collapse injection cost; MEEK bounds checker cost by only
inspecting state the error cone can reach. This module brings that dynamic
pruning to the campaign engines:

* :func:`record_trail` is the golden run of a (program, input) unit — on
  whichever execution engine the machine uses, they are bit-identical —
  and records a :class:`ConvergenceTrail` as it goes: at every
  ``interval`` fault sites, a :class:`TrailEntry` with the pc/site/executed
  ordinals, a register-file snapshot, the output, allocator and PRNG
  cursors, cumulative per-page digests, and the set of pages written during
  the interval. Page digests are computed *incrementally* from the write
  watch, so trail cost is O(pages written) rather than O(working set) per
  boundary.

* :class:`ConvergenceMonitor` (one per faulted run, from
  :meth:`ConvergenceTrail.monitor`) arms a memory write watch at the flip
  and, at each boundary after it, compares only the **divergence cone**:
  registers plus the pages the faulted run wrote since the flip plus the
  pages the golden run wrote since the flip's interval (an over-
  approximation — comparing an extra page that matches is sound and pages
  outside the cone are equal by induction). On a full match the remainder
  of execution is provably bit-identical to golden, so the run finishes
  immediately with the golden outcome and counterfactual counters —
  including the budget check, so hang classification stays bit-identical.

Soundness of the golden-outcome substitution: the machine is deterministic
and closed — the next transition depends only on (pc, registers, memory,
output, heap cursor, PRNG state). If every component matches the golden
trail at the same site ordinal, every later transition matches too, so
exit code, output, remaining dynamic instructions and remaining fault
sites are exactly the golden ones. The only non-architectural input is the
instruction budget, which the monitor checks counterfactually before
converging. See ``docs/performance.md`` ("Dynamic convergence pruning").
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, replace

from repro.machine.cpu import Machine, RunResult
from repro.machine.memory import PAGE_SIZE
from repro.machine.state import RegisterFileSnapshot

#: Fault-free pages compare against the zero-fill image, not a stored digest.
_ZERO_PAGE = bytes(PAGE_SIZE)

#: Failed boundary compares before a monitor stops checking. A masked fault
#: converges within a few boundaries of the flip; a fault that is still
#: divergent after this many compares (dead-value flips that never get
#: overwritten, SDC, corrupted control flow) will almost never converge, so
#: the run finishes on one plain engine leg instead of stopping at every
#: remaining boundary.
GIVE_UP_AFTER = 8

#: A trail's first boundary spacing in fault sites, and the entry count at
#: which it folds to half and doubles the spacing (see :func:`record_trail`).
FIRST_INTERVAL = 16
TRAIL_CAP = 1024


def _page_digest(view) -> bytes:
    """16-byte BLAKE2b digest of one page (or page view)."""
    return hashlib.blake2b(view, digest_size=16).digest()


@dataclass(frozen=True)
class TrailEntry:
    """Golden architectural state at one trail boundary.

    ``digests[seg]`` maps page index -> digest for every page the golden
    run has written *up to* this boundary (cumulative); pages absent from
    it are still zero-fill. ``changed[seg]`` is the set of pages written
    *during* the interval ending here — the golden side's contribution to
    a divergence cone that opened in or before this interval.
    """

    site: int
    pc: int
    executed: int
    registers: RegisterFileSnapshot
    output: tuple[str, ...]
    heap_cursor: int
    lcg_state: int
    digests: tuple[dict[int, bytes], ...]
    changed: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ConvergenceTrail:
    """Digest trail of one fault-free (program, input) execution."""

    interval: int
    entries: tuple[TrailEntry, ...]
    #: the fault-free run the trail was recorded on
    golden: RunResult

    def monitor(self, flip_site: int) -> "ConvergenceMonitor | None":
        """Monitor for a run flipping at ``flip_site``; None if no boundary
        lies strictly after the flip (nothing to converge against)."""
        sites = [entry.site for entry in self.entries]
        start = bisect_right(sites, flip_site)
        if start >= len(self.entries):
            return None
        return ConvergenceMonitor(self, flip_site, self.entries[start:])

    def fingerprint(self) -> str:
        """Content hash of the trail, stable across engines and copies.

        Serializes only architectural facts (ordinals, register values,
        page digests, output) — no instruction uids, no object identities —
        so a trail recorded from ``program.copy()`` or on a different
        execution engine fingerprints identically. Used by the compose
        section cache to key cached results on the trail actually in force.
        """
        payload = {
            "version": 1,
            "interval": self.interval,
            "total_executed": self.golden.dynamic_instructions,
            "total_sites": self.golden.fault_sites,
            "exit_code": self.golden.exit_code,
            "output": list(self.golden.output),
            "entries": [
                {
                    "site": entry.site,
                    "pc": entry.pc,
                    "executed": entry.executed,
                    "rflags": entry.registers.rflags,
                    "gprs": sorted(entry.registers.gprs.items()),
                    "vectors": sorted(entry.registers.vectors.items()),
                    "heap_cursor": entry.heap_cursor,
                    "lcg_state": entry.lcg_state,
                    "output": list(entry.output),
                    "digests": [
                        sorted((page, digest.hex()) for page, digest
                               in seg_digests.items())
                        for seg_digests in entry.digests
                    ],
                    "changed": [sorted(seg) for seg in entry.changed],
                }
                for entry in self.entries
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def record_trail(
    machine: Machine,
    function: str = "main",
    args: tuple[int, ...] = (),
    fault_hook=None,
) -> tuple[RunResult, ConvergenceTrail]:
    """The golden run of ``function(*args)`` on ``machine``, plus its trail.

    ``fault_hook`` observes every site as in :meth:`Machine.run`.
    Boundaries start every :data:`FIRST_INTERVAL` sites; at
    :data:`TRAIL_CAP` entries the trail folds to half and the interval
    doubles, so no site count is needed up front and a folded trail keeps
    512–1023 boundaries: dense enough that a masked run converges soon
    after its flip, sparse enough that boundary stops stay cheap. Page
    digests are incremental: a write watch is cleared at each boundary, so
    only the pages written during that interval are hashed, and cumulative
    digest maps share unchanged entries structurally.
    """
    pc = machine._prepare(function, args)
    executed = 0
    sites = 0
    budget = machine.max_instructions
    interval = FIRST_INTERVAL
    segments = len(machine.memory.watched_writes())
    entries: list[TrailEntry] = []
    cumulative: list[dict[int, bytes]] = [{} for _ in range(segments)]
    # Watch from entry: the saved sets are merged back at the end, and the
    # pages cleared at each boundary accumulate here so restores after the
    # trail pass still see the complete dirty-page population.
    saved = machine.memory.begin_write_watch()
    accumulated = [set(pages) for pages in saved]
    try:
        while True:
            pc, executed, sites, stopped = machine._engine_leg(
                pc, executed, sites, budget, fault_hook=fault_hook,
                fault_at=-1, stop_at_site=(len(entries) + 1) * interval,
            )
            if not stopped:
                break
            written = machine.memory.watched_writes()
            changed: list[frozenset[int]] = []
            digests: list[dict[int, bytes]] = []
            for seg, pages in enumerate(written):
                if pages:
                    fresh = dict(cumulative[seg])
                    for page in pages:
                        fresh[page] = _page_digest(
                            machine.memory.page_view(seg, page)
                        )
                    cumulative[seg] = fresh
                changed.append(frozenset(pages))
                digests.append(cumulative[seg])
                accumulated[seg] |= pages
                pages.clear()
            entries.append(TrailEntry(
                site=sites,
                pc=pc,
                executed=executed,
                registers=machine.registers.snapshot_state(),
                output=tuple(machine.output),
                heap_cursor=machine.heap_cursor,
                lcg_state=machine.lcg_state,
                digests=tuple(digests),
                changed=tuple(changed),
            ))
            if len(entries) == TRAIL_CAP:
                entries = _fold(entries)
                interval *= 2
    finally:
        for seg, pages in enumerate(machine.memory.watched_writes()):
            accumulated[seg] |= pages
        machine.memory.end_write_watch(tuple(accumulated))
    if entries and entries[-1].site == sites:
        entries.pop()  # only non-site instructions follow it
    golden = RunResult(
        exit_code=machine._exit_code,
        output=tuple(machine.output),
        dynamic_instructions=executed,
        fault_sites=sites,
    )
    machine._verify_fault_free(golden, function, args)
    return golden, ConvergenceTrail(interval, tuple(entries), golden)


def _fold(entries: list[TrailEntry]) -> list[TrailEntry]:
    """Keep every second entry, each absorbing its predecessor's
    ``changed`` sets; digests are cumulative, so nothing else is lost."""
    return [
        replace(kept, changed=tuple(
            early | late for early, late in zip(dropped.changed, kept.changed)))
        for dropped, kept in zip(entries[0::2], entries[1::2])
    ]


class ConvergenceMonitor:
    """Per-faulted-run divergence-cone comparator against a golden trail.

    Lifecycle (driven by ``Machine._run_converged``): :meth:`wrap` wraps
    the injection hook so the memory write watch arms exactly at the flip;
    :meth:`check` runs at each boundary after the flip; :meth:`disarm`
    restores the watched dirty pages in a ``finally`` — it must run before
    any snapshot restore, whose zero-fill logic relies on complete dirty
    sets.
    """

    __slots__ = (
        "trail", "flip_site", "boundaries",
        "converged", "instructions_saved", "convergence_distance",
        "boundaries_compared", "gave_up",
        "_cone", "_armed", "_saved", "_failed",
    )

    def __init__(self, trail: ConvergenceTrail, flip_site: int,
                 boundaries: tuple[TrailEntry, ...]) -> None:
        self.trail = trail
        self.flip_site = flip_site
        self.boundaries = boundaries
        self.converged = False
        self.instructions_saved = 0
        self.convergence_distance = 0
        self.boundaries_compared = 0
        self.gave_up = False
        self._cone: list[set[int]] | None = None
        self._armed = False
        self._saved: tuple[set[int], ...] | None = None
        self._failed = 0

    def wrap(self, fault_hook):
        """Wrap ``fault_hook`` so the write watch arms right after the flip.

        The flip itself only perturbs registers (the paper's fault model),
        so arming after hook delivery captures exactly the pages written
        under the fault's influence. Keying on the site ordinal (not on
        ``fault_at``) makes this correct for both the checkpoint protocol
        (hook delivered once) and the replay protocol (hook at every site).
        """
        flip_site = self.flip_site

        def hooked(machine, instr, site):
            if fault_hook is not None:
                fault_hook(machine, instr, site)
            if site == flip_site and not self._armed:
                self._saved = machine.memory.begin_write_watch()
                self._armed = True

        return hooked

    def disarm(self, machine) -> None:
        """Merge pre-flip dirty pages back into the live sets."""
        if self._armed:
            machine.memory.end_write_watch(self._saved)
            self._armed = False
            self._saved = None

    def check(self, machine, pc: int, executed: int, sites: int,
              entry: TrailEntry, budget: int) -> RunResult | None:
        """Compare the divergence cone against ``entry``.

        Returns the golden-equivalent :class:`RunResult` when the faulted
        state provably rejoined the golden execution, else None. The cone
        accumulates the golden side's per-interval writes *before* any
        compare, so a failed boundary still contributes its interval to
        later checks.
        """
        if self.gave_up:
            return None
        self.boundaries_compared += 1
        cone = self._cone
        if cone is None:
            cone = self._cone = [set() for _ in entry.changed]
        for acc, changed in zip(cone, entry.changed):
            acc |= changed
        if (pc != entry.pc
                or not machine.registers.state_equals(entry.registers)
                or machine.heap_cursor != entry.heap_cursor
                or machine.lcg_state != entry.lcg_state
                or tuple(machine.output) != entry.output):
            return self._miss()
        golden = self.trail.golden
        remaining = golden.dynamic_instructions - entry.executed
        if executed + remaining > budget:
            # The real run would exhaust its budget in the (bit-identical)
            # suffix; keep executing so the hang classifies naturally.
            return self._miss()
        if not self._armed:  # pragma: no cover - flip precedes boundaries
            return self._miss()
        memory = machine.memory
        written = memory.watched_writes()
        for seg, (faulted, golden_cone, digests) in enumerate(
                zip(written, cone, entry.digests)):
            for page in faulted | golden_cone:
                view = memory.page_view(seg, page)
                want = digests.get(page)
                if want is None:
                    if view != _ZERO_PAGE:
                        return self._miss()
                elif _page_digest(view) != want:
                    return self._miss()
        self.converged = True
        self.instructions_saved = remaining
        self.convergence_distance = entry.site - self.flip_site
        return replace(golden, dynamic_instructions=executed + remaining,
                       fault_sites=sites + (golden.fault_sites - entry.site))

    def _miss(self) -> None:
        self._failed += 1
        if self._failed >= GIVE_UP_AFTER:
            self.gave_up = True
        return None
