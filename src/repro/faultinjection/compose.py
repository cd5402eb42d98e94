"""Compositional, incremental fault-injection campaigns (FastFlip-style).

A flat :func:`repro.faultinjection.campaign.run_campaign` re-injects into
the whole dynamic trace from scratch on every run. This module partitions
the trace into *sections* — maximal contiguous runs of dynamic fault sites
whose instructions belong to one region (a function body, or an innermost
loop nest inside it; see :func:`repro.asm.analysis.loop_regions`) — and
treats composition as a keying policy over the campaign executor: each
section that misses the cache is one shard of
:mod:`repro.faultinjection.campaign`'s executor, entered from a shared
prefix snapshot (:meth:`Machine.run_to_site` cursors chained section to
section), and the per-section outcome counts compose back into
whole-program rates.

**Exactness.** The composition is not an approximation: the campaign draws
the *same* global plans a flat campaign with the same seed would draw and
merely routes each plan to the section that owns its site, so composed
counts, per-origin maps, telemetry records and JSONL bytes are
bit-identical to the flat campaign, for any process count and with
``prune=True``. Cached and executed section results are written in the
executor's one serve order (by fault site, then run index).

**Incrementality.** Section results are cached on disk, content-addressed
by a hash of (section code bytes including transitively called functions,
protection-variant metadata, entry machine-state fingerprint, golden-run
digest, and the exact fault plans routed to the section). Editing or
re-protecting one function re-executes only the sections whose key
changed; everything upstream and downstream of the edit is served from the
cache. The key is exact for edits that preserve the dynamic prefix and the
per-section plan routing (e.g. swapping independent instructions,
re-running after a cache wipe); edits that change the dynamic site
population change the global plan draw and therefore miss everywhere —
the cache never returns stale results, it only loses hits. See
``docs/fault_model.md`` ("Compositional campaigns") for the full
contract.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from dataclasses import dataclass

from repro.asm.analysis import (
    instruction_regions,
    loop_regions,
    region_function,
)
from repro.asm.instructions import InstrKind
from repro.asm.printer import format_instruction
from repro.asm.program import AsmProgram
from repro.errors import InjectionError
from repro.faultinjection.campaign import (
    CampaignResult,
    IndexedPlan,
    _checkpoint_schedule,
    _execute,
    _finish,
    _setup,
    _validate,
)
from repro.faultinjection.outcome import Outcome
from repro.faultinjection.telemetry import (
    CheckpointStats,
    FaultRecord,
    JsonlSink,
)
from repro.machine.cpu import Machine, MachineSnapshot

#: Bumped whenever the on-disk entry layout or key derivation changes;
#: entries from other versions are treated as misses, never as errors.
CACHE_VERSION = 2


@dataclass(frozen=True)
class Section:
    """One contiguous slice of the dynamic fault-site population.

    ``[start_site, end_site)`` are dynamic site ordinals of the golden
    trace; every site in the slice belongs to ``region`` (and therefore to
    ``function``). Sections partition the population exactly: helper calls
    interleave their sites with their caller's, so one source-level region
    typically appears as many sections.
    """

    index: int
    region: str
    function: str
    start_site: int
    end_site: int

    @property
    def sites(self) -> int:
        return self.end_site - self.start_site


@dataclass
class ComposeStats:
    """Cache and partition economics of one composed campaign."""

    sections: int = 0             #: sections in the dynamic partition
    populated_sections: int = 0   #: sections that received >= 1 plan
    cache_hits: int = 0           #: populated sections served from cache
    cache_misses: int = 0         #: populated sections that executed
    executed_injections: int = 0  #: injections actually run this campaign
    cached_injections: int = 0    #: injections served from cached sections
    refreshed_sections: int = 0   #: sections re-executed due to ``refresh``

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        return (
            f"{self.populated_sections}/{self.sections} sections populated, "
            f"{self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.hit_rate:.0%}), {self.executed_injections} executed / "
            f"{self.cached_injections} cached injections"
        )


class SectionCache:
    """Content-addressed on-disk store of per-section campaign results.

    One JSON file per entry, named by the section key hash. Writes are
    atomic (tmp + rename) so concurrent campaigns at worst redo work;
    unreadable or version-mismatched entries are treated as misses.
    """

    def __init__(self, root) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> dict | None:
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("version") != CACHE_VERSION:
            return None
        return entry

    def store(self, key: str, entry: dict) -> None:
        tmp = self._path(key) + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, sort_keys=True)
        os.replace(tmp, self._path(key))

    def keys(self) -> set[str]:
        return {
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        }


# -- program indexing ------------------------------------------------------


class _ProgramIndex:
    """Static section metadata of one program: regions, code digests."""

    def __init__(self, program: AsmProgram) -> None:
        self.program = program
        # Runtime detectors (DME) change a section's outcome semantics
        # without changing its primary code, so the detector tag is part
        # of every section's content identity.
        self.detector = getattr(program, "detector", "none")
        self.regions_by_uid = instruction_regions(program)
        self._region_blocks: dict[str, list] = {}
        self._func_calls: dict[str, set[str]] = {}
        self._func_text: dict[str, str] = {}
        self._digests: dict[str, str] = {}
        for func in program.functions:
            by_label = loop_regions(func)
            calls: set[str] = set()
            lines: list[str] = []
            for blk in func.blocks:
                self._region_blocks.setdefault(by_label[blk.label], []).append(
                    (func.name, blk)
                )
                lines.append(f"{blk.label}:")
                for instr in blk.instructions:
                    lines.append(f"{format_instruction(instr)}|{instr.origin}")
                    if (instr.kind is InstrKind.CALL
                            and instr.target_label is not None
                            and program.has_function(instr.target_label)):
                        calls.add(instr.target_label)
            self._func_calls[func.name] = calls
            self._func_text[func.name] = "\n".join(lines)

    def _call_closure(self, roots: set[str]) -> list[str]:
        closure: set[str] = set()
        work = list(roots)
        while work:
            name = work.pop()
            if name in closure:
                continue
            closure.add(name)
            work.extend(self._func_calls.get(name, ()))
        return sorted(closure)

    def region_digest(self, region: str) -> str:
        """Content hash of a region's code plus everything it can call.

        Covers the region's own blocks (instruction text + provenance tag,
        in layout order) and the full text of every function transitively
        callable from them — a fault injected in the region can execute any
        of that code before the run ends, so all of it is part of the
        section's behavioral identity.
        """
        cached = self._digests.get(region)
        if cached is not None:
            return cached
        hasher = hashlib.sha256()
        hasher.update(f"region:{region}\n".encode())
        hasher.update(f"detector:{self.detector}\n".encode())
        callees: set[str] = set()
        for func_name, blk in self._region_blocks.get(region, ()):
            hasher.update(f"{func_name}/{blk.label}:\n".encode())
            for instr in blk.instructions:
                hasher.update(
                    f"{format_instruction(instr)}|{instr.origin}\n".encode()
                )
                if (instr.kind is InstrKind.CALL
                        and instr.target_label is not None
                        and instr.target_label in self._func_text):
                    callees.add(instr.target_label)
        for name in self._call_closure(callees):
            hasher.update(f"callee:{name}\n".encode())
            hasher.update(self._func_text[name].encode())
            hasher.update(b"\n")
        digest = hasher.hexdigest()
        self._digests[region] = digest
        return digest


def trace_sections(
    program: AsmProgram,
    function: str = "main",
    args: tuple[int, ...] = (),
    index: _ProgramIndex | None = None,
):
    """Golden run + section partition of its dynamic fault sites.

    Returns ``(golden, sections)`` where ``sections`` is the ordered list
    of maximal contiguous same-region site runs. The golden ``RunResult``
    is bit-identical to a hook-free run (the profiling hook only observes).
    """
    (ctx, _, _), sections, _ = _trace_sections(program, function, args,
                                               index)
    return ctx.golden, sections


def _trace_sections(
    program: AsmProgram,
    function: str,
    args: tuple[int, ...],
    index: _ProgramIndex | None = None,
    samples: int = 0,
    seed: int = 0,
    **setup,
):
    """The campaign ``_setup`` (``samples``, ``seed``, ``setup``) with the
    section trace riding its golden pass as an observer hook.

    Returns the set-up's ``(ctx, result, plans)``, the sections, and the
    per-site instruction-uid trace: ``site_uids[site]`` identifies the
    static instruction that is dynamic fault site ``site`` — used to
    restamp cached telemetry records with the *current* program's uids
    (uids are process-local object identity, so they are stripped from
    cache entries).
    """
    if index is None:
        index = _ProgramIndex(program)
    regions_by_uid = index.regions_by_uid
    site_regions: list[str] = []
    site_uids: list[int] = []

    def hook(machine: Machine, instr, site: int) -> None:
        site_regions.append(regions_by_uid[instr.uid])
        site_uids.append(instr.uid)

    campaign = _setup(program, samples, seed, function, args,
                      fault_hook=hook, **setup)
    sections: list[Section] = []
    start = 0
    for pos in range(1, len(site_regions) + 1):
        if pos == len(site_regions) or site_regions[pos] != site_regions[start]:
            region = site_regions[start]
            sections.append(Section(
                index=len(sections), region=region,
                function=region_function(region),
                start_site=start, end_site=pos,
            ))
            start = pos
    return campaign, sections, site_uids


# -- keys and entries ------------------------------------------------------


def _snapshot_fingerprint(snap: MachineSnapshot) -> str:
    """Digest of the complete architectural state a section starts from.

    Covers registers, flags, every dirty memory page, accumulated output,
    the heap cursor and input-LCG state, plus the cumulative (pc, executed,
    sites) counters — everything that determines the behavior, budget
    accounting and telemetry latencies of runs resumed from the snapshot.
    """
    hasher = hashlib.sha256()
    hasher.update(repr((snap.pc, snap.executed, snap.sites,
                        snap.heap_cursor, snap.lcg_state)).encode())
    for line in snap.output:
        hasher.update(line.encode())
        hasher.update(b"\x00")
    regs = snap.registers
    for name in sorted(snap.registers.gprs):
        hasher.update(f"{name}={regs.gprs[name]:x};".encode())
    for name in sorted(regs.vectors):
        hasher.update(f"{name}={regs.vectors[name]:x};".encode())
    hasher.update(f"rflags={regs.rflags:x}".encode())
    for seg_index, pages in enumerate(snap.memory.pages):
        for page_index in sorted(pages):
            hasher.update(f"[{seg_index}:{page_index}]".encode())
            hasher.update(pages[page_index])
    return hasher.hexdigest()


def _canonical_plans(
    section: Section, plans: list[IndexedPlan]
) -> list[IndexedPlan]:
    """Section plans in a run-index-free canonical order.

    Cache entries must not depend on which RNG streams happened to draw the
    plans, so entries store results keyed by plan *values*. Ties (identical
    plans) are interchangeable: the machine is deterministic, so identical
    (site, register, bit) flips have identical results.
    """
    return sorted(
        plans,
        key=lambda pair: (pair[1].site_index, pair[1].register_pick,
                          pair[1].bit_pick),
    )


def _section_key(
    index: _ProgramIndex,
    section: Section,
    fingerprint: str,
    golden,
    plans: list[IndexedPlan],
    function: str,
    args: tuple[int, ...],
    telemetry: bool,
    trail_fingerprint: str | None = None,
) -> str:
    """Content-addressed cache key of one populated section's sub-campaign.

    ``trail_fingerprint`` — the golden convergence trail's digest-of-digests
    (:meth:`repro.machine.converge.ConvergenceTrail.fingerprint`) — enters
    the key when the campaign runs with convergence early-exit. Converged
    results are bit-identical to plain ones by contract, but keying them
    separately keeps the cache honest: a convergence bug can never poison
    entries that plain campaigns would later trust, and vice versa.
    """
    payload = {
        "version": CACHE_VERSION,
        "level": "asm",
        "region": section.region,
        "code": index.region_digest(section.region),
        "metadata": sorted(index.program.metadata.items()),
        "converge": trail_fingerprint,
        "entry": {"function": function, "args": list(args),
                  "fingerprint": fingerprint},
        "golden": {
            "output": list(golden.output),
            "exit_code": golden.exit_code,
            "dynamic_instructions": golden.dynamic_instructions,
            "fault_sites": golden.fault_sites,
        },
        "plans": [
            [plan.site_index - section.start_site,
             plan.register_pick.hex(), plan.bit_pick.hex()]
            for _, plan in _canonical_plans(section, plans)
        ],
        "telemetry": bool(telemetry),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _entry_from_results(
    section: Section, plans: list[IndexedPlan], results: list, telemetry: bool
) -> dict:
    """Serialize one executed section's results in canonical plan order."""
    by_run = dict(results)
    stored = []
    for run_index, _ in _canonical_plans(section, plans):
        payload = by_run[run_index]
        if telemetry:
            data = payload.to_json()
            # Entries are RNG-stream agnostic (run_index) and process
            # agnostic (instruction_uid is object identity, re-stamped from
            # the current golden trace on load).
            del data["run_index"]
            del data["instruction_uid"]
            stored.append(data)
        else:
            stored.append(payload.value)
    return {
        "version": CACHE_VERSION,
        "region": section.region,
        "sites": [section.start_site, section.end_site],
        "telemetry": bool(telemetry),
        "results": stored,
    }


def _results_from_entry(
    entry: dict,
    section: Section,
    plans: list[IndexedPlan],
    telemetry: bool,
    site_uids: list[int],
) -> list | None:
    """Deserialize a cache entry back into (run_index, result) pairs.

    Returns ``None`` — a miss — when the entry does not hold exactly one
    result per routed plan (a corrupt or foreign entry that hashed to the
    same name would be caught by the key, so this is belt and braces).
    """
    stored = entry.get("results")
    if not isinstance(stored, list) or len(stored) != len(plans):
        return None
    results = []
    try:
        for (run_index, _), data in zip(_canonical_plans(section, plans),
                                        stored):
            if telemetry:
                record = dict(data)
                record["run_index"] = run_index
                record["instruction_uid"] = site_uids[record["site_index"]]
                results.append((run_index, FaultRecord.from_json(record)))
            else:
                results.append((run_index, Outcome(data)))
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return results


# -- the composed campaign -------------------------------------------------


def _route_plans(
    sections: list[Section], plans: list[IndexedPlan]
) -> dict[int, list[IndexedPlan]]:
    """Assign each plan to the section owning its fault site."""
    starts = [section.start_site for section in sections]
    routed: dict[int, list[IndexedPlan]] = {}
    for indexed in plans:
        slot = bisect_right(starts, indexed[1].site_index) - 1
        routed.setdefault(slot, []).append(indexed)
    return routed


def compose_campaign(
    program: AsmProgram,
    samples: int,
    seed: int = 0,
    function: str = "main",
    args: tuple[int, ...] = (),
    processes: int = 1,
    telemetry: bool = False,
    jsonl_path=None,
    prune: bool = False,
    cache_dir=None,
    refresh: tuple[str, ...] = (),
    converge: bool = False,
) -> CampaignResult:
    """Run a flat-equivalent campaign as composed per-section sub-campaigns.

    Draws the identical global plan population a flat
    :func:`~repro.faultinjection.campaign.run_campaign` with the same
    ``samples``/``seed`` would draw, routes each plan to the section owning
    its fault site, serves each populated section from the
    content-addressed ``cache_dir`` (when given) or by executing it as one
    shard of the campaign executor, starting from the section-entry
    snapshot, and composes the results. Outcome counts, per-origin maps,
    telemetry records and JSONL bytes are bit-identical to the flat
    campaign for any ``processes`` count and ``prune`` setting: the JSONL
    stream is written in the one serve order (by fault site, then run
    index).

    ``refresh`` names functions whose sections must re-execute even on a
    cache hit (the incremental re-protection workflow: after editing one
    function, refresh it once and let every other section hit).
    ``result.compose_stats`` reports the partition and cache economics.
    Under ``prune`` a section whose plans are all pruned needs no entry
    snapshot and no cache entry; it is served from the prune verdicts.

    ``converge=True`` adds convergence early-exit (see
    :func:`~repro.faultinjection.campaign.run_campaign`): the golden pass
    that traces the sections also records the digest trail, its
    fingerprint becomes part of every section's cache key, and executed
    sections finish each run at the first boundary whose divergence cone
    matches the trail. Composed counts and records stay bit-identical;
    ``result.convergence_stats`` covers *executed* injections only (cache
    hits never run, so they have no monitor counters).
    """
    _validate(processes)
    telemetry = telemetry or jsonl_path is not None
    for name in refresh:
        if not program.has_function(name):
            raise InjectionError(
                f"refresh names unknown function {name!r}; "
                f"program has {program.function_names()}"
            )
    index = _ProgramIndex(program)
    (ctx, result, plans), sections, site_uids = _trace_sections(
        program, function, args, index, samples, seed, telemetry=telemetry,
        prune=prune, converge=converge)
    trail_fp = ctx.trail.fingerprint() if ctx.trail is not None else None
    stats = CheckpointStats() if telemetry else None
    result.checkpoint_stats = stats
    compose_stats = ComposeStats(sections=len(sections))
    result.compose_stats = compose_stats
    cache = SectionCache(cache_dir) if cache_dir is not None else None
    refresh_set = set(refresh)

    routed = _route_plans(sections, plans)
    populated = [
        (section, routed[section.index])
        for section in sections
        if routed.get(section.index)
    ]
    compose_stats.populated_sections = len(populated)

    # Pass 1 — advance one cursor through the entry of every section with
    # a plan to execute (the shared golden prefix executes exactly once),
    # fingerprint each entry state, and resolve cache hits.
    cursor = None
    section_results: dict[int, list] = {}
    pending: list[tuple[Section, list[IndexedPlan], str | None,
                        MachineSnapshot | None]] = []
    for section, section_plans in populated:
        work = sum(ctx.executes(run) for run, _ in section_plans)
        if not work:
            pending.append((section, section_plans, None, None))
            continue
        cursor = ctx.advance(section.start_site, cursor)
        if stats is not None:
            stats.note_snapshot(cursor)
        key = _section_key(index, section, _snapshot_fingerprint(cursor),
                           ctx.golden, section_plans, function, args,
                           telemetry, trail_fingerprint=trail_fp)
        refreshed = section.function in refresh_set
        if refreshed:
            compose_stats.refreshed_sections += 1
        loaded = None
        if cache is not None and not refreshed:
            entry = cache.load(key)
            if entry is not None:
                loaded = _results_from_entry(entry, section, section_plans,
                                             telemetry, site_uids)
        if loaded is not None:
            compose_stats.cache_hits += 1
            compose_stats.cached_injections += work
            section_results[section.index] = loaded
        else:
            compose_stats.cache_misses += 1
            compose_stats.executed_injections += work
            pending.append((section, section_plans, key, cursor))

    # Pass 2 — execute the missing sections, each one shard that starts
    # from its section-entry snapshot.
    shards = [(snapshot, section_plans)
              for _, section_plans, _, snapshot in pending]
    executed = _execute(ctx, shards, processes, result)
    for (section, section_plans, key, _), pairs in zip(pending, executed):
        section_results[section.index] = pairs
        if cache is not None and key is not None:
            cache.store(key, _entry_from_results(section, section_plans,
                                                 pairs, telemetry))

    # Pass 3 — compose. The routed results are the flat campaign's result
    # set exactly (same plans, same per-plan outcomes), written in serve
    # order.
    by_run = dict(pair for pairs in section_results.values()
                  for pair in pairs)
    served = [(run_index, by_run[run_index])
              for _, site_plans in _checkpoint_schedule(plans)
              for run_index, _ in site_plans]
    if jsonl_path is not None:
        with JsonlSink(jsonl_path) as sink:
            for _, record in served:
                sink.write(record)
    return _finish(result, served, telemetry)
