"""DME lockstep runtime: divergence between decorrelated variants = detection.

:mod:`repro.core.dme` builds a variant pair and proves, structurally, that
the secondary is a pure renaming of the primary. This module supplies the
runtime half:

* :func:`lockstep_reference` runs *both* variants fault-free off the same
  input and canonicalizes their traces — per dynamic fault site, the
  program-local static ordinal of the executing instruction plus the
  post-writeback values of its destination registers. Register names and
  frame offsets never enter the canonical form, so the permutation maps
  are erased by construction. Any mismatch (ordinal, values, output, exit
  code, counters) raises :class:`~repro.errors.DmeDivergenceError` — the
  differential gate behind DME's zero-false-positive claim, and the
  property the ``dme-divergence`` fuzz oracle hunts across generated
  programs.

* :class:`DmeMachine` is the :class:`~repro.machine.cpu.Machine` subclass
  that :class:`~repro.core.dme.DmeProgram` instantiates transparently.
  Fault-free runs execute the primary and validate the lockstep gate;
  injection runs compare the primary's post-writeback site values against
  the cached fault-free reference *before* each fault hook fires, so a
  flipped bit is caught at the first site where its damage surfaces (a
  :class:`~repro.errors.DetectionExit`, with the same latency telemetry
  the duplication detectors report) or, failing that, by the exit-time
  output/exit-code comparison.

The reference trace is established once per (program, function, args) and
cached on the program object, so campaign workers forked after the golden
run inherit it instead of re-running the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.asm.instructions import Instruction
from repro.core.dme import DmeProgram, static_ordinals
from repro.errors import DetectionExit, DmeDivergenceError
from repro.machine.cpu import FaultHook, Machine, MachineSnapshot, RunResult
from repro.machine.memory import MemoryLayout
from repro.machine.timing import TimingConfig

__all__ = ["DmeMachine", "DmeTrace", "lockstep_reference"]


@dataclass(frozen=True)
class DmeTrace:
    """Canonical fault-free reference for one (function, args) execution.

    ``entries[site]`` is ``(primary_uid, dest_values)`` for dynamic fault
    site ``site``: the primary instruction that executed there and the
    post-writeback values of its destination registers. The uid stands in
    for the static ordinal (uids are unique per program, and the primary
    compares against its own trace), so site comparison is two tuple
    lookups per site.
    """

    entries: tuple[tuple[int, tuple[int, ...]], ...]
    output: tuple[str, ...]
    exit_code: int
    dynamic_instructions: int


def _dest_values(machine: Machine, instr: Instruction) -> tuple[int, ...]:
    read = machine.registers.read
    return tuple(read(register) for register in instr.dest_registers())


def _collect(machine: Machine, function: str, args: tuple[int, ...]):
    entries: list[tuple[int, tuple[int, ...]]] = []

    def capture(m: Machine, instr: Instruction, site: int) -> None:
        entries.append((instr.uid, _dest_values(m, instr)))

    result = machine.run(function=function, args=args, fault_hook=capture)
    return entries, result


def lockstep_reference(
    program: DmeProgram,
    function: str = "main",
    args: tuple[int, ...] = (),
    layout: MemoryLayout | None = None,
    engine: str | None = None,
    max_instructions: int = 50_000_000,
) -> DmeTrace:
    """Run the variant pair fault-free and prove observable equivalence.

    Returns the primary's canonical trace on success; raises
    :class:`DmeDivergenceError` at the first canonical-trace position (or
    output/exit/counter field) where the variants disagree. The primary is
    executed through its :meth:`~repro.core.dme.DmeProgram.plain` view so
    the reference run cannot recurse into lockstep machinery.
    """
    primary = Machine(program.plain(), layout=layout,
                      max_instructions=max_instructions, engine=engine)
    secondary = Machine(program.secondary, layout=layout,
                        max_instructions=max_instructions, engine=engine)
    p_entries, p_result = _collect(primary, function, args)
    s_entries, s_result = _collect(secondary, function, args)

    p_ordinal = static_ordinals(program)
    s_ordinal = static_ordinals(program.secondary)
    for site, ((p_uid, p_values), (s_uid, s_values)) in enumerate(
            zip(p_entries, s_entries)):
        if p_ordinal[p_uid] != s_ordinal[s_uid]:
            raise DmeDivergenceError(
                f"dme: {function}{tuple(args)}: fault-free control "
                f"divergence at site {site}: primary executes instruction "
                f"#{p_ordinal[p_uid]}, secondary #{s_ordinal[s_uid]}"
            )
        if p_values != s_values:
            raise DmeDivergenceError(
                f"dme: {function}{tuple(args)}: fault-free value divergence "
                f"at site {site} (instruction #{p_ordinal[p_uid]}): "
                f"primary wrote {p_values}, secondary {s_values}"
            )
    if len(p_entries) != len(s_entries):
        raise DmeDivergenceError(
            f"dme: {function}{tuple(args)}: fault-free site counts differ: "
            f"primary {len(p_entries)}, secondary {len(s_entries)}"
        )
    if (p_result.output != s_result.output
            or p_result.exit_code != s_result.exit_code
            or p_result.dynamic_instructions != s_result.dynamic_instructions):
        raise DmeDivergenceError(
            f"dme: {function}{tuple(args)}: fault-free exit divergence: "
            f"primary (exit={p_result.exit_code}, "
            f"executed={p_result.dynamic_instructions}) vs secondary "
            f"(exit={s_result.exit_code}, "
            f"executed={s_result.dynamic_instructions})"
        )
    return DmeTrace(
        entries=tuple(p_entries),
        output=p_result.output,
        exit_code=p_result.exit_code,
        dynamic_instructions=p_result.dynamic_instructions,
    )


class DmeMachine(Machine):
    """Lockstep execution of a :class:`~repro.core.dme.DmeProgram`.

    Constructed transparently by ``Machine(dme_program)``; the public
    :meth:`run`/:meth:`run_to_site` surface, counters, snapshots and
    telemetry fields are those of the base machine, so campaign engines,
    checkpointing, composition and the durable service drive it without
    special cases. Detection semantics:

    * every fault-hook run compares the post-writeback destination values
      at each dynamic site against the fault-free reference *before*
      delivering the hook (so the flip site itself compares clean values
      and can never self-detect spuriously), raising
      :class:`DetectionExit` at the first divergence;
    * a run that completes with output or exit code differing from the
      reference detects at exit (latency = remaining dynamic
      instructions), closing the silent-data-corruption window;
    * hook-free runs and digest-trail passes execute the primary and then
      validate the lockstep gate — a fault-free divergence raises
      :class:`DmeDivergenceError`, which is a loud failure, not a detection.
    """

    def __init__(
        self,
        program: DmeProgram,
        layout: MemoryLayout | None = None,
        max_instructions: int = 50_000_000,
        engine: str | None = None,
    ) -> None:
        if not isinstance(program, DmeProgram):
            raise TypeError(
                "DmeMachine requires a DmeProgram (primary plus "
                "decorrelated secondary); got a plain program"
            )
        super().__init__(program, layout, max_instructions, engine)
        # Entry point of the last prepared run; resumed runs (whose
        # function/args arguments the base contract ignores) look up their
        # reference trace through it.
        self._dme_key: tuple[str, tuple[int, ...]] | None = None
        # Runs the secondary variant for timed runs; built on the first one.
        self._secondary: Machine | None = None

    def _prepare(self, function: str, args: tuple[int, ...]) -> int:
        self._dme_key = (function, tuple(args))
        return super()._prepare(function, args)

    def reference_trace(self, function: str = "main",
                        args: tuple[int, ...] = ()) -> DmeTrace:
        """The cached fault-free reference (established on first use)."""
        key = (function, tuple(args))
        trace = self.program.trace_cache.get(key)
        if trace is None:
            trace = lockstep_reference(
                self.program, function, tuple(args), layout=self.layout,
                engine=self.engine, max_instructions=self.max_instructions,
            )
            self.program.trace_cache[key] = trace
        return trace

    def _verify_fault_free(self, result: RunResult, function: str,
                           args: tuple[int, ...]) -> None:
        """The lockstep gate: a fault-free run must match the pair."""
        trace = self.reference_trace(function, args)
        if (result.output != trace.output
                or result.exit_code != trace.exit_code):
            raise DmeDivergenceError(
                f"dme: {function}{tuple(args)}: fault-free run disagrees "
                f"with the reference pair (exit {result.exit_code} vs "
                f"{trace.exit_code})"
            )

    def _secondary_cycles(
        self,
        key: tuple[str, tuple[int, ...]],
        timing: TimingConfig,
        max_instructions: int | None,
    ) -> int:
        function, args = key
        if self._secondary is None:
            self._secondary = Machine(
                self.program.secondary, layout=self.layout,
                max_instructions=self.max_instructions, engine=self.engine,
            )
        result = self._secondary.run(function=function, args=args,
                                     timing=timing,
                                     max_instructions=max_instructions)
        return result.cycles or 0

    def run(
        self,
        function: str = "main",
        args: tuple[int, ...] = (),
        fault_hook: FaultHook | None = None,
        timing: TimingConfig | None = None,
        max_instructions: int | None = None,
        fault_at: int | None = None,
        resume_from: MachineSnapshot | None = None,
        converge=None,
    ) -> RunResult:
        if resume_from is not None and self._dme_key is not None:
            key = self._dme_key
        else:
            key = (function, tuple(args))

        if fault_hook is None:
            result = super().run(function=function, args=args, timing=timing,
                                 max_instructions=max_instructions,
                                 resume_from=resume_from)
            self._verify_fault_free(result, *key)
            if timing is not None and result.cycles is not None:
                # Honest lockstep cost: both variants execute, so a timed
                # run is charged the sum of the pair's cycles.
                result = replace(
                    result,
                    cycles=result.cycles + self._secondary_cycles(
                        key, timing, max_instructions),
                )
            return result

        trace = self.reference_trace(*key)
        entries = trace.entries
        want = -1 if fault_at is None else fault_at

        def lockstep(machine: Machine, instr: Instruction, site: int) -> None:
            # Compare before delivering the flip: at the flip site the
            # destination values are still fault-free, so the comparison
            # can only fire at a *later* site, where the injected damage
            # has genuinely surfaced.
            if site >= len(entries):
                raise DetectionExit(
                    f"dme: control divergence at site {site}: the "
                    f"fault-free pair executes only {len(entries)} sites"
                )
            uid, values = entries[site]
            if uid != instr.uid:
                raise DetectionExit(
                    f"dme: control divergence at site {site}: "
                    f"{instr.mnemonic} does not match the reference trace"
                )
            if _dest_values(machine, instr) != values:
                raise DetectionExit(
                    f"dme: value divergence at site {site} "
                    f"({instr.mnemonic})"
                )
            if want < 0 or site == want:
                fault_hook(machine, instr, site)

        # Convergence composes with lockstep: the monitor wraps the
        # lockstep hook, and a converged boundary — full architectural
        # equality with the fault-free trail — implies every remaining
        # per-site comparison and the exit check would have passed, so
        # finishing with the golden outcome is sound for DME too.
        result = super().run(function=function, args=args,
                             fault_hook=lockstep, timing=timing,
                             max_instructions=max_instructions,
                             resume_from=resume_from, converge=converge)
        if (result.output != trace.output
                or result.exit_code != trace.exit_code):
            # Exit-time lockstep comparison: the run diverged in its
            # observable result without ever disagreeing at a site
            # boundary. Stamp the halt counters the way an in-run
            # DetectionExit would so latency telemetry stays meaningful.
            self.halt_executed = result.dynamic_instructions
            self.halt_sites = result.fault_sites
            raise DetectionExit(
                "dme: output divergence at program exit"
            )
        return result
