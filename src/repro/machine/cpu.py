"""The machine: program loading, fetch/execute loop, fault-site hooks.

A :class:`Machine` is constructed once per program; each :meth:`Machine.run`
resets architectural state and executes from a chosen entry function until
``ret`` to the sentinel frame, an ``exit`` call, an architectural fault, the
instruction budget, or a protection-checker detection.

Fault injection attaches through ``fault_hook``: the machine numbers every
dynamically executed *fault site* (instruction with at least one register or
FLAGS destination, the paper's fault model) and invokes the hook right after
the instruction's writeback, which is where a transient fault in the
destination register manifests.

Execution is also *resumable*: :meth:`Machine.run_to_site` runs fault-free
up to a chosen site ordinal and returns a :class:`MachineSnapshot` — a deep,
O(touched pages) copy of all architectural state — and :meth:`Machine.run`
accepts ``resume_from`` to continue from such a snapshot. The checkpointed
fault-injection engine (``repro.faultinjection.campaign``) uses this to
execute the shared golden prefix of a campaign once instead of once per
sampled fault.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.program import AsmProgram, validate_program
from repro.asm.registers import ARG_GPRS, get_register
from repro.errors import (
    EngineConfigError,
    ExecutionLimitExceeded,
    MachineError,
    MachineFault,
)
from repro.machine.builtins import get_builtin, is_builtin
from repro.machine.memory import Memory, MemoryLayout, MemorySnapshot
from repro.machine.semantics import Flow
from repro.machine.state import RegisterFile, RegisterFileSnapshot
from repro.machine.timing import TimingConfig, TimingModel
from repro.utils.bitops import to_signed

#: Return-address sentinel marking the bottom of the call stack.
_SENTINEL = (1 << 64) - 1

#: Supported execution engines: the superblock-fused compiled engine and the
#: reference interpreter kept as the semantic oracle.
ENGINES = ("fused", "reference")

#: Environment variable overriding the default engine (used when ``engine``
#: is not passed explicitly; see ``docs/performance.md``).
ENGINE_ENV_VAR = "FERRUM_ENGINE"

#: Shared empty granule list for instructions with no memory traffic.
_NO_GRANULES: list[int] = []

_RSP = get_register("rsp")
_RAX = get_register("rax")
_EAX = get_register("eax")

FaultHook = Callable[["Machine", Instruction, int], None]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one complete (non-crashing) program execution."""

    exit_code: int
    output: tuple[str, ...]
    dynamic_instructions: int
    fault_sites: int
    cycles: int | None = None

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)


@dataclass(frozen=True)
class MachineSnapshot:
    """Deep copy of all architectural and runtime state at one loop point.

    Snapshots are taken at an instruction boundary (never mid-instruction),
    so restoring one and running forward is bit-identical to having run
    straight through. ``executed`` and ``sites`` are cumulative from program
    entry, which keeps instruction budgets and site ordinals of resumed runs
    identical to a from-scratch execution.
    """

    pc: int
    executed: int
    sites: int
    registers: RegisterFileSnapshot
    memory: MemorySnapshot
    output: tuple[str, ...]
    heap_cursor: int
    lcg_state: int


class Machine:
    """Executes an :class:`AsmProgram` over simulated architectural state."""

    def __new__(cls, program: AsmProgram, *args, **kwargs) -> "Machine":
        # Programs that embed a runtime detector (e.g. DME's lockstep
        # variant pair) name their machine type via a ``machine_class``
        # hook; constructing ``Machine(program)`` then transparently yields
        # that subclass, so campaign engines, the compose cache and the
        # durable service never special-case detector programs.
        if cls is Machine:
            factory = getattr(program, "machine_class", None)
            if factory is not None:
                return object.__new__(factory())
        return object.__new__(cls)

    def __init__(
        self,
        program: AsmProgram,
        layout: MemoryLayout | None = None,
        max_instructions: int = 50_000_000,
        engine: str | None = None,
    ) -> None:
        """Load ``program`` and pick an execution engine.

        ``engine`` selects ``"fused"`` (the default: superblocks over
        one-instruction single steps, both from one instruction emitter;
        see ``docs/performance.md``) or
        ``"reference"`` (the per-instruction handler interpreter, kept as
        the semantic oracle). When not passed explicitly, the
        ``FERRUM_ENGINE`` environment variable is honored.
        Both engines are bit-identical in results, fault-site numbering,
        counters, snapshots and telemetry; timing-model runs always execute
        on the reference loop, which observes per-access memory traffic.

        Loading checks every instruction's operand shape once
        (``semantics.check_shape``, through ``handler_for``): a shape
        outside the modeled subset raises ``IllegalInstructionError`` here,
        on both engines, and neither engine re-checks it at run time.
        """
        validate_program(program)
        self.program = program
        self.layout = layout or MemoryLayout()
        self.max_instructions = max_instructions
        if engine is None:
            engine = os.environ.get(ENGINE_ENV_VAR, "").strip() or "fused"
        if engine not in ENGINES:
            raise EngineConfigError(
                f"unknown execution engine {engine!r} "
                f"(choose from {', '.join(ENGINES)})"
            )
        self.engine = engine

        self._code: list[Instruction] = []
        self._func_of: list[str] = []
        self._label_index: dict[tuple[str, str], int] = {}
        self._entry: dict[str, int] = {}
        for func in program.functions:
            self._entry[func.name] = len(self._code)
            for block in func.blocks:
                self._label_index[(func.name, block.label)] = len(self._code)
                for instr in block.instructions:
                    self._code.append(instr)
                    self._func_of.append(func.name)
        # Fast-path caches: handler and fault-site flag per code index;
        # resolving a handler checks the instruction's operand shape.
        from repro.machine.semantics import handler_for

        self._handlers = [handler_for(instr) for instr in self._code]
        self._is_site = [bool(instr.dest_registers()) for instr in self._code]
        # Pre-resolved control-flow targets: validate_program guarantees
        # every jump label and call target resolves, so dynamic dispatch can
        # index these arrays instead of hashing (function, label) tuples.
        self._jump_pc: list[int] = [-1] * len(self._code)
        self._call_builtin_fn: list[Callable[["Machine"], int] | None] = (
            [None] * len(self._code)
        )
        self._call_entry_pc: list[int] = [-1] * len(self._code)
        for pc, instr in enumerate(self._code):
            kind = instr.kind
            if kind in (InstrKind.JMP, InstrKind.JCC):
                key = (self._func_of[pc], instr.target_label or "")
                self._jump_pc[pc] = self._label_index[key]
            elif kind is InstrKind.CALL:
                target = instr.target_label or ""
                if is_builtin(target):
                    self._call_builtin_fn[pc] = get_builtin(target)
                else:
                    self._call_entry_pc[pc] = self._entry[target]
        # Fused superblocks, built lazily on the first fused-engine run.
        self._fused = None

        # Mutable per-run state, initialized by _reset().
        self.registers = RegisterFile()
        self.memory = Memory(self.layout)
        self.output: list[str] = []
        self.heap_cursor = self.layout.heap_base
        self.lcg_state = 0x1234_5678
        self._exit_requested = False
        self._exit_code = 0
        self._mem_reads: list[tuple[int, int]] = []
        self._mem_writes: list[tuple[int, int]] = []
        self._collect_mem = False
        # Set by compiled call/ret steps around work the reference engine
        # performs after counting the instruction as executed; on a fault,
        # the fused run loop uses it to keep halt counters identical.
        self._post_exec = False
        # Telemetry bookkeeping (see repro.faultinjection.telemetry):
        # executed count at the most recent fault-hook delivery, and at the
        # point a MachineError aborted the run. Their difference is the
        # detection latency in dynamic instructions when a checker fires.
        self.executed_at_site = 0
        self.halt_executed = 0
        self.halt_sites = 0

    # -- helpers used by semantics/builtins ---------------------------------

    def note_mem_read(self, addr: int, size: int) -> None:
        if self._collect_mem:
            self._mem_reads.append((addr, size))

    def note_mem_write(self, addr: int, size: int) -> None:
        if self._collect_mem:
            self._mem_writes.append((addr, size))

    def request_exit(self, code: int) -> None:
        self._exit_requested = True
        self._exit_code = code

    # -- execution -----------------------------------------------------------

    def _reset(self) -> None:
        # In place: the fused engine's compiled steps capture the
        # register-file dicts and memory object at translation time, so
        # their identity must survive across runs.
        self.registers.reset()
        self.memory.reset()
        self.output = []
        self.heap_cursor = self.layout.heap_base
        self.lcg_state = 0x1234_5678
        self._exit_requested = False
        self._exit_code = 0
        self._post_exec = False

    def _prepare(self, function: str, args: tuple[int, ...]) -> int:
        """Reset state and set up the sentinel frame; returns the entry pc."""
        self._reset()
        if function not in self._entry:
            raise MachineFault(f"no entry function {function!r}")
        if len(args) > len(ARG_GPRS):
            raise MachineFault(f"too many arguments ({len(args)})")
        for value, reg_name in zip(args, ARG_GPRS):
            self.registers.write(get_register(reg_name), value & ((1 << 64) - 1))
        rsp = self.layout.stack_top - 16
        self.registers.write(_RSP, rsp - 8)
        self.memory.write_uint(rsp - 8, _SENTINEL, 8)
        return self._entry[function]

    # -- checkpoint/restore ------------------------------------------------

    def _capture(self, pc: int, executed: int, sites: int) -> MachineSnapshot:
        return MachineSnapshot(
            pc=pc,
            executed=executed,
            sites=sites,
            registers=self.registers.snapshot_state(),
            memory=self.memory.snapshot(),
            output=tuple(self.output),
            heap_cursor=self.heap_cursor,
            lcg_state=self.lcg_state,
        )

    def restore_snapshot(self, snap: MachineSnapshot) -> None:
        """Restore all mutable state captured by a :class:`MachineSnapshot`.

        The program counter and the executed/site counters live in the run
        loop, not on the instance; callers resume them by passing the
        snapshot to :meth:`run`/:meth:`run_to_site` as ``resume_from``.
        """
        self.registers.restore_state(snap.registers)
        self.memory.restore(snap.memory)
        self.output = list(snap.output)
        self.heap_cursor = snap.heap_cursor
        self.lcg_state = snap.lcg_state
        self._exit_requested = False
        self._exit_code = 0
        self._collect_mem = False
        self._post_exec = False

    def run_to_site(
        self,
        target_site: int,
        function: str = "main",
        args: tuple[int, ...] = (),
        resume_from: MachineSnapshot | None = None,
        max_instructions: int | None = None,
    ) -> MachineSnapshot:
        """Execute fault-free up to site ``target_site`` and snapshot there.

        The machine stops at the first instruction boundary where
        ``target_site`` dynamic fault sites have completed — i.e. right
        before the instruction that will become site ``target_site``
        executes (modulo interleaved non-site instructions, which run after
        the resume). ``resume_from`` lets checkpoint collection advance
        incrementally: chaining calls executes the shared prefix exactly
        once overall.
        """
        if resume_from is not None:
            if resume_from.sites > target_site:
                raise MachineFault(
                    f"cannot run backwards: snapshot is at site "
                    f"{resume_from.sites}, target is {target_site}"
                )
            self.restore_snapshot(resume_from)
            pc = resume_from.pc
            executed = resume_from.executed
            sites = resume_from.sites
        else:
            pc = self._prepare(function, args)
            executed = 0
            sites = 0
            self._collect_mem = False
        budget = max_instructions if max_instructions is not None else self.max_instructions
        pc, executed, sites, stopped = self._engine_leg(
            pc, executed, sites, budget,
            fault_hook=None, fault_at=-1, stop_at_site=target_site,
        )
        if not stopped:
            raise MachineFault(
                f"program ended after {sites} fault sites, "
                f"before reaching site {target_site}"
            )
        return self._capture(pc, executed, sites)

    def run(
        self,
        function: str = "main",
        args: tuple[int, ...] = (),
        fault_hook: FaultHook | None = None,
        timing: TimingConfig | None = None,
        max_instructions: int | None = None,
        fault_at: int | None = None,
        resume_from: MachineSnapshot | None = None,
        converge: "object | None" = None,
    ) -> RunResult:
        """Execute ``function(*args)`` to completion.

        ``fault_at`` restricts ``fault_hook`` delivery to that single site
        ordinal, skipping the per-site Python call for every other site.
        ``resume_from`` continues from a :class:`MachineSnapshot` instead of
        program entry (``function``/``args`` are then ignored — they were
        fixed when the snapshot's run began); counters resume cumulatively,
        so results and budgets match a from-scratch run bit for bit.

        ``converge`` attaches a :class:`repro.machine.converge.
        ConvergenceMonitor` to a faulted run: execution stops at golden
        digest-trail boundaries, and once the divergence cone matches the
        fault-free trail the run finishes early with the golden outcome
        (bit-identical result; see ``docs/performance.md``). Ignored for
        timing-model runs, which stay on the reference loop.

        Raises:
            MachineFault / SegmentationFault: on architectural faults (crash).
            DetectionExit: when an EDDI checker fires.
            ExecutionLimitExceeded: on instruction-budget exhaustion (hang).
        """
        if resume_from is not None:
            if timing is not None:
                raise MachineFault("timing collection cannot resume a snapshot")
            self.restore_snapshot(resume_from)
            timer = None
            pc = resume_from.pc
            executed = resume_from.executed
            sites = resume_from.sites
        else:
            pc = self._prepare(function, args)
            timer = TimingModel(timing) if timing is not None else None
            self._collect_mem = timer is not None
            executed = 0
            sites = 0

        budget = max_instructions if max_instructions is not None else self.max_instructions
        if converge is not None and timer is None:
            return self._run_converged(
                pc, executed, sites, budget, fault_hook,
                -1 if fault_at is None else fault_at, converge,
            )
        pc, executed, sites, _ = self._engine_leg(
            pc, executed, sites, budget,
            fault_hook=fault_hook,
            fault_at=-1 if fault_at is None else fault_at,
            stop_at_site=None,
            timer=timer,
        )
        return RunResult(
            exit_code=self._exit_code,
            output=tuple(self.output),
            dynamic_instructions=executed,
            fault_sites=sites,
            cycles=timer.cycles if timer is not None else None,
        )

    def _verify_fault_free(self, result: RunResult, function: str,
                           args: tuple[int, ...]) -> None:
        """Check a finished fault-free run; runtime detectors override it."""

    def _engine_leg(
        self,
        pc: int,
        executed: int,
        sites: int,
        budget: int,
        fault_hook: FaultHook | None,
        fault_at: int,
        stop_at_site: int | None,
        timer: TimingModel | None = None,
    ) -> tuple[int, int, int, bool]:
        """One dispatch onto the selected engine.

        Timing-model legs always take the reference loop, which observes
        per-access memory traffic.
        """
        if self.engine == "fused" and timer is None:
            return self._run_fused(
                pc, executed, sites, budget, fault_hook, fault_at,
                stop_at_site,
            )
        return self._execute_from(
            pc, executed, sites, budget, fault_hook, fault_at,
            timer, stop_at_site,
        )

    def _run_converged(
        self,
        pc: int,
        executed: int,
        sites: int,
        budget: int,
        fault_hook: FaultHook | None,
        fault_at: int,
        monitor,
    ) -> RunResult:
        """Faulted execution with convergence early-exit.

        Runs engine legs between the golden trail's boundaries that lie
        after the flip site. At each boundary the monitor compares the
        divergence cone (registers plus pages written since the flip, plus
        the golden side's writes) against the fault-free trail; a full
        match proves the remainder of execution is bit-identical to golden,
        so the golden outcome is returned with counterfactual counters.
        The monitor gives up after a bounded number of failed compares,
        and the run then finishes on one plain leg — non-masked faults pay
        a bounded, small overhead.
        """
        hook = monitor.wrap(fault_hook)
        ended = False
        try:
            for entry in monitor.boundaries:
                pc, executed, sites, stopped = self._engine_leg(
                    pc, executed, sites, budget, hook, fault_at, entry.site,
                )
                if not stopped:
                    ended = True  # program finished before the boundary
                    break
                final = monitor.check(self, pc, executed, sites, entry, budget)
                if final is not None:
                    self._exit_code = final.exit_code
                    return final
                if monitor.gave_up:
                    break
            if not ended:
                pc, executed, sites, _ = self._engine_leg(
                    pc, executed, sites, budget, hook, fault_at, None,
                )
        finally:
            monitor.disarm(self)
        return RunResult(
            exit_code=self._exit_code,
            output=tuple(self.output),
            dynamic_instructions=executed,
            fault_sites=sites,
            cycles=None,
        )

    def _run_fused(
        self,
        pc: int,
        executed: int,
        sites: int,
        budget: int,
        fault_hook: FaultHook | None,
        fault_at: int,
        stop_at_site: int | None,
    ) -> tuple[int, int, int, bool]:
        """Execute on the superblock-fused engine (fusing on first use)."""
        from repro.machine.translate import execute_fused, translate_fused

        if self._fused is None:
            self._fused = translate_fused(self)
        return execute_fused(
            self, self._fused, pc, executed, sites, budget,
            fault_hook, fault_at, stop_at_site,
        )

    def _execute_from(
        self,
        pc: int,
        executed: int,
        sites: int,
        budget: int,
        fault_hook: FaultHook | None,
        fault_at: int,
        timer: TimingModel | None,
        stop_at_site: int | None,
    ) -> tuple[int, int, int, bool]:
        """The fetch/execute loop; returns ``(pc, executed, sites, stopped)``.

        ``stopped`` is True only when ``stop_at_site`` was reached; normal
        termination (sentinel return or ``exit``) returns False with
        ``self._exit_code`` set. ``fault_at == -1`` delivers the hook at
        every site (the classic replay protocol).
        """
        code = self._code
        handlers = self._handlers
        is_site = self._is_site
        collect_mem = self._collect_mem
        code_len = len(code)

        try:
            while not self._exit_requested:
                if stop_at_site is not None and sites >= stop_at_site:
                    return pc, executed, sites, True
                if pc >= code_len or pc < 0:
                    raise MachineFault(f"execution fell outside code at index {pc}")
                if executed >= budget:
                    raise ExecutionLimitExceeded(
                        f"exceeded {budget} dynamic instructions"
                    )
                instr = code[pc]
                if collect_mem:
                    self._mem_reads.clear()
                    self._mem_writes.clear()
                effect = handlers[pc](self, instr)
                executed += 1

                if timer is not None:
                    # Skip list construction for the (dominant) instructions
                    # with no memory traffic.
                    if self._mem_reads:
                        reads: list[int] = []
                        for addr, size in self._mem_reads:
                            reads.extend(TimingModel.granules(addr, size))
                    else:
                        reads = _NO_GRANULES
                    if self._mem_writes:
                        writes: list[int] = []
                        for addr, size in self._mem_writes:
                            writes.extend(TimingModel.granules(addr, size))
                    else:
                        writes = _NO_GRANULES
                    timer.observe(instr, reads, writes, effect.taken)

                if is_site[pc]:
                    if fault_hook is not None and (fault_at < 0 or sites == fault_at):
                        self.executed_at_site = executed
                        fault_hook(self, instr, sites)
                    sites += 1

                flow = effect.flow
                if flow is Flow.NEXT:
                    pc += 1
                elif flow is Flow.JUMP:
                    # Pre-resolved at load (validate_program guarantees the
                    # label exists) — no per-jump tuple hash.
                    pc = self._jump_pc[pc]
                elif flow is Flow.CALL:
                    fn = self._call_builtin_fn[pc]
                    if fn is not None:
                        result = fn(self)
                        self.registers.write(_RAX, result & ((1 << 64) - 1))
                        pc += 1
                    else:
                        new_rsp = self.registers.read(_RSP) - 8
                        self.registers.write(_RSP, new_rsp)
                        self.memory.write_uint(new_rsp, pc + 1, 8)
                        pc = self._call_entry_pc[pc]
                elif flow is Flow.RET:
                    cur_rsp = self.registers.read(_RSP)
                    return_to = self.memory.read_uint(cur_rsp, 8)
                    self.registers.write(_RSP, cur_rsp + 8)
                    if return_to == _SENTINEL:
                        self._exit_code = to_signed(self.registers.read(_EAX), 32)
                        break
                    if return_to >= len(code):
                        raise MachineFault(
                            f"return to corrupted address {return_to:#x}"
                        )
                    pc = int(return_to)

        except MachineError:
            # Stamp where the run halted so injectors can compute
            # flip-to-detection latency without any per-instruction cost.
            self.halt_executed = executed
            self.halt_sites = sites
            raise
        return pc, executed, sites, False
