"""Single-fault injection into one program execution.

The sampling protocol follows the paper (Sec. IV-A2): profile the golden
run to count dynamic *fault sites* (instructions with a register or FLAGS
destination), pick one uniformly, pick a destination register of that site
and a uniform bit in it, flip the bit right after the instruction's
writeback, and let the program run on.

``cmp``/``test`` (and ``vptest``) have FLAGS as their destination; flips
there target the five condition bits the modeled ISA consumes — flipping an
unused RFLAGS bit would be trivially benign noise and is excluded, as in
PINFI-style injectors.

Every injection returns one :class:`FaultRecord`: the outcome together
with the static instruction, its provenance, the flipped register and bit
and the detection latency — the attribution the paper's root-cause
analysis (Figs. 8/9) reads off each fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.instructions import Instruction
from repro.asm.printer import format_instruction
from repro.asm.program import AsmProgram
from repro.asm.registers import Register, RegisterKind
from repro.errors import (
    DetectionExit,
    ExecutionLimitExceeded,
    InjectionError,
    MachineError,
    MachineFault,
)
from repro.faultinjection.outcome import Outcome
from repro.faultinjection.telemetry import FaultRecord, normalize_origin
from repro.ir.interp import (
    IRInterpreter,
    IRRunResult,
    IRSnapshot,
    _width_of,
)
from repro.ir.module import IRModule
from repro.ir.printer import format_instruction as format_ir_instruction
from repro.machine.cpu import Machine, MachineSnapshot, RunResult
from repro.machine.flags import INJECTABLE_FLAG_BITS
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class FaultPlan:
    """A fully determined fault: which dynamic site, which bit.

    ``register_pick`` and ``bit_pick`` are uniform floats in [0, 1) drawn
    up front, so the plan is immutable and independent of execution state;
    they resolve to a concrete register/bit at the sampled site (whose
    destination set and width are only known at runtime).
    """

    site_index: int
    register_pick: float
    bit_pick: float

    @staticmethod
    def sample(rng: DeterministicRng, fault_sites: int) -> "FaultPlan":
        if fault_sites <= 0:
            raise InjectionError("program has no fault sites")
        return FaultPlan(
            site_index=rng.randint(0, fault_sites - 1),
            register_pick=rng.random(),
            bit_pick=rng.random(),
        )


def profile_fault_sites(
    program: AsmProgram, function: str = "main",
    args: tuple[int, ...] = (), max_instructions: int | None = None,
) -> RunResult:
    """Golden run: collects output and the dynamic fault-site count."""
    machine = Machine(program)
    return machine.run(function=function, args=args,
                       max_instructions=max_instructions)


def _resolve_flip(instr: Instruction, plan: FaultPlan) -> tuple[Register, int]:
    """Resolve a plan's uniform picks to a concrete (register, bit) pair."""
    dests = instr.dest_registers()
    register = dests[int(plan.register_pick * len(dests)) % len(dests)]
    if register.kind is RegisterKind.FLAGS:
        bits = INJECTABLE_FLAG_BITS
        bit = bits[int(plan.bit_pick * len(bits)) % len(bits)]
    else:
        bit = int(plan.bit_pick * register.width) % register.width
    return register, bit


def _apply_flip(
    machine: Machine, instr: Instruction, plan: FaultPlan
) -> tuple[Register, int]:
    register, bit = _resolve_flip(instr, plan)
    machine.registers.flip(register, bit)
    return register, bit


def inject_asm_fault(
    program: AsmProgram,
    plan: FaultPlan,
    golden: RunResult,
    function: str = "main",
    args: tuple[int, ...] = (),
    timeout_factor: int = 6,
    machine: Machine | None = None,
    resume_from: MachineSnapshot | None = None,
    run_index: int = -1,
    converge=None,
    converge_stats=None,
) -> FaultRecord:
    """Run ``program`` once with ``plan``'s fault; return its record.

    The record carries the classified outcome. The instruction budget is
    ``timeout_factor`` times the golden run's dynamic length, so runaway
    loops classify as timeouts without hanging the campaign. Passing a
    pre-built ``machine`` (for the same program) skips per-run
    construction; ``run`` resets all architectural state.

    ``resume_from`` switches to the checkpointed protocol: instead of
    replaying the whole golden prefix, execution restores the snapshot (a
    checkpoint at or before ``plan.site_index``) and runs forward with the
    hook delivered only at the target site. Outcomes are bit-identical to
    the replay protocol — the snapshot is, by construction, the exact state
    a replay would have reached.

    ``run_index`` stamps the returned :class:`FaultRecord` with the
    campaign run that drew the plan.

    ``converge`` accepts a golden :class:`repro.machine.converge.
    ConvergenceTrail`: the run then stops at the trail's boundaries and
    finishes with the golden outcome the moment its divergence cone
    matches the fault-free state (bit-identical classification; see
    ``docs/performance.md``). ``converge_stats`` — a
    :class:`repro.faultinjection.telemetry.ConvergenceStats` — accumulates
    the run's monitor counters when provided.
    """
    if machine is None:
        machine = Machine(program)
    monitor = (converge.monitor(plan.site_index)
               if converge is not None else None)
    hit: dict = {}

    def hook(m: Machine, instr: Instruction, site: int) -> None:
        if site == plan.site_index:
            register, bit = _apply_flip(m, instr, plan)
            hit.update(instr=instr, register=register, bit=bit,
                       flip_executed=m.executed_at_site)

    budget = max(golden.dynamic_instructions * timeout_factor, 10_000)
    detect_executed: int | None = None
    try:
        if resume_from is not None:
            if resume_from.sites > plan.site_index:
                raise InjectionError(
                    f"checkpoint at site {resume_from.sites} is past "
                    f"fault site {plan.site_index}"
                )
            result = machine.run(function=function, args=args, fault_hook=hook,
                                 max_instructions=budget,
                                 fault_at=plan.site_index,
                                 resume_from=resume_from,
                                 converge=monitor)
        else:
            result = machine.run(function=function, args=args, fault_hook=hook,
                                 max_instructions=budget, converge=monitor)
    except DetectionExit:
        outcome = Outcome.DETECTED
        detect_executed = machine.halt_executed
    except ExecutionLimitExceeded:
        outcome = Outcome.TIMEOUT
    except MachineFault:
        outcome = Outcome.CRASH
    except MachineError:
        outcome = Outcome.CRASH
    else:
        if (result.output == golden.output
                and result.exit_code == golden.exit_code):
            outcome = Outcome.BENIGN
        else:
            outcome = Outcome.SDC
    if converge_stats is not None:
        converge_stats.note(monitor)
    if not hit:
        raise InjectionError(
            f"fault site {plan.site_index} never executed "
            f"(golden counted {golden.fault_sites})"
        )
    instr = hit["instr"]
    latency = (detect_executed - hit["flip_executed"]
               if detect_executed is not None else None)
    return FaultRecord(
        run_index=run_index,
        level="asm",
        site_index=plan.site_index,
        instruction=format_instruction(instr),
        mnemonic=instr.mnemonic,
        origin=normalize_origin(instr.origin),
        register=hit["register"].name,
        bit=hit["bit"],
        outcome=outcome,
        detection_latency=latency,
        instruction_uid=instr.uid,
    )


def inject_ir_fault(
    module: IRModule,
    plan: FaultPlan,
    golden: IRRunResult,
    function: str = "main",
    args: tuple[int, ...] = (),
    timeout_factor: int = 10,
    interp: IRInterpreter | None = None,
    resume_from: IRSnapshot | None = None,
    run_index: int = -1,
) -> FaultRecord:
    """IR-level injection (LLFI-style): flip a bit in an IR result value.

    Used by the cross-layer gap experiment: IR-level EDDI looks nearly
    perfect under IR-level injection; the gap only appears at assembly
    level.

    ``resume_from`` enables the same checkpointed protocol as
    :func:`inject_asm_fault`: restore a prefix snapshot (taken with the
    passed ``interp``) instead of re-executing the golden prefix. The
    instruction budget is passed per-run, so a shared ``interp`` is never
    mutated. ``run_index`` mirrors :func:`inject_asm_fault`.
    """
    if interp is None:
        interp = IRInterpreter(module)
    budget = max(golden.dynamic_instructions * timeout_factor, 10_000)
    hit: dict = {}

    def hook(ip: IRInterpreter, instr, site: int) -> None:
        if site == plan.site_index:
            width = _width_of(instr)
            bit = int(plan.bit_pick * width) % width
            ip.flip_value(instr, bit)
            hit.update(instr=instr, bit=bit, flip_executed=ip.executed)

    detect_executed: int | None = None
    try:
        if resume_from is not None:
            if resume_from.sites > plan.site_index:
                raise InjectionError(
                    f"checkpoint at site {resume_from.sites} is past "
                    f"fault site {plan.site_index}"
                )
            result = interp.run(function=function, args=args, fault_hook=hook,
                                fault_at=plan.site_index,
                                resume_from=resume_from,
                                max_instructions=budget)
        else:
            result = interp.run(function=function, args=args, fault_hook=hook,
                                max_instructions=budget)
    except DetectionExit:
        outcome = Outcome.DETECTED
        detect_executed = interp.executed
    except ExecutionLimitExceeded:
        outcome = Outcome.TIMEOUT
    except MachineError:
        outcome = Outcome.CRASH
    else:
        if (result.output == golden.output
                and result.exit_code == golden.exit_code):
            outcome = Outcome.BENIGN
        else:
            outcome = Outcome.SDC
    if not hit:
        raise InjectionError(f"IR fault site {plan.site_index} never executed")
    instr = hit["instr"]
    latency = (detect_executed - hit["flip_executed"]
               if detect_executed is not None else None)
    return FaultRecord(
        run_index=run_index,
        level="ir",
        site_index=plan.site_index,
        instruction=format_ir_instruction(instr),
        mnemonic=instr.opcode,
        origin="app",
        register=None,
        bit=hit["bit"],
        outcome=outcome,
        detection_latency=latency,
        instruction_uid=None,
    )
