"""Per-instruction register use/def sets and RFLAGS must-def bits.

Works at register-*root* granularity (``eax`` and ``rax`` are one node), the
granularity the protection transforms reason at: a spare register must be
dead as a whole 64-bit (or 256-bit) entity.

Calls are modeled with the SysV convention: a call reads the argument
registers and clobbers the caller-saved set. This is conservative for the
-O0 backend (which passes at most six integer arguments) and keeps the
analyses built on these sets intraprocedural.
"""

from __future__ import annotations

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.operands import Imm
from repro.asm.registers import ARG_GPRS, CALLEE_SAVED, GPR64
from repro.machine.flags import CF_BIT, OF_BIT, PF_BIT, SF_BIT, ZF_BIT

#: Caller-saved GPR roots (clobbered by a call under SysV).
CALLER_SAVED: frozenset[str] = frozenset(
    root for root in GPR64 if root not in CALLEE_SAVED and root != "rsp"
)

#: Vector roots are all caller-saved under SysV.
CALLER_SAVED_VECTORS: frozenset[str] = frozenset(f"ymm{i}" for i in range(16))

#: Registers read by a ``retq`` (the integer return value).
RETURN_ROOTS: frozenset[str] = frozenset({"rax", "rsp"})


def instruction_uses(instr: Instruction) -> frozenset[str]:
    """Register roots read by ``instr`` (including implicit call/ret reads)."""
    if instr.kind is InstrKind.CALL:
        # Conservative: assume all argument registers may carry arguments.
        return frozenset(ARG_GPRS) | {"rsp"}
    if instr.kind is InstrKind.RET:
        return RETURN_ROOTS
    uses = {reg.root for reg in instr.read_registers()}
    if instr.kind in (InstrKind.PUSH, InstrKind.POP):
        uses.add("rsp")
    return frozenset(uses)


def instruction_defs(instr: Instruction) -> frozenset[str]:
    """Register roots written by ``instr`` (including call clobbers)."""
    if instr.kind is InstrKind.CALL:
        return CALLER_SAVED | CALLER_SAVED_VECTORS | {"rsp"}
    defs = {reg.root for reg in instr.dest_registers() if reg.root != "rflags"}
    if instr.kind in (InstrKind.PUSH, InstrKind.POP):
        defs.add("rsp")
    return frozenset(defs)


#: The five modeled RFLAGS bits, as a bit-set over RFLAGS positions.
ALL_FLAG_BITS: frozenset[int] = frozenset(
    (CF_BIT, PF_BIT, ZF_BIT, SF_BIT, OF_BIT)
)

#: Condition code -> RFLAGS bits consumed (:func:`condition_holds`). PF is
#: never consumed by any modeled condition, so a PF fault is observable only
#: through a later full-flags read (call/ret, conservatively).
CC_READS: dict[str, frozenset[int]] = {
    "e": frozenset({ZF_BIT}),
    "ne": frozenset({ZF_BIT}),
    "l": frozenset({SF_BIT, OF_BIT}),
    "ge": frozenset({SF_BIT, OF_BIT}),
    "le": frozenset({ZF_BIT, SF_BIT, OF_BIT}),
    "g": frozenset({ZF_BIT, SF_BIT, OF_BIT}),
    "b": frozenset({CF_BIT}),
    "ae": frozenset({CF_BIT}),
    "be": frozenset({CF_BIT, ZF_BIT}),
    "a": frozenset({CF_BIT, ZF_BIT}),
    "s": frozenset({SF_BIT}),
    "ns": frozenset({SF_BIT}),
}

_NO_BITS: frozenset[int] = frozenset()
_NON_CF_BITS: frozenset[int] = ALL_FLAG_BITS - {CF_BIT}

#: Instruction kinds that deterministically write all five flags.
_FULL_FLAG_WRITERS = (
    InstrKind.ALU, InstrKind.CMP, InstrKind.TEST, InstrKind.VECTEST,
)


def _shift_count(instr: Instruction) -> int | None:
    """Static shift count, or ``None`` when it comes from ``%cl``."""
    src = instr.operands[0]
    if isinstance(src, Imm):
        return src.value & (63 if instr.spec.width == 64 else 31)
    return None


def flag_bits_written(instr: Instruction) -> frozenset[int]:
    """RFLAGS bits ``instr`` *always* overwrites (must-def, not may-def).

    Conditional writers are reported as writing nothing: an ``rcx``-count
    shift leaves flags untouched when the dynamic count is zero, so it can
    never justify eliding an earlier flag computation. Immediate-count
    shifts are decided statically.
    """
    kind = instr.kind
    if kind in _FULL_FLAG_WRITERS:
        return ALL_FLAG_BITS
    if kind is InstrKind.SHIFT:
        count = _shift_count(instr)
        return ALL_FLAG_BITS if count else _NO_BITS
    if kind is InstrKind.UNARY:
        op = instr.mnemonic[:3]
        if op == "neg":
            return ALL_FLAG_BITS
        if op in ("inc", "dec"):
            return _NON_CF_BITS
        return _NO_BITS  # not: flags untouched
    return _NO_BITS
