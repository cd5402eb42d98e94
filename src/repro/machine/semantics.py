"""Per-instruction execution semantics.

:func:`execute` interprets one instruction against a :class:`Machine`'s
architectural state and returns a :class:`ControlEffect` describing what the
fetch loop should do next. All values are unsigned Python ints masked to
their width; signedness enters only where x86 defines it (idiv, sign
extensions, SF/OF computation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.operands import Imm, Mem, Operand, Reg
from repro.asm.registers import Register, RegisterKind, get_register
from repro.errors import IllegalInstructionError, MachineFault
from repro.machine import flags as flg
from repro.utils.bitops import (
    mask_for_width,
    sign_extend,
    to_signed,
    to_unsigned,
    trunc_div,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.cpu import Machine

_RSP = get_register("rsp")
_RAX = get_register("rax")
_EAX = get_register("eax")
_RDX = get_register("rdx")
_EDX = get_register("edx")
_CL = get_register("cl")


class Flow(enum.Enum):
    """What the fetch loop should do after an instruction."""

    NEXT = "next"
    JUMP = "jump"
    CALL = "call"
    RET = "ret"


@dataclass(frozen=True)
class ControlEffect:
    """Control-flow outcome of one executed instruction."""

    flow: Flow = Flow.NEXT
    target: str | None = None
    taken: bool = False  # a taken conditional/unconditional branch occurred

    @staticmethod
    def next() -> "ControlEffect":
        return _NEXT


_NEXT = ControlEffect()


def _effective_address(machine: "Machine", mem: Mem) -> int:
    addr = mem.disp
    if mem.base is not None:
        addr += machine.registers.read(mem.base)
    if mem.index is not None:
        addr += machine.registers.read(mem.index) * mem.scale
    return to_unsigned(addr, 64)


def _read_operand(machine: "Machine", op: Operand, width: int) -> int:
    if isinstance(op, Imm):
        return to_unsigned(op.value, width)
    if isinstance(op, Reg):
        return machine.registers.read(op.register)
    if isinstance(op, Mem):
        addr = _effective_address(machine, op)
        machine.note_mem_read(addr, width // 8)
        return machine.memory.read_uint(addr, width // 8)
    raise IllegalInstructionError(f"cannot read operand {op}")


def _write_operand(machine: "Machine", op: Operand, value: int, width: int) -> None:
    if isinstance(op, Reg):
        machine.registers.write(op.register, to_unsigned(value, width))
        return
    if isinstance(op, Mem):
        addr = _effective_address(machine, op)
        machine.note_mem_write(addr, width // 8)
        machine.memory.write_uint(addr, value, width // 8)
        return
    raise IllegalInstructionError(f"cannot write operand {op}")


def _is_vector_operand(op: Operand) -> bool:
    return isinstance(op, Reg) and op.register.kind is RegisterKind.VECTOR


def _exec_mov(machine: "Machine", instr: Instruction) -> ControlEffect:
    src, dst = instr.operands
    width = instr.spec.width
    if _is_vector_operand(src) or _is_vector_operand(dst):
        return _exec_vec_movq(machine, instr)
    value = _read_operand(machine, src, width)
    _write_operand(machine, dst, value, width)
    return ControlEffect.next()


def _exec_vec_movq(machine: "Machine", instr: Instruction) -> ControlEffect:
    """``movq``/``vmovq`` with an xmm operand: 64-bit lane move.

    Writing the xmm destination clears bits 64..127 (legacy-SSE ``movq``
    rule) while the register file preserves the upper ymm lane.
    """
    src, dst = instr.operands
    value = _read_operand(machine, src, 64)
    if _is_vector_operand(src):
        value &= mask_for_width(64)
    if _is_vector_operand(dst):
        xmm = get_register(f"xmm{dst.register.root[3:]}" if dst.register.width == 256
                           else dst.register.name)
        machine.registers.write(xmm, value)  # zero-extends within the lane
    else:
        _write_operand(machine, dst, value, 64)
    return ControlEffect.next()


def _exec_movext(machine: "Machine", instr: Instruction) -> ControlEffect:
    src, dst = instr.operands
    spec = instr.spec
    value = _read_operand(machine, src, spec.src_width)
    if instr.mnemonic.startswith("movz"):
        extended = to_unsigned(value, spec.src_width)
    else:
        extended = sign_extend(value, spec.src_width, spec.width)
    _write_operand(machine, dst, extended, spec.width)
    return ControlEffect.next()


def _exec_lea(machine: "Machine", instr: Instruction) -> ControlEffect:
    src, dst = instr.operands
    if not isinstance(src, Mem):
        raise IllegalInstructionError("lea source must be a memory operand")
    addr = _effective_address(machine, src)  # no actual memory access
    _write_operand(machine, dst, addr, 64)
    return ControlEffect.next()


_ALU_RESULT = {
    "add": lambda a, b, w: flg.flags_for_add(b, a, w),
    "sub": lambda a, b, w: flg.flags_for_sub(b, a, w),
    "and": lambda a, b, w: (b & a, flg.flags_for_result(b & a, w)),
    "or": lambda a, b, w: (b | a, flg.flags_for_result(b | a, w)),
    "xor": lambda a, b, w: (b ^ a, flg.flags_for_result(b ^ a, w)),
}


def _exec_alu(machine: "Machine", instr: Instruction) -> ControlEffect:
    src, dst = instr.operands
    width = instr.spec.width
    root = instr.mnemonic[: -1]
    a = _read_operand(machine, src, width)
    b = _read_operand(machine, dst, width)
    if root == "imul":
        sa, sb = to_signed(a, width), to_signed(b, width)
        full = sa * sb
        result = to_unsigned(full, width)
        overflow = to_signed(result, width) != full
        rflags = flg.flags_for_result(result, width, cf=overflow, of=overflow)
    else:
        result, rflags = _ALU_RESULT[root](a, b, width)
    _write_operand(machine, dst, result, width)
    machine.registers.rflags = rflags
    return ControlEffect.next()


def _exec_shift(machine: "Machine", instr: Instruction) -> ControlEffect:
    src, dst = instr.operands
    width = instr.spec.width
    if isinstance(src, Imm):
        count = src.value & (63 if width == 64 else 31)
    elif isinstance(src, Reg) and src.register.root == "rcx":
        count = machine.registers.read(_CL) & (63 if width == 64 else 31)
    else:
        raise IllegalInstructionError("shift count must be immediate or %cl")
    value = _read_operand(machine, dst, width)
    op = instr.mnemonic[:3]
    if count == 0:
        return ControlEffect.next()  # flags unaffected, value unchanged
    if op == "shl":
        result = to_unsigned(value << count, width)
        cf = bool((value >> (width - count)) & 1) if count <= width else False
    elif op == "shr":
        result = value >> count
        cf = bool((value >> (count - 1)) & 1)
    else:  # sar
        result = to_unsigned(to_signed(value, width) >> count, width)
        cf = bool((value >> (count - 1)) & 1)
    _write_operand(machine, dst, result, width)
    machine.registers.rflags = flg.flags_for_result(result, width, cf=cf)
    return ControlEffect.next()


def _exec_unary(machine: "Machine", instr: Instruction) -> ControlEffect:
    (dst,) = instr.operands
    width = instr.spec.width
    value = _read_operand(machine, dst, width)
    op = instr.mnemonic[:3]
    if op == "neg":
        result, rflags = flg.flags_for_sub(0, value, width)
        machine.registers.rflags = rflags
    elif op == "not":
        result = to_unsigned(~value, width)  # flags untouched
    elif op == "inc":
        result, rflags = flg.flags_for_add(value, 1, width)
        # inc preserves CF
        cf_mask = 1 << flg.CF_BIT
        machine.registers.rflags = (rflags & ~cf_mask) | (
            machine.registers.rflags & cf_mask
        )
    else:  # dec
        result, rflags = flg.flags_for_sub(value, 1, width)
        cf_mask = 1 << flg.CF_BIT
        machine.registers.rflags = (rflags & ~cf_mask) | (
            machine.registers.rflags & cf_mask
        )
    _write_operand(machine, dst, result, width)
    return ControlEffect.next()


def _exec_cmp(machine: "Machine", instr: Instruction) -> ControlEffect:
    src, dst = instr.operands
    width = instr.spec.width
    a = _read_operand(machine, src, width)
    b = _read_operand(machine, dst, width)
    _, machine.registers.rflags = flg.flags_for_sub(b, a, width)
    return ControlEffect.next()


def _exec_test(machine: "Machine", instr: Instruction) -> ControlEffect:
    src, dst = instr.operands
    width = instr.spec.width
    a = _read_operand(machine, src, width)
    b = _read_operand(machine, dst, width)
    machine.registers.rflags = flg.flags_for_result(b & a, width)
    return ControlEffect.next()


def _exec_setcc(machine: "Machine", instr: Instruction) -> ControlEffect:
    (dst,) = instr.operands
    holds = flg.condition_holds(instr.spec.cc or "", machine.registers.rflags)
    _write_operand(machine, dst, int(holds), 8)
    return ControlEffect.next()


def _exec_push(machine: "Machine", instr: Instruction) -> ControlEffect:
    (src,) = instr.operands
    value = _read_operand(machine, src, 64)
    rsp = machine.registers.read(_RSP) - 8
    machine.registers.write(_RSP, rsp)
    machine.note_mem_write(rsp, 8)
    machine.memory.write_uint(rsp, value, 8)
    return ControlEffect.next()


def _exec_pop(machine: "Machine", instr: Instruction) -> ControlEffect:
    (dst,) = instr.operands
    rsp = machine.registers.read(_RSP)
    machine.note_mem_read(rsp, 8)
    value = machine.memory.read_uint(rsp, 8)
    machine.registers.write(_RSP, rsp + 8)
    _write_operand(machine, dst, value, 64)
    return ControlEffect.next()


def _exec_convert(machine: "Machine", instr: Instruction) -> ControlEffect:
    if instr.mnemonic == "cltq":
        eax = machine.registers.read(_EAX)
        machine.registers.write(_RAX, sign_extend(eax, 32, 64))
    elif instr.mnemonic == "cltd":
        eax = machine.registers.read(_EAX)
        machine.registers.write(_EDX, 0xFFFF_FFFF if eax >> 31 else 0)
    else:  # cqto
        rax = machine.registers.read(_RAX)
        machine.registers.write(_RDX, mask_for_width(64) if rax >> 63 else 0)
    return ControlEffect.next()


def _exec_idiv(machine: "Machine", instr: Instruction) -> ControlEffect:
    (src,) = instr.operands
    width = instr.spec.width
    divisor = to_signed(_read_operand(machine, src, width), width)
    if divisor == 0:
        raise MachineFault("integer division by zero")
    if width == 32:
        hi = machine.registers.read(_EDX)
        lo = machine.registers.read(_EAX)
    else:
        hi = machine.registers.read(_RDX)
        lo = machine.registers.read(_RAX)
    dividend = to_signed((hi << width) | lo, width * 2)
    quotient = trunc_div(dividend, divisor)
    remainder = dividend - quotient * divisor
    if not -(1 << (width - 1)) <= quotient < (1 << (width - 1)):
        raise MachineFault("idiv quotient overflow")
    if width == 32:
        machine.registers.write(_EAX, to_unsigned(quotient, 32))
        machine.registers.write(_EDX, to_unsigned(remainder, 32))
    else:
        machine.registers.write(_RAX, to_unsigned(quotient, 64))
        machine.registers.write(_RDX, to_unsigned(remainder, 64))
    return ControlEffect.next()


def _exec_pinsrq(machine: "Machine", instr: Instruction) -> ControlEffect:
    imm, src, dst = instr.operands
    if not isinstance(imm, Imm) or imm.value not in (0, 1):
        raise IllegalInstructionError("pinsrq lane must be $0 or $1")
    if not (isinstance(dst, Reg) and dst.register.width == 128):
        raise IllegalInstructionError("pinsrq destination must be an xmm register")
    value = _read_operand(machine, src, 64)
    current = machine.registers.read(dst.register)
    shift = imm.value * 64
    lane_mask = mask_for_width(64) << shift
    machine.registers.write(dst.register, (current & ~lane_mask) | (value << shift))
    return ControlEffect.next()


def _exec_pextrq(machine: "Machine", instr: Instruction) -> ControlEffect:
    imm, src, dst = instr.operands
    if not isinstance(imm, Imm) or imm.value not in (0, 1):
        raise IllegalInstructionError("pextrq lane must be $0 or $1")
    if not (isinstance(src, Reg) and src.register.width == 128):
        raise IllegalInstructionError("pextrq source must be an xmm register")
    value = (machine.registers.read(src.register) >> (imm.value * 64)) & mask_for_width(64)
    _write_operand(machine, dst, value, 64)
    return ControlEffect.next()


def _exec_vinserti128(machine: "Machine", instr: Instruction) -> ControlEffect:
    imm, xmm_src, ymm_src, ymm_dst = instr.operands
    if not isinstance(imm, Imm) or imm.value not in (0, 1):
        raise IllegalInstructionError("vinserti128 lane must be $0 or $1")
    lane = _read_operand(machine, xmm_src, 128) if isinstance(xmm_src, Mem) else (
        machine.registers.read(xmm_src.register)  # type: ignore[union-attr]
    )
    base = machine.registers.read(ymm_src.register)  # type: ignore[union-attr]
    shift = imm.value * 128
    lane_mask = mask_for_width(128) << shift
    result = (base & ~lane_mask) | ((lane & mask_for_width(128)) << shift)
    machine.registers.write(ymm_dst.register, result)  # type: ignore[union-attr]
    return ControlEffect.next()


def _exec_vpxor(machine: "Machine", instr: Instruction) -> ControlEffect:
    src1, src2, dst = instr.operands
    a = machine.registers.read(src1.register)  # type: ignore[union-attr]
    b = machine.registers.read(src2.register)  # type: ignore[union-attr]
    machine.registers.write(dst.register, a ^ b)  # type: ignore[union-attr]
    return ControlEffect.next()


def _exec_vptest(machine: "Machine", instr: Instruction) -> ControlEffect:
    src1, src2 = instr.operands
    a = machine.registers.read(src1.register)  # type: ignore[union-attr]
    b = machine.registers.read(src2.register)  # type: ignore[union-attr]
    zf = (a & b) == 0
    cf = (a & ~b) & mask_for_width(256) == 0
    machine.registers.rflags = flg.pack_flags(cf, False, zf, False, False)
    return ControlEffect.next()


def _exec_jmp(machine: "Machine", instr: Instruction) -> ControlEffect:
    return ControlEffect(Flow.JUMP, instr.target_label, taken=True)


def _exec_jcc(machine: "Machine", instr: Instruction) -> ControlEffect:
    if flg.condition_holds(instr.spec.cc or "", machine.registers.rflags):
        return ControlEffect(Flow.JUMP, instr.target_label, taken=True)
    return _NEXT


def _exec_call(machine: "Machine", instr: Instruction) -> ControlEffect:
    return ControlEffect(Flow.CALL, instr.target_label, taken=True)


def _exec_ret(machine: "Machine", instr: Instruction) -> ControlEffect:
    return ControlEffect(Flow.RET, None, taken=True)


def _exec_nop(machine: "Machine", instr: Instruction) -> ControlEffect:
    return _NEXT


def _exec_vecmov(machine: "Machine", instr: Instruction) -> ControlEffect:
    if instr.mnemonic in ("movq", "vmovq"):
        return _exec_vec_movq(machine, instr)
    if instr.mnemonic == "pinsrq":
        return _exec_pinsrq(machine, instr)
    return _exec_pextrq(machine, instr)


_DISPATCH = {
    InstrKind.MOV: _exec_mov,
    InstrKind.MOVEXT: _exec_movext,
    InstrKind.LEA: _exec_lea,
    InstrKind.ALU: _exec_alu,
    InstrKind.SHIFT: _exec_shift,
    InstrKind.UNARY: _exec_unary,
    InstrKind.CMP: _exec_cmp,
    InstrKind.TEST: _exec_test,
    InstrKind.SETCC: _exec_setcc,
    InstrKind.PUSH: _exec_push,
    InstrKind.POP: _exec_pop,
    InstrKind.CONVERT: _exec_convert,
    InstrKind.IDIV: _exec_idiv,
    InstrKind.JMP: _exec_jmp,
    InstrKind.JCC: _exec_jcc,
    InstrKind.CALL: _exec_call,
    InstrKind.RET: _exec_ret,
    InstrKind.NOP: _exec_nop,
    InstrKind.VECMOV: _exec_vecmov,
    InstrKind.VECINSERT: _exec_vinserti128,
    InstrKind.VECALU: _exec_vpxor,
    InstrKind.VECTEST: _exec_vptest,
}


def execute(machine: "Machine", instr: Instruction) -> ControlEffect:
    """Execute one instruction; returns the resulting control effect."""
    try:
        handler = _DISPATCH[instr.kind]
    except KeyError:
        raise IllegalInstructionError(
            f"no semantics for {instr.mnemonic}"
        ) from None
    return handler(machine, instr)


def handler_for(instr: Instruction):
    """Pre-resolved handler for one instruction (CPU fast path)."""
    try:
        return _DISPATCH[instr.kind]
    except KeyError:
        raise IllegalInstructionError(
            f"no semantics for {instr.mnemonic}"
        ) from None
