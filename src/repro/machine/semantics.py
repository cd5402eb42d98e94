"""Per-instruction execution semantics and the load-time shape check.

:func:`handler_for` resolves, once per static instruction, the handler that
interprets it against a :class:`Machine`'s architectural state and returns a
:class:`ControlEffect` describing what the fetch loop should do next. All
values are unsigned Python ints masked to their width; signedness enters
only where x86 defines it (idiv, sign extensions, SF/OF computation).

Which operand *shapes* the machine executes is decided here, once, by
:func:`check_shape`: :func:`handler_for` calls it, so a shape outside the
modeled subset fails with :class:`IllegalInstructionError` when a
:class:`Machine` loads the program, on every engine. The handlers below and
the fused engine's emitter (:mod:`repro.machine.translate`) assume it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.asm.instructions import Instruction, InstrKind, get_spec, known_mnemonics
from repro.asm.operands import Imm, Mem, Operand, Reg
from repro.asm.printer import format_instruction
from repro.asm.registers import RegisterKind, get_register
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
# Enum members bound once: a class attribute lookup on an Enum is slow,
# and the shape check runs for every static instruction.
_GPR, _VECTOR = RegisterKind.GPR, RegisterKind.VECTOR


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
    addr = _effective_address(machine, op)  # type: ignore[arg-type]
    machine.note_mem_read(addr, width // 8)
    return machine.memory.read_uint(addr, width // 8)


def _write_operand(machine: "Machine", op: Operand, value: int, width: int) -> None:
    if isinstance(op, Reg):
        machine.registers.write(op.register, to_unsigned(value, width))
        return
    addr = _effective_address(machine, op)  # type: ignore[arg-type]
    machine.note_mem_write(addr, width // 8)
    machine.memory.write_uint(addr, value, width // 8)


def _is_vector_operand(op: Operand) -> bool:
    return isinstance(op, Reg) and op.register.kind is _VECTOR


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
    else:  # a register of the rcx family: the count is %cl
        count = machine.registers.read(_CL) & (63 if width == 64 else 31)
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
    value = _read_operand(machine, src, 64)
    current = machine.registers.read(dst.register)
    shift = imm.value * 64
    lane_mask = mask_for_width(64) << shift
    machine.registers.write(dst.register, (current & ~lane_mask) | (value << shift))
    return ControlEffect.next()


def _exec_pextrq(machine: "Machine", instr: Instruction) -> ControlEffect:
    imm, src, dst = instr.operands
    value = (machine.registers.read(src.register) >> (imm.value * 64)) & mask_for_width(64)
    _write_operand(machine, dst, value, 64)
    return ControlEffect.next()


def _exec_vinserti128(machine: "Machine", instr: Instruction) -> ControlEffect:
    imm, xmm_src, ymm_src, ymm_dst = instr.operands
    lane = machine.registers.read(xmm_src.register)  # type: ignore[union-attr]
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


_GPR_WIDTHS = (8, 16, 32, 64)
#: Width -> the GPR widths up to it (a move's source may be narrower).
_UP_TO = {w: _GPR_WIDTHS[:i + 1] for i, w in enumerate(_GPR_WIDTHS)}
_EXACT = {w: (w,) for w in _GPR_WIDTHS}


def _gpr(op: Operand, widths: tuple[int, ...] = _GPR_WIDTHS) -> bool:
    return (isinstance(op, Reg) and op.register.kind is _GPR
            and op.register.width in widths)


def _addr_reg(reg) -> bool:
    return reg is None or (reg.kind is _GPR and reg.width == 64)


def _mem(op: Operand) -> bool:
    """A memory operand addressed through 64-bit GPRs only."""
    return isinstance(op, Mem) and _addr_reg(op.base) and _addr_reg(op.index)


def _src(op: Operand, widths: tuple[int, ...] = _GPR_WIDTHS) -> bool:
    return isinstance(op, Imm) or _gpr(op, widths) or _mem(op)


def _dst(op: Operand, widths: tuple[int, ...] = _GPR_WIDTHS) -> bool:
    return _gpr(op, widths) or _mem(op)


def _vec(op: Operand, width: int) -> bool:
    return (isinstance(op, Reg) and op.register.kind is _VECTOR
            and op.register.width == width)


def _lane(op: Operand) -> bool:
    return isinstance(op, Imm) and op.value in (0, 1)


def _movq_shape(src: Operand, dst: Operand) -> bool:
    """``movq``/``vmovq`` with an xmm side: any vector view either way."""
    return ((_is_vector_operand(src) or _src(src))
            and (_is_vector_operand(dst) or _dst(dst)))


def _mov_shape(instr: Instruction, ops: tuple[Operand, ...]) -> bool:
    src, dst = ops
    if _is_vector_operand(src) or _is_vector_operand(dst):
        return _movq_shape(src, dst)
    return _src(src, _UP_TO[instr.spec.width]) and _dst(dst)


def _vecmov_shape(instr: Instruction, ops: tuple[Operand, ...]) -> bool:
    if instr.mnemonic == "pinsrq":
        return _lane(ops[0]) and _src(ops[1]) and _vec(ops[2], 128)
    if instr.mnemonic == "pextrq":
        return _lane(ops[0]) and _vec(ops[1], 128) and _dst(ops[2])
    return _movq_shape(*ops)


def _compare_shape(instr: Instruction, ops: tuple[Operand, ...]) -> bool:
    exact = _EXACT[instr.spec.width]
    return _src(ops[0], exact) and _src(ops[1], exact)


def _ymm_shape(instr: Instruction, ops: tuple[Operand, ...]) -> bool:
    return all(_vec(op, 256) for op in ops)


#: Per kind, whether an instruction's operands form a modeled shape; kinds
#: without an entry take no operands or a branch target.
_SHAPES = {
    InstrKind.MOV: _mov_shape,
    InstrKind.MOVEXT: lambda instr, ops: (
        _src(ops[0], _UP_TO[instr.spec.src_width]) and _dst(ops[1])),
    InstrKind.LEA: lambda instr, ops: _mem(ops[0]) and _dst(ops[1]),
    InstrKind.ALU: lambda instr, ops: (
        _src(ops[0], _EXACT[instr.spec.width])
        and _dst(ops[1], _EXACT[instr.spec.width])),
    InstrKind.CMP: _compare_shape,
    InstrKind.TEST: _compare_shape,
    # The count is an immediate or %cl (any view of rcx reads %cl).
    InstrKind.SHIFT: lambda instr, ops: (
        (isinstance(ops[0], Imm)
         or isinstance(ops[0], Reg) and ops[0].register.root == "rcx")
        and _dst(ops[1], _EXACT[instr.spec.width])),
    InstrKind.UNARY: lambda instr, ops: _dst(ops[0], _EXACT[instr.spec.width]),
    InstrKind.IDIV: lambda instr, ops: _src(ops[0], _EXACT[instr.spec.width]),
    InstrKind.PUSH: lambda instr, ops: _src(ops[0]),
    InstrKind.POP: lambda instr, ops: _dst(ops[0]),
    InstrKind.SETCC: lambda instr, ops: _dst(ops[0]),
    InstrKind.VECMOV: _vecmov_shape,
    InstrKind.VECINSERT: lambda instr, ops: (
        _lane(ops[0]) and _vec(ops[1], 128) and _vec(ops[2], 256)
        and _vec(ops[3], 256)),
    InstrKind.VECALU: _ymm_shape,
    InstrKind.VECTEST: _ymm_shape,
}
#: The same table by mnemonic: a str key hashes faster than an enum member.
_SHAPE_OF = {mnemonic: _SHAPES.get(get_spec(mnemonic).kind)
             for mnemonic in known_mnemonics()}


def check_shape(instr: Instruction) -> None:
    """Raise :class:`IllegalInstructionError` unless ``instr``'s operand
    shape is one the machine executes.

    The modeled shapes are exactly what the -O0 backend and the protection
    transforms emit, plus their close neighbours: register operands of an
    ALU-like instruction match its width (a plain or widening move's source
    may be narrower), memory operands address through 64-bit GPRs, a shift
    count is an immediate or ``%cl``, and the vector instructions take
    ``$0``/``$1`` lanes, xmm lanes and ymm whole registers as FERRUM's
    checks do. Branch targets are checked by ``validate_program``.
    """
    shape = _SHAPE_OF[instr.mnemonic]
    if shape is not None and not shape(instr, instr.operands):
        raise IllegalInstructionError(
            f"operand shape not modeled: {format_instruction(instr)}"
        )


def handler_for(instr: Instruction):
    """Pre-resolved handler for one instruction, after :func:`check_shape`."""
    check_shape(instr)
    return _DISPATCH[instr.kind]
