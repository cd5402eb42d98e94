"""The fused execution engine: superblocks and single steps from one emitter.

The reference interpreter (:meth:`repro.machine.cpu.Machine._execute_from`
plus :mod:`repro.machine.semantics`) re-resolves every operand through
isinstance chains and name-based register lookups, allocates control-effect
objects for branches, and repacks flag tuples on every arithmetic
instruction. FERRUM's own thesis — specialize at translation time, pay
nothing at run time — applies to the simulator itself.

One emitter, :func:`_instr_lines`, renders an
:class:`~repro.asm.instructions.Instruction`'s semantics as straight-line
Python statements, specialized once per *static* instruction:

* register operands are resolved to direct slots in the register-file
  backing dict, with sub-register masks folded into the generated code;
* immediates are masked at translation time;
* memory-operand effective-address arithmetic is pre-bound (displacement
  folded, base/index roots captured), and every access goes through an
  inlined fast path — a bounds check against a statically guessed segment
  plus a struct codec over its backing bytearray — that falls back to the
  memory accessors on a miss;
* flag computation is specialized per opcode and width, with a precomputed
  parity table;
* jump and fall-through targets are integer pc constants — a taken branch
  is ``return 17``, not a dict lookup — and no per-instruction
  ``ControlEffect`` is allocated: each body returns the next pc directly
  (negative sentinels encode halt / fell-off-code).

The rendered text depends only on the instruction's operand/opcode
*shape*; per-instruction constants — register roots, immediates,
displacements, pc targets — and the machine's live state are bound as
closure cells, and one cached ``make`` function per distinct body (built
with :func:`compile`/``exec`` the first time it appears) serves every
instruction sharing it.

The emitter renders every straight-line instruction: it assumes the
operand shapes that :func:`repro.machine.semantics.check_shape` admits when
a Machine loads, and runs no reference code. :func:`translate_program`
builds one step per instruction: its one-instruction body followed by
``return NXT`` (a ``jcc`` ends in the same conditional return a superblock
uses); only ``call``, ``ret`` and ``jmp`` keep small hand-written closures.
FERRUM's vector checks (``movq`` to and from xmm, ``pinsrq``,
``vinserti128``, ``vpxor``, ``vptest``) and ``idiv`` are rendered like any
other instruction, so they fuse. :func:`translate_fused` concatenates the
bodies of whole basic blocks into single superblock bodies, and
:func:`execute_fused`, one dispatch loop for every kind of run,
single-steps wherever a fault site, stop target or budget boundary must be
observed mid-block.

Bit-identity contract: for any program, input, fault plan, snapshot or
budget, the fused engine produces exactly the same ``RunResult``,
fault-site numbering, ``executed``/``sites`` counters, exception type and
halt-counter stamps as the reference engine — including the *order* of
operand reads, register updates and faulting accesses within one
instruction. See the fusion section below and ``docs/performance.md``.

Closures capture the machine's register-file dicts, memory accessors and
segment buffers directly; :class:`~repro.machine.state.RegisterFile` and
:class:`~repro.machine.memory.Memory` guarantee those objects are
identity-stable across resets and snapshot restores. No closure captures
the machine itself (see :class:`TranslatedCode`), so a dropped machine is
freed by reference counting alone.
"""

from __future__ import annotations

import re
import struct as _struct
from typing import TYPE_CHECKING, Callable

from repro.asm.instructions import InstrKind
from repro.asm.operands import Imm, Mem, Operand, Reg
from repro.asm.registers import RegisterKind
from repro.errors import (
    ExecutionLimitExceeded,
    MachineError,
    MachineFault,
)
from repro.machine import flags as flg
from repro.utils.bitops import mask_for_width, trunc_div

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.cpu import Machine

#: Step-return sentinel: the program halted (sentinel ``ret`` or ``exit``).
_HALT = -1
#: Step-return sentinel: fall-through past the last instruction.
_FELL_OFF = -2

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1

_CF = 1 << flg.CF_BIT
_ZF = 1 << flg.ZF_BIT
_SF = 1 << flg.SF_BIT
_OF = 1 << flg.OF_BIT
_CZ = _CF | _ZF
_CFOF = _CF | _OF

# The generated condition-code expressions hardcode the SF/OF bit distance;
# guard against the flag layout ever moving.
assert flg.SF_BIT == 7 and flg.OF_BIT == 11

#: Parity-flag contribution of every low-byte value (PF set on even parity).
_PARITY = tuple(
    (1 << flg.PF_BIT) if bin(byte).count("1") % 2 == 0 else 0
    for byte in range(256)
)

Step = Callable[[], int]


class TranslatedCode:
    """The compiled program: one step closure per code index.

    The steps that need the machine itself (``call`` and ``ret``) read it
    from the one-slot ``machine_cell``, which :func:`execute_fused` fills
    only while it runs: a captured machine would make every fused machine a
    reference cycle, freed only by the cyclic garbage collector.
    """

    __slots__ = ("steps", "site_flags", "code_len", "machine_cell")

    def __init__(self, steps: list[Step], site_flags: list[int],
                 machine_cell: list) -> None:
        self.steps = steps
        self.site_flags = site_flags
        self.code_len = len(steps)
        self.machine_cell = machine_cell


# -- code generation core ----------------------------------------------------

#: Globals visible to generated steps (flag constants, parity table,
#: fixed-width memory codecs).
_EXEC_GLOBALS = {
    "__builtins__": {},
    "_PARITY": _PARITY,
    "_CF": _CF,
    "_ZF": _ZF,
    "_SF": _SF,
    "_OF": _OF,
    "_CZ": _CZ,
    "_CFOF": _CFOF,
    "_M64": _M64,
    # idiv's faults and its truncating division.
    "_MF": MachineFault,
    "_TDIV": trunc_div,
    # Vector-lane masks: everything above the xmm lane, and everything but
    # 64-bit lane 0 or 1 of it (negative, as the reference's ``& ~mask``).
    "_M128": _M128,
    "_NOT128": ~_M128,
    "_NOTQ0": ~_M64,
    "_NOTQ1": ~(_M64 << 64),
    # Little-endian fixed-width codecs for the inlined memory fast path
    # (one C call instead of segment lookup + slicing).
    "_U1": _struct.Struct("<B").unpack_from,
    "_U2": _struct.Struct("<H").unpack_from,
    "_U4": _struct.Struct("<I").unpack_from,
    "_U8": _struct.Struct("<Q").unpack_from,
    "_P1": _struct.Struct("<B").pack_into,
    "_P2": _struct.Struct("<H").pack_into,
    "_P4": _struct.Struct("<I").pack_into,
    "_P8": _struct.Struct("<Q").pack_into,
}

#: step body text -> compiled ``make`` function (shared across programs).
_MAKE_CACHE: dict[str, Callable[[dict], Step]] = {}

_NAME = re.compile(r"[A-Za-z_]\w*")


def _build_step(body: list[str], env: dict) -> Step:
    """Compile ``body`` lines into a step, binding ``env`` names as cells.

    The body text depends only on the instruction *shape* (operand kinds,
    widths, opcode), so the compile cost is amortized across every
    instruction or block sharing that text; per-instruction values
    (register roots, immediates, displacements, pc targets) and the
    machine's live state objects flow in through ``env`` and become closure
    cells — the fastest variable access a generated step can have. Only the
    ``env`` names the body mentions are bound, so a step that never touches
    a memory segment carries no cells for it.
    """
    text = "\n        ".join(body)
    make = _MAKE_CACHE.get(text)
    if make is None:
        lines = ["def make(env):"]
        for key in sorted(env.keys() & set(_NAME.findall(text))):
            lines.append(f"    {key} = env[{key!r}]")
        lines.append("    def step():")
        lines.append("        " + text)
        lines.append("    return step")
        scope = dict(_EXEC_GLOBALS)
        exec(compile("\n".join(lines), "<ferrum-translate>", "exec"), scope)
        make = _MAKE_CACHE[text] = scope["make"]
    return make(env)


def _is_vector_op(op: Operand) -> bool:
    return isinstance(op, Reg) and op.register.kind is RegisterKind.VECTOR


def _addr_frag(mem: Mem, idx: int, env: dict) -> str:
    """Effective-address expression (over 64-bit GPR base/index roots)."""
    base, index = mem.base, mem.index
    if base is None and index is None:
        env[f"D{idx}"] = mem.disp & _M64
        return f"D{idx}"
    env[f"D{idx}"] = mem.disp
    parts = [f"D{idx}"]
    if base is not None:
        env[f"B{idx}"] = base.root
        parts.append(f"g[B{idx}]")
    if index is not None:
        env[f"X{idx}"] = index.root
        if mem.scale == 1:
            parts.append(f"g[X{idx}]")
        else:
            env[f"S{idx}"] = mem.scale
            parts.append(f"g[X{idx}] * S{idx}")
    return "((" + " + ".join(parts) + ") & _M64)"


#: Condition-code truthiness expressions over ``f`` (an RFLAGS value);
#: mirrors ``flags.condition_holds`` (SF at bit 7, OF at bit 11).
_CC_EXPR = {
    "e": "f & _ZF",
    "ne": "not f & _ZF",
    "l": "(f >> 7 ^ f >> 11) & 1",
    "ge": "not (f >> 7 ^ f >> 11) & 1",
    "le": "f & _ZF or (f >> 7 ^ f >> 11) & 1",
    "g": "not (f & _ZF or (f >> 7 ^ f >> 11) & 1)",
    "b": "f & _CF",
    "ae": "not f & _CF",
    "be": "f & _CZ",
    "a": "not f & _CZ",
    "s": "f & _SF",
    "ns": "not f & _SF",
}


def _zf_sf_pf_lines(result_var: str, sgn: str) -> list[str]:
    """The ZF/SF/PF epilogue shared by every flag-writing template.

    The sign bit comes in as a hex literal (``sgn``), so one superblock
    body can mix widths without closure-cell name collisions.
    """
    return [
        f"f = _PARITY[{result_var} & 0xFF]",
        f"if {result_var} == 0:",
        "    f |= _ZF",
        f"if {result_var} & {sgn}:",
        "    f |= _SF",
    ]


# -- the instruction emitter --------------------------------------------------
#
# Every emitter returns the statements for one instruction. It assumes the
# operand shape passed ``semantics.check_shape``, which every Machine runs
# over its program at load, so the emitter is total over the straight-line
# kinds by construction. ``j`` is the instruction's index inside its body
# (operand slots ``2 * j`` and ``2 * j + 1`` keep closure-cell and local
# names distinct when a superblock concatenates several instructions).


def _seg_guess(mem: Mem) -> int:
    """Index into ``Memory._segments`` of the likeliest segment for ``mem``.

    ``rbp``/``rsp``-based addressing is stack traffic, absolute addresses
    are globals, everything else is pointer-chasing into the heap. A wrong
    guess only costs speed — the generated fast path re-checks bounds and
    falls back to the accessor — never correctness.
    """
    base = mem.base
    if base is not None and base.root in ("rbp", "rsp"):
        return 0  # stack
    if base is None and mem.index is None:
        return 2  # globals
    return 1  # heap


def _read_op(op, width, idx, env):
    """``(lines, value_expr)`` reading ``op``.

    Matches ``semantics._read_operand``. Register and immediate operands
    read as a pure expression with no lines. Registers read at *register*
    width (the reference rule), so the value is bounded by
    ``max(width, reg.width)`` bits. Memory operands emit the inlined
    fast path — a bounds check against the statically-guessed segment plus
    a struct codec over its backing bytearray — falling back to ``rd``
    (which also owns the SegmentationFault) on a miss; the value lands in
    ``v{idx}``.
    """
    if isinstance(op, Imm):
        env[f"A{idx}"] = op.value & mask_for_width(width)
        return [], f"A{idx}"
    if isinstance(op, Reg):
        reg = op.register
        env[f"R{idx}"] = reg.root
        if reg.width == 64:
            return [], f"g[R{idx}]"
        env[f"RM{idx}"] = mask_for_width(reg.width)
        return [], f"(g[R{idx}] & RM{idx})"
    addr = _addr_frag(op, idx, env)
    n = width // 8
    k = _seg_guess(op)
    lines = [
        f"a{idx} = {addr}",
        f"if SEGB{k} <= a{idx} and a{idx} + {n} <= SEGE{k}:",
        f"    v{idx} = _U{n}(SEGD{k}, a{idx} - SEGB{k})[0]",
        "else:",
        f"    v{idx} = rd(a{idx}, {n})",
    ]
    return lines, f"v{idx}"


def _write_op(op, width, idx, env, expr, have_addr=False):
    """Statements writing ``expr`` (bounded to ``width``) into ``op``.

    Matches ``semantics._write_operand``. Memory destinations get the
    inlined fast path (struct codec plus the reference's dirty-page
    bookkeeping), falling back to ``wr`` on a bounds miss. ``have_addr``
    reuses the ``a{idx}`` computed by this operand's read — sound only when
    no register feeding the address was written in between, which holds
    for every read-modify-write template here because the destination
    operand itself is the only write.
    """
    if isinstance(op, Reg):
        reg = op.register
        env[f"R{idx}"] = reg.root
        rw = reg.width
        if width > rw:  # e.g. a 64-bit value into a 32-bit view
            env[f"WM{idx}"] = mask_for_width(rw)
            expr = f"({expr}) & WM{idx}"
        if rw >= 32:
            # 32-bit writes zero-extend, 64-bit writes replace: plain store.
            return [f"g[R{idx}] = {expr}"]
        env[f"K{idx}"] = _M64 ^ mask_for_width(rw)
        return [f"g[R{idx}] = (g[R{idx}] & K{idx}) | ({expr})"]
    n = width // 8
    k = _seg_guess(op)
    lines = []
    if not have_addr:
        lines.append(f"a{idx} = {_addr_frag(op, idx, env)}")
    if not expr.isidentifier():
        lines.append(f"w{idx} = {expr}")
        expr = f"w{idx}"
    lines.extend((
        f"if SEGB{k} <= a{idx} and a{idx} + {n} <= SEGE{k}:",
        f"    o{idx} = a{idx} - SEGB{k}",
        f"    _P{n}(SEGD{k}, o{idx}, {expr})",
        f"    SEGA{k}(o{idx} >> 12)",
    ))
    if n > 1:
        lines.append(f"    SEGA{k}((o{idx} + {n - 1}) >> 12)")
    lines.extend(("else:", f"    wr(a{idx}, {expr}, {n})"))
    return lines


def _emit_mov(instr, width, j, env):
    src, dst = instr.operands
    if _is_vector_op(src) or _is_vector_op(dst):
        return _emit_movq(instr, j, env)
    la, ea = _read_op(src, width, 2 * j, env)
    return [*la, *_write_op(dst, width, 2 * j + 1, env, ea)]


def _emit_movext(instr, j, env):
    spec = instr.spec
    src, dst = instr.operands
    la, ea = _read_op(src, spec.src_width, 2 * j, env)
    if instr.mnemonic.startswith("movz"):
        return [*la, *_write_op(dst, spec.width, 2 * j + 1, env, ea)]
    ssgn = hex(1 << (spec.src_width - 1))
    ext = hex(mask_for_width(spec.width) ^ mask_for_width(spec.src_width))
    lw = _write_op(dst, spec.width, 2 * j + 1, env, "v")
    return [*la, f"v = {ea}", f"if v & {ssgn}:", f"    v |= {ext}", *lw]


def _emit_lea(instr, j, env):
    src, dst = instr.operands
    return _write_op(dst, 64, 2 * j + 1, env, _addr_frag(src, 2 * j, env))


def _emit_alu(instr, width, j, env):
    src, dst = instr.operands
    la, ea = _read_op(src, width, 2 * j, env)
    lb, eb = _read_op(dst, width, 2 * j + 1, env)
    wr_r = _write_op(dst, width, 2 * j + 1, env, "r",
                     have_addr=isinstance(dst, Mem))

    m = hex(mask_for_width(width))
    sgn = hex(1 << (width - 1))
    root = instr.mnemonic[:-1]
    pre = [*la, f"a = {ea}", *lb, f"b = {eb}"]  # src read first, as in the reference

    if root == "add":
        return [
            *pre,
            "full = a + b",
            f"r = full & {m}",
            *_zf_sf_pf_lines("r", sgn),
            f"if full > {m}:",
            "    f |= _CF",
            f"if not ((a ^ b) & {sgn}) and ((a ^ r) & {sgn}):",
            "    f |= _OF",
            "R.rflags = f",
            *wr_r,
        ]
    if root == "sub":
        return [
            *pre,
            f"r = (b - a) & {m}",
            *_zf_sf_pf_lines("r", sgn),
            "if b < a:",
            "    f |= _CF",
            f"if ((b ^ a) & {sgn}) and ((b ^ r) & {sgn}):",
            "    f |= _OF",
            "R.rflags = f",
            *wr_r,
        ]
    if root == "imul":
        md = hex(mask_for_width(width) + 1)
        return [
            *pre,
            f"if a & {sgn}:",
            f"    a -= {md}",
            f"if b & {sgn}:",
            f"    b -= {md}",
            "full = a * b",
            f"r = full & {m}",
            *_zf_sf_pf_lines("r", sgn),
            f"if (r - {md} if r & {sgn} else r) != full:",
            "    f |= _CFOF",
            "R.rflags = f",
            *wr_r,
        ]
    sym = {"and": "&", "or": "|", "xor": "^"}[root]
    return [*pre, f"r = b {sym} a", *_zf_sf_pf_lines("r", sgn),
            "R.rflags = f", *wr_r]


def _emit_cmp_test(instr, width, j, env):
    src, dst = instr.operands
    la, ea = _read_op(src, width, 2 * j, env)
    lb, eb = _read_op(dst, width, 2 * j + 1, env)
    sgn = hex(1 << (width - 1))
    if instr.kind is InstrKind.TEST:
        return [*la, f"a = {ea}", *lb, f"r = {eb} & a",
                *_zf_sf_pf_lines("r", sgn), "R.rflags = f"]
    m = hex(mask_for_width(width))
    return [
        *la,
        f"a = {ea}",
        *lb,
        f"b = {eb}",
        f"r = (b - a) & {m}",
        *_zf_sf_pf_lines("r", sgn),
        "if b < a:",
        "    f |= _CF",
        f"if ((b ^ a) & {sgn}) and ((b ^ r) & {sgn}):",
        "    f |= _OF",
        "R.rflags = f",
    ]


def _emit_shift(instr, width, j, env):
    src, dst = instr.operands
    lv, ev = _read_op(dst, width, 2 * j + 1, env)
    wr_r = _write_op(dst, width, 2 * j + 1, env, "r",
                     have_addr=isinstance(dst, Mem))
    count_mask = 63 if width == 64 else 31
    op = instr.mnemonic[:3]
    m = hex(mask_for_width(width))
    sgn = hex(1 << (width - 1))
    md = hex(mask_for_width(width) + 1)

    if isinstance(src, Imm):
        count = src.value & count_mask
        if count == 0:
            # Flags and value unaffected — but the reference still performs
            # the operand read (a memory operand can segfault); mirror it.
            return lv if isinstance(dst, Mem) else []
        if op == "shl":
            calc = [f"r = (v << {count}) & {m}",
                    f"cf = (v >> {width - count}) & 1"]
        elif op == "shr":
            calc = [f"r = v >> {count}", f"cf = (v >> {count - 1}) & 1"]
        else:  # sar
            calc = [f"r = ((v - {md} if v & {sgn} else v) >> {count}) & {m}",
                    f"cf = (v >> {count - 1}) & 1"]
        return [*lv, f"v = {ev}", *calc, *_zf_sf_pf_lines("r", sgn),
                "if cf:", "    f |= _CF", "R.rflags = f", *wr_r]

    if op == "shl":
        calc = [f"r = (v << c) & {m}", f"cf = (v >> ({width} - c)) & 1"]
    elif op == "shr":
        calc = ["r = v >> c", "cf = (v >> (c - 1)) & 1"]
    else:  # sar
        calc = [f"r = ((v - {md} if v & {sgn} else v) >> c) & {m}",
                "cf = (v >> (c - 1)) & 1"]
    inner = [*calc, *_zf_sf_pf_lines("r", sgn),
             "if cf:", "    f |= _CF", "R.rflags = f", *wr_r]
    return [
        f'c = g["rcx"] & {count_mask}',
        *lv,  # read precedes the count-0 check (reference order)
        f"v = {ev}",
        "if c:",
        *["    " + line for line in inner],
    ]


def _emit_unary(instr, width, j, env):
    (dst,) = instr.operands
    lv, ev = _read_op(dst, width, 2 * j + 1, env)

    def write(expr):
        return _write_op(dst, width, 2 * j + 1, env, expr,
                         have_addr=isinstance(dst, Mem))

    wr_r = write("r")
    m = hex(mask_for_width(width))
    sgn = hex(1 << (width - 1))
    op = instr.mnemonic[:3]

    if op == "not":
        return [*lv, f"v = {ev}", *write(f"~v & {m}")]
    if op == "neg":
        return [
            *lv,
            f"v = {ev}",
            f"r = (-v) & {m}",
            *_zf_sf_pf_lines("r", sgn),
            "if v:",
            "    f |= _CF",
            f"if v & {sgn} and r & {sgn}:",
            "    f |= _OF",
            "R.rflags = f",
            *wr_r,
        ]
    delta = "+ 1" if op == "inc" else "- 1"
    of_cond = (f"if not v & {sgn} and r & {sgn}:" if op == "inc"
               else f"if v & {sgn} and not r & {sgn}:")
    return [
        *lv,
        f"v = {ev}",
        f"r = (v {delta}) & {m}",
        *_zf_sf_pf_lines("r", sgn),
        of_cond,
        "    f |= _OF",
        "R.rflags = f | (R.rflags & _CF)",  # inc/dec preserve CF
        *wr_r,
    ]


def _emit_setcc(instr, j, env):
    (dst,) = instr.operands
    cond = _CC_EXPR[instr.spec.cc]
    return ["f = R.rflags", f"v = 1 if {cond} else 0",
            *_write_op(dst, 8, 2 * j + 1, env, "v")]


def _emit_convert(instr):
    if instr.mnemonic == "cltq":
        return [
            'v = g["rax"] & 0xffffffff',
            "if v & 0x80000000:",
            "    v |= 0xffffffff00000000",
            'g["rax"] = v',
        ]
    if instr.mnemonic == "cltd":
        return ['g["rdx"] = 0xffffffff if g["rax"] & 0x80000000 else 0']
    return ['g["rdx"] = 0xffffffffffffffff if g["rax"] >> 63 else 0']  # cqto


def _emit_idiv(instr, width, j, env):
    """``idiv``: signed ``rdx:rax`` (``edx:eax``) by the operand.

    Mirrors ``semantics._exec_idiv`` step for step: the divisor read (which
    may fault), the zero check, the quotient-overflow check, and only then
    the writes of quotient and remainder.
    """
    (src,) = instr.operands
    lv, ev = _read_op(src, width, 2 * j, env)
    m = hex(mask_for_width(width))
    sgn = hex(1 << (width - 1))
    md = hex(mask_for_width(width) + 1)
    if width == 32:
        dividend = ['n = (g["rdx"] & 0xffffffff) << 32 | g["rax"] & 0xffffffff']
    else:
        dividend = ['n = g["rdx"] << 64 | g["rax"]']
    return [
        *lv,
        f"d = {ev}",
        f"if d & {sgn}:",
        f"    d -= {md}",
        "if d == 0:",
        '    raise _MF("integer division by zero")',
        *dividend,
        f"if n & {hex(1 << (2 * width - 1))}:",
        f"    n -= {hex(1 << (2 * width))}",
        "q = _TDIV(n, d)",
        f"if not -{sgn} <= q < {sgn}:",
        '    raise _MF("idiv quotient overflow")',
        f'g["rax"] = q & {m}',
        f'g["rdx"] = (n - q * d) & {m}',
    ]


def _emit_push(instr, j, env):
    (src,) = instr.operands
    lv, ev = _read_op(src, 64, 2 * j, env)
    return [
        *lv,
        f"v = {ev}",
        'rsp = g["rsp"] - 8',  # unmasked, as the reference passes it on
        'g["rsp"] = rsp & _M64',
        "if SEGB0 <= rsp and rsp + 8 <= SEGE0:",
        "    o = rsp - SEGB0",
        "    _P8(SEGD0, o, v)",
        "    SEGA0(o >> 12)",
        "    SEGA0((o + 7) >> 12)",
        "else:",
        "    wr(rsp, v, 8)",
    ]


def _emit_pop(instr, j, env):
    (dst,) = instr.operands
    return [
        'rsp = g["rsp"]',
        "if SEGB0 <= rsp and rsp + 8 <= SEGE0:",
        "    v = _U8(SEGD0, rsp - SEGB0)[0]",
        "else:",
        "    v = rd(rsp, 8)",
        'g["rsp"] = (rsp + 8) & _M64',
        *_write_op(dst, 64, 2 * j + 1, env, "v"),
    ]


# FERRUM's vector checks. Vector roots live in ``V`` (the register file's
# ``_vectors``) and always hold values below 2**256, because every
# RegisterFile write masks; the reference's 256-bit read and write masks
# are therefore no-ops and the templates omit them. An xmm write keeps the
# upper ymm lane, as ``RegisterFile.write`` does. Root cells are named
# ``QA{j}``/``QB{j}`` (sources) and ``QD{j}`` (destination).


def _emit_movq(instr, j, env):
    """``movq``/``vmovq`` with an xmm side (``semantics._exec_vec_movq``).

    The source is read as 64 bits; an xmm destination gets them in lane 0
    with bits 64..127 cleared, whatever the width its operand names.
    """
    src, dst = instr.operands
    if _is_vector_op(src):
        env[f"QA{j}"] = src.register.root
        la, ea = [], f"(V[QA{j}] & _M64)"
    else:
        la, ea = _read_op(src, 64, 2 * j, env)
    if _is_vector_op(dst):
        env[f"QD{j}"] = dst.register.root
        return [*la, f"V[QD{j}] = (V[QD{j}] & _NOT128) | {ea}"]
    return [*la, *_write_op(dst, 64, 2 * j + 1, env, ea)]


def _emit_pinsrq(instr, j, env):
    imm, src, dst = instr.operands
    env[f"QD{j}"] = dst.register.root
    la, ea = _read_op(src, 64, 2 * j, env)
    if imm.value == 0:
        return [*la, f"V[QD{j}] = (V[QD{j}] & _NOTQ0) | {ea}"]
    return [*la, f"V[QD{j}] = (V[QD{j}] & _NOTQ1) | ({ea} << 64)"]


def _emit_pextrq(instr, j, env):
    """``pextrq``: 64-bit lane 0 or 1 of an xmm register into a GPR or
    memory (``semantics._exec_pextrq``)."""
    imm, src, dst = instr.operands
    env[f"QA{j}"] = src.register.root
    lane = f"(V[QA{j}] & _M64)" if imm.value == 0 else f"(V[QA{j}] >> 64 & _M64)"
    return _write_op(dst, 64, 2 * j + 1, env, lane)


def _emit_vinserti128(instr, j, env):
    imm, xsrc, ysrc, ydst = instr.operands
    env[f"QA{j}"] = xsrc.register.root
    env[f"QB{j}"] = ysrc.register.root
    env[f"QD{j}"] = ydst.register.root
    if imm.value == 0:
        return [f"V[QD{j}] = (V[QB{j}] & _NOT128) | (V[QA{j}] & _M128)"]
    return [f"V[QD{j}] = (V[QB{j}] & _M128) | ((V[QA{j}] & _M128) << 128)"]


def _emit_vpxor(instr, j, env):
    src1, src2, dst = instr.operands
    env[f"QA{j}"] = src1.register.root
    env[f"QB{j}"] = src2.register.root
    env[f"QD{j}"] = dst.register.root
    return [f"V[QD{j}] = V[QA{j}] ^ V[QB{j}]"]


def _emit_vptest(instr, j, env):
    src1, src2 = instr.operands
    env[f"QA{j}"] = src1.register.root
    env[f"QB{j}"] = src2.register.root
    return [
        f"a = V[QA{j}]",
        f"b = V[QB{j}]",
        "R.rflags = (0 if a & b else _ZF) | (0 if a & ~b else _CF)",
    ]


def _instr_lines(instr, j, env) -> list[str]:
    """Body statements for one straight-line (non-branch) instruction.

    The one place instruction semantics are rendered: a single step is
    these lines plus ``return NXT``, a superblock their concatenation.
    """
    kind = instr.kind
    width = instr.spec.width
    if kind is InstrKind.MOV:
        return _emit_mov(instr, width, j, env)
    if kind is InstrKind.MOVEXT:
        return _emit_movext(instr, j, env)
    if kind is InstrKind.LEA:
        return _emit_lea(instr, j, env)
    if kind is InstrKind.ALU:
        return _emit_alu(instr, width, j, env)
    if kind in (InstrKind.CMP, InstrKind.TEST):
        return _emit_cmp_test(instr, width, j, env)
    if kind is InstrKind.SHIFT:
        return _emit_shift(instr, width, j, env)
    if kind is InstrKind.UNARY:
        return _emit_unary(instr, width, j, env)
    if kind is InstrKind.SETCC:
        return _emit_setcc(instr, j, env)
    if kind is InstrKind.CONVERT:
        return _emit_convert(instr)
    if kind is InstrKind.PUSH:
        return _emit_push(instr, j, env)
    if kind is InstrKind.POP:
        return _emit_pop(instr, j, env)
    if kind is InstrKind.IDIV:
        return _emit_idiv(instr, width, j, env)
    if kind is InstrKind.VECMOV:
        if instr.mnemonic == "vmovq":
            return _emit_movq(instr, j, env)
        if instr.mnemonic == "pinsrq":
            return _emit_pinsrq(instr, j, env)
        return _emit_pextrq(instr, j, env)
    if kind is InstrKind.VECINSERT:
        return _emit_vinserti128(instr, j, env)
    if kind is InstrKind.VECALU:
        return _emit_vpxor(instr, j, env)
    if kind is InstrKind.VECTEST:
        return _emit_vptest(instr, j, env)
    return []  # nop


def _jcc_lines(instr) -> list[str]:
    """The conditional-branch terminator over ``TGT``/``NXT`` cells."""
    return ["f = R.rflags", f"return TGT if {_CC_EXPR[instr.spec.cc]} else NXT"]


# -- closure steps (calls and returns) -----------------------------------------


def _steps_ret(cell, gprs, memory, code_len):
    """``retq``: pop the return address; sentinel halts the program.

    The reference raises post-dispatch faults (unmapped stack, corrupted
    return address) *after* counting the instruction as executed, so the
    step flags the machine and the run loop adjusts the counter on error.
    """
    from repro.machine.cpu import _SENTINEL

    read_uint = memory.read_uint

    def step() -> int:
        machine = cell[0]
        machine._post_exec = True
        rsp = gprs["rsp"]
        return_to = read_uint(rsp, 8)
        gprs["rsp"] = (rsp + 8) & _M64
        if return_to == _SENTINEL:
            machine._post_exec = False
            value = gprs["rax"] & _M32
            machine._exit_code = value - (1 << 32) if value & 0x8000_0000 else value
            return _HALT
        if return_to >= code_len:
            raise MachineFault(f"return to corrupted address {return_to:#x}")
        machine._post_exec = False
        return return_to
    return step


def _steps_call(cell, pc, nxt, entry_pc, builtin_fn, gprs, memory):
    if builtin_fn is not None:
        def step() -> int:
            machine = cell[0]
            machine._post_exec = True  # builtin errors count the call as executed
            result = builtin_fn(machine)
            machine._post_exec = False
            gprs["rax"] = result & _M64
            if machine._exit_requested:
                return _HALT
            return nxt
        return step

    return_pc = pc + 1
    write_uint = memory.write_uint

    def step() -> int:
        machine = cell[0]
        machine._post_exec = True  # a stack overflow here is a post-exec fault
        new_rsp = gprs["rsp"] - 8  # unmasked, as the reference passes it on
        gprs["rsp"] = new_rsp & _M64
        write_uint(new_rsp, return_pc, 8)
        machine._post_exec = False
        return entry_pc
    return step


# -- program translation -----------------------------------------------------


def _base_env(machine: "Machine") -> dict:
    """Live state an emitted body may bind as closure cells.

    The register file and its GPR and vector dicts, the memory accessors
    and, for the inlined memory
    fast path, each segment's start, end, backing bytearray and dirty-set
    ``add``. All are identity-stable across resets and snapshot restores
    (see :mod:`repro.machine.memory`), so capturing them at translation
    time is safe. :func:`_build_step` binds only the names a body uses.
    """
    registers = machine.registers
    memory = machine.memory
    env = {
        "g": registers._gprs,
        "V": registers._vectors,
        "R": registers,
        "rd": memory.read_uint,
        "wr": memory.write_uint,
    }
    for k, seg in enumerate(memory._segments):
        env[f"SEGB{k}"] = seg.start
        env[f"SEGE{k}"] = seg.start + len(seg.data)
        env[f"SEGD{k}"] = seg.data
        env[f"SEGA{k}"] = seg.dirty.add
    return env


def translate_program(machine: "Machine") -> TranslatedCode:
    """Compile every instruction of ``machine``'s program into a step."""
    gprs = machine.registers._gprs
    memory = machine.memory
    base_env = _base_env(machine)
    code = machine._code
    code_len = len(code)
    cell: list = [None]
    steps: list[Step] = []

    for pc, instr in enumerate(code):
        nxt = pc + 1 if pc + 1 < code_len else _FELL_OFF
        kind = instr.kind
        env = dict(base_env)
        env["NXT"] = nxt
        if not kind.is_branch:
            step = _build_step([*_instr_lines(instr, 0, env), "return NXT"],
                               env)
        elif kind is InstrKind.JCC:
            env["TGT"] = machine._jump_pc[pc]
            step = _build_step(_jcc_lines(instr), env)
        elif kind is InstrKind.JMP:
            def step(_t=machine._jump_pc[pc]) -> int:
                return _t
        elif kind is InstrKind.CALL:
            step = _steps_call(cell, pc, nxt, machine._call_entry_pc[pc],
                               machine._call_builtin_fn[pc], gprs, memory)
        else:
            step = _steps_ret(cell, gprs, memory, code_len)
        steps.append(step)

    site_flags = [1 if site else 0 for site in machine._is_site]
    return TranslatedCode(steps, site_flags, cell)


# -- superblock fusion --------------------------------------------------------
#
# Fusion removes the remaining per-instruction cost of single steps: instead
# of one closure call, one counter update and one loop iteration per
# instruction, each basic block / fall-through superblock compiles to ONE
# exec'd body — the emitter's statements concatenated, every instruction's
# flags computed exactly as its single step computes them.
#
# Bit-identity is preserved by construction:
#
# * blocks are cut only at branches: a ``jmp``/``jcc`` ends a block as its
#   terminator, while calls and returns execute through their single steps,
#   which the fused code object retains in full, as it does every other
#   instruction's;
# * a block only runs fused when no observable event can occur inside it:
#   the instruction budget cannot expire mid-block, no ``stop_at_site``
#   boundary and no pending fault-site hook falls inside it — otherwise the
#   driver falls back to single-stepping, so ``run_to_site`` snapshots,
#   fault-site numbering and hook delivery are identical to the reference;
# * fused bodies with faultable statements (memory operands, push/pop)
#   stamp their intra-block progress (instructions and sites completed)
#   into a shared cell before each such statement, so ``halt_executed`` /
#   ``halt_sites`` stay exact when a segfault aborts a fused block. A
#   single step needs no stamp: a fault in it means zero progress.


class FusedCode:
    """Fused superblocks over a :class:`TranslatedCode` single-step layer."""

    __slots__ = ("base", "fused_steps", "fused_len", "fused_sites", "progress")

    def __init__(self, base: TranslatedCode, fused_steps, fused_len,
                 fused_sites, progress) -> None:
        self.base = base
        self.fused_steps = fused_steps
        self.fused_len = fused_len
        self.fused_sites = fused_sites
        #: ``[instructions, sites]`` completed inside the currently-failing
        #: fused block; written by the generated except clause.
        self.progress = progress


def _can_fault(instr) -> bool:
    """Whether an emitted statement for ``instr`` can raise a MachineError."""
    if instr.kind in (InstrKind.PUSH, InstrKind.POP, InstrKind.IDIV):
        return True
    if instr.kind is InstrKind.LEA:
        return False  # address arithmetic only, no access
    return any(isinstance(op, Mem) for op in instr.operands)


def _fuse_block(machine, code, start, leaders, base_env, progress):
    """Compile the superblock at leader ``start``; None when < 2 instrs.

    Returns ``(step, instruction_count, site_count)``. The block extends
    through straight-line instructions up to (and including) a terminating
    ``jmp``/``jcc``, and is cut at the next leader, call or return.
    """
    n = len(code)
    end = start
    while (end < n and not code[end].kind.is_branch
           and (end == start or end not in leaders)):
        end += 1
    term = None
    if start < end < n and end not in leaders:
        if code[end].kind is InstrKind.JMP:
            term = ["return TGT"]
        elif code[end].kind is InstrKind.JCC:
            term = _jcc_lines(code[end])
    stop = end + 1 if term is not None else end
    if stop - start < 2:
        return None

    run = code[start:end]
    is_site = machine._is_site
    env = dict(base_env)
    faulting = any(_can_fault(instr) for instr in run)
    stmts: list[str] = []
    sites_before = 0
    for idx, instr in enumerate(run):
        if faulting and _can_fault(instr) and (idx or sites_before):
            # Progress stamp consumed by the generated except clause.
            stmts.append(f"N = {idx}")
            stmts.append(f"S = {sites_before}")
        stmts.extend(_instr_lines(instr, idx, env))
        if is_site[start + idx]:
            sites_before += 1

    env["NXT"] = stop if stop < n else _FELL_OFF
    if term is None:
        stmts.append("return NXT")
    else:
        env["TGT"] = machine._jump_pc[end]
        stmts.extend(term)

    if faulting:
        env["ME"] = MachineError
        env["PROG"] = progress
        body = ["N = 0", "S = 0", "try:"]
        body.extend("    " + line for line in stmts)
        body.extend(("except ME:", "    PROG[0] = N", "    PROG[1] = S",
                     "    raise"))
    else:
        body = stmts
    step = _build_step(body, env)
    block_sites = sum(1 for pc in range(start, stop) if is_site[pc])
    return step, stop - start, block_sites


def translate_fused(machine: "Machine") -> FusedCode:
    """Fuse superblocks over the single steps of ``machine``'s program."""
    base = translate_program(machine)
    code = machine._code
    n = len(code)

    leaders = set(machine._entry.values())
    for pc in range(n):
        if machine._jump_pc[pc] >= 0:
            leaders.add(machine._jump_pc[pc])
        if machine._call_entry_pc[pc] >= 0:
            leaders.add(machine._call_entry_pc[pc])
        if code[pc].kind.is_branch and pc + 1 < n:
            leaders.add(pc + 1)

    base_env = _base_env(machine)
    progress = [0, 0]
    fused_steps: list[Step | None] = [None] * n
    fused_len = [0] * n
    fused_sites = [0] * n
    for start in sorted(leaders):
        if start >= n:
            continue
        built = _fuse_block(machine, code, start, leaders, base_env, progress)
        if built is None:
            continue
        fused_steps[start], fused_len[start], fused_sites[start] = built
    return FusedCode(base, fused_steps, fused_len, fused_sites, progress)


def execute_fused(
    machine: "Machine",
    fused: FusedCode,
    pc: int,
    executed: int,
    sites: int,
    budget: int,
    fault_hook,
    fault_at: int,
    stop_at_site: int | None,
) -> tuple[int, int, int, bool]:
    """Drive fused superblocks; same contract as ``Machine._execute_from``.

    A block runs fused only when nothing observable can happen inside it —
    the budget cannot expire mid-block, no ``stop_at_site`` boundary and no
    hook-eligible fault site falls inside it. Everything else (including
    every instruction of a block containing the pending fault site)
    single-steps through the per-instruction steps — one-instruction bodies
    of the same emitter, or the closures for ``jmp``, ``call`` and ``ret`` —
    so counters, snapshots, hook delivery and
    fault-site numbering are bit-identical to the reference engine.

    One loop serves every leg, golden runs included, with exactly the
    reference engine's check ordering, counters and halt-stamp semantics.
    Because ``fault_hook`` and ``stop_at_site`` compose in one call,
    convergence early-exit needs no loop of its own:
    ``Machine._run_converged`` chains plain legs of this function between
    trail boundaries.
    """
    base = fused.base
    steps = base.steps
    site_flags = base.site_flags
    code_len = base.code_len
    fsteps = fused.fused_steps
    flen = fused.fused_len
    fsites = fused.fused_sites
    prog = fused.progress
    code = machine._code
    cell = base.machine_cell
    outer = cell[0]
    cell[0] = machine
    try:
        while True:
            # Check order mirrors the reference loop: stop, bounds, budget.
            if stop_at_site is not None and sites >= stop_at_site:
                return pc, executed, sites, True
            if pc >= code_len or pc < 0:
                raise MachineFault(f"execution fell outside code at index {pc}")
            fstep = fsteps[pc]
            if fstep is not None:
                if fault_hook is None:
                    hook_safe = True
                elif fault_at < 0:
                    hook_safe = fsites[pc] == 0
                else:
                    hook_safe = (fault_at < sites
                                 or sites + fsites[pc] <= fault_at)
            else:
                hook_safe = False
            if (hook_safe
                    and executed + flen[pc] <= budget
                    and (stop_at_site is None
                         or sites + fsites[pc] < stop_at_site)):
                try:
                    new_pc = fstep()
                except MachineError:
                    executed += prog[0]
                    sites += prog[1]
                    raise
                executed += flen[pc]
                sites += fsites[pc]
            else:
                if executed >= budget:
                    raise ExecutionLimitExceeded(
                        f"exceeded {budget} dynamic instructions"
                    )
                new_pc = steps[pc]()
                executed += 1
                if site_flags[pc]:
                    if fault_hook is not None and (fault_at < 0
                                                   or sites == fault_at):
                        machine.executed_at_site = executed
                        fault_hook(machine, code[pc], sites)
                    sites += 1
            if new_pc >= 0:
                pc = new_pc
                continue
            if new_pc == _HALT:
                break
            # Fell off the end: next iteration faults, after the stop check —
            # matching the reference loop's check ordering.
            pc = code_len
    except MachineError:
        if machine._post_exec:
            machine._post_exec = False
            executed += 1  # the faulting call/ret did execute
        machine.halt_executed = executed
        machine.halt_sites = sites
        raise
    finally:
        cell[0] = outer
    return pc, executed, sites, False
