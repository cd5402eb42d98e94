"""Instruction model and per-mnemonic metadata.

Each :class:`Instruction` is a mnemonic plus operand list in AT&T order
(sources first, destination last). A static :class:`InstrSpec` table supplies
everything the analyses need without switching on strings at every call
site: operation width, destination position, flag behaviour, condition
codes, and a coarse kind used by the machine semantics, the timing model and
the protection transforms.

The modeled subset is exactly what the -O0 backend and the three protection
transforms emit; :func:`get_spec` raises on anything else so typos surface
at construction time rather than at simulation time.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.asm.operands import LabelRef, Mem, Operand, Reg
from repro.asm.registers import FLAGS, Register, get_register
from repro.errors import AsmError


class InstrKind(enum.Enum):
    """Coarse semantic class of a mnemonic."""

    MOV = "mov"          # register/memory data movement
    MOVEXT = "movext"    # widening moves (movslq, movzbl, ...)
    LEA = "lea"
    ALU = "alu"          # add/sub/imul/and/or/xor
    SHIFT = "shift"
    UNARY = "unary"      # neg/not/inc/dec
    CMP = "cmp"
    TEST = "test"
    SETCC = "setcc"
    JMP = "jmp"
    JCC = "jcc"
    CALL = "call"
    RET = "ret"
    PUSH = "push"
    POP = "pop"
    CONVERT = "convert"  # cltq/cltd/cqto
    IDIV = "idiv"
    VECMOV = "vecmov"    # movq / pinsrq involving xmm
    VECINSERT = "vecinsert"  # vinserti128
    VECALU = "vecalu"    # vpxor
    VECTEST = "vectest"  # vptest
    NOP = "nop"

    @property
    def is_terminator(self) -> bool:
        return self in (InstrKind.JMP, InstrKind.JCC, InstrKind.RET)

    @property
    def is_branch(self) -> bool:
        return self in _BRANCH_KINDS

    @property
    def is_vector(self) -> bool:
        return self in (
            InstrKind.VECMOV,
            InstrKind.VECINSERT,
            InstrKind.VECALU,
            InstrKind.VECTEST,
        )


#: Bound once: looking members up on the Enum class costs more than the
#: test itself, and the fused engine cuts blocks at every branch.
_BRANCH_KINDS = (InstrKind.JMP, InstrKind.JCC, InstrKind.CALL, InstrKind.RET)

#: Condition codes supported by ``set<cc>``/``j<cc>``.
CONDITION_CODES: tuple[str, ...] = (
    "e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns",
)

#: cc -> cc for the inverted condition.
INVERTED_CC: dict[str, str] = {
    "e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g", "g": "le",
    "b": "ae", "ae": "b", "be": "a", "a": "be", "s": "ns", "ns": "s",
}

_SUFFIX_WIDTH = {"b": 8, "w": 16, "l": 32, "q": 64}


@dataclass(frozen=True)
class InstrSpec:
    """Static metadata for one mnemonic."""

    mnemonic: str
    kind: InstrKind
    width: int                 # operation width in bits; 0 when irrelevant
    n_operands: int
    has_dest: bool             # last operand is an architectural destination
    writes_flags: bool = False
    reads_flags: bool = False
    cc: str | None = None      # condition code for j<cc>/set<cc>
    src_width: int = 0         # source width for widening moves


def _specs() -> dict[str, InstrSpec]:
    table: dict[str, InstrSpec] = {}

    def add(spec: InstrSpec) -> None:
        if spec.mnemonic in table:
            raise AsmError(f"duplicate spec for {spec.mnemonic}")
        table[spec.mnemonic] = spec

    for suffix, width in _SUFFIX_WIDTH.items():
        add(InstrSpec(f"mov{suffix}", InstrKind.MOV, width, 2, True))
        add(InstrSpec(f"cmp{suffix}", InstrKind.CMP, width, 2, False, writes_flags=True))
        add(InstrSpec(f"test{suffix}", InstrKind.TEST, width, 2, False, writes_flags=True))
        for op in ("add", "sub", "and", "or", "xor"):
            add(InstrSpec(f"{op}{suffix}", InstrKind.ALU, width, 2, True, writes_flags=True))

    for suffix in ("l", "q"):
        width = _SUFFIX_WIDTH[suffix]
        add(InstrSpec(f"imul{suffix}", InstrKind.ALU, width, 2, True, writes_flags=True))
        for op in ("shl", "sar", "shr"):
            add(InstrSpec(f"{op}{suffix}", InstrKind.SHIFT, width, 2, True, writes_flags=True))
        for op in ("neg", "not", "inc", "dec"):
            add(InstrSpec(f"{op}{suffix}", InstrKind.UNARY, width, 1, True,
                          writes_flags=(op != "not")))
        add(InstrSpec(f"idiv{suffix}", InstrKind.IDIV, width, 1, False, writes_flags=True))

    # Widening moves: mnemonic encodes source and destination widths.
    add(InstrSpec("movslq", InstrKind.MOVEXT, 64, 2, True, src_width=32))
    add(InstrSpec("movsbl", InstrKind.MOVEXT, 32, 2, True, src_width=8))
    add(InstrSpec("movsbq", InstrKind.MOVEXT, 64, 2, True, src_width=8))
    add(InstrSpec("movzbl", InstrKind.MOVEXT, 32, 2, True, src_width=8))
    add(InstrSpec("movzbq", InstrKind.MOVEXT, 64, 2, True, src_width=8))
    add(InstrSpec("movzwl", InstrKind.MOVEXT, 32, 2, True, src_width=16))

    add(InstrSpec("leaq", InstrKind.LEA, 64, 2, True))

    add(InstrSpec("pushq", InstrKind.PUSH, 64, 1, False))
    add(InstrSpec("popq", InstrKind.POP, 64, 1, True))

    add(InstrSpec("cltq", InstrKind.CONVERT, 64, 0, False))   # rax = sx(eax)
    add(InstrSpec("cltd", InstrKind.CONVERT, 32, 0, False))   # edx:eax = sx(eax)
    add(InstrSpec("cqto", InstrKind.CONVERT, 64, 0, False))   # rdx:rax = sx(rax)

    add(InstrSpec("jmp", InstrKind.JMP, 0, 1, False))
    add(InstrSpec("call", InstrKind.CALL, 0, 1, False))
    add(InstrSpec("retq", InstrKind.RET, 0, 0, False))
    for cc in CONDITION_CODES:
        add(InstrSpec(f"j{cc}", InstrKind.JCC, 0, 1, False, reads_flags=True, cc=cc))
        add(InstrSpec(f"set{cc}", InstrKind.SETCC, 8, 1, True, reads_flags=True, cc=cc))

    # Vector subset used by FERRUM's SIMD batching (Fig. 6 of the paper).
    add(InstrSpec("vmovq", InstrKind.VECMOV, 64, 2, True))
    add(InstrSpec("pinsrq", InstrKind.VECMOV, 64, 3, True))
    add(InstrSpec("pextrq", InstrKind.VECMOV, 64, 3, True))
    add(InstrSpec("vinserti128", InstrKind.VECINSERT, 128, 4, True))
    add(InstrSpec("vpxor", InstrKind.VECALU, 256, 3, True))
    add(InstrSpec("vptest", InstrKind.VECTEST, 256, 2, False, writes_flags=True))

    add(InstrSpec("nop", InstrKind.NOP, 0, 0, False))
    return table


_SPEC_TABLE: dict[str, InstrSpec] = _specs()


def get_spec(mnemonic: str) -> InstrSpec:
    """The :class:`InstrSpec` for ``mnemonic``; raises AsmError if unknown."""
    try:
        return _SPEC_TABLE[mnemonic]
    except KeyError:
        raise AsmError(f"unsupported mnemonic {mnemonic!r}") from None


def known_mnemonics() -> tuple[str, ...]:
    """Every supported mnemonic (deterministic order)."""
    return tuple(_SPEC_TABLE)


_instr_ids = itertools.count()


@dataclass(eq=False)
class Instruction:
    """One assembly instruction: mnemonic + operands in AT&T order.

    Attributes:
        mnemonic: e.g. ``"movq"``.
        operands: sources first, destination last (AT&T convention).
        comment: optional trailing ``#`` comment, preserved by the printer.
        origin: provenance tag set by the transforms (``"orig"``,
            ``"dup"``, ``"check"``...) — used by tests and by reports, never
            by semantics.
        uid: unique id so equal-looking instructions stay distinguishable
            inside CFG maps.
    """

    mnemonic: str
    operands: tuple[Operand, ...] = ()
    comment: str | None = None
    origin: str = "orig"
    uid: int = field(default_factory=lambda: next(_instr_ids))

    def __post_init__(self) -> None:
        spec = get_spec(self.mnemonic)
        self.operands = tuple(self.operands)
        if len(self.operands) != spec.n_operands:
            raise AsmError(
                f"{self.mnemonic} expects {spec.n_operands} operands, "
                f"got {len(self.operands)}"
            )
        # Hot-path caches: the simulator queries these per dynamic
        # instruction; operands are never mutated after construction
        # (transforms build fresh instructions via copy()).
        self._spec = spec
        self._dest_registers: tuple[Register, ...] | None = None

    @property
    def spec(self) -> InstrSpec:
        return self._spec

    @property
    def kind(self) -> InstrKind:
        return self._spec.kind

    # -- structural accessors ------------------------------------------------

    @property
    def dest(self) -> Operand | None:
        """The architectural destination operand, if the mnemonic has one."""
        if self.spec.has_dest:
            return self.operands[-1]
        return None

    @property
    def sources(self) -> tuple[Operand, ...]:
        """Explicit source operands (everything but the destination)."""
        if self.spec.has_dest:
            return self.operands[:-1]
        return self.operands

    @property
    def target_label(self) -> str | None:
        """Branch/call target label, when the instruction has one."""
        if self.kind in (InstrKind.JMP, InstrKind.JCC, InstrKind.CALL):
            op = self.operands[0]
            if isinstance(op, LabelRef):
                return op.name
        return None

    # -- register effects ----------------------------------------------------

    def dest_registers(self) -> tuple[Register, ...]:
        """Architectural registers written by this instruction.

        Implicit destinations are included (``idiv`` writes rax/rdx, the
        converts write rax or rdx). ``cmp``/``test``/``vptest`` report the
        FLAGS pseudo-register, matching the paper's treatment of flag faults
        as injectable destinations (Fig. 9). Stack-pointer side effects of
        push/pop/call/ret are *not* reported: they are not fault-injection
        sites under the paper's model.
        """
        if self._dest_registers is not None:
            return self._dest_registers
        self._dest_registers = self._compute_dest_registers()
        return self._dest_registers

    def _compute_dest_registers(self) -> tuple[Register, ...]:
        kind = self.kind
        if kind in (InstrKind.CMP, InstrKind.TEST, InstrKind.VECTEST):
            return (FLAGS,)
        if kind is InstrKind.IDIV:
            width = self.spec.width
            if width == 64:
                return (get_register("rax"), get_register("rdx"))
            return (get_register("eax"), get_register("edx"))
        if kind is InstrKind.CONVERT:
            if self.mnemonic == "cltq":
                return (get_register("rax"),)
            if self.mnemonic == "cltd":
                return (get_register("edx"),)
            return (get_register("rdx"),)
        dest = self.dest
        if isinstance(dest, Reg):
            return (dest.register,)
        return ()

    def read_registers(self) -> tuple[Register, ...]:
        """Architectural registers read (explicit operands + implicits)."""
        regs: list[Register] = []
        for i, op in enumerate(self.operands):
            is_dest = self.spec.has_dest and i == len(self.operands) - 1
            if isinstance(op, Reg):
                # Destinations of pure moves are write-only; RMW ops and
                # partial vector writes also read their destination.
                if not is_dest or self.kind in (
                    InstrKind.ALU,
                    InstrKind.SHIFT,
                    InstrKind.UNARY,
                    InstrKind.VECALU,
                    InstrKind.VECINSERT,
                ) or self.mnemonic == "pinsrq":
                    regs.append(op.register)
            elif isinstance(op, Mem):
                regs.extend(op.registers())
        if self.kind is InstrKind.IDIV:
            if self.spec.width == 64:
                regs += [get_register("rax"), get_register("rdx")]
            else:
                regs += [get_register("eax"), get_register("edx")]
        elif self.kind is InstrKind.CONVERT:
            regs.append(get_register("rax" if self.mnemonic == "cqto" else "eax"))
        return tuple(regs)

    def register_roots(self) -> frozenset[str]:
        """Roots of every register this instruction touches (reads or writes)."""
        roots = {r.root for r in self.read_registers()}
        roots.update(r.root for r in self.dest_registers())
        for op in self.operands:
            if isinstance(op, Mem):
                roots.update(r.root for r in op.registers())
            elif isinstance(op, Reg):
                roots.add(op.root)
        roots.discard("rflags")
        return frozenset(roots)

    def reads_memory(self) -> bool:
        """True when any source operand (or pop) reads memory."""
        if self.kind is InstrKind.LEA:
            return False  # lea only computes the address
        if self.kind in (InstrKind.POP, InstrKind.RET):
            return True
        for i, op in enumerate(self.operands):
            is_dest = self.spec.has_dest and i == len(self.operands) - 1
            if isinstance(op, Mem) and not is_dest:
                return True
        # RMW memory destinations also read; the backend never emits them,
        # but a mov-to-mem never reads its destination.
        return False

    def writes_memory(self) -> bool:
        """True when the destination is memory (or the op pushes)."""
        if self.kind in (InstrKind.PUSH, InstrKind.CALL):
            return True
        dest = self.dest
        return isinstance(dest, Mem)

    def is_fault_site(self) -> bool:
        """True when the paper's fault model can target this instruction.

        A fault site is any dynamic instruction with at least one register
        (or FLAGS) destination.
        """
        return bool(self.dest_registers())

    def copy(self, **overrides: object) -> "Instruction":
        """A fresh instruction (new uid) with selected fields replaced."""
        kwargs = {
            "mnemonic": self.mnemonic,
            "operands": self.operands,
            "comment": self.comment,
            "origin": self.origin,
        }
        kwargs.update(overrides)  # type: ignore[arg-type]
        return Instruction(**kwargs)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        return f"<Instruction {self.mnemonic} {ops}>".replace(" >", ">")


def ins(mnemonic: str, *operands: Operand, comment: str | None = None,
        origin: str = "orig") -> Instruction:
    """Shorthand constructor used heavily by the backend and transforms."""
    return Instruction(mnemonic, tuple(operands), comment=comment, origin=origin)
