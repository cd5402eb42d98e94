"""Outcome-equivalence fault-site pruning: classify faults without running them.

A fault-injection campaign executes one full program run per sampled fault,
yet for most samples the outcome is already determined by the golden run:
the flipped bit is overwritten before any use (statically masked), or the
flip propagates through FERRUM's XOR-linear dup/check datapath straight
into a checker compare whose divergence is provable. This module classifies
such plans *without executing them*, by forward-propagating the exact XOR
delta of the flip along the recorded golden trace.

The scanner is sound by construction:

* every tracked location holds either the *exact* XOR delta between the
  faulty and golden value (registers, memory bytes) or an explicit
  "unknown" marker; flag bits track ``flip`` (exactly inverted), ``cmpz``
  (inverted iff the golden bit was set — the compare-against-equal shape)
  or ``unk``;
* any situation outside the delta-linear subset — corrupted address
  registers, unknown flags reaching a branch, ``idiv`` with corrupted
  inputs, divergence to anything but a detect block — abstains
  (``outcome=None``) and the plan is executed normally;
* a classified DETECTED requires a provably inverted branch whose taken
  path is exactly ``call __eddi_detect``, which yields the same
  :class:`~repro.faultinjection.outcome.Outcome` *and* detection latency
  the real injection would produce;
* a classified BENIGN requires the corrupted set to converge to empty, or
  to never be observed again by the remaining golden trace;
* a classified SDC requires an exact non-zero delta in the low 32 bits of
  ``rax`` at the final sentinel return (equal output, different exit code).

Classified plans are grouped into equivalence classes keyed by
(instruction uid, register, bit, verdict); unclassified duplicates of the
same (site, register, bit) — the machine is deterministic — are injected
once and their results replicated. Both collapse campaign cost while the
per-run outcomes, records and aggregate counts stay bit-identical to an
unpruned campaign (see ``docs/performance.md``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.liveness import CC_READS, flag_bits_written, instruction_uses
from repro.asm.operands import Imm, Mem, Reg
from repro.asm.printer import format_instruction
from repro.asm.program import AsmProgram
from repro.asm.registers import RegisterKind
from repro.errors import InjectionError
from repro.faultinjection.outcome import Outcome
from repro.faultinjection.telemetry import FaultRecord, normalize_origin
from repro.machine import flags as flg
from repro.machine.builtins import DETECT_FUNCTION
from repro.machine.cpu import Machine, RunResult
from repro.utils.bitops import mask_for_width, parity_even

#: Scan gives up after this many propagation events (abstains).
MAX_EVENTS = 4096
#: Scan gives up when the corrupted set grows past this many locations.
MAX_LOCATIONS = 64

_M32 = mask_for_width(32)
_M64 = mask_for_width(64)
_M128 = mask_for_width(128)
_M256 = mask_for_width(256)

_ALL5 = (flg.CF_BIT, flg.PF_BIT, flg.ZF_BIT, flg.SF_BIT, flg.OF_BIT)
_NON_CF = (flg.PF_BIT, flg.ZF_BIT, flg.SF_BIT, flg.OF_BIT)

#: Registers each builtin reads (none touches memory; results depend only
#: on these arguments plus machine state that clean-argument calls keep
#: identical across the golden and faulty runs).
_BUILTIN_READS: dict[str, tuple[str, ...]] = {
    "malloc": ("rdi",),
    "free": (),
    "print_int": ("rdi",),
    "print_long": ("rdi",),
    "srand": ("rdi",),
    "rand_next": (),
    "exit": ("rdi",),
    DETECT_FUNCTION: (),
}

#: Condition codes whose truth value provably inverts when exactly one of
#: their consumed flag bits is exactly inverted.
_XOR_LINEAR_CCS = frozenset({"e", "ne", "b", "ae", "s", "ns", "l", "ge"})


class _Bail(Exception):
    """Internal: the scan left the provable subset; abstain."""


@dataclass(frozen=True)
class Verdict:
    """Result of classifying one (site, register, bit) without execution.

    ``outcome is None`` means the scanner abstained and the plan must be
    executed. ``latency`` is the detection latency in dynamic instructions
    for DETECTED verdicts (bit-identical to the real injector's).
    """

    outcome: Outcome | None
    latency: int | None = None
    events: int = 0
    static: bool = False


@dataclass
class PruningStats:
    """Telemetry for one pruned campaign (attached to CampaignResult)."""

    samples: int = 0
    classified: int = 0
    executed_injections: int = 0
    statically_masked: int = 0
    detected: int = 0
    benign: int = 0
    sdc: int = 0
    duplicates_collapsed: int = 0
    classes: int = 0
    scan_events: int = 0

    @property
    def executed_fraction(self) -> float:
        return self.executed_injections / self.samples if self.samples else 0.0


@dataclass
class PruningAnalysis:
    """Plan partition produced by :func:`analyze_plans`.

    ``synthesized`` holds (run_index, FaultRecord) pairs produced without
    execution; ``to_execute`` the representative plans that must run;
    ``duplicates`` maps a representative run index to the run indices
    whose plans are bit-identical to it (same site/register/bit — the
    machine is deterministic, so their results are clones).
    """

    synthesized: list = field(default_factory=list)
    to_execute: list = field(default_factory=list)
    duplicates: dict[int, list[int]] = field(default_factory=dict)
    stats: PruningStats = field(default_factory=PruningStats)


@dataclass
class GoldenTrace:
    """One recorded golden execution: per-position pcs and memory traffic."""

    pcs: list[int]
    reads: dict[int, list[tuple[int, int]]]
    writes: dict[int, list[tuple[int, int]]]
    site_pos: list[int]
    result: RunResult
    exited_via_builtin: bool


def record_golden_trace(
    program: AsmProgram, function: str = "main", args: tuple[int, ...] = ()
) -> tuple[Machine, GoldenTrace]:
    """Run ``program`` fault-free on the reference engine, recording the pc
    of every executed instruction and every memory access (attributed to
    the instruction — or the call/ret flow step — that issued it).

    Detector programs (DME) are recorded through their ``plain()`` view —
    the same instruction objects without the lockstep machinery, so the
    trace is identical while the handler/memory interception below never
    interleaves with reference-pair establishment."""
    plain = getattr(program, "plain", None)
    machine = Machine(plain() if plain is not None else program,
                      engine="reference")
    pcs: list[int] = []
    reads: dict[int, list[tuple[int, int]]] = defaultdict(list)
    writes: dict[int, list[tuple[int, int]]] = defaultdict(list)

    real_handlers = machine._handlers

    def _wrap(pc, handler):
        def wrapped(m, instr):
            pcs.append(pc)
            return handler(m, instr)

        return wrapped

    machine._handlers = [_wrap(pc, h) for pc, h in enumerate(real_handlers)]
    memory = machine.memory
    real_read, real_write = memory.read_uint, memory.write_uint

    def read_uint(addr, size):
        if pcs:
            reads[len(pcs) - 1].append((addr, size))
        return real_read(addr, size)

    def write_uint(addr, value, size):
        if pcs:
            writes[len(pcs) - 1].append((addr, size))
        return real_write(addr, value, size)

    memory.read_uint = read_uint  # type: ignore[method-assign]
    memory.write_uint = write_uint  # type: ignore[method-assign]
    try:
        result = machine.run(function=function, args=args)
    finally:
        machine._handlers = real_handlers
        del memory.read_uint
        del memory.write_uint

    is_site = machine._is_site
    site_pos = [p for p, pc in enumerate(pcs) if is_site[pc]]
    trace = GoldenTrace(
        pcs=pcs,
        reads=dict(reads),
        writes=dict(writes),
        site_pos=site_pos,
        result=result,
        exited_via_builtin=machine._exit_requested,
    )
    return machine, trace


def _scan_roots(instr: Instruction, builtin: str | None) -> frozenset[str]:
    """Register roots whose corruption this instruction could observe or
    repair — the machine-semantics set, not the liveness over-approximation
    (a call does *not* clobber caller-saved registers here: the callee's
    own trace positions account for every real touch)."""
    roots: set[str] = set()
    for op in instr.operands:
        if isinstance(op, Reg):
            roots.add(op.register.root)
        elif isinstance(op, Mem):
            if op.base is not None:
                roots.add(op.base.root)
            if op.index is not None:
                roots.add(op.index.root)
    kind = instr.kind
    if kind in (InstrKind.PUSH, InstrKind.POP, InstrKind.RET, InstrKind.CALL):
        roots.add("rsp")
    if kind is InstrKind.RET:
        roots.add("rax")
    if kind in (InstrKind.IDIV, InstrKind.CONVERT):
        roots.update(("rax", "rdx"))
    if kind is InstrKind.CALL and builtin is not None:
        roots.update(_BUILTIN_READS.get(builtin, ()))
        roots.add("rax")
    return frozenset(roots)


def _touches_flags(instr: Instruction) -> bool:
    kind = instr.kind
    if kind in (InstrKind.ALU, InstrKind.CMP, InstrKind.TEST,
                InstrKind.VECTEST, InstrKind.SHIFT, InstrKind.JCC,
                InstrKind.SETCC):
        return True
    return kind is InstrKind.UNARY and instr.mnemonic[:3] != "not"


class TraceAnalyzer:
    """Classifies fault plans against one recorded golden trace."""

    def __init__(
        self,
        program: AsmProgram,
        function: str = "main",
        args: tuple[int, ...] = (),
    ) -> None:
        self.machine, self.trace = record_golden_trace(program, function, args)
        # DME mode: the program detects by comparing post-writeback site
        # values against its fault-free trace, so classification must judge
        # every intermediate site, not just the final output (see
        # _classify for the exact rules).
        self._dme = getattr(program, "detector", None) == "dme"
        m = self.machine
        self._code = m._code
        self._is_site = m._is_site
        self._jump_pc = m._jump_pc
        self._builtin_name = [
            (instr.target_label if m._call_builtin_fn[pc] is not None else None)
            for pc, instr in enumerate(self._code)
        ]
        self._scan_root_cache = [
            _scan_roots(instr, self._builtin_name[pc])
            for pc, instr in enumerate(self._code)
        ]
        self._flag_touch = [_touches_flags(instr) for instr in self._code]
        self._build_index()
        self._memo: dict[tuple[int, str, int], Verdict] = {}

    # -- event index ------------------------------------------------------

    def _build_index(self) -> None:
        reg_pos: dict[str, list[int]] = defaultdict(list)
        flag_pos: list[int] = []
        mem_pos: dict[int, list[int]] = defaultdict(list)
        scan_roots = self._scan_root_cache
        flag_touch = self._flag_touch
        trace = self.trace
        reads, writes = trace.reads, trace.writes
        for p, pc in enumerate(trace.pcs):
            for root in scan_roots[pc]:
                reg_pos[root].append(p)
            if flag_touch[pc]:
                flag_pos.append(p)
            for addr, size in reads.get(p, ()):
                for k in range(size):
                    lst = mem_pos[addr + k]
                    if not lst or lst[-1] != p:
                        lst.append(p)
            for addr, size in writes.get(p, ()):
                for k in range(size):
                    lst = mem_pos[addr + k]
                    if not lst or lst[-1] != p:
                        lst.append(p)
        self._reg_pos = dict(reg_pos)
        self._flag_pos = flag_pos
        self._mem_pos = dict(mem_pos)

    # -- public API -------------------------------------------------------

    def site_instruction(self, site_index: int) -> Instruction:
        return self._code[self.trace.pcs[self.trace.site_pos[site_index]]]

    def classify(self, site_index: int, register, bit: int) -> Verdict:
        """Verdict for flipping ``bit`` of ``register`` at dynamic site
        ``site_index`` (memoized; identical plans share one scan)."""
        key = (site_index, register.name, bit)
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._classify(site_index, register, bit)
            self._memo[key] = verdict
        return verdict

    # -- static fast path -------------------------------------------------

    def _statically_dead(self, pc: int, register, bit: int) -> bool:
        """True when the flipped bit is provably overwritten before any use
        on the *static* fall-through path (def-use, per ``asm/liveness``)."""
        code = self._code
        if register.kind is RegisterKind.FLAGS:
            for nxt in range(pc + 1, len(code)):
                instr = code[nxt]
                kind = instr.kind
                if kind in (InstrKind.JCC, InstrKind.SETCC):
                    if bit in CC_READS[instr.spec.cc or ""]:
                        return False
                elif kind in (InstrKind.CALL, InstrKind.RET, InstrKind.JMP,
                              InstrKind.IDIV):
                    return False
                if bit in flag_bits_written(instr):
                    return True
                if kind.is_terminator:
                    return False
            return False
        if register.kind is not RegisterKind.GPR:
            return False
        root = register.root
        for nxt in range(pc + 1, len(code)):
            instr = code[nxt]
            if instr.kind.is_branch or instr.kind.is_terminator:
                return False
            if root in instruction_uses(instr):
                return False
            dest = instr.dest
            if (isinstance(dest, Reg) and dest.register.root == root
                    and dest.register.width >= 32
                    and instr.kind in (InstrKind.MOV, InstrKind.MOVEXT,
                                       InstrKind.LEA, InstrKind.POP)):
                return True
        return False

    # -- the delta scan ---------------------------------------------------

    def _classify(self, site_index: int, register, bit: int) -> Verdict:
        trace = self.trace
        pos = trace.site_pos[site_index]
        pc = trace.pcs[pos]
        if self._statically_dead(pc, register, bit):
            return Verdict(Outcome.BENIGN, events=0, static=True)

        # Corrupted-location state: exact XOR deltas or None (unknown).
        gpr: dict[str, int | None] = {}
        vec: dict[str, int | None] = {}
        fl: dict[int, str] = {}
        mem: dict[int, int | None] = {}

        kind_of = register.kind
        if kind_of is RegisterKind.FLAGS:
            fl[bit] = "flip"
        elif kind_of is RegisterKind.GPR:
            gpr[register.root] = 1 << bit
        else:
            vec[register.root] = 1 << bit

        code = self._code
        pcs = trace.pcs
        n = len(pcs)
        reg_pos = self._reg_pos
        flag_pos = self._flag_pos
        mem_pos = self._mem_pos

        # ---- helpers over the mutable state ----

        def view_delta(reg) -> int | None:
            if reg.kind is RegisterKind.GPR:
                d = gpr.get(reg.root, 0)
            else:
                d = vec.get(reg.root, 0)
            if d is None:
                return None
            return d & mask_for_width(reg.width)

        def write_reg(reg, dv: int | None) -> None:
            """Apply the register-file merge rules to a view-width delta."""
            if reg.kind is RegisterKind.GPR:
                store, full_mask, root = gpr, _M64, reg.root
                w = reg.width
                replace_w = 32  # >=32-bit GPR writes determine the root
            else:
                store, full_mask, root = vec, _M256, reg.root
                w = reg.width
                replace_w = 256
            if dv is not None:
                dv &= mask_for_width(w)
            if w >= replace_w and (reg.kind is RegisterKind.GPR or w == 256):
                new = dv  # zero-extending / replacing write
            elif reg.kind is RegisterKind.VECTOR:  # xmm view: low-lane merge
                old = store.get(root, 0)
                if old is None or dv is None:
                    new = None
                else:
                    new = (old & ~_M128) | dv
            else:  # sub-32 GPR merge
                old = store.get(root, 0)
                if old is None or dv is None:
                    new = None
                else:
                    new = (old & ~mask_for_width(w)) | dv
            if new == 0:
                store.pop(root, None)
            else:
                store[root] = None if new is None else new & full_mask

        def require_clean_addr(op: Mem) -> None:
            if op.base is not None and op.base.root in gpr:
                raise _Bail
            if op.index is not None and op.index.root in gpr:
                raise _Bail

        def mem_read_delta(addr: int, size: int) -> int | None:
            dv = 0
            for k in range(size):
                b = mem.get(addr + k, 0)
                if b is None:
                    return None
                dv |= b << (8 * k)
            return dv

        def mem_write_delta(addr: int, size: int, dv: int | None) -> None:
            for k in range(size):
                b = None if dv is None else (dv >> (8 * k)) & 0xFF
                if b == 0:
                    mem.pop(addr + k, None)
                else:
                    mem[addr + k] = b

        def read_op(op, width: int, reads_iter) -> int | None:
            if isinstance(op, Imm):
                return 0
            if isinstance(op, Reg):
                d = view_delta(op.register)
                return None if d is None else d & mask_for_width(width)
            require_clean_addr(op)
            addr, size = next(reads_iter)
            return mem_read_delta(addr, size)

        def write_op(op, dv: int | None, width: int, writes_iter) -> None:
            if isinstance(op, Reg):
                if dv is not None:
                    dv &= mask_for_width(width)
                write_reg(op.register, dv)
                return
            require_clean_addr(op)
            addr, size = next(writes_iter)
            mem_write_delta(addr, size, dv)

        def erase(bits) -> None:
            for b in bits:
                fl.pop(b, None)

        def unknown(bits) -> None:
            for b in bits:
                fl[b] = "unk"

        def result_flags(dr: int, width: int, cf_state: str | None) -> None:
            """Exact flag deltas after ``flags_for_result`` with result
            delta ``dr`` (OF cleared in both runs; ``cf_state`` None means
            CF cleared in both runs too)."""
            erase((flg.OF_BIT,))
            if cf_state is None:
                erase((flg.CF_BIT,))
            elif cf_state == "clean":
                erase((flg.CF_BIT,))
            else:
                fl[flg.CF_BIT] = cf_state
            if dr == 0:
                erase((flg.ZF_BIT, flg.SF_BIT, flg.PF_BIT))
                return
            fl[flg.ZF_BIT] = "cmpz"
            if (dr >> (width - 1)) & 1:
                fl[flg.SF_BIT] = "flip"
            else:
                erase((flg.SF_BIT,))
            if not parity_even(dr & 0xFF):
                fl[flg.PF_BIT] = "flip"
            else:
                erase((flg.PF_BIT,))

        detect_latency: list[int] = []

        def resolve_jcc(p: int, instr: Instruction) -> bool:
            """Handle a conditional branch event. Returns True when the
            faulty run provably reaches the detect handler (scan done);
            raises _Bail when the direction cannot be proven."""
            cc = instr.spec.cc or ""
            bits = CC_READS[cc]
            states = [fl.get(b) for b in bits]
            if all(s is None for s in states):
                return False  # same direction, nothing changes
            pc_here = pcs[p]
            if p + 1 >= n:
                raise _Bail
            jump_to = self._jump_pc[pc_here]
            fall_to = pc_here + 1
            golden_next = pcs[p + 1]
            golden_taken = golden_next == jump_to
            if jump_to == fall_to:
                return False  # both directions land on the same pc

            inverted = False
            if any(s == "unk" for s in states):
                raise _Bail
            if "cmpz" in states:
                if cc not in ("e", "ne") or len(bits) != 1:
                    raise _Bail
                golden_zf = golden_taken if cc == "e" else not golden_taken
                if not golden_zf:
                    raise _Bail  # golden bit clear: flip direction unknown
                inverted = True
            else:
                flips = sum(1 for s in states if s == "flip")
                if flips == 0:
                    return False
                if cc in ("l", "ge") and flips == 2:
                    return False  # SF and OF both invert: XOR unchanged
                if cc not in _XOR_LINEAR_CCS or flips != 1:
                    raise _Bail
                inverted = True
            if not inverted:
                return False
            target = fall_to if golden_taken else jump_to
            t_instr = code[target]
            if (t_instr.kind is InstrKind.CALL
                    and t_instr.target_label == DETECT_FUNCTION):
                # Faulty run: identical to golden through p (executed p+1),
                # then executes the detect call (p+2) which raises.
                detect_latency.append(p - pos + 1)
                return True
            raise _Bail

        sdc: list[bool] = []

        def step(p: int) -> bool:
            """Process one event; True ends the scan with a verdict."""
            instr = code[pcs[p]]
            kind = instr.kind
            width = instr.spec.width
            reads_iter = iter(trace.reads.get(p, ()))
            writes_iter = iter(trace.writes.get(p, ()))

            if kind is InstrKind.MOV:
                src, dst = instr.operands
                if (isinstance(src, Reg) and src.register.kind is RegisterKind.VECTOR) or (
                    isinstance(dst, Reg) and dst.register.kind is RegisterKind.VECTOR
                ):
                    return step_vec_movq(instr, reads_iter, writes_iter)
                dv = read_op(src, width, reads_iter)
                write_op(dst, dv, width, writes_iter)
            elif kind is InstrKind.MOVEXT:
                src, dst = instr.operands
                sw = instr.spec.src_width
                dv = read_op(src, sw, reads_iter)
                if dv is not None and instr.mnemonic.startswith("movs"):
                    if (dv >> (sw - 1)) & 1:
                        dv |= mask_for_width(width) ^ mask_for_width(sw)
                write_op(dst, dv, width, writes_iter)
            elif kind is InstrKind.LEA:
                src, dst = instr.operands
                corrupted = (
                    (src.base is not None and src.base.root in gpr)
                    or (src.index is not None and src.index.root in gpr)
                )
                write_op(dst, None if corrupted else 0, 64, writes_iter)
            elif kind is InstrKind.ALU:
                src, dst = instr.operands
                da = read_op(src, width, reads_iter)
                db = read_op(dst, width, reads_iter)
                root_op = instr.mnemonic[:-1]
                if da == 0 and db == 0:
                    write_op(dst, 0, width, writes_iter)
                    erase(_ALL5)
                elif root_op == "xor" and da is not None and db is not None:
                    dr = (da ^ db) & mask_for_width(width)
                    write_op(dst, dr, width, writes_iter)
                    if dr == 0:
                        erase(_ALL5)
                    else:
                        result_flags(dr, width, cf_state=None)
                elif root_op in ("and", "or"):
                    write_op(dst, None, width, writes_iter)
                    unknown((flg.ZF_BIT, flg.SF_BIT, flg.PF_BIT))
                    erase((flg.CF_BIT, flg.OF_BIT))
                else:  # add/sub/imul with a corrupted input
                    write_op(dst, None, width, writes_iter)
                    unknown(_ALL5)
            elif kind is InstrKind.CMP:
                src, dst = instr.operands
                da = read_op(src, width, reads_iter)
                db = read_op(dst, width, reads_iter)
                if da == 0 and db == 0:
                    erase(_ALL5)
                elif da is None or db is None:
                    unknown(_ALL5)
                elif ((da ^ db) & mask_for_width(width)) == 0:
                    erase((flg.ZF_BIT,))  # equal deltas: equality preserved
                    unknown((flg.CF_BIT, flg.PF_BIT, flg.SF_BIT, flg.OF_BIT))
                else:
                    fl[flg.ZF_BIT] = "cmpz"
                    unknown((flg.CF_BIT, flg.PF_BIT, flg.SF_BIT, flg.OF_BIT))
            elif kind is InstrKind.TEST:
                src, dst = instr.operands
                da = read_op(src, width, reads_iter)
                db = read_op(dst, width, reads_iter)
                if da == 0 and db == 0:
                    erase(_ALL5)
                else:
                    unknown((flg.ZF_BIT, flg.SF_BIT, flg.PF_BIT))
                    erase((flg.CF_BIT, flg.OF_BIT))
            elif kind is InstrKind.VECTEST:
                src1, src2 = instr.operands
                d1 = view_delta(src1.register)
                d2 = view_delta(src2.register)
                if d1 == 0 and d2 == 0:
                    erase(_ALL5)
                elif (d1 is not None and d1 == d2
                      and src1.register.root == src2.register.root):
                    # a & a == 0 iff a == 0: ZF follows the cmpz shape;
                    # CF = (a & ~a == 0) = 1 and PF/SF/OF = 0 in both runs.
                    fl[flg.ZF_BIT] = "cmpz"
                    erase((flg.CF_BIT, flg.PF_BIT, flg.SF_BIT, flg.OF_BIT))
                else:
                    unknown(_ALL5)
            elif kind is InstrKind.SHIFT:
                step_shift(instr, width, reads_iter, writes_iter)
            elif kind is InstrKind.UNARY:
                step_unary(instr, width, reads_iter, writes_iter)
            elif kind is InstrKind.SETCC:
                (dst,) = instr.operands
                cc = instr.spec.cc or ""
                bits = CC_READS[cc]
                states = [fl.get(b) for b in bits]
                if all(s is None for s in states):
                    write_op(dst, 0, 8, writes_iter)
                elif (cc in _XOR_LINEAR_CCS
                      and sum(1 for s in states if s == "flip") == 1
                      and all(s in (None, "flip") for s in states)):
                    write_op(dst, 1, 8, writes_iter)  # 0/1 always inverts
                else:
                    write_op(dst, None, 8, writes_iter)
            elif kind is InstrKind.JCC:
                return resolve_jcc(p, instr)
            elif kind is InstrKind.PUSH:
                if "rsp" in gpr:
                    raise _Bail
                (src,) = instr.operands
                dv = read_op(src, 64, reads_iter)
                addr, size = next(writes_iter)
                mem_write_delta(addr, size, dv)
            elif kind is InstrKind.POP:
                if "rsp" in gpr:
                    raise _Bail
                (dst,) = instr.operands
                addr, size = next(reads_iter)
                write_op(dst, mem_read_delta(addr, size), 64, writes_iter)
            elif kind is InstrKind.CALL:
                if "rsp" in gpr:
                    raise _Bail
                builtin = self._builtin_name[pcs[p]]
                if builtin is not None:
                    arg_roots = _BUILTIN_READS.get(builtin)
                    if arg_roots is None:
                        raise _Bail
                    if any(root in gpr for root in arg_roots):
                        raise _Bail
                    gpr.pop("rax", None)  # same return value in both runs
                else:
                    addr, size = next(writes_iter)
                    mem_write_delta(addr, size, 0)  # same return address
            elif kind is InstrKind.RET:
                if "rsp" in gpr:
                    raise _Bail
                addr, size = next(reads_iter)
                if mem_read_delta(addr, size) != 0:
                    raise _Bail  # corrupted return address
                if p == n - 1 and not trace.exited_via_builtin:
                    d = gpr.get("rax", 0)
                    if d is None:
                        raise _Bail
                    if d & _M32:
                        sdc.append(True)  # exit code provably differs
                        return True
            elif kind is InstrKind.IDIV:
                raise _Bail  # corrupted divisor/dividend can fault
            elif kind is InstrKind.CONVERT:
                d = gpr.get("rax", 0)
                if instr.mnemonic == "cltq":
                    if d is None:
                        gpr["rax"] = None
                    else:
                        d32 = d & _M32
                        new = d32 | (0xFFFF_FFFF_0000_0000 if d32 >> 31 else 0)
                        if new == 0:
                            gpr.pop("rax", None)
                        else:
                            gpr["rax"] = new
                else:  # cltd / cqto write rdx from rax's sign bit
                    if d is None:
                        gpr["rdx"] = None
                    else:
                        sign = (d >> 31) & 1 if instr.mnemonic == "cltd" else d >> 63
                        full = _M32 if instr.mnemonic == "cltd" else _M64
                        if sign:
                            gpr["rdx"] = full
                        else:
                            gpr.pop("rdx", None)
            elif kind is InstrKind.VECMOV:
                if instr.mnemonic in ("movq", "vmovq"):
                    return step_vec_movq(instr, reads_iter, writes_iter)
                if instr.mnemonic == "pinsrq":
                    imm, src, dst = instr.operands
                    dv = read_op(src, 64, reads_iter)
                    root = dst.register.root
                    old = vec.get(root, 0)
                    if old is None or dv is None:
                        vec[root] = None
                    else:
                        shift = imm.value * 64
                        low = (old & _M128 & ~(_M64 << shift)) | (dv << shift)
                        new = (old & ~_M128) | low
                        if new == 0:
                            vec.pop(root, None)
                        else:
                            vec[root] = new
                else:  # pextrq
                    imm, src, dst = instr.operands
                    d = vec.get(src.register.root, 0)
                    dv = None if d is None else (d >> (imm.value * 64)) & _M64
                    write_op(dst, dv, 64, writes_iter)
            elif kind is InstrKind.VECINSERT:
                imm, xmm_src, ymm_src, ymm_dst = instr.operands
                if isinstance(xmm_src, Mem):
                    require_clean_addr(xmm_src)
                    addr, size = next(reads_iter)
                    d_lane = mem_read_delta(addr, size)
                else:
                    d_lane = view_delta(xmm_src.register)
                d_base = vec.get(ymm_src.register.root, 0)
                root = ymm_dst.register.root
                if d_lane is None or d_base is None:
                    vec[root] = None
                else:
                    shift = imm.value * 128
                    new = (d_base & ~(_M128 << shift)) | ((d_lane & _M128) << shift)
                    if new == 0:
                        vec.pop(root, None)
                    else:
                        vec[root] = new
            elif kind is InstrKind.VECALU:  # vpxor
                src1, src2, dst = instr.operands
                da = vec.get(src1.register.root, 0)
                db = vec.get(src2.register.root, 0)
                root = dst.register.root
                if da is None or db is None:
                    vec[root] = None
                else:
                    new = da ^ db
                    if new == 0:
                        vec.pop(root, None)
                    else:
                        vec[root] = new
            # JMP / NOP touch nothing; fall through.
            return False

        def step_vec_movq(instr, reads_iter, writes_iter) -> bool:
            src, dst = instr.operands
            if isinstance(src, Reg) and src.register.kind is RegisterKind.VECTOR:
                d = vec.get(src.register.root, 0)
                dv = None if d is None else d & _M64
            else:
                dv = read_op(src, 64, reads_iter)
            if isinstance(dst, Reg) and dst.register.kind is RegisterKind.VECTOR:
                root = dst.register.root
                old = vec.get(root, 0)
                if old is None or dv is None:
                    vec[root] = None
                else:
                    # movq zeroes bits 64..127 in both runs; upper lane kept.
                    new = (old & ~_M128) | dv
                    if new == 0:
                        vec.pop(root, None)
                    else:
                        vec[root] = new
            else:
                write_op(dst, dv, 64, writes_iter)
            return False

        def step_shift(instr, width, reads_iter, writes_iter) -> None:
            src, dst = instr.operands
            if not isinstance(src, Imm):
                raise _Bail  # %cl count: dynamic count value unknown
            count = src.value & (63 if width == 64 else 31)
            dv = read_op(dst, width, reads_iter)
            if count == 0:
                return  # value and flags untouched
            if dv is None:
                write_op(dst, None, width, writes_iter)
                unknown((flg.CF_BIT, flg.ZF_BIT, flg.SF_BIT, flg.PF_BIT))
                erase((flg.OF_BIT,))
                return
            if dv == 0:
                write_op(dst, 0, width, writes_iter)
                erase(_ALL5)
                return
            mask = mask_for_width(width)
            op = instr.mnemonic[:3]
            if op == "shl":
                dr = (dv << count) & mask
                cf_bit = (dv >> (width - count)) & 1
            elif op == "shr":
                dr = dv >> count
                cf_bit = (dv >> (count - 1)) & 1
            else:  # sar: sign replication flips the filled bits too
                dr = dv >> count
                if (dv >> (width - 1)) & 1:
                    dr |= mask ^ (mask >> count)
                cf_bit = (dv >> (count - 1)) & 1
            write_op(dst, dr, width, writes_iter)
            result_flags(dr, width, cf_state="flip" if cf_bit else "clean")

        def step_unary(instr, width, reads_iter, writes_iter) -> None:
            (dst,) = instr.operands
            dv = read_op(dst, width, reads_iter)
            op = instr.mnemonic[:3]
            if op == "not":
                write_op(dst, dv, width, writes_iter)  # delta is preserved
                return
            if op == "neg":
                if dv == 0:
                    write_op(dst, 0, width, writes_iter)
                    erase(_ALL5)
                else:
                    write_op(dst, None, width, writes_iter)
                    unknown(_ALL5)
                return
            # inc/dec: CF is preserved (its corruption state carries over).
            if dv == 0:
                write_op(dst, 0, width, writes_iter)
                erase(_NON_CF)
            else:
                write_op(dst, None, width, writes_iter)
                unknown(_NON_CF)

        def dme_site_delta(p: int) -> str | None:
            """DME mode: judge the post-writeback destination delta of the
            site at trace position ``p`` (call only after ``step(p)``).

            The lockstep machine compares exactly these values against the
            fault-free reference, so an exact non-zero delta is a provable
            detection at this site and an exact zero is provably silent;
            anything uncertain abstains. FLAGS destinations (cmp/test)
            replace all five modeled bits, so the flag-state dict *is* the
            full rflags delta at that point: ``flip`` bits provably differ,
            ``cmpz``/``unk`` bits are unresolvable without golden flag
            values."""
            instr = code[pcs[p]]
            for dest in instr.dest_registers():
                if dest.kind is RegisterKind.FLAGS:
                    if not fl:
                        continue
                    if any(state == "flip" for state in fl.values()):
                        return "detect"
                    return "abstain"
                dv = view_delta(dest)
                if dv is None:
                    return "abstain"
                if dv:
                    return "detect"
            return None

        # ---- event loop ----

        def next_event(cursor: int) -> int | None:
            best: int | None = None
            for root in gpr:
                lst = reg_pos.get(root)
                if lst:
                    i = bisect_right(lst, cursor)
                    if i < len(lst) and (best is None or lst[i] < best):
                        best = lst[i]
            for root in vec:
                lst = reg_pos.get(root)
                if lst:
                    i = bisect_right(lst, cursor)
                    if i < len(lst) and (best is None or lst[i] < best):
                        best = lst[i]
            if fl:
                lst = flag_pos
                i = bisect_right(lst, cursor)
                if i < len(lst) and (best is None or lst[i] < best):
                    best = lst[i]
            for byte in mem:
                lst = mem_pos.get(byte)
                if lst:
                    i = bisect_right(lst, cursor)
                    if i < len(lst) and (best is None or lst[i] < best):
                        best = lst[i]
            return best

        events = 0
        cursor = pos
        try:
            while True:
                if not (gpr or vec or fl or mem):
                    return Verdict(Outcome.BENIGN, events=events)
                if len(gpr) + len(vec) + len(mem) > MAX_LOCATIONS:
                    return Verdict(None, events=events)
                p = next_event(cursor)
                if p is None:
                    # Corrupted state is never observed again: the remaining
                    # run (output, exit path) is bit-identical to golden.
                    return Verdict(Outcome.BENIGN, events=events)
                events += 1
                if events > MAX_EVENTS:
                    return Verdict(None, events=events)
                if step(p):
                    if detect_latency:
                        return Verdict(Outcome.DETECTED,
                                       latency=detect_latency[0],
                                       events=events)
                    if sdc:
                        if self._dme:
                            # The run completes on the golden path but with
                            # a different exit code: the lockstep machine
                            # detects at exit, after the remaining
                            # n - pos - 1 dynamic instructions.
                            return Verdict(Outcome.DETECTED,
                                           latency=n - pos - 1,
                                           events=events)
                        return Verdict(Outcome.SDC, events=events)
                    return Verdict(None, events=events)
                if self._dme and self._is_site[pcs[p]]:
                    judged = dme_site_delta(p)
                    if judged == "detect":
                        return Verdict(Outcome.DETECTED, latency=p - pos,
                                       events=events)
                    if judged == "abstain":
                        return Verdict(None, events=events)
                cursor = p
        except (_Bail, StopIteration):
            return Verdict(None, events=events)


def synthesize_record(
    run_index: int,
    plan,
    instr: Instruction,
    register,
    bit: int,
    verdict: Verdict,
) -> FaultRecord:
    """The :class:`FaultRecord` a real injection of ``plan`` would return
    (field-for-field identical to :func:`inject_asm_fault`'s)."""
    return FaultRecord(
        run_index=run_index,
        level="asm",
        site_index=plan.site_index,
        instruction=format_instruction(instr),
        mnemonic=instr.mnemonic,
        origin=normalize_origin(instr.origin),
        register=register.name,
        bit=bit,
        outcome=verdict.outcome,
        detection_latency=verdict.latency,
        instruction_uid=instr.uid,
    )


def analyze_plans(
    program: AsmProgram,
    plans,
    function: str = "main",
    args: tuple[int, ...] = (),
    analyzer: TraceAnalyzer | None = None,
) -> PruningAnalysis:
    """Partition ``plans`` (list of ``(run_index, FaultPlan)``) into
    synthesized results, representative plans to execute, and duplicate
    groups. See the module docstring for the soundness contract."""
    from repro.faultinjection.injector import _resolve_flip

    if analyzer is None:
        analyzer = TraceAnalyzer(program, function=function, args=args)
    analysis = PruningAnalysis()
    stats = analysis.stats
    stats.samples = len(plans)

    class_keys: set[tuple] = set()
    representative: dict[tuple, int] = {}

    for run_index, plan in plans:
        if plan.site_index >= len(analyzer.trace.site_pos):
            raise InjectionError(
                f"fault site {plan.site_index} outside golden population "
                f"({len(analyzer.trace.site_pos)} sites)"
            )
        instr = analyzer.site_instruction(plan.site_index)
        register, bit = _resolve_flip(instr, plan)
        verdict = analyzer.classify(plan.site_index, register, bit)
        stats.scan_events += verdict.events
        if verdict.outcome is not None:
            stats.classified += 1
            if verdict.static:
                stats.statically_masked += 1
            if verdict.outcome is Outcome.DETECTED:
                stats.detected += 1
            elif verdict.outcome is Outcome.BENIGN:
                stats.benign += 1
            else:
                stats.sdc += 1
            class_keys.add((instr.uid, register.name, bit,
                            verdict.outcome, verdict.latency))
            analysis.synthesized.append((run_index, synthesize_record(
                run_index, plan, instr, register, bit, verdict)))
            continue
        dup_key = (plan.site_index, register.name, bit)
        rep = representative.get(dup_key)
        if rep is None:
            representative[dup_key] = run_index
            analysis.to_execute.append((run_index, plan))
        else:
            analysis.duplicates.setdefault(rep, []).append(run_index)
            stats.duplicates_collapsed += 1
    stats.executed_injections = len(analysis.to_execute)
    stats.classes = len(class_keys) + len(analysis.to_execute)
    return analysis
