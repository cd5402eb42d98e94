"""IR interpreter with IR-level fault injection.

Two roles:

* **differential oracle** — the backend is tested by checking that compiled
  programs produce the same output as direct IR execution;
* **IR-level fault injection** — the cross-layer gap experiment
  (paper Sec. I: "28% gap between anticipated and measured coverage")
  measures IR-EDDI's coverage with faults injected into IR instruction
  results, the way LLFI does, and contrasts it with assembly-level
  injection on the compiled binary.

The interpreter reuses the machine's memory/builtin behaviour (same bump
allocator, same LCG) so raw outputs agree between layers.

Like the machine's fused engine (:mod:`repro.machine.translate`), the
interpreter pre-binds per instruction instead of re-resolving per dynamic
step: each block lazily compiles into a list of step entries with constants
folded, operand slots and successor blocks pre-resolved, opcode dispatch
reduced to a precompiled closure, and builtin calls bound to their handler.
Compilation is cached per block, so the cost is paid once per static
instruction regardless of trip counts.

Calls run over an explicit frame stack rather than Python recursion, so the
complete execution state is a plain data structure: :meth:`IRInterpreter.
run_to_site` captures it as an :class:`IRSnapshot` and :meth:`IRInterpreter.
run` resumes from one — the same checkpoint/restore protocol the
:class:`repro.machine.cpu.Machine` offers, used by ``run_ir_campaign`` to
share the golden prefix across sampled faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    DetectionExit,
    ExecutionLimitExceeded,
    IRInterpError,
    MachineFault,
)
from repro.ir.instructions import (
    Alloca, BinOp, Br, Call, Cast, Check, ICmp, IRInstruction, Jump, Load,
    PtrAdd, Ret, Store,
)
from repro.ir.module import IRFunction, IRModule
from repro.ir.types import IntType, PointerType
from repro.ir.values import Constant, Value
from repro.machine.memory import Memory, MemoryLayout, MemorySnapshot
from repro.utils.bitops import flip_bit, to_signed, to_unsigned, trunc_div

#: Hook invoked after each value-producing dynamic instruction:
#: (interpreter, instruction, site_ordinal) -> replacement value or None.
IRFaultHook = Callable[["IRInterpreter", IRInstruction, int], None]

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class IRRunResult:
    """Outcome of one complete IR execution."""

    exit_code: int
    output: tuple[str, ...]
    dynamic_instructions: int
    fault_sites: int

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)


class _Frame:
    __slots__ = ("func", "values", "stack_base", "block", "index", "call_site")

    def __init__(self, func: IRFunction, stack_base: int,
                 call_site: Call | None) -> None:
        self.func = func
        self.values: dict[Value, int] = {}
        self.stack_base = stack_base
        self.block = func.entry
        self.index = 0
        self.call_site = call_site


@dataclass(frozen=True)
class _FrameSnapshot:
    func: IRFunction
    values: dict[Value, int]
    stack_base: int
    block: object
    index: int
    call_site: Call | None


@dataclass(frozen=True)
class IRSnapshot:
    """Deep copy of the interpreter's complete execution state.

    Captured at an instruction boundary, cumulative counters included, so a
    restored run is bit-identical to one that executed straight through.
    Frame values are plain ints keyed by the module's (immutable) IR value
    objects; restoring requires the same :class:`IRModule` the snapshot was
    taken against.
    """

    frames: tuple[_FrameSnapshot, ...]
    memory: MemorySnapshot
    output: tuple[str, ...]
    heap_cursor: int
    lcg_state: int
    stack_cursor: int
    executed: int
    sites: int
    exit_requested: bool
    exit_code: int


def _width_of(value: Value) -> int:
    if isinstance(value.type, IntType):
        return max(value.type.bits, 1)
    return 64  # pointers


class IRInterpreter:
    """Executes an :class:`IRModule` directly."""

    def __init__(
        self,
        module: IRModule,
        layout: MemoryLayout | None = None,
        max_instructions: int = 50_000_000,
    ) -> None:
        self.module = module
        self.layout = layout or MemoryLayout()
        self.max_instructions = max_instructions
        self.memory = Memory(self.layout)
        self.output: list[str] = []
        self.heap_cursor = self.layout.heap_base
        self.lcg_state = 0x1234_5678
        self._stack_cursor = self.layout.stack_top - 16
        self._executed = 0
        self._sites = 0
        self._fault_hook: IRFaultHook | None = None
        self._fault_at = -1
        self._exit_requested = False
        self._exit_code = 0
        self._frames: list[_Frame] = []
        self._root_result = 0
        # Per-block compiled step lists (see _steps_for), keyed by block id;
        # blocks are owned by the module, which the interpreter holds, so
        # the ids are stable for the interpreter's lifetime.
        self._block_steps: dict[int, list[tuple]] = {}

    # -- public API ----------------------------------------------------------

    def run(
        self,
        function: str = "main",
        args: tuple[int, ...] = (),
        fault_hook: IRFaultHook | None = None,
        fault_at: int | None = None,
        resume_from: IRSnapshot | None = None,
        max_instructions: int | None = None,
    ) -> IRRunResult:
        """Execute ``function(*args)`` and return the run outcome.

        ``fault_at`` restricts hook delivery to one site ordinal (skipping
        the per-site Python call everywhere else); ``resume_from`` continues
        from an :class:`IRSnapshot` instead of entry (``function``/``args``
        are then ignored), with counters resuming cumulatively.
        ``max_instructions`` overrides the interpreter-wide budget for this
        run only — injection timeouts use it so a shared interpreter is
        never mutated.
        """
        if resume_from is not None:
            self._restore(resume_from)
        else:
            self._begin(function, args)
        self._fault_hook = fault_hook
        self._fault_at = -1 if fault_at is None else fault_at

        self._run_loop(None, budget=max_instructions)
        if not self._exit_requested:
            self._exit_code = to_signed(self._root_result, 32)
        return IRRunResult(
            exit_code=self._exit_code,
            output=tuple(self.output),
            dynamic_instructions=self._executed,
            fault_sites=self._sites,
        )

    def run_to_site(
        self,
        target_site: int,
        function: str = "main",
        args: tuple[int, ...] = (),
        resume_from: IRSnapshot | None = None,
    ) -> IRSnapshot:
        """Execute fault-free up to site ``target_site`` and snapshot there.

        Stops at the first instruction boundary where ``target_site`` sites
        have completed; chaining calls through ``resume_from`` executes the
        shared prefix exactly once overall.
        """
        if resume_from is not None:
            if resume_from.sites > target_site:
                raise IRInterpError(
                    f"cannot run backwards: snapshot is at site "
                    f"{resume_from.sites}, target is {target_site}"
                )
            self._restore(resume_from)
        else:
            self._begin(function, args)
        self._fault_hook = None
        self._fault_at = -1
        stopped = self._run_loop(target_site)
        if not stopped:
            raise IRInterpError(
                f"program ended after {self._sites} fault sites, "
                f"before reaching site {target_site}"
            )
        return self._snapshot()

    @property
    def executed(self) -> int:
        """Dynamic IR instructions executed so far in the current run.

        Read by fault hooks (flip time) and by injectors after a
        :class:`DetectionExit` (detection time); the difference is the
        detection latency in dynamic IR instructions.
        """
        return self._executed

    @property
    def current_values(self) -> dict[Value, int]:
        """Value environment of the innermost active frame (for fault hooks)."""
        return self._frames[-1].values

    def flip_value(self, instr: IRInstruction, bit: int) -> None:
        """Flip one bit of an instruction's just-computed result (fault)."""
        width = _width_of(instr)
        values = self.current_values
        values[instr] = flip_bit(values[instr], bit, width)

    # -- checkpoint/restore ------------------------------------------------

    def _snapshot(self) -> IRSnapshot:
        return IRSnapshot(
            frames=tuple(
                _FrameSnapshot(
                    func=frame.func,
                    values=dict(frame.values),
                    stack_base=frame.stack_base,
                    block=frame.block,
                    index=frame.index,
                    call_site=frame.call_site,
                )
                for frame in self._frames
            ),
            memory=self.memory.snapshot(),
            output=tuple(self.output),
            heap_cursor=self.heap_cursor,
            lcg_state=self.lcg_state,
            stack_cursor=self._stack_cursor,
            executed=self._executed,
            sites=self._sites,
            exit_requested=self._exit_requested,
            exit_code=self._exit_code,
        )

    def _restore(self, snap: IRSnapshot) -> None:
        self._frames = []
        for shot in snap.frames:
            frame = _Frame(shot.func, shot.stack_base, shot.call_site)
            frame.values = dict(shot.values)
            frame.block = shot.block
            frame.index = shot.index
            self._frames.append(frame)
        self.memory.restore(snap.memory)
        self.output = list(snap.output)
        self.heap_cursor = snap.heap_cursor
        self.lcg_state = snap.lcg_state
        self._stack_cursor = snap.stack_cursor
        self._executed = snap.executed
        self._sites = snap.sites
        self._exit_requested = snap.exit_requested
        self._exit_code = snap.exit_code
        self._root_result = 0

    # -- execution internals ---------------------------------------------

    def _begin(self, function: str, args: tuple[int, ...]) -> None:
        # In place (O(working set)): compiled block steps capture the memory
        # accessors once, so the object's identity must survive resets.
        self.memory.reset()
        self.output = []
        self.heap_cursor = self.layout.heap_base
        self.lcg_state = 0x1234_5678
        self._stack_cursor = self.layout.stack_top - 16
        self._executed = 0
        self._sites = 0
        self._exit_requested = False
        self._exit_code = 0
        self._frames = []
        self._root_result = 0
        self._push_frame(self.module.function(function), tuple(args), None)

    def _push_frame(self, func: IRFunction, args: tuple[int, ...],
                    call_site: Call | None) -> None:
        if len(args) != len(func.args):
            raise IRInterpError(
                f"{func.name} expects {len(func.args)} args, got {len(args)}"
            )
        frame = _Frame(func, self._stack_cursor, call_site)
        for formal, actual in zip(func.args, args):
            frame.values[formal] = to_unsigned(actual, 64)
        self._frames.append(frame)

    def _pop_frame(self, result: int) -> None:
        """Return ``result`` to the caller, mirroring the call protocol.

        The pending ``call`` in the parent frame receives its value *and its
        fault-site ordinal* now — a call instruction's site follows all of
        its callee's sites, because its result materializes at return.
        """
        frame = self._frames.pop()
        self._stack_cursor = frame.stack_base
        call = frame.call_site
        if call is None:
            self._root_result = result
            return
        parent = self._frames[-1]
        parent.values[call] = result
        if call.has_result:
            if self._fault_hook is not None and (
                self._fault_at < 0 or self._sites == self._fault_at
            ):
                self._fault_hook(self, call, self._sites)
            self._sites += 1
        parent.index += 1

    def _run_loop(self, stop_at_site: int | None,
                  budget: int | None = None) -> bool:
        """Drive the frame stack; returns True iff ``stop_at_site`` was hit.

        When an ``exit`` is requested the stack unwinds one frame per
        iteration, every pending call resolving to 0 and receiving its site
        ordinal — exactly the order the recursive formulation produced.
        ``budget`` caps this run's dynamic instructions; None falls back to
        the interpreter-wide ``max_instructions``.
        """
        frames = self._frames
        limit = budget if budget is not None else self.max_instructions
        block_steps = self._block_steps
        while True:
            if stop_at_site is not None and self._sites >= stop_at_site:
                return True
            if not frames:
                return False
            frame = frames[-1]
            if self._exit_requested:
                self._pop_frame(0)
                continue
            block = frame.block
            index = frame.index
            steps = block_steps.get(id(block))
            if steps is None:
                steps = [
                    self._compile_instr(instr, frame.func)
                    for instr in block.instructions
                ]
                block_steps[id(block)] = steps
            if index >= len(steps):
                raise IRInterpError(f"fell off block {block.label}")
            if self._executed >= limit:
                raise ExecutionLimitExceeded(
                    f"exceeded {limit} IR instructions"
                )
            kind, payload, instr, has_result = steps[index]
            self._executed += 1

            if kind == _K_EXEC:
                payload(frame)
                if has_result:
                    if self._fault_hook is not None and (
                        self._fault_at < 0 or self._sites == self._fault_at
                    ):
                        self._fault_hook(self, instr, self._sites)
                    self._sites += 1
                frame.index = index + 1
            elif kind == _K_BR:
                cond_get, then_block, else_block = payload
                frame.block = then_block if cond_get(frame) & 1 else else_block
                frame.index = 0
            elif kind == _K_JUMP:
                frame.block = payload
                frame.index = 0
            elif kind == _K_RET:
                self._pop_frame(payload(frame) if payload is not None else 0)
            else:  # _K_CALLFN
                func, arg_gets = payload
                args = tuple(get(frame) for get in arg_gets)
                self._push_frame(func, args, instr)

    # -- per-instruction compilation ---------------------------------------
    #
    # Each IR instruction compiles once into a (kind, payload, instr,
    # has_result) step entry: operand slots become pre-bound getters
    # (constants folded to ints), successor blocks and callee functions are
    # resolved ahead of time, and opcode dispatch is a closure built here
    # rather than an isinstance chain walked per dynamic instruction.

    @staticmethod
    def _getter(value: Value):
        """Pre-bound operand accessor matching the old ``_value`` semantics."""
        if isinstance(value, Constant):
            const = to_unsigned(value.value, _width_of(value))
            return lambda frame: const

        def get(frame: _Frame) -> int:
            try:
                return frame.values[value]
            except KeyError:
                raise IRInterpError(
                    f"use of undefined value %{value.name}"
                ) from None
        return get

    def _compile_instr(self, instr: IRInstruction, func: IRFunction) -> tuple:
        if isinstance(instr, Ret):
            getter = self._getter(instr.value) if instr.value else None
            return (_K_RET, getter, instr, False)
        if isinstance(instr, Jump):
            try:
                target = func.block(instr.target)
            except Exception:
                return (_K_EXEC, self._raiser(instr, func), instr, False)
            return (_K_JUMP, target, instr, False)
        if isinstance(instr, Br):
            try:
                then_block = func.block(instr.then_label)
                else_block = func.block(instr.else_label)
            except Exception:
                return (_K_EXEC, self._raiser(instr, func), instr, False)
            payload = (self._getter(instr.cond), then_block, else_block)
            return (_K_BR, payload, instr, False)
        if isinstance(instr, Call) and self.module.has_function(instr.callee):
            callee = self.module.function(instr.callee)
            arg_gets = tuple(self._getter(a) for a in instr.args)
            return (_K_CALLFN, (callee, arg_gets), instr, False)
        return (_K_EXEC, self._compile_exec(instr), instr, instr.has_result)

    @staticmethod
    def _raiser(instr, func: IRFunction):
        """Defer an unresolvable branch target to execution time, matching
        the error the uncompiled interpreter raised mid-run."""
        def do(frame: _Frame) -> None:
            if isinstance(instr, Br):
                func.block(instr.then_label)
                func.block(instr.else_label)
            else:
                func.block(instr.target)
        return do

    def _compile_exec(self, instr: IRInstruction):
        """Closure performing one non-control instruction's effect."""
        if isinstance(instr, Alloca):
            size16 = (instr.allocated.size_bytes * instr.count + 15) & ~15
            stack_floor = self.layout.stack_base

            def do(frame: _Frame) -> None:
                self._stack_cursor -= size16
                if self._stack_cursor < stack_floor:
                    raise MachineFault("IR stack overflow")
                frame.values[instr] = self._stack_cursor
            return do
        if isinstance(instr, Load):
            ptr_get = self._getter(instr.pointer)
            size = instr.type.size_bytes
            read_uint = self.memory.read_uint

            def do(frame: _Frame) -> None:
                frame.values[instr] = read_uint(ptr_get(frame), size)
            return do
        if isinstance(instr, Store):
            ptr_get = self._getter(instr.pointer)
            val_get = self._getter(instr.value)
            size = instr.value.type.size_bytes
            write_uint = self.memory.write_uint

            def do(frame: _Frame) -> None:
                addr = ptr_get(frame)  # pointer resolves before the value
                write_uint(addr, val_get(frame), size)
            return do
        if isinstance(instr, BinOp):
            return self._compile_binop(instr)
        if isinstance(instr, ICmp):
            return self._compile_icmp(instr)
        if isinstance(instr, Cast):
            return self._compile_cast(instr)
        if isinstance(instr, PtrAdd):
            base_get = self._getter(instr.base)
            index_get = self._getter(instr.index)
            index_width = _width_of(instr.index)
            index_sign = 1 << (index_width - 1)
            index_modulus = 1 << index_width
            ptr_type = instr.base.type
            stride = (
                ptr_type.element_size
                if isinstance(ptr_type, PointerType) else 1
            )
            m64 = (1 << 64) - 1

            def do(frame: _Frame) -> None:
                index = index_get(frame)
                if index & index_sign:
                    index -= index_modulus
                frame.values[instr] = (base_get(frame) + index * stride) & m64
            return do
        if isinstance(instr, Call):
            return self._compile_builtin(instr)
        if isinstance(instr, Check):
            orig_get = self._getter(instr.original)
            dup_get = self._getter(instr.duplicate)

            def do(frame: _Frame) -> None:
                if orig_get(frame) != dup_get(frame):
                    raise DetectionExit(
                        "IR-level EDDI checker reported a mismatch"
                    )
            return do

        def do(frame: _Frame) -> None:
            raise IRInterpError(f"cannot interpret {instr.opcode}")
        return do

    def _compile_binop(self, instr: BinOp):
        width = _width_of(instr)
        mask = (1 << width) - 1
        sign = 1 << (width - 1)
        modulus = 1 << width
        shift_mask = width - 1
        lhs_get = self._getter(instr.lhs)
        rhs_get = self._getter(instr.rhs)
        op = instr.op

        def signed(v: int) -> int:
            return v - modulus if v & sign else v

        if op == "add":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (lhs_get(frame) + rhs_get(frame)) & mask
        elif op == "sub":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (lhs_get(frame) - rhs_get(frame)) & mask
        elif op == "mul":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (
                    signed(lhs_get(frame)) * signed(rhs_get(frame))
                ) & mask
        elif op == "sdiv":
            def do(frame: _Frame) -> None:
                sa, sb = signed(lhs_get(frame)), signed(rhs_get(frame))
                if sb == 0:
                    raise MachineFault("IR division by zero")
                frame.values[instr] = trunc_div(sa, sb) & mask
        elif op == "srem":
            def do(frame: _Frame) -> None:
                sa, sb = signed(lhs_get(frame)), signed(rhs_get(frame))
                if sb == 0:
                    raise MachineFault("IR remainder by zero")
                frame.values[instr] = (sa - trunc_div(sa, sb) * sb) & mask
        elif op == "and":
            def do(frame: _Frame) -> None:
                frame.values[instr] = lhs_get(frame) & rhs_get(frame)
        elif op == "or":
            def do(frame: _Frame) -> None:
                frame.values[instr] = lhs_get(frame) | rhs_get(frame)
        elif op == "xor":
            def do(frame: _Frame) -> None:
                frame.values[instr] = lhs_get(frame) ^ rhs_get(frame)
        elif op == "shl":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (
                    lhs_get(frame) << (rhs_get(frame) & shift_mask)
                ) & mask
        elif op == "ashr":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (
                    signed(lhs_get(frame)) >> (rhs_get(frame) & shift_mask)
                ) & mask
        elif op == "lshr":
            def do(frame: _Frame) -> None:
                frame.values[instr] = lhs_get(frame) >> (
                    rhs_get(frame) & shift_mask
                )
        else:
            def do(frame: _Frame) -> None:
                raise IRInterpError(f"unknown binop {op}")
        return do

    def _compile_icmp(self, instr: ICmp):
        width = _width_of(instr.lhs)
        sign = 1 << (width - 1)
        modulus = 1 << width
        lhs_get = self._getter(instr.lhs)
        rhs_get = self._getter(instr.rhs)
        pred = instr.pred

        def signed(v: int) -> int:
            return v - modulus if v & sign else v

        if pred == "eq":
            def do(frame: _Frame) -> None:
                frame.values[instr] = 1 if lhs_get(frame) == rhs_get(frame) else 0
        elif pred == "ne":
            def do(frame: _Frame) -> None:
                frame.values[instr] = 1 if lhs_get(frame) != rhs_get(frame) else 0
        elif pred == "slt":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (
                    1 if signed(lhs_get(frame)) < signed(rhs_get(frame)) else 0
                )
        elif pred == "sle":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (
                    1 if signed(lhs_get(frame)) <= signed(rhs_get(frame)) else 0
                )
        elif pred == "sgt":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (
                    1 if signed(lhs_get(frame)) > signed(rhs_get(frame)) else 0
                )
        elif pred == "sge":
            def do(frame: _Frame) -> None:
                frame.values[instr] = (
                    1 if signed(lhs_get(frame)) >= signed(rhs_get(frame)) else 0
                )
        else:
            def do(frame: _Frame) -> None:
                raise KeyError(pred)  # matches the old dict-dispatch error
        return do

    def _compile_cast(self, instr: Cast):
        value_get = self._getter(instr.value)
        from_width = _width_of(instr.value)
        to_width = _width_of(instr)
        if instr.op == "trunc":
            mask = (1 << to_width) - 1

            def do(frame: _Frame) -> None:
                frame.values[instr] = value_get(frame) & mask
        elif instr.op == "zext":
            # Bit-compatible with the reference: zext masks at the *source*
            # width (operands are already bounded, so this is the identity).
            mask = (1 << from_width) - 1

            def do(frame: _Frame) -> None:
                frame.values[instr] = value_get(frame) & mask
        else:  # sext
            sign = 1 << (from_width - 1)
            from_modulus = 1 << from_width
            mask = (1 << to_width) - 1

            def do(frame: _Frame) -> None:
                v = value_get(frame)
                if v & sign:
                    v -= from_modulus
                frame.values[instr] = v & mask
        return do

    def _compile_builtin(self, call: Call):
        arg_gets = tuple(self._getter(a) for a in call.args)
        name = call.callee
        layout = self.layout
        heap_end = layout.heap_base + layout.heap_size

        def args_of(frame: _Frame) -> tuple[int, ...]:
            return tuple(get(frame) for get in arg_gets)

        if name == "malloc":
            def do(frame: _Frame) -> None:
                aligned = (args_of(frame)[0] + 15) & ~15
                if self.heap_cursor + aligned > heap_end:
                    raise MachineFault("IR heap exhausted")
                frame.values[call] = self.heap_cursor
                self.heap_cursor += max(aligned, 16)
        elif name == "free":
            def do(frame: _Frame) -> None:
                args_of(frame)
                frame.values[call] = 0
        elif name == "print_int":
            def do(frame: _Frame) -> None:
                self.output.append(str(to_signed(args_of(frame)[0], 32)))
                frame.values[call] = 0
        elif name == "print_long":
            def do(frame: _Frame) -> None:
                self.output.append(str(to_signed(args_of(frame)[0], 64)))
                frame.values[call] = 0
        elif name == "srand":
            def do(frame: _Frame) -> None:
                self.lcg_state = args_of(frame)[0] & _LCG_MASK
                frame.values[call] = 0
        elif name == "rand_next":
            def do(frame: _Frame) -> None:
                args_of(frame)
                self.lcg_state = (
                    self.lcg_state * _LCG_MULT + _LCG_INC
                ) & _LCG_MASK
                frame.values[call] = (self.lcg_state >> 33) & 0x7FFF_FFFF
        elif name == "exit":
            def do(frame: _Frame) -> None:
                self._exit_requested = True
                self._exit_code = to_signed(args_of(frame)[0], 32)
                frame.values[call] = 0
        elif name == "__eddi_detect":
            def do(frame: _Frame) -> None:
                args_of(frame)
                raise DetectionExit("IR-level EDDI checker reported a mismatch")
        else:
            def do(frame: _Frame) -> None:
                args_of(frame)  # argument faults surface first, as before
                raise IRInterpError(f"call to unknown function {name!r}")
        return do


#: Step-entry kinds produced by ``IRInterpreter._compile_instr``.
_K_EXEC = 0
_K_JUMP = 1
_K_BR = 2
_K_RET = 3
_K_CALLFN = 4
