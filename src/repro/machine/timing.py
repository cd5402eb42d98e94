"""Restricted-dataflow timing model.

The paper's central performance claim is architectural: scalar duplication
competes with the original program for integer/branch resources, while
FERRUM's SIMD duplication flows into otherwise idle vector units and
amortizes one checker branch over four protected results. This model charges
exactly those costs and nothing else. It approximates a modern out-of-order
core as a dataflow machine with three restrictions:

* **fetch bandwidth** — at most ``fetch_width`` instructions enter the
  window per cycle, and a *taken* branch redirects fetch with a penalty
  (never-taken checker branches are effectively free in the front end);
* **execution ports** — each instruction occupies one unit of its port
  class (INT/VEC/LOAD/STORE/BRANCH) for one cycle; saturated ports delay
  issue. One branch unit means a checker branch *per protected instruction*
  (the hybrid baseline) serializes at one per cycle, while one per four
  (FERRUM) does not;
* **true dependencies** — an instruction issues only when its source
  registers and source memory bytes are ready. The model is driven online by
  the functional simulator, which supplies real effective addresses, so
  store→load dependencies through stack slots — the serialization that makes
  -O0 code latency-bound — are tracked exactly. Duplicates and lane captures
  are off the critical path and overlap with the original chain.

``cycles`` is the completion time of the last instruction observed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.operands import Reg
from repro.asm.registers import RegisterKind


class Port(enum.Enum):
    """Execution unit classes."""

    INT = "int"
    VEC = "vec"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


@dataclass(frozen=True)
class TimingConfig:
    """Microarchitectural parameters.

    Defaults model a modest out-of-order core: 4-wide fetch, a 48-entry
    reorder buffer with in-order retirement, one load and one store pipe,
    two scalar ALUs, one branch unit — and a two-wide vector domain that
    ordinary integer code leaves idle, which is exactly the resource
    FERRUM's duplication strategy exploits (paper Sec. I: "under-utilized
    resources such as SIMD capability").
    """

    fetch_width: int = 4
    rob_size: int = 48
    # Read-only: a config is a value. Left out of the hash (a mapping proxy
    # has none) but compared by ``==``, so equal configs hash equal.
    ports: Mapping[Port, int] = field(
        default_factory=lambda: {
            Port.INT: 2,
            Port.VEC: 2,
            Port.LOAD: 1,
            Port.STORE: 1,
            Port.BRANCH: 1,
        },
        hash=False,
    )
    latency_alu: int = 1
    latency_imul: int = 3
    latency_idiv: int = 20
    latency_load: int = 3
    latency_lea: int = 1
    latency_setcc: int = 1
    latency_vec_move: int = 1   # GPR/memory <-> vector lane insert
    latency_vec_alu: int = 1
    latency_vec_insert: int = 1
    taken_branch_penalty: int = 2

    def __post_init__(self) -> None:
        # Copy, so a caller's dict mutated later cannot reach the config.
        object.__setattr__(self, "ports", MappingProxyType(dict(self.ports)))


def port_of(instr: Instruction) -> Port:
    """Execution port class of an instruction."""
    kind = instr.kind
    if kind.is_vector or _touches_vector(instr):
        return Port.VEC
    if kind in (InstrKind.JMP, InstrKind.JCC, InstrKind.CALL, InstrKind.RET):
        return Port.BRANCH
    if kind is InstrKind.PUSH:
        return Port.STORE
    if kind is InstrKind.POP:
        return Port.LOAD
    if instr.writes_memory():
        return Port.STORE
    if instr.reads_memory() and kind in (InstrKind.MOV, InstrKind.MOVEXT):
        return Port.LOAD
    return Port.INT


def _touches_vector(instr: Instruction) -> bool:
    return any(
        isinstance(op, Reg) and op.register.kind is RegisterKind.VECTOR
        for op in instr.operands
    )


def latency_of(instr: Instruction, config: TimingConfig) -> int:
    """Result latency of an instruction under ``config``."""
    kind = instr.kind
    if kind is InstrKind.IDIV:
        return config.latency_idiv
    if kind is InstrKind.ALU and instr.mnemonic.startswith("imul"):
        return config.latency_imul
    if kind.is_vector or _touches_vector(instr):
        if kind in (InstrKind.VECALU, InstrKind.VECTEST):
            return config.latency_vec_alu
        if kind is InstrKind.VECINSERT:
            return config.latency_vec_insert
        return config.latency_vec_move
    if instr.reads_memory():
        return config.latency_load
    if kind is InstrKind.LEA:
        return config.latency_lea
    if kind is InstrKind.SETCC:
        return config.latency_setcc
    return config.latency_alu


class _Decoded(NamedTuple):
    """What the model needs of one static instruction under one model.

    Every field is a fixed function of the instruction and the config, so
    it is resolved once (:meth:`TimingModel._decode`) instead of per
    dynamic instance.
    """

    units: list[int]          # the model's free-cycle list for the port
    latency: int
    sources: tuple[str, ...]  # register roots waited on (flags included
                              # only for non-branch flag readers)
    dests: tuple[str, ...]    # register roots written, rflags/rsp folded in


_STACK_KINDS = (InstrKind.PUSH, InstrKind.POP, InstrKind.CALL, InstrKind.RET)


class TimingModel:
    """Online model: feed instructions in trace order, read ``cycles``.

    The static facts of an instruction (port, latency, register sources
    and destinations) are decoded on its first observation and kept per
    model, keyed by the instruction object; what stays per dynamic
    instance is the state they drive: memory granules, dependence
    readiness, port occupancy, fetch and reorder-buffer retirement.
    """

    def __init__(self, config: TimingConfig | None = None) -> None:
        self.config = config or TimingConfig()
        self._reg_ready: dict[str, int] = {}
        self._mem_ready: dict[int, int] = {}
        self._port_free: dict[Port, list[int]] = {
            port: [0] * count for port, count in self.config.ports.items()
        }
        self._decoded: dict[Instruction, _Decoded] = {}
        self._fetch_cycle = 0
        self._fetched_this_cycle = 0
        self._retire: list[int] = [0] * self.config.rob_size
        self._last_retire = 0
        self.cycles = 0
        self.instructions = 0

    def _decode(self, instr: Instruction) -> _Decoded:
        # read_registers() includes the address registers of memory operands.
        sources = [reg.root for reg in instr.read_registers()
                   if reg.root != "rflags"]
        # Non-branch flag readers (set<cc>) wait for the flags producer;
        # branches are predicted and do not wait.
        if instr.spec.reads_flags and instr.kind is not InstrKind.JCC:
            sources.append("rflags")
        dests = [reg.root for reg in instr.dest_registers()]
        if instr.spec.writes_flags:
            dests.append("rflags")
        if instr.kind in _STACK_KINDS:
            dests.append("rsp")
        return _Decoded(
            units=self._port_free[port_of(instr)],
            latency=latency_of(instr, self.config),
            sources=tuple(dict.fromkeys(sources)),
            dests=tuple(dict.fromkeys(dests)),
        )

    def observe(
        self,
        instr: Instruction,
        read_granules: list[int],
        write_granules: list[int],
        taken: bool,
    ) -> None:
        """Account one dynamically executed instruction."""
        decoded = self._decoded.get(instr)
        if decoded is None:
            decoded = self._decoded[instr] = self._decode(instr)
        units, latency, sources, dests = decoded
        config = self.config
        slot = self.instructions % config.rob_size

        # Fetch slot, bounded by fetch bandwidth and by reorder-buffer
        # capacity: the instruction ``rob_size`` positions older must have
        # retired. This is what makes sheer instruction volume cost real
        # time — redundant work is only free while it fits in the window.
        oldest = self._retire[slot]
        if oldest > self._fetch_cycle:
            self._fetch_cycle = oldest
            self._fetched_this_cycle = 0
        fetch = self._fetch_cycle
        self._fetched_this_cycle += 1
        if self._fetched_this_cycle >= config.fetch_width:
            self._fetch_cycle += 1
            self._fetched_this_cycle = 0

        # Issue once sources are ready, on the port unit free soonest
        # (the first such unit on a tie).
        reg_ready = self._reg_ready
        mem_ready = self._mem_ready
        earliest = fetch
        for root in sources:
            cycle = reg_ready.get(root, 0)
            if cycle > earliest:
                earliest = cycle
        for granule in read_granules:
            cycle = mem_ready.get(granule, 0)
            if cycle > earliest:
                earliest = cycle
        best = 0
        issue = units[0] if units[0] > earliest else earliest
        for index in range(1, len(units)):
            cycle = units[index] if units[index] > earliest else earliest
            if cycle < issue:
                best, issue = index, cycle
        units[best] = issue + 1
        done = issue + latency

        for root in dests:
            reg_ready[root] = done
        for granule in write_granules:
            mem_ready[granule] = done
        if taken:
            redirect = issue + 1 + config.taken_branch_penalty
            if redirect > self._fetch_cycle:
                self._fetch_cycle = redirect
                self._fetched_this_cycle = 0

        # In-order retirement: an instruction retires no earlier than its
        # completion and no earlier than its program-order predecessor.
        retired = done if done > self._last_retire else self._last_retire
        self._last_retire = retired
        self._retire[slot] = retired
        self.instructions += 1
        if done > self.cycles:
            self.cycles = done

    @staticmethod
    def granules(addr: int, size: int) -> list[int]:
        """8-byte dependence granules covering [addr, addr+size)."""
        first = addr >> 3
        last = (addr + max(size, 1) - 1) >> 3
        return list(range(first, last + 1))
