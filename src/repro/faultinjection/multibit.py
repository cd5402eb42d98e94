"""Multi-bit fault injection — the paper's stated future work (Sec. II-A).

The paper: "There are recent studies showing that multiple bit-flips are
limited in current systems but may become a concern in the future [...]
Exploring multiple bit-flips are our future work." This module implements
that exploration on the same substrate:

* **spatial** double faults — two bits flip in the destination register of
  the *same* dynamic instruction (one particle strike corrupting a wider
  datapath slice);
* **temporal** double faults — two independent single-bit faults at two
  different dynamic instructions within one run (two strikes).

Duplication-based protection is provably complete only for the single-
fault model; under double faults a strike pair that corrupts the original
and its duplicate identically escapes every EDDI checker. Campaigns here
quantify how rare that is in practice for FERRUM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import AsmProgram
from repro.errors import (
    DetectionExit,
    ExecutionLimitExceeded,
    InjectionError,
    MachineError,
    MachineFault,
)
from repro.asm.registers import Register, RegisterKind
from repro.faultinjection.campaign import CampaignResult
from repro.faultinjection.injector import FaultPlan, _apply_flip, _resolve_flip
from repro.faultinjection.outcome import Outcome
from repro.machine.cpu import Machine, RunResult
from repro.machine.flags import INJECTABLE_FLAG_BITS
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class MultiBitPlan:
    """Two single-bit events; ``spatial`` pins both to one instruction."""

    first: FaultPlan
    second: FaultPlan

    @property
    def spatial(self) -> bool:
        return self.first.site_index == self.second.site_index

    @staticmethod
    def sample_spatial(rng: DeterministicRng, fault_sites: int) -> "MultiBitPlan":
        """Two distinct bits in the destination of one dynamic instruction.

        The two bit picks are independent uniform floats that only resolve
        to concrete bit indices at the site (where the destination width is
        known), so distinctness cannot be guaranteed here; the injector
        enforces it at apply time (see :func:`_distinct_bit`). Without that
        enforcement ~1/width of "double" faults would collapse into two
        flips of the same bit — a no-op run misreported as BENIGN.
        """
        if fault_sites <= 0:
            raise InjectionError("program has no fault sites")
        site = rng.randint(0, fault_sites - 1)
        first_bit = rng.random()
        second_bit = rng.random()
        register = rng.random()
        return MultiBitPlan(
            FaultPlan(site, register, first_bit),
            FaultPlan(site, register, second_bit),
        )

    @staticmethod
    def sample_temporal(rng: DeterministicRng, fault_sites: int) -> "MultiBitPlan":
        """Two independent strikes at two dynamic instructions."""
        if fault_sites <= 0:
            raise InjectionError("program has no fault sites")
        return MultiBitPlan(
            FaultPlan.sample(rng, fault_sites),
            FaultPlan.sample(rng, fault_sites),
        )


def _distinct_bit(register: Register, bit: int) -> int:
    """The next injectable bit after ``bit`` in ``register`` (wrapping).

    Used when a spatial plan's two uniform picks resolve to the same bit:
    flipping one bit twice is a no-op, not a double fault, so the second
    strike moves to the adjacent bit — deterministic, so plans stay
    reproducible.
    """
    if register.kind is RegisterKind.FLAGS:
        bits = INJECTABLE_FLAG_BITS
        return bits[(bits.index(bit) + 1) % len(bits)]
    return (bit + 1) % register.width


def inject_multibit_fault(
    program: AsmProgram,
    plan: MultiBitPlan,
    golden: RunResult,
    function: str = "main",
    args: tuple[int, ...] = (),
    timeout_factor: int = 6,
    machine: Machine | None = None,
) -> Outcome:
    """Run once with both of ``plan``'s faults; classify the outcome.

    Spatial plans always flip two *distinct* bits (see :func:`_distinct_bit`).
    A normally completed run whose earliest fault site never executed means
    the plan was sampled outside the program's dynamic site population —
    that raises :class:`InjectionError` instead of silently classifying
    (mirroring :func:`inject_asm_fault`). The *later* site of a temporal
    plan is exempt: the first flip may legitimately divert control flow so
    the second strike's moment never arrives.
    """
    if machine is None:
        machine = Machine(program)
    fired = [False, False]
    first_hit: list = []

    def hook(m: Machine, instr, site: int) -> None:
        if site == plan.first.site_index:
            register, bit = _apply_flip(m, instr, plan.first)
            first_hit[:] = [register, bit]
            fired[0] = True
        if site == plan.second.site_index:
            register, bit = _resolve_flip(instr, plan.second)
            if (site == plan.first.site_index and fired[0]
                    and [register, bit] == first_hit):
                bit = _distinct_bit(register, bit)
            m.registers.flip(register, bit)
            fired[1] = True

    budget = max(golden.dynamic_instructions * timeout_factor, 10_000)
    try:
        result = machine.run(function=function, args=args, fault_hook=hook,
                             max_instructions=budget)
    except DetectionExit:
        return Outcome.DETECTED
    except ExecutionLimitExceeded:
        return Outcome.TIMEOUT
    except (MachineFault, MachineError):
        return Outcome.CRASH
    earliest_fired = (fired[0]
                      if plan.first.site_index <= plan.second.site_index
                      else fired[1])
    if not earliest_fired:
        raise InjectionError(
            f"fault site {min(plan.first.site_index, plan.second.site_index)} "
            f"never executed (golden counted {golden.fault_sites})"
        )
    if result.output == golden.output and result.exit_code == golden.exit_code:
        return Outcome.BENIGN
    return Outcome.SDC


def run_multibit_campaign(
    program: AsmProgram,
    samples: int,
    seed: int = 0,
    mode: str = "spatial",
    function: str = "main",
    args: tuple[int, ...] = (),
) -> CampaignResult:
    """A seeded campaign of double faults (``mode``: spatial | temporal).

    The golden pass and every injection run on one :class:`Machine`. The
    result holds outcome counts only: a plan is two flips, which one
    :class:`~repro.faultinjection.telemetry.FaultRecord` cannot describe.
    """
    if mode not in ("spatial", "temporal"):
        raise InjectionError(f"unknown multi-bit mode {mode!r}")
    machine = Machine(program)
    golden = machine.run(function=function, args=args)
    result = CampaignResult(
        samples=samples,
        fault_sites=golden.fault_sites,
        dynamic_instructions=golden.dynamic_instructions,
    )
    rng = DeterministicRng(seed)
    sampler = (MultiBitPlan.sample_spatial if mode == "spatial"
               else MultiBitPlan.sample_temporal)
    for run_index in range(samples):
        plan = sampler(rng.fork(run_index), golden.fault_sites)
        outcome = inject_multibit_fault(program, plan, golden,
                                        function=function, args=args,
                                        machine=machine)
        result.outcomes.record(outcome)
    return result
