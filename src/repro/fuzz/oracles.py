"""Composable differential oracles over one generated program.

Each oracle checks one layer of the paper's claim chain:

* ``cross-layer`` — the compiled raw binary and the :class:`IRInterpreter`
  agree on output and exit code (backend preserves IR semantics);
* ``variant-agreement`` — every protected variant behaves exactly like the
  raw program on a fault-free run (transforms preserve semantics);
* ``static-discipline`` — every variant's IR verifies and its assembly
  validates; hybrid/ferrum additionally satisfy the protection invariants
  of :mod:`repro.core.validate`;
* ``fault-soundness`` — a bounded, saturating single-bit injection sweep
  (deterministic site stride, fixed register/bit picks, checkpoint-style
  prefix sharing via :meth:`Machine.run_to_site`) finds no SDC in the
  hybrid/ferrum variants — the paper's coverage claim, sampled;
* ``engine-agreement`` — the fused machine engine and the reference
  handler loop agree on every variant's fault-free run; on hybrid/ferrum
  they also agree on the register state at every fault site and on a
  few strided single-bit flips (outcome, message and halt counters);
* ``dme-divergence`` — the DME variant pair must be observably identical
  on a fault-free run: any lockstep disagreement between the primary and
  its structurally decorrelated twin on a generated program is a
  compiler/decorrelation bug (the zero-false-positive property of
  :mod:`repro.core.dme`).

Oracles share one :class:`Subject` so the variants are built and the
golden runs executed exactly once per program. All verdicts are
deterministic functions of the source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import FerrumConfig
from repro.core.validate import check_protection_invariants
from repro.errors import (
    DetectionExit,
    DmeDivergenceError,
    ExecutionLimitExceeded,
    MachineError,
    MachineFault,
    ReproError,
)
from repro.faultinjection.dme import lockstep_reference
from repro.faultinjection.injector import FaultPlan, inject_asm_fault
from repro.faultinjection.outcome import Outcome
from repro.ir.interp import IRInterpreter
from repro.ir.verifier import verify_module
from repro.machine.cpu import ENGINES, Machine
from repro.pipeline import VARIANTS, BuildResult, build_variants

#: Instruction budget for oracle executions. Generated programs run a few
#: thousand dynamic instructions; anything near this bound is a hang.
EXECUTION_BUDGET = 2_000_000

#: Deterministic (register_pick, bit_pick) pairs for the soundness sweep.
SOUNDNESS_PICKS = ((0.0, 0.03), (0.5, 0.55), (0.9, 0.9))

#: Cap on distinct dynamic sites the soundness sweep injects at.
SOUNDNESS_SITE_BUDGET = 24

#: Strided flip sites the engine-agreement oracle runs on both engines.
ENGINE_FLIP_SITES = 6


@dataclass(frozen=True)
class ExecOutcome:
    """One execution, normalized across layers for comparison.

    ``status`` is ``"ok"``, ``"detected"`` (a checker fired), ``"crash"``
    (architectural fault) or ``"hang"`` (budget exhausted); ``output`` and
    ``exit_code`` are only meaningful for ``"ok"``.
    """

    status: str
    output: tuple[str, ...] = ()
    exit_code: int | None = None

    def describe(self) -> str:
        if self.status != "ok":
            return self.status
        return f"ok exit={self.exit_code} output={list(self.output)}"


@dataclass(frozen=True)
class OracleVerdict:
    """The outcome of one oracle on one program."""

    oracle: str
    passed: bool
    detail: str = ""


def run_machine(asm, max_instructions: int = EXECUTION_BUDGET,
                machine: Machine | None = None) -> ExecOutcome:
    """Execute an assembly program, folding faults into a status.

    ``machine``, a Machine already built for ``asm``, skips construction.
    """
    try:
        if machine is None:
            machine = Machine(asm)
        result = machine.run(max_instructions=max_instructions)
    except DetectionExit:
        return ExecOutcome("detected")
    except ExecutionLimitExceeded:
        return ExecOutcome("hang")
    except MachineFault:
        return ExecOutcome("crash")
    return ExecOutcome("ok", result.output, result.exit_code)


def run_ir(module, max_instructions: int = EXECUTION_BUDGET) -> ExecOutcome:
    """Execute a module under the IR interpreter, same normalization."""
    try:
        result = IRInterpreter(module).run(max_instructions=max_instructions)
    except DetectionExit:
        return ExecOutcome("detected")
    except ExecutionLimitExceeded:
        return ExecOutcome("hang")
    except ReproError:
        return ExecOutcome("crash")
    return ExecOutcome("ok", result.output, result.exit_code)


@dataclass
class Subject:
    """One program under test: built variants plus cached executions."""

    source: str
    config: FerrumConfig | None = None
    budget: int = EXECUTION_BUDGET
    build: BuildResult = field(init=False)
    _machines: dict[str, Machine] = field(default_factory=dict)
    _machine_runs: dict[str, ExecOutcome] = field(default_factory=dict)
    _ir_run: ExecOutcome | None = None

    def __post_init__(self) -> None:
        self.build = build_variants(self.source, config=self.config)

    def machine(self, variant: str) -> Machine:
        """One default-engine Machine per variant, shared by the oracles
        (``run`` resets it), so each variant is translated once."""
        if variant not in self._machines:
            self._machines[variant] = Machine(self.build[variant].asm)
        return self._machines[variant]

    def machine_run(self, variant: str) -> ExecOutcome:
        if variant not in self._machine_runs:
            self._machine_runs[variant] = run_machine(
                self.build[variant].asm, max_instructions=self.budget,
                machine=self.machine(variant))
        return self._machine_runs[variant]

    def ir_run(self) -> ExecOutcome:
        if self._ir_run is None:
            self._ir_run = run_ir(self.build["raw"].ir,
                                  max_instructions=self.budget)
        return self._ir_run


class Oracle:
    """Base class: a named check over a :class:`Subject`."""

    name: str = "oracle"

    def check(self, subject: Subject) -> OracleVerdict:
        raise NotImplementedError

    def _verdict(self, passed: bool, detail: str = "") -> OracleVerdict:
        return OracleVerdict(self.name, passed, detail)


class CrossLayerOracle(Oracle):
    """Machine execution of the raw binary vs direct IR interpretation."""

    name = "cross-layer"

    def check(self, subject: Subject) -> OracleVerdict:
        machine = subject.machine_run("raw")
        interp = subject.ir_run()
        if machine == interp:
            return self._verdict(True)
        return self._verdict(
            False,
            f"machine: {machine.describe()} | ir: {interp.describe()}",
        )


class VariantAgreementOracle(Oracle):
    """Every protected variant must behave exactly like raw, fault-free."""

    name = "variant-agreement"

    def check(self, subject: Subject) -> OracleVerdict:
        raw = subject.machine_run("raw")
        for variant in VARIANTS:
            if variant == "raw" or variant not in subject.build.variants:
                continue
            protected = subject.machine_run(variant)
            if protected != raw:
                return self._verdict(
                    False,
                    f"{variant}: {protected.describe()} "
                    f"| raw: {raw.describe()}",
                )
        return self._verdict(True)


class StaticDisciplineOracle(Oracle):
    """IR verification plus structural protection invariants."""

    name = "static-discipline"

    def check(self, subject: Subject) -> OracleVerdict:
        for variant_name, variant in subject.build.variants.items():
            try:
                verify_module(variant.ir)
                if variant_name in ("hybrid", "ferrum"):
                    check_protection_invariants(variant.asm)
            except ReproError as exc:
                return self._verdict(False, f"{variant_name}: {exc}")
        return self._verdict(True)


class FaultSoundnessOracle(Oracle):
    """No sampled single-bit fault may produce an SDC in hybrid/ferrum.

    The sweep marches one cursor forward through the golden execution
    (:meth:`Machine.run_to_site` — the checkpoint engine's prefix-sharing
    idea) and injects at every ``stride``-th dynamic site with the fixed
    :data:`SOUNDNESS_PICKS`, so its cost is bounded and its verdict is a
    deterministic function of the program.
    """

    name = "fault-soundness"

    def __init__(self, site_budget: int = SOUNDNESS_SITE_BUDGET,
                 picks: tuple[tuple[float, float], ...] = SOUNDNESS_PICKS,
                 variants: tuple[str, ...] = ("hybrid", "ferrum")) -> None:
        self.site_budget = site_budget
        self.picks = picks
        self.variants = variants

    def check(self, subject: Subject) -> OracleVerdict:
        for variant in self.variants:
            if variant not in subject.build.variants:
                continue
            if subject.machine_run(variant).status != "ok":
                # A divergent fault-free run is variant-agreement's finding;
                # injecting into it would only produce noise.
                continue
            program = subject.build[variant].asm
            machine = subject.machine(variant)
            golden = machine.run(max_instructions=subject.budget)
            sites = golden.fault_sites
            stride = max(1, -(-sites // self.site_budget))
            cursor = None
            for site in range(0, sites, stride):
                cursor = machine.run_to_site(site, resume_from=cursor)
                for register_pick, bit_pick in self.picks:
                    plan = FaultPlan(site, register_pick, bit_pick)
                    record = inject_asm_fault(
                        program, plan, golden,
                        machine=machine, resume_from=cursor,
                    )
                    if record.outcome is Outcome.SDC:
                        return self._verdict(
                            False,
                            f"{variant}: SDC at site {site} "
                            f"(register_pick={register_pick}, "
                            f"bit_pick={bit_pick}) of {sites} sites",
                        )
        return self._verdict(True)


def _engine_run(machine: Machine, budget: int, hook=None,
                fault_at: int = -1):
    """One run of ``machine``: its result, or the error and halt counters."""
    try:
        return ("ok", machine.run(max_instructions=budget, fault_hook=hook,
                                  fault_at=fault_at))
    except MachineError as exc:
        return (type(exc).__name__, str(exc), machine.halt_executed,
                machine.halt_sites)


class EngineAgreementOracle(Oracle):
    """The fused engine must be indistinguishable from the reference loop.

    Every built variant's fault-free run must give an equal ``RunResult``
    (or the same error and halt counters) on both engines. On hybrid and
    ferrum, whose checks run the vector templates, a run hooked at every
    fault site must also see the same register state at each site, which
    exposes a wrong flag or lane no later instruction reads; and a few
    strided single-bit flips must end identically. Each engine's machine
    is built once per variant and reused, as a campaign reuses it; the
    default engine's is the subject's shared one.
    """

    name = "engine-agreement"
    variants = ("hybrid", "ferrum")

    def check(self, subject: Subject) -> OracleVerdict:
        for variant, built in subject.build.variants.items():
            shared = subject.machine(variant)
            machines = [shared if shared.engine == engine
                        else Machine(built.asm, engine=engine)
                        for engine in ENGINES]
            runs = [_engine_run(m, subject.budget) for m in machines]
            if runs[0] != runs[1]:
                return self._verdict(
                    False, f"{variant} clean run: {runs[0]} | {runs[1]}")
            if variant in self.variants and runs[0][0] == "ok":
                detail = self._check_sites(machines, runs[0][1],
                                           subject.budget)
                if detail:
                    return self._verdict(False, f"{variant}: {detail}")
        return self._verdict(True)

    def _check_sites(self, machines, golden, budget: int) -> str:
        traces = []
        for machine in machines:
            trace: list = []

            def record(m, instr, site, trace=trace):
                trace.append((site, m.executed_at_site,
                              m.registers.snapshot()))

            traces.append((_engine_run(machine, budget, hook=record), trace))
        (end_a, trace_a), (end_b, trace_b) = traces
        for a, b in zip(trace_a, trace_b):
            if a != b:
                return f"register state differs at site {a[0]}"
        if end_a != end_b or len(trace_a) != len(trace_b):
            return f"hooked run: {end_a} | {end_b}"

        def flip(m, instr, site):
            dest = instr.dest_registers()
            reg = dest[site % len(dest)]
            m.registers.flip(reg, (7 * site + 3) % reg.width)

        flip_budget = max(golden.dynamic_instructions * 6, 10_000)
        stride = max(1, -(-golden.fault_sites // ENGINE_FLIP_SITES))
        for site in range(0, golden.fault_sites, stride):
            outcomes = [_engine_run(m, flip_budget, flip, site)
                        for m in machines]
            if outcomes[0] != outcomes[1]:
                return (f"flip at site {site}: {outcomes[0]} "
                        f"| {outcomes[1]}")
        return ""


class DmeDivergenceOracle(Oracle):
    """The DME pair must never diverge on a fault-free generated program.

    Runs the lockstep differential gate (:func:`lockstep_reference`) —
    canonical per-site traces, output, exit code and counters must all
    match between the primary and its decorrelated twin. A program whose
    fault-free run crashes or hangs is not a DME finding (cross-layer /
    variant-agreement own those); only a genuine lockstep disagreement
    fails this oracle.
    """

    name = "dme-divergence"

    def check(self, subject: Subject) -> OracleVerdict:
        if "dme" not in subject.build.variants:
            return self._verdict(True, "dme variant not built")
        program = subject.build["dme"].asm
        try:
            lockstep_reference(program, max_instructions=subject.budget)
        except DmeDivergenceError as exc:
            return self._verdict(False, str(exc))
        except (MachineFault, ExecutionLimitExceeded) as exc:
            return self._verdict(
                True, f"fault-free run does not complete: {exc}")
        return self._verdict(True)


def default_oracles() -> tuple[Oracle, ...]:
    """The standard oracle battery, in dependency-friendly order."""
    return (
        CrossLayerOracle(),
        VariantAgreementOracle(),
        StaticDisciplineOracle(),
        FaultSoundnessOracle(),
        EngineAgreementOracle(),
        DmeDivergenceOracle(),
    )


def run_oracles(
    source: str,
    oracles: tuple[Oracle, ...] | None = None,
    config: FerrumConfig | None = None,
    budget: int = EXECUTION_BUDGET,
) -> list[OracleVerdict]:
    """Run the oracle battery over one program; one verdict per oracle.

    A program that fails to build yields a single failed ``build`` verdict
    (the build is itself the first differential check: the frontend,
    backend and transforms must accept every generated program).
    """
    try:
        subject = Subject(source, config=config, budget=budget)
    except ReproError as exc:
        return [OracleVerdict("build", False,
                              f"{type(exc).__name__}: {exc}")]
    verdicts = []
    for oracle in oracles if oracles is not None else default_oracles():
        try:
            verdicts.append(oracle.check(subject))
        except ReproError as exc:
            verdicts.append(OracleVerdict(
                oracle.name, False,
                f"unexpected {type(exc).__name__}: {exc}"))
    return verdicts
