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
    MachineFault,
    ReproError,
)
from repro.faultinjection.dme import lockstep_reference
from repro.faultinjection.injector import FaultPlan, inject_asm_fault
from repro.faultinjection.outcome import Outcome
from repro.ir.interp import IRInterpreter
from repro.ir.verifier import verify_module
from repro.machine.cpu import Machine
from repro.pipeline import VARIANTS, BuildResult, build_variants

#: Instruction budget for oracle executions. Generated programs run a few
#: thousand dynamic instructions; anything near this bound is a hang.
EXECUTION_BUDGET = 2_000_000

#: Deterministic (register_pick, bit_pick) pairs for the soundness sweep.
SOUNDNESS_PICKS = ((0.0, 0.03), (0.5, 0.55), (0.9, 0.9))

#: Cap on distinct dynamic sites the soundness sweep injects at.
SOUNDNESS_SITE_BUDGET = 24


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


def run_machine(asm, max_instructions: int = EXECUTION_BUDGET) -> ExecOutcome:
    """Execute an assembly program, folding faults into a status."""
    try:
        result = Machine(asm).run(max_instructions=max_instructions)
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
    _machine_runs: dict[str, ExecOutcome] = field(default_factory=dict)
    _ir_run: ExecOutcome | None = None

    def __post_init__(self) -> None:
        self.build = build_variants(self.source, config=self.config)

    def machine_run(self, variant: str) -> ExecOutcome:
        if variant not in self._machine_runs:
            self._machine_runs[variant] = run_machine(
                self.build[variant].asm, max_instructions=self.budget)
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
            machine = Machine(program)
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
