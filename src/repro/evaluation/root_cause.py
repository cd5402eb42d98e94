"""Root-cause analysis of residual SDCs (paper Sec. IV-B1).

The paper doesn't just measure IR-LEVEL-EDDI's coverage loss — it explains
it: "certain instructions can create potential fault injection sites when
translated into assembly language, which aren't visible at IR level", and
"some protection that exists at IR level may become ineffective once the
code is converted". This module reproduces that analysis mechanically: it
sweeps faults over a protected binary, and for every SDC it records *which
instruction* the fault hit — mnemonic, instruction kind, and provenance —
then aggregates into the histogram behind the paper's Figs. 8/9 narrative
(flag rematerialization, slot reloads, argument marshalling, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Iterable

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.operands import Imm, Reg
from repro.asm.program import AsmProgram
from repro.faultinjection.campaign import run_campaign
from repro.faultinjection.outcome import Outcome
from repro.faultinjection.telemetry import FaultRecord
from repro.utils.text import format_table


def classify_site(instr: Instruction) -> str:
    """Human-readable fault-site class, matching the paper's narrative."""
    kind = instr.kind
    if kind in (InstrKind.CMP, InstrKind.TEST):
        if isinstance(instr.operands[0], Imm) and isinstance(
            instr.operands[1], Reg
        ):
            return "flag rematerialization (Fig. 9)"
        return "comparison flags"
    if kind in (InstrKind.MOV, InstrKind.MOVEXT):
        dest = instr.dest
        if isinstance(dest, Reg) and dest.register.name in (
            "edi", "rdi", "esi", "rsi", "edx", "ecx", "r8d", "r9d",
            "rdx", "rcx", "r8", "r9",
        ) and (instr.comment or "").startswith("marshal"):
            return "call argument marshalling"
        if instr.reads_memory():
            return "slot reload"
        return "register move"
    if kind is InstrKind.LEA:
        return "address computation (mapping)"
    if kind in (InstrKind.ALU, InstrKind.SHIFT, InstrKind.UNARY):
        return "arithmetic"
    if kind is InstrKind.SETCC:
        return "comparison materialization"
    if kind in (InstrKind.IDIV, InstrKind.CONVERT):
        return "division"
    if kind is InstrKind.POP:
        return "stack restore"
    return kind.value


@dataclass
class RootCauseResult:
    """SDC counts per fault-site class, for one protected binary."""

    samples: int
    total_sdc: int = 0
    by_class: dict[str, int] = field(default_factory=dict)
    by_origin: dict[str, int] = field(default_factory=dict)
    examples: dict[str, str] = field(default_factory=dict)

    def record(self, instr: Instruction) -> None:
        from repro.asm.printer import format_instruction

        self.total_sdc += 1
        site_class = classify_site(instr)
        self.by_class[site_class] = self.by_class.get(site_class, 0) + 1
        self.by_origin[instr.origin] = self.by_origin.get(instr.origin, 0) + 1
        self.examples.setdefault(site_class, format_instruction(instr))

    def render(self) -> str:
        rows = [
            [site_class, str(count), self.examples.get(site_class, "")]
            for site_class, count in sorted(
                self.by_class.items(), key=lambda item: -item[1]
            )
        ]
        return format_table(
            ["fault-site class", "SDCs", "example instruction"], rows,
            title=(f"Root causes of {self.total_sdc} residual SDCs "
                   f"({self.samples} faults injected)"),
        )


def root_causes_from_records(
    program: AsmProgram,
    records: Iterable[FaultRecord],
    samples: int | None = None,
) -> RootCauseResult:
    """Attribute a campaign's SDCs to their static instructions.

    Records carry the static-instruction ``uid`` of every fault they
    describe; this resolves those back to ``program``'s instruction objects
    (for kind-based classification and raw provenance tags) and folds every
    SDC into a :class:`RootCauseResult`. Works on in-memory records or ones
    re-loaded from a campaign's JSONL stream, as long as ``program`` is the
    binary the campaign ran.
    """
    by_uid = {instr.uid: instr for instr in program.instructions()}
    records = list(records)
    result = RootCauseResult(
        samples=len(records) if samples is None else samples
    )
    for record in records:
        if record.outcome is not Outcome.SDC:
            continue
        instr = by_uid.get(record.instruction_uid)
        if instr is None:
            raise KeyError(
                f"record uid {record.instruction_uid} not in program "
                f"(records from a different binary?)"
            )
        result.record(instr)
    return result


def analyze_root_causes(
    program: AsmProgram,
    samples: int,
    seed: int = 0,
    function: str = "main",
    args: tuple[int, ...] = (),
) -> RootCauseResult:
    """Sample faults over ``program`` and classify every SDC's site.

    Run this on an IR-LEVEL-EDDI binary to regenerate the paper's
    Sec. IV-B1 findings; on a FERRUM binary the result should be empty.
    A thin wrapper over a campaign: the checkpoint engine serves the
    samples, and its per-fault records carry the attribution.
    """
    campaign = run_campaign(program, samples, seed=seed, function=function,
                            args=args)
    return root_causes_from_records(program, campaign.records, samples=samples)
