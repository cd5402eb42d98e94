"""Oracle battery: clean programs pass, planted defects are caught."""

import pytest

from repro.asm.operands import Imm
from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import (
    DmeDivergenceOracle,
    EngineAgreementOracle,
    ExecOutcome,
    FaultSoundnessOracle,
    Subject,
    default_oracles,
    run_machine,
    run_oracles,
)

pytestmark = pytest.mark.fuzz

GOOD_SOURCE = """
int main() {
    int acc = 3;
    for (int i0 = 0; i0 < 4; i0 = i0 + 1) {
        acc = acc + i0 * 2;
    }
    if (acc > 10) { acc = acc - 40; }
    print_int(acc);
    return 0;
}
"""


def plant_orig_imm_bug(real_protect):
    """Wrap ``protect_program`` to corrupt one original ALU immediate.

    The duplicate stream still computes with the true immediate, so the
    divergence checker fires on the first fault-free run — the canonical
    "transform changed program semantics" defect class.
    """

    def planted(asm, config=None):
        program, stats = real_protect(asm, config)
        for func in program.functions:
            for instr in func.instructions():
                if (instr.origin == "orig"
                        and instr.mnemonic in ("addl", "addq")
                        and instr.operands
                        and isinstance(instr.operands[0], Imm)):
                    instr.operands = (
                        Imm(instr.operands[0].value ^ 1),
                    ) + instr.operands[1:]
                    return program, stats
        return program, stats

    return planted


class TestCleanPrograms:
    def test_battery_passes_on_handwritten(self):
        verdicts = run_oracles(GOOD_SOURCE)
        assert [v.oracle for v in verdicts] == [
            "cross-layer", "variant-agreement", "static-discipline",
            "fault-soundness", "engine-agreement", "dme-divergence",
        ]
        assert all(v.passed for v in verdicts), verdicts

    def test_battery_passes_on_generated(self):
        verdicts = run_oracles(generate_program(1))
        assert all(v.passed for v in verdicts), verdicts

    def test_build_failure_is_a_verdict_not_an_exception(self):
        verdicts = run_oracles("int main() { return undeclared; }")
        assert len(verdicts) == 1
        assert verdicts[0].oracle == "build"
        assert not verdicts[0].passed
        assert verdicts[0].detail


class TestOutcomeNormalization:
    def test_hang_is_folded_into_status(self):
        subject = Subject(GOOD_SOURCE)
        outcome = run_machine(subject.build["raw"].asm, max_instructions=5)
        assert outcome == ExecOutcome("hang")
        assert outcome.describe() == "hang"

    def test_ok_outcome_carries_output(self):
        subject = Subject(GOOD_SOURCE)
        outcome = run_machine(subject.build["raw"].asm)
        assert outcome.status == "ok"
        assert outcome.exit_code == 0
        assert outcome.output


class TestPlantedDefects:
    def test_variant_agreement_catches_planted_transform_bug(
            self, monkeypatch):
        import repro.pipeline as pipeline_mod

        monkeypatch.setattr(
            pipeline_mod, "protect_program",
            plant_orig_imm_bug(pipeline_mod.protect_program))
        verdicts = run_oracles(GOOD_SOURCE)
        failed = {v.oracle for v in verdicts if not v.passed}
        assert "variant-agreement" in failed
        detail = next(v.detail for v in verdicts
                      if v.oracle == "variant-agreement")
        assert "ferrum" in detail and "detected" in detail

    def test_dme_divergence_catches_planted_secondary_bug(self):
        # Corrupt one ALU immediate in the *secondary* after the build-time
        # decorrelation gate has already passed. The primary still computes
        # the true value, so the lockstep comparison must report a value
        # divergence on the very first fault-free run.
        subject = Subject(GOOD_SOURCE)
        secondary = subject.build["dme"].asm.secondary
        planted = False
        for func in secondary.functions:
            for instr in func.instructions():
                if (instr.mnemonic in ("addl", "addq", "subl", "subq")
                        and instr.operands
                        and isinstance(instr.operands[0], Imm)):
                    instr.operands = (
                        Imm(instr.operands[0].value ^ 1),
                    ) + instr.operands[1:]
                    planted = True
                    break
            if planted:
                break
        assert planted, "no ALU immediate to corrupt in the secondary"
        verdict = DmeDivergenceOracle().check(subject)
        assert not verdict.passed
        assert "divergence" in verdict.detail

    def test_fault_soundness_flags_unprotected_code(self):
        # Positive control: pointing the soundness sweep at the raw
        # variant must find an SDC — otherwise the oracle is vacuous.
        subject = Subject(GOOD_SOURCE)
        verdict = FaultSoundnessOracle(variants=("raw",)).check(subject)
        assert not verdict.passed
        assert "SDC at site" in verdict.detail

    def test_engine_agreement_catches_planted_vptest_flag_bug(
            self, monkeypatch):
        # A vptest template with CF inverted. FERRUM's check branch reads
        # only ZF, so no run's result changes: only the register state the
        # oracle compares at every fault site can show it.
        import repro.machine.translate as translate

        real = translate._emit_vptest

        def planted(instr, j, env):
            lines = real(instr, j, env)
            if lines is None:
                return None
            wrong = lines[-1].replace("0 if a & ~b else _CF",
                                      "_CF if a & ~b else 0")
            assert wrong != lines[-1], "CF template not found"
            return [*lines[:-1], wrong]

        assert EngineAgreementOracle().check(Subject(GOOD_SOURCE)).passed
        monkeypatch.setattr(translate, "_emit_vptest", planted)
        # A fresh subject: its machines translate with the planted template.
        verdict = EngineAgreementOracle().check(Subject(GOOD_SOURCE))
        assert not verdict.passed
        assert "ferrum" in verdict.detail
        assert "register state differs" in verdict.detail

    def test_fault_soundness_clean_on_protected(self):
        subject = Subject(GOOD_SOURCE)
        verdict = FaultSoundnessOracle().check(subject)
        assert verdict.passed, verdict.detail


class TestDeterminism:
    def test_verdicts_are_pure_functions_of_source(self):
        source = generate_program(9)
        assert run_oracles(source) == run_oracles(source)

    @pytest.mark.parametrize("oracle", default_oracles(),
                             ids=lambda o: o.name)
    def test_each_oracle_deterministic(self, oracle):
        subject = Subject(GOOD_SOURCE)
        assert oracle.check(subject) == oracle.check(subject)
