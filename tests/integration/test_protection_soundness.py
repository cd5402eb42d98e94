"""Protection soundness: sweeping fault injection over every dynamic site.

This is the strongest guarantee in the suite: for a small program, inject a
fault at *every* dynamic fault site (with several register/bit picks) and
assert that FERRUM and the hybrid baseline never let an SDC through —
the paper's 100 % coverage claim, checked exhaustively rather than sampled.
"""

import pytest

from repro.faultinjection.injector import FaultPlan, inject_asm_fault
from repro.faultinjection.outcome import Outcome
from repro.machine.cpu import Machine
from repro.pipeline import build_variants

#: Small but representative: arithmetic, branch, call, memory, division.
PROGRAM = """
int twice(int v) { return v * 2; }

int main() {
    int* p = malloc(16);
    p[0] = 9; p[1] = 4;
    int q = p[0] / p[1];
    if (q > 1 && p[1] < p[0]) { q = twice(q + 3); }
    print_int(q);
    return q;
}
"""

#: (register_pick, bit_pick) pairs: low/mid/high bits of first/last dest.
PICKS = ((0.0, 0.01), (0.0, 0.45), (0.0, 0.95), (0.9, 0.3))


def _sweep(program):
    machine = Machine(program)
    golden = machine.run()
    counts = {outcome: 0 for outcome in Outcome}
    for site in range(golden.fault_sites):
        for register_pick, bit_pick in PICKS:
            plan = FaultPlan(site, register_pick, bit_pick)
            record = inject_asm_fault(program, plan, golden, machine=machine)
            counts[record.outcome] += 1
    return counts, golden.fault_sites


@pytest.fixture(scope="module")
def build():
    return build_variants(PROGRAM)


class TestExhaustiveSweep:
    def test_raw_program_is_vulnerable(self, build):
        counts, sites = _sweep(build["raw"].asm)
        assert counts[Outcome.SDC] > 0
        assert counts[Outcome.DETECTED] == 0

    def test_ferrum_no_sdc_at_any_site(self, build):
        counts, sites = _sweep(build["ferrum"].asm)
        assert sites > 200  # the sweep is genuinely large
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.DETECTED] > 0

    def test_hybrid_no_sdc_at_any_site(self, build):
        counts, _ = _sweep(build["hybrid"].asm)
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.DETECTED] > 0

    def test_ir_eddi_leaks_sdcs_at_assembly_level(self, build):
        """The cross-layer gap, exhaustively: IR-level EDDI leaves
        assembly-level fault sites unprotected."""
        counts, _ = _sweep(build["ir-eddi"].asm)
        assert counts[Outcome.SDC] > 0
        assert counts[Outcome.DETECTED] > 0  # but it does catch many


class TestFerrumNoSimdSweep:
    def test_scalar_only_ferrum_also_fully_covers(self, build):
        from repro.core.config import FerrumConfig

        scalar = build_variants(
            PROGRAM, names=("ferrum",), config=FerrumConfig(use_simd=False)
        )
        counts, _ = _sweep(scalar["ferrum"].asm)
        assert counts[Outcome.SDC] == 0
