"""Single-fault injector tests."""

import pytest

from repro.faultinjection.injector import (
    FaultPlan,
    inject_asm_fault,
    inject_ir_fault,
    profile_fault_sites,
)
from repro.faultinjection.outcome import Outcome
from repro.errors import InjectionError
from repro.minic import compile_to_ir
from repro.backend import compile_module
from repro.ir.interp import IRInterpreter
from repro.utils.rng import DeterministicRng

SOURCE = """
int main() {
    int x = 21;
    print_int(x * 2);
    return 0;
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_module(compile_to_ir(SOURCE))


@pytest.fixture(scope="module")
def golden(program):
    return profile_fault_sites(program)


class TestFaultPlan:
    def test_sample_within_bounds(self):
        rng = DeterministicRng(1)
        for i in range(50):
            plan = FaultPlan.sample(rng.fork(i), 100)
            assert 0 <= plan.site_index < 100
            assert 0.0 <= plan.register_pick < 1.0
            assert 0.0 <= plan.bit_pick < 1.0

    def test_empty_population_rejected(self):
        with pytest.raises(InjectionError):
            FaultPlan.sample(DeterministicRng(1), 0)


class TestAsmInjection:
    def test_deterministic_outcome(self, program, golden):
        plan = FaultPlan(site_index=3, register_pick=0.5, bit_pick=0.5)
        a = inject_asm_fault(program, plan, golden)
        b = inject_asm_fault(program, plan, golden)
        assert a == b

    def test_high_bit_flip_of_result_is_sdc(self, program, golden):
        # Find the multiply's site: sweep sites until one yields SDC.
        outcomes = set()
        for site in range(golden.fault_sites):
            plan = FaultPlan(site_index=site, register_pick=0.0, bit_pick=0.3)
            outcomes.add(inject_asm_fault(program, plan, golden).outcome)
        assert Outcome.SDC in outcomes

    def test_unreached_site_raises(self, program, golden):
        plan = FaultPlan(site_index=golden.fault_sites + 5,
                         register_pick=0.0, bit_pick=0.0)
        with pytest.raises(InjectionError):
            inject_asm_fault(program, plan, golden)

    def test_benign_faults_exist(self, program, golden):
        outcomes = []
        for site in range(golden.fault_sites):
            plan = FaultPlan(site_index=site, register_pick=0.9, bit_pick=0.99)
            outcomes.append(inject_asm_fault(program, plan, golden).outcome)
        assert Outcome.BENIGN in outcomes

    def test_machine_reuse_matches_fresh(self, program, golden):
        from repro.machine.cpu import Machine

        machine = Machine(program)
        plan = FaultPlan(site_index=2, register_pick=0.1, bit_pick=0.2)
        reused = inject_asm_fault(program, plan, golden, machine=machine)
        fresh = inject_asm_fault(program, plan, golden)
        assert reused == fresh


class TestIrInjection:
    def test_ir_injection_outcomes(self):
        module = compile_to_ir(SOURCE)
        golden = IRInterpreter(module).run()
        outcomes = set()
        for site in range(golden.fault_sites):
            plan = FaultPlan(site_index=site, register_pick=0.0, bit_pick=0.4)
            outcomes.add(inject_ir_fault(module, plan, golden).outcome)
        assert Outcome.SDC in outcomes

    def test_ir_injection_deterministic(self):
        module = compile_to_ir(SOURCE)
        golden = IRInterpreter(module).run()
        plan = FaultPlan(site_index=1, register_pick=0.0, bit_pick=0.9)
        assert inject_ir_fault(module, plan, golden) == \
            inject_ir_fault(module, plan, golden)


class TestCrashAndTimeout:
    def test_pointer_corruption_can_crash(self):
        source = """
        int main() {
            int* p = malloc(8);
            p[0] = 5;
            print_int(p[0]);
            return 0;
        }
        """
        program = compile_module(compile_to_ir(source))
        golden = profile_fault_sites(program)
        outcomes = set()
        for site in range(golden.fault_sites):
            # Flip a high bit: pointers become wild.
            plan = FaultPlan(site_index=site, register_pick=0.0,
                             bit_pick=0.74)  # bit ~47 of a 64-bit register
            outcomes.add(inject_asm_fault(program, plan, golden).outcome)
        assert Outcome.CRASH in outcomes

    def test_loop_counter_corruption_can_timeout(self):
        source = """
        int main() {
            int total = 0;
            for (int i = 0; i < 1000; i++) { total += 1; }
            print_int(total);
            return 0;
        }
        """
        program = compile_module(compile_to_ir(source))
        golden = profile_fault_sites(program)
        outcomes = set()
        for site in range(0, golden.fault_sites, 3):
            # bit_pick ~0.97 of a 32-bit destination is bit 31: flipping the
            # sign of the loop counter makes the loop run ~2^31 iterations.
            plan = FaultPlan(site_index=site, register_pick=0.0,
                             bit_pick=0.97)
            outcomes.add(inject_asm_fault(program, plan, golden).outcome)
            if Outcome.TIMEOUT in outcomes:
                break
        assert Outcome.TIMEOUT in outcomes
