"""DME build layer: decorrelation maps, the structural gate, trace equality.

The detector's zero-false-positive claim rests on three properties proven
here:

* every decorrelation map is a bijection (register roles and per-function
  slot cells), so canonicalization can erase the decorrelation exactly;
* the secondary is a *pure renaming* of the primary — same shape, operands
  equal modulo the maps — and any sabotage of that property is rejected at
  build time by :func:`verify_decorrelation`;
* on fault-free runs the variant pair's canonical traces are equal
  position for position (the lockstep gate), across the curated workloads
  *and* Hypothesis-drawn programs from the fuzz generator grammar.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm.operands import Imm
from repro.core.dme import (
    DME_DEFAULT_SEED,
    DmeProgram,
    build_dme_program,
    static_ordinals,
    verify_decorrelation,
)
from repro.errors import TransformError
from repro.faultinjection.dme import DmeMachine, lockstep_reference
from repro.fuzz.generator import generate_program
from repro.machine.cpu import Machine
from repro.minic import compile_to_ir
from repro.workloads import get_workload

pytestmark = pytest.mark.dme

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def kmeans_dme():
    return build_dme_program(compile_to_ir(get_workload("kmeans").source(1)))


class TestDecorrelationMaps:
    def test_register_map_is_a_bijection_off_the_defaults(self, kmeans_dme):
        register_map = kmeans_dme.maps.register_map
        assert set(register_map) == {"rax", "rcx"}
        assert len(set(register_map.values())) == len(register_map)
        # Every role genuinely moves: acc off rax, aux off rcx.
        assert register_map["rax"] != "rax"
        assert register_map["rcx"] != "rcx"
        assert register_map["rax"] != register_map["rcx"]

    def test_slot_maps_are_bijections_over_their_cells(self, kmeans_dme):
        for name, slot_map in kmeans_dme.maps.slot_maps.items():
            assert set(slot_map) == set(slot_map.values()), name

    @pytest.mark.parametrize("seed", (0, 1, 7, DME_DEFAULT_SEED, 2**31))
    def test_every_seed_yields_a_valid_pair(self, seed):
        module = compile_to_ir(get_workload("bfs").source(1))
        program = build_dme_program(module, seed=seed)
        assert isinstance(program, DmeProgram)
        assert program.maps.seed == seed
        # The build gate already ran; run it again explicitly for clarity.
        verify_decorrelation(program, program.secondary, program.maps)

    def test_static_ordinals_are_a_bijection(self, kmeans_dme):
        ordinals = static_ordinals(kmeans_dme)
        count = sum(1 for _ in kmeans_dme.instructions())
        assert sorted(ordinals.values()) == list(range(count))
        secondary = static_ordinals(kmeans_dme.secondary)
        assert sorted(secondary.values()) == list(range(count))


class TestStructuralGate:
    def test_pair_is_a_pure_renaming(self, kmeans_dme):
        primary = list(kmeans_dme.instructions())
        secondary = list(kmeans_dme.secondary.instructions())
        assert len(primary) == len(secondary)
        for prim, sec in zip(primary, secondary):
            assert prim.mnemonic == sec.mnemonic
            assert prim.origin == sec.origin

    def test_sabotaged_immediate_rejected(self, kmeans_dme):
        sabotaged = kmeans_dme.secondary.copy()
        for instr in sabotaged.instructions():
            if (instr.mnemonic in ("addl", "addq", "subl", "subq")
                    and instr.operands
                    and isinstance(instr.operands[0], Imm)):
                instr.operands = (
                    Imm(instr.operands[0].value + 1),
                ) + instr.operands[1:]
                break
        with pytest.raises(TransformError, match="pure renaming"):
            verify_decorrelation(kmeans_dme, sabotaged, kmeans_dme.maps)

    def test_dropped_instruction_rejected(self, kmeans_dme):
        sabotaged = kmeans_dme.secondary.copy()
        block = sabotaged.functions[0].entry
        del block.instructions[0]
        with pytest.raises(TransformError, match="instruction counts"):
            verify_decorrelation(kmeans_dme, sabotaged, kmeans_dme.maps)

    def test_unmapped_register_swap_rejected(self, kmeans_dme):
        # An identity register map makes every acc/aux rename a mismatch.
        from repro.core.dme import DecorrelationMaps

        identity = DecorrelationMaps(
            seed=kmeans_dme.maps.seed,
            register_map={},
            slot_maps=kmeans_dme.maps.slot_maps,
        )
        with pytest.raises(TransformError, match="pure renaming"):
            verify_decorrelation(kmeans_dme, kmeans_dme.secondary, identity)


class TestFaultFreeEquality:
    def test_machine_dispatch_selects_lockstep_runner(self, kmeans_dme):
        assert isinstance(Machine(kmeans_dme), DmeMachine)
        assert type(Machine(kmeans_dme.plain())) is Machine

    def test_dme_run_matches_raw_bit_for_bit(self, kmeans_dme):
        dme_result = Machine(kmeans_dme).run()
        raw_result = Machine(kmeans_dme.plain()).run()
        assert dme_result.output == raw_result.output
        assert dme_result.exit_code == raw_result.exit_code
        assert (dme_result.dynamic_instructions
                == raw_result.dynamic_instructions)
        assert dme_result.fault_sites == raw_result.fault_sites

    def test_lockstep_gate_passes_and_covers_every_site(self, kmeans_dme):
        trace = lockstep_reference(kmeans_dme)
        plain = Machine(kmeans_dme.plain()).run()
        assert trace.dynamic_instructions == plain.dynamic_instructions
        assert len(trace.entries) == plain.fault_sites
        assert trace.output == plain.output
        assert trace.exit_code == plain.exit_code

    def test_timing_charges_both_versions(self, kmeans_dme):
        from repro.machine.timing import TimingConfig

        config = TimingConfig()
        paired = Machine(kmeans_dme).run(timing=config)
        single = Machine(kmeans_dme.plain()).run(timing=config)
        assert paired.cycles > 1.8 * single.cycles

    def test_repeated_timed_runs_charge_the_same_pair(self, kmeans_dme):
        from repro.machine.timing import TimingConfig

        config = TimingConfig()
        pair = (Machine(kmeans_dme.plain()).run(timing=config).cycles
                + Machine(kmeans_dme.secondary).run(timing=config).cycles)
        machine = Machine(kmeans_dme)
        assert [machine.run(timing=config).cycles
                for _ in range(3)] == [pair] * 3


class TestGeneratedPrograms:
    """Hypothesis-seeded property: decorrelation never produces a pair that
    disagrees fault-free, for arbitrary generator-grammar programs and
    arbitrary decorrelation seeds."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_SEEDS)
    def test_generated_pair_verifies_and_locksteps(self, seed):
        source = generate_program(seed)
        program = build_dme_program(compile_to_ir(source))
        trace = lockstep_reference(program)
        raw = Machine(program.plain()).run()
        assert trace.output == raw.output, \
            f"dme gate output mismatch for seed {seed}:\n{source}"
        assert trace.exit_code == raw.exit_code

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program_seed=st.integers(min_value=0, max_value=2**16 - 1),
           dme_seed=_SEEDS)
    def test_decorrelation_seed_is_free(self, program_seed, dme_seed):
        source = generate_program(program_seed)
        program = build_dme_program(compile_to_ir(source), seed=dme_seed)
        lockstep_reference(program)
