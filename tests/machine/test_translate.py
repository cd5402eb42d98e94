"""Fused engine vs reference handlers: bit-identity differential.

The fused engine (:mod:`repro.machine.translate`: superblocks over single
steps, both rendered by one instruction emitter and driven by one
dispatch loop) is pure execution strategy — for any program, the reference
handler loop is the semantic oracle and the fused engine must be
indistinguishable from it: same :class:`RunResult`, same fault-site
numbering, same fault-hook delivery (including ``executed_at_site``), same
snapshots, and the same faults/detections with the same messages when a bit
is flipped mid-run. Every parity assertion here runs over all entries of
``ENGINES``; the clean-run and mid-run-fault ones also over ``blocks-off``,
a fused machine with every superblock removed, so each instruction of each
program runs as its one-instruction step. FERRUM's vector checks get
hand-written programs of their own, one per template shape.
"""

import gc
import importlib.util
import itertools
import random
import weakref
from pathlib import Path

import pytest

from repro.asm.instructions import Instruction, get_spec, known_mnemonics
from repro.asm.parser import parse_operand, parse_program
from repro.errors import (
    EngineConfigError,
    IllegalInstructionError,
    MachineError,
    MachineFault,
)
from repro.fuzz.generator import generate_program
from repro.machine.cpu import ENGINE_ENV_VAR, ENGINES, Machine
from repro.machine.semantics import check_shape
from repro.machine.timing import TimingConfig
from repro.machine.translate import translate_fused
from repro.pipeline import VARIANTS as ALL_VARIANTS
from repro.pipeline import build_variants
from repro.workloads.registry import all_workloads, get_workload

#: Fixed fuzz corpus — same seeds the checkpoint-campaign suite pins.
FUZZ_SEEDS = (3, 17, 58)
#: Variants that matter for engine parity: unprotected and fully protected.
VARIANTS = ("raw", "ferrum")

WORKLOAD_NAMES = tuple(spec.name for spec in all_workloads())

#: ``ENGINES`` plus the fused engine's single-step layer on its own.
CASES = (*ENGINES, "blocks-off")


@pytest.fixture(scope="module")
def workload_asm():
    out = {}
    for name in WORKLOAD_NAMES:
        build = build_variants(get_workload(name).source_fn(), names=VARIANTS)
        out[name] = {variant: build[variant].asm for variant in VARIANTS}
    return out


@pytest.fixture(scope="module")
def fuzz_asm():
    return {
        seed: {
            variant: build[variant].asm for variant in VARIANTS
        }
        for seed, build in (
            (s, build_variants(generate_program(s), names=VARIANTS))
            for s in FUZZ_SEEDS
        )
    }


def _machine(program, case):
    """A Machine for ``case``: an engine name, or ``blocks-off``."""
    if case != "blocks-off":
        return Machine(program, engine=case)
    machine = Machine(program, engine="fused")
    machine._fused = translate_fused(machine)
    machine._fused.fused_steps = [None] * len(machine._fused.fused_steps)
    return machine


def _run_all(program, **kwargs):
    return {case: _machine(program, case).run(**kwargs) for case in CASES}


def _all_equal(values):
    values = list(values)
    return all(value == values[0] for value in values)


class TestCleanRunIdentity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workloads_bit_identical(self, workload_asm, name, variant):
        results = _run_all(workload_asm[name][variant])
        assert _all_equal(results.values())

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_corpus_bit_identical(self, fuzz_asm, seed, variant):
        results = _run_all(fuzz_asm[seed][variant])
        assert _all_equal(results.values())

    def test_budget_exhaustion_identical(self, workload_asm):
        program = workload_asm[WORKLOAD_NAMES[0]]["raw"]
        errors = []
        for engine in ENGINES:
            with pytest.raises(MachineError) as info:
                Machine(program, engine=engine).run(max_instructions=500)
            errors.append((type(info.value), str(info.value)))
        assert _all_equal(errors)


class TestFaultHookProtocol:
    def test_hook_trace_identical(self, fuzz_asm):
        """Every site ordinal, instruction, and ``executed_at_site`` the
        hook observes must match between engines."""
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        traces = {}
        for engine in ENGINES:
            trace = []
            machine = Machine(program, engine=engine)

            def hook(m, instr, site, trace=trace, machine=machine):
                assert m is machine
                trace.append((site, m.executed_at_site, str(instr)))

            machine.run(fault_hook=hook)
            traces[engine] = trace
        assert _all_equal(traces.values())
        assert traces["fused"]  # the protocol actually fired

    def test_fault_at_delivers_single_site(self, fuzz_asm):
        program = fuzz_asm[FUZZ_SEEDS[1]]["raw"]
        for target in (0, 5, 40):
            hits = {}
            for engine in ENGINES:
                sites = []
                Machine(program, engine=engine).run(
                    fault_hook=lambda m, i, s, sites=sites: sites.append(s),
                    fault_at=target,
                )
                hits[engine] = sites
            assert _all_equal(hits.values())
            assert hits["fused"] == [target]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_injected_flips_identical(self, fuzz_asm, variant):
        """Flipping a destination-register bit at a sampled site must yield
        the same outcome — same result, or same fault type and message —
        under both engines (detections included for protected variants)."""
        program = fuzz_asm[FUZZ_SEEDS[2]][variant]
        golden = Machine(program).run()
        budget = golden.dynamic_instructions * 6
        step = max(1, golden.fault_sites // 17)
        for site in range(0, golden.fault_sites, step):
            outcomes = []
            for engine in ENGINES:
                machine = Machine(program, engine=engine)

                def hook(m, instr, s):
                    dest = instr.dest_registers()
                    m.registers.flip(dest[0], 3)

                try:
                    result = machine.run(fault_hook=hook, fault_at=site,
                                         max_instructions=budget)
                    outcomes.append(("ok", result))
                except MachineError as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert _all_equal(outcomes), f"divergence at site {site}"


class TestSnapshotIdentity:
    def test_run_to_site_snapshots_identical(self, workload_asm):
        program = workload_asm[WORKLOAD_NAMES[0]]["ferrum"]
        for target in (1, 100, 2000):
            snaps = [
                Machine(program, engine=engine).run_to_site(target)
                for engine in ENGINES
            ]
            assert _all_equal(snaps)

    def test_cross_engine_resume(self, workload_asm):
        """A snapshot captured under one engine must resume bit-identically
        under the other — checkpoints are engine-neutral."""
        program = workload_asm[WORKLOAD_NAMES[1]]["raw"]
        golden = Machine(program).run()
        for snap_engine, resume_engine in (
            ("reference", "fused"),
            ("fused", "reference"),
        ):
            snap = Machine(program, engine=snap_engine).run_to_site(150)
            resumed = Machine(program, engine=resume_engine).run(
                resume_from=snap
            )
            assert resumed == golden

    def test_chained_run_to_site_identical(self, fuzz_asm):
        program = fuzz_asm[FUZZ_SEEDS[0]]["ferrum"]
        chained = {}
        for engine in ENGINES:
            machine = Machine(program, engine=engine)
            snap = machine.run_to_site(20)
            snap = machine.run_to_site(90, resume_from=snap)
            chained[engine] = snap
        assert _all_equal(chained.values())


class TestEngineSelection:
    def test_invalid_engine_rejected(self, fuzz_asm):
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        # "translated" was a selectable engine once; a stale name must fail
        # loudly rather than fall back to a default.
        for engine in ("warp", "translated"):
            with pytest.raises(MachineFault,
                               match="choose from fused, reference"):
                Machine(program, engine=engine)

    def test_env_var_selects_engine(self, fuzz_asm, monkeypatch):
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert Machine(program).engine == "reference"
        monkeypatch.setenv(ENGINE_ENV_VAR, "fused")
        assert Machine(program).engine == "fused"
        monkeypatch.delenv(ENGINE_ENV_VAR)
        assert Machine(program).engine == "fused"

    def test_invalid_env_engine_rejected(self, fuzz_asm, monkeypatch):
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        for engine in ("quantum", "translated"):
            monkeypatch.setenv(ENGINE_ENV_VAR, engine)
            with pytest.raises(MachineFault,
                               match="choose from fused, reference"):
                Machine(program)

    def test_explicit_engine_overrides_env(self, fuzz_asm, monkeypatch):
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert Machine(program, engine="fused").engine == "fused"


class TestTimingRuns:
    def test_timing_matches_reference(self, workload_asm):
        """Timing-model observation runs on the reference loop regardless of
        engine; cycle counts must be engine-independent."""
        program = workload_asm[WORKLOAD_NAMES[0]]["raw"]
        results = [
            Machine(program, engine=engine).run(timing=TimingConfig())
            for engine in ENGINES
        ]
        assert _all_equal(results)
        assert results[0].cycles is not None


class TestEngineConfigError:
    def test_is_value_error_and_machine_fault(self, fuzz_asm):
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        with pytest.raises(ValueError) as info:
            Machine(program, engine="warp")
        assert isinstance(info.value, EngineConfigError)
        assert isinstance(info.value, MachineFault)

    def test_message_lists_valid_engines(self, fuzz_asm):
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        with pytest.raises(EngineConfigError) as info:
            Machine(program, engine="warp")
        message = str(info.value)
        assert "warp" in message
        for engine in ENGINES:
            assert engine in message

    def test_env_var_error_lists_valid_engines(self, fuzz_asm, monkeypatch):
        program = fuzz_asm[FUZZ_SEEDS[0]]["raw"]
        monkeypatch.setenv(ENGINE_ENV_VAR, "quantum")
        with pytest.raises(EngineConfigError) as info:
            Machine(program)
        assert "quantum" in str(info.value)


class TestFusedSuperblocks:
    """Structure and behavior specific to the superblock-fused engine."""

    def test_blocks_actually_fuse(self, workload_asm):
        machine = Machine(workload_asm[WORKLOAD_NAMES[0]]["raw"],
                          engine="fused")
        fused = translate_fused(machine)
        lengths = [length for length in fused.fused_len if length >= 2]
        assert lengths, "no superblock of length >= 2 was built"
        # -O0-style straight-line code should fuse the bulk of the program.
        assert sum(lengths) > len(machine._code) // 2

    def test_leaders_never_mid_block(self, workload_asm):
        """No fused block may extend across another block's leader — a jump
        into the middle of a fused body would skip its preceding effects."""
        machine = Machine(workload_asm[WORKLOAD_NAMES[1]]["ferrum"],
                          engine="fused")
        fused = translate_fused(machine)
        starts = [pc for pc, step in enumerate(fused.fused_steps) if step]
        spans = {pc: fused.fused_len[pc] for pc in starts}
        jump_targets = {t for t in machine._jump_pc if t >= 0}
        jump_targets.update(machine._entry.values())
        jump_targets.update(t for t in machine._call_entry_pc if t >= 0)
        for start, length in spans.items():
            for interior in range(start + 1, start + length - 1):
                assert interior not in jump_targets, (
                    f"jump target {interior} inside block "
                    f"[{start}, {start + length})"
                )

    def test_budget_expires_mid_block(self, workload_asm):
        """Budgets that land inside a fused block must still halt at the
        exact instruction, with the reference's counters and message."""
        program = workload_asm[WORKLOAD_NAMES[0]]["raw"]
        golden = Machine(program).run()
        for budget in (3, 11, golden.dynamic_instructions // 2 + 1):
            observed = []
            for engine in ENGINES:
                machine = Machine(program, engine=engine)
                with pytest.raises(MachineError) as info:
                    machine.run(max_instructions=budget)
                observed.append((type(info.value), str(info.value),
                                 machine.halt_executed, machine.halt_sites))
            assert _all_equal(observed), f"divergence at budget {budget}"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fault_mid_run_counters_identical(self, fuzz_asm, variant):
        """A crash inside a fused block or a single step must stamp
        halt_executed and halt_sites exactly as the reference engine does."""
        program = fuzz_asm[FUZZ_SEEDS[1]][variant]
        golden = Machine(program).run()
        step = max(1, golden.fault_sites // 23)
        budget = golden.dynamic_instructions * 6
        for site in range(0, golden.fault_sites, step):
            stamps = []
            for case in CASES:
                machine = _machine(program, case)

                def hook(m, instr, s):
                    dest = instr.dest_registers()
                    m.registers.flip(dest[0], dest[0].width - 1)

                try:
                    machine.run(fault_hook=hook, fault_at=site,
                                max_instructions=budget)
                    stamps.append(("ok",))
                except MachineError as exc:
                    stamps.append((type(exc).__name__, str(exc),
                                   machine.halt_executed,
                                   machine.halt_sites))
            assert _all_equal(stamps), f"divergence at site {site}"


class TestMachineLifetime:
    @pytest.mark.parametrize("variant", ("raw", "dme"))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_dropped_machine_freed_without_gc(self, engine, variant):
        """No compiled step holds the machine, so dropping the last
        reference frees it (and its steps) by reference counting alone."""
        build = build_variants(get_workload(WORKLOAD_NAMES[0]).source_fn(),
                               names=(variant,))
        program = build[variant].asm
        enabled = gc.isenabled()
        gc.disable()
        try:
            machine = Machine(program, engine=engine)
            golden = machine.run()
            machine.run(fault_hook=lambda m, instr, site: None,
                        fault_at=golden.fault_sites // 2)
            ref = weakref.ref(machine)
            del machine
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def _snippet(body):
    """``main`` running ``body`` (one instruction a line), then returning 0."""
    lines = [line.strip() for line in body.strip().splitlines()]
    return parse_program("\t.globl main\nmain:\n"
                         + "".join(f"\t{line}\n" for line in lines if line)
                         + "\tmovl $0, %eax\n\tretq\n")


def _end_states(program, **kwargs):
    """Per case: result and final registers, or the error and halt stamps."""
    out = {}
    for case in CASES:
        machine = _machine(program, case)
        try:
            out[case] = ("ok", machine.run(**kwargs),
                         machine.registers.snapshot())
        except MachineError as exc:
            out[case] = (type(exc).__name__, str(exc),
                         machine.halt_executed, machine.halt_sites)
    return out


M64 = (1 << 64) - 1
RCX = 0xFEDCBA9876543210
RDX = 0x123456789ABCDEF0
RSI = M64
R8 = 0x5555555555555555

#: ymm0 = [rcx, rdx | rcx, rdx] and ymm1 = [rsi, r8 | rsi, r8] (64-bit
#: lanes, low first), rcx/rdx also at -8/-16(%rsp); ymm3 stays zero.
VECTOR_PRELUDE = f"""
    movq ${RCX - (1 << 64)}, %rcx
    movq ${RDX}, %rdx
    movq $-1, %rsi
    movq ${R8}, %r8
    movq %rcx, -8(%rsp)
    movq %rdx, -16(%rsp)
    movq %rcx, %xmm0
    pinsrq $1, %rdx, %xmm0
    vinserti128 $1, %xmm0, %ymm0, %ymm0
    movq %rsi, %xmm1
    pinsrq $1, %r8, %xmm1
    vinserti128 $1, %xmm1, %ymm1, %ymm1
"""
YMM0 = RCX | RDX << 64 | RCX << 128 | RDX << 192
YMM1 = RSI | R8 << 64 | RSI << 128 | R8 << 192

#: name -> (instructions after the prelude, {root: expected final value}).
VECTOR_SHAPES = {
    "movq-gpr-xmm": ("movq %r8, %xmm0",
                     {"ymm0": R8 | RCX << 128 | RDX << 192}),
    "movq-gpr32-xmm": ("movq %esi, %xmm1",
                       {"ymm1": 0xFFFFFFFF | RSI << 128 | R8 << 192}),
    "movq-gpr-ymm-name": ("movq %r8, %ymm0",
                          {"ymm0": R8 | RCX << 128 | RDX << 192}),
    "movq-mem-xmm": ("movq -16(%rsp), %xmm1",
                     {"ymm1": RDX | RSI << 128 | R8 << 192}),
    "movq-mem-xmm-heap-miss": ("leaq -8(%rsp), %rax\nmovq (%rax), %xmm1",
                               {"ymm1": RCX | RSI << 128 | R8 << 192}),
    "movq-xmm-gpr": ("movq %xmm0, %r9", {"r9": RCX}),
    "movq-ymm-gpr32": ("movq %ymm1, %r9d", {"r9": 0xFFFFFFFF}),
    "movq-xmm-mem": ("movq %xmm1, -24(%rsp)\nmovq -24(%rsp), %r9",
                     {"r9": RSI}),
    "movq-xmm-xmm": ("movq %xmm1, %xmm0",
                     {"ymm0": RSI | RCX << 128 | RDX << 192}),
    "vmovq": ("vmovq %r8, %xmm1\nvmovq %xmm0, %r9",
              {"ymm1": R8 | RSI << 128 | R8 << 192, "r9": RCX}),
    "pinsrq-lane0": ("pinsrq $0, %r8, %xmm0",
                     {"ymm0": R8 | RDX << 64 | RCX << 128 | RDX << 192}),
    "pinsrq-lane1": ("pinsrq $1, %rsi, %xmm0",
                     {"ymm0": RCX | RSI << 64 | RCX << 128 | RDX << 192}),
    "pinsrq-mem-lane0": ("pinsrq $0, -16(%rsp), %xmm1",
                         {"ymm1": RDX | R8 << 64 | RSI << 128 | R8 << 192}),
    "pinsrq-mem-lane1": ("pinsrq $1, -8(%rsp), %xmm1",
                         {"ymm1": RSI | RCX << 64 | RSI << 128 | R8 << 192}),
    "pinsrq-imm": ("pinsrq $1, $7, %xmm3", {"ymm3": 7 << 64}),
    "vinserti128-lane0": ("vinserti128 $0, %xmm1, %ymm0, %ymm2",
                          {"ymm2": RSI | R8 << 64 | RCX << 128 | RDX << 192}),
    "vinserti128-lane1": ("vinserti128 $1, %xmm1, %ymm0, %ymm2",
                          {"ymm2": RCX | RDX << 64 | RSI << 128 | R8 << 192}),
    "vinserti128-in-place": ("vinserti128 $0, %xmm0, %ymm1, %ymm1",
                             {"ymm1": YMM0 & ((1 << 128) - 1)
                              | (YMM1 >> 128) << 128}),
    "vpxor": ("vpxor %ymm0, %ymm1, %ymm2", {"ymm2": YMM0 ^ YMM1}),
    "vpxor-self": ("vpxor %ymm0, %ymm0, %ymm0", {"ymm0": 0}),
    # vptest a, b: ZF = (a & b) == 0, CF = (a & ~b) == 0.
    "vptest-zf-cf": ("vptest %ymm3, %ymm3", {"rflags": 0x41}),
    "vptest-cf": ("vptest %ymm0, %ymm0", {"rflags": 0x01}),
    "vptest-zf": ("vptest %ymm0, %ymm3", {"rflags": 0x40}),
    "vptest-none": ("vptest %ymm0, %ymm1", {"rflags": 0x00}),
    "vptest-upper-lane-only": (
        "vinserti128 $1, %xmm1, %ymm3, %ymm4\nvptest %ymm4, %ymm4",
        {"rflags": 0x01}),
}

#: name -> (a faulting instruction placed after the prelude).
VECTOR_FAULTS = {
    "movq-mem-xmm": "movq 16, %xmm0",
    "movq-mem-xmm-heap": "movq $16, %rax\nmovq (%rax), %xmm0",
    "movq-xmm-mem": "movq %xmm0, 16",
    "pinsrq-mem-lane0": "pinsrq $0, 16, %xmm1",
    "pinsrq-mem-lane1": "pinsrq $1, 24(%rcx), %xmm1",
}

#: Vector shapes no producer emits; a Machine refuses them at load.
VECTOR_MALFORMED = {
    "pinsrq-lane2": "pinsrq $2, %rcx, %xmm0",
    "pinsrq-ymm-dest": "pinsrq $0, %rcx, %ymm0",
    "vinserti128-lane2": "vinserti128 $2, %xmm1, %ymm0, %ymm0",
    # VEX.128 zeroes the upper lane; the model has no such form.
    "vpxor-xmm": "vpxor %xmm0, %xmm1, %xmm2",
    "vptest-xmm": "vptest %xmm0, %xmm1",
    "vpxor-mem": "vpxor -8(%rsp), %ymm1, %ymm2",
    "vptest-mem": "vptest -8(%rsp), %ymm1",
    "vinserti128-imm": "vinserti128 $1, $5, %ymm0, %ymm0",
}


class TestVectorTemplates:
    """FERRUM's vector checks render in the one emitter and fuse; every
    engine must agree on them to the bit, the reference included."""

    @pytest.mark.parametrize("name", VECTOR_SHAPES)
    def test_shape_parity(self, name):
        body, expected = VECTOR_SHAPES[name]
        program = _snippet(VECTOR_PRELUDE + body)
        states = _end_states(program)
        assert _all_equal(states.values()), states
        status, _, registers = states["reference"]
        assert status == "ok"
        for root, value in expected.items():
            assert registers[root] == value, f"{root}: {registers[root]:#x}"
        # Straight-line up to the final ``retq``: one superblock.
        machine = Machine(program, engine="fused")
        assert translate_fused(machine).fused_len[0] == len(machine._code) - 1

    @pytest.mark.parametrize("name", VECTOR_SHAPES)
    def test_flips_at_every_site(self, name):
        """A flip after each site, in a vector lane where the destination
        is a vector, ends identically on every engine."""
        program = _snippet(VECTOR_PRELUDE + VECTOR_SHAPES[name][0])
        golden = Machine(program).run()
        for site in range(golden.fault_sites):

            def hook(m, instr, s):
                reg = instr.dest_registers()[0]
                m.registers.flip(reg, (61 * s + 5) % reg.width)

            states = _end_states(program, fault_hook=hook, fault_at=site)
            assert _all_equal(states.values()), f"site {site}: {states}"

    @pytest.mark.parametrize("name", VECTOR_FAULTS)
    def test_memory_fault_stamps(self, name):
        """A faulting memory form inside a fused block stamps the same
        ``halt_executed``/``halt_sites`` as a single step and the
        reference."""
        body = VECTOR_FAULTS[name]
        program = _snippet(VECTOR_PRELUDE + body)
        states = _end_states(program)
        assert _all_equal(states.values()), states
        kind, _, executed, sites = states["reference"]
        assert kind == "SegmentationFault"
        code = list(program.functions[0].instructions())
        fault_pc = len(VECTOR_PRELUDE.strip().splitlines()) + body.count("\n")
        assert executed == fault_pc
        assert sites == sum(bool(i.dest_registers()) for i in code[:fault_pc])
        fused = translate_fused(Machine(program, engine="fused"))
        assert fused.fused_len[0] > fault_pc  # the fault is mid-block

    @pytest.mark.parametrize("name", VECTOR_MALFORMED)
    def test_malformed_shapes_fall_back(self, name):
        """A shape outside the model fails typed and loud when the Machine
        loads, on every engine, naming the instruction."""
        body = VECTOR_MALFORMED[name]
        program = _snippet(VECTOR_PRELUDE + body)
        for engine in ENGINES:
            with pytest.raises(IllegalInstructionError) as info:
                Machine(program, engine=engine)
            assert body in str(info.value)


def _ablation_configs():
    path = Path(__file__).resolve().parents[2] / "examples" / "ablation_sweep.py"
    spec = importlib.util.spec_from_file_location("ablation_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_instruction_emitted(name):
    """Every variant of every registry workload, under every FERRUM
    configuration of the ablation sweep, passes the load-time shape check
    and fuses: no producer emits a shape outside the model. Only the
    configurable variants (hybrid, ferrum) are rebuilt per configuration."""
    source = get_workload(name).source_fn()
    builds = [build_variants(source, names=ALL_VARIANTS)]
    builds.extend(build_variants(source, names=("hybrid", "ferrum"),
                                 config=config)
                  for _, config in _ablation_configs()[1:])
    for build in builds:
        for variant in build.variants.values():
            program = variant.asm
            for part in (program, getattr(program, "secondary", None)):
                if part is not None:
                    fused = translate_fused(Machine(part, engine="fused"))
                    assert any(length >= 2 for length in fused.fused_len)


#: name -> (instructions after the prelude). ``rdx:rax`` starts at
#: ``RDX:0`` after ``IDIV_PRELUDE``; ``r8``/``-8(%rsp)`` hold divisors.
IDIV_CASES = {
    "idivq-reg": "idivq %r8",
    "idivq-mem": "idivq -8(%rsp)",
    "idivl-widened": "movl $-7, %eax\ncltd\nmovl $2, %r9d\nidivl %r9d",
    "idivl-wide-edx": "movl $5, %eax\nmovl $1, %edx\nmovl $3, %r9d\nidivl %r9d",
    "idivq-by-zero": "movq $0, %r9\nidivq %r9",
    "idivl-by-zero-mem": "movl $0, -16(%rsp)\nidivl -16(%rsp)",
    "idivq-overflow": "movq $1, %r9\nidivq %r9",
    "idivl-overflow": "movl $0, %eax\nmovl $1, %edx\nmovl $1, %r9d\nidivl %r9d",
    "idivq-min-by-minus-one": ("movq $0, %rdx\nmovq $1, %rax\nshlq $63, %rax\n"
                               "cqto\nmovq $-1, %r9\nidivq %r9"),
}
IDIV_PRELUDE = """
    movq $1000003, %r8
    movq %r8, -8(%rsp)
    movq $12345, %rdx
    movq $0, %rax
    movq $77, %rsi
    addq %rsi, %rsi
"""


class TestIdivFused:
    """``idiv`` renders in the emitter, so it sits inside superblocks; its
    faults stamp the reference's counters mid-block."""

    @pytest.mark.parametrize("name", IDIV_CASES)
    def test_parity(self, name):
        program = _snippet(IDIV_PRELUDE + IDIV_CASES[name] + "\naddq $1, %rsi")
        states = _end_states(program)
        assert _all_equal(states.values()), states
        machine = Machine(program, engine="fused")
        # One block from the entry through the instructions after idiv.
        assert translate_fused(machine).fused_len[0] == len(machine._code) - 1
        outcome = states["reference"][0]
        if "zero" in name or "overflow" in name or "minus-one" in name:
            assert outcome == "MachineFault", states["reference"]
            _, _, executed, _ = states["reference"]
            assert executed == len(machine._code) - 4  # idiv, addq, movl, retq
        else:
            assert outcome == "ok"

    @pytest.mark.parametrize("name", ("idivq-reg", "idivq-mem",
                                      "idivl-widened"))
    def test_flips_at_every_site(self, name):
        """A flip at each site — the idiv's own rax/rdx included — ends
        identically on every engine."""
        program = _snippet(IDIV_PRELUDE + IDIV_CASES[name])
        golden = Machine(program).run()
        for site in range(golden.fault_sites):
            for bit in (0, 31, 62):

                def hook(m, instr, s, bit=bit):
                    reg = instr.dest_registers()[-1]
                    m.registers.flip(reg, bit % reg.width)

                states = _end_states(program, fault_hook=hook, fault_at=site)
                assert _all_equal(states.values()), f"site {site}: {states}"


#: The operand pool of the shape grid: immediates, GPRs at every width
#: (``%cl`` included), vector registers, and three addressing forms.
GRID_POOL = ("$0", "$1", "$2", "$-1",
             "%al", "%cl", "%ax", "%cx", "%eax", "%ecx", "%rax", "%rcx",
             "%rdx", "%xmm0", "%xmm1", "%ymm0", "%ymm1",
             "-16(%rsp)", "(%eax)", "65600")
GRID_PRELUDE = """
    movq $-81985529216486896, %rax
    movq $81985529216486895, %rcx
    movq $3, %rdx
    movq %rcx, -16(%rsp)
    movq %rax, 65600
    movq %rax, %xmm0
    pinsrq $1, %rcx, %xmm0
    vinserti128 $1, %xmm0, %ymm0, %ymm0
    movq %rcx, %xmm1
    pinsrq $1, %rax, %xmm1
    vinserti128 $0, %xmm1, %ymm1, %ymm1
"""
#: Per mnemonic: how many admitted and rejected operand tuples to run.
GRID_ADMITTED, GRID_REJECTED = 12, 3


def _grid_sample():
    """A deterministic sample of (mnemonic, operand texts) over the pool.

    Every operand tuple of the pool is classified by the load check; each
    mnemonic contributes a few admitted and a few rejected tuples, drawn
    with a seed derived from the mnemonic. Branches take a label instead.
    """
    operands = {text: parse_operand(text) for text in GRID_POOL}
    sample = []
    for mnemonic in known_mnemonics():
        spec = get_spec(mnemonic)
        if spec.kind.is_branch:
            target = {0: (), 1: ("print_long",) if mnemonic == "call"
                      else (".Lnext",)}[spec.n_operands]
            sample.append((mnemonic, target))
            continue
        admitted, rejected = [], []
        for texts in itertools.product(GRID_POOL, repeat=spec.n_operands):
            instr = Instruction(mnemonic, tuple(operands[t] for t in texts))
            try:
                check_shape(instr)
                admitted.append(texts)
            except IllegalInstructionError:
                rejected.append(texts)
        rng = random.Random(mnemonic)
        sample.extend((mnemonic, texts) for texts in
                      rng.sample(admitted, min(GRID_ADMITTED, len(admitted))))
        sample.extend((mnemonic, texts) for texts in
                      rng.sample(rejected, min(GRID_REJECTED, len(rejected))))
    return sample


def _grid_program(mnemonic, texts):
    line = mnemonic + (" " + ", ".join(texts) if texts else "")
    lines = [ln.strip() for ln in GRID_PRELUDE.strip().splitlines()]
    return parse_program("\t.globl main\nmain:\n"
                         + "".join(f"\t{ln}\n" for ln in lines)
                         + f"\t{line}\n.Lnext:\n\tretq\n")


def test_shape_grid_differential():
    """The load check admits nothing the emitter cannot render, and the
    emitter agrees with the reference on everything it admits: each
    sampled instruction is either refused at load by both engines, or ends
    identically on every case (``blocks-off`` included)."""
    admitted = 0
    for mnemonic, texts in _grid_sample():
        program = _grid_program(mnemonic, texts)
        loads = []
        for engine in ENGINES:
            try:
                Machine(program, engine=engine)
                loads.append("ok")
            except IllegalInstructionError as exc:
                loads.append(str(exc))
        assert _all_equal(loads), (mnemonic, texts, loads)
        if loads[0] != "ok":
            assert mnemonic in loads[0]
            continue
        admitted += 1
        states = _end_states(program, max_instructions=200)
        assert _all_equal(states.values()), (mnemonic, texts, states)
    assert admitted > 300
