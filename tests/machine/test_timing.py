"""Timing-model tests: port classification, latency, dependence stalls."""

import pytest

from repro.asm.instructions import ins
from repro.asm.operands import Imm, LabelRef, Mem, Reg
from repro.asm.parser import parse_program
from repro.asm.registers import get_register
from repro.machine.cpu import Machine
from repro.fuzz.generator import generate_program
from repro.machine.timing import Port, TimingConfig, TimingModel, latency_of, port_of
from repro.pipeline import build_variants


def _reg(name):
    return Reg(get_register(name))


def _mem(disp=-8):
    return Mem(disp=disp, base=get_register("rbp"))


class TestPortClassification:
    def test_scalar_alu_is_int(self):
        assert port_of(ins("addq", Imm(1), _reg("rax"))) is Port.INT

    def test_load_port(self):
        assert port_of(ins("movq", _mem(), _reg("rax"))) is Port.LOAD

    def test_store_port(self):
        assert port_of(ins("movq", _reg("rax"), _mem())) is Port.STORE

    def test_branch_port(self):
        assert port_of(ins("jmp", LabelRef("x"))) is Port.BRANCH
        assert port_of(ins("call", LabelRef("f"))) is Port.BRANCH

    def test_vector_port(self):
        assert port_of(ins("movq", _reg("rax"), _reg("xmm0"))) is Port.VEC
        assert port_of(ins("vpxor", _reg("ymm0"), _reg("ymm1"),
                           _reg("ymm2"))) is Port.VEC

    def test_push_pop_ports(self):
        assert port_of(ins("pushq", _reg("rax"))) is Port.STORE
        assert port_of(ins("popq", _reg("rax"))) is Port.LOAD

    def test_lea_is_int(self):
        assert port_of(ins("leaq", _mem(), _reg("rax"))) is Port.INT


class TestLatency:
    def test_load_latency(self):
        config = TimingConfig()
        instr = ins("movq", _mem(), _reg("rax"))
        assert latency_of(instr, config) == config.latency_load

    def test_lea_is_not_a_load(self):
        config = TimingConfig()
        instr = ins("leaq", _mem(), _reg("rax"))
        assert latency_of(instr, config) == config.latency_lea

    def test_idiv_slowest(self):
        config = TimingConfig()
        assert latency_of(ins("idivl", _reg("ecx")), config) == config.latency_idiv

    def test_imul_latency(self):
        config = TimingConfig()
        instr = ins("imulq", _reg("rcx"), _reg("rax"))
        assert latency_of(instr, config) == config.latency_imul


class TestModelBehaviour:
    def test_dependent_chain_slower_than_independent(self):
        config = TimingConfig()
        dependent = TimingModel(config)
        for _ in range(20):
            dependent.observe(ins("addq", Imm(1), _reg("rax")), [], [], False)
        independent = TimingModel(config)
        regs = ["rax", "rbx", "rcx", "rdx"]
        for i in range(20):
            independent.observe(ins("addq", Imm(1), _reg(regs[i % 4])),
                                [], [], False)
        assert dependent.cycles > independent.cycles

    def test_store_load_forwarding_dependency(self):
        config = TimingConfig()
        model = TimingModel(config)
        model.observe(ins("movq", _reg("rax"), _mem()), [], [100], False)
        model.observe(ins("movq", _mem(), _reg("rbx")), [100], [], False)
        with_dep = model.cycles
        model2 = TimingModel(config)
        model2.observe(ins("movq", _reg("rax"), _mem()), [], [100], False)
        model2.observe(ins("movq", _mem(), _reg("rbx")), [200], [], False)
        assert with_dep > model2.cycles

    def test_taken_branch_penalty(self):
        config = TimingConfig()
        taken = TimingModel(config)
        for _ in range(10):
            taken.observe(ins("jmp", LabelRef("x")), [], [], True)
        not_taken = TimingModel(config)
        for _ in range(10):
            not_taken.observe(ins("jne", LabelRef("x")), [], [], False)
        assert taken.cycles > not_taken.cycles

    def test_branch_port_serializes(self):
        config = TimingConfig()
        model = TimingModel(config)
        for _ in range(16):
            model.observe(ins("jne", LabelRef("x")), [], [], False)
        # One branch unit: at least one branch per cycle.
        assert model.cycles >= 15

    def test_vector_work_overlaps_scalar(self):
        """The paper's core claim: VEC uops ride along nearly for free."""
        config = TimingConfig()
        scalar_only = TimingModel(config)
        mixed = TimingModel(config)
        for i in range(40):
            scalar_only.observe(ins("addq", Imm(1), _reg("rax")), [], [], False)
            mixed.observe(ins("addq", Imm(1), _reg("rax")), [], [], False)
            mixed.observe(ins("movq", _reg("rbx"), _reg("xmm0")), [], [], False)
        assert mixed.cycles <= scalar_only.cycles * 1.3

    def test_rob_limits_runahead(self):
        small = TimingConfig(rob_size=4)
        large = TimingConfig(rob_size=512)
        def run(config):
            model = TimingModel(config)
            # One long-latency op then many independent cheap ops.
            model.observe(ins("idivl", _reg("ecx")), [], [], False)
            for i in range(64):
                model.observe(ins("addq", Imm(1), _reg("rbx")), [], [], False)
            return model.cycles
        assert run(small) > run(large)

    def test_granules(self):
        assert TimingModel.granules(0, 8) == [0]
        assert TimingModel.granules(4, 8) == [0, 1]
        assert TimingModel.granules(8, 4) == [1]


class TestConfig:
    def test_config_hashes(self):
        assert hash(TimingConfig()) == hash(TimingConfig())
        assert TimingConfig() == TimingConfig()
        assert TimingConfig(latency_load=7) != TimingConfig()

    def test_ports_are_read_only(self):
        config = TimingConfig()
        with pytest.raises(TypeError):
            config.ports[Port.INT] = 7
        assert config.ports[Port.INT] == 2

    def test_ports_are_copied(self):
        ports = {Port.INT: 1, Port.VEC: 2, Port.LOAD: 1, Port.STORE: 1,
                 Port.BRANCH: 1}
        config = TimingConfig(ports=ports)
        ports[Port.INT] = 9
        assert config.ports[Port.INT] == 1
        assert config != TimingConfig()


def _mixed_trace():
    """Loads feeding two ALU chains: sensitive to load latency and to the
    number of INT units."""
    trace = []
    for i in range(12):
        trace.append((ins("movq", _mem(-8 * (i % 3 + 1)), _reg("rax")),
                      [i % 3], []))
        trace.append((ins("addq", _reg("rax"), _reg("rbx")), [], []))
        trace.append((ins("addq", Imm(1), _reg("rcx")), [], []))
        trace.append((ins("addq", Imm(2), _reg("rdx")), [], []))
    return trace


def _cycles_of(config, trace):
    model = TimingModel(config)
    for instr, reads, writes in trace:
        model.observe(instr, reads, writes, False)
    return model.cycles


class TestDecodeCache:
    def test_records_do_not_leak_between_configs(self):
        default = TimingConfig()
        other = TimingConfig(
            latency_load=7,
            ports={Port.INT: 1, Port.VEC: 2, Port.LOAD: 1, Port.STORE: 1,
                   Port.BRANCH: 1},
        )
        shared = _mixed_trace()
        first = _cycles_of(default, shared)
        second = _cycles_of(other, shared)
        third = _cycles_of(default, shared)
        assert first == third == _cycles_of(default, _mixed_trace())
        assert second == _cycles_of(other, _mixed_trace())
        assert first != second


class TestEndToEndDeterminism:
    def test_cycles_deterministic(self, tiny_build):
        machine = Machine(tiny_build["raw"].asm)
        a = machine.run(timing=TimingConfig()).cycles
        b = machine.run(timing=TimingConfig()).cycles
        assert a == b and a > 0

    def test_cycles_scale_with_work(self):
        text = """\t.globl main
main:
\tmovq $0, %rax
\tmovq $0, %rcx
.Lloop:
\taddq $1, %rax
\taddq $1, %rcx
\tcmpq $NNN, %rcx
\tjne .Lloop
\tmovl $0, %eax
\tretq
"""
        short = Machine(parse_program(text.replace("NNN", "10")))
        long = Machine(parse_program(text.replace("NNN", "100")))
        assert long.run(timing=TimingConfig()).cycles > \
            short.run(timing=TimingConfig()).cycles * 5


class TestExactCycles:
    """Exact cycle counts, so a decode slip that moves a few cycles fails.

    Recorded from the per-dynamic-instruction model before static timing
    records existed; the generated program (seed 19) defines two functions
    it calls, so push/pop/call/ret and stack-slot traffic are covered.
    """

    TINY = {"raw": 33, "ir-eddi": 39, "hybrid": 42, "ferrum": 41, "dme": 66}
    GENERATED_SEED = 19
    GENERATED = {"raw": 1645, "ir-eddi": 2066, "hybrid": 3657,
                 "ferrum": 2300, "dme": 3290}

    @staticmethod
    def _cycles(build):
        return {name: Machine(variant.asm).run(timing=TimingConfig()).cycles
                for name, variant in build.variants.items()}

    def test_tiny_build(self, tiny_build):
        assert self._cycles(tiny_build) == self.TINY

    def test_generated_program_with_calls(self):
        build = build_variants(generate_program(self.GENERATED_SEED))
        assert self._cycles(build) == self.GENERATED
