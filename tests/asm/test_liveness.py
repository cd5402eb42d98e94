"""Unit tests for per-instruction register use/def sets."""

from repro.asm.instructions import ins
from repro.asm.liveness import CALLER_SAVED, instruction_defs, instruction_uses
from repro.asm.operands import LabelRef, Mem, Reg
from repro.asm.registers import get_register


def _reg(name):
    return Reg(get_register(name))


class TestUseDef:
    def test_mov_use_def(self):
        instr = ins("movq", _reg("rax"), _reg("rbx"))
        assert instruction_uses(instr) == {"rax"}
        assert instruction_defs(instr) == {"rbx"}

    def test_rmw_uses_dest(self):
        instr = ins("addq", _reg("rcx"), _reg("rax"))
        assert instruction_uses(instr) == {"rcx", "rax"}

    def test_call_clobbers_caller_saved(self):
        instr = ins("call", LabelRef("f"))
        assert CALLER_SAVED <= instruction_defs(instr)
        assert "rbx" not in instruction_defs(instr)

    def test_call_uses_arg_registers(self):
        instr = ins("call", LabelRef("f"))
        assert {"rdi", "rsi", "rdx", "rcx", "r8", "r9"} <= instruction_uses(instr)

    def test_ret_uses_rax(self):
        assert "rax" in instruction_uses(ins("retq"))

    def test_push_pop_touch_rsp(self):
        assert "rsp" in instruction_defs(ins("pushq", _reg("rax")))
        assert "rsp" in instruction_uses(ins("popq", _reg("rax")))

    def test_mem_operand_uses_address_roots(self):
        mem = Mem(base=get_register("r8"), index=get_register("r9"))
        instr = ins("movq", mem, _reg("rax"))
        assert {"r8", "r9"} <= instruction_uses(instr)

