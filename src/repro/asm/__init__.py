"""x86-64 assembly substrate.

This subpackage models the slice of x86-64 (AT&T syntax) that the backend
emits and the protection transforms manipulate: registers with sub-register
aliasing, operands, instructions with per-mnemonic metadata, a text
parser/printer pair, a program/CFG representation, and per-instruction
register use/def sets.
"""

from repro.asm.instructions import Instruction, InstrSpec, get_spec
from repro.asm.operands import Imm, LabelRef, Mem, Operand, Reg
from repro.asm.parser import parse_program, parse_instruction
from repro.asm.printer import format_instruction, format_program
from repro.asm.program import AsmBlock, AsmFunction, AsmProgram
from repro.asm.registers import (
    FLAGS,
    GPR64,
    Register,
    RegisterKind,
    XMM,
    YMM,
    get_register,
)

__all__ = [
    "AsmBlock",
    "AsmFunction",
    "AsmProgram",
    "FLAGS",
    "GPR64",
    "Imm",
    "InstrSpec",
    "Instruction",
    "LabelRef",
    "Mem",
    "Operand",
    "Reg",
    "Register",
    "RegisterKind",
    "XMM",
    "YMM",
    "format_instruction",
    "format_program",
    "get_register",
    "get_spec",
    "parse_instruction",
    "parse_program",
]
