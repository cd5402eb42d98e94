"""x86-64 register model.

Registers are interned: :func:`get_register` returns a canonical
:class:`Register` object per architectural name, and every sub-register knows
its 64-bit (or 256-bit, for vectors) *root* so aliasing is explicit. The
machine's register file stores one value per root and materializes
sub-register views on access.

FERRUM's static analysis works in terms of roots: a function that touches
``%eax`` has used the ``rax`` root, and ``%xmm3`` occupies the low lane of the
``ymm3`` root.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import UnknownRegisterError


class RegisterKind(enum.Enum):
    """Architectural register classes."""

    GPR = "gpr"
    VECTOR = "vector"
    FLAGS = "flags"
    IP = "ip"


@dataclass(frozen=True)
class Register:
    """One architectural register name.

    Attributes:
        name: assembly name without the ``%`` sigil, e.g. ``"eax"``.
        root: name of the widest alias (``"rax"`` for ``"eax"``; vectors root
            at their ``ymm`` form).
        width: width in bits of this view.
        kind: the register class.
        offset: bit offset of this view inside the root (always 0 here; x86
            high-byte registers like ``ah`` are deliberately unsupported).
    """

    name: str
    root: str
    width: int
    kind: RegisterKind
    offset: int = 0

    def __str__(self) -> str:
        return f"%{self.name}"

    @property
    def is_vector(self) -> bool:
        return self.kind is RegisterKind.VECTOR


_GPR_FAMILIES: dict[str, tuple[str, str, str]] = {
    # root: (32-bit, 16-bit, 8-bit low)
    "rax": ("eax", "ax", "al"),
    "rbx": ("ebx", "bx", "bl"),
    "rcx": ("ecx", "cx", "cl"),
    "rdx": ("edx", "dx", "dl"),
    "rsi": ("esi", "si", "sil"),
    "rdi": ("edi", "di", "dil"),
    "rbp": ("ebp", "bp", "bpl"),
    "rsp": ("esp", "sp", "spl"),
    "r8": ("r8d", "r8w", "r8b"),
    "r9": ("r9d", "r9w", "r9b"),
    "r10": ("r10d", "r10w", "r10b"),
    "r11": ("r11d", "r11w", "r11b"),
    "r12": ("r12d", "r12w", "r12b"),
    "r13": ("r13d", "r13w", "r13b"),
    "r14": ("r14d", "r14w", "r14b"),
    "r15": ("r15d", "r15w", "r15b"),
}

GPR64: tuple[str, ...] = tuple(_GPR_FAMILIES)

#: Registers the SysV-ish calling convention reserves: stack/frame pointers.
RESERVED_GPRS: frozenset[str] = frozenset({"rsp", "rbp"})

#: Integer argument registers, in order (SysV AMD64).
ARG_GPRS: tuple[str, ...] = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

#: Callee-saved registers under the SysV AMD64 convention.
CALLEE_SAVED: frozenset[str] = frozenset({"rbx", "rbp", "r12", "r13", "r14", "r15"})

XMM: tuple[str, ...] = tuple(f"xmm{i}" for i in range(16))
YMM: tuple[str, ...] = tuple(f"ymm{i}" for i in range(16))

_REGISTRY: dict[str, Register] = {}


def _register(reg: Register) -> Register:
    _REGISTRY[reg.name] = reg
    return reg


for _root, (_r32, _r16, _r8) in _GPR_FAMILIES.items():
    _register(Register(_root, _root, 64, RegisterKind.GPR))
    _register(Register(_r32, _root, 32, RegisterKind.GPR))
    _register(Register(_r16, _root, 16, RegisterKind.GPR))
    _register(Register(_r8, _root, 8, RegisterKind.GPR))

for _i in range(16):
    _register(Register(f"ymm{_i}", f"ymm{_i}", 256, RegisterKind.VECTOR))
    _register(Register(f"xmm{_i}", f"ymm{_i}", 128, RegisterKind.VECTOR))

FLAGS: Register = _register(Register("rflags", "rflags", 64, RegisterKind.FLAGS))
RIP: Register = _register(Register("rip", "rip", 64, RegisterKind.IP))


def get_register(name: str) -> Register:
    """Look up a register by assembly name (with or without ``%``).

    Raises:
        UnknownRegisterError: if the name is not part of the modeled ISA.
    """
    key = name.lstrip("%").lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownRegisterError(f"unknown register {name!r}") from None


def is_register_name(name: str) -> bool:
    """True when ``name`` (sans ``%``) names a modeled register."""
    return name.lstrip("%").lower() in _REGISTRY


def gpr_with_width(root: str, width: int) -> Register:
    """The sub-register view of GPR ``root`` at ``width`` bits.

    >>> gpr_with_width("rax", 32).name
    'eax'
    """
    if root not in _GPR_FAMILIES:
        raise UnknownRegisterError(f"{root!r} is not a GPR root")
    if width == 64:
        return get_register(root)
    r32, r16, r8 = _GPR_FAMILIES[root]
    try:
        return get_register({32: r32, 16: r16, 8: r8}[width])
    except KeyError:
        raise UnknownRegisterError(f"no {width}-bit view of {root}") from None


def xmm_of(index: int) -> Register:
    """The ``xmm`` register of a lane index (0-15)."""
    return get_register(f"xmm{index}")


def ymm_of(index: int) -> Register:
    """The ``ymm`` register of a lane index (0-15)."""
    return get_register(f"ymm{index}")


def all_registers() -> tuple[Register, ...]:
    """Every modeled architectural register name (deterministic order)."""
    return tuple(_REGISTRY.values())
