"""Builtin runtime functions the machine provides to compiled programs.

The mini-C workloads rely on a tiny libc-like runtime; rather than compiling
one, the machine services these calls natively (they are *not* fault-
injection targets, mirroring how the paper's protection scope excludes
library code). Arguments arrive in the SysV integer argument registers,
results return in ``rax``.

Provided:

* ``malloc(size)`` / ``free(ptr)`` — bump allocator over the heap segment.
* ``print_int(x)`` / ``print_long(x)`` — append a line of program output.
* ``srand(seed)`` / ``rand_next()`` — deterministic LCG, so workload inputs
  are reproducible across raw and protected runs.
* ``exit(code)`` — stop the program.
* ``__eddi_detect()`` — the detection handler every checker jumps to; raises
  :class:`DetectionExit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import DetectionExit, MachineFault
from repro.utils.bitops import to_signed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.cpu import Machine

#: Name of the detection handler checkers call (the paper's
#: ``exit_function``).
DETECT_FUNCTION = "__eddi_detect"

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _arg(machine: "Machine", index: int) -> int:
    from repro.asm.registers import ARG_GPRS, get_register

    return machine.registers.read(get_register(ARG_GPRS[index]))


def _builtin_malloc(machine: "Machine") -> int:
    size = _arg(machine, 0)
    aligned = (size + 15) & ~15
    layout = machine.memory.layout
    if machine.heap_cursor + aligned > layout.heap_base + layout.heap_size:
        raise MachineFault(f"heap exhausted allocating {size} bytes")
    addr = machine.heap_cursor
    machine.heap_cursor += max(aligned, 16)
    return addr


def _builtin_free(machine: "Machine") -> int:
    # Bump allocator: free is a no-op, like many arena allocators.
    return 0


def _builtin_print_int(machine: "Machine") -> int:
    value = to_signed(_arg(machine, 0), 32)
    machine.output.append(str(value))
    return 0


def _builtin_print_long(machine: "Machine") -> int:
    value = to_signed(_arg(machine, 0), 64)
    machine.output.append(str(value))
    return 0


def _builtin_srand(machine: "Machine") -> int:
    machine.lcg_state = _arg(machine, 0) & _LCG_MASK
    return 0


def _builtin_rand_next(machine: "Machine") -> int:
    machine.lcg_state = (machine.lcg_state * _LCG_MULT + _LCG_INC) & _LCG_MASK
    # Positive 31-bit result, like libc rand().
    return (machine.lcg_state >> 33) & 0x7FFF_FFFF


def _builtin_exit(machine: "Machine") -> int:
    machine.request_exit(to_signed(_arg(machine, 0), 32))
    return 0


def _builtin_detect(machine: "Machine") -> int:
    raise DetectionExit("EDDI checker reported a mismatch")


_BUILTINS: dict[str, Callable[["Machine"], int]] = {
    "malloc": _builtin_malloc,
    "free": _builtin_free,
    "print_int": _builtin_print_int,
    "print_long": _builtin_print_long,
    "srand": _builtin_srand,
    "rand_next": _builtin_rand_next,
    "exit": _builtin_exit,
    DETECT_FUNCTION: _builtin_detect,
}


def is_builtin(name: str) -> bool:
    """True when ``name`` is serviced natively by the machine."""
    return name in _BUILTINS


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def get_builtin(name: str) -> Callable[["Machine"], int]:
    """The builtin callable itself, for pre-resolution at program load."""
    return _BUILTINS[name]
