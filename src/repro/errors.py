"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MiniCError(ReproError):
    """Base class for frontend (mini-C) errors."""


class LexError(MiniCError):
    """Raised when the lexer meets a character it cannot tokenize."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(MiniCError):
    """Raised when the parser meets an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SemanticError(MiniCError):
    """Raised by semantic analysis (type errors, undefined names...)."""


class IRError(ReproError):
    """Base class for IR-level errors."""


class IRVerifyError(IRError):
    """Raised when an IR module violates a structural invariant."""


class IRInterpError(IRError):
    """Raised when the IR interpreter meets an unexecutable situation."""


class BackendError(ReproError):
    """Raised by the IR -> assembly backend."""


class AsmError(ReproError):
    """Base class for assembly-layer errors."""


class AsmParseError(AsmError):
    """Raised when assembly text cannot be parsed."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class UnknownRegisterError(AsmError):
    """Raised when a register name does not exist on the target."""


class TransformError(ReproError):
    """Raised when a protection transform cannot be applied."""


class MachineError(ReproError):
    """Base class for machine-simulator errors."""


class MachineFault(MachineError):
    """An architectural fault (e.g. out-of-bounds memory access).

    In outcome classification these map to *crash*.
    """


class SegmentationFault(MachineFault):
    """Memory access outside any mapped segment."""


class EngineConfigError(MachineFault, ValueError):
    """An unknown execution engine was requested.

    Raised for a bad ``engine=`` argument or ``FERRUM_ENGINE`` value; the
    message lists the valid engine names. Derives from both
    :class:`MachineFault` (the machine-layer hierarchy) and ``ValueError``
    (it is a configuration error, not an architectural event).
    """


class IllegalInstructionError(MachineFault):
    """The CPU met an instruction it cannot execute."""


class ExecutionLimitExceeded(MachineError):
    """The dynamic instruction budget was exhausted (classified as timeout)."""


class DetectionExit(MachineError):
    """A protection checker detected a mismatch and stopped the program.

    This is the *success* path of an EDDI transform at runtime; the fault
    injection campaign classifies it as *detected*.
    """


class DmeDivergenceError(MachineError):
    """The two DME variants diverged on a fault-free run.

    This must never happen: the decorrelated variant is required to be
    observably identical to the primary in the absence of faults. A
    divergence without an injected fault is a compiler/decorrelation bug
    (and a fuzz-oracle finding), not a detection — detections under an
    injected fault raise :class:`DetectionExit` instead.
    """


class InjectionError(ReproError):
    """Raised when a fault cannot be injected as requested."""


class JournalError(ReproError):
    """Raised on a journal integrity violation (non-tail corruption)."""


class ServiceError(ReproError):
    """Raised by the durable campaign service (bad spec, state mismatch...)."""


class WorkloadError(ReproError):
    """Raised when a workload is missing or mis-configured."""
