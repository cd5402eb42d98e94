"""Architectural register file with x86-64 sub-register semantics.

Values are stored per register *root* (64-bit GPRs, 256-bit vectors). Reads
extract the view width; writes follow the hardware rules:

* 64-bit GPR writes replace the root;
* 32-bit writes zero-extend into the root (the famous x86-64 rule);
* 16/8-bit writes merge, preserving upper bits;
* 128-bit (xmm) writes merge into the low lane of the ymm root, preserving
  the upper lane — legacy-SSE behaviour, which FERRUM's ``movq``/``pinsrq``
  batching relies on;
* 256-bit writes replace the vector root.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.registers import GPR64, Register, RegisterKind
from repro.utils.bitops import flip_bit, mask_for_width, to_unsigned


@dataclass(frozen=True)
class RegisterFileSnapshot:
    """Immutable deep copy of one :class:`RegisterFile`'s state.

    Values are plain ints, so the copy cost is two small dict copies; the
    snapshot is safe to hold across arbitrary machine mutation and to share
    between forked campaign workers.
    """

    gprs: dict[str, int]
    vectors: dict[str, int]
    rflags: int


class RegisterFile:
    """GPRs, vector registers and RFLAGS of one hardware thread.

    The backing dicts (``_gprs``/``_vectors``) are identity-stable for the
    lifetime of the register file: :meth:`reset` and :meth:`restore_state`
    mutate them in place rather than rebinding. The fused execution engine
    (:mod:`repro.machine.translate`) relies on this — its compiled steps
    and superblocks capture the dicts once at translation time and write
    them directly, so the file keeps no state derived from them.
    """

    def __init__(self) -> None:
        self._gprs: dict[str, int] = {root: 0 for root in GPR64}
        self._vectors: dict[str, int] = {f"ymm{i}": 0 for i in range(16)}
        self.rflags: int = 0

    def reset(self) -> None:
        """Zero every register in place (same dict objects, fresh values)."""
        gprs = self._gprs
        for root in gprs:
            gprs[root] = 0
        vectors = self._vectors
        for root in vectors:
            vectors[root] = 0
        self.rflags = 0

    # -- typed accessors -------------------------------------------------

    def read(self, reg: Register) -> int:
        """Read a register view as an unsigned int of its width."""
        if reg.kind is RegisterKind.GPR:
            return self._gprs[reg.root] & mask_for_width(reg.width)
        if reg.kind is RegisterKind.VECTOR:
            return self._vectors[reg.root] & mask_for_width(reg.width)
        if reg.kind is RegisterKind.FLAGS:
            return self.rflags
        raise ValueError(f"cannot read register {reg.name}")

    def write(self, reg: Register, value: int) -> None:
        """Write a register view, applying the width-dependent merge rules."""
        if reg.kind is RegisterKind.GPR:
            value = to_unsigned(value, reg.width)
            if reg.width == 64:
                self._gprs[reg.root] = value
            elif reg.width == 32:
                self._gprs[reg.root] = value  # implicit zero-extension
            else:
                mask = mask_for_width(reg.width)
                self._gprs[reg.root] = (self._gprs[reg.root] & ~mask) | value
        elif reg.kind is RegisterKind.VECTOR:
            value = to_unsigned(value, reg.width)
            if reg.width == 256:
                self._vectors[reg.root] = value
            else:  # xmm view: merge into low 128 bits, preserve upper lane
                mask = mask_for_width(128)
                self._vectors[reg.root] = (self._vectors[reg.root] & ~mask) | value
        elif reg.kind is RegisterKind.FLAGS:
            self.rflags = to_unsigned(value, 64)
        else:
            raise ValueError(f"cannot write register {reg.name}")

    # -- fault injection ---------------------------------------------------

    def flip(self, reg: Register, bit: int) -> None:
        """Flip one bit of a register view in place (the fault primitive)."""
        if reg.kind is RegisterKind.FLAGS:
            self.rflags = flip_bit(self.rflags, bit, 64)
            return
        value = self.read(reg)
        self.write(reg, flip_bit(value, bit, reg.width))

    def snapshot(self) -> dict[str, int]:
        """Copy of all register state (tests use this to diff runs)."""
        state = dict(self._gprs)
        state.update(self._vectors)
        state["rflags"] = self.rflags
        return state

    # -- checkpoint/restore ------------------------------------------------

    def snapshot_state(self) -> RegisterFileSnapshot:
        """Snapshot for checkpoint/restore (see :mod:`repro.machine.cpu`)."""
        return RegisterFileSnapshot(
            gprs=dict(self._gprs),
            vectors=dict(self._vectors),
            rflags=self.rflags,
        )

    def state_equals(self, snap: RegisterFileSnapshot) -> bool:
        """True iff the live state equals ``snap`` (no copies).

        The convergence monitor compares a faulted run's registers against
        golden trail entries at every boundary; a direct dict compare keeps
        that hot path allocation-free.
        """
        return (
            self.rflags == snap.rflags
            and self._gprs == snap.gprs
            and self._vectors == snap.vectors
        )

    def restore_state(self, snap: RegisterFileSnapshot) -> None:
        """Restore every register exactly as captured by ``snapshot_state``.

        In-place: snapshots always carry every root, so a dict update
        overwrites the complete state without rebinding the backing dicts
        (which compiled execution steps hold by reference).
        """
        self._gprs.update(snap.gprs)
        self._vectors.update(snap.vectors)
        self.rflags = snap.rflags
