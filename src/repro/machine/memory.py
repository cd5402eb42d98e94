"""Segmented byte-addressable memory.

Three segments cover what compiled workloads need: a heap served by the
``malloc`` builtin, a downward-growing stack, and a small globals area. Any
access outside a mapped segment raises :class:`SegmentationFault`, which the
fault-injection campaign classifies as a crash — exactly how a wild pointer
dereference behaves on the paper's real machine.

Writes are tracked at page granularity (:data:`PAGE_SIZE`), which makes
:meth:`Memory.snapshot` / :meth:`Memory.restore` cost O(touched pages)
instead of O(address space) — the primitive under the checkpointed
fault-injection engine (see ``docs/fault_model.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SegmentationFault

#: Granularity of dirty tracking for memory snapshots (bytes).
PAGE_SIZE = 4096
_PAGE_SHIFT = 12


@dataclass(frozen=True)
class MemoryLayout:
    """Base addresses and sizes of the three segments (bytes)."""

    globals_base: int = 0x0001_0000
    globals_size: int = 16 * 1024
    heap_base: int = 0x0010_0000
    heap_size: int = 2 * 1024 * 1024
    stack_top: int = 0x7FFF_0000
    stack_size: int = 256 * 1024

    @property
    def stack_base(self) -> int:
        return self.stack_top - self.stack_size


@dataclass(frozen=True)
class MemorySnapshot:
    """Dirty pages of every segment at one instant.

    ``pages[i]`` maps page index -> immutable page contents for segment
    ``i`` (in :class:`Memory`'s segment order); only pages written since the
    memory was constructed appear, so snapshot size tracks the program's
    working set, not the mapped address space.
    """

    pages: tuple[dict[int, bytes], ...]


class _Segment:
    __slots__ = ("name", "start", "data", "dirty")

    def __init__(self, name: str, start: int, size: int) -> None:
        self.name = name
        self.start = start
        self.data = bytearray(size)
        self.dirty: set[int] = set()

    @property
    def end(self) -> int:
        return self.start + len(self.data)

    def contains(self, addr: int, size: int) -> bool:
        return self.start <= addr and addr + size <= self.end

    def snapshot_pages(self) -> dict[int, bytes]:
        data = self.data
        return {
            page: bytes(data[page << _PAGE_SHIFT : (page + 1) << _PAGE_SHIFT])
            for page in self.dirty
        }

    def reset(self) -> None:
        """Zero every dirty page in place; cost is O(pages written so far)."""
        data = self.data
        size = len(data)
        for page in self.dirty:
            start = page << _PAGE_SHIFT
            end = min(start + PAGE_SIZE, size)
            data[start:end] = bytes(end - start)
        self.dirty.clear()

    def restore_pages(self, pages: dict[int, bytes]) -> None:
        data = self.data
        # Pages written after the snapshot but untouched before it revert
        # to their zero-fill state.
        for page in self.dirty - pages.keys():
            start = page << _PAGE_SHIFT
            data[start : start + PAGE_SIZE] = bytes(PAGE_SIZE)
        for page, contents in pages.items():
            start = page << _PAGE_SHIFT
            data[start : start + len(contents)] = contents
        # In place, not rebound: the fused execution engine captures
        # ``dirty.add`` as a bound method at translation time, so the set —
        # like the backing bytearray — must stay identity-stable across
        # restores.
        self.dirty.clear()
        self.dirty.update(pages)


class Memory:
    """Little-endian memory over the configured segments."""

    def __init__(self, layout: MemoryLayout | None = None) -> None:
        self.layout = layout or MemoryLayout()
        # Stack first: rbp-relative slot traffic dominates -O0 code, so the
        # linear segment scan should hit it on the first probe.
        self._segments = (
            _Segment("stack", self.layout.stack_base, self.layout.stack_size),
            _Segment("heap", self.layout.heap_base, self.layout.heap_size),
            _Segment("globals", self.layout.globals_base, self.layout.globals_size),
        )

    def _segment_for(self, addr: int, size: int) -> _Segment:
        for seg in self._segments:
            if seg.contains(addr, size):
                return seg
        raise SegmentationFault(
            f"access of {size} bytes at {addr:#x} hits no mapped segment"
        )

    def read_uint(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as a little-endian unsigned int."""
        seg = self._segment_for(addr, size)
        off = addr - seg.start
        return int.from_bytes(seg.data[off : off + size], "little")

    def write_uint(self, addr: int, value: int, size: int) -> None:
        """Write the low ``size`` bytes of ``value`` at ``addr``."""
        seg = self._segment_for(addr, size)
        off = addr - seg.start
        seg.data[off : off + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
            size, "little"
        )
        first = off >> _PAGE_SHIFT
        last = (off + size - 1) >> _PAGE_SHIFT
        seg.dirty.add(first)
        if last != first:
            seg.dirty.add(last)

    def read_bytes(self, addr: int, size: int) -> bytes:
        seg = self._segment_for(addr, size)
        off = addr - seg.start
        return bytes(seg.data[off : off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        seg = self._segment_for(addr, len(data))
        off = addr - seg.start
        seg.data[off : off + len(data)] = data
        seg.dirty.update(
            range(off >> _PAGE_SHIFT, ((off + len(data) - 1) >> _PAGE_SHIFT) + 1)
        )

    def reset(self) -> None:
        """Return memory to its zero-fill construction state, in place.

        Only pages actually written are cleared, so resetting between runs
        is O(working set) rather than O(address space). The segment
        bytearrays keep their identity — the fused execution engine captures
        this object (its bound read/write methods and segment buffers) once
        at translation time.
        """
        for seg in self._segments:
            seg.reset()

    # -- divergence-cone write tracking ------------------------------------

    def begin_write_watch(self) -> tuple[set[int], ...]:
        """Start tracking pages written from this instant.

        Each segment's dirty set is saved aside and cleared *in place* (the
        fused engine captures ``dirty.add`` as a bound method at translation
        time, so the set object must keep its identity). Until
        :meth:`end_write_watch` the live dirty sets contain exactly the
        pages written since this call — the memory half of a faulted run's
        divergence cone (see :mod:`repro.machine.converge`).
        """
        saved = tuple(set(seg.dirty) for seg in self._segments)
        for seg in self._segments:
            seg.dirty.clear()
        return saved

    def watched_writes(self) -> tuple[set[int], ...]:
        """Per-segment pages written since :meth:`begin_write_watch`.

        Returns the live dirty sets — read-only use; copy before mutating.
        """
        return tuple(seg.dirty for seg in self._segments)

    def end_write_watch(self, saved: tuple[set[int], ...]) -> None:
        """Merge the pre-watch dirty pages back into the live sets.

        Must run before any :meth:`restore`: the restore path zero-fills
        ``dirty - snapshot`` pages, so a truncated dirty set would leak
        stale page contents into the next run.
        """
        for seg, before in zip(self._segments, saved):
            seg.dirty |= before

    def page_view(self, segment: int, page: int) -> memoryview:
        """Read-only, copy-free view of one page of segment ``segment``."""
        seg = self._segments[segment]
        start = page << _PAGE_SHIFT
        return memoryview(seg.data)[start : start + PAGE_SIZE]

    # -- checkpoint/restore ------------------------------------------------

    def snapshot(self) -> MemorySnapshot:
        """Capture every dirty page; cost is O(pages written so far)."""
        return MemorySnapshot(
            pages=tuple(seg.snapshot_pages() for seg in self._segments)
        )

    def restore(self, snap: MemorySnapshot) -> None:
        """Return memory exactly to ``snap``'s contents.

        Cost is O(pages dirty now ∪ pages dirty at snapshot time): dirtied
        pages absent from the snapshot are zeroed, snapshotted pages are
        copied back, everything else is untouched (still zero-fill).
        """
        for seg, pages in zip(self._segments, snap.pages):
            seg.restore_pages(pages)
