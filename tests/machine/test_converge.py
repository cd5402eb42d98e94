"""Golden digest trails: determinism, soundness plumbing, register snapshots.

The convergence early-exit contract starts with the trail itself: the
digest trail of one (program, input) unit must be a pure function of the
program's architectural behavior — identical across execution engines,
across processes, and across ``program.copy()`` (trails recorded by the
compose layer and the durable service must key caches identically no
matter which process or engine produced them).
"""

import pytest

from repro.machine.converge import (
    FIRST_INTERVAL,
    GIVE_UP_AFTER,
    TRAIL_CAP,
    ConvergenceTrail,
    _page_digest,
    record_trail,
)
from repro.machine.cpu import Machine
from repro.machine.memory import Memory, PAGE_SIZE
from repro.machine.state import RegisterFile
from repro.pipeline import build_variants
from repro.workloads import get_workload

ENGINE_NAMES = ("reference", "fused")


@pytest.fixture(scope="module")
def bfs_build():
    return build_variants(get_workload("bfs").source(1),
                          names=("raw", "ferrum"))


@pytest.fixture(scope="module")
def bfs_program(bfs_build):
    return bfs_build["ferrum"].asm


@pytest.fixture(scope="module")
def bfs_golden(bfs_program):
    return Machine(bfs_program).run()


@pytest.fixture(scope="module")
def bfs_trail(bfs_program):
    return record_trail(Machine(bfs_program))[1]


class TestTrailDeterminism:
    def test_fingerprint_identical_across_engines(self, bfs_program,
                                                  monkeypatch):
        fingerprints = set()
        for engine in ENGINE_NAMES:
            monkeypatch.setenv("FERRUM_ENGINE", engine)
            _, trail = record_trail(Machine(bfs_program))
            fingerprints.add(trail.fingerprint())
        assert len(fingerprints) == 1, (
            f"trail fingerprint differs across engines: {fingerprints}")

    def test_fingerprint_unchanged_by_program_copy(self, bfs_program,
                                                   bfs_trail):
        _, copied = record_trail(Machine(bfs_program.copy()))
        assert bfs_trail.fingerprint() == copied.fingerprint()

    def test_fingerprint_identical_across_processes(self, bfs_program,
                                                    bfs_trail):
        """Object identities (uids, dict order) never leak into the trail:
        a forked child recording the same trail fingerprints identically."""
        from repro.faultinjection.campaign import _fork_context

        context = _fork_context()
        if context is None:
            pytest.skip("fork start method unavailable")
        parent = bfs_trail.fingerprint()

        def child(conn):
            _, trail = record_trail(Machine(bfs_program))
            conn.send(trail.fingerprint())
            conn.close()

        ours, theirs = context.Pipe()
        process = context.Process(target=child, args=(theirs,))
        process.start()
        try:
            assert ours.recv() == parent
        finally:
            process.join()

    def test_trail_totals_match_golden(self, bfs_program, bfs_golden):
        """The trail pass is a golden run: its result is Machine.run's."""
        golden, trail = record_trail(Machine(bfs_program))
        assert golden == bfs_golden
        assert trail.golden == bfs_golden
        assert all(entry.site == (i + 1) * trail.interval
                   for i, entry in enumerate(trail.entries))

    def test_machine_still_runs_after_recording(self, bfs_program,
                                                bfs_golden):
        """record_trail restores the dirty-page bookkeeping it borrowed:
        the same machine must produce a bit-identical run afterwards."""
        machine = Machine(bfs_program)
        record_trail(machine)
        rerun = machine.run()
        assert rerun.output == bfs_golden.output
        assert rerun.exit_code == bfs_golden.exit_code
        assert rerun.dynamic_instructions == bfs_golden.dynamic_instructions

    def test_hook_observes_every_site_once(self, bfs_program, bfs_golden):
        """An observer hook riding the trail pass sees what it sees on a
        hooked Machine.run: every site, once, in order."""
        seen = []
        record_trail(Machine(bfs_program),
                     fault_hook=lambda machine, instr, site: seen.append(site))
        assert seen == list(range(bfs_golden.fault_sites))


class TestTrailCoarsening:
    """Folding halves the trail without losing a written page."""

    def test_entries_match_snapshots(self, bfs_program, bfs_trail):
        """At every entry ``k``: the pages written over ``entries[:k+1]``
        are exactly the pages ``digests[k]`` covers, and every digest is
        the page a fault-free run holds at that site — the determinism
        check of the one golden pass."""
        assert bfs_trail.interval > FIRST_INTERVAL  # the trail folded
        machine = Machine(bfs_program)
        written = [set() for _ in bfs_trail.entries[0].changed]
        cursor = None
        for entry in bfs_trail.entries:
            cursor = machine.run_to_site(entry.site, resume_from=cursor)
            for seg, (changed, digests, pages) in enumerate(zip(
                    entry.changed, entry.digests, cursor.memory.pages)):
                written[seg] |= changed
                assert written[seg] == digests.keys(), (entry.site, seg)
                assert digests == {page: _page_digest(data)
                                   for page, data in pages.items()}, (
                    entry.site, seg)


class TestTrailShape:
    def test_default_interval(self, bfs_build, bfs_golden, bfs_trail):
        """A short run keeps the first interval; a long one folds to an
        interval never coarser than ``max(16, sites // 512)``."""
        _, short = record_trail(Machine(bfs_build["raw"].asm))
        assert short.golden.fault_sites < FIRST_INTERVAL * TRAIL_CAP
        assert short.interval == FIRST_INTERVAL
        sites = bfs_golden.fault_sites
        assert FIRST_INTERVAL < bfs_trail.interval <= max(16, sites // 512)
        assert TRAIL_CAP // 2 <= len(bfs_trail.entries) < TRAIL_CAP

    def test_monitor_none_after_last_boundary(self, bfs_trail):
        trail = bfs_trail
        last = trail.entries[-1].site
        assert trail.monitor(last) is None
        assert trail.monitor(trail.golden.fault_sites - 1) is None
        monitor = trail.monitor(0)
        assert monitor is not None
        assert monitor.boundaries == trail.entries

    def test_monitor_boundaries_strictly_after_flip(self, bfs_trail):
        flip = bfs_trail.entries[0].site  # exactly on a boundary
        monitor = bfs_trail.monitor(flip)
        assert monitor.boundaries[0].site > flip

    def test_give_up_bound_is_finite(self):
        assert 1 <= GIVE_UP_AFTER <= 64

    def test_trail_is_frozen(self, bfs_trail):
        assert isinstance(bfs_trail, ConvergenceTrail)
        with pytest.raises(AttributeError):
            bfs_trail.interval = 1


class TestWriteWatch:
    def test_watch_isolates_new_writes(self):
        memory = Memory()
        base = memory.layout.globals_base
        memory.write_uint(base, 1, 8)
        saved = memory.begin_write_watch()
        assert all(not pages for pages in memory.watched_writes())
        memory.write_uint(base + PAGE_SIZE, 2, 8)
        watched = memory.watched_writes()
        assert any(pages for pages in watched)
        memory.end_write_watch(saved)
        # Both the pre-watch and the watched write are dirty again.
        snap = memory.snapshot()
        flat = {(seg, page) for seg, pages in enumerate(snap.pages)
                for page in pages}
        assert len(flat) >= 2

    def test_end_watch_restores_restore_semantics(self):
        """Dirty sets merged back by end_write_watch must keep
        snapshot/restore exact — restore zero-fills dirty-minus-snapshot
        pages, which only works on complete dirty sets."""
        memory = Memory()
        base = memory.layout.globals_base
        memory.write_uint(base, 0xAA, 8)
        snap = memory.snapshot()
        saved = memory.begin_write_watch()
        memory.write_uint(base + PAGE_SIZE, 0xBB, 8)
        memory.end_write_watch(saved)
        memory.restore(snap)
        assert memory.read_uint(base, 8) == 0xAA
        assert memory.read_uint(base + PAGE_SIZE, 8) == 0

    def test_page_view_is_live(self):
        memory = Memory()
        saved = memory.begin_write_watch()
        memory.write_uint(memory.layout.globals_base, 0x11, 8)
        watched = memory.watched_writes()
        seg = next(i for i, pages in enumerate(watched) if pages)
        page = next(iter(watched[seg]))
        view = memory.page_view(seg, page)
        assert len(view) == PAGE_SIZE
        assert view[0] == 0x11
        memory.end_write_watch(saved)


class TestRegisterSnapshots:
    def test_write_shows_in_next_snapshot(self):
        from repro.asm.registers import get_register

        regs = RegisterFile()
        first = regs.snapshot_state()
        regs.write(get_register("rax"), 7)
        second = regs.snapshot_state()
        assert first.gprs["rax"] == 0
        assert second.gprs["rax"] == 7

    def test_flip_shows_in_next_snapshot(self):
        from repro.asm.registers import get_register

        regs = RegisterFile()
        first = regs.snapshot_state()
        regs.flip(get_register("rax"), 3)
        assert regs.snapshot_state().gprs["rax"] == 8
        assert first.gprs["rax"] == 0

    def test_direct_writes_show_in_next_snapshot(self):
        regs = RegisterFile()
        regs.snapshot_state()
        regs._gprs["rax"] = 5   # compiled steps write the dicts directly
        regs.rflags = 0x40
        snap = regs.snapshot_state()
        assert snap.gprs["rax"] == 5
        assert snap.rflags == 0x40

    def test_restore_returns_state(self):
        from repro.asm.registers import get_register

        regs = RegisterFile()
        snap = regs.snapshot_state()
        regs.write(get_register("rbx"), 9)
        regs.restore_state(snap)
        assert regs.read(get_register("rbx")) == 0
        assert regs.snapshot_state() == snap

    def test_state_equals_matches_snapshot_semantics(self):
        from repro.asm.registers import get_register

        regs = RegisterFile()
        snap = regs.snapshot_state()
        assert regs.state_equals(snap)
        regs.write(get_register("rcx"), 1)
        assert not regs.state_equals(snap)
        regs.restore_state(snap)
        assert regs.state_equals(snap)
