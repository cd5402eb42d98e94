"""Self-time arithmetic and probe installation of the benchmark's tracer."""

from __future__ import annotations

import pytest
import spans
from spans import Probe, Probes, Tracer


class FakeClock:
    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_spans():
    # inject [0, 10] > faulted run [1, 7] > restore [2, 3]; then a second
    # top-level golden run [10, 12].
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 7, 10, 10, 12))
    inject = tracer.enter("faultinjection.inject")
    run = tracer.enter("machine.faulted")
    restore = tracer.enter("machine.restore")
    tracer.exit(restore)
    tracer.exit(run)
    tracer.exit(inject)
    golden = tracer.enter("machine.golden")
    tracer.exit(golden)

    totals = spans.fold(tracer.spans)
    assert totals.self_s == {
        "faultinjection.inject": 4.0,
        "machine.faulted": 5.0,
        "machine.restore": 1.0,
        "machine.golden": 2.0,
    }
    assert totals.top_level_s == 12.0
    assert sum(totals.self_s.values()) == totals.top_level_s
    assert totals.durations["faultinjection.inject"] == [10.0]


def test_spans_must_close_in_order():
    tracer = Tracer(clock=FakeClock(0, 1))
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_probes_classify_runs_inside_an_injection():
    from repro.faultinjection import campaign
    from repro.pipeline import build_variants

    program = build_variants(
        "int main() { int a = 6; print_int(a * 7); return 0; }",
        names=("raw",))["raw"].asm
    tracer = Tracer()
    with Probes(tracer):  # wrappers replace the module's binding
        campaign.run_campaign(program, 5, seed=3)
    assert spans.installed_wrappers() == []

    names = [span[0] for span in tracer.spans]
    assert names[0] == "faultinjection.campaign"
    assert names.count("faultinjection.inject") == 5
    assert names.count("machine.faulted") == 5
    assert "machine.golden" in names and "machine.cursor" in names
    for name, _start, _end, parent in tracer.spans:
        if name == "machine.faulted":
            assert tracer.spans[parent][0] == "faultinjection.inject"
    totals = spans.fold(tracer.spans)
    assert sum(totals.self_s.values()) == pytest.approx(totals.top_level_s)
    assert tracer.counters["machine.golden.instr"] > 0


def test_renamed_target_fails_install_and_restores_bindings():
    import repro.pipeline

    original = repro.pipeline.build_variants
    probes = Probes(Tracer(), (
        Probe("pipeline.build", "repro.pipeline:build_variants"),
        Probe("pipeline.build", "repro.pipeline:no_such_function"),
    ))
    with pytest.raises(AttributeError, match="renamed"):
        probes.install()
    assert repro.pipeline.build_variants is original
    assert spans.installed_wrappers() == []


def test_missing_spans_name_every_assigned_span_that_never_fired():
    tracer = Tracer()
    tracer.exit(tracer.enter("pipeline.build"))
    missing = spans.missing_spans(tracer, "compile")
    assert "pipeline.build" not in missing
    assert "minic.compile" in missing and "core.ferrum" in missing
    assert "machine.timing" not in missing  # assigned to cycles only


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert spans.tail(list(range(1000))) == (99.0, 989)
    assert spans.tail(list(range(200)))[0] == 95.0
    assert spans.tail(list(range(19))) == (0.0, 0.0)
