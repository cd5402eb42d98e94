"""Sec. I / IV-B1: the cross-layer coverage gap of IR-LEVEL-EDDI.

Measures IR-EDDI's SDC coverage twice per benchmark — with LLFI-style
IR-level injection (the "anticipated" number) and with PINFI-style
assembly-level injection (the "measured" number). The paper's finding: a
non-negligible gap (28 % on average) that motivates assembly-level
protection in the first place. Rows come from ``run_crosslayer_gap``,
which ``ferrum-eval gap`` also runs.
"""

import pytest

from conftest import FI_SAMPLES, SCALE, SELECTED, emit
from repro.evaluation.experiments import GapResult, run_crosslayer_gap
from repro.evaluation.report import render_gap

_rows: dict[str, dict[str, object]] = {}


def _gap_row(name: str) -> dict[str, object]:
    if name not in _rows:
        (_rows[name],) = run_crosslayer_gap(samples=FI_SAMPLES, scale=SCALE,
                                            workloads=(name,)).rows
    return _rows[name]


@pytest.mark.parametrize("name", SELECTED)
def test_gap_benchmark(benchmark, name):
    row = benchmark.pedantic(_gap_row, args=(name,), rounds=1, iterations=1)
    benchmark.extra_info.update(
        {k: round(float(v), 4) for k, v in row.items() if k != "benchmark"}
    )
    # At IR level, IR-EDDI looks (near-)perfect.
    assert float(row["anticipated"]) >= 0.9


def test_gap_summary(benchmark, capsys):
    def summarize() -> GapResult:
        result = GapResult(samples=FI_SAMPLES, seed=77)
        result.rows = [_gap_row(name) for name in SELECTED]
        return result

    result = benchmark.pedantic(summarize, rounds=1, iterations=1)
    emit(capsys, render_gap(result))

    # Paper headline: anticipated (IR-level) coverage systematically
    # exceeds measured (assembly-level) coverage. The paper reports a 28 %
    # average gap on real hardware; our -O0 substrate shows the same
    # direction with a smaller magnitude (see EXPERIMENTS.md).
    assert result.average_gap >= 0
    if FI_SAMPLES >= 20 and len(SELECTED) >= 4:
        assert result.average_gap > 0
        assert max(float(r["gap"]) for r in result.rows) > 0.03
