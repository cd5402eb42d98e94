"""Fig. 11: runtime performance overhead per benchmark.

Benchmarks the simulated execution of each variant (wall-clock of the
simulator run, via pytest-benchmark) and reports the paper's metric — the
cycle-model overhead relative to the unprotected binary — through
``extra_info`` and a printed summary table. Rows come from ``run_fig11``,
which ``ferrum-eval fig11`` also runs.
"""

import pytest

from conftest import SCALE, SELECTED, emit
from repro.evaluation.experiments import Fig11Result, TECHNIQUES, run_fig11
from repro.evaluation.metrics import speedup_in_overhead
from repro.evaluation.figures import render_fig11_chart
from repro.evaluation.report import render_fig11

_rows: dict[str, dict[str, object]] = {}


def _overhead_row(name: str) -> dict[str, object]:
    if name not in _rows:
        (_rows[name],) = run_fig11(scale=SCALE, workloads=(name,),
                                   repeats=1).rows
    return _rows[name]


@pytest.mark.parametrize("name", SELECTED)
def test_fig11_benchmark(benchmark, name):
    row = benchmark.pedantic(_overhead_row, args=(name,), rounds=1,
                             iterations=1)
    overheads = {t: float(row[t]) for t in TECHNIQUES}
    for technique, value in overheads.items():
        benchmark.extra_info[f"overhead_{technique}"] = round(value, 4)

    # Paper Fig. 11 shape: FERRUM cheapest, hybrid most expensive.
    assert overheads["ferrum"] < overheads["ir-eddi"] < overheads["hybrid"]
    assert all(value > 0 for value in overheads.values())


def test_fig11_summary(benchmark, capsys):
    def summarize() -> Fig11Result:
        result = Fig11Result()
        result.rows = [_overhead_row(name) for name in SELECTED]
        return result

    result = benchmark.pedantic(summarize, rounds=1, iterations=1)
    emit(capsys, render_fig11(result))
    emit(capsys, render_fig11_chart(result))

    ferrum = result.average_overhead("ferrum")
    ir_eddi = result.average_overhead("ir-eddi")
    hybrid = result.average_overhead("hybrid")
    speedup = speedup_in_overhead(ir_eddi, ferrum)
    emit(capsys, f"FERRUM overhead reduction vs IR-LEVEL-EDDI: "
                 f"{speedup * 100:.1f}% (paper: ~52%)")

    # Paper averages: 62.27 % / 83.39 % / 29.83 %. Shape assertions:
    assert ferrum < ir_eddi < hybrid
    assert speedup >= 0.3, "FERRUM should cut IR-EDDI overhead substantially"
