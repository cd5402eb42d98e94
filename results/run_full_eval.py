"""Full evaluation run: all figures/tables, saved to results/."""
import json, time, sys
from pathlib import Path

from repro.evaluation import (
    run_fig10, run_fig11, run_transform_time, run_crosslayer_gap,
    render_fig10, render_fig11, render_transform_time, render_gap,
    render_table1, render_table2,
)
from repro.evaluation.report import render_fig10_outcomes
from repro.faultinjection.outcome import Outcome

SAMPLES = int(sys.argv[1]) if len(sys.argv) > 1 else 100
RESULTS = Path(__file__).resolve().parent

out = []
t0 = time.time()
out.append(render_table1()); out.append("")
out.append(render_table2()); out.append("")
print(f"[{time.time()-t0:6.0f}s] tables done", flush=True)

fig11 = run_fig11()
out.append(render_fig11(fig11)); out.append("")
print(f"[{time.time()-t0:6.0f}s] fig11 done", flush=True)

tt = run_transform_time()
out.append(render_transform_time(tt)); out.append("")
print(f"[{time.time()-t0:6.0f}s] transform-time done", flush=True)

fig10 = run_fig10(samples=SAMPLES)
out.append(render_fig10(fig10)); out.append("")
out.append(render_fig10_outcomes(fig10)); out.append("")
print(f"[{time.time()-t0:6.0f}s] fig10 done", flush=True)

gap = run_crosslayer_gap(samples=SAMPLES)
out.append(render_gap(gap)); out.append("")
print(f"[{time.time()-t0:6.0f}s] gap done", flush=True)

with open(RESULTS / "full_eval.txt", "w") as f:
    f.write("\n".join(out))

summary = {
    "samples": SAMPLES,
    "fig11_avg": {t: fig11.average_overhead(t) for t in ("ir-eddi","hybrid","ferrum")},
    "fig10_avg": {t: fig10.average_coverage(t) for t in ("ir-eddi","hybrid","ferrum")},
    "fig10_rows": [
        {"benchmark": r.benchmark,
         "raw_sdc": r.raw.sdc_probability,
         **{t: r.coverage(t) for t in ("ir-eddi","hybrid","ferrum")}}
        for r in fig10.rows
    ],
    "gap_avg": gap.average_gap,
    "gap_rows": gap.rows,
    "transform_ms": [dict(r, seconds=float(r["seconds"])) for r in tt.rows],
}
with open(RESULTS / "full_eval.json", "w") as f:
    json.dump(summary, f, indent=2, default=str)
print("ALL DONE", time.time()-t0, flush=True)
