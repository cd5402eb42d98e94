"""Run the benchmark once per seed and summarize every metric.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
                                  [--workloads coverage,cycles] [--trace]
                                  [--write]

Runs ``run.py`` for seeds ``first-seed .. first-seed + runs - 1`` on each
workload, one run at a time, and prints each metric's median, quartiles and
spread (quartile distance over the median, as ``statistics.quantiles`` gives
the quartiles) next to its bound in ``BENCHMARK.json``. ``--write`` stores
the summary, stamped like the rows it came from, in
``perfbench/baseline.json`` (end-to-end and per-layer summaries are kept
side by side).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def _row(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    rows = [line[len("row "):] for line in proc.stdout.splitlines()
            if line.startswith("row ")]
    if proc.returncode != 0 or not rows:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(rows[-1])


def summarize(rows: list[dict]) -> dict:
    out = {}
    for name in rows[0]["metrics"]:
        values = [row["metrics"][name] for row in rows]
        if len(values) > 1:
            q1, mid, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = mid = q3 = values[0]
        out[name] = {"median": mid, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / mid if mid else 0.0}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        workload["name"] for workload in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric.get("bound")
              for metric in bench["end_to_end"] + bench["per_layer"]}

    section = "per_layer" if args.trace else "end_to_end"
    summary = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    stamp = None
    for workload in args.workloads.split(","):
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            rows.append(_row(workload, seed, bench["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: " + json.dumps(
                {"inputs": rows[-1]["inputs"], "cpus": rows[-1]["cpus"],
                 "walls": rows[-1]["walls"],
                 "metrics": rows[-1]["metrics"]}), flush=True)
        stamp = {key: rows[0][key]
                 for key in ("git_sha", "src_sha256", "python", "nproc",
                             "engine")}
        stats = summarize(rows)
        summary.setdefault(section, {})[workload] = {
            "seeds": [row["seed"] for row in rows],
            "failed": sum(row["failed"] for row in rows),
            "metrics": stats,
        }
        print(f"{workload}: {len(rows)} runs, "
              f"{sum(row['failed'] for row in rows)} failed operations")
        for name, entry in stats.items():
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}"
            print(f"  {name:<40} median {entry['median']:<14.6g} "
                  f"q1 {entry['q1']:<14.6g} q3 {entry['q3']:<14.6g} "
                  f"spread {entry['spread']:.4f}{note}")
    if args.write and stamp is not None:
        summary["stamp"] = dict(stamp, run_seconds=bench["run_seconds"])
        BASELINE.write_text(json.dumps(summary, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
