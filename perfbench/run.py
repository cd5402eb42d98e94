"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coverage --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a fresh interpreter
(``worker.py``), which also starts the fresh interpreters whose set-up times
give ``setup_s``. Every metric is printed by name with its unit, then a
``row`` line stamped with the code and host it ran on, and last one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The metric names and units are those of
``BENCHMARK.json``: its end-to-end metrics untraced, its per-layer metrics
with ``--trace 1``. The exit code is 0 only when every operation matched its
pinned output and, traced, every span assigned to the workload fired.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Budget for the whole command, below the 180 s a run may take.
TIME_LIMIT_S = 170.0


def _git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git (a checkout
    that is not a repository has none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(root: Path) -> str:
    """Digest of every source file, naming the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _spawn(cmd: list[str], deadline: float) -> dict:
    """Run ``worker.py``; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - began))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"extra {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=str(HERE / "pins.json"),
                        help="pinned outputs to check against")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in bench[kind]}
    spec = workloads.WORKLOADS[args.workload]

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", args.pins, "--workdir", str(workdir)]
    try:
        report = _spawn(cmd, deadline)
        walls, setups = report["walls"], report["setups"]
        if args.trace:
            values = {name: entry["value"]
                      for name, entry in report["layers"].items()}
        else:
            # Each operation at its fastest: passes repeat identical work,
            # and other tenants of a shared host only ever slow one down,
            # in bursts of a few seconds. CPU time, not wall time, because
            # the kernel leaves out the time the host lent the cores away.
            pass_cpu_s = sum(min(cpus) for cpus in report["op_cpus"].values())
            values = {
                "setup_s": statistics.median(setups),
                "pass_cpu_s": pass_cpu_s,
                "items_per_cpu_s": report["items"] / pass_cpu_s,
                "peak_rss_mib": report["peak_rss_mib"],
            }
        metrics = _with_units(values, units)
    except (OSError, RuntimeError, ValueError, KeyError, ZeroDivisionError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        try:
            workdir.rmdir()
        except OSError:
            pass

    attempted, failed = report["attempted"], report["failed"]
    problems = []
    if not report["pinned"]:
        problems.append(f"no pinned outputs for inputs {report['pin_key']}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if report["errors"]:
        problems.append(f"{len(report['errors'])} passes raised")
    if args.trace and report["missing_spans"]:
        problems.append("spans never fired on this workload: "
                        + ", ".join(report["missing_spans"]))
    if args.trace and report["leftover_wrappers"]:
        problems.append("probes left installed: "
                        + ", ".join(report["leftover_wrappers"]))

    stamp = {
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "slot": workloads.slot_of(args.seed),
        "engine": report["engine"],
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"slot={stamp['slot']} trace={args.trace}")
    print("inputs " + json.dumps(report["inputs"], sort_keys=True))
    print("stamp " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    print(f"passes {len(walls)} untraced, {len(report['traced_walls'])} "
          f"traced; setups {len(setups)}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {spec.metric + ' (items_per_cpu_s)':<40} "
              f"{metrics['items_per_cpu_s']['value']:>16.6g} {spec.unit}")
        # Not a listed metric: wall time carries the host's other tenants.
        print(f"  {'wall_s (all passes)':<40} {sum(walls):>16.6g} s")
    failed_frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<40} {failed_frac:>16.6g} ratio "
          f"({failed}/{attempted} operations)")
    if args.trace:
        zero = sorted(span for span, names in spans.EXPECTED_ZERO.items()
                      if args.workload in names)
        print("expected zero today: " + ", ".join(zero))
    row = dict(stamp, workload=args.workload, trace=args.trace,
               inputs=report["inputs"], failed_frac=failed_frac,
               attempted=attempted, failed=failed, walls=walls,
               cpus=report["cpus"], setups=setups,
               traced_walls=report["traced_walls"], metrics={name: entry["value"]
                        for name, entry in metrics.items()})
    print("row " + json.dumps(row, sort_keys=True))
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
