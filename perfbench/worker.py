"""One benchmark process: set a workload up from its seed, then time it.

``run.py`` starts this file in a fresh interpreter, so set-up covers
starting the interpreter, importing ``repro`` and drawing the inputs. A
set-up time is the process's CPU time (user + system) at the first timed
call. With ``--setup-only`` the process stops there.

Otherwise it runs a fixed number of passes, as many as fill ``--seconds`` at
the workload's nominal pass time (at least three, so the run length is the
same on every commit). Every operation of a pass (a campaign, a timing run,
a program build) is timed on its own by the wall and CPU clocks; a pass's
time is the sum over its operations. Untraced, fresh ``--setup-only``
interpreters started between passes, from before the first to after the
last, give the run's other set-up times, so that the set-up samples are
spread over the whole run. Each pass is checked against the pinned outputs
outside the timed region, and one JSON report is the last line of standard
output.

With ``--trace 1`` untraced and traced passes alternate, so the trace
overhead is measured inside the run; the per-layer metrics come from the
traced passes only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

#: Imported during set-up by every workload, so no pass pays for an import
#: (the machine engines and the compose and DME layers load lazily).
SETUP_IMPORTS = (
    "repro.evaluation.experiments",
    "repro.faultinjection.compose",
    "repro.faultinjection.dme",
    "repro.machine.translate",
    "repro.asm.printer",
    "repro.fuzz.generator",
)

#: Set-up times per untraced run: this process and fresh ``--setup-only``
#: interpreters started between passes.
SETUP_SAMPLES = 7

#: A program small enough to compile in set-up's shadow, to read the
#: engine a constructed Machine picks.
_PROBE_SOURCE = "int main() { print_int(1); return 0; }"


def _engine() -> str:
    from repro.backend import compile_module
    from repro.machine.cpu import Machine
    from repro.minic import compile_to_ir

    return Machine(compile_module(compile_to_ir(_PROBE_SOURCE))).engine


def _setup_cpu_s() -> float:
    """Set-up time of a fresh ``--setup-only`` copy of this process."""
    proc = subprocess.run([sys.executable] + sys.argv + ["--setup-only"],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_cpu_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    for module in SETUP_IMPORTS:
        importlib.import_module(module)
    spec = workloads.WORKLOADS[args.workload]
    inputs = spec.draw(args.seed)
    weights = spec.weights(inputs)
    setups = [time.process_time()]
    if args.setup_only:
        print(json.dumps({"setup_cpu_s": setups[0]}))
        return 0

    pins = workloads.load_pins(args.pins).get("workloads", {})
    key = workloads.pin_key(inputs)
    expected = pins.get(args.workload, {}).get(key)
    probes = tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        probes = spans.Probes(tracer)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=args.workdir))
    memo: dict = {}
    walls: list[float] = []
    traced_walls: list[float] = []
    cpus: list[float] = []
    op_cpus: dict[str, list[float]] = {}
    items = 0.0
    attempted = failed = 0
    errors: list[str] = []
    passes = max(3, round(args.seconds / spec.pass_s))
    # Before pass i (i == passes: after the last), spread evenly.
    setup_slots = [round(k * passes / (SETUP_SAMPLES - 2))
                   for k in range(SETUP_SAMPLES - 1)]

    def timed(op: str, fn, *fn_args, **fn_kwargs):
        began_wall, began_cpu = time.perf_counter(), time.process_time()
        try:
            return fn(*fn_args, **fn_kwargs)
        finally:
            op_cpu[op] = op_cpu.get(op, 0.0) + time.process_time() - began_cpu
            op_wall[op] = op_wall.get(op, 0.0) + time.perf_counter() - began_wall

    try:
        for index in range(passes):
            traced = probes is not None and index % 2 == 1
            if probes is None:
                setups += [_setup_cpu_s()
                           for _ in range(setup_slots.count(index))]
            # Start every pass from a clean heap: the last pass's garbage
            # is collected here, outside the timed region.
            raw = values = None
            op_cpu: dict[str, float] = {}
            op_wall: dict[str, float] = {}
            gc.collect()
            if traced:
                probes.install()
            try:
                raw = spec.run(inputs, workdir, timed)
            except Exception:
                errors.append(traceback.format_exc())
            finally:
                if traced:
                    probes.uninstall()
            if raw is not None:
                try:
                    values, items = spec.outputs(inputs, raw, workdir, memo)
                except Exception:
                    errors.append(traceback.format_exc())
            attempted += sum(weights.values())
            failed += workloads.count_failures(weights, expected, values)
            # A pass's time is that of its operations, without the work
            # the benchmark does between them.
            wall = sum(op_wall.values())
            if traced:
                traced_walls.append(wall)
            else:
                walls.append(wall)
                cpus.append(sum(op_cpu.values()))
                for op, cpu in op_cpu.items():
                    op_cpus.setdefault(op, []).append(cpu)
        if probes is None:
            setups += [_setup_cpu_s()
                       for _ in range(setup_slots.count(passes))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setups": setups,
        "inputs": workloads.describe(inputs),
        "pin_key": key,
        "pinned": expected is not None,
        "walls": walls,
        "traced_walls": traced_walls,
        "cpus": cpus,
        "op_cpus": op_cpus,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mib": peak_rss_mib,
        "engine": _engine(),
        "errors": errors,
    }
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer, traced_walls, walls)
        report["missing_spans"] = spans.missing_spans(tracer, args.workload)
        report["leftover_wrappers"] = spans.installed_wrappers()
    for error in errors:
        print(error, file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
