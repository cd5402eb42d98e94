"""The benchmark's four workloads: seeded inputs, one timed pass, outputs.

Every workload is a closed-loop batch job: one process, one caller, one
operation at a time, ``processes=1`` everywhere. A workload defines

* ``draw(seed)`` — the inputs, a pure function of the seed's slot
  (``seed % SLOTS``), so that every seed lands on inputs with pinned
  outputs;
* ``weights(inputs)`` — the operations one pass performs, keyed like its
  outputs, each weighted by the campaigns, timing runs or program builds it
  stands for;
* ``run(inputs, workdir, timed)`` — the timed pass, calling the experiment
  drivers as ``ferrum-eval`` calls them, each call through
  ``timed(key, fn, *args, **kwargs)`` so that every operation of the pass is
  timed on its own;
* ``outputs(inputs, raw, workdir, memo)`` — the checked outputs of a pass
  and the items it completed, computed outside the timed region.

The program pools below are kept small so that the work of a pass hardly
depends on the seed: the spread between seeds then measures the code, not
the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Input slots; ``pins.json`` holds the expected outputs of each.
SLOTS = 16

#: Fig. 10 and cross-layer-gap programs a seed draws from. Pass times of
#: different programs drift apart by 10-30 % from run to run on a shared
#: host, so the pool holds one program.
COVERAGE_POOL = ("kmeans",)
COVERAGE_SAMPLES = 12

#: The campaign seed ``ferrum-eval`` uses by default, for every workload
#: seed: the cost of a sampled fault is heavy-tailed (a hang runs to its
#: budget), so the 96 faults of a pass cost 25 % more or less from one
#: campaign seed to the next, more than the regression bound.
COVERAGE_CAMPAIGN_SEED = 2024

#: Programs with a function to edit that a seed draws from; one, for the
#: reason given at COVERAGE_POOL.
OBSERVE_POOL = (("needle", "max3"),)
OBSERVE_SAMPLES = 16

#: The cheapest Fig. 11 program (6-9 s a pass); the next ones cost 11-19 s,
#: too long to repeat within one run.
CYCLES_POOL = ("bfs",)
CYCLES_REPEATS = 1

#: Lines of generated source per compile pass, next to the eight Rodinia
#: sources. Generated programs differ in size (9-139 lines, 61 on average),
#: so a seed draws programs until their lines reach this budget, and the
#: throughput counts lines, not programs.
COMPILE_GENERATED_LINES = 720

_FIG10_CAMPAIGNS = 4   # raw, ir-eddi, hybrid, ferrum
_GAP_CAMPAIGNS = 4     # raw and IR-EDDI, each at IR and assembly level
_VARIANTS = 5          # raw, ir-eddi, hybrid, ferrum, dme


def slot_of(seed: int) -> int:
    return seed % SLOTS


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{slot_of(seed)}")


def _counts(result) -> dict[str, int]:
    return {outcome.value: count
            for outcome, count in result.outcomes.counts.items()}


def jsonl_sha256(path) -> str:
    """Digest of a telemetry JSONL stream, each record without its
    ``instruction_uid``: uids are process-local object identities, so the
    raw bytes differ between processes that produce the same records."""
    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("instruction_uid", None)
            digest.update(json.dumps(record, sort_keys=True).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def untimed(key: str, fn: Callable, *args, **kwargs):
    """The ``timed`` of a pass nobody times: just the call."""
    return fn(*args, **kwargs)


@dataclass(frozen=True)
class Workload:
    """One workload; see the module docstring for the four functions."""

    name: str
    metric: str           # the workload's own name for items_per_cpu_s
    unit: str
    pass_s: float         # nominal pass time on the defining commit
    draw: Callable[[int], dict]
    weights: Callable[[dict], dict[str, int]]
    run: Callable[[dict, Path, Callable], object]
    outputs: Callable[[dict, object, Path, dict], tuple[dict, float]]


# -- coverage: Fig. 10 + cross-layer gap ------------------------------------


def _coverage_draw(seed: int) -> dict:
    rng = _rng("coverage", seed)
    return {"programs": [rng.choice(COVERAGE_POOL)],
            "samples": COVERAGE_SAMPLES,
            "campaign_seed": COVERAGE_CAMPAIGN_SEED}


def _coverage_weights(inputs: dict) -> dict[str, int]:
    from repro.evaluation.experiments import TECHNIQUES

    weights = {}
    for name in inputs["programs"]:
        for variant in ("raw",) + TECHNIQUES:
            weights[f"fig10/{name}/{variant}"] = 1
        weights[f"gap/{name}"] = _GAP_CAMPAIGNS
    return weights


def _coverage_run(inputs: dict, workdir: Path, timed=untimed):
    from repro.evaluation.experiments import run_crosslayer_gap, run_fig10

    common = {"samples": inputs["samples"], "seed": inputs["campaign_seed"],
              "workloads": tuple(inputs["programs"]), "processes": 1}
    return (timed("fig10", run_fig10, **common),
            timed("gap", run_crosslayer_gap, **common))


def _coverage_outputs(inputs, raw, workdir, memo):
    fig10, gap = raw
    values = {}
    for row in fig10.rows:
        values[f"fig10/{row.benchmark}/raw"] = {"counts": _counts(row.raw)}
        for technique, campaign in row.campaigns.items():
            values[f"fig10/{row.benchmark}/{technique}"] = {
                "counts": _counts(campaign),
                "coverage": row.coverage(technique),
            }
    for row in gap.rows:
        values[f"gap/{row['benchmark']}"] = {
            key: row[key] for key in ("anticipated", "measured", "gap")}
    faults = ((_FIG10_CAMPAIGNS + _GAP_CAMPAIGNS) * inputs["samples"]
              * len(inputs["programs"]))
    return values, faults


# -- observe: telemetry + compose --------------------------------------------

_OBSERVE_OPS = ("telemetry/ferrum", "telemetry/dme", "compose/cold",
                "compose/warm", "compose/reinject")


def _observe_draw(seed: int) -> dict:
    rng = _rng("observe", seed)
    program, function = rng.choice(OBSERVE_POOL)
    return {"program": program, "function": function,
            "samples": OBSERVE_SAMPLES,
            "campaign_seed": rng.randrange(1, 1 << 30)}


def _observe_weights(inputs: dict) -> dict[str, int]:
    return {op: 1 for op in _OBSERVE_OPS}


def _observe_run(inputs: dict, workdir: Path, timed=untimed):
    from repro.evaluation.experiments import run_compose, run_telemetry

    scratch = Path(tempfile.mkdtemp(prefix="observe-", dir=workdir))
    common = {"workload": inputs["program"], "samples": inputs["samples"],
              "seed": inputs["campaign_seed"], "converge": True}
    results = {}
    for technique in ("ferrum", "dme"):
        path = scratch / f"{technique}.jsonl"
        op = f"telemetry/{technique}"
        results[op] = (timed(op, run_telemetry, technique=technique,
                             jsonl_path=str(path), **common), path)
    cache = str(scratch / "cache")
    for op, reinject in (("compose/cold", ()), ("compose/warm", ()),
                         ("compose/reinject", (inputs["function"],))):
        results[op] = (timed(op, run_compose, technique="ferrum",
                             cache_dir=cache, reinject=reinject, **common),
                       None)
    return scratch, results


def _observe_outputs(inputs, raw, workdir, memo):
    scratch, results = raw
    values = {}
    try:
        for op, (campaign, path) in results.items():
            value = {"counts": _counts(campaign)}
            if path is not None:
                value["jsonl_sha256"] = jsonl_sha256(path)
                value["records"] = len(campaign.records or ())
            values[op] = value
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return values, len(_OBSERVE_OPS) * inputs["samples"]


# -- cycles: Fig. 11 ----------------------------------------------------------


def _cycles_draw(seed: int) -> dict:
    rng = _rng("cycles", seed)
    return {"programs": [rng.choice(CYCLES_POOL)],
            "repeats": CYCLES_REPEATS}


def _cycles_weights(inputs: dict) -> dict[str, int]:
    return {f"fig11/{name}": _VARIANTS * inputs["repeats"]
            for name in inputs["programs"]}


def _cycles_run(inputs: dict, workdir: Path, timed=untimed):
    from repro.evaluation.experiments import run_fig11

    return timed("fig11", run_fig11, workloads=tuple(inputs["programs"]),
                 repeats=inputs["repeats"])


def _simulated_instructions(name: str) -> dict[str, int]:
    """Dynamic instructions one Fig. 11 timing run of each variant
    simulates; a DME run times both variants of its lockstep pair."""
    from repro.machine.cpu import Machine
    from repro.pipeline import build_variants
    from repro.workloads import get_workload

    build = build_variants(get_workload(name).source(1))
    return {
        variant: Machine(built.asm).run().dynamic_instructions
        * (2 if variant == "dme" else 1)
        for variant, built in build.variants.items()
    }


def _cycles_outputs(inputs, raw, workdir, memo):
    values = {}
    instructions = 0
    for row in raw.rows:
        name = row["benchmark"]
        if name not in memo:
            memo[name] = _simulated_instructions(name)
        values[f"fig11/{name}"] = {"row": dict(row),
                                   "instructions": memo[name]}
        instructions += inputs["repeats"] * sum(memo[name].values())
    return values, instructions


# -- compile: build_variants over generated + Rodinia sources ----------------


def _compile_draw(seed: int) -> dict:
    from repro.fuzz.generator import generate_program
    from repro.workloads import all_workloads

    rng = _rng("compile", seed)
    sources = {}
    lines = 0
    while lines < COMPILE_GENERATED_LINES:
        program_seed = rng.randrange(1 << 30)
        source = generate_program(program_seed)
        sources[f"gen/{program_seed}"] = source
        lines += _lines(source)
    sources.update({f"rodinia/{spec.name}": spec.source(1)
                    for spec in all_workloads()})
    return {"sources": sources}


def _lines(source: str) -> int:
    return source.count("\n")


def _compile_weights(inputs: dict) -> dict[str, int]:
    return {key: 1 for key in inputs["sources"]}


def _compile_run(inputs: dict, workdir: Path, timed=untimed):
    """Builds every source and keeps only the digests of its variants, as a
    caller compiling one program at a time would: holding every build of
    the pass would grow the heap the garbage collector walks."""
    from repro.pipeline import build_variants

    return {key: _digests(timed(key, build_variants, source))
            for key, source in inputs["sources"].items()}


def _digests(build) -> dict[str, str]:
    from repro.asm.printer import format_program

    digests = {name: _sha256_text(format_program(variant.asm))
               for name, variant in build.variants.items()}
    digests["dme.secondary"] = _sha256_text(
        format_program(build["dme"].asm.secondary))
    return digests


def _compile_outputs(inputs, raw, workdir, memo):
    return raw, sum(_lines(source) for source in inputs["sources"].values())


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("coverage", "faults_per_s", "faults/s", 4.0, _coverage_draw,
                 _coverage_weights, _coverage_run, _coverage_outputs),
        Workload("observe", "faults_per_s", "faults/s", 5.0, _observe_draw,
                 _observe_weights, _observe_run, _observe_outputs),
        Workload("cycles", "sim_instr_per_s", "instr/s", 7.0, _cycles_draw,
                 _cycles_weights, _cycles_run, _cycles_outputs),
        Workload("compile", "lines_per_s", "lines/s", 2.5, _compile_draw,
                 _compile_weights, _compile_run, _compile_outputs),
    )
}


def normalized(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


def describe(inputs: dict) -> dict:
    """A short, JSON-able description of drawn inputs (sources by name)."""
    if "sources" in inputs:
        return {"programs": sorted(inputs["sources"])}
    return dict(inputs)


def pin_key(inputs: dict) -> str:
    """Key of the pinned outputs: a digest of the inputs themselves, so
    slots that draw the same inputs share one pin."""
    blob = json.dumps(inputs, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def count_failures(weights: dict[str, int], expected: dict | None,
                   values: dict | None) -> int:
    """Weighted operations whose output is missing or differs from the pin.

    ``values`` is ``None`` when the pass raised: every operation failed.
    """
    failed = 0
    for key, weight in weights.items():
        if (expected is None or values is None or key not in values
                or key not in expected
                or normalized(values[key]) != expected[key]):
            failed += weight
    return failed


def load_pins(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}
