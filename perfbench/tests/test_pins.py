"""A perturbed pin must fail the benchmark: failed > 0 and a non-zero exit."""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import workloads
from conftest import BENCH, ROOT

WORKLOAD = "coverage"
SEED = 3


def _run(pins_path) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0",
         "--pins", str(pins_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_each_mismatched_operation_counts_with_its_weight():
    weights = {"gap/lud": 4, "fig10/lud/raw": 1}
    expected = {"gap/lud": {"gap": 0.125},
                "fig10/lud/raw": {"counts": {"sdc": 3, "benign": 7}}}
    same = copy.deepcopy(expected)
    assert workloads.count_failures(weights, expected, same) == 0
    same["fig10/lud/raw"]["counts"]["sdc"] += 1
    assert workloads.count_failures(weights, expected, same) == 1
    assert workloads.count_failures(weights, expected, None) == 5
    assert workloads.count_failures(weights, None, expected) == 5


def test_a_planted_count_defect_fails_the_run(tmp_path):
    code, result = _run(BENCH / "pins.json")
    assert (code, result["correct"], result["failed"]) == (0, True, 0)

    pins = workloads.load_pins(BENCH / "pins.json")
    key = workloads.pin_key(workloads.WORKLOADS[WORKLOAD].draw(SEED))
    entry = pins["workloads"][WORKLOAD][key]
    op = sorted(op for op in entry if op.startswith("fig10/"))[0]
    entry[op]["counts"]["sdc"] += 1
    planted = tmp_path / "pins.json"
    planted.write_text(json.dumps(pins))

    code, result = _run(planted)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
