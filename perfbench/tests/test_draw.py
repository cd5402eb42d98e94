"""The seed draw is deterministic and every slot it reaches is pinned."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
import workloads
from conftest import BENCH, ROOT

_KEYS = ("import json, workloads; print(json.dumps({name: workloads.pin_key("
         "spec.draw(7)) for name, spec in workloads.WORKLOADS.items()}))")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_seed_draws_the_same_inputs_every_time(name):
    spec = workloads.WORKLOADS[name]
    assert spec.draw(5) == spec.draw(5)
    assert spec.draw(5) == spec.draw(5 + workloads.SLOTS)


def test_the_draw_does_not_depend_on_the_process():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join((str(BENCH), str(ROOT / "src"))))
        outputs.append(subprocess.run(
            [sys.executable, "-c", _KEYS], cwd=BENCH, env=env, check=True,
            capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {
        name: workloads.pin_key(spec.draw(7))
        for name, spec in workloads.WORKLOADS.items()}


def test_seeds_reach_distinct_campaign_inputs():
    for name in ("observe", "compile"):
        spec = workloads.WORKLOADS[name]
        keys = {workloads.pin_key(spec.draw(seed))
                for seed in range(workloads.SLOTS)}
        assert len(keys) == workloads.SLOTS, name


def test_every_slot_has_pinned_outputs_for_every_operation():
    pins = workloads.load_pins(BENCH / "pins.json")["workloads"]
    for name, spec in workloads.WORKLOADS.items():
        for slot in range(workloads.SLOTS):
            inputs = spec.draw(slot)
            expected = pins[name][workloads.pin_key(inputs)]
            assert set(expected) == set(spec.weights(inputs)), (name, slot)
