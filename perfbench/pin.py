"""Record the pinned outputs of every input slot the benchmark ships.

    python3 perfbench/pin.py [--workloads coverage,observe]

Draws each slot's inputs, runs one untimed pass on the current code and
writes its outputs to ``perfbench/pins.json`` under the digest of the
inputs (slots that draw the same inputs share one entry). Workloads not
named keep their entries. Re-record only in a change meant to alter the
program's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

PINS = HERE / "pins.json"


def record(name: str, workdir: Path) -> dict:
    """Outputs of one pass per distinct draw of workload ``name``."""
    spec = workloads.WORKLOADS[name]
    pins: dict = {}
    memo: dict = {}
    for slot in range(workloads.SLOTS):
        inputs = spec.draw(slot)
        key = workloads.pin_key(inputs)
        if key in pins:
            continue
        values, _ = spec.outputs(inputs, spec.run(inputs, workdir), workdir,
                                 memo)
        weights = spec.weights(inputs)
        if set(values) != set(weights):
            raise RuntimeError(f"{name} slot {slot}: outputs {sorted(values)} "
                               f"do not match operations {sorted(weights)}")
        pins[key] = workloads.normalized(values)
        print(f"{name} slot {slot}: {key}", flush=True)
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    pins = workloads.load_pins(PINS) or {"workloads": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for name in args.workloads.split(","):
            pins["workloads"][name] = record(name, Path(workdir))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
