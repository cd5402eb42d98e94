"""Shared benchmark fixtures.

Environment knobs:

* ``REPRO_FI_SAMPLES`` — faults per injection campaign (default 40; the
  paper uses 1000 — set it for a full-fidelity, multi-hour run);
* ``REPRO_WORKLOADS`` — comma-separated benchmark subset (default: all 8);
* ``REPRO_SCALE``    — workload problem-size multiplier (default 1).

Variant builds are cached per session so the per-figure benchmarks measure
their own experiment, not recompilation.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.pipeline import BuildResult, build_variants
from repro.workloads import get_workload, workload_names

FI_SAMPLES = int(os.environ.get("REPRO_FI_SAMPLES", "40"))
SCALE = int(os.environ.get("REPRO_SCALE", "1"))

_env_workloads = os.environ.get("REPRO_WORKLOADS", "")
SELECTED: tuple[str, ...] = (
    tuple(name.strip() for name in _env_workloads.split(",") if name.strip())
    or workload_names()
)

_build_cache: dict[str, BuildResult] = {}


def build_for(name: str) -> BuildResult:
    """Session-cached variant build for one workload."""
    if name not in _build_cache:
        _build_cache[name] = build_variants(get_workload(name).source(SCALE))
    return _build_cache[name]


@pytest.fixture(scope="session")
def selected_workloads() -> tuple[str, ...]:
    return SELECTED


def pytest_report_header(config):
    return (f"FERRUM reproduction benchmarks: workloads={','.join(SELECTED)} "
            f"fi_samples={FI_SAMPLES} scale={SCALE}")


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds)`` by ``time.perf_counter``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def emit(capsys, text: str) -> None:
    """Print a rendered paper table straight to the terminal and to disk."""
    with capsys.disabled():
        print()
        print(text)
    os.makedirs("results", exist_ok=True)
    slug = text.splitlines()[0].split(":")[0].strip().lower()
    slug = slug.replace(" ", "_").replace(".", "").replace("/", "-")
    with open(os.path.join("results", f"bench_{slug}.txt"), "w") as handle:
        handle.write(text + "\n")
