"""Fuzz campaign driver and the ``ferrum-fuzz`` CLI.

A fuzz run walks a contiguous seed range, generates one program per seed,
and runs the differential oracle battery over it. Failing seeds become
crash artifacts: a directory per finding holding the generated source, the
delta-debugged minimal reproducer, and a JSON verdict with a one-line
repro command. Because seed → program → verdict is a pure function, any
finding replays exactly with ``ferrum-fuzz --seed-start <N> --count 1``.

Parallelism mirrors the fault-injection campaign's fork-pool pattern
(:mod:`repro.faultinjection.campaign`): shared configuration is staged in a
module-level dict inherited by forked workers, with a sequential fallback
where ``fork`` is unavailable. Workers are pure per-seed functions, so the
set of findings is identical for ``processes=1`` and ``processes>1``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.core.config import FerrumConfig
from repro.faultinjection.campaign import _fork_context
from repro.fuzz.generator import GeneratorConfig, generate_program
from repro.fuzz.oracles import (
    CrossLayerOracle,
    DmeDivergenceOracle,
    EngineAgreementOracle,
    FaultSoundnessOracle,
    OracleVerdict,
    StaticDisciplineOracle,
    VariantAgreementOracle,
    run_oracles,
)
from repro.fuzz.reducer import reduce_source

#: Instruction cap for reduction candidates. Generated programs execute a
#: few thousand dynamic instructions; a candidate that needs more than this
#: has (e.g.) lost its loop-fuel decrement and would otherwise grind the
#: full oracle budget on every ddmin probe.
REDUCTION_BUDGET = 500_000


@dataclass(frozen=True)
class FuzzResult:
    """Verdict battery for one seed."""

    seed: int
    verdicts: tuple[OracleVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def failing_oracle(self) -> str | None:
        for verdict in self.verdicts:
            if not verdict.passed:
                return verdict.oracle
        return None


@dataclass
class FuzzReport:
    """Outcome of a whole fuzz run."""

    seed_start: int
    requested: int
    completed: int
    findings: list[FuzzResult]
    elapsed: float

    @property
    def clean(self) -> bool:
        return not self.findings


class _SeedTimeout(Exception):
    """Internal: the per-seed wall-clock alarm fired."""


@contextmanager
def _alarm(seconds: float | None):
    """Raise :class:`_SeedTimeout` after ``seconds`` of wall-clock time.

    SIGALRM-based, so it interrupts even a wedged interpreter loop that
    never yields. Only usable in a main thread — true for both the
    sequential path and fork-pool workers (pool tasks run in the child's
    main thread); a no-op where ``SIGALRM`` does not exist or no timeout
    was requested.
    """
    if seconds is None or seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _fire(signum, frame):
        raise _SeedTimeout()

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def check_seed(
    seed: int,
    generator_config: GeneratorConfig | None = None,
    ferrum_config: FerrumConfig | None = None,
    seed_timeout: float | None = None,
) -> FuzzResult:
    """Generate the program for ``seed`` and run the oracle battery.

    ``seed_timeout`` bounds the seed's wall-clock time (generation plus
    every oracle). A seed that exceeds it yields a failed ``seed-timeout``
    verdict — a finding like any other (timeouts are how interpreter
    livelocks surface), with the usual replay command in its artifact.
    """
    try:
        with _alarm(seed_timeout):
            source = generate_program(seed, config=generator_config)
            verdicts = run_oracles(source, config=ferrum_config)
    except _SeedTimeout:
        return FuzzResult(seed, (OracleVerdict(
            "seed-timeout", False,
            f"seed exceeded {seed_timeout:g}s wall clock"),))
    return FuzzResult(seed, tuple(verdicts))


def _repro_command(seed: int) -> str:
    return f"ferrum-fuzz --seed-start {seed} --count 1"


def _reduction_predicate(oracle_name: str, ferrum_config):
    """True when a candidate source still fails ``oracle_name``."""
    battery = {
        "cross-layer": CrossLayerOracle,
        "variant-agreement": VariantAgreementOracle,
        "static-discipline": StaticDisciplineOracle,
        "fault-soundness": FaultSoundnessOracle,
        "engine-agreement": EngineAgreementOracle,
        "dme-divergence": DmeDivergenceOracle,
    }
    # A "build" failure has no oracle object: an empty battery still
    # produces the single failed build verdict when compilation raises.
    oracles = ()
    if oracle_name in battery:
        oracles = (battery[oracle_name](),)

    def predicate(source: str) -> bool:
        verdicts = run_oracles(source, oracles=oracles, config=ferrum_config,
                               budget=REDUCTION_BUDGET)
        return any(v.oracle == oracle_name and not v.passed
                   for v in verdicts)

    return predicate


def write_artifact(
    result: FuzzResult,
    artifact_dir: Path,
    source: str,
    reduce: bool = True,
    ferrum_config: FerrumConfig | None = None,
) -> Path:
    """Persist one finding as ``seed-<N>/{program.c,reduced.c,verdict.json}``.

    Returns the artifact directory. ``reduced.c`` is only written when
    reduction is enabled and actually shrank the program.
    """
    seed_dir = artifact_dir / f"seed-{result.seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    (seed_dir / "program.c").write_text(source)
    reduced_source = None
    # Timeout findings are not reduced: every ddmin probe would re-run the
    # battery on a candidate that may hang for the full timeout again.
    if (reduce and result.failing_oracle is not None
            and result.failing_oracle != "seed-timeout"):
        predicate = _reduction_predicate(result.failing_oracle, ferrum_config)
        reduced_source = reduce_source(source, predicate)
        if reduced_source.strip() != source.strip():
            (seed_dir / "reduced.c").write_text(reduced_source)
        else:
            reduced_source = None
    verdict = {
        "seed": result.seed,
        "failing_oracle": result.failing_oracle,
        "repro": _repro_command(result.seed),
        "reduced": reduced_source is not None,
        "verdicts": [
            {"oracle": v.oracle, "passed": v.passed, "detail": v.detail}
            for v in result.verdicts
        ],
    }
    (seed_dir / "verdict.json").write_text(
        json.dumps(verdict, indent=2) + "\n")
    return seed_dir


def run_fuzz(
    seed_start: int = 0,
    count: int = 100,
    processes: int = 1,
    time_budget: float | None = None,
    artifact_dir: str | Path | None = None,
    reduce: bool = True,
    generator_config: GeneratorConfig | None = None,
    ferrum_config: FerrumConfig | None = None,
    seed_timeout: float | None = None,
    log=None,
) -> FuzzReport:
    """Fuzz seeds ``[seed_start, seed_start + count)``.

    ``time_budget`` (seconds) stops the run early at a chunk boundary; the
    seeds that *did* run still produce exactly the verdicts a full run
    would. ``seed_timeout`` bounds each individual seed's wall clock (see
    :func:`check_seed`) so one livelocked seed cannot eat the whole
    budget. Findings are written to ``artifact_dir`` as they appear.
    """
    started = time.perf_counter()
    seeds = list(range(seed_start, seed_start + count))
    findings: list[FuzzResult] = []
    completed = 0
    out_dir = Path(artifact_dir) if artifact_dir is not None else None

    def note(result: FuzzResult) -> None:
        nonlocal completed
        completed += 1
        if result.passed:
            return
        findings.append(result)
        if log is not None:
            log(f"seed {result.seed}: FAIL ({result.failing_oracle})")
        if out_dir is not None:
            try:
                # Re-generating a timed-out seed's source can hang the
                # same way the check did; keep it under the same alarm.
                with _alarm(seed_timeout):
                    source = generate_program(result.seed,
                                              config=generator_config)
            except _SeedTimeout:
                source = (f"// seed {result.seed}: source generation "
                          f"exceeded {seed_timeout:g}s wall clock\n")
            write_artifact(result, out_dir, source, reduce=reduce,
                           ferrum_config=ferrum_config)

    context = _fork_context() if processes > 1 else None
    if context is not None and processes > 1:
        check = partial(check_seed, generator_config=generator_config,
                        ferrum_config=ferrum_config,
                        seed_timeout=seed_timeout)
        chunk_size = max(processes * 4, 8)
        with context.Pool(processes) as pool:
            for base in range(0, len(seeds), chunk_size):
                chunk = seeds[base:base + chunk_size]
                for result in pool.map(check, chunk, chunksize=1):
                    note(result)
                if (time_budget is not None
                        and time.perf_counter() - started > time_budget):
                    break
    else:
        for seed in seeds:
            if (time_budget is not None
                    and time.perf_counter() - started > time_budget):
                break
            note(check_seed(seed, generator_config=generator_config,
                            ferrum_config=ferrum_config,
                            seed_timeout=seed_timeout))

    return FuzzReport(seed_start, count, completed, findings,
                      time.perf_counter() - started)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ferrum-fuzz",
        description="Differential fuzzer for the FERRUM pipeline: "
        "generates seeded mini-C programs and cross-checks machine "
        "execution, IR interpretation, protected variants, static "
        "invariants and fault-injection soundness.",
    )
    parser.add_argument("--seed-start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--count", type=int, default=100,
                        help="number of seeds (default 100)")
    parser.add_argument("--processes", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop after this many seconds")
    parser.add_argument("--seed-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock limit per seed; a seed exceeding "
                        "it becomes a seed-timeout finding")
    parser.add_argument("--artifact-dir", default="fuzz-artifacts",
                        help="directory for crash artifacts "
                        "(default fuzz-artifacts)")
    parser.add_argument("--no-reduce", action="store_true",
                        help="skip delta-debugging of findings")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)

    log = None if args.quiet else lambda msg: print(msg, flush=True)
    report = run_fuzz(
        seed_start=args.seed_start,
        count=args.count,
        processes=args.processes,
        time_budget=args.time_budget,
        artifact_dir=args.artifact_dir,
        reduce=not args.no_reduce,
        seed_timeout=args.seed_timeout,
        log=log,
    )
    if not args.quiet:
        status = "clean" if report.clean else (
            f"{len(report.findings)} finding(s) in {args.artifact_dir}/")
        print(f"fuzzed {report.completed}/{report.requested} seeds "
              f"from {report.seed_start} in {report.elapsed:.1f}s: {status}")
        for finding in report.findings:
            print(f"  seed {finding.seed}: {finding.failing_oracle} — "
                  f"replay: {_repro_command(finding.seed)}")
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
