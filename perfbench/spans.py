"""Outside-in spans around the public functions of each ``repro`` layer.

The benchmark never edits ``src/``. It wraps the public function each layer
exposes, on the name the caller actually looks up: every ``repro`` module
global bound to the function (``from x import f`` copies the binding, so the
defining module alone is not enough) or the class attribute of a method.
A :class:`Tracer` keeps the spans in memory as ``[name, start, end,
parent]``; :func:`layer_metrics` folds them into the per-layer table when
the run ends. A span's self time is its duration minus the durations of its
direct children.

A probe whose target no longer exists fails :meth:`Probes.install` at once,
and :func:`missing_spans` names every span assigned to a workload that never
fired there, so a renamed public function reads as a failure, never as a
silent 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

#: Attribute set on every installed wrapper (its span name).
WRAPPED = "__perfbench_span__"


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``target`` is ``module:function`` or
    ``module:Class.method``; ``span`` names the layer span it records."""

    span: str
    target: str


PROBES: tuple[Probe, ...] = (
    Probe("minic.compile", "repro.minic:compile_to_ir"),
    Probe("ir.verify", "repro.ir.verifier:verify_module"),
    Probe("backend.compile", "repro.backend:compile_module"),
    Probe("asm.validate", "repro.asm.program:validate_program"),
    Probe("eddi.protect", "repro.eddi.ir_eddi:protect_module"),
    Probe("eddi.protect",
          "repro.eddi.signatures:protect_branches_with_signatures"),
    Probe("core.ferrum", "repro.core.ferrum:protect_program"),
    Probe("core.hybrid", "repro.core.hybrid:protect_program_hybrid"),
    Probe("core.dme", "repro.core.dme:build_dme_program"),
    Probe("core.validate", "repro.core.validate:check_protection_invariants"),
    Probe("pipeline.build", "repro.pipeline:build_variants"),
    Probe("machine.construct", "repro.machine.cpu:Machine.__init__"),
    Probe("machine.translate", "repro.machine.translate:translate_program"),
    Probe("machine.translate", "repro.machine.translate:translate_fused"),
    # Classified per call: machine.timing, machine.faulted (inside an
    # injection) or machine.golden (every other fault-free run).
    Probe("machine.run", "repro.machine.cpu:Machine.run"),
    Probe("machine.cursor", "repro.machine.cpu:Machine.run_to_site"),
    Probe("machine.restore", "repro.machine.cpu:Machine.restore_snapshot"),
    Probe("machine.trail", "repro.machine.converge:record_trail"),
    Probe("ir.interp", "repro.ir.interp:IRInterpreter.run"),
    Probe("ir.interp", "repro.ir.interp:IRInterpreter.run_to_site"),
    Probe("faultinjection.campaign",
          "repro.faultinjection.campaign:run_campaign"),
    Probe("faultinjection.campaign",
          "repro.faultinjection.campaign:run_ir_campaign"),
    Probe("faultinjection.campaign",
          "repro.faultinjection.compose:compose_campaign"),
    Probe("faultinjection.inject",
          "repro.faultinjection.injector:inject_asm_fault"),
    Probe("faultinjection.inject_ir",
          "repro.faultinjection.injector:inject_ir_fault"),
    Probe("faultinjection.prune",
          "repro.faultinjection.equivalence:analyze_plans"),
    Probe("faultinjection.jsonl_write",
          "repro.faultinjection.telemetry:JsonlSink.write"),
    # compose_campaign calls the private twin that the public trace_sections
    # only delegates to, so the private name is the one looked up.
    Probe("faultinjection.compose_trace",
          "repro.faultinjection.compose:_trace_sections"),
    Probe("faultinjection.cache_load",
          "repro.faultinjection.compose:SectionCache.load"),
    Probe("faultinjection.cache_store",
          "repro.faultinjection.compose:SectionCache.store"),
    Probe("faultinjection.lockstep",
          "repro.faultinjection.dme:lockstep_reference"),
)

#: Modules that call the probed functions. They are imported before the
#: probes go in, so their bindings exist to be patched: a module imported
#: later would copy the wrapper and keep it after :meth:`Probes.uninstall`.
CALLERS: tuple[str, ...] = (
    "repro.pipeline",
    "repro.evaluation.experiments",
    "repro.faultinjection.campaign",
    "repro.faultinjection.compose",
    "repro.faultinjection.dme",
    "repro.machine.converge",
    "repro.machine.translate",
)

#: Spans that must fire on the workloads they are assigned to; a span that
#: never fires there fails the traced run.
REQUIRED: dict[str, tuple[str, ...]] = {
    "minic.compile": ("compile",),
    "ir.verify": ("compile",),
    "backend.compile": ("compile",),
    "asm.validate": ("compile",),
    "eddi.protect": ("compile",),
    "core.ferrum": ("compile",),
    "core.hybrid": ("compile",),
    "core.dme": ("compile",),
    "core.validate": ("compile",),
    "pipeline.build": ("compile",),
    "machine.construct": ("coverage",),
    "machine.translate": ("coverage",),
    "machine.golden": ("coverage",),
    "machine.cursor": ("coverage",),
    "machine.restore": ("coverage",),
    "machine.faulted": ("coverage", "observe"),
    "machine.timing": ("cycles",),
    "machine.trail": ("observe",),
    "ir.interp": ("coverage",),
    "faultinjection.campaign": ("coverage", "observe"),
    "faultinjection.inject": ("coverage", "observe"),
    "faultinjection.inject_ir": ("coverage",),
    "faultinjection.jsonl_write": ("observe",),
    "faultinjection.compose_trace": ("observe",),
    "faultinjection.cache_load": ("observe",),
    "faultinjection.cache_store": ("observe",),
    "faultinjection.lockstep": ("observe",),
}

#: Spans expected to read zero today on the listed workloads: no default
#: turns pruning on, and flat coverage campaigns record no convergence trail.
EXPECTED_ZERO: dict[str, tuple[str, ...]] = {
    "faultinjection.prune": ("coverage", "observe", "cycles", "compile"),
    "machine.trail": ("coverage",),
}

#: The innermost of these open spans classifies a nested Machine.run: an
#: injection makes it faulted; lockstep, trail and section-trace runs are
#: fault-free.
_RUN_CONTEXTS = frozenset({
    "faultinjection.inject", "faultinjection.lockstep", "machine.trail",
    "faultinjection.compose_trace",
})


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent]`` in start order, where
    ``parent`` is the index of the enclosing span (-1 at top level);
    ``counters`` holds counts and stats read from returned results.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._open.append(index)
        return index

    def exit(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._open.pop()
        self.spans[index][2] = self.clock()

    def innermost(self, names) -> str | None:
        """Name of the innermost open span among ``names``, if any."""
        for index in reversed(self._open):
            if self.spans[index][0] in names:
                return self.spans[index][0]
        return None

    def is_open(self, name: str) -> bool:
        return any(self.spans[index][0] == name for index in self._open)


@dataclass
class SpanTotals:
    """Aggregates of a closed span list."""

    self_s: dict[str, float]
    calls: Counter
    durations: dict[str, list[float]]
    top_level_s: float


def fold(spans: list[list]) -> SpanTotals:
    """Self time, calls and per-call durations per span name."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    durations: defaultdict[str, list[float]] = defaultdict(list)
    top = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_s[name] += duration - child[index]
        calls[name] += 1
        durations[name].append(duration)
        if parent < 0:
            top += duration
    return SpanTotals(dict(self_s), calls, dict(durations), top)


# -- wrappers --------------------------------------------------------------


def _run_span(tracer: Tracer, args, kwargs) -> str:
    timing = kwargs.get("timing", args[4] if len(args) > 4 else None)
    if timing is not None:
        return "machine.timing"
    if tracer.innermost(_RUN_CONTEXTS) == "faultinjection.inject":
        return "machine.faulted"
    return "machine.golden"


def _after_run(tracer: Tracer, span: str, kwargs, result) -> None:
    if span != "machine.faulted":
        tracer.counters[span + ".instr"] += result.dynamic_instructions


def _after_campaign(tracer: Tracer, span: str, kwargs, result) -> None:
    if tracer.is_open("faultinjection.campaign"):
        return  # a nested campaign's stats belong to its caller
    counters = tracer.counters
    conv = result.convergence_stats
    if conv is not None:
        counters["converge.runs"] += conv.runs
        counters["converge.converged"] += conv.converged
        counters["converge.instructions_saved"] += conv.instructions_saved
        counters["converge.boundaries_compared"] += conv.boundaries_compared
    ckpt = result.checkpoint_stats
    if ckpt is not None:
        counters["checkpoint.snapshot_bytes"] += ckpt.snapshot_bytes
        counters["checkpoint.fast_forward_sites"] += ckpt.fast_forward_sites
    prune = result.pruning_stats
    if prune is not None:
        counters["prune.samples"] += prune.samples
        counters["prune.executed"] += prune.executed_injections
    compose = result.compose_stats
    if compose is not None:
        counters["compose.hits"] += compose.cache_hits
        counters["compose.misses"] += compose.cache_misses
        if kwargs.get("refresh"):
            counters["compose.refresh_executed"] += compose.executed_injections
            counters["compose.refresh_total"] += (
                compose.executed_injections + compose.cached_injections)
    path = kwargs.get("jsonl_path")
    if path is not None and kwargs.get("jsonl_mode", "w") == "w":
        counters["jsonl.bytes"] += os.path.getsize(path)


def _make_wrapper(tracer: Tracer, span: str, original):
    after = _after_campaign if span == "faultinjection.campaign" else None

    def wrapper(*args, **kwargs):
        name = _run_span(tracer, args, kwargs) if span == "machine.run" else span
        index = tracer.enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(index)
        if span == "machine.run":
            _after_run(tracer, name, kwargs, result)
        elif after is not None:
            after(tracer, name, kwargs, result)
        return result

    functools.update_wrapper(wrapper, original)
    setattr(wrapper, WRAPPED, span)
    return wrapper


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Probes:
    """Installs :data:`PROBES` on a :class:`Tracer`; a context manager.

    :meth:`uninstall` restores every patched binding, so untraced passes
    run the unmodified program.
    """

    def __init__(self, tracer: Tracer, probes: tuple[Probe, ...] = PROBES):
        self.tracer = tracer
        self.probes = probes
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> "Probes":
        if self._undo:
            raise RuntimeError("probes are already installed")
        for name in CALLERS:
            importlib.import_module(name)
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self, probe: Probe) -> None:
        module_name, _, path = probe.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner).get(attr)
            if original is None:
                raise AttributeError(
                    f"probe {probe.span}: {probe.target} is not defined "
                    f"(renamed?)")
            self._patch(owner, attr, original,
                        _make_wrapper(self.tracer, probe.span, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            raise AttributeError(
                f"probe {probe.span}: {probe.target} does not exist "
                f"(renamed?)")
        wrapper = _make_wrapper(self.tracer, probe.span, original)
        for caller in _repro_modules():
            for binding, value in list(vars(caller).items()):
                if value is original:
                    self._patch(caller, binding, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def installed_wrappers() -> list[str]:
    """Every probe wrapper still bound in a ``repro`` module or class."""
    found = []
    for module in _repro_modules():
        for binding, value in list(vars(module).items()):
            if hasattr(value, WRAPPED):
                found.append(f"{module.__name__}.{binding}")
            elif isinstance(value, type):
                found.extend(f"{module.__name__}.{binding}.{attr}"
                             for attr, member in vars(value).items()
                             if hasattr(member, WRAPPED))
    return found


# -- per-layer metrics -----------------------------------------------------

#: (metric, span): self time per traced pass, in seconds.
TIME_METRICS: tuple[tuple[str, str], ...] = (
    ("minic.compile_s", "minic.compile"),
    ("ir.verify_s", "ir.verify"),
    ("backend.compile_s", "backend.compile"),
    ("asm.validate_s", "asm.validate"),
    ("eddi.protect_s", "eddi.protect"),
    ("core.ferrum_s", "core.ferrum"),
    ("core.hybrid_s", "core.hybrid"),
    ("core.dme_s", "core.dme"),
    ("core.validate_s", "core.validate"),
    ("pipeline.build_s", "pipeline.build"),
    ("machine.construct_s", "machine.construct"),
    ("machine.translate_s", "machine.translate"),
    ("machine.golden_s", "machine.golden"),
    ("machine.cursor_s", "machine.cursor"),
    ("machine.restore_s", "machine.restore"),
    ("machine.faulted_s", "machine.faulted"),
    ("machine.timing_s", "machine.timing"),
    ("machine.trail_s", "machine.trail"),
    ("ir.interp_s", "ir.interp"),
    ("faultinjection.campaign_s", "faultinjection.campaign"),
    ("faultinjection.inject_s", "faultinjection.inject"),
    ("faultinjection.inject_ir_s", "faultinjection.inject_ir"),
    ("faultinjection.prune_s", "faultinjection.prune"),
    ("faultinjection.jsonl_write_s", "faultinjection.jsonl_write"),
    ("faultinjection.compose_trace_s", "faultinjection.compose_trace"),
    ("faultinjection.cache_load_s", "faultinjection.cache_load"),
    ("faultinjection.cache_store_s", "faultinjection.cache_store"),
    ("faultinjection.lockstep_s", "faultinjection.lockstep"),
)

#: (metric, span): calls per traced pass.
CALL_METRICS: tuple[tuple[str, str], ...] = (
    ("pipeline.programs", "pipeline.build"),
    ("machine.cursor_calls", "machine.cursor"),
    ("machine.restores", "machine.restore"),
    ("faultinjection.campaigns", "faultinjection.campaign"),
    ("faultinjection.injections", "faultinjection.inject"),
    ("faultinjection.jsonl_records", "faultinjection.jsonl_write"),
)

#: (metric, counter, unit): a counter per traced pass.
COUNTER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("faultinjection.instructions_saved", "converge.instructions_saved",
     "instr"),
    ("faultinjection.boundaries_compared", "converge.boundaries_compared",
     "count"),
    ("faultinjection.jsonl_bytes", "jsonl.bytes", "bytes"),
    ("faultinjection.snapshot_bytes", "checkpoint.snapshot_bytes", "bytes"),
    ("faultinjection.fast_forward_sites", "checkpoint.fast_forward_sites",
     "count"),
)

#: (metric, numerator counter, denominator counters): a fraction over all
#: traced passes.
RATIO_METRICS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("faultinjection.prune_executed_frac", "prune.executed",
     ("prune.samples",)),
    ("faultinjection.converged_frac", "converge.converged",
     ("converge.runs",)),
    ("faultinjection.cache_hit_rate", "compose.hits",
     ("compose.hits", "compose.misses")),
    ("faultinjection.reinject_frac", "compose.refresh_executed",
     ("compose.refresh_total",)),
)

#: Percentiles offered for the injection-latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)
    return ordered[max(1, int(rank)) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """``(pct, value)`` for the highest ladder percentile that has at least
    ten samples beyond it; ``(0.0, 0.0)`` for fewer than twenty samples."""
    for pct in TAIL_LADDER:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 0.0, 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, dict]:
    """The per-layer table of one traced run, each ``{"value", "unit"}``.

    Times, calls and counters are per traced pass; rates and fractions are
    taken over every traced pass. ``bench.span_coverage`` is the top-level
    span time over the traced wall time, and ``bench.trace_overhead_frac``
    the median traced pass over the median untraced pass, minus one.
    """
    passes = len(traced_walls)
    totals = fold(tracer.spans)
    counters = tracer.counters
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for name, span in TIME_METRICS:
        put(name, totals.self_s.get(span, 0.0) / passes, "s")
    for name, span in CALL_METRICS:
        put(name, totals.calls.get(span, 0) / passes, "count")
    for name, counter, unit in COUNTER_METRICS:
        put(name, counters.get(counter, 0.0) / passes, unit)
    for kind in ("golden", "timing"):
        span = f"machine.{kind}"
        put(f"{span}_instr_per_s",
            _ratio(counters.get(span + ".instr", 0.0),
                   totals.self_s.get(span, 0.0)), "instr/s")
    for name, num, dens in RATIO_METRICS:
        put(name, _ratio(counters.get(num, 0.0),
                         sum(counters.get(den, 0.0) for den in dens)),
            "ratio")
    latencies = [1000.0 * d
                 for d in totals.durations.get("faultinjection.inject", [])]
    put("faultinjection.inject_p50_ms",
        percentile(latencies, 50.0) if latencies else 0.0, "ms")
    pct, value = tail(latencies)
    put("faultinjection.inject_tail_ms", value, "ms")
    put("faultinjection.inject_tail_pct", pct, "pct")
    put("bench.span_coverage",
        _ratio(totals.top_level_s, sum(traced_walls)), "ratio")
    put("bench.trace_overhead_frac",
        _ratio(statistics.median(traced_walls),
               statistics.median(untraced_walls)) - 1.0, "ratio")
    return out


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    """Spans :data:`REQUIRED` on ``workload`` that never fired."""
    calls = fold(tracer.spans).calls
    return sorted(span for span, workloads in REQUIRED.items()
                  if workload in workloads and not calls.get(span))
