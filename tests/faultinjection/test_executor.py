"""The one campaign executor: one serve order, process-count invariance
and up-front checks.

Flat assembly, IR and composed campaigns all run their shards through the
same serve function, in-process or on a fork pool, and write records in
its one serve order (by fault site, then run index). The JSONL bytes of a
campaign therefore do not depend on the engine, ``prune``, composition or
``processes``, and neither do its records or merged checkpoint/convergence
stats. Bad arguments must be rejected before any work runs.
"""

import pytest

from repro.errors import InjectionError
from repro.faultinjection import campaign as campaign_mod
from repro.faultinjection.campaign import run_campaign, run_ir_campaign
from repro.faultinjection.compose import compose_campaign
from repro.pipeline import build_variants
from repro.workloads import get_workload

SAMPLES = 24
SEED = 3


@pytest.fixture(scope="module")
def build():
    return build_variants(get_workload("bfs").source(1),
                          names=("raw", "ferrum"))


@pytest.fixture(scope="module")
def program(build):
    return build["ferrum"].asm


def _jsonl_bytes(run, tmp_path, tag, **kwargs):
    path = tmp_path / f"{tag}.jsonl"
    run(samples=SAMPLES, seed=SEED, jsonl_path=path, **kwargs)
    return path.read_bytes()


class TestOneServeOrder:
    """Every campaign path writes the default path's JSONL bytes."""

    @pytest.mark.parametrize("run, kwargs", (
        (run_campaign, dict(engine="replay")),
        (run_campaign, dict(prune=True)),
        (run_campaign, dict(processes=2)),
        (run_campaign, dict(processes=2, prune=True)),
        (compose_campaign, dict()),
        (compose_campaign, dict(prune=True)),
    ), ids=("replay", "prune", "processes2", "processes2-prune", "compose",
            "compose-prune"))
    def test_asm(self, program, tmp_path, run, kwargs):
        default = _jsonl_bytes(lambda **more: run_campaign(program, **more),
                               tmp_path, "default")
        other = _jsonl_bytes(lambda **more: run(program, **kwargs, **more),
                             tmp_path, "other")
        assert default and other == default

    def test_ir_replay(self, build, tmp_path):
        def run(**more):
            return run_ir_campaign(build["raw"].ir, **more)

        checkpoint = _jsonl_bytes(run, tmp_path, "checkpoint")
        replay = _jsonl_bytes(run, tmp_path, "replay", engine="replay")
        assert checkpoint and replay == checkpoint


class TestJsonlIndependentOfProcesses:
    @pytest.mark.parametrize("kwargs", (
        dict(),
        dict(prune=True),
    ), ids=("unpruned", "pruned"))
    def test_flat(self, program, tmp_path, kwargs):
        def run(**more):
            return run_campaign(program, **more)

        one = _jsonl_bytes(run, tmp_path, "one", processes=1, **kwargs)
        two = _jsonl_bytes(run, tmp_path, "two", processes=2, **kwargs)
        assert one and two == one

    def test_ir(self, build, tmp_path):
        def run(**more):
            return run_ir_campaign(build["raw"].ir, **more)

        one = _jsonl_bytes(run, tmp_path, "one", processes=1)
        two = _jsonl_bytes(run, tmp_path, "two", processes=2)
        assert one and two == one

    @pytest.mark.parametrize("kwargs", (
        dict(),
        dict(prune=True),
    ), ids=("unpruned", "pruned"))
    def test_compose(self, program, tmp_path, kwargs):
        """Composed streams equal the flat one, whatever the process count."""
        def run(**more):
            return compose_campaign(program, **kwargs, **more)

        one = _jsonl_bytes(run, tmp_path, "one", processes=1)
        two = _jsonl_bytes(run, tmp_path, "two", processes=2)
        flat = _jsonl_bytes(lambda **more: run_campaign(program, **kwargs,
                                                        **more),
                            tmp_path, "flat")
        assert one and two == one == flat


class TestStatsIndependentOfProcesses:
    """Workers return per-shard stats; the merge must equal one pass."""

    @staticmethod
    def _assert_stats_equal(parallel, sequential):
        assert parallel.checkpoint_stats == sequential.checkpoint_stats
        assert parallel.convergence_stats == sequential.convergence_stats
        assert parallel.records == sequential.records

    def test_flat_asm(self, program):
        runs = [run_campaign(program, samples=SAMPLES, seed=SEED,
                             telemetry=True, converge=True,
                             processes=processes)
                for processes in (1, 2)]
        assert runs[0].checkpoint_stats.snapshots > 0
        assert runs[0].convergence_stats.runs == SAMPLES
        self._assert_stats_equal(runs[1], runs[0])

    def test_ir(self, build):
        runs = [run_ir_campaign(build["raw"].ir, samples=SAMPLES, seed=SEED,
                                telemetry=True, processes=processes)
                for processes in (1, 3)]
        assert runs[0].checkpoint_stats.restores == SAMPLES
        self._assert_stats_equal(runs[1], runs[0])

    def test_compose(self, program):
        runs = [compose_campaign(program, samples=SAMPLES, seed=SEED,
                                 telemetry=True, converge=True,
                                 processes=processes)
                for processes in (1, 2)]
        assert runs[0].compose_stats.populated_sections > 1
        self._assert_stats_equal(runs[1], runs[0])


class TestArgumentsValidatedUpFront:
    @pytest.fixture
    def no_golden_run(self, monkeypatch):
        """Fail loudly if a campaign gets as far as building a machine."""
        def refuse(*args, **kwargs):
            raise AssertionError("campaign started before validation")

        monkeypatch.setattr(campaign_mod, "Machine", refuse)
        monkeypatch.setattr(campaign_mod, "IRInterpreter", refuse)

    @pytest.mark.parametrize("kwargs, message", (
        (dict(engine="warp"), "unknown engine"),
        (dict(processes=0), "processes"),
        (dict(engine="replay", processes=2), "sequential reference"),
    ))
    def test_flat_campaigns(self, program, build, no_golden_run, kwargs,
                            message):
        with pytest.raises(InjectionError, match=message):
            run_campaign(program, samples=2, **kwargs)
        with pytest.raises(InjectionError, match=message):
            run_ir_campaign(build["raw"].ir, samples=2, **kwargs)

    def test_compose_all_hit(self, program, tmp_path):
        cache_dir = tmp_path / "cache"
        compose_campaign(program, samples=SAMPLES, seed=SEED,
                         cache_dir=cache_dir)
        with pytest.raises(InjectionError, match="processes"):
            compose_campaign(program, samples=SAMPLES, seed=SEED,
                             cache_dir=cache_dir, processes=0)
