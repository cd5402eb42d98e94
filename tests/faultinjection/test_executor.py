"""The one campaign executor: process-count invariance and up-front checks.

Flat assembly, IR and composed campaigns all run their shards through the
same serve function, in-process or on a fork pool. The pool streams shard
results back in order, so the JSONL bytes, records and merged
checkpoint/convergence stats of a campaign must not depend on
``processes``. Bad arguments must be rejected before any work runs.
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
#: A checkpoint interval coarse enough that regions hold several plans, so
#: a shard cut that split a region would take its snapshot twice.
COARSE = 10_000


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


class TestJsonlIndependentOfProcesses:
    @pytest.mark.parametrize("kwargs", (
        dict(),
        dict(prune=True),
        dict(checkpoint_interval=COARSE),
    ), ids=("unpruned", "pruned", "interval"))
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
        dict(checkpoint_interval=COARSE),
    ), ids=("unpruned", "pruned", "interval"))
    def test_compose(self, program, tmp_path, kwargs):
        """Composed streams equal the flat one, whatever the process count.

        With a coarse interval most sections start past their first
        region's checkpoint and serve it from the section-entry snapshot.
        """
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

    @pytest.mark.parametrize("interval", (None, COARSE))
    def test_flat_asm(self, program, interval):
        runs = [run_campaign(program, samples=SAMPLES, seed=SEED,
                             telemetry=True, converge=True,
                             checkpoint_interval=interval,
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
        (dict(checkpoint_interval=0), "interval"),
        (dict(engine="replay", checkpoint_interval=0), "interval"),
        (dict(jsonl_mode="x"), "jsonl_mode"),
        (dict(processes=0), "processes"),
        (dict(engine="replay", processes=2), "sequential reference"),
    ))
    def test_flat_campaigns(self, program, build, no_golden_run, kwargs,
                            message):
        with pytest.raises(InjectionError, match=message):
            run_campaign(program, samples=2, **kwargs)
        with pytest.raises(InjectionError, match=message):
            run_ir_campaign(build["raw"].ir, samples=2, **kwargs)

    def test_compose_bad_jsonl_mode_does_no_work(self, program, tmp_path):
        cache_dir = tmp_path / "cache"
        with pytest.raises(InjectionError, match="jsonl_mode"):
            compose_campaign(program, samples=SAMPLES, seed=SEED,
                             jsonl_path=tmp_path / "out.jsonl",
                             jsonl_mode="x", cache_dir=cache_dir)
        assert not cache_dir.exists() or not any(cache_dir.iterdir())
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("kwargs, message", (
        (dict(checkpoint_interval=0), "interval"),
        (dict(processes=0), "processes"),
    ))
    def test_compose_all_hit(self, program, tmp_path, kwargs, message):
        cache_dir = tmp_path / "cache"
        compose_campaign(program, samples=SAMPLES, seed=SEED,
                         cache_dir=cache_dir)
        with pytest.raises(InjectionError, match=message):
            compose_campaign(program, samples=SAMPLES, seed=SEED,
                             cache_dir=cache_dir, **kwargs)
