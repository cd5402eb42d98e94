"""Campaign tests."""

import pytest

from repro.backend import compile_module
from repro.faultinjection.campaign import run_campaign, run_ir_campaign
from repro.faultinjection.outcome import Outcome
from repro.minic import compile_to_ir

SOURCE = """
int main() {
    int acc = 0;
    for (int i = 0; i < 12; i++) { acc += i * i; }
    print_int(acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_module(compile_to_ir(SOURCE))


class TestAsmCampaign:
    def test_sample_count_respected(self, program):
        result = run_campaign(program, samples=25, seed=3)
        assert result.outcomes.total == 25
        assert result.samples == 25

    def test_seed_reproducibility(self, program):
        a = run_campaign(program, samples=25, seed=3)
        b = run_campaign(program, samples=25, seed=3)
        assert a.outcomes.counts == b.outcomes.counts

    def test_different_seeds_generally_differ(self, program):
        a = run_campaign(program, samples=40, seed=1)
        b = run_campaign(program, samples=40, seed=2)
        # Outcome mixes can coincide, but at these sizes it is unlikely.
        assert a.outcomes.counts != b.outcomes.counts

    def test_unprotected_program_shows_sdcs(self, program):
        result = run_campaign(program, samples=60, seed=5)
        assert result.outcomes[Outcome.SDC] > 0
        assert result.outcomes[Outcome.DETECTED] == 0

    def test_prefix_stability(self, program):
        """Adding samples must not change earlier draws (forked streams)."""
        small = run_campaign(program, samples=10, seed=9)
        large = run_campaign(program, samples=20, seed=9)
        assert small.outcomes.total == 10
        # The first 10 plans are identical, so large's counts dominate
        # small's counts in every outcome.
        for outcome in Outcome:
            assert large.outcomes[outcome] >= small.outcomes[outcome]

    def test_summary_text(self, program):
        result = run_campaign(program, samples=5, seed=1)
        assert "5 faults" in result.summary()


class TestIrCampaign:
    def test_ir_campaign_runs(self):
        module = compile_to_ir(SOURCE)
        result = run_ir_campaign(module, samples=25, seed=3)
        assert result.outcomes.total == 25
        assert result.fault_sites > 0

    def test_ir_campaign_deterministic(self):
        module = compile_to_ir(SOURCE)
        a = run_ir_campaign(module, samples=15, seed=4)
        b = run_ir_campaign(module, samples=15, seed=4)
        assert a.outcomes.counts == b.outcomes.counts


def _even_doubler(n):
    """Module-level pool worker (fork-picklable): fails on odd input."""
    if n % 2:
        raise RuntimeError(f"odd input {n}")
    return n * 2


class TestPooledFailure:
    """The executor's fork pool: partial progress on failure, no parent state.

    Workers receive the campaign context through the pool initializer, so
    the parent's worker slot must stay empty whether the pool succeeds or
    fails.
    """

    def test_partial_progress_reported_and_state_cleared(self):
        from repro.errors import InjectionError
        from repro.faultinjection import campaign as campaign_mod

        context = campaign_mod._fork_context()
        if context is None:
            pytest.skip("fork start method unavailable")
        with pytest.raises(InjectionError) as info:
            list(campaign_mod._pooled(context, 2, _even_doubler,
                                      [0, 2, 4, 5, 6]))
        # The error names how far the campaign got, carries the completed
        # prefix, and chains the worker's original exception.
        assert "3/5 tasks completed" in str(info.value)
        assert info.value.partial_results == [0, 4, 8]
        assert isinstance(info.value.__cause__, RuntimeError)
        assert campaign_mod._WORKER is None

    def test_success_path_still_clears_state(self, program):
        from repro.faultinjection import campaign as campaign_mod

        context = campaign_mod._fork_context()
        if context is None:
            pytest.skip("fork start method unavailable")
        assert list(campaign_mod._pooled(context, 2, _even_doubler,
                                         [0, 2])) == [0, 4]
        run_campaign(program, samples=6, seed=1, processes=2)
        assert campaign_mod._WORKER is None
