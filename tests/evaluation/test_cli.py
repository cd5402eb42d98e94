"""``ferrum-eval`` subcommands run end to end through ``cli.main``."""

import pytest

from repro.errors import ServiceError
from repro.evaluation.cli import main


def test_telemetry_writes_one_jsonl_line_per_fault(tmp_path, capsys):
    path = tmp_path / "faults.jsonl"
    assert main(["telemetry", "--workloads", "bfs", "--samples", "8",
                 "--jsonl", str(path)]) == 0
    assert len(path.read_text(encoding="utf-8").splitlines()) == 8
    out = capsys.readouterr().out
    assert "Checkpoint engine:" in out
    assert f"Wrote 8 records to {path}" in out


def test_compose_second_run_served_from_cache(tmp_path, capsys):
    args = ["compose", "--workloads", "bfs", "--samples", "8",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    assert "0 cached injections" in capsys.readouterr().out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert " 0 misses (100%), 0 executed / 8 cached injections" in out


def test_serve_rejects_unworkable_config(tmp_path):
    state_dir = tmp_path / "state"
    with pytest.raises(ServiceError, match="max_failures"):
        main(["serve", "--state-dir", str(state_dir), "--workloads", "bfs",
              "--samples", "4", "--max-failures", "0"])
    assert not state_dir.exists()
