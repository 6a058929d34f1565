"""A wrong expected value fails its operation, and a missing program fails the run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracles
import run

BENCH = Path(__file__).resolve().parent.parent


def test_wrong_expected_value_is_counted_and_named(monkeypatch, capsys) -> None:
    monkeypatch.setattr(oracles, "totient", lambda n: n)  # phi(n) = n is wrong
    code = run.main(["--workload", "model", "--seed", "3", "--seconds", "1",
                     "--trace", "0"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    rounds = result["attempted"] // 17
    assert result["failed"] == 3 * rounds  # the three gtfull operations
    assert "FAILED gtfull cyclic:7: total = 7" in err


def test_missing_program_exits_nonzero_without_a_result(tmp_path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "gtpairs sources not found" in proc.stderr
