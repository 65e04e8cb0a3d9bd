"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_all_workloads_correct_and_repeatable():
    """Every workload at tiny scale: correct, and its counts repeat exactly."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count(": ok ") == 3, out.stdout


def test_refuses_to_run_without_program_sources(tmp_path):
    """A directory with only the benchmark fails fast and prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rmat-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
