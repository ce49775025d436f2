import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_solvers_runs_end_to_end():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "benchmark_solvers.py"), "--runs", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    optimal = [line.split(":")[0].strip() for line in done.stdout.splitlines()
               if "optimal" in line]
    assert optimal == ["anneal", "heuristic"], done.stdout
    assert "anneal: 1/1 optimal" in done.stdout
    assert "heuristic: 1/1 optimal" in done.stdout


def test_reproduce_trends_runs_end_to_end(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_trends.py"),
         "--max-producers", "3", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    written = {path.name for path in tmp_path.iterdir()}
    assert written == {"comparison.csv"} | {
        f"{label}.{suffix}" for label in ("ring", "tree")
        for suffix in ("csv", "jain.dat", "distance_index.dat", "kpi.dat")
    }
    peaks = [line.split(":")[0] for line in done.stdout.splitlines()
             if "blended score peaks" in line]
    assert peaks == ["ring", "tree"], done.stdout


@pytest.mark.parametrize("script, args", [
    ("benchmark_solvers.py", ["--runs", "0"]),
    ("benchmark_solvers.py", ["--runs", "1", "--sweeps", "0"]),
    ("benchmark_solvers.py", ["--runs", "x"]),
    ("reproduce_trends.py", ["--max-producers", "30"]),
    ("reproduce_trends.py", ["--threads", "0"]),
    ("reproduce_trends.py", ["--restarts", "0"]),
    ("benchmark_solvers.py", ["--runs", "1", "--restarts", "0"]),
    ("reproduce_trends.py", ["--max-producers", "0"]),
    ("reproduce_trends.py", ["--threads", "-1"]),
    ("reproduce_trends.py", ["--seed", "-2"]),
    ("benchmark_solvers.py", ["--runs", "1", "--seed", "-1"]),
])
def test_scripts_refuse_bad_arguments_with_one_error_line(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args]
        + (["--out", str(out)] if script == "reproduce_trends.py" else []),
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("error: "), done.stderr
    assert args[-2] in done.stderr, done.stderr  # the flag the user typed
    if args[-2] == "--seed":
        assert done.stderr == f"error: --seed must be >= 0, got {args[-1]}\n", done.stderr
    assert done.stdout == ""
    assert not out.exists()
