import os
import subprocess
import sys
from pathlib import Path

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
