"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each kind of workload on networks of a few nodes, checks that the
printed metrics are exactly those BENCHMARK.json names, with their
units, and that a corrupted energy is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from oracle import Network, check_report
from workloads import NetworkSpec, QuboIoWorkload, SweepWorkload, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    w.name: w
    for w in (
        SweepWorkload(
            name="cli_tiny", why="", nominal_pass_s=1.0,
            networks=(NetworkSpec("ring", "ring", 7, 2), NetworkSpec("tree", "tree", 7, 2)),
            max_producers=2,
            solvers=(("heuristic", (("restarts", 2),)), ("anneal", (("sweeps", 20), ("restarts", 1)))),
            via_cli=True, formats=("json", "csv", "gnuplot"),
        ),
        SweepWorkload(
            name="api_tiny", why="", nominal_pass_s=1.0,
            networks=(NetworkSpec("ring10", "ring", 10, 2),),
            max_producers=3,
            solvers=(("heuristic", (("restarts", 1),)), ("anneal", (("sweeps", 10), ("restarts", 1)))),
            via_cli=False,
        ),
        QuboIoWorkload(
            name="qubo_tiny", why="", nominal_pass_s=1.0,
            network=NetworkSpec("ring10", "ring", 10, 2), ks=(2, 3),
        ),
    )
}


def run_tiny(capsys, workloads, name: str, trace: int, seed: int = 3) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, workloads=workloads) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


def test_benchmark_json_matches_the_code():
    gated = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert gated.items() <= {name: w.why for name, w in WORKLOADS.items()}.items()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, name, trace):
    result = run_tiny(capsys, TINY, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


@dataclasses.dataclass(frozen=True)
class CorruptingWorkload(SweepWorkload):
    """Adds 1.0 to the energy of the first cell of every sweep output
    before the checks read it."""

    def check_outputs(self, ctx, out_dir, errors):
        label = self.networks[0].label
        path = os.path.join(out_dir, f"{label}.json")
        doc = json.loads(Path(path).read_text())
        doc["reports"][0]["energy"] += 1.0
        Path(path).write_text(json.dumps(doc))
        return super().check_outputs(ctx, out_dir, errors)


def test_a_corrupted_energy_counts_toward_error_rate(capsys):
    corrupting = CorruptingWorkload(**{
        f.name: getattr(TINY["cli_tiny"], f.name) for f in dataclasses.fields(SweepWorkload)
    })
    result = run_tiny(capsys, {"cli_tiny": corrupting}, "cli_tiny", 0)
    passes = 1 + run.MIN_TIMED_PASSES
    cells_per_pass = 2 * 2 * 2
    assert not result["correct"]
    assert result["attempted"] == passes * cells_per_pass
    assert result["failed"] == passes
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(1 - 1 / cells_per_pass)
    record = json.loads((ROOT / ".bench_results" / "cli_tiny-seed3-trace0.json").read_text())
    assert record["error_rate"] == pytest.approx(1 / cells_per_pass)
    assert "recomputed objective" in record["problems"][0]


def test_oracle_rejects_infeasible_and_out_of_range_reports():
    net = Network(3, [(0, 1, 1.0), (1, 2, 2.0)], [0.5, 0.25, 0.25])
    energy, _ = net.objective(2, [0, 1, 1])
    good = {
        "k": 2, "assignment": [0, 1, 1], "energy": energy,
        "jain": net.jain(2, [0, 1, 1]), "distance_index": net.distance_index([0, 1, 1]),
        "kpi_alpha": 0.5,
    }
    good["kpi"] = 0.5 * good["jain"] + 0.5 * good["distance_index"]
    assert check_report(net, 2, good) == []
    assert check_report(net, 2, {**good, "assignment": [0, 2, 1]})
    assert check_report(net, 2, {**good, "jain": 1.5})
    assert check_report(net, 2, {**good, "energy": energy + 1e-3})


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "trends24",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "heatfair sources not found" in proc.stderr
