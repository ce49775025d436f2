import contextlib
import csv
import io
import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heatfair import (
    PenaltyConfig,
    Topology,
    build_qubo,
    cli,
    default_penalties,
    demands_to_csv_text,
    import_qubo,
    load_topology,
    load_weights,
    save_topology,
    save_weights,
    synthetic_demands,
    uniform_weights,
)

PATH4 = Topology(nodes=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch, capsys):
    # capsys keeps the CLI's stderr progress lines out of the terminal
    # even when the suite runs uncaptured
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    return tmp_path


def write_demands(path, nodes, timesteps=24, seed=0):
    demands = synthetic_demands(nodes, timesteps=timesteps, seed=seed)
    path.write_text(demands_to_csv_text(demands))
    return demands


def test_generate_ring(tmp_path, capsys):
    out = tmp_path / "ring.json"
    assert cli.main(["generate", "ring", "--nodes", "6", "-o", str(out)]) == 0
    topo = load_topology(str(out))
    assert topo.nodes == 6 and topo.num_edges == 6
    assert "6 nodes, 6 edges" in capsys.readouterr().err


def test_generate_tree(tmp_path):
    out = tmp_path / "tree.json"
    assert cli.main([
        "generate", "tree", "--nodes", "7", "--branching", "2", "-o", str(out)
    ]) == 0
    topo = load_topology(str(out))
    assert topo.nodes == 7 and topo.num_edges == 6


def test_generate_rejects_bad_sizes(capsys):
    assert cli.main(["generate", "ring", "--nodes", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" == err[-1] and err.count("\n") == 1


def test_generate_requires_nodes(capsys):
    assert cli.main(["generate", "ring"]) == 2
    assert "--nodes is required" in capsys.readouterr().err


def test_weights_from_demands(tmp_path):
    csv_path = tmp_path / "demands.csv"
    write_demands(csv_path, nodes=5, seed=4)
    out = tmp_path / "w.json"
    assert cli.main(["weights", str(csv_path), "-o", str(out)]) == 0
    weights = load_weights(str(out))
    assert weights.nodes == 5
    assert float(weights.values.sum()) == pytest.approx(1.0, abs=1e-12)


def test_weights_rejects_idle_node(tmp_path, capsys):
    csv_path = tmp_path / "demands.csv"
    csv_path.write_text("hub,annex\n1.0,0.0\n2.0,0.0\n")
    assert cli.main(["weights", str(csv_path)]) == 2
    assert "annex" in capsys.readouterr().err


def test_weights_scales_to_a_year(tmp_path):
    csv_path = tmp_path / "year.csv"
    write_demands(csv_path, nodes=10, timesteps=8760, seed=1)
    started = time.monotonic()
    assert cli.main(["weights", str(csv_path), "-o", str(tmp_path / "w.json")]) == 0
    assert time.monotonic() - started < 5.0


def test_solve_exhaustive_interleaves_path(tmp_path):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    w_path = tmp_path / "w.json"
    save_weights(uniform_weights(4), str(w_path))
    out = tmp_path / "res.json"
    assert cli.main([
        "solve", str(topo_path), "--weights", str(w_path), "--k", "2",
        "--solver", "exhaustive", "-o", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["assignment"] == [0, 1, 0, 1]
    assert doc["energy"] == pytest.approx(0.0, abs=1e-12)
    assert doc["wall_time"] is None
    assert list(doc) == [
        "assignment", "k", "energy", "solver_name", "seed", "iterations", "wall_time",
        "jain", "distance_index", "kpi", "kpi_alpha",
    ]
    assert doc["solver_name"] == "exhaustive"
    assert 0.0 <= doc["jain"] <= 1.0 and 0.0 <= doc["kpi"] <= 1.0
    assert doc["kpi_alpha"] == 0.5


def test_solve_is_byte_deterministic(tmp_path):
    topo_path = tmp_path / "ring.json"
    cli.main(["generate", "ring", "--nodes", "8", "--chords", "2",
              "--distance", "uniform", "--seed", "3", "-o", str(topo_path)])
    csv_path = tmp_path / "demands.csv"
    write_demands(csv_path, nodes=8, seed=5)
    w_path = tmp_path / "w.json"
    cli.main(["weights", str(csv_path), "-o", str(w_path)])
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main([
            "solve", str(topo_path), "--weights", str(w_path), "--k", "3",
            "--solver", "anneal", "--sweeps", "200", "--restarts", "2",
            "--seed", "42", "-o", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_rejects_unknown_solver(tmp_path, capsys):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", str(topo_path), "--solver", "quantum"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_solve_requires_weights_and_k(tmp_path, capsys):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    assert cli.main(["solve", str(topo_path), "--k", "2"]) == 2
    assert "--weights is required" in capsys.readouterr().err
    w_path = tmp_path / "w.json"
    save_weights(uniform_weights(4), str(w_path))
    assert cli.main(["solve", str(topo_path), "--weights", str(w_path)]) == 2
    assert "--k is required" in capsys.readouterr().err


def test_solve_penalty_flags_must_pair(tmp_path, capsys):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    w_path = tmp_path / "w.json"
    save_weights(uniform_weights(4), str(w_path))
    assert cli.main([
        "solve", str(topo_path), "--weights", str(w_path), "--k", "2",
        "--alpha", "4.0",
    ]) == 2
    assert "--alpha and --gamma together" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--beta", "1e308", "--alpha", "1", "--gamma", "1"],
    ["solve", "--solver", "anneal", "--alpha", "1e308", "--gamma", "1"],
    ["qubo", "--unweighted", "--beta", "1e308", "--alpha", "1", "--gamma", "1"],
    ["qubo", "--alpha", "1", "--gamma", "1e308"],
], ids=["solve-beta", "anneal-alpha", "qubo-unweighted-beta", "qubo-gamma"])
def test_overflowing_coefficients_exit_2(argv, tmp_path, capsys):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    w_path = tmp_path / "w.json"
    save_weights(uniform_weights(4), str(w_path))
    command, *flags = argv
    if "--unweighted" not in flags:
        flags += ["--weights", str(w_path)]
    out = tmp_path / "out"
    assert cli.main([command, str(topo_path), "--k", "2", *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "not finite" in err
    assert not out.exists()


def test_qubo_export_matches_library_build(tmp_path):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    w = uniform_weights(4)
    w_path = tmp_path / "w.json"
    save_weights(w, str(w_path))
    out = tmp_path / "inst.qubo"
    assert cli.main([
        "qubo", str(topo_path), "--weights", str(w_path), "--k", "2",
        "-o", str(out),
    ]) == 0
    loaded = import_qubo(str(out))
    direct = build_qubo(PATH4, w, 2, default_penalties(PATH4, w, 2))
    assert loaded.linear == direct.linear
    assert loaded.quadratic == direct.quadratic
    assert loaded.offset == direct.offset


def test_qubo_unweighted_needs_no_weights(tmp_path):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    out = tmp_path / "inst.qubo"
    assert cli.main([
        "qubo", str(topo_path), "--unweighted", "--k", "2",
        "--beta", "1.0", "--alpha", "2.0", "--gamma", "8.0", "-o", str(out),
    ]) == 0
    assert import_qubo(str(out)).num_vars == 8


def test_qubo_requires_weights_or_unweighted(tmp_path, capsys):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    assert cli.main(["qubo", str(topo_path), "--k", "2"]) == 2
    assert "--weights is required unless --unweighted" in capsys.readouterr().err


def test_sweep_writes_selected_formats(tmp_path):
    topo_path = tmp_path / "ring.json"
    cli.main(["generate", "ring", "--nodes", "8", "-o", str(topo_path)])
    csv_path = tmp_path / "demands.csv"
    write_demands(csv_path, nodes=8, seed=2)
    prefix = tmp_path / "out" / "sweep"
    (tmp_path / "out").mkdir()
    assert cli.main([
        "sweep", str(topo_path), "--demands", str(csv_path),
        "--max-producers", "4", "--format", "json,csv,gnuplot",
        "-o", str(prefix),
    ]) == 0
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert len(doc["reports"]) == 4
    assert doc["provenance"]["label"] == "ring"
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "k,solver,jain,distance_index,kpi,energy"
    assert len(csv_lines) == 5
    for index_name in ("jain", "distance_index", "kpi"):
        text = (tmp_path / "out" / f"sweep.{index_name}.dat").read_text()
        assert text.startswith("# solver: heuristic\n")


def test_sweep_is_byte_deterministic(tmp_path):
    topo_path = tmp_path / "ring.json"
    cli.main(["generate", "ring", "--nodes", "7", "--chords", "1",
              "-o", str(topo_path)])
    csv_path = tmp_path / "demands.csv"
    write_demands(csv_path, nodes=7, seed=8)
    blobs = []
    for sub in ("one", "two"):
        outdir = tmp_path / sub
        outdir.mkdir()
        assert cli.main([
            "sweep", str(topo_path), "--demands", str(csv_path),
            "--max-producers", "3", "--solvers", "heuristic,anneal",
            "--sweeps", "150", "--restarts", "2", "--seed", "5",
            "-o", str(outdir / "s"),
        ]) == 0
        blobs.append(
            (outdir / "s.json").read_bytes() + (outdir / "s.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_sweep_rejects_unknown_format(tmp_path, capsys):
    topo_path = tmp_path / "ring.json"
    cli.main(["generate", "ring", "--nodes", "5", "-o", str(topo_path)])
    csv_path = tmp_path / "demands.csv"
    write_demands(csv_path, nodes=5)
    assert cli.main([
        "sweep", str(topo_path), "--demands", str(csv_path), "--format", "xml",
    ]) == 2
    assert "unknown output formats" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [(["--sweeps", "0"], "sweeps must be >= 1"),
     (["--restarts", "0"], "restarts must be >= 1"),
     (["--t-initial", "1", "--t-final", "2"], "need t_initial > t_final > 0"),
     (["--t-initial", "inf", "--t-final", "1"], "must be finite"),
     (["--exhaustive-cap", "0"], "exhaustive_cap must be >= 1")],
    ids=["sweeps", "restarts", "temperatures", "infinite_temperature", "exhaustive_cap"],
)
def test_sweep_rejects_invalid_solver_settings(tmp_path, capsys, flags, message):
    save_topology(PATH4, str(tmp_path / "p4.json"))
    write_demands(tmp_path / "d.csv", nodes=4)
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert cli.main([
        "sweep", str(tmp_path / "p4.json"), "--demands", str(tmp_path / "d.csv"),
        "--solvers", "heuristic,anneal", *flags, "-o", str(outdir / "s"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert list(outdir.iterdir()) == []


def test_compare_spans_both_topologies(tmp_path):
    csv_path = tmp_path / "demands.csv"
    write_demands(csv_path, nodes=8, seed=3)
    sweep_paths = []
    for kind, label in (("ring", "loop"), ("tree", "branch")):
        topo_path = tmp_path / f"{kind}.json"
        cli.main(["generate", kind, "--nodes", "8", "-o", str(topo_path)])
        prefix = tmp_path / kind
        assert cli.main([
            "sweep", str(topo_path), "--demands", str(csv_path),
            "--max-producers", "3", "--label", label, "-o", str(prefix),
        ]) == 0
        sweep_paths.append(str(prefix) + ".json")
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", *sweep_paths, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("topology,solver,k,jain,distance_index,kpi\n")
    assert ",loop," not in text  # label is the row key, not embedded mid-row
    assert text.count("\nloop,") == 3 and text.count("branch,") == 3


def test_compare_rejects_mismatched_sweeps(tmp_path, capsys):
    topo_path = tmp_path / "ring.json"
    cli.main(["generate", "ring", "--nodes", "8", "-o", str(topo_path)])
    csv_path = tmp_path / "demands.csv"
    write_demands(csv_path, nodes=8, seed=3)
    for depth, name in ((3, "a"), (4, "b")):
        assert cli.main([
            "sweep", str(topo_path), "--demands", str(csv_path),
            "--max-producers", str(depth), "--label", name,
            "-o", str(tmp_path / name),
        ]) == 0
    assert cli.main([
        "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
    ]) == 2
    assert "max_producers" in capsys.readouterr().err


def test_config_file_sits_between_defaults_and_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nodes": 5, "output": str(tmp_path / "c.json")}))
    assert cli.main(["generate", "ring", "--config", str(cfg_path)]) == 0
    assert load_topology(str(tmp_path / "c.json")).nodes == 5
    assert cli.main([
        "generate", "ring", "--config", str(cfg_path), "--nodes", "7",
    ]) == 0
    assert load_topology(str(tmp_path / "c.json")).nodes == 7


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"nodez": 5}))
    assert cli.main(["generate", "ring", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "nodez" in err


def test_output_dir_env_redirects_relative_paths(tmp_path, monkeypatch):
    target = tmp_path / "collected"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    assert cli.main(["generate", "ring", "--nodes", "5", "-o", "ring.json"]) == 0
    assert (target / "ring.json").exists()
    absolute = tmp_path / "abs.json"
    assert cli.main(["generate", "ring", "--nodes", "5", "-o", str(absolute)]) == 0
    assert absolute.exists()
    assert not (target / "abs.json").exists()


def test_failed_runs_leave_no_partial_outputs(tmp_path):
    topo_path = tmp_path / "ring.json"
    cli.main(["generate", "ring", "--nodes", "5", "-o", str(topo_path)])
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("a,b,c,d,e\n1.0,2.0,1.0,1.0,-3.0\n")
    outdir = tmp_path / "results"
    outdir.mkdir()
    assert cli.main([
        "sweep", str(topo_path), "--demands", str(bad_csv),
        "-o", str(outdir / "s"),
    ]) == 2
    assert list(outdir.iterdir()) == []


def test_missing_input_reports_one_line(tmp_path, capsys):
    assert cli.main(["weights", str(tmp_path / "nope.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve", {"k": "2"}),
        ("sweep", {"restarts": 2.5}),
        ("solve", {"sweeps": True}),
        ("sweep", {"threads": None}),
        ("solve", {"kpi_alpha": "0.5"}),
        ("solve", {"output": 3}),
        ("sweep", {"alpha": 10**400, "gamma": 1.0}),
    ],
    ids=["str-int", "float-int", "bool-int", "null-int", "str-float", "int-str", "huge-float"],
)
def test_config_values_must_match_flag_types(tmp_path, capsys, command, doc):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    save_weights(uniform_weights(4), str(tmp_path / "w.json"))
    write_demands(tmp_path / "d.csv", nodes=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    inputs = (
        ["--weights", str(tmp_path / "w.json"), "--k", "2"] if command == "solve"
        else ["--demands", str(tmp_path / "d.csv")]
    )
    assert cli.main([command, str(topo_path), *inputs, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"'{next(iter(doc))}' must be" in err


def test_config_accepts_integers_for_float_options(tmp_path):
    topo_path = tmp_path / "p4.json"
    save_topology(PATH4, str(topo_path))
    save_weights(uniform_weights(4), str(tmp_path / "w.json"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 2, "gamma": 3, "k": 2, "weights": None}))
    assert cli.main([
        "solve", str(topo_path), "--weights", str(tmp_path / "w.json"),
        "--config", str(cfg_path), "-o", str(tmp_path / "r.json"),
    ]) == 0


def test_solve_rejects_fractional_edge_endpoint(tmp_path, capsys):
    doc = {"nodes": [{"id": 0}, {"id": 1}], "edges": [{"a": 0, "b": 1.5, "distance": 1.0}]}
    (tmp_path / "t.json").write_text(json.dumps(doc))
    save_weights(uniform_weights(2), str(tmp_path / "w.json"))
    assert cli.main([
        "solve", str(tmp_path / "t.json"), "--weights", str(tmp_path / "w.json"), "--k", "2",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "edge entry 0: 'b' must be an integer" in err


@pytest.mark.parametrize("weights", ['[0.5, true]', '["0.5", "0.5"]'])
def test_solve_rejects_non_numeric_weights(tmp_path, capsys, weights):
    save_topology(Topology(nodes=2, edges=((0, 1, 1.0),)), str(tmp_path / "t.json"))
    (tmp_path / "w.json").write_text('{"weights": %s}' % weights)
    assert cli.main([
        "solve", str(tmp_path / "t.json"), "--weights", str(tmp_path / "w.json"), "--k", "2",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be a number, got" in err


@pytest.mark.parametrize("command", ["generate", "solve", "sweep"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    save_topology(PATH4, str(tmp_path / "p4.json"))
    save_weights(uniform_weights(4), str(tmp_path / "w.json"))
    write_demands(tmp_path / "d.csv", nodes=4)
    inputs = {
        "generate": ["ring", "--nodes", "5"],
        "solve": [str(tmp_path / "p4.json"), "--weights", str(tmp_path / "w.json"), "--k", "2"],
        "sweep": [str(tmp_path / "p4.json"), "--demands", str(tmp_path / "d.csv")],
    }[command]
    assert cli.main([command, *inputs, "--seed", "-1", "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: --seed must be >= 0, got -1\n"


def junk(ints):
    """Any JSON value, with integers drawn from `ints`."""
    leaves = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=3)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=2)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=3,
    )


# integers stay small wherever they size the work (k, sweeps, restarts, threads)
SMALL_JUNK = junk(st.integers(-2, 3))
CONFIG_VALUES = {
    "k": st.integers(1, 3), "max_producers": st.integers(1, 3),
    "solver": st.sampled_from(["heuristic", "anneal", "exhaustive"]),
    "solvers": st.sampled_from(["heuristic", "anneal,exhaustive"]),
    "beta": st.floats(0.1, 5), "alpha": st.floats(0.1, 50), "gamma": st.floats(0.1, 50),
    "sweeps": st.integers(1, 20), "restarts": st.integers(1, 3),
    "t_initial": st.floats(0.1, 10), "t_final": st.floats(0.1, 10),
    "schedule": st.sampled_from(["geometric", "linear"]),
    "exhaustive_cap": st.integers(0, 30), "kpi_alpha": st.floats(0, 1),
    "seed": st.integers(0, 2**70), "threads": st.integers(1, 2),
    "format": st.sampled_from(["json,csv", "gnuplot"]), "label": st.text(max_size=4),
}


# a demand CSV as rows of cells: a spoilt cell, row or file becomes text
CSV_JUNK = st.text(max_size=4) | st.floats().map(repr) | st.lists(st.text(max_size=3), max_size=3)


def csv_text(rows):
    if not isinstance(rows, list):
        return rows
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow(row if isinstance(row, list) else [row])
    return out.getvalue()


def spoil(data, doc, values, depth=0):
    """doc with one value, or itself, replaced by a draw from values;
    the deeper the value, the likelier the replacement stops there."""
    if not isinstance(doc, (dict, list)) or not doc or data.draw(st.integers(0, 4)) <= depth:
        return data.draw(values)
    key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[key] = spoil(data, doc[key], values, depth + 1)
    return doc


@settings(max_examples=200, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_survives_random_documents(data):
    """Random topology, config, weights (solve) and demand (sweep)
    documents, valid or with one value spoilt anywhere in them, end in
    exit 0 or 2 and never a traceback."""
    command = data.draw(st.sampled_from(["solve", "sweep"]))
    n = data.draw(st.integers(1, 5))
    chords = [(a, b) for a in range(n) for b in range(a + 2, n)]
    pairs = [(a, a + 1) for a in range(n - 1)] + data.draw(
        st.lists(st.sampled_from(chords), unique=True, max_size=3) if chords else st.just([])
    )
    topology = {
        "nodes": [{"id": i} for i in range(n)],
        "edges": [{"a": a, "b": b, "distance": data.draw(st.floats(0.1, 3.0))} for a, b in pairs],
    }
    config = {"sweep": {"max_producers": 2}, "solve": {"k": 2}}[command]
    config.update(data.draw(st.fixed_dictionaries({}, optional={
        key: values for key, values in CONFIG_VALUES.items() if key in cli._DEFAULTS[command]
    })))
    weights = {"weights": uniform_weights(n).values.tolist()}
    demands = [row.split(",") for row in demands_to_csv_text(
        synthetic_demands(n, timesteps=4, seed=0)).splitlines()]
    spoilt = data.draw(st.sampled_from(
        ["none", "topology", "config", "weights" if command == "solve" else "demands"]
    ))
    if spoilt == "topology":
        topology = spoil(data, topology, junk(st.integers(-2, 2**70)))
    elif spoilt == "config":
        config = spoil(data, config, SMALL_JUNK)
    elif spoilt == "weights":
        weights = spoil(data, weights, junk(st.integers(-2, 2**70)))
    elif spoilt == "demands":
        demands = spoil(data, demands, CSV_JUNK)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("t.json", "c.json", "w.json", "d.csv")}
        for name, doc in (("t.json", topology), ("c.json", config), ("w.json", weights)):
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with open(paths["d.csv"], "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text(demands))
        inputs = ["--weights", paths["w.json"]] if command == "solve" else ["--demands", paths["d.csv"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.main([
                command, paths["t.json"], *inputs, "--config", paths["c.json"],
                "-o", os.path.join(tmp, "out"),
            ])
    assert status in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
