"""Golden digests: `heatfair sweep` and `heatfair qubo` outputs at fixed
seeds, pinned by SHA-256.

The 24-node ring and tree and their demand profile are the ones
scripts/reproduce_trends.py sweeps (pipe lengths uniform in [0.5, 2.0],
topology seed 7, demand seed 11, anchor scale 20); the 8-node ring is
small enough for the exhaustive solver. Every float in these files comes
from IEEE arithmetic in a fixed order, and no libm call, so the digests
hold on any host:

- which assignment wins: the heuristic prices load balance with
  products such as 2*alpha*w_i*L_j, takes no square, and adds edge
  coefficients in neighbour-list order;
- energy: qubo.feasible_energies, the objective's closed form with no
  offset. np.bincount adds each producer's load in node order, and the
  balance, edge and node sums are cumulative sums, one term at a time,
  in producer, edge and node order, never numpy's pairwise sum;
- jain: the loads of fairness.producer_loads (np.bincount, node order),
  then numpy's sum and dot product of the k loads;
- distance_index: numpy's sums of the pair distances, in
  np.triu_indices order; kpi blends the two indices.

Anneal outputs are left out: the annealer's acceptance limits use
np.log1p, whose last bit follows numpy's SIMD dispatch target, and a
gate must not depend on the host CPU.
"""

import hashlib

import pytest

from heatfair import cli, demands_to_csv_text, synthetic_demands

# name -> (generate flags, node count)
NETWORKS = {
    "ring24": (["ring", "--nodes", "24", "--chords", "4"], 24),
    "tree24": (["tree", "--nodes", "24", "--branching", "3"], 24),
    "ring8": (["ring", "--nodes", "8", "--chords", "2"], 8),
}

SWEEPS = {
    "ring24-heuristic": ("ring24", ["--solvers", "heuristic", "--max-producers", "8"]),
    "tree24-heuristic-seed3": (
        "tree24", ["--solvers", "heuristic", "--max-producers", "8", "--seed", "3"]
    ),
    # k = 4 is past the exhaustive cap: that cell becomes a warning
    "ring8-exhaustive": ("ring8", ["--solvers", "exhaustive,heuristic", "--max-producers", "4"]),
}

QUBOS = {
    "ring24-k3": ("ring24", ["--k", "3", "--weights", "ring24-weights.json"]),
    "tree24-k4-unweighted": ("tree24", ["--k", "4", "--unweighted"]),
}

GOLDEN = {
    "ring24-heuristic.json": "1e24a6deec1bee33b3cdd531531bfe8769f912ea3037bd709f91bbc5d62d18de",
    "ring24-heuristic.csv": "eba5768637c70a8902f562691d22e932f523ae00fe174c4ab6efcd447d4f5683",
    "ring24-heuristic.jain.dat": "b0741289de0c8b39d03e1a78e646a79d83983124e98722f5a29b7e9be2fd3834",
    "ring24-heuristic.distance_index.dat":
        "228db2b7cf2620fc70a1ee4e08c9f298f80c2ca41b638bf81b466f62afd9ef60",
    "ring24-heuristic.kpi.dat": "d55f7687e78245d6b4f3c38af549a14f90a9fca2d1832cfacc9991df5a8434aa",
    "tree24-heuristic-seed3.json":
        "a8dddd59b546c55508112d73dc6e5a6607b42cea86e5727310abdf35b7929ca6",
    "tree24-heuristic-seed3.csv":
        "e4161d5548faed6428011d888edfac13a0aec33f54833dd529c0e31a8be46319",
    "tree24-heuristic-seed3.jain.dat":
        "58d10611de57bec3758af0d8b6a5e4aa7066a9007be9478f94a405f9d8dd766c",
    "tree24-heuristic-seed3.distance_index.dat":
        "cfb02ae69a64bdc9555fc53e60857a5dd4367495db31e1745f23585c095d95a1",
    "tree24-heuristic-seed3.kpi.dat":
        "fb7a7fe222d743f008a552ff43858b51d2d6edbcaa5ea11b45ebf9cf2706b443",
    "ring8-exhaustive.json": "443ce812b290b3cc569cbb0d8b0cbedf7f15076984ce499ff44d8c73959079bd",
    "ring8-exhaustive.csv": "b83f46d783d9118efaf2f5793d948f4a7fa49103c3ae935db33bc4543b28ad62",
    "ring8-exhaustive.jain.dat": "a5cc01e6ff88ee7528ba4c49eddf610b230327d0051ed84437bf72401f20731c",
    "ring8-exhaustive.distance_index.dat":
        "c0742bd3b3d97957b232d595682f25bda24f7b3b2f52b21b37721862b3bf88e5",
    "ring8-exhaustive.kpi.dat": "04739fbd545a0c2d6be5aa058465c4b5a31641a73ee2dcf2c82f7786e95a5913",
    "ring24-k3.qubo": "45f175eef5a61682c00ab34277c2f079d4641b0ab3e3979365697254ba3502f2",
    "ring24-k3.qubo.map": "cc622e7f6b02bd65e3f4bbe4fd69a66b5d24da852ebab5b5eeeb3e32a19238df",
    "tree24-k4-unweighted.qubo":
        "cc39ca1b1fb5812b291df880012e4030670b8fa284ad8172e30237e339021ea8",
    "tree24-k4-unweighted.qubo.map":
        "2b68c1dd48ff441cd1324beeb02eff810706146225ca8f3d733210eb4bb2fc6c",
}


def run(argv):
    assert cli.main(argv) == 0, argv


def digests(directory, names):
    out = {}
    for name in names:
        with open(directory / name, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture
def inputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    for name, (flags, nodes) in NETWORKS.items():
        run(["generate", *flags, "--distance", "uniform", "--seed", "7", "-o", f"{name}.json"])
        demands = synthetic_demands(nodes, timesteps=168, seed=11, anchor_scale=20.0)
        (tmp_path / f"{name}-demands.csv").write_text(demands_to_csv_text(demands))
    run(["weights", "ring24-demands.csv", "-o", "ring24-weights.json"])
    return tmp_path


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_outputs_match_golden_digests(case, inputs):
    network, flags = SWEEPS[case]
    run(["sweep", f"{network}.json", "--demands", f"{network}-demands.csv", *flags,
         "--format", "json,csv,gnuplot", "-o", case])
    names = [f"{case}.{ext}" for ext in ("json", "csv", "jain.dat", "distance_index.dat", "kpi.dat")]
    assert digests(inputs, names) == {name: GOLDEN[name] for name in names}


@pytest.mark.parametrize("case", sorted(QUBOS))
def test_qubo_export_matches_golden_digests(case, inputs):
    network, flags = QUBOS[case]
    run(["qubo", f"{network}.json", *flags, "-o", f"{case}.qubo"])
    names = [f"{case}.qubo", f"{case}.qubo.map"]
    assert digests(inputs, names) == {name: GOLDEN[name] for name in names}
