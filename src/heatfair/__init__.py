"""Balanced producer assignment and fairness scoring for
district-heating networks.

Workflow in one breath: describe the pipe network (graphs), reduce
demand profiles to node weights (demand), assemble the assignment
objective (qubo), minimise it (solvers), score the result (fairness),
and sweep the producer count (workflow). The cli module wires it all
into the `heatfair` command.
"""

from .demand import (
    DemandError,
    DemandMatrix,
    WeightVector,
    compute_weights,
    demands_to_csv_text,
    load_demands,
    load_weights,
    save_weights,
    synthetic_demands,
    uniform_weights,
)
from .fairness import (
    FairnessError,
    KpiReport,
    distance_index,
    jain_index,
    producer_loads,
    score_assignment,
)
from .graphs import (
    DistanceRule,
    Topology,
    TopologyError,
    all_pairs_shortest_paths,
    generate_ring,
    generate_tree,
    load_topology,
    save_topology,
)
from .qubo import (
    PenaltyConfig,
    QuboError,
    QuboFormatError,
    QuboInstance,
    Terms,
    build_qubo,
    build_unweighted_qubo,
    default_penalties,
    energies,
    energy,
    export_qubo,
    feasible_energies,
    import_qubo,
)
from .solvers import (
    AnnealConfig,
    Assignment,
    SolveResult,
    SolverError,
    canonical_form,
    decode_and_repair,
    solve_anneal,
    solve_exhaustive,
    solve_heuristic,
)
from .workflow import (
    SolverSpec,
    SweepConfig,
    SweepResult,
    VERSION,
    WorkflowError,
    compare_topologies,
    comparison_to_csv_text,
    run_sweep,
    sweep_to_csv_text,
    sweep_to_dict,
    sweep_to_gnuplot_texts,
)

__version__ = VERSION
