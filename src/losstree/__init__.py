"""Loss hotspot localization from tree path measurements.

Builds logical trees, whose path-link measurement matrix A is implicit in
their leaf spans (``forward(tree, np.eye(tree.n)).T`` gives it densely),
solves the underdetermined link loss system for minimum-sparsity / minimum-l1
solutions under exact or interval observations, and verifies everything
against brute-force oracles, a binary-inference baseline, and a probe
simulation harness.
"""

__version__ = "0.1.0"

from .baselines import binarize, compare_with_sparse_recovery, scfs
from .lossmodel import (
    DEFAULT_TOL,
    addloss,
    forward,
    general_solution,
    inverse_addloss,
    is_feasible,
    load_observations,
    receiver_solution,
    sample_feasible,
    save_observations,
)
from .noiseless import (
    ComplexState,
    ComplexStates,
    SolutionReport,
    classify_complexes,
    closed_form,
    put_in_upstate,
    recovery_condition,
    solution_report,
    unique_sparsest,
    upsparse,
)
from .noisy import (
    MIN_L0,
    MIN_L1,
    MIN_L1_AMONG_L0,
    IntervalObservation,
    NoisySolution,
    ZStats,
    glocal_family,
    load_intervals,
    local_min_l0,
    local_min_l1,
    save_intervals,
    upsparse_plus,
    z_stats,
)
from .oracle import (
    CensusResult,
    EnumerationResult,
    l1_sampling_check,
    lemma1_construct,
    noisy_exact_check,
    sparsest_enumerate,
    uniqueness_census,
)
from .simulation import (
    ExperimentConfig,
    ExperimentRow,
    Metrics,
    ProbeRun,
    confidence_intervals,
    cover_intervals,
    metrics,
    run_experiment,
    simulate_probes,
    write_experiment_csv,
)
from .topology import (
    LogicalTree,
    build_tree,
    gen_random_tree,
    gen_regular_tree,
    gen_ternary_tree,
    load_topology,
    save_topology,
    tree_from_spec,
)
