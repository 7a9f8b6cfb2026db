"""Distributed identification of linear systems from binary sensor readings.

Agents observing one-bit comparisons of a shared linear plant cooperate
over a time-varying network to recover the parameter vector, combining
neighbor averaging with one-bit stochastic-approximation corrections and
expanding truncations.  See the README for the module map.
"""

from .analysis import (
    MCEstimate,
    Metrics,
    RegressionContext,
    TrajectoryRecorder,
    consensus_gap,
    estimation_errors,
    jacobian_at_root,
    mean_error,
    mean_estimate,
    regression_function,
    regression_function_mc,
    regression_jacobian,
)
from .identifier import (
    EngineState,
    InvariantMonitor,
    NetworkSnapshot,
    TruncationLedger,
    dsaawet_identification_step,
    generic_dsaawet_step,
    run,
    sigma_settled,
    truncation_radii,
    truncation_spread_violations,
)
from .oracle import (
    ProbeReport,
    RootSolveError,
    centralized_baseline,
    identifiability_probe,
    solve_root,
)
from .plant import (
    CustomBoundedRegressors,
    DenseUniformRegressors,
    GaussianNoise,
    LaplaceNoise,
    NoiseModel,
    PhiBatch,
    RegressorGenerator,
    SparseUniformRegressors,
    SystemModel,
    UniformNoise,
    graded_theta_star,
    make_noise,
    sign_pm,
)
from .runner import (
    ExperimentConfig,
    ExperimentResult,
    PreflightReport,
    build_model,
    build_schedule,
    preflight,
    preset_v,
    read_trajectory_csv,
    run_experiment,
    write_trajectory_csv,
)
from .streams import ModelStreams, StreamBank, as_generator, spawn_agent_sequences
from .topology import (
    Digraph,
    GeometricFit,
    TopologySchedule,
    ValidationReport,
    WeightMatrix,
    complete_graph,
    degree_weights,
    deviation_profile,
    dump_schedule,
    fit_geometric_envelope,
    from_undirected_pairs,
    generate_poisson_graph,
    is_doubly_stochastic,
    load_schedule,
    metropolis_weights,
    partitioned_ring_schedule,
    ring_graph,
    validate_c4,
)

__version__ = "0.1.0"
