"""Every count, positive real, real array and seed of the public API fails with a named
ValueError."""

import math
import re

import numpy as np
import pytest

import binident as bi

STAR2 = np.array([0.5, -0.4])
SPARSE2 = bi.SparseUniformRegressors(2)
NOISE = bi.GaussianNoise(0.01)
MODEL = bi.SystemModel(STAR2, SPARSE2, NOISE, 2)
GRAPH = bi.complete_graph(2)
WEIGHTS = bi.metropolis_weights(GRAPH)
SCHEDULE = bi.TopologySchedule.static(GRAPH, WEIGHTS)
START = bi.NetworkSnapshot.initial(2, 2)


def _snapshot(k):
    return bi.NetworkSnapshot(k=k, theta=np.zeros((2, 2)), sigma=np.zeros(2), ledger=START.ledger)


def _step(gain):
    return bi.dsaawet_identification_step(START, WEIGHTS, MODEL, bi.ModelStreams(MODEL, 1), gain)


def _engine_step(a_k):
    state = bi.EngineState(x=np.zeros((2, 2)), sigma=np.zeros(2))
    return bi.generic_dsaawet_step(state, WEIGHTS, np.ones((2, 2)), a_k)


def _mc(samples):
    return bi.regression_function_mc(bi.RegressionContext(MODEL), STAR2, samples, 0)


# (callee, parameter, its lowest valid value, call with the value in that parameter)
COUNTS = [
    ("run", "steps", 0, lambda v: bi.run(MODEL, SCHEDULE, v, seed=1)),
    ("NetworkSnapshot", "k", 1, _snapshot),
    ("RegressionContext", "quad_nodes", 2, lambda v: bi.RegressionContext(MODEL, quad_nodes=v)),
    ("RegressionContext", "mc_fallback_samples", 1,
     lambda v: bi.RegressionContext(MODEL, mc_fallback_samples=v)),
    ("RegressionContext", "mc_fallback_seed", 0,
     lambda v: bi.RegressionContext(MODEL, mc_fallback_seed=v)),
    ("regression_function_mc", "samples", 1, _mc),
    ("TrajectoryRecorder", "stride", 1, lambda v: bi.TrajectoryRecorder(STAR2, stride=v)),
    ("centralized_baseline", "steps", 0, lambda v: bi.centralized_baseline(MODEL, v, 0)),
    ("centralized_baseline", "record_every", 1,
     lambda v: bi.centralized_baseline(MODEL, 10, 0, record_every=v)),
    ("centralized_baseline", "seed", 0, lambda v: bi.centralized_baseline(MODEL, 10, v)),
    ("identifiability_probe", "agent", 1, lambda v: bi.identifiability_probe(MODEL, v, 10, 0)),
    ("SparseUniformRegressors", "l", 1, lambda v: bi.SparseUniformRegressors(v)),
    ("SparseUniformRegressors", "support", 1,
     lambda v: bi.SparseUniformRegressors(2, support=(v, 1))),
    ("DenseUniformRegressors", "l", 1, lambda v: bi.DenseUniformRegressors(v)),
    ("SystemModel", "n_agents", 1, lambda v: bi.SystemModel(STAR2, SPARSE2, NOISE, v)),
    ("StreamBank", "block", 1, lambda v: bi.StreamBank([1, 2], np.random.Generator.random, v)),
    ("Digraph", "n", 1, lambda v: bi.Digraph(n=v, edges=frozenset())),
    ("from_undirected_pairs", "n", 1, lambda v: bi.from_undirected_pairs(v, [])),
    ("complete_graph", "n", 1, bi.complete_graph),
    ("ring_graph", "n", 1, bi.ring_graph),
    ("generate_poisson_graph", "n", 1, lambda v: bi.generate_poisson_graph(v, 0.5, 0)),
    ("partitioned_ring_schedule", "n", 1, lambda v: bi.partitioned_ring_schedule(v, 1)),
    ("partitioned_ring_schedule", "period", 1, lambda v: bi.partitioned_ring_schedule(4, v)),
    ("deviation_profile", "s", 1, lambda v: bi.deviation_profile(SCHEDULE, v, 3)),
    ("deviation_profile", "max_lag", 0, lambda v: bi.deviation_profile(SCHEDULE, 1, v)),
    ("TruncationLedger.initial", "n_agents", 1, bi.TruncationLedger.initial),
    ("NetworkSnapshot.initial", "n_agents", 1, lambda v: bi.NetworkSnapshot.initial(v, 2)),
    ("TopologySchedule", "B", 1, lambda v: bi.TopologySchedule(B=v, weights=(WEIGHTS,))),
]

# (callee, parameter, call with the value in that parameter)
REALS = [
    ("run", "gain", lambda v: bi.run(MODEL, SCHEDULE, 1, seed=1, gain=v)),
    ("dsaawet_identification_step", "gain", _step),
    ("generic_dsaawet_step", "a_k", _engine_step),
    ("identifiability_probe", "threshold",
     lambda v: bi.identifiability_probe(MODEL, 1, 10, 0, threshold=v)),
    ("GaussianNoise", "sigma2", bi.GaussianNoise),
    ("LaplaceNoise", "scale", bi.LaplaceNoise),
    ("UniformNoise", "half_width", bi.UniformNoise),
    ("DenseUniformRegressors", "bound", lambda v: bi.DenseUniformRegressors(2, bound=v)),
]

CASES = [
    (where, name, call, value)
    for where, name, low, call in COUNTS
    for value in (2.5, True, "2", None, low - 1)
] + [
    (where, name, call, value)
    for where, name, call in REALS
    for value in (0, -1, math.nan, math.inf, True, "1")
]


@pytest.mark.parametrize(
    "where, name, call, value", CASES,
    ids=[f"{where}-{name}={value!r}" for where, name, _, value in CASES],
)
def test_each_count_and_positive_real_is_rejected_by_name(where, name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


# ---------------------------------------------------------------------------
# real arrays and seeds

CTX = bi.RegressionContext(MODEL)
DECAY = 0.5 ** np.arange(1, 6)


def _with(good, value):
    """``good`` with its first entry set to ``value``."""
    bad = np.array(good, dtype=np.float64)
    bad.flat[0] = value
    return bad


def _snap(theta):
    return bi.NetworkSnapshot(k=1, theta=theta, sigma=np.zeros(len(theta)), ledger=START.ledger)


def _engine_obs(obs):
    state = bi.EngineState(x=np.zeros((2, 2)), sigma=np.zeros(2))
    return bi.generic_dsaawet_step(state, WEIGHTS, obs, 0.5)


def _ident_step(theta):
    return bi.dsaawet_identification_step(_snap(theta), WEIGHTS, MODEL, bi.ModelStreams(MODEL, 1))


# (callee, name in the error, call, a valid value, whether its length is fixed,
#  whether the call takes an array of another rank)
ARRAYS = [
    ("regression_function", "theta", lambda v: bi.regression_function(CTX, v), STAR2, True, True),
    ("regression_jacobian", "theta", lambda v: bi.regression_jacobian(CTX, v), STAR2, True, True),
    ("regression_function_mc", "theta",
     lambda v: bi.regression_function_mc(CTX, v, 10, 0), STAR2, True, True),
    ("solve_root", "theta_init", lambda v: bi.solve_root(CTX, v), STAR2, True, True),
    ("SystemModel", "theta_star",
     lambda v: bi.SystemModel(v, SPARSE2, NOISE, 2), STAR2, False, True),
    ("ExperimentConfig.resolved_theta_star", "model.theta_star: theta_star",
     lambda v: bi.ExperimentConfig(n_agents=2, l=2, steps=1, seed=0, theta_star=v)
     .resolved_theta_star(), STAR2, True, True),
    ("TrajectoryRecorder", "theta_star", bi.TrajectoryRecorder, STAR2, False, True),
    ("estimation_errors", "theta_star",
     lambda v: bi.estimation_errors(START, v), STAR2, True, True),
    ("mean_error", "theta_star", lambda v: bi.mean_error(START, v), STAR2, True, True),
    ("fit_geometric_envelope", "deviations", bi.fit_geometric_envelope, DECAY, False, True),
    ("WeightMatrix", "weights", lambda v: bi.WeightMatrix(GRAPH, v), WEIGHTS.w, True, True),
    ("generic_dsaawet_step", "observations", _engine_obs, np.ones((2, 2)), True, True),
    ("run", "init.theta",
     lambda v: bi.run(MODEL, SCHEDULE, 1, init=_snap(v), seed=1), np.zeros((2, 2)), True, False),
    ("dsaawet_identification_step", "s.theta", _ident_step, np.zeros((2, 2)), True, False),
]

ARRAY_CASES = [
    (where, name, call, value)
    for where, name, call, good, fixed, reranks in ARRAYS
    for value in (
        [_with(good, math.nan), _with(good, math.inf), _with(good, -math.inf)]
        + ([np.concatenate([good, good[:1]])] if fixed else [])
        + ([np.asarray(good)[None]] if reranks else [])
    )
]


@pytest.mark.parametrize(
    "where, name, call, value", ARRAY_CASES,
    ids=[f"{where}-{i}" for i, (where, *_) in enumerate(ARRAY_CASES)],
)
def test_each_real_array_is_rejected_by_name(where, name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must (be finite|have shape)"):
        call(value)


def test_a_recorder_rejects_a_theta_star_of_another_length_before_reducing_a_row():
    recorder = bi.TrajectoryRecorder(np.zeros(3))
    with pytest.raises(ValueError, match=re.escape("theta_star must have shape (2,), got (3,)")):
        bi.run(MODEL, SCHEDULE, 5, seed=1, sinks=(recorder,))


# (callee, call with the seed or rng in its seed parameter)
SEEDS = [
    ("ModelStreams", lambda v: bi.ModelStreams(MODEL, v)),
    ("spawn_agent_sequences", lambda v: bi.spawn_agent_sequences(v, 2)),
    ("run", lambda v: bi.run(MODEL, SCHEDULE, 1, seed=v)),
    ("centralized_baseline", lambda v: bi.centralized_baseline(MODEL, 10, v)),
    ("identifiability_probe", lambda v: bi.identifiability_probe(MODEL, 1, 10, v)),
    ("regression_function_mc", lambda v: bi.regression_function_mc(CTX, STAR2, 10, v)),
    ("generate_poisson_graph", lambda v: bi.generate_poisson_graph(4, 0.5, v)),
]

SEED_CASES = [
    (where, call, value)
    for where, call in SEEDS
    for value in (2.5, True, np.bool_(True), "3", -1, np.float64(1.0))
    + ((None,) if where != "run" else ())    # run(seed=None) asks for streams= or seed=
]


@pytest.mark.parametrize(
    "where, call, value", SEED_CASES,
    ids=[f"{where}={value!r}" for where, _, value in SEED_CASES],
)
def test_each_seed_is_rejected_by_name(where, call, value):
    with pytest.raises(ValueError, match="^seed must be "):
        call(value)


def test_a_seed_draws_alike_as_an_int_a_numpy_integer_and_a_seed_sequence():
    for call in (lambda v: bi.regression_function_mc(CTX, STAR2, 100, v).value,
                 lambda v: bi.generate_poisson_graph(12, 0.5, v).adjacency(),
                 lambda v: bi.run(MODEL, SCHEDULE, 20, seed=v).theta):
        want = call(7)
        for seed in (np.int64(7), np.random.SeedSequence(7)):
            assert np.array_equal(call(seed), want)
    g = bi.generate_poisson_graph(12, 0.5, np.random.default_rng(7))
    assert g == bi.generate_poisson_graph(12, 0.5, 7)
