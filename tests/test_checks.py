"""Every count and positive real of the public API fails with a named ValueError."""

import math

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
