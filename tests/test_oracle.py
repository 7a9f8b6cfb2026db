"""Centralized baseline, root solver, single-agent identifiability probe."""

import json

import numpy as np
import pytest

import binident as bi

STAR4 = np.array([0.5, -0.4, 0.3, -0.35])


def _model(n_agents=100, l=8, noise=None, star=None):
    return bi.SystemModel(
        theta_star=bi.graded_theta_star(l) if star is None else star,
        regressor=bi.SparseUniformRegressors(l),
        noise=noise or bi.GaussianNoise(0.09),
        n_agents=n_agents,
    )


def _small_model(n_agents=4):
    return _model(n_agents, 4, noise=bi.GaussianNoise(0.01), star=STAR4)


# ---------------------------------------------------------------------------
# centralized baseline

def test_baseline_zero_steps_returns_initial_row():
    traj = bi.centralized_baseline(_model(3, 2, star=np.ones(2)), 0, seed=0)
    assert traj.shape == (1, 2)
    assert np.array_equal(traj, [[0.0, 0.0]])


def test_baseline_row_count_respects_record_every():
    traj = bi.centralized_baseline(_model(3, 2, star=np.ones(2)), 10, seed=0, record_every=4)
    # initial row, k = 4 and 8, final k = 10
    assert traj.shape == (4, 2)


def test_baseline_validates_arguments():
    m = _model(2, 2, star=np.ones(2))
    with pytest.raises(ValueError):
        bi.centralized_baseline(m, -1, seed=0)
    with pytest.raises(ValueError):
        bi.centralized_baseline(m, 5, seed=0, record_every=0)


@pytest.mark.parametrize("steps", [2.5, True, 3.0, "3"])
def test_baseline_rejects_non_integer_steps(steps):
    with pytest.raises(ValueError, match="steps must be an integer, got"):
        bi.centralized_baseline(_model(2, 2, star=np.ones(2)), steps, seed=0)


def test_baseline_accepts_numpy_integer_steps():
    m = _model(2, 2, star=np.ones(2))
    want = bi.centralized_baseline(m, 5, seed=0)
    assert np.array_equal(bi.centralized_baseline(m, np.int64(5), seed=0), want)


def test_baseline_converges_on_benchmark_model():
    traj = bi.centralized_baseline(_model(), 20_000, seed=0)
    err = np.linalg.norm(traj[-1] - bi.graded_theta_star(8))
    assert err < 0.2


def test_baseline_faster_with_vanishing_noise():
    # same seeds, same step budget: a near-noiseless sensor reads the sign
    # of the prediction error almost surely and homes in faster
    star = bi.graded_theta_star(8)
    for seed in (0, 1, 2):
        tiny = bi.centralized_baseline(_model(noise=bi.UniformNoise(0.01)), 10_000, seed)
        bench = bi.centralized_baseline(_model(), 10_000, seed)
        assert np.linalg.norm(tiny[-1] - star) < np.linalg.norm(bench[-1] - star)


def test_baseline_deterministic_per_seed():
    a = bi.centralized_baseline(_model(5, 3, star=np.ones(3)), 500, seed=7)
    b = bi.centralized_baseline(_model(5, 3, star=np.ones(3)), 500, seed=7)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# root solver

def test_solver_returns_root_immediately_when_started_there():
    ctx = bi.RegressionContext(_model())
    root = bi.solve_root(ctx, ctx.model.theta_star)
    assert np.array_equal(root, ctx.model.theta_star)


def test_solver_from_zeros_recovers_benchmark_parameter():
    ctx = bi.RegressionContext(_model())
    root = bi.solve_root(ctx, np.zeros(8))
    assert np.abs(root - ctx.model.theta_star).max() < 1e-8
    assert np.linalg.norm(bi.regression_function(ctx, root)) <= 1e-10


def test_solver_multi_start_agreement():
    ctx = bi.RegressionContext(_model())
    star = ctx.model.theta_star
    rng = np.random.default_rng(0)
    roots = [bi.solve_root(ctx, star + rng.normal(0.0, 2.0, 8)) for _ in range(10)]
    for r in roots:
        assert np.abs(r - roots[0]).max() < 1e-8
        assert np.abs(r - star).max() < 1e-8


def test_solver_survives_far_saturated_start():
    ctx = bi.RegressionContext(_model())
    root = bi.solve_root(ctx, np.full(8, 30.0))
    assert np.abs(root - ctx.model.theta_star).max() < 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_solver_rejects_non_finite_start(bad):
    ctx = bi.RegressionContext(_model())
    start = np.zeros(8)
    start[3] = bad
    with pytest.raises(ValueError, match="^theta_init must be finite"):
        bi.solve_root(ctx, start)


def test_solver_reports_singular_curvature():
    # a single agent leaves every other coordinate without curvature
    ctx = bi.RegressionContext(_model(1, 4, star=STAR4))
    with pytest.raises(bi.RootSolveError, match="singular"):
        bi.solve_root(ctx, np.zeros(4))


def test_solver_reports_iteration_budget(monkeypatch):
    monkeypatch.setattr(bi.oracle, "_MAX_ITER", 1)
    ctx = bi.RegressionContext(_model())
    with pytest.raises(bi.RootSolveError, match="no convergence in 1"):
        bi.solve_root(ctx, np.zeros(8))
    try:
        bi.solve_root(ctx, np.zeros(8))
    except bi.RootSolveError as e:
        assert e.theta.shape == (8,)
        assert e.residual_norm > 0.0


def test_solver_agrees_with_baseline_estimate():
    model = _model()
    root = bi.solve_root(bi.RegressionContext(model), np.zeros(8))
    traj = bi.centralized_baseline(model, 20_000, seed=0)
    assert np.linalg.norm(root - traj[-1]) < 0.05


# ---------------------------------------------------------------------------
# identifiability probe

def test_probe_partitions_coordinates():
    rep = bi.identifiability_probe(_small_model(), agent=1, steps=100_000, seed=11)
    assert set(rep.identifiable) == {1}
    assert set(rep.stalled) == {2, 3, 4}
    assert set(rep.identifiable) | set(rep.stalled) == {1, 2, 3, 4}
    assert not set(rep.identifiable) & set(rep.stalled)


def test_probe_stalled_errors_are_exactly_the_parameter_magnitudes():
    rep = bi.identifiability_probe(_small_model(), agent=2, steps=100_000, seed=11)
    for m in rep.stalled:
        assert rep.errors[m - 1] == abs(STAR4[m - 1])
        assert rep.final_theta[m - 1] == 0.0
    assert rep.errors[1] < 0.1  # the excited coordinate converged


def test_probe_single_coordinate_model():
    model = _model(1, 1, noise=bi.GaussianNoise(0.01), star=np.array([0.7]))
    rep = bi.identifiability_probe(model, agent=1, steps=100_000, seed=3)
    assert set(rep.identifiable) == {1}
    assert rep.stalled == ()


def test_probe_validates_agent_index():
    with pytest.raises(ValueError):
        bi.identifiability_probe(_small_model(), agent=5, steps=10, seed=0)


def test_probe_deterministic_and_serializable():
    a = bi.identifiability_probe(_small_model(), agent=3, steps=5_000, seed=9)
    b = bi.identifiability_probe(_small_model(), agent=3, steps=5_000, seed=9)
    assert np.array_equal(a.final_theta, b.final_theta)
    rows = a.rows()
    assert len(rows) == 4
    parsed = [json.loads(json.dumps(r)) for r in rows]
    assert parsed[2]["coordinate"] == 3
    assert {r["coordinate"] for r in parsed} == {1, 2, 3, 4}
