"""Centralized baseline, root solver, single-agent identifiability probe."""

import inspect
import json
import tracemalloc

import numpy as np
import pytest

import binident as bi
from reference import reference_centralized_baseline

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


def _dense_model(n_agents):
    return bi.SystemModel(STAR4, bi.DenseUniformRegressors(4), bi.GaussianNoise(0.04), n_agents)


@pytest.mark.parametrize("n_agents", [1, 3])
def test_baseline_dense_matches_a_loop_over_the_full_rows(n_agents):
    # one agent leaves one term in the pooled sum, so the loop must agree bit for bit
    model, steps = _dense_model(n_agents), 400
    got = bi.centralized_baseline(model, steps, seed=5)
    streams = bi.ModelStreams(model, 5)
    theta, sigma, want = np.zeros(model.l), 0, [np.zeros(model.l)]
    for k in range(1, steps + 1):
        rows = streams.phi_step(k).rows()
        d = streams.noise_step()
        signs = np.where(rows @ model.theta_star + d < rows @ theta, -1.0, 1.0)
        pooled = rows[0] * signs[0]
        for i in range(1, n_agents):
            pooled = pooled + rows[i] * signs[i]
        cand = theta + pooled * (1.0 / k)
        if cand @ cand > sigma**2:
            theta, sigma = np.zeros(model.l), sigma + 1
        else:
            theta = cand
        want.append(theta)
    if n_agents == 1:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_baseline_converges_on_a_dense_model():
    traj = bi.centralized_baseline(_dense_model(20), 20_000, seed=0)
    assert np.linalg.norm(traj[-1] - STAR4) < 0.05


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


@pytest.mark.parametrize("record_every", [2.5, True, "2", None])
def test_baseline_rejects_a_record_every_that_is_not_an_integer(record_every):
    with pytest.raises(ValueError, match="^record_every must be an integer, got"):
        bi.centralized_baseline(_model(8, 4, star=STAR4), 10, seed=0, record_every=record_every)


def test_baseline_accepts_a_numpy_integer_record_every():
    m = _model(8, 4, star=STAR4)
    want = bi.centralized_baseline(m, 10, seed=0, record_every=5)
    assert np.array_equal(bi.centralized_baseline(m, 10, seed=0, record_every=np.int64(5)), want)


@pytest.mark.parametrize(
    "seed, message",
    [(-3, "^seed must be >= 0, got -3$"),
     (2.5, "^seed must be an integer or a SeedSequence, got 2.5$"),
     (True, "^seed must be an integer or a SeedSequence, got True$"),
     ("3", "^seed must be an integer or a SeedSequence, got '3'$")],
)
def test_oracles_name_a_bad_seed(seed, message):
    with pytest.raises(ValueError, match=message):
        bi.centralized_baseline(_model(8, 4, star=STAR4), 10, seed)
    with pytest.raises(ValueError, match=message):
        bi.identifiability_probe(_small_model(), agent=1, steps=10, seed=seed)


def _sparse_shared(star=STAR4):
    # 10 agents on 4 coordinates: coordinates 1 and 2 have three agents each
    return _model(10, 4, noise=bi.GaussianNoise(0.04), star=np.asarray(star))


_BASELINE_MODELS = {
    "sparse": _sparse_shared,
    "dense": lambda: _dense_model(6),
    # a parameter far outside the early radii: the counter moves many times
    "truncating": lambda: _sparse_shared(40.0 * STAR4),
}


_BLOCK = inspect.signature(bi.ModelStreams).parameters["block"].default


@pytest.mark.parametrize("kind", sorted(_BASELINE_MODELS))
def test_baseline_equals_the_batch_form_across_block_boundaries(kind):
    # the expected last refill is the remainder of the stream block
    model = _BASELINE_MODELS[kind]()
    for steps in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 11 * _BLOCK // 5):
        want = reference_centralized_baseline(model, steps, seed=3)
        if kind == "truncating":
            moved = [k for k in range(2, steps + 1) if not want[k].any() and want[k - 1].any()]
            assert len(moved) >= 3
        for record_every in (1, 7, steps):
            ks = [0] + [k for k in range(1, steps + 1) if k % record_every == 0 or k == steps]
            got = bi.centralized_baseline(model, steps, 3, record_every=record_every)
            assert got.shape == (len(ks), model.l)
            assert np.array_equal(got, want[ks]), (steps, record_every)


def test_baseline_holds_at_most_two_and_a_half_stream_blocks():
    # one block is 100 agents x the default block of float64; a step drops
    # its columns before the next draw, so a refill never keeps the old
    # block; the recorded trajectory comes on top
    model = bi.build_model(bi.preset_v(seed=101, steps=0))
    block = model.n_agents * _BLOCK * 8
    bi.centralized_baseline(model, 10, seed=0)
    tracemalloc.start()
    try:
        traj = bi.centralized_baseline(model, 9000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * block + traj.nbytes, (peak - traj.nbytes) / block


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


@pytest.mark.parametrize("agent", [2.5, True, "2", None])
def test_probe_rejects_an_agent_that_is_not_an_integer(agent):
    with pytest.raises(ValueError, match="^agent must be an integer, got"):
        bi.identifiability_probe(_small_model(), agent=agent, steps=10, seed=0)


def test_probe_accepts_a_numpy_integer_agent():
    want = bi.identifiability_probe(_small_model(), agent=2, steps=200, seed=4)
    got = bi.identifiability_probe(_small_model(), agent=np.int64(2), steps=200, seed=4)
    assert np.array_equal(got.final_theta, want.final_theta)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -0.1])
def test_probe_rejects_a_threshold_that_is_not_finite_and_positive(threshold):
    with pytest.raises(ValueError, match=f"^threshold must be finite and positive, got {threshold}$"):
        bi.identifiability_probe(_small_model(), agent=1, steps=10, seed=0, threshold=threshold)


def test_probe_deterministic_and_serializable():
    a = bi.identifiability_probe(_small_model(), agent=3, steps=5_000, seed=9)
    b = bi.identifiability_probe(_small_model(), agent=3, steps=5_000, seed=9)
    assert np.array_equal(a.final_theta, b.final_theta)
    rows = a.rows()
    assert len(rows) == 4
    parsed = [json.loads(json.dumps(r)) for r in rows]
    assert parsed[2]["coordinate"] == 3
    assert {r["coordinate"] for r in parsed} == {1, 2, 3, 4}
