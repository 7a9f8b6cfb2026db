"""Regression function, curvature, Monte Carlo cross-checks, metrics."""

import tracemalloc

import numpy as np
import pytest

import binident as bi
from reference import (
    reference_consensus_gap,
    reference_regression_function,
    reference_regression_function_mc,
    reference_regression_jacobian,
)

DENSITY_AT_ZERO = 1.329807601338109  # gaussian sigma^2 = 0.09


def _ctx(n_agents=100, l=8, noise=None, star=None):
    model = bi.SystemModel(
        theta_star=bi.graded_theta_star(l) if star is None else star,
        regressor=bi.SparseUniformRegressors(l),
        noise=noise or bi.GaussianNoise(0.09),
        n_agents=n_agents,
    )
    return bi.RegressionContext(model)


# ---------------------------------------------------------------------------
# regression function

@pytest.mark.parametrize(
    "noise",
    [bi.GaussianNoise(0.09), bi.LaplaceNoise(0.4), bi.UniformNoise(1.5)],
    ids=lambda n: n.kind,
)
def test_field_vanishes_at_true_parameter(noise):
    ctx = _ctx(noise=noise)
    assert np.linalg.norm(bi.regression_function(ctx, ctx.model.theta_star)) <= 1e-10


def test_field_vanishes_for_small_model():
    ctx = _ctx(4, 4, noise=bi.GaussianNoise(0.01), star=np.array([0.5, -0.4, 0.3, -0.35]))
    assert np.linalg.norm(bi.regression_function(ctx, ctx.model.theta_star)) <= 1e-10


def test_field_points_back_toward_root_componentwise():
    ctx = _ctx()
    star = ctx.model.theta_star
    up = star + np.eye(8)[2] * 0.7
    down = star - np.eye(8)[2] * 0.7
    assert bi.regression_function(ctx, up)[2] < 0.0
    assert bi.regression_function(ctx, down)[2] > 0.0


def test_field_is_descent_direction_globally():
    ctx = _ctx()
    star = ctx.model.theta_star
    rng = np.random.default_rng(17)
    for _ in range(100):
        theta = star + rng.normal(0.0, 3.0, 8)
        f = bi.regression_function(ctx, theta)
        assert (theta - star) @ f < 0.0


def test_wide_uniform_noise_matches_hand_integral():
    # inside the linear span of the cdf the per-coordinate field is exactly
    # -delta/(3a): integrand (eta/2)(1 - 2 F(eta delta)) with F affine
    a = 50.0
    ctx = _ctx(1, 1, noise=bi.UniformNoise(a), star=np.array([2.0]))
    for delta in (-3.0, -0.25, 0.5, 4.0):
        val = bi.regression_function(ctx, np.array([2.0 + delta]))[0]
        assert val == pytest.approx(-delta / (3 * a), abs=1e-14)


@pytest.mark.parametrize("nodes", [16, 64, 65])
@pytest.mark.parametrize(
    "noise",
    [bi.GaussianNoise(0.09), bi.LaplaceNoise(0.4), bi.UniformNoise(0.3)],
    ids=lambda n: n.kind,
)
def test_per_coordinate_quadrature_is_bit_identical_to_per_agent(noise, nodes):
    rng = np.random.default_rng(nodes)
    # (agents, l, pinned): n a multiple of l, n not, pinned supports that
    # leave coordinates unexcited or excite one many times
    for n, l, pinned in ((100, 8, False), (13, 5, False), (7, 3, True), (29, 6, True)):
        support = tuple(int(m) for m in rng.integers(1, l + 1, n)) if pinned else None
        model = bi.SystemModel(
            theta_star=rng.normal(0.0, 2.0, l),
            regressor=bi.SparseUniformRegressors(l, support=support),
            noise=noise,
            n_agents=n,
        )
        ctx = bi.RegressionContext(model, quad_nodes=nodes)
        for scale in (0.05, 0.5, 3.0, 30.0):
            theta = model.theta_star + rng.normal(0.0, scale, l)
            got = bi.regression_function(ctx, theta)
            assert np.array_equal(got, reference_regression_function(model, theta, nodes))
            jac = bi.regression_jacobian(ctx, theta)
            assert np.array_equal(jac, reference_regression_jacobian(model, theta, nodes))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_theta_rejected(bad):
    ctx = _ctx(8, 4, star=np.array([0.8, -0.3, 1.2, 0.0]))
    theta = np.array([0.0, bad, 0.0, 0.0])
    for call in (
        lambda: bi.regression_function(ctx, theta),
        lambda: bi.regression_jacobian(ctx, theta),
        lambda: bi.regression_function_mc(ctx, theta, 10, 0),
    ):
        with pytest.raises(ValueError, match="^theta must be finite"):
            call()


def test_laplace_field_far_from_the_root_raises_no_warning():
    # theta = (40, 0) puts quadrature points 1000 scales out on the Laplace CDF
    model = bi.SystemModel([0.5, -0.4], bi.SparseUniformRegressors(2), bi.LaplaceNoise(0.04), 4)
    f = bi.regression_function(bi.RegressionContext(model), np.array([40.0, 0.0]))
    assert np.isfinite(f).all() and f[0] < 0 and f[1] < 0


@pytest.mark.parametrize("nodes", [10.5, 64.0, True, "64", None])
def test_quad_nodes_must_be_an_integer(nodes):
    model = _ctx(4, 2, star=np.zeros(2)).model
    with pytest.raises(ValueError, match="quad_nodes must be an integer"):
        bi.RegressionContext(model, quad_nodes=nodes)


def test_quad_nodes_accepts_numpy_integers():
    model = _ctx(4, 2, star=np.array([0.3, -0.2])).model
    a = bi.regression_function(bi.RegressionContext(model, quad_nodes=np.int64(32)), np.zeros(2))
    b = bi.regression_function(bi.RegressionContext(model, quad_nodes=32), np.zeros(2))
    assert np.array_equal(a, b)


def test_quadrature_self_convergence():
    # doubling the node count must not move values near the root; far out the
    # cdf transition narrows below the node spacing and only ~1e-7 is owed
    model = _ctx().model
    coarse = bi.RegressionContext(model, quad_nodes=64)
    fine = bi.RegressionContext(model, quad_nodes=128)
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = model.theta_star + rng.normal(0.0, 0.3, 8)
        delta = bi.regression_function(coarse, theta) - bi.regression_function(fine, theta)
        assert np.abs(delta).max() < 1e-10
    far = model.theta_star + rng.normal(0.0, 3.0, 8)
    delta = bi.regression_function(coarse, far) - bi.regression_function(fine, far)
    assert np.abs(delta).max() < 1e-7


def test_unsupported_kind_falls_back_to_monte_carlo():
    gen = bi.DenseUniformRegressors(2, bound=0.7)
    model = bi.SystemModel(np.array([0.4, -0.2]), gen, bi.GaussianNoise(0.04), 3)
    ctx = bi.RegressionContext(model, mc_fallback_samples=40_000, mc_fallback_seed=5)
    assert not ctx.closed_form
    with pytest.warns(UserWarning):
        val = bi.regression_function(ctx, np.array([0.9, -0.2]))
    direct = bi.regression_function_mc(ctx, np.array([0.9, -0.2]), 40_000, 5)
    assert np.array_equal(val, direct.value)


# ---------------------------------------------------------------------------
# curvature

def test_jacobian_at_root_closed_form_benchmark():
    jac = bi.jacobian_at_root(_ctx())
    assert np.array_equal(jac, np.diag(np.diag(jac)))
    per_agent = 2.0 * DENSITY_AT_ZERO / 3.0
    want = per_agent * np.array([13, 13, 13, 13, 12, 12, 12, 12], dtype=float)
    assert np.allclose(np.diag(jac), want, rtol=1e-13)
    assert np.allclose(np.diag(jac)[:4], 11.52, atol=0.01)
    assert np.allclose(np.diag(jac)[4:], 10.64, atol=0.01)


def test_jacobian_positive_definite_under_full_coverage():
    eigs = np.linalg.eigvalsh(bi.jacobian_at_root(_ctx()))
    assert eigs.min() > 0.0


def test_jacobian_singular_for_single_agent():
    ctx = _ctx(1, 4, star=np.array([0.5, -0.4, 0.3, -0.35]))
    jac = bi.jacobian_at_root(ctx)
    eigs = np.linalg.eigvalsh(jac)
    assert eigs.min() == 0.0  # uncovered coordinates contribute nothing
    assert (np.diag(jac) > 0).sum() == 1


def test_jacobian_matches_finite_differences():
    ctx = _ctx(12, 4, star=np.array([1.0, -2.0, 0.5, 3.0]))
    star = ctx.model.theta_star
    h = 1e-4
    for theta in (star, star + np.array([0.3, -0.1, 0.2, 0.05])):
        jac = bi.regression_jacobian(ctx, theta)
        for m in range(4):
            bump = np.eye(4)[m] * h
            slope = (
                bi.regression_function(ctx, theta + bump)[m]
                - bi.regression_function(ctx, theta - bump)[m]
            ) / (2 * h)
            assert -slope == pytest.approx(jac[m, m], rel=1e-4)
        off = jac - np.diag(np.diag(jac))
        assert np.all(off == 0.0)


def test_jacobian_at_root_agrees_with_jacobian_at_star():
    ctx = _ctx()
    a = bi.jacobian_at_root(ctx)
    b = bi.regression_jacobian(ctx, ctx.model.theta_star)
    assert np.allclose(a, b, atol=1e-10)


def test_jacobian_requires_sparse_kind():
    gen = bi.DenseUniformRegressors(3)
    model = bi.SystemModel(np.zeros(3), gen, bi.GaussianNoise(1.0), 2)
    with pytest.raises(ValueError):
        bi.regression_jacobian(bi.RegressionContext(model), np.zeros(3))


def test_jacobian_at_root_dense_closed_form():
    gen = bi.DenseUniformRegressors(4, bound=2.0)
    model = bi.SystemModel(np.zeros(4), gen, bi.GaussianNoise(0.25), 3)
    jac = bi.jacobian_at_root(bi.RegressionContext(model))
    # each agent: 2 f_d(0) * (bound^2 / (3 l)) I
    per_agent = 2.0 * bi.GaussianNoise(0.25).pdf(0.0) * (4.0 / 12.0)
    assert np.allclose(jac, 3 * per_agent * np.eye(4), rtol=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo

def test_mc_unbiased_at_root():
    ctx = _ctx(8, 4, star=np.array([0.8, -0.3, 1.2, 0.0]))
    est = bi.regression_function_mc(ctx, ctx.model.theta_star, 200_000, np.random.default_rng(0))
    assert np.all(np.abs(est.value) <= 4.0 * est.stderr)


def test_mc_agrees_with_quadrature():
    ctx = _ctx(8, 4, star=np.array([0.8, -0.3, 1.2, 0.0]))
    rng = np.random.default_rng(11)
    for _ in range(3):
        theta = ctx.model.theta_star + rng.normal(0.0, 1.0, 4)
        quad = bi.regression_function(ctx, theta)
        est = bi.regression_function_mc(ctx, theta, 150_000, rng)
        assert np.all(np.abs(quad - est.value) <= 4.0 * np.maximum(est.stderr, 1e-12))


def test_mc_single_sample_is_one_signed_regressor():
    ctx = _ctx(1, 3, star=np.array([0.5, 0.5, 0.5]))
    est = bi.regression_function_mc(ctx, np.zeros(3), 1, np.random.default_rng(2))
    nz = np.nonzero(est.value)[0]
    assert nz.size == 1
    assert abs(est.value[nz[0]]) <= 1.0
    assert est.samples == 1


def test_mc_rejects_empty_sample_budget():
    ctx = _ctx(1, 2, star=np.zeros(2))
    with pytest.raises(ValueError):
        bi.regression_function_mc(ctx, np.zeros(2), 0, 0)


@pytest.mark.parametrize("samples", [True, 2.5, 100.0, "100", None])
def test_mc_samples_must_be_an_integer(samples):
    ctx = _ctx(2, 2, star=np.zeros(2))
    with pytest.raises(ValueError, match="samples must be an integer"):
        bi.regression_function_mc(ctx, np.zeros(2), samples, 0)


def test_mc_samples_accepts_numpy_integers():
    ctx = _ctx(3, 2, star=np.array([1.0, -1.0]))
    a = bi.regression_function_mc(ctx, np.zeros(2), np.int64(500), 4)
    b = bi.regression_function_mc(ctx, np.zeros(2), 500, 4)
    assert np.array_equal(a.value, b.value) and np.array_equal(a.stderr, b.stderr)
    assert a.samples == 500


def test_mc_deterministic_given_seed():
    ctx = _ctx(3, 2, star=np.array([1.0, -1.0]))
    a = bi.regression_function_mc(ctx, np.zeros(2), 10_000, 42)
    b = bi.regression_function_mc(ctx, np.zeros(2), 10_000, 42)
    assert np.array_equal(a.value, b.value)


@pytest.mark.parametrize("n_agents, l", [(11, 4), (3, 1)])
def test_mc_equals_the_per_sample_form_across_chunk_boundaries(n_agents, l):
    # chunks hold 65 536 samples; several agents share each coordinate, and
    # l = 1 is the layout whose column numpy summed pairwise
    ctx = _ctx(n_agents, l, star=bi.graded_theta_star(l))
    theta = ctx.model.theta_star + np.linspace(-0.4, 0.3, l)
    for samples in (1, 65_535, 65_536, 65_537, 200_000):
        est = bi.regression_function_mc(ctx, theta, samples, np.random.default_rng(samples))
        value, stderr = reference_regression_function_mc(
            ctx.model, theta, samples, np.random.default_rng(samples)
        )
        assert np.array_equal(est.value, value), samples
        assert np.array_equal(est.stderr, stderr), samples


class _NegativeZeroNoise(bi.GaussianNoise):
    def sample(self, rng, size=None):
        return np.full(size, -0.0)


def test_mc_reads_a_negative_zero_sensor_argument_as_plus_one():
    # theta* = +0, theta = -0 and d = -0: a negative amplitude makes
    # eta t* + d - eta theta exactly -0.0, which sign_pm reads as +1
    model = bi.SystemModel(np.zeros(2), bi.SparseUniformRegressors(2), _NegativeZeroNoise(), 5)
    theta = np.full(2, -0.0)
    est = bi.regression_function_mc(bi.RegressionContext(model), theta, 1000, np.random.default_rng(1))
    value, stderr = reference_regression_function_mc(model, theta, 1000, np.random.default_rng(1))
    assert np.array_equal(est.value, value) and np.array_equal(est.stderr, stderr)


class _HugeAmplitudes(bi.SparseUniformRegressors):
    def draw(self, rng, size=None):
        return 1e300 * rng.uniform(-1.0, 1.0, size)


def test_mc_names_a_sensor_argument_that_overflows_to_nan():
    # eta t* and eta theta both overflow to the same infinity, so
    # eta t* + d - eta theta is NaN, whose sign sign_pm would read as -1
    star = np.full(2, 1e10)
    model = bi.SystemModel(star, _HugeAmplitudes(2), bi.GaussianNoise(0.01), 3)
    assert bi.plant.sign_pm(np.nan) == -1.0
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="^theta: the sensor argument of agent 0 overflowed to NaN$"
    ):
        bi.regression_function_mc(bi.RegressionContext(model), star, 10, 0)


def test_mc_holds_at_most_one_and_three_quarters_of_its_sums_array():
    # the (l, chunk) sums array plus a few per-agent chunk vectors
    model = bi.build_model(bi.preset_v(seed=101, steps=0))
    ctx = bi.RegressionContext(model)
    bi.regression_function_mc(ctx, model.theta_star, 10, 0)
    tracemalloc.start()
    try:
        bi.regression_function_mc(ctx, model.theta_star, 200_000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * model.l * 65_536 * 8, peak / (model.l * 65_536 * 8)


# ---------------------------------------------------------------------------
# snapshot metrics

def _snap(theta, k=5):
    theta = np.asarray(theta, dtype=np.float64)
    return bi.NetworkSnapshot(
        k=k, theta=theta, sigma=np.zeros(theta.shape[0], dtype=int),
        ledger=bi.TruncationLedger.initial(theta.shape[0]),
    )


def test_consensus_gap_cases():
    assert bi.consensus_gap(_snap([[1.0, 2.0], [1.0, 2.0]])) == 0.0
    assert bi.consensus_gap(_snap([[1.0], [-1.0]])) == pytest.approx(np.sqrt(2), abs=1e-15)
    rng = np.random.default_rng(8)
    theta = rng.normal(size=(6, 4))
    assert bi.consensus_gap(_snap(theta)) == pytest.approx(
        reference_consensus_gap(theta.tolist()), rel=1e-12
    )


def test_estimation_errors_cases():
    star = bi.graded_theta_star(8)
    zeros = _snap(np.zeros((3, 8)))
    errs = bi.estimation_errors(zeros, star)
    assert np.allclose(errs, 9.47417542586161, atol=1e-12)
    exact = _snap(np.tile(star, (2, 1)))
    assert np.array_equal(bi.estimation_errors(exact, star), [0.0, 0.0])
    bumped = np.tile(star, (2, 1))
    bumped[1, 3] += 0.25
    assert bi.estimation_errors(_snap(bumped), star)[1] == pytest.approx(0.25, abs=1e-12)


def test_mean_estimate_and_error():
    star = np.array([1.0, -1.0])
    s = _snap([[2.0, -1.0], [0.0, -1.0]])
    assert np.array_equal(bi.mean_estimate(s), [1.0, -1.0])
    assert bi.mean_error(s, star) == 0.0


# ---------------------------------------------------------------------------
# metrics container and recorder

def test_metrics_requires_increasing_steps():
    with pytest.raises(ValueError):
        bi.Metrics(
            k=np.array([1, 1]), sigma_max=np.zeros(2, dtype=int),
            consensus_gap=np.zeros(2), mean_error=np.zeros(2),
        )


@pytest.mark.parametrize(
    "counts, message",
    [({"k": [1.5, 2.9]}, "k: 1.5 is not an integer"),
     ({"sigma_max": [0.5, 1.7]}, "sigma_max: 0.5 is not an integer"),
     ({"k": [1, 2**70]}, f"k: {2**70} is not an integer")],
    ids=["fractional-k", "fractional-sigma_max", "huge-k"],
)
def test_metrics_rejects_a_count_that_is_not_an_int64_integer(counts, message):
    cols = {"k": [1, 2], "sigma_max": [0, 1], "consensus_gap": np.zeros(2),
            "mean_error": np.zeros(2), **counts}
    with pytest.raises(ValueError, match=f"^{message} an int64 holds$"):
        bi.Metrics(**cols)


def test_metrics_equality_is_exact():
    mk = lambda gap: bi.Metrics(
        k=np.array([1, 2]), sigma_max=np.array([0, 1]),
        consensus_gap=np.array([0.0, gap]), mean_error=np.zeros(2),
    )
    assert mk(0.5).equals(mk(0.5))
    assert not mk(0.5).equals(mk(0.5 + 1e-16))
    assert not mk(0.5).equals(mk(np.nextafter(0.5, 1.0)))


def test_recorder_keeps_first_stride_and_final_rows():
    model = bi.SystemModel(
        np.array([0.3, -0.3]), bi.SparseUniformRegressors(2), bi.GaussianNoise(0.04), 3
    )
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    rec = bi.TrajectoryRecorder(model.theta_star, stride=40, record_agent_errors=True,
                                record_theta_bar=True)
    final = bi.run(model, sched, 95, seed=12, sinks=(rec,))
    m = rec.metrics(final)
    assert m.k.tolist() == [1, 40, 80, 96]
    assert m.agent_errors.shape == (4, 3)
    assert m.theta_bar.shape == (4, 2)
    assert np.all(np.isfinite(m.consensus_gap))
    # asking again does not add the final row twice
    assert rec.metrics(final).equals(m)


def test_recorder_stride_one_records_every_step():
    model = bi.SystemModel(
        np.array([0.3]), bi.SparseUniformRegressors(1), bi.GaussianNoise(0.04), 2
    )
    g = bi.complete_graph(2)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    rec = bi.TrajectoryRecorder(model.theta_star, stride=1)
    final = bi.run(model, sched, 10, seed=3, sinks=(rec,))
    assert rec.metrics(final).k.tolist() == list(range(1, 12))
