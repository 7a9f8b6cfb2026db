"""Noise models, regressor generators, sensor arithmetic, system model."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

import binident as bi

NOISES = [
    bi.GaussianNoise(0.09),
    bi.LaplaceNoise(0.5),
    bi.UniformNoise(1.0),
]


# ---------------------------------------------------------------------------
# noise models

@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.kind)
def test_cdf_at_zero_is_exactly_half(noise):
    assert noise.cdf(0.0) == 0.5


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.kind)
def test_density_positive_at_zero(noise):
    assert noise.pdf(0.0) > 0.0


def _generator_whose_next_output_is(raw: int) -> np.random.Generator:
    """A PCG64 generator set up so that its next 64-bit output is ``raw``.

    PCG64 steps its 128-bit LCG state and outputs the xor of the state's two
    words rotated by its top 6 bits: a post-step state of ``raw`` (high word
    0) outputs ``raw``, and the pre-step state is one LCG step back.
    """
    mult, inc = (2549297995355413924 << 64) + 4865540595714422341, 0x3039 * 2 + 1
    before = ((raw - inc) * pow(mult, -1, 1 << 128)) % (1 << 128)
    bits = np.random.PCG64()
    state = bits.state
    state["state"] = {"state": before, "inc": inc}
    bits.state = state
    return np.random.Generator(bits)


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.kind)
def test_builtin_noise_never_draws_negative_zero(noise):
    # The run's quiet step reads the sensor bit ``y < c`` as the sign of
    # ``y - c``, which differs only where ``y - c`` is -0.0, and that needs a
    # noise draw of -0.0.  Each raw output below drives its sampler to a zero:
    # the ziggurat's sign bit with a zero magnitude (standard normal -0.0),
    # and a unit draw of exactly 0.5 (Laplace's log(2 - 2u) term and the
    # uniform's midpoint).  The samplers add their location 0.0, so the zero
    # is +0.0.
    raw = (1 << 8) if noise.kind == "gaussian" else (1 << 63)
    if noise.kind == "gaussian":
        z = _generator_whose_next_output_is(raw).standard_normal()
        assert z == 0.0 and math.copysign(1.0, z) == -1.0
    else:
        assert _generator_whose_next_output_is(raw).random() == 0.5
    for draw in (noise.sample(_generator_whose_next_output_is(raw)),
                 noise.sample(_generator_whose_next_output_is(raw), 3)[0]):
        assert draw == 0.0 and math.copysign(1.0, draw) == 1.0


def test_gaussian_density_at_zero_closed_form():
    noise = bi.GaussianNoise(0.09)
    assert noise.pdf(0.0) == pytest.approx(1.329807601338109, abs=1e-15)
    # cross-check against a symmetric difference quotient of the cdf
    h = 1e-6
    assert noise.pdf(0.0) == pytest.approx((noise.cdf(h) - noise.cdf(-h)) / (2 * h), abs=1e-6)


@pytest.mark.parametrize("sigma2", [1.0, 0.09], ids=["unit", "preset"])
def test_gaussian_cdf_matches_ndtr(sigma2):
    # scipy.special.ndtr is the test-only reference: the package's Gaussian CDF
    # is a numpy port of the same Cephes routine
    noise = bi.GaussianNoise(sigma2)
    x = np.linspace(-40.0, 40.0, 800_001) * noise.sigma
    got, want = noise.cdf(x), ndtr(x / noise.sigma)
    assert np.abs(got - want).max() <= 2.0**-52
    live = want > 1e-300
    assert (np.abs(got - want)[live] / want[live]).max() <= 1e-13
    assert np.array_equal(got + noise.cdf(-x), np.ones_like(x))


def test_gaussian_cdf_special_values():
    for noise in (bi.GaussianNoise(1.0), bi.GaussianNoise(0.01), bi.GaussianNoise(1e6)):
        assert noise.cdf(0.0) == 0.5 and noise.cdf(-0.0) == 0.5
        assert noise.cdf(-np.inf) == 0.0 and noise.cdf(np.inf) == 1.0
        assert np.isnan(noise.cdf(np.nan))
        # no RuntimeWarning (the suite turns them into errors) at the extremes
        huge = noise.cdf(np.array([-1e308, -1e300, 1e300, 1e308, 5e-324, -5e-324]))
        assert np.array_equal(huge, [0.0, 0.0, 1.0, 1.0, 0.5, 0.5])
        assert type(noise.cdf(0.3)) is np.float64
        assert noise.cdf(np.zeros((2, 3))).shape == (2, 3)


def test_uniform_cdf_values():
    noise = bi.UniformNoise(1.0)
    assert noise.cdf(0.5) == 0.75
    assert noise.cdf(-2.0) == 0.0 and noise.cdf(2.0) == 1.0
    assert noise.pdf(0.5) == 0.5 and noise.pdf(3.0) == 0.0


def test_laplace_cdf_closed_form():
    noise = bi.LaplaceNoise(0.5)
    x = 0.7
    want = 1.0 - 0.5 * np.exp(-x / 0.5)
    assert noise.cdf(x) == pytest.approx(want, abs=1e-15)
    assert noise.cdf(-x) == pytest.approx(1.0 - want, abs=1e-15)


def test_laplace_cdf_far_tails_raise_no_warning():
    # exp(|x| / scale) would overflow: the suite turns the RuntimeWarning into an error
    noise = bi.LaplaceNoise(0.04)
    assert noise.cdf(1e6) == 1.0 and noise.cdf(-1e6) == 0.0
    assert np.array_equal(noise.cdf(np.array([-1e6, -np.inf, np.inf, 1e6])), [0.0, 0.0, 1.0, 1.0])


def test_gaussian_pdf_special_values_raise_no_warning():
    noise = bi.GaussianNoise(1.0)
    assert noise.pdf(1e200) == 0.0 and noise.pdf(-1e200) == 0.0
    assert noise.pdf(np.inf) == 0.0 and noise.pdf(-np.inf) == 0.0
    assert np.isnan(noise.pdf(np.nan))
    assert type(noise.pdf(0.3)) is np.float64


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.kind)
def test_cdf_monotone_on_grid(noise):
    grid = np.linspace(-5.0, 5.0, 401)
    vals = noise.cdf(grid)
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("noise", NOISES, ids=lambda n: n.kind)
def test_samples_match_cdf_kolmogorov_smirnov(noise):
    draws = noise.sample(np.random.default_rng(123), 100_000)
    stat = stats.kstest(draws, noise.cdf).statistic
    assert stat < 0.01


def test_invalid_noise_parameters_rejected():
    with pytest.raises(ValueError):
        bi.GaussianNoise(0.0)
    with pytest.raises(ValueError):
        bi.LaplaceNoise(-1.0)
    with pytest.raises(ValueError):
        bi.UniformNoise(0.0)


@pytest.mark.parametrize(
    "kind, param", [("gaussian", "sigma2"), ("laplace", "scale"), ("uniform", "half_width")]
)
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_noise_parameters_rejected(kind, param, bad):
    with pytest.raises(ValueError, match=f"{param} must be positive and finite, got {bad!r}"):
        bi.make_noise(kind, **{param: bad})


@pytest.mark.parametrize(
    "noise",
    [
        cls(value)
        for cls in (bi.GaussianNoise, bi.LaplaceNoise, bi.UniformNoise)
        for value in (1e-300, 1e-3, 1.0, 1e3, 1e300)
    ]
    + [bi.UniformNoise(1.7e308)],
    ids=repr,
)
def test_builtin_noise_with_density_at_zero_has_median_exactly_zero(noise):
    """Preflight evaluates only a custom model's CDF; for the built-in kinds
    its density check alone must give the same verdict."""
    assert noise.cdf(0.0) == 0.5 or not noise.pdf(0.0) > 0


def test_make_noise_factory():
    assert bi.make_noise("gaussian", sigma2=0.09) == bi.GaussianNoise(0.09)
    assert bi.make_noise("laplace", scale=2.0) == bi.LaplaceNoise(2.0)
    assert bi.make_noise("uniform", half_width=0.5) == bi.UniformNoise(0.5)
    with pytest.raises(ValueError):
        bi.make_noise("cauchy")


# ---------------------------------------------------------------------------
# regressor generators

def _sparse_model(n_agents, l, support=None):
    gen = bi.SparseUniformRegressors(l, support=support)
    return bi.SystemModel(np.ones(l), gen, bi.GaussianNoise(1.0), n_agents)


def test_sparse_support_follows_agent_index():
    sup = _sparse_model(17, 8).supports
    assert sup.dtype == np.intp and sup.shape == (17,)
    assert sup[2] == 2          # agent 3 excites coordinate 3
    assert sup[7] == 7
    assert sup[15] == 7         # agent 16 wraps to the l-th coordinate
    assert sup[16] == 0         # agent 17 wraps to the first


def test_sparse_sample_shape_and_bound():
    gen = bi.SparseUniformRegressors(8)
    rng = np.random.default_rng(0)
    assert np.ndim(gen.draw(rng)) == 0
    eta = gen.draw(rng, 2_000)
    assert eta.shape == (2_000,)
    assert gen.bound == 1.0 and np.abs(eta).max() <= 1.0
    # a sparse batch puts each amplitude on its agent's coordinate only
    model = _sparse_model(16, 8)
    rows = bi.PhiBatch(l=8, eta=gen.draw(rng, 16), support=model.supports).rows()
    assert np.array_equal(np.nonzero(rows)[1], model.supports)
    assert np.linalg.norm(rows, axis=1).max() <= 1.0


def test_sparse_explicit_support_override():
    # one pinned coordinate per agent, overriding the index rule
    assert np.array_equal(_sparse_model(2, 8, support=(5, 2)).supports, [4, 1])


def test_pinned_support_must_have_one_entry_per_agent():
    for support in ((1, 2), (1, 2, 3, 1, 2)):
        msg = rf"^regressor: pinned support has {len(support)} entries for 4 agents"
        with pytest.raises(ValueError, match=msg):
            _sparse_model(4, 3, support=support)


def test_supports_are_read_only():
    model = _sparse_model(3, 2)
    with pytest.raises(ValueError):
        model.supports[0] = 1
    with pytest.raises(AttributeError):
        model.supports = None


def test_dense_model_has_no_supports():
    model = bi.SystemModel(np.ones(3), bi.DenseUniformRegressors(3), bi.GaussianNoise(1.0), 4)
    assert model.supports is None


def test_sparse_coverage_set():
    assert set(_sparse_model(3, 4).supports + 1) == {1, 2, 3}
    assert set(_sparse_model(9, 4).supports + 1) == {1, 2, 3, 4}


def test_dense_sample_respects_bound():
    gen = bi.DenseUniformRegressors(6, bound=2.5)
    rows = gen.draw(np.random.default_rng(1), 2_000)
    assert rows.shape == (2_000, 6)
    assert np.linalg.norm(rows, axis=1).max() <= 2.5


def test_dense_bound_must_be_finite_and_positive():
    for bound in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="bound must be finite and positive"):
            bi.DenseUniformRegressors(2, bound=bound)


@pytest.mark.parametrize(
    "gen",
    [
        bi.SparseUniformRegressors(3),
        bi.SparseUniformRegressors(3, support=(3, 1, 1, 2)),
        bi.DenseUniformRegressors(3, bound=2.5),
    ],
    ids=["sparse", "sparse-pinned", "dense"],
)
def test_block_draw_equals_successive_samples(gen):
    """One block ``draw`` gives the same numbers as that many single
    ``draw`` calls on an identically seeded generator: the stream cache
    depends on it."""
    m = 64
    for seed in (1, 2, 4):
        block = gen.draw(np.random.default_rng(seed), m)
        rng = np.random.default_rng(seed)
        single = np.stack([gen.draw(rng) for _ in range(m)])
        sparse = isinstance(gen, bi.SparseUniformRegressors)
        assert block.shape == ((m,) if sparse else (m, gen.l))
        assert np.array_equal(single, block)


def test_regressor_dimension_validated():
    with pytest.raises(ValueError):
        bi.SparseUniformRegressors(0)


# ---------------------------------------------------------------------------
# sensor arithmetic

def test_sign_convention_plus_one_at_zero():
    assert bi.sign_pm(0.0) == 1
    assert bi.sign_pm(-0.0) == 1
    assert np.array_equal(bi.sign_pm(np.array([-2.0, 0.0, 3.0])), [-1, 1, 1])


def test_sign_identity_with_binary_reading():
    rng = np.random.default_rng(2)
    for _ in range(100):
        y, c = rng.normal(size=2)
        assert 1 - 2 * int(y < c) == bi.sign_pm(y - c)
    assert 1 - 2 * int(1.0 < 1.0) == bi.sign_pm(0.0)


# ---------------------------------------------------------------------------
# regressor batches

def _sparse_batch(l, eta, support):
    return bi.PhiBatch(
        l=l,
        eta=np.asarray(eta, dtype=np.float64),
        support=np.asarray(support, dtype=np.intp),
    )


def test_batch_needs_exactly_one_layout():
    with pytest.raises(ValueError):
        bi.PhiBatch(l=2)
    with pytest.raises(ValueError):
        bi.PhiBatch(l=2, eta=np.ones(2), support=np.zeros(2, dtype=np.intp), dense=np.ones((2, 2)))


def test_sparse_batch_agrees_with_its_dense_materialisation():
    rng = np.random.default_rng(3)
    sparse = _sparse_batch(5, rng.uniform(-1, 1, 4), [0, 2, 2, 4])
    dense = bi.PhiBatch(l=5, dense=sparse.rows())
    theta = rng.normal(size=(4, 5))
    star = rng.normal(size=5)
    d = rng.normal(size=4)
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(sparse.thresholds(theta), dense.thresholds(theta))
    assert np.array_equal(sparse.thresholds_common(star), dense.thresholds_common(star))
    assert np.array_equal(sparse.outputs(star, d), dense.outputs(star, d))
    a = np.zeros((4, 5))
    b = np.zeros((4, 5))
    sparse.add_innovation(a, 0.25, signs)
    dense.add_innovation(b, 0.25, signs)
    assert np.array_equal(a, b)


def test_sparse_innovation_on_non_contiguous_targets_matches_the_2d_update():
    rng = np.random.default_rng(8)
    batch = _sparse_batch(5, rng.uniform(-1, 1, 4), [0, 2, 2, 4])
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    start = rng.normal(size=(4, 5))
    expected = start.copy()
    expected[np.arange(4), batch.support] += (batch.eta * signs) * 0.25
    fortran = np.asfortranarray(start)
    wide = np.zeros((4, 7))
    wide[:, 1:6] = start
    strided = wide[:, 1:6]
    for target in (fortran, strided):
        assert not target.flags.c_contiguous
        batch.add_innovation(target, 0.25, signs)
        assert np.array_equal(target, expected)
    assert np.array_equal(wide[:, [0, 6]], np.zeros((4, 2)))


def test_batch_hand_values():
    batch = _sparse_batch(3, [2.0, -1.0], [1, 0])
    theta = np.array([[1.0, 10.0, 0.0], [5.0, 1.0, 1.0]])
    assert np.array_equal(batch.thresholds(theta), [20.0, -5.0])
    assert np.array_equal(batch.outputs(np.array([1.0, 1.0, 1.0]), np.array([0.5, 0.5])), [2.5, -0.5])


# ---------------------------------------------------------------------------
# system model

def test_system_model_validation():
    with pytest.raises(ValueError):
        bi.SystemModel(np.array([]), bi.SparseUniformRegressors(1), bi.GaussianNoise(1.0), 1)
    with pytest.raises(ValueError):
        bi.SystemModel(np.ones(2), bi.SparseUniformRegressors(3), bi.GaussianNoise(1.0), 1)
    with pytest.raises(ValueError):
        bi.SystemModel(np.ones(2), bi.SparseUniformRegressors(2), bi.GaussianNoise(1.0), 0)
    with pytest.raises(ValueError, match="finite"):
        bi.SystemModel(np.array([np.nan, 1.0]), bi.SparseUniformRegressors(2), bi.GaussianNoise(1.0), 1)
    with pytest.raises(ValueError):
        bi.SystemModel(
            np.ones(2),
            [bi.SparseUniformRegressors(2)],  # one generator for two agents
            bi.GaussianNoise(1.0),
            2,
        )


def test_system_model_holds_one_shared_generator_and_noise():
    gen, noise = bi.SparseUniformRegressors(2), bi.GaussianNoise(1.0)
    m = bi.SystemModel(np.ones(2), gen, noise, 3)
    assert m.regressor is gen and m.noise is noise


def test_system_model_rejects_per_agent_lists():
    gens = [bi.SparseUniformRegressors(2), bi.SparseUniformRegressors(2)]
    noises = [bi.GaussianNoise(1.0), bi.GaussianNoise(1.0)]
    with pytest.raises(ValueError, match="^regressor: expected one RegressorGenerator, got list"):
        bi.SystemModel(np.ones(2), gens, noises[0], 2)
    with pytest.raises(ValueError, match="^noise: expected one NoiseModel, got list"):
        bi.SystemModel(np.ones(2), gens[0], noises, 2)


def test_theta_star_frozen():
    m = bi.SystemModel(np.ones(2), bi.SparseUniformRegressors(2), bi.GaussianNoise(1.0), 1)
    with pytest.raises(ValueError):
        m.theta_star[0] = 5.0


def test_graded_parameter_vector():
    star = bi.graded_theta_star(8)
    assert star[0] == 1.1
    assert star[3] == 2.8  # (1 + 0.4) * 2
    j = np.arange(1, 9, dtype=float)
    assert np.array_equal(star, (1 + 0.1 * j) * np.sqrt(j))
    assert float(np.linalg.norm(star)) == pytest.approx(9.47417542586161, abs=1e-14)
