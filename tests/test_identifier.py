"""Step semantics, truncation bookkeeping, engine equivalence, run driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binident as bi
from reference import ScriptedStreams, reference_step

STAR4 = np.array([0.5, -0.4, 0.3, -0.35])


def _sparse_model(n_agents, l, noise=None, star=None):
    return bi.SystemModel(
        theta_star=bi.graded_theta_star(l) if star is None else star,
        regressors=bi.SparseUniformRegressors(l),
        noises=noise or bi.GaussianNoise(0.09),
        n_agents=n_agents,
    )


def _single_agent_weights():
    g = bi.complete_graph(1)
    return bi.metropolis_weights(g)


def _identity_weights(n):
    g = bi.from_undirected_pairs(n, [])
    return bi.metropolis_weights(g)


# ---------------------------------------------------------------------------
# hand traces of one identification step

def test_first_step_always_truncates():
    # k=1, theta=0, sigma=0, phi=(1), theta*=(1), d=0:
    # y=1, c=0, z=0, candidate=1, ||1|| > 0 -> reset, counter 1
    model = bi.SystemModel(np.array([1.0]), bi.SparseUniformRegressors(1), bi.GaussianNoise(1.0), 1)
    streams = ScriptedStreams(1, [[[1.0]]], [[0.0]])
    s0 = bi.NetworkSnapshot.initial(1, 1)
    s1 = bi.dsaawet_identification_step(s0, _single_agent_weights(), model, streams)
    assert s1.k == 2
    assert np.array_equal(s1.theta, [[0.0]])
    assert np.array_equal(s1.sigma, [1])
    assert s1.ledger.truncation_events == 1
    assert s1.ledger.first_hit[1] == 2


def test_kept_step_hand_values():
    # k=2, theta=0.5, sigma=2: c=0.5, y=1 -> z=0, cand=0.5+(1/2)*1=1.0 <= 2
    model = bi.SystemModel(np.array([1.0]), bi.SparseUniformRegressors(1), bi.GaussianNoise(1.0), 1)
    streams = ScriptedStreams(1, [[[1.0]]], [[0.0]])
    s = bi.NetworkSnapshot(
        k=2, theta=np.array([[0.5]]), sigma=np.array([2]),
        ledger=bi.TruncationLedger.initial(1),
    )
    nxt = bi.dsaawet_identification_step(s, _single_agent_weights(), model, streams)
    assert np.array_equal(nxt.theta, [[1.0]])
    assert np.array_equal(nxt.sigma, [2])
    assert nxt.ledger.truncation_events == 0


def test_sensor_tie_reads_zero_bit():
    # y == c: z = 0, so the innovation pushes along +phi
    model = bi.SystemModel(np.array([0.0]), bi.SparseUniformRegressors(1), bi.GaussianNoise(1.0), 1)
    streams = ScriptedStreams(1, [[[0.5]]], [[0.0]])  # y = 0, c = 0
    s = bi.NetworkSnapshot(
        k=4, theta=np.array([[0.0]]), sigma=np.array([3]),
        ledger=bi.TruncationLedger.initial(1),
    )
    nxt = bi.dsaawet_identification_step(s, _single_agent_weights(), model, streams)
    assert np.array_equal(nxt.theta, [[0.125]])  # (1/4) * 0.5 * (+1)


def test_lagging_agent_is_zeroed_before_truncation_test():
    # two isolated-counter agents: agent 2 sits below the neighborhood max,
    # so its candidate collapses to zero and its counter jumps to the max
    model = bi.SystemModel(np.array([0.0, 0.0]), bi.SparseUniformRegressors(2), bi.GaussianNoise(1.0), 2)
    streams = ScriptedStreams(2, [np.zeros((2, 2))], [[0.0, 0.0]])
    w = bi.metropolis_weights(bi.complete_graph(2))
    s = bi.NetworkSnapshot(
        k=3, theta=np.array([[0.5, 0.0], [9.0, 9.0]]), sigma=np.array([2, 0]),
        ledger=bi.TruncationLedger.initial(2),
    )
    nxt = bi.dsaawet_identification_step(s, w, model, streams)
    # agent 1: consensus over {agent 1} only = 0.25; agent 2: zeroed, adopts 2
    assert np.array_equal(nxt.theta, [[0.25, 0.0], [0.0, 0.0]])
    assert np.array_equal(nxt.sigma, [2, 2])
    assert nxt.ledger.truncation_events == 0


# ---------------------------------------------------------------------------
# agreement with the loop-by-loop reference

RADIUS = {"linear": lambda m: m, "doubling": lambda m: 2.0**m}


def _compare_with_reference(model, sched, steps, seed=2024, gain=1.0, radii="linear", init=None):
    """Run the fast step against the reference; return the final snapshot."""
    n, l = model.n_agents, model.l
    fast = bi.ModelStreams(model, seed)
    mine = bi.ModelStreams(model, seed)

    snap = bi.NetworkSnapshot.initial(n, l) if init is None else init
    theta = snap.theta.tolist()
    sigma = snap.sigma.tolist()
    for _ in range(steps):
        k = snap.k
        w = sched[k][1]
        nxt = bi.dsaawet_identification_step(snap, w, model, fast, gain, radii)

        phi = mine.phi_step(k)
        d = mine.noise_step()
        rows = phi.rows().tolist()
        y = [sum(rows[i][m] * model.theta_star[m] for m in range(l)) + d[i] for i in range(n)]
        theta, sigma, truncated = reference_step(
            theta, sigma, w.w.tolist(), rows, y, gain / k, RADIUS[radii]
        )

        assert np.array_equal(nxt.sigma, sigma)
        assert np.allclose(nxt.theta, theta, rtol=1e-10, atol=1e-12)
        snap = nxt
    return snap


def test_step_matches_reference_implementation():
    snap = _compare_with_reference(_sparse_model(5, 3), bi.partitioned_ring_schedule(5, 2), 300)
    assert snap.ledger.truncation_events > 0  # the comparison saw resets


def test_step_matches_reference_with_gain_and_doubling_radii():
    snap = _compare_with_reference(
        _sparse_model(5, 3), bi.partitioned_ring_schedule(5, 2), 300, gain=16.0, radii="doubling"
    )
    assert snap.ledger.truncation_events > 0  # the comparison saw resets
    # counters above 1 are where doubling (2^m) and linear (m) radii part
    assert snap.ledger.sigma_max >= 2


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.booleans(),
    st.sampled_from([(1.0, "linear"), (16.0, "doubling")]),
)
@settings(max_examples=40, deadline=None)
def test_step_matches_reference_on_random_networks(seed, n, l, dense, recursion):
    # floats come from a seeded numpy rng, not float strategies, so no
    # candidate norm lands on a truncation radius exactly (where the
    # reference's sqrt comparison and the kernel's squared one may round apart)
    gain, radii = recursion
    rng = np.random.default_rng(seed)
    regressors = (
        bi.DenseUniformRegressors(l, bound=rng.uniform(0.5, 3.0)) if dense
        else bi.SparseUniformRegressors(l)
    )
    model = bi.SystemModel(
        rng.normal(0.0, 2.0, l), regressors, bi.GaussianNoise(rng.uniform(0.01, 1.0)), n
    )
    g = bi.generate_poisson_graph(n, rng.uniform(0.2, 0.8), rng)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    sigma0 = rng.integers(0, 4, n)
    radius0 = bi.truncation_radii(sigma0, radii)[:, None] / np.sqrt(l)
    theta0 = rng.uniform(-1.0, 1.0, (n, l)) * radius0
    k0 = int(rng.integers(1, 50))
    init = bi.NetworkSnapshot(
        k=k0, theta=theta0, sigma=sigma0, ledger=bi.TruncationLedger.initial(n, k0)
    )
    final = _compare_with_reference(model, sched, 30, seed=seed, gain=gain, radii=radii, init=init)
    assert final.k == k0 + 30


def test_reference_is_order_independent():
    # processing agents in any order reads only pre-step state
    rng = np.random.default_rng(0)
    n, l = 4, 2
    w = bi.metropolis_weights(bi.ring_graph(n)).w.tolist()
    theta = rng.normal(size=(n, l)).tolist()
    sigma = [1, 2, 1, 2]
    rows = rng.normal(size=(n, l)).tolist()
    y = rng.normal(size=n).tolist()
    a, sa, _ = reference_step(theta, sigma, w, rows, y, 0.5)
    perm = [2, 0, 3, 1]
    inv = np.argsort(perm)
    b, sb, _ = reference_step(
        [theta[i] for i in perm], [sigma[i] for i in perm],
        [[w[i][j] for j in perm] for i in perm],
        [rows[i] for i in perm], [y[i] for i in perm], 0.5,
    )
    assert [b[i] for i in inv] == a
    assert [sb[i] for i in inv] == sa


# ---------------------------------------------------------------------------
# generic engine

def test_engine_zero_observations_identity_weights_fixed_point():
    state = bi.EngineState(x=np.array([[0.3, 0.1], [0.0, 0.2]]), sigma=np.array([2, 2]))
    nxt = bi.generic_dsaawet_step(state, _identity_weights(2), np.zeros((2, 2)), a_k=1.0)
    assert np.array_equal(nxt.x, state.x)
    assert np.array_equal(nxt.sigma, state.sigma)


def test_engine_bound_sequence_variants():
    w = _single_agent_weights()
    obs = np.array([[2.0]])
    state = bi.EngineState(x=np.array([[0.0]]), sigma=np.array([0]))
    # default M_m = m truncates at level 0
    nxt = bi.generic_dsaawet_step(state, w, obs, a_k=1.0)
    assert np.array_equal(nxt.x, [[0.0]]) and np.array_equal(nxt.sigma, [1])
    # doubling radii by name: M_0 = 2^0 = 1 keeps a unit step, not a step of 2
    nxt = bi.generic_dsaawet_step(state, w, obs / 2, a_k=1.0, radii="doubling")
    assert np.array_equal(nxt.x, [[1.0]]) and np.array_equal(nxt.sigma, [0])
    nxt = bi.generic_dsaawet_step(state, w, obs, a_k=1.0, radii="doubling")
    assert np.array_equal(nxt.x, [[0.0]]) and np.array_equal(nxt.sigma, [1])
    # at level 3 a step of 5 lands between M_3 = 3 and 2^3 = 8
    state = bi.EngineState(x=np.array([[0.0]]), sigma=np.array([3]))
    nxt = bi.generic_dsaawet_step(state, w, obs * 2.5, a_k=1.0, radii="linear")
    assert np.array_equal(nxt.x, [[0.0]]) and np.array_equal(nxt.sigma, [4])
    nxt = bi.generic_dsaawet_step(state, w, obs * 2.5, a_k=1.0, radii="doubling")
    assert np.array_equal(nxt.x, [[5.0]]) and np.array_equal(nxt.sigma, [3])
    # non-uniform counters: agent 2 (level 1) lags agent 1 (level 3) and is zeroed;
    # agent 1 mixes over itself only and each radius follows the adopted level
    w2 = bi.metropolis_weights(bi.complete_graph(2))
    state = bi.EngineState(x=np.array([[4.0], [0.5]]), sigma=np.array([3, 1]))
    obs2 = np.array([[4.0], [0.0]])
    nxt = bi.generic_dsaawet_step(state, w2, obs2, a_k=1.0, radii="linear")
    assert np.array_equal(nxt.x, [[0.0], [0.0]]) and np.array_equal(nxt.sigma, [4, 3])
    nxt = bi.generic_dsaawet_step(state, w2, obs2, a_k=1.0, radii="doubling")
    assert np.array_equal(nxt.x, [[6.0], [0.0]]) and np.array_equal(nxt.sigma, [3, 3])


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4),
    st.sampled_from(["linear", "doubling"]), st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_on_random_networks(seed, n, l, radii, uniform):
    # floats come from a seeded numpy rng (see the identification fuzz test)
    rng = np.random.default_rng(seed)
    g = bi.generate_poisson_graph(n, rng.uniform(0.2, 0.8), rng)
    w = bi.metropolis_weights(g)
    sigma0 = np.full(n, rng.integers(0, 4)) if uniform else rng.integers(0, 4, n)
    state = bi.EngineState(x=rng.uniform(-2.0, 2.0, (n, l)), sigma=sigma0)
    x, sigma = state.x.tolist(), state.sigma.tolist()
    k0 = int(rng.integers(1, 50))
    for k in range(k0, k0 + 30):
        obs = rng.normal(0.0, 1.5, (n, l))
        a_k = rng.uniform(1.0, 16.0) / k
        state = bi.generic_dsaawet_step(state, w, obs, a_k, radii=radii)
        x, sigma, _ = reference_step(
            x, sigma, w.w.tolist(), None, None, a_k, RADIUS[radii], observations=obs.tolist(),
        )
        assert np.array_equal(state.sigma, sigma)
        assert np.allclose(state.x, x, rtol=1e-10, atol=1e-12)


def test_truncation_radii_kinds():
    levels = np.array([0, 1, 3, 10])
    assert np.array_equal(bi.truncation_radii(levels), [0.0, 1.0, 3.0, 10.0])
    assert np.array_equal(bi.truncation_radii(levels, "doubling"), [1.0, 2.0, 8.0, 1024.0])
    with pytest.raises(ValueError, match="unknown radius sequence 'cubic'"):
        bi.truncation_radii(levels, "cubic")


def test_engine_validates_observation_shape():
    state = bi.EngineState(x=np.zeros((2, 2)), sigma=np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        bi.generic_dsaawet_step(state, _identity_weights(2), np.zeros((3, 2)), a_k=1.0)


def test_engine_rejects_bad_gain():
    state = bi.EngineState(x=np.zeros((2, 2)), sigma=[3, 3])
    for a_k in (float("nan"), float("inf"), 0.0, -0.5):
        with pytest.raises(ValueError, match="a_k must be finite and positive"):
            bi.generic_dsaawet_step(state, _identity_weights(2), np.zeros((2, 2)), a_k=a_k)


def test_engine_rejects_non_finite_observations():
    state = bi.EngineState(x=np.zeros((2, 2)), sigma=[3, 3])
    for bad in (float("nan"), float("inf")):
        obs = np.zeros((2, 2))
        obs[0, 0] = bad
        with pytest.raises(ValueError, match="observations must be finite"):
            bi.generic_dsaawet_step(state, _identity_weights(2), obs, a_k=1.0)


def test_engine_rejects_unknown_radius_sequence():
    state = bi.EngineState(x=np.zeros((2, 2)), sigma=[3, 3])
    with pytest.raises(ValueError, match="unknown radius sequence 'cubic'"):
        bi.generic_dsaawet_step(state, _identity_weights(2), np.zeros((2, 2)), 1.0, radii="cubic")


def test_engine_state_owns_frozen_copies_and_rejects_negative_counters():
    x, sigma = np.zeros((2, 2)), np.array([0, 0])
    state = bi.EngineState(x=x, sigma=sigma)
    x[0, 0] = 7.0
    sigma[1] = -3
    assert state.x[0, 0] == 0.0 and np.array_equal(state.sigma, [0, 0]) and state.sigma_uniform
    for arr in (state.x, state.sigma):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(ValueError, match="counters cannot be negative"):
        bi.EngineState(x=np.zeros((2, 2)), sigma=[-1, -1])
    with pytest.raises(ValueError, match="one entry per agent"):
        bi.EngineState(x=np.zeros((2, 2)), sigma=[0, 0, 0])


def _engine_vs_step(gain=None, radii=None):
    """Drive the identification step and the generic engine in lockstep."""
    n, l, steps = 8, 4, 300
    model = _sparse_model(n, l, star=STAR4, noise=bi.GaussianNoise(0.01))
    g = bi.generate_poisson_graph(n, 0.4, np.random.default_rng(6))
    w = bi.metropolis_weights(g)
    ident_streams = bi.ModelStreams(model, 31)
    engine_streams = bi.ModelStreams(model, 31)
    recursion = () if gain is None else (gain, radii)
    engine_radii = {} if gain is None else {"radii": radii}

    snap = bi.NetworkSnapshot.initial(n, l)
    state = bi.EngineState.initial(n, l)
    truncations = 0
    for k in range(1, steps + 1):
        snap = bi.dsaawet_identification_step(snap, w, model, ident_streams, *recursion)

        phi = engine_streams.phi_step(k)
        d = engine_streams.noise_step()
        c = phi.thresholds(state.x)
        y = phi.outputs(model.theta_star, d)
        signs = 1.0 - 2.0 * (y < c)
        obs = np.zeros((n, l))
        phi.add_innovation(obs, 1.0, signs)
        prev_sigma = state.sigma
        a_k = 1.0 / k if gain is None else gain / k
        state = bi.generic_dsaawet_step(state, w, obs, a_k=a_k, **engine_radii)
        truncations += int((state.sigma > prev_sigma).sum())

        assert np.array_equal(snap.theta, state.x)
        assert np.array_equal(snap.sigma, state.sigma)
    assert truncations > 0


def test_engine_reproduces_identification_bitwise():
    _engine_vs_step()


def test_engine_reproduces_identification_bitwise_with_gain_and_doubling_radii():
    _engine_vs_step(gain=16.0, radii="doubling")


# ---------------------------------------------------------------------------
# run driver and monitors

def test_run_zero_steps_returns_init():
    model = _sparse_model(3, 2)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    init = bi.NetworkSnapshot.initial(3, 2)
    out = bi.run(model, sched, 0, init=init, seed=0)
    assert out is init


def test_run_requires_seed_or_streams():
    model = _sparse_model(2, 2)
    g = bi.complete_graph(2)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    with pytest.raises(ValueError):
        bi.run(model, sched, 10)


def test_run_rejects_agent_count_mismatch():
    model = _sparse_model(3, 2)
    g = bi.complete_graph(4)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    with pytest.raises(ValueError):
        bi.run(model, sched, 10, seed=0)


def test_run_is_deterministic_per_seed():
    model = _sparse_model(4, 3)
    sched = bi.partitioned_ring_schedule(4, 2)
    recs = []
    for _ in range(2):
        rec = bi.TrajectoryRecorder(model.theta_star, stride=10)
        final = bi.run(model, sched, 500, seed=99, sinks=(rec,))
        recs.append((final, rec.metrics(final)))
    assert np.array_equal(recs[0][0].theta, recs[1][0].theta)
    assert recs[0][1].equals(recs[1][1])
    other = bi.run(model, sched, 500, seed=100)
    assert not np.array_equal(recs[0][0].theta, other.theta)


def test_run_invariants_hold_over_long_window():
    model = _sparse_model(4, 3)
    sched = bi.partitioned_ring_schedule(4, 2)
    mon = bi.InvariantMonitor()
    zeros_checked = []

    def strict_zero_after_truncation(prev, new):
        rose = new.sigma > prev.sigma
        if rose.any():
            zeros_checked.append(bool((new.theta[rose] == 0.0).all()))

    bi.run(model, sched, 800, seed=7, sinks=(mon, strict_zero_after_truncation))
    assert mon.ok and mon.steps == 800
    assert zeros_checked and all(zeros_checked)


def test_monitor_checks_the_runs_radius_sequence():
    ledger = bi.TruncationLedger.initial(1)
    prev = bi.NetworkSnapshot(k=5, theta=np.zeros((1, 2)), sigma=np.array([3]), ledger=ledger)

    def at_norm(norm):
        return bi.NetworkSnapshot(
            k=6, theta=np.array([[norm, 0.0]]), sigma=np.array([3]), ledger=ledger
        )

    # between sigma = 3 and 2^sigma = 8: inside the doubling ball only
    doubling, linear = bi.InvariantMonitor(radii="doubling"), bi.InvariantMonitor()
    doubling(prev, at_norm(5.0))
    linear(prev, at_norm(5.0))
    assert doubling.ok
    assert not linear.ok and "outside its truncation ball" in linear.violations[0]
    # above 2^sigma: outside under either sequence
    doubling(prev, at_norm(8.5))
    assert doubling.count == 1 and "outside its truncation ball" in doubling.violations[0]
    with pytest.raises(ValueError, match="unknown radius sequence"):
        bi.InvariantMonitor(radii="cubic")


def test_monitor_judges_each_agent_against_its_own_radius():
    ledger = bi.TruncationLedger.initial(3)
    sigma = np.array([4, 2, 2])
    prev = bi.NetworkSnapshot(k=5, theta=np.zeros((3, 1)), sigma=sigma, ledger=ledger)

    def at(norms):
        return bi.NetworkSnapshot(k=6, theta=np.array(norms)[:, None], sigma=sigma, ledger=ledger)

    mon = bi.InvariantMonitor()
    # agent 1 at 3.5 is outside the radius-2 balls but inside its own radius 4
    mon(prev, at([3.5, 1.5, -2.0]))
    assert mon.ok
    # only agent 3 leaves its own ball
    bad = at([3.5, 1.5, -2.5])
    mon(prev, bad)
    mon(prev, bad)  # same counter array again: cached radii
    assert mon.count == 2
    mon(prev, at([4.5, 1.5, 0.0]))
    assert mon.count == 3
    # uniform counters after non-uniform ones: the radii follow the new array
    uniform = bi.NetworkSnapshot(k=7, theta=np.full((3, 1), 3.5), sigma=np.full(3, 4), ledger=ledger)
    mon(uniform, uniform)
    assert mon.count == 3
    mon(prev, bad)
    assert mon.count == 4


def test_step_freezes_theta_and_shares_counters_that_did_not_move():
    model = _sparse_model(3, 2)
    w = bi.metropolis_weights(bi.complete_graph(3))
    streams = bi.ModelStreams(model, 4)
    # at k = 50 the correction is below 1/50, far inside radius 3
    s = bi.NetworkSnapshot(
        k=50, theta=np.zeros((3, 2)), sigma=np.full(3, 3), ledger=bi.TruncationLedger.initial(3)
    )
    nxt = bi.dsaawet_identification_step(s, w, model, streams)
    assert nxt.k == 51 and nxt.sigma is s.sigma and nxt.ledger is s.ledger and nxt.sigma_uniform
    assert not nxt.theta.flags.writeable and nxt.theta.any()
    with pytest.raises(ValueError):
        nxt.theta[0, 0] = 1.0
    # the first step truncates every agent: new counters, validated and frozen
    s0 = bi.NetworkSnapshot.initial(3, 2)
    first = bi.dsaawet_identification_step(s0, w, model, streams)
    assert first.sigma is not s0.sigma and np.array_equal(first.sigma, [1, 1, 1])
    assert not first.sigma.flags.writeable and not first.theta.flags.writeable


def test_run_rejects_bad_gain_and_radii():
    model = _sparse_model(2, 2)
    g = bi.complete_graph(2)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    for gain in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gain must be finite and positive"):
            bi.run(model, sched, 10, seed=0, gain=gain)
    with pytest.raises(ValueError, match="unknown radius sequence"):
        bi.run(model, sched, 10, seed=0, radii="cubic")


def test_run_default_recursion_is_gain_one_linear_radii():
    model = _sparse_model(4, 3)
    sched = bi.partitioned_ring_schedule(4, 2)
    plain = bi.run(model, sched, 400, seed=5)
    explicit = bi.run(model, sched, 400, seed=5, gain=1.0, radii="linear")
    assert np.array_equal(plain.theta, explicit.theta)
    assert np.array_equal(plain.sigma, explicit.sigma)
    other = bi.run(model, sched, 400, seed=5, gain=16.0, radii="doubling")
    assert not np.array_equal(plain.theta, other.theta)


@given(
    st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 3), st.integers(1, 60),
    st.sampled_from([(1.0, "linear"), (16.0, "doubling")]),
)
@settings(max_examples=25, deadline=None)
def test_invariants_hold_on_random_small_runs(seed, n, l, steps, recursion):
    gain, radii = recursion
    model = _sparse_model(n, l, noise=bi.UniformNoise(0.8))
    g = bi.generate_poisson_graph(n, 0.5, np.random.default_rng(seed))
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    mon = bi.InvariantMonitor(radii=radii)
    final = bi.run(model, sched, steps, seed=seed, sinks=(mon,), gain=gain, radii=radii)
    assert mon.ok, mon.violations
    assert final.k == steps + 1
    assert final.ledger.sigma_max == max(final.ledger.first_hit)


# ---------------------------------------------------------------------------
# bookkeeping types

def test_snapshot_validation():
    ledger = bi.TruncationLedger.initial(2)
    with pytest.raises(ValueError):
        bi.NetworkSnapshot(k=0, theta=np.ones((2, 2)), sigma=np.zeros(2, dtype=int), ledger=ledger)
    with pytest.raises(ValueError):
        bi.NetworkSnapshot(k=1, theta=np.ones((2, 2)), sigma=np.zeros(3, dtype=int), ledger=ledger)
    with pytest.raises(ValueError):
        bi.NetworkSnapshot(k=1, theta=np.ones((2, 2)), sigma=np.array([-1, 0]), ledger=ledger)


def test_snapshot_arrays_frozen():
    s = bi.NetworkSnapshot.initial(2, 2)
    with pytest.raises(ValueError):
        s.theta[0, 0] = 1.0


def test_snapshot_leaves_the_callers_arrays_writable():
    theta, sigma = np.zeros((2, 2)), np.zeros(2, dtype=np.int64)
    snap = bi.NetworkSnapshot(k=1, theta=theta, sigma=sigma, ledger=bi.TruncationLedger.initial(2))
    theta[0, 0] = 1.0
    sigma[0] = 5
    assert snap.theta[0, 0] == 0.0 and snap.sigma[0] == 0


def test_snapshot_of_a_view_ignores_later_writes_to_the_base():
    base = np.zeros((4, 2))
    snap = bi.NetworkSnapshot(
        k=1, theta=base[:2], sigma=np.zeros(2, dtype=np.int64), ledger=bi.TruncationLedger.initial(2)
    )
    base[0, 0] = 7.0
    assert snap.theta[0, 0] == 0.0


def test_ledger_copy_on_write():
    ledger = bi.TruncationLedger.initial(3)
    sigma = np.array([0, 0, 0])
    assert ledger.record(5, sigma, sigma, 0) is ledger
    bumped = ledger.record(5, sigma, np.array([1, 0, 2]), 2)
    assert bumped is not ledger
    assert bumped.first_hit[1] == 5 and bumped.first_hit[2] == 5
    assert bumped.first_hit_agent[(1, 1)] == 5 and bumped.first_hit_agent[(3, 2)] == 5
    assert bumped.sigma_max == 2 and bumped.truncation_events == 2
    # earlier first hits are kept, not overwritten
    later = bumped.record(9, np.array([1, 0, 2]), np.array([1, 1, 2]), 0)
    assert later.first_hit[1] == 5
    assert later.first_hit_agent[(2, 1)] == 9


def test_sigma_settled_checks_uniformity_and_quiet_tail():
    led = bi.TruncationLedger.initial(2)
    quiet = bi.TruncationLedger(dict(led.first_hit), dict(led.first_hit_agent), 1, 1, 400)
    snap = bi.NetworkSnapshot(k=1001, theta=np.zeros((2, 1)), sigma=np.array([1, 1]), ledger=quiet)
    assert bi.sigma_settled(snap, total_steps=1000)
    late = bi.TruncationLedger(dict(led.first_hit), dict(led.first_hit_agent), 1, 1, 900)
    snap_late = bi.NetworkSnapshot(k=1001, theta=np.zeros((2, 1)), sigma=np.array([1, 1]), ledger=late)
    assert not bi.sigma_settled(snap_late, total_steps=1000)
    ragged = bi.NetworkSnapshot(k=1001, theta=np.zeros((2, 1)), sigma=np.array([1, 2]), ledger=quiet)
    assert not bi.sigma_settled(ragged, total_steps=1000)


def test_truncation_spread_deadlines():
    first_hit = {0: 1, 1: 10, 2: 500}
    first_hit_agent = {(1, 0): 1, (2, 0): 1, (3, 0): 1, (1, 1): 10, (3, 1): 12}
    led = bi.TruncationLedger(first_hit, first_hit_agent, 2, 3, 500)
    # agent 2 never reached level 1 and level 2 only arrived at k=500;
    # level 2's own deadline (502) is past final_k=450 so it is not judged
    bad = bi.truncation_spread_violations(led, B=1, n_agents=3, final_k=450)
    assert bad == [(1, 2, 12)]
    # with level 2 arriving inside the window the spread bound for level 1 is
    # met through the min(tau_agent, tau_{m+1}) escape clause
    led_ok = bi.TruncationLedger({0: 1, 1: 10, 2: 11}, first_hit_agent, 2, 3, 500)
    assert bi.truncation_spread_violations(led_ok, B=1, n_agents=3, final_k=13) == []
    # deadlines past the end of the run are not judged
    assert bi.truncation_spread_violations(led, B=400, n_agents=3, final_k=100) == []
