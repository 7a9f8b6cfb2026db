"""Step semantics, truncation bookkeeping, engine equivalence, run driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binident as bi
from reference import ReferenceTrajectoryRecorder, ScriptedStreams, reference_step

STAR4 = np.array([0.5, -0.4, 0.3, -0.35])


def _sparse_model(n_agents, l, noise=None, star=None):
    return bi.SystemModel(
        theta_star=bi.graded_theta_star(l) if star is None else star,
        regressor=bi.SparseUniformRegressors(l),
        noise=noise or bi.GaussianNoise(0.09),
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


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_lagging_rows_come_out_positive_zero(dense):
    # every estimate is negative, so a lagging agent's zeroed weight row
    # meets only negative entries; its row must still be +0.0, not -0.0
    n, l = 4, 3
    regressors = bi.DenseUniformRegressors(l) if dense else bi.SparseUniformRegressors(l)
    model = bi.SystemModel(np.full(l, -1.0), regressors, bi.GaussianNoise(0.09), n)
    w = bi.metropolis_weights(bi.complete_graph(n))
    sigma, lag = np.array([3, 1, 3, 0]), [1, 3]
    s = bi.NetworkSnapshot(
        k=20, theta=np.full((n, l), -0.5), sigma=sigma, ledger=bi.TruncationLedger.initial(n)
    )
    nxt = bi.dsaawet_identification_step(s, w, model, bi.ModelStreams(model, 3))
    assert np.array_equal(nxt.sigma, [3, 3, 3, 3]) and (nxt.theta[[0, 2]] < 0).all()
    assert np.array_equal(nxt.theta[lag], np.zeros((2, l))) and not np.signbit(nxt.theta[lag]).any()
    # a lagging agent ends at the origin beside a non-finite estimate too,
    # where its zero weights meet 0 * -inf
    x = np.full((n, l), -0.5)
    for bad in (-0.5, -np.inf):
        x[0, 0] = bad
        state = bi.EngineState(x=x, sigma=sigma)
        with np.errstate(invalid="ignore"):
            nxt = bi.generic_dsaawet_step(state, w, np.full((n, l), -1.0), a_k=0.05)
        assert np.array_equal(nxt.x[lag], np.zeros((2, l))) and not np.signbit(nxt.x[lag]).any()


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
        w = sched[k]
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


def _near_radius_init(rng, n, l, sigma0, radii, k0):
    """Snapshot in which about half the rows sit at 0.9-1.0 of their radius."""
    radius0 = bi.truncation_radii(sigma0, radii)
    theta0 = rng.uniform(-1.0, 1.0, (n, l)) * (radius0[:, None] / np.sqrt(l))
    near = rng.normal(size=(n, l))
    near *= (rng.uniform(0.9, 1.0, n) * radius0 / np.linalg.norm(near, axis=1))[:, None]
    rows = rng.random(n) < 0.5
    theta0[rows] = near[rows]
    return bi.NetworkSnapshot(
        k=k0, theta=theta0, sigma=sigma0, ledger=bi.TruncationLedger.initial(n, k0)
    )


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.booleans(),
    st.sampled_from([(1.0, "linear"), (16.0, "doubling")]), st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_run_matches_reference_on_random_networks(seed, n, l, dense, recursion, agreeing):
    # the engine behind run (quiet in-place steps, the norm bound that skips
    # the exact ball test, general steps for disagreeing counters) against
    # the loop-by-loop reference, step by step through a sink
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
    sigma0 = np.full(n, rng.integers(1, 4)) if agreeing else rng.integers(1, 4, n)
    k0 = int(rng.integers(1, 200))
    init = _near_radius_init(rng, n, l, sigma0, radii, k0)

    mine = bi.ModelStreams(model, seed)
    ref = {"theta": init.theta.tolist(), "sigma": init.sigma.tolist()}
    w = sched[1].w.tolist()

    def check(prev, new):
        k = prev.k
        assert new.k == k + 1
        phi = mine.phi_step(k)
        d = mine.noise_step()
        rows = phi.rows().tolist()
        y = [sum(rows[i][m] * model.theta_star[m] for m in range(l)) + d[i] for i in range(n)]
        ref["theta"], ref["sigma"], _ = reference_step(
            ref["theta"], ref["sigma"], w, rows, y, gain / k, RADIUS[radii]
        )
        assert np.array_equal(new.sigma, ref["sigma"])
        assert np.allclose(new.theta, ref["theta"], rtol=1e-10, atol=1e-12)
        assert not new.theta.flags.writeable and not new.sigma.flags.writeable

    steps = 40
    kwargs = dict(init=init, gain=gain, radii=radii)
    final = bi.run(model, sched, steps, seed=seed, sinks=(check,), **kwargs)
    assert final.k == k0 + steps
    quiet = bi.run(model, sched, steps, seed=seed, **kwargs)
    assert np.array_equal(quiet.theta, final.theta)
    assert np.array_equal(quiet.sigma, final.sigma)
    for field in ("first_hit", "first_hit_agent", "sigma_max", "truncation_events", "last_change"):
        assert getattr(quiet.ledger, field) == getattr(final.ledger, field)


def test_run_takes_both_the_bound_skip_and_the_exact_ball_test(monkeypatch):
    # rows near their radius force exact tests; later small gains let the
    # norm bound skip them, and the run still matches the step function
    rng = np.random.default_rng(3)
    n, l = 6, 3
    model = _sparse_model(n, l, star=np.array([0.4, -0.3, 0.2]))
    g = bi.generate_poisson_graph(n, 0.6, rng)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    init = _near_radius_init(rng, n, l, np.full(n, 2), "linear", 150)
    tests = []
    kernel = bi.identifier._kernel

    def counting(*args):
        tests.append(args[7] is not None)
        return kernel(*args)

    monkeypatch.setattr(bi.identifier, "_kernel", counting)
    final = bi.run(model, sched, 400, init=init, seed=8)
    assert any(tests) and not all(tests)

    snap, streams = init, bi.ModelStreams(model, 8)
    for _ in range(400):
        snap = bi.dsaawet_identification_step(snap, sched[snap.k], model, streams)
    assert np.array_equal(final.theta, snap.theta)
    assert np.array_equal(final.sigma, snap.sigma)


# ---------------------------------------------------------------------------
# the window engine and its observers

class _ReferenceObserver:
    """Window observer checking every row against the loop-by-loop reference."""

    def __init__(self, model, seed, sched, init, gain, radii):
        self.model, self.sched, self.gain, self.radii = model, sched, gain, radii
        self.streams = bi.ModelStreams(model, seed)
        self.k = init.k
        self.theta, self.sigma = init.theta.tolist(), init.sigma.tolist()
        self.last = init.theta
        self.windows = []

    def window(self, rows, k, sigma, ledger, radii):
        assert not rows.flags.writeable and not sigma.flags.writeable
        assert radii == self.radii and k == self.k
        assert np.array_equal(rows[0], self.last)     # row 0 is the last row seen
        n, l = self.model.n_agents, self.model.l
        for row in rows[1:]:
            phi = self.streams.phi_step(self.k)
            d = self.streams.noise_step()
            vals = phi.rows().tolist()
            y = [sum(vals[i][m] * self.model.theta_star[m] for m in range(l)) + d[i]
                 for i in range(n)]
            self.theta, self.sigma, _ = reference_step(
                self.theta, self.sigma, self.sched[self.k].w.tolist(), vals, y,
                self.gain / self.k, RADIUS[self.radii],
            )
            assert np.array_equal(sigma, self.sigma)
            assert np.allclose(row, self.theta, rtol=1e-10, atol=1e-12)
            self.k += 1
        self.last = rows[-1].copy()
        self.windows.append(len(rows) - 1)


@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.booleans(),
    st.sampled_from([(1.0, "linear"), (16.0, "doubling")]), st.booleans(),
    st.sampled_from([1, 63, 64, 65, 129]),
)
@settings(max_examples=40, deadline=None)
def test_window_rows_match_reference_on_random_networks(seed, n, l, dense, recursion, agreeing,
                                                        steps):
    # the twin of test_run_matches_reference_on_random_networks one level
    # down: a window observer reads every row in place and checks it
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
    sigma0 = np.full(n, rng.integers(1, 4)) if agreeing else rng.integers(1, 4, n)
    k0 = int(rng.integers(1, 200))
    init = _near_radius_init(rng, n, l, sigma0, radii, k0)

    ref = _ReferenceObserver(model, seed, sched, init, gain, radii)
    final = bi.run(model, sched, steps, init=init, seed=seed, sinks=(ref,), gain=gain, radii=radii)
    assert ref.k == final.k == k0 + steps
    assert np.array_equal(final.sigma, ref.sigma) and np.array_equal(final.theta, ref.last)
    assert ref.windows[0] == 0 and sum(ref.windows) == steps
    assert all(1 <= m <= 64 for m in ref.windows[1:])


class _KickedStreams(bi.ModelStreams):
    """Real noise; every agent's regressor amplitude is 0, or 1 at the kicked steps.

    Counted in steps of the run (the first step read is step 1).
    """

    def __init__(self, model, seed, kicks):
        super().__init__(model, seed)
        self._kicks, self._read = frozenset(kicks), 0

    def _eta(self):
        self._read += 1
        return np.full(self.model.n_agents, float(self._read in self._kicks))

    def columns(self):
        return self._eta(), super().columns()[1]

    def phi_step(self, k):
        return bi.PhiBatch(l=self.model.l, eta=self._eta(), support=self.model.supports)


class _WindowLog:
    def __init__(self):
        self.windows = []

    def window(self, rows, k, sigma, ledger, radii):
        self.windows.append((k, len(rows) - 1, sigma))


@pytest.mark.parametrize("steps, kicks, split", [
    (1, {1}, [1]),
    (63, {63}, [62, 1]),
    (64, {64}, [63, 1]),          # a move where the window's last slot would be
    (65, {65}, [64, 1]),          # a move on the first slot after a full window
    (65, {64, 65}, [63, 1, 1]),
    (129, {1, 64, 65, 129}, [63, 1, 64, 1]),
    (129, {128}, [64, 63, 2]),
    (129, set(), [64, 64, 1]),
])
def test_window_boundaries_at_counter_moves(steps, kicks, split):
    # a kick (amplitude 1 at gain 1000) pushes every agent out of its ball
    # at once, so the counters move together exactly at the kicked steps
    n, l = 4, 2
    model = _sparse_model(n, l)
    sched = bi.partitioned_ring_schedule(n, 2)
    init = bi.NetworkSnapshot(
        k=1, theta=np.zeros((n, l)), sigma=np.ones(n, dtype=np.int64),
        ledger=bi.TruncationLedger.initial(n),
    )
    log, mon = _WindowLog(), bi.InvariantMonitor()
    rec = bi.TrajectoryRecorder(model.theta_star, stride=1, record_theta_bar=True)
    slow = ReferenceTrajectoryRecorder(model.theta_star, stride=1, record_theta_bar=True)
    seen = []

    def plain(prev, new):
        assert new.k == prev.k + 1 and not new.theta.flags.writeable
        assert np.array_equal(new.sigma, prev.sigma) == (new.k - 1 not in kicks)
        seen.append((new.k, new.theta, new.sigma))

    streams = _KickedStreams(model, 3, kicks)
    final = bi.run(model, sched, steps, init=init, streams=streams, gain=1000.0,
                   sinks=(log, mon, rec, plain, slow))
    assert [m for _, m, _ in log.windows] == [0] + split
    assert [k for k, _, _ in log.windows] == list(np.cumsum([1, 0] + split[:-1]))
    assert final.ledger.truncation_events == n * len(kicks)
    assert sorted(final.ledger.first_hit) == [0] + list(range(2, len(kicks) + 2))
    assert mon.ok and mon.steps == steps
    assert rec.metrics(final).equals(slow.metrics(final))

    snap, streams = init, _KickedStreams(model, 3, kicks)
    for k, theta, sigma in seen:
        snap = bi.dsaawet_identification_step(snap, sched[snap.k], model, streams, 1000.0)
        assert snap.k == k and np.array_equal(snap.theta, theta)
        assert np.array_equal(snap.sigma, sigma)
    assert len(seen) == steps and np.array_equal(final.theta, snap.theta)


def test_plain_sinks_see_every_step_in_order_with_frozen_arrays():
    model = _sparse_model(5, 3)
    sched = bi.partitioned_ring_schedule(5, 2)
    calls = []

    def plain(prev, new):
        if calls:
            assert prev is calls[-1][1]
        calls.append((prev, new))

    mon = bi.InvariantMonitor(radii="doubling")
    final = bi.run(model, sched, 300, seed=4, sinks=(plain, mon), gain=16.0, radii="doubling")
    assert mon.ok and mon.steps == 300
    assert len(calls) == 300 and calls[0][0].k == 1 and calls[-1][1].k == final.k
    snap, streams = calls[0][0], bi.ModelStreams(model, 4)
    for prev, new in calls:
        assert new.k == prev.k + 1
        for arr in (new.theta, new.sigma):
            assert not arr.flags.writeable
        snap = bi.dsaawet_identification_step(snap, sched[snap.k], model, streams, 16.0, "doubling")
        assert np.array_equal(new.theta, snap.theta) and np.array_equal(new.sigma, snap.sigma)
    assert final.ledger.truncation_events == snap.ledger.truncation_events > 0


def test_plain_sink_snapshots_own_counters_that_did_not_move():
    model = _sparse_model(4, 2)
    sched = bi.partitioned_ring_schedule(4, 2)
    quiet = []

    def plain(prev, new):
        if np.array_equal(new.sigma, prev.sigma):
            quiet.append((prev, new))

    bi.run(model, sched, 200, seed=3, sinks=(plain,))
    assert len(quiet) > 100
    for prev, new in quiet:
        assert not new.sigma.flags.writeable
        assert new.sigma is not prev.sigma and not np.shares_memory(new.sigma, prev.sigma)


@pytest.mark.parametrize("changes, field", [
    (dict(regressor=bi.SparseUniformRegressors(4, support=(3, 3, 3, 3))), "regressor"),
    (dict(regressor=bi.DenseUniformRegressors(4)), "regressor"),
    (dict(n_agents=5), "n_agents"),
    (dict(theta_star=np.ones(5), regressor=bi.SparseUniformRegressors(5)), "l"),
    (dict(noise=bi.LaplaceNoise(0.3)), "noise"),
])
def test_run_rejects_streams_of_another_model(changes, field):
    base = dict(theta_star=STAR4, regressor=bi.SparseUniformRegressors(4),
                noise=bi.GaussianNoise(0.09), n_agents=4)
    model = bi.SystemModel(**base)
    other = bi.SystemModel(**{**base, **changes})
    g = bi.complete_graph(4)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    with pytest.raises(ValueError, match=f"^streams: built for a model with {field} "):
        bi.run(model, sched, 50, streams=bi.ModelStreams(other, 1))
    # streams of an equal model (another theta_star) are fine
    same = bi.SystemModel(**{**base, "theta_star": -STAR4})
    assert bi.run(model, sched, 50, streams=bi.ModelStreams(same, 1)).k == 51


def test_monitor_rejects_a_run_with_other_radii():
    model = _sparse_model(4, 3)
    g = bi.complete_graph(4)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    for checks, runs, gain in (("linear", "doubling", 16.0), ("doubling", "linear", 1.0)):
        mon = bi.InvariantMonitor(radii=checks)
        with pytest.raises(ValueError, match=f"^radii: the monitor checks '{checks}' balls"):
            bi.run(model, sched, 300, seed=1, sinks=(mon,), gain=gain, radii=runs)
        assert mon.steps == 0        # rejected before the first step


def test_run_reads_a_sensor_tie_as_a_zero_bit():
    # theta* = 0 and noise-free draws: y = 0 == c = 0 at the origin, where
    # the quiet step must push along +phi as the step function does
    class NoNoise(bi.GaussianNoise):
        def sample(self, rng, size=None):
            return np.zeros(size)

    model = bi.SystemModel(np.zeros(2), bi.SparseUniformRegressors(2), NoNoise(1.0), 3)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    init = bi.NetworkSnapshot(k=8, theta=np.zeros((3, 2)), sigma=np.full(3, 2),
                              ledger=bi.TruncationLedger.initial(3))
    final = bi.run(model, sched, 1, init=init, seed=6)
    step = bi.dsaawet_identification_step(init, sched[8], model, bi.ModelStreams(model, 6))
    want = np.zeros((3, 2))
    want[np.arange(3), model.supports] = bi.ModelStreams(model, 6).phi_step(8).eta * (1 / 8)
    assert np.array_equal(step.theta, want)
    assert np.array_equal(final.theta, want)


def test_run_matches_chained_steps_when_a_custom_law_draws_negative_zero():
    # a custom law drawing -0.0 with theta*_1 = -0.0 makes y = -0.0 against
    # c = +0.0: the step function reads the bit y < c as clear, and so must run
    class SignedZeroNoise(bi.GaussianNoise):
        def sample(self, rng, size=None):
            return 0.0 * rng.standard_normal(size)

    model = bi.SystemModel(np.array([-0.0, 1.0]), bi.SparseUniformRegressors(2),
                           SignedZeroNoise(1.0), 4)
    sched = bi.partitioned_ring_schedule(4, 2)
    final = bi.run(model, sched, 200, seed=3)
    snap, streams = bi.NetworkSnapshot.initial(4, 2), bi.ModelStreams(model, 3)
    for k in range(1, 201):
        snap = bi.dsaawet_identification_step(snap, sched[k], model, streams)
    assert np.array_equal(final.theta, snap.theta)
    assert np.array_equal(final.sigma, snap.sigma)
    # the signs too: array_equal treats -0.0 and 0.0 as equal
    assert np.array_equal(np.signbit(final.theta), np.signbit(snap.theta))


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


def test_engine_rejects_weights_of_another_size():
    state = bi.EngineState(x=np.zeros((2, 2)), sigma=[3, 3])
    with pytest.raises(ValueError, match=r"^weights: a matrix for 3 agents, the state has 2$"):
        bi.generic_dsaawet_step(state, _identity_weights(3), np.zeros((2, 2)), a_k=1.0)


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


def test_run_rejects_negative_steps():
    model = _sparse_model(3, 2)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    with pytest.raises(ValueError, match="steps must be >= 0"):
        bi.run(model, sched, -3, seed=0)


def test_run_rejects_init_of_the_wrong_shape():
    model = _sparse_model(3, 2)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    for n, l in ((3, 5), (4, 2)):
        init = bi.NetworkSnapshot.initial(n, l)
        for steps in (0, 10):
            with pytest.raises(
                ValueError, match=r"init.theta must have shape \(3, 2\), got \(%d, %d\)" % (n, l)
            ):
                bi.run(model, sched, steps, init=init, seed=0)


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


def _feed(mon, norms_by_step, sigma=(2, 2), k0=2):
    """Hand the monitor one step per row of agent norms, through its per-step
    ``__call__`` (the call plain ``sink(prev, new)`` callers make).

    Every snapshot holds the counters ``sigma``.  Returns the last snapshot.
    """
    ledger = bi.TruncationLedger.initial(len(sigma))
    prev = bi.NetworkSnapshot(k=k0, theta=np.zeros((len(sigma), 1)), sigma=sigma, ledger=ledger)
    for norms in norms_by_step:
        theta = np.array(norms, dtype=np.float64)[:, None]
        new = bi.NetworkSnapshot(k=prev.k + 1, theta=theta, sigma=sigma, ledger=ledger)
        mon(prev, new)
        prev = new
    return prev


def test_monitor_reports_ball_violations_in_step_order():
    # linear radii, counters (2, 2): norm 2.5 is outside, 1.5 inside
    # call i judges step k = i + 3 when it is made, so the messages come in
    # step order, the counter check of the final move last
    steps = [[1.5, 1.5]] * 130
    for i in (63, 64, 127, 129):
        steps[i] = [1.5, -2.5]
    mon = bi.InvariantMonitor()
    last = _feed(mon, steps)
    # a counter move: agent 1 bumps to 3 but keeps a nonzero estimate
    moved = bi.NetworkSnapshot(
        k=last.k + 1, theta=np.array([[0.5], [0.0]]), sigma=np.array([3, 2]), ledger=last.ledger
    )
    mon(last, moved)
    assert mon.steps == 131
    assert mon.violations == [
        "k=66: estimate outside its truncation ball",
        "k=67: estimate outside its truncation ball",
        "k=130: estimate outside its truncation ball",
        "k=132: estimate outside its truncation ball",
        "k=133: nonzero estimate right after a counter bump",
    ]
    assert mon.count == 5 and not mon.ok


def test_monitor_judges_each_step_when_called():
    mon = bi.InvariantMonitor()
    _feed(mon, [[1.0, 1.0], [3.0, 0.0], [1.0, 1.0]])
    assert mon.count == 1            # judged in the call, nothing waits for a window
    _feed(mon, [[1.0, 1.0], [0.0, -3.0]], k0=10)
    assert mon.count == 2
    assert mon.violations == [
        "k=4: estimate outside its truncation ball",
        "k=12: estimate outside its truncation ball",
    ]


def test_monitor_counts_a_nan_estimate_outside_its_ball():
    # a NaN norm satisfies no bound: on the per-step path ...
    mon = bi.InvariantMonitor()
    _feed(mon, [[1.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])
    assert mon.violations == ["k=4: estimate outside its truncation ball"]
    # ... and on the window path
    mon = bi.InvariantMonitor()
    rows = np.ones((4, 2, 1))
    rows[2, 1, 0] = np.nan
    mon.window(rows, 2, np.array([2, 2]), bi.TruncationLedger.initial(2), "linear")
    assert mon.violations == ["k=4: estimate outside its truncation ball"] and mon.steps == 3


def test_monitor_reports_a_counter_that_decreased():
    # agent 2's counter falls from 2 to 1 with every estimate at zero
    ledger = bi.TruncationLedger.initial(2)
    high, low = np.array([2, 2]), np.array([2, 1])
    mon = bi.InvariantMonitor()
    mon(bi.NetworkSnapshot(k=5, theta=np.zeros((2, 1)), sigma=high, ledger=ledger),
        bi.NetworkSnapshot(k=6, theta=np.zeros((2, 1)), sigma=low, ledger=ledger))
    assert mon.violations == ["k=6: a truncation counter decreased"] and mon.steps == 1
    # as a window observer: the move falls between the second window's first two rows
    mon = bi.InvariantMonitor()
    mon.window(np.zeros((1, 2, 1)), 5, high, ledger, "linear")
    mon.window(np.zeros((3, 2, 1)), 5, low, ledger, "linear")
    assert mon.violations == ["k=6: a truncation counter decreased"] and mon.steps == 2


def test_monitor_caps_messages_but_counts_every_violation():
    mon = bi.InvariantMonitor()
    steps = [[3.0, 0.0] if i % 7 == 0 else [1.0, 1.0] for i in range(200)]
    _feed(mon, steps)
    bad = [i for i in range(200) if i % 7 == 0]
    assert mon.count == len(bad) == 29
    assert mon.violations == [f"k={i + 3}: estimate outside its truncation ball" for i in bad[:10]]
    assert mon.steps == 200


def test_step_freezes_theta_and_keeps_counters_that_did_not_move():
    model = _sparse_model(3, 2)
    w = bi.metropolis_weights(bi.complete_graph(3))
    streams = bi.ModelStreams(model, 4)
    # at k = 50 the correction is below 1/50, far inside radius 3
    s = bi.NetworkSnapshot(
        k=50, theta=np.zeros((3, 2)), sigma=np.full(3, 3), ledger=bi.TruncationLedger.initial(3)
    )
    nxt = bi.dsaawet_identification_step(s, w, model, streams)
    assert nxt.k == 51 and nxt.ledger is s.ledger and nxt.sigma_uniform
    # the counters did not move: equal in value, frozen, and the new snapshot's own
    assert np.array_equal(nxt.sigma, s.sigma) and not nxt.sigma.flags.writeable
    assert not np.shares_memory(nxt.sigma, s.sigma)
    assert not nxt.theta.flags.writeable and nxt.theta.any()
    with pytest.raises(ValueError):
        nxt.theta[0, 0] = 1.0
    # disagreeing counters on self-loops only: no agent lags and none moves
    s = bi.NetworkSnapshot(k=50, theta=np.zeros((3, 2)), sigma=[1, 3, 2], ledger=s.ledger)
    nxt = bi.dsaawet_identification_step(s, _identity_weights(3), model, streams)
    assert np.array_equal(nxt.sigma, s.sigma) and not nxt.sigma.flags.writeable
    assert not np.shares_memory(nxt.sigma, s.sigma)
    assert nxt.ledger is s.ledger and not nxt.sigma_uniform and nxt.theta.any()
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


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"gain": float("nan")}, "^gain must be finite and positive, got nan$"),
        ({"gain": float("inf")}, "^gain must be finite and positive, got inf$"),
        ({"gain": 0.0}, "^gain must be finite and positive, got 0.0$"),
        ({"gain": -1.0}, "^gain must be finite and positive, got -1.0$"),
        ({"s": bi.NetworkSnapshot.initial(3, 3)},
         r"^s.theta must have shape \(3, 2\), got \(3, 3\)$"),
        ({"weights": bi.metropolis_weights(bi.complete_graph(4))},
         "^weights: a matrix for 4 agents, the state has 3$"),
        ({"streams": bi.ModelStreams(_sparse_model(4, 2), 0)},
         r"^streams: drew regressors of shape \(4,\) \(l = 2\) and noise of shape \(4,\), "
         "the model has 3 agents and l = 2$"),
        ({"streams": ScriptedStreams(3, [np.zeros((3, 3))], [np.zeros(3)])},
         r"^streams: drew regressors of shape \(3, 3\) \(l = 3\)"),
        ({"streams": ScriptedStreams(2, [np.zeros((3, 2))], [np.zeros(2)])},
         r"^streams: drew regressors of shape \(3, 2\) \(l = 2\) and noise of shape \(2,\)"),
    ],
    ids=["gain-nan", "gain-inf", "gain-zero", "gain-negative", "s-wide", "weights-4",
         "streams-4-agents", "streams-wide-rows", "streams-short-noise"],
)
def test_identification_step_rejects_bad_input_by_name(bad, message):
    """The step function checks what ``run`` checks, each bad argument a
    ValueError that names it."""
    model = _sparse_model(3, 2)
    args = {
        "s": bi.NetworkSnapshot.initial(3, 2),
        "weights": bi.metropolis_weights(bi.complete_graph(3)),
        "streams": bi.ModelStreams(model, 0),
        "gain": 1.0,
        **bad,
    }
    with pytest.raises(ValueError, match=message):
        bi.dsaawet_identification_step(
            args["s"], args["weights"], model, args["streams"], args["gain"]
        )


@pytest.mark.parametrize("steps", [2.5, True, 3.0, "3"])
def test_run_rejects_non_integer_steps(steps):
    model = _sparse_model(3, 2)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    with pytest.raises(ValueError, match="steps must be an integer, got"):
        bi.run(model, sched, steps, seed=0)


def test_run_accepts_numpy_integer_steps():
    model = _sparse_model(3, 2)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    got = bi.run(model, sched, np.int64(7), seed=0)
    want = bi.run(model, sched, 7, seed=0)
    assert got.k == want.k == 8
    assert np.array_equal(got.theta, want.theta) and np.array_equal(got.sigma, want.sigma)


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
