"""Graphs, weight schemes, schedules, mixing decay, serialization."""

import os
import pathlib
import re
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binident as bi
from binident.topology import _strongly_connected
from reference import (
    reference_backward_product,
    reference_centred_profile,
    reference_degree_weights,
    reference_deviation_profile,
    reference_metropolis,
    reference_partitioned_ring_edges,
    reference_poisson_edges,
    reference_strongly_connected,
    reference_validation,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# digraph basics

def test_self_loops_are_mandatory():
    with pytest.raises(ValueError):
        bi.Digraph(2, frozenset({(1, 1), (1, 2)}))  # (2,2) missing


def test_endpoints_must_be_in_range():
    with pytest.raises(ValueError):
        bi.Digraph(2, frozenset({(1, 1), (2, 2), (3, 1)}))


@pytest.mark.parametrize("edge", [(1.5, 1), (2, 2.9), (True, 2), (np.float64(2.0), 1)])
def test_agent_ids_must_be_integers(edge):
    # an intp array would truncate these to (1, 1), (2, 2), (1, 2) and (2, 1)
    want = rf"^edge \({edge[0]}, {edge[1]}\): agent ids must be integers$"
    with pytest.raises(ValueError, match=want):
        bi.Digraph(2, [(1, 1), (2, 2), edge])
    with pytest.raises(ValueError, match=want):
        bi.from_undirected_pairs(2, [edge])
    # numpy integers are integers
    assert bi.Digraph(2, [(np.int64(1), np.int32(1)), (2, 2)]) == bi.Digraph(2, [(1, 1), (2, 2)])


def test_from_undirected_pairs_adds_both_directions_and_loops():
    g = bi.from_undirected_pairs(3, [(1, 2)])
    assert g.edges == frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (2, 1)})
    assert g.is_symmetric


def test_complete_and_ring_shapes():
    assert len(bi.complete_graph(4).edges) == 16
    ring = bi.ring_graph(5)
    assert ring.is_symmetric
    assert {j for j, i in ring.edges if i == 1} == {1, 2, 5}
    assert bi.ring_graph(1).edges == frozenset({(1, 1)})


# ---------------------------------------------------------------------------
# poisson sampling

def test_poisson_p_zero_gives_only_self_loops():
    g = bi.generate_poisson_graph(5, 0.0, np.random.default_rng(0))
    assert g.edges == frozenset((i, i) for i in range(1, 6))


def test_poisson_p_one_gives_complete_digraph():
    g = bi.generate_poisson_graph(4, 1.0, np.random.default_rng(0))
    assert len(g.edges) == 16


def test_poisson_rejects_bad_probability():
    with pytest.raises(ValueError):
        bi.generate_poisson_graph(4, 1.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        bi.generate_poisson_graph(4, -0.1, np.random.default_rng(0))


def test_poisson_deterministic_per_seed():
    a = bi.generate_poisson_graph(30, 0.2, np.random.default_rng(42))
    b = bi.generate_poisson_graph(30, 0.2, np.random.default_rng(42))
    c = bi.generate_poisson_graph(30, 0.2, np.random.default_rng(43))
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_poisson_samples_symmetric_pairs():
    g = bi.generate_poisson_graph(50, 0.1, np.random.default_rng(7))
    assert g.is_symmetric


def test_poisson_edge_count_matches_expectation():
    # mean over seeds of non-self directed edges; n=100, p=0.06 -> 594
    counts = []
    for seed in range(100):
        g = bi.generate_poisson_graph(100, 0.06, np.random.default_rng(seed))
        counts.append(len(g.edges) - 100)
    assert abs(np.mean(counts) - 594.0) < 10.0


@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_poisson_always_has_self_loops(n, p, seed):
    g = bi.generate_poisson_graph(n, p, np.random.default_rng(seed))
    assert all((i, i) in g.edges for i in range(1, n + 1))


@given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_builders_match_plain_python_references(n, p, seed):
    edges = reference_poisson_edges(n, p, seed)
    g = bi.generate_poisson_graph(n, p, seed)
    assert g.edges == edges
    same = bi.Digraph(n, edges)
    assert same == g and hash(same) == hash(g)
    assert bi.from_undirected_pairs(n, [(j, i) for j, i in edges if j < i]) == g
    assert bi.metropolis_weights(g).w.tobytes() == reference_metropolis(n, edges).tobytes()
    assert bi.degree_weights(g).w.tobytes() == reference_degree_weights(n, edges).tobytes()
    assert bi.complete_graph(n).edges == {(j, i) for j in range(1, n + 1) for i in range(1, n + 1)}
    assert bi.ring_graph(n).edges == reference_partitioned_ring_edges(n, 1)[0]
    period = seed % n + 1
    phases = bi.partitioned_ring_schedule(n, period).weights
    assert [wm.graph.edges for wm in phases] == reference_partitioned_ring_edges(n, period)


def test_equal_graphs_hash_alike_and_differ_from_others():
    g = bi.ring_graph(5)
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    assert {g, bi.Digraph(5, g.edges), bi.from_undirected_pairs(5, pairs)} == {g}
    assert g != bi.complete_graph(5) and g != bi.ring_graph(6) and g != g.edges
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency()[0, 2] = True


# ---------------------------------------------------------------------------
# weight schemes

def test_metropolis_two_agent_complete_is_half_everywhere():
    wm = bi.metropolis_weights(bi.complete_graph(2))
    assert np.array_equal(wm.w, np.full((2, 2), 0.5))


def test_metropolis_star_hand_values():
    g = bi.from_undirected_pairs(4, [(1, 2), (1, 3), (1, 4)])
    wm = bi.metropolis_weights(g)
    assert np.array_equal(wm.w[0], [0.25, 0.25, 0.25, 0.25])
    assert np.array_equal(wm.w[1], [0.25, 0.75, 0.0, 0.0])
    assert bi.is_doubly_stochastic(wm.w, tol=1e-12)


def test_metropolis_single_agent():
    wm = bi.metropolis_weights(bi.complete_graph(1))
    assert np.array_equal(wm.w, [[1.0]])


def test_metropolis_rejects_asymmetric_graph():
    g = bi.Digraph(3, frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)}))
    with pytest.raises(ValueError):
        bi.metropolis_weights(g)


@given(st.integers(2, 20), st.floats(0.05, 0.9), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_metropolis_doubly_stochastic_on_random_graphs(n, p, seed):
    g = bi.generate_poisson_graph(n, p, np.random.default_rng(seed))
    wm = bi.metropolis_weights(g)
    assert bi.is_doubly_stochastic(wm.w, tol=1e-12)


def test_degree_weights_regular_graph_is_doubly_stochastic():
    wm = bi.degree_weights(bi.complete_graph(2))
    assert bi.is_doubly_stochastic(wm)
    assert np.array_equal(wm.w, np.full((2, 2), 0.5))


def test_degree_weights_path_graph_column_sums():
    g = bi.from_undirected_pairs(3, [(1, 2), (2, 3)])
    wm = bi.degree_weights(g)
    assert not bi.is_doubly_stochastic(wm)
    assert np.allclose(wm.w.sum(axis=1), 1.0)
    assert np.allclose(wm.w.sum(axis=0), [5 / 6, 4 / 3, 5 / 6])


def test_degree_weights_single_agent():
    wm = bi.degree_weights(bi.complete_graph(1))
    assert bi.is_doubly_stochastic(wm)
    assert np.array_equal(wm.w, [[1.0]])


def test_degree_weights_write_nothing_to_stderr():
    """Preflight reports row-only stochasticity; the weights stay silent,
    also with no logging handler configured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import binident as bi\n"
        "wm = bi.degree_weights(bi.from_undirected_pairs(3, [(1, 2), (2, 3)]))\n"
        "assert not bi.is_doubly_stochastic(wm)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_is_doubly_stochastic_cases():
    assert bi.is_doubly_stochastic(np.array([[0.5, 0.5], [0.5, 0.5]]), tol=1e-12)
    assert not bi.is_doubly_stochastic(np.array([[1.0, 0.0], [1.0, 0.0]]), tol=1e-12)
    assert not bi.is_doubly_stochastic(np.array([[1.5, -0.5], [-0.5, 1.5]]), tol=1e-12)
    g = bi.generate_poisson_graph(100, 0.06, np.random.default_rng(3))
    assert bi.is_doubly_stochastic(bi.metropolis_weights(g).w, tol=1e-12)


def test_weight_matrix_support_must_match_graph():
    g = bi.complete_graph(2)
    with pytest.raises(ValueError):
        bi.WeightMatrix(g, np.array([[1.0, 0.0], [0.0, 1.0]]))  # zeros on edges


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_weight_matrix_rejects_non_finite_entries(bad):
    g = bi.from_undirected_pairs(2, [])
    with pytest.raises(ValueError, match="weights must be finite"):
        bi.WeightMatrix(g, np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(ValueError, match="weights must be finite"):
        bi.WeightMatrix(g, np.array([[bad, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# schedules and validation

def test_static_schedule_indexing():
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    assert sched[1].graph is g and sched[10**9] is sched[1]
    assert sched.period == 1 and sched.mode == "static"
    # the mode follows the matrix count, however the schedule was built
    assert bi.TopologySchedule(B=1, weights=[sched[1]]).mode == "static"
    with pytest.raises(ValueError, match="at least one"):
        bi.TopologySchedule(B=1, weights=[])
    with pytest.raises(ValueError, match="B must be >= 1"):
        bi.TopologySchedule(B=0, weights=[sched[1]])


def test_static_schedule_rejects_weights_of_another_graph():
    g = bi.complete_graph(3)
    with pytest.raises(ValueError, match="different graph"):
        bi.TopologySchedule.static(bi.ring_graph(4), bi.metropolis_weights(g))
    with pytest.raises(ValueError, match="different graph"):
        bi.TopologySchedule.static(bi.from_undirected_pairs(3, [(1, 2)]), bi.metropolis_weights(g))


def test_schedule_rejects_matrices_of_different_sizes():
    mats = [bi.metropolis_weights(bi.complete_graph(n)) for n in (2, 3)]
    with pytest.raises(ValueError, match="same size"):
        bi.TopologySchedule(B=2, weights=mats)


def test_periodic_schedule_cycles():
    sched = bi.partitioned_ring_schedule(4, 2)
    assert sched.period == 2 and sched.mode == "periodic-list"
    assert sched[1] is sched[3] and sched[2] is sched[4]
    assert sched[1].graph.edges != sched[2].graph.edges


def test_schedule_index_starts_at_one():
    g = bi.complete_graph(2)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    with pytest.raises(IndexError):
        sched[0]


def test_validate_c4_static_complete_passes():
    g = bi.complete_graph(4)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    report = bi.validate_c4(sched)
    assert report.passed
    assert "ok" in report.summary()


def test_validate_c4_detects_isolated_agent():
    g = bi.from_undirected_pairs(3, [(1, 2)])  # agent 3 alone
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    report = bi.validate_c4(sched)
    assert not report.connectivity_ok
    assert not report.passed


def test_validate_c4_periodic_window():
    sched = bi.partitioned_ring_schedule(3, 2)
    assert bi.validate_c4(sched).passed
    narrow = bi.TopologySchedule(B=1, weights=sched.weights)
    assert not bi.validate_c4(narrow).passed
    # a window longer than the period sees the whole ring too
    assert bi.validate_c4(replace(sched, B=7)).passed


def test_validate_c4_summary_text():
    """The report text that summary.json carries under preflight.network."""
    g = bi.ring_graph(6)
    ring = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    assert bi.validate_c4(ring).summary() == (
        "steps checked: 1; doubly stochastic: ok; entry floor 0.333333: ok "
        "(min entry 0.333333); connectivity over 1 windows: ok"
    )
    # phase 1 links agent 1 to both 2 and 5, so degree weights are only row stochastic
    degree = bi.partitioned_ring_schedule(5, 2, bi.degree_weights)
    assert bi.validate_c4(degree).summary() == (
        "steps checked: 2; doubly stochastic: failed at steps [1]; entry floor 0.333333: ok "
        "(min entry 0.333333); connectivity over 2 windows: ok"
    )
    assert bi.validate_c4(replace(degree, B=1)).summary() == (
        "steps checked: 2; doubly stochastic: failed at steps [1]; entry floor 0.333333: ok "
        "(min entry 0.333333); connectivity over 2 windows: failed starts [1, 2]"
    )


def test_validate_c4_agrees_with_bfs_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = bi.generate_poisson_graph(8, 0.25, rng)
        sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
        report = bi.validate_c4(sched)
        assert report.connectivity_ok == reference_strongly_connected(8, g.edges)


@st.composite
def directed_adjacency(draw):
    """Random boolean adjacency (``adj[i, j]``: edge j -> i) of one of four
    shapes: any digraph, a one-way chain (closed into a cycle or not), or a
    strongly connected digraph with one agent turned into a sink or a source."""
    n = draw(st.sampled_from(range(1, 41)))
    shape = draw(st.sampled_from(["random", "chain", "sink", "source"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = rng.random((n, n)) < draw(st.floats(0.0, 0.3))
    order = rng.permutation(n)
    if shape == "chain":
        adj[:] = False
        adj[order[1:], order[:-1]] = True
        if draw(st.booleans()):
            adj[order[0], order[-1]] = True
    elif shape in ("sink", "source"):
        adj[order, np.roll(order, 1)] = True
        agent = order[0]
        if shape == "sink":
            adj[:, agent] = False
        else:
            adj[agent, :] = False
        adj[agent, agent] = draw(st.booleans())
    return adj


@settings(max_examples=300, deadline=None)
@given(directed_adjacency())
def test_strongly_connected_agrees_with_bfs_oracle_on_digraphs(adj):
    edges = [(j + 1, i + 1) for i, j in np.argwhere(adj)]
    assert _strongly_connected(adj) == reference_strongly_connected(len(adj), edges)


@st.composite
def periodic_schedules(draw):
    """A random periodic schedule whose window B is shorter than, equal to or
    longer than its period; sparse phases make failing windows common and
    degree weights make stochasticity failures."""
    n = draw(st.integers(1, 10))
    period = draw(st.integers(1, 5))
    windows = [st.just(period), st.integers(period + 1, 3 * period + 2)]
    if period > 1:
        windows.append(st.integers(1, period - 1))
    B = draw(st.one_of(windows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = []
    for _ in range(period):
        g = bi.generate_poisson_graph(n, draw(st.floats(0.0, 0.7)), rng)
        scheme = draw(st.sampled_from([bi.metropolis_weights, bi.degree_weights]))
        weights.append(scheme(g))
    return bi.TopologySchedule(B=B, weights=weights)


@settings(max_examples=200, deadline=None)
@given(periodic_schedules())
def test_validate_c4_agrees_with_the_window_by_window_reference(schedule):
    report = bi.validate_c4(schedule)
    stochastic_failures, min_entry, failed = reference_validation(schedule)
    assert report.steps_checked == schedule.period
    assert report.stochasticity_failures == stochastic_failures
    assert report.min_entry == min_entry
    assert report.failed_windows == failed


def test_partitioned_ring_needs_valid_period():
    with pytest.raises(ValueError):
        bi.partitioned_ring_schedule(4, 5)


# ---------------------------------------------------------------------------
# backward products and mixing decay

def _static(n_or_graph, weight_fn=bi.metropolis_weights):
    g = bi.complete_graph(n_or_graph) if isinstance(n_or_graph, int) else n_or_graph
    return bi.TopologySchedule.static(g, weight_fn(g))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_instant_averaging_has_zero_deviation(n):
    # metropolis on the complete graph gives exactly 1/n everywhere
    sched = _static(n)
    assert np.array_equal(sched[1].w, np.full((n, n), 1.0 / n))
    assert np.array_equal(bi.deviation_profile(sched, 1, 4), np.zeros(5))


def _preset_v_schedule():
    return bi.preflight(bi.preset_v(seed=101)).schedule


@pytest.mark.parametrize(
    "make, lags",
    [
        (_preset_v_schedule, 200),
        (lambda: _static(bi.ring_graph(10)), 50),
        (lambda: _static(bi.generate_poisson_graph(30, 0.2, 7)), 40),
    ],
    ids=["preset-v", "ring-10", "poisson-30"],
)
def test_static_symmetric_profile_comes_from_the_spectrum(make, lags):
    sched = make()
    w = sched[1].w
    n = sched.n_agents
    got = bi.deviation_profile(sched, 1, lags)
    rho = np.abs(np.linalg.eigvalsh(w - np.full((n, n), 1.0 / n))).max()
    assert np.array_equal(got, rho ** np.arange(1, lags + 2))
    np.testing.assert_allclose(got, reference_centred_profile(w, lags), rtol=1e-10, atol=0)
    # The plain backward product drifts once the distance nears its own
    # rounding: at lag 200 on the preset-v graph it reads 1.9e-9 off the
    # centred product (which agrees with the spectral route to 1.4e-13), so
    # it is compared where it still reads above 1e-7.
    plain = reference_deviation_profile(sched, 1, lags)
    resolved = plain > 1e-7
    assert resolved[: lags // 2].all()
    np.testing.assert_allclose(got[resolved], plain[resolved], rtol=1e-10, atol=0)


def _off_by_more_than_rounding():
    # symmetric, rows summing to 1 + 1e-12: doubly stochastic for validate_c4
    g = bi.ring_graph(10)
    wm = bi.WeightMatrix(g, bi.metropolis_weights(g).w * (1.0 + 1e-12))
    assert np.array_equal(wm.w, wm.w.T) and bi.is_doubly_stochastic(wm)
    return bi.TopologySchedule.static(g, wm)


@pytest.mark.parametrize(
    "make",
    [
        lambda: bi.partitioned_ring_schedule(8, 4),
        lambda: _static(bi.from_undirected_pairs(5, [(1, 2), (1, 3), (1, 4), (4, 5)]),
                        bi.degree_weights),
        _off_by_more_than_rounding,
    ],
    ids=["period-4-ring", "degree-weights", "rows-off-by-1e-12"],
)
def test_other_schedules_keep_the_backward_product(make):
    sched = make()
    for s in (1, 3):
        got = bi.deviation_profile(sched, s, 30)
        assert np.array_equal(got, reference_deviation_profile(sched, s, 30))


def test_deviation_rejects_bad_window():
    for s, max_lag, name in ((0, 3, "s"), (-1, 3, "s"), (2, -1, "max_lag")):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            bi.deviation_profile(_static(3), s, max_lag)


def test_backward_product_matches_loop_oracle():
    sched = bi.partitioned_ring_schedule(4, 2)
    got = bi.deviation_profile(sched, 2, 4)
    for lag in range(5):
        mats = [sched[t].w.tolist() for t in range(2, 3 + lag)]
        prod = np.array(reference_backward_product(mats))
        want = float(np.linalg.norm(prod - np.full((4, 4), 0.25), 2))
        assert got[lag] == pytest.approx(want, rel=1e-12)


def test_static_ring_log_deviation_is_affine():
    sched = _static(bi.ring_graph(10))
    devs = bi.deviation_profile(sched, 1, 50)
    assert np.all(np.diff(devs) < 0)  # strictly mixing
    fit = bi.fit_geometric_envelope(devs)
    assert fit.r_squared > 0.99
    assert 0.0 < fit.rho < 1.0
    assert np.all(fit.envelope(np.arange(devs.size)) >= devs * (1 - 1e-12))


def test_fit_needs_two_resolvable_points():
    with pytest.raises(ValueError):
        bi.fit_geometric_envelope(np.array([1e-15, 1e-16, 1e-18]))


# ---------------------------------------------------------------------------
# serialization

def test_schedule_round_trip(tmp_path):
    sched = bi.partitioned_ring_schedule(4, 2)
    path = tmp_path / "sched.txt"
    bi.dump_schedule(sched, path)
    back = bi.load_schedule(path)
    assert back.mode == sched.mode and back.B == sched.B
    for t in range(1, 3):
        assert back[t].graph == sched[t].graph
        assert np.array_equal(back[t].w, sched[t].w)
    # dumping the loaded schedule reproduces the file byte for byte
    again = tmp_path / "again.txt"
    bi.dump_schedule(back, again)
    assert path.read_bytes() == again.read_bytes()


@given(st.integers(1, 12), st.integers(1, 4), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       st.sampled_from([bi.metropolis_weights, bi.degree_weights]))
@settings(max_examples=40, deadline=None)
def test_random_schedules_round_trip_to_equal_graphs(n, period, p, seed, scheme):
    rng = np.random.default_rng(seed)
    sched = bi.TopologySchedule(
        B=period, weights=[scheme(bi.generate_poisson_graph(n, p, rng)) for _ in range(period)]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "sched.txt"
        bi.dump_schedule(sched, path)
        back = bi.load_schedule(path)
    assert back.B == sched.B and back.mode == sched.mode
    for t in range(1, period + 1):
        assert back[t].graph == sched[t].graph
        assert hash(back[t].graph) == hash(sched[t].graph)
        assert back[t].w.tobytes() == sched[t].w.tobytes()


def test_golden_schedule_file(datadir):
    back = bi.load_schedule(datadir / "ring4_period2.schedule")
    fresh = bi.partitioned_ring_schedule(4, 2)
    assert back.B == 2
    for t in range(1, 3):
        assert back[t].graph == fresh[t].graph
        assert np.array_equal(back[t].w, fresh[t].w)


def test_one_block_periodic_file_loads_as_static(tmp_path):
    g = bi.complete_graph(3)
    path = tmp_path / "one.txt"
    bi.dump_schedule(bi.TopologySchedule(B=2, weights=(bi.metropolis_weights(g),)), path)
    text = path.read_text()
    assert text.startswith("3 2 static\n")
    periodic = tmp_path / "periodic.txt"
    periodic.write_text(text.replace("static", "periodic-list", 1))
    back = bi.load_schedule(periodic)
    assert back.mode == "static" and back.period == 1 and back.B == 2
    again = tmp_path / "again.txt"
    bi.dump_schedule(back, again)
    assert again.read_text() == text


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n")
    with pytest.raises(ValueError):
        bi.load_schedule(bad)
    bad.write_text("")
    with pytest.raises(ValueError):
        bi.load_schedule(bad)


@pytest.mark.parametrize(
    "text, step, pair",
    [
        ("2 1 static\nstep 1\n1 1 0.5\n2 2 1.0\n1 1 0.9\n", 1, (1, 1)),
        ("2 2 periodic-list\nstep 1\n1 1 1.0\n2 2 1.0\n"
         "step 2\n1 1 0.5\n2 1 0.5\n1 2 0.5\n2 2 0.5\n2 1 0.25\n", 2, (2, 1)),
    ],
    ids=["static", "second-step"],
)
def test_load_rejects_an_edge_listed_twice(tmp_path, text, step, pair):
    path = tmp_path / "twice.txt"
    path.write_text(text)
    want = rf"^step {step} lists the edge \(j, i\) = \({pair[0]}, {pair[1]}\) twice$"
    with pytest.raises(ValueError, match=want):
        bi.load_schedule(path)


_BLOCK2 = "1 1 1.0\n2 2 1.0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 1 static\nstep 7\n" + _BLOCK2, "block 1 is headed 'step 7', not 'step 1'"),
        ("2 1 static\nstep x\n" + _BLOCK2, "block 1 is headed 'step x', not 'step 1'"),
        ("2 2 periodic-list\nstep 2\n" + _BLOCK2 + "step 1\n" + _BLOCK2,
         "block 1 is headed 'step 2', not 'step 1'"),
        ("2 x static\nstep 1\n" + _BLOCK2, "bad header '2 x static'; expected 'n B mode'"),
        ("x 1 static\nstep 1\n" + _BLOCK2, "bad header 'x 1 static'; expected 'n B mode'"),
        ("2 1 static\nstep 1\n1 1 x\n2 2 1.0\n", "bad triple line '1 1 x'"),
        ("2 1 static\nstep 1\n1.5 1 1.0\n2 2 1.0\n", "bad triple line '1.5 1 1.0'"),
    ],
    ids=["step-7", "step-x", "out-of-order", "header-B", "header-n", "weight", "id"],
)
def test_load_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bi.load_schedule(path)
