"""Graphs, weight schemes, schedules, mixing decay, serialization."""

import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binident as bi
from binident.topology import _strongly_connected
from reference import (
    reference_backward_product,
    reference_strongly_connected,
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


def test_from_undirected_pairs_adds_both_directions_and_loops():
    g = bi.from_undirected_pairs(3, [(1, 2)])
    assert g.edges == frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (2, 1)})
    assert g.is_symmetric


def test_complete_and_ring_shapes():
    assert len(bi.complete_graph(4).edges) == 16
    ring = bi.ring_graph(5)
    assert ring.is_symmetric
    assert {j for j, i in ring.edges if i == 1} == {1, 2, 5}


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


def test_partitioned_ring_needs_valid_period():
    with pytest.raises(ValueError):
        bi.partitioned_ring_schedule(4, 5)


# ---------------------------------------------------------------------------
# backward products and mixing decay

def _static(n_or_graph, weight_fn=bi.metropolis_weights):
    g = bi.complete_graph(n_or_graph) if isinstance(n_or_graph, int) else n_or_graph
    return bi.TopologySchedule.static(g, weight_fn(g))


def test_instant_averaging_has_zero_deviation():
    # metropolis on the complete graph gives exactly 1/n everywhere
    sched = _static(4)
    assert np.array_equal(sched[1].w, np.full((4, 4), 0.25))
    assert np.array_equal(bi.deviation_profile(sched, 1, 4), np.zeros(5))


def test_deviation_rejects_bad_window():
    for s, max_lag in ((0, 3), (-1, 3), (2, -1)):
        with pytest.raises(ValueError, match="need s >= 1 and max_lag >= 0"):
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
