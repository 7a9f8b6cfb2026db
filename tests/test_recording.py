"""The windowed recorder and the one-pass CSV writer against row-at-a-time references.

``TrajectoryRecorder`` reduces the stride rows of each run window with one
call of each metric kernel (per step, one row at a time), and
``write_trajectory_csv`` formats a row in one join.
Both must give exactly what the row-at-a-time recorder and the
value-by-value writer in ``reference.py`` give: the same ``Metrics`` bit for
bit and the same file bytes.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binident as bi
from binident.analysis import _mean_error_rows
from reference import ReferenceTrajectoryRecorder, reference_write_trajectory_csv


def _snap(k, theta, sigma_max):
    return SimpleNamespace(k=k, theta=theta, ledger=SimpleNamespace(sigma_max=sigma_max))


def _feed(recorders, snaps):
    for prev, new in zip(snaps, snaps[1:]):
        for rec in recorders:
            rec(prev, new)


def _assert_same_bytes(metrics, tmp_path):
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    bi.write_trajectory_csv(metrics, fast)
    reference_write_trajectory_csv(metrics, slow)
    assert fast.read_bytes() == slow.read_bytes()


@given(
    n=st.integers(1, 120),
    l=st.integers(1, 64),
    rows=st.sampled_from([1, 63, 64, 65, 129]),
    stride=st.sampled_from([1, 7]),
    agent_errors=st.booleans(),
    theta_bar=st.booleans(),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_recorder_and_csv_match_row_at_a_time_reference(
    tmp_path_factory, n, l, rows, stride, agent_errors, theta_bar, scale, seed
):
    rng = np.random.default_rng(seed)
    star = rng.normal(size=l) * scale
    # ``rows`` recorded rows: the initial one plus one per stride.
    steps = (rows - 1) * stride - (1 if stride > 1 and rows > 1 else 0)
    snaps = []
    for k in range(1, steps + 2):
        theta = rng.normal(size=(n, l)) * scale
        if rng.random() < 0.2:
            theta[:] = 0.0 if rng.random() < 0.5 else star
        snaps.append(_snap(k, theta, int(k // 5)))
    kw = dict(stride=stride, record_agent_errors=agent_errors, record_theta_bar=theta_bar)
    fast = bi.TrajectoryRecorder(star, **kw)
    slow = ReferenceTrajectoryRecorder(star, **kw)
    _feed((fast, slow), snaps)
    got, want = fast.metrics(snaps[-1]), slow.metrics(snaps[-1])
    assert got.n_rows == rows
    assert got.equals(want)
    assert fast.metrics(snaps[-1]).equals(want)   # asking again adds nothing
    _assert_same_bytes(got, tmp_path_factory.mktemp("csv"))


@pytest.mark.parametrize("steps", [0, 63, 64, 130])
def test_recorder_matches_reference_on_a_real_run(tmp_path, steps):
    model = bi.SystemModel(
        np.array([0.5, -0.4, 0.3]), bi.DenseUniformRegressors(3, bound=1.0),
        bi.GaussianNoise(0.01), 5,
    )
    g = bi.complete_graph(5)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    kw = dict(stride=1, record_agent_errors=True, record_theta_bar=True)
    fast = bi.TrajectoryRecorder(model.theta_star, **kw)
    slow = ReferenceTrajectoryRecorder(model.theta_star, **kw)
    final = bi.run(model, sched, steps, seed=4, sinks=(fast, slow), gain=3.0)
    got = fast.metrics(final)
    assert got.n_rows == steps + 1
    assert got.equals(slow.metrics(final))
    assert fast.metrics(final).equals(got)
    _assert_same_bytes(got, tmp_path)


def test_recorder_copies_the_estimates_it_waits_on():
    theta = np.ones((3, 2))
    rec = bi.TrajectoryRecorder(np.zeros(2), record_theta_bar=True)
    rec(_snap(1, theta, 0), _snap(2, theta, 0))
    theta[:] = 5.0            # a later write must not reach the pending rows
    m = rec.metrics(_snap(2, theta, 0))
    assert m.theta_bar.tolist() == [[1.0, 1.0], [1.0, 1.0]]


@pytest.mark.parametrize("optional", [False, True])
def test_csv_formats_edge_floats_like_the_reference(tmp_path, optional):
    vals = np.array([-0.0, 5e-324, 1e16, 0.1, 1 / 3, 1e-300, 2.5e-8])
    rows = vals.size
    metrics = bi.Metrics(
        k=np.arange(1, rows + 1), sigma_max=np.arange(rows) * 1000,
        consensus_gap=vals, mean_error=vals[::-1].copy(),
        agent_errors=np.tile(vals, (rows, 1)) if optional else None,
        theta_bar=np.tile(vals[:3], (rows, 1)) if optional else None,
    )
    _assert_same_bytes(metrics, tmp_path)
    text = (tmp_path / "fast.csv").read_text()
    assert text.splitlines()[1].startswith("1,0,-0.0,2.5e-08")
    assert bi.read_trajectory_csv(tmp_path / "fast.csv").equals(metrics)


def test_csv_of_zero_rows_is_the_header_alone(tmp_path):
    empty = np.zeros(0)
    metrics = bi.Metrics(k=empty, sigma_max=empty, consensus_gap=empty, mean_error=empty)
    _assert_same_bytes(metrics, tmp_path)
    assert (tmp_path / "fast.csv").read_text() == "k,sigma_max,consensus_gap,mean_error\n"


def test_stacked_matmul_mean_error_equals_per_row_dot():
    rng = np.random.default_rng(13)
    for l in range(1, 129):
        d = rng.normal(size=(40, l)) * rng.choice([1e-6, 1.0, 1e3], size=(40, 1))
        d[::7] = 0.0
        want = np.array([np.sqrt(row @ row) for row in d])
        assert np.array_equal(_mean_error_rows(d, np.zeros(l)), want), l
