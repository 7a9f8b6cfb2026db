"""Deterministic per-(agent, role) random streams and block caching."""

import numpy as np
import pytest

import binident as bi


def _model(n_agents=4, l=3, kind="sparse", noise=None):
    if kind == "sparse":
        gen = bi.SparseUniformRegressors(l)
    else:
        gen = bi.DenseUniformRegressors(l, bound=1.0)
    return bi.SystemModel(
        theta_star=np.arange(1.0, l + 1.0),
        regressor=gen,
        noise=noise or bi.GaussianNoise(0.25),
        n_agents=n_agents,
    )


def test_as_generator_accepts_int_seedsequence_generator():
    a = bi.as_generator(7)
    b = bi.as_generator(np.random.SeedSequence(7))
    assert a.uniform() == b.uniform()
    g = np.random.default_rng(1)
    assert bi.as_generator(g) is g


def test_spawn_layout_is_role_major_and_prefix_stable():
    small = bi.spawn_agent_sequences(99, 3)
    large = bi.spawn_agent_sequences(99, 5)
    assert set(small) == {"regressor", "noise"}
    for role in small:
        for i in range(3):
            ga = np.random.Generator(np.random.PCG64(small[role][i]))
            gb = np.random.Generator(np.random.PCG64(large[role][i]))
            assert ga.uniform() == gb.uniform()
    # roles draw from distinct streams
    gr = np.random.Generator(np.random.PCG64(small["regressor"][0]))
    gn = np.random.Generator(np.random.PCG64(small["noise"][0]))
    assert gr.uniform() != gn.uniform()


def test_stream_bank_block_size_does_not_change_draws():
    seqs = bi.spawn_agent_sequences(5, 3)["noise"]
    draw = lambda g, size: g.normal(0.0, 1.0, size)
    small = bi.StreamBank(seqs, draw, block=3)
    big = bi.StreamBank(seqs, draw, block=512)
    for _ in range(50):  # crosses the small block boundary many times
        assert np.array_equal(small.column(), big.column())


def test_stream_bank_columns_are_read_only_and_survive_refills():
    seqs = bi.spawn_agent_sequences(5, 3)["noise"]
    draw = lambda g, size: g.normal(0.0, 1.0, size)
    bank = bi.StreamBank(seqs, draw, block=2)
    reference = bi.StreamBank(seqs, draw, block=64)
    cols = [bank.column() for _ in range(7)]  # three refills
    for col, want in zip(cols, [reference.column() for _ in range(7)]):
        assert not col.flags.writeable
        assert np.array_equal(col, want)
    with pytest.raises(ValueError):
        cols[0][0] = 1.0


def test_stream_bank_matches_scalar_generator_calls():
    seqs = bi.spawn_agent_sequences(11, 2)["regressor"]
    bank = bi.StreamBank(seqs, lambda g, size: g.uniform(-1.0, 1.0, size), block=4)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in seqs]
    got = np.array([bank.column() for _ in range(10)])
    want = np.array([[g.uniform(-1.0, 1.0, 10) for g in gens]]).squeeze(0).T
    assert np.array_equal(got, want)


def test_model_streams_sparse_block_boundaries():
    model = _model()
    a = bi.ModelStreams(model, 123, block=7)
    b = bi.ModelStreams(model, 123)
    for k in range(1, 101):
        pa, pb = a.phi_step(k), b.phi_step(k)
        assert np.array_equal(pa.eta, pb.eta)
        assert np.array_equal(pa.support, pb.support)
        assert np.array_equal(a.noise_step(), b.noise_step())


def test_model_streams_sparse_support_pattern():
    model = _model(n_agents=7, l=3)
    batch = bi.ModelStreams(model, 0).phi_step(1)
    assert batch.is_sparse
    # agents 1..7 on coordinates 1 2 3 1 2 3 1 (0-based below)
    assert np.array_equal(batch.support, [0, 1, 2, 0, 1, 2, 0])
    assert batch.support is model.supports
    assert np.array_equal(batch.flat, np.arange(7) * 3 + model.supports)


def test_model_streams_dense_block_boundaries():
    model = _model(kind="dense")
    a = bi.ModelStreams(model, 5, block=3)
    b = bi.ModelStreams(model, 5, block=64)
    for k in range(1, 20):
        assert np.array_equal(a.phi_step(k).dense, b.phi_step(k).dense)
        assert np.array_equal(a.noise_step(), b.noise_step())


def test_model_streams_agent_prefix_stable():
    small = bi.ModelStreams(_model(n_agents=3), 77)
    large = bi.ModelStreams(_model(n_agents=5), 77)
    ps, pl = small.phi_step(1), large.phi_step(1)
    assert np.array_equal(ps.eta, pl.eta[:3])
    assert np.array_equal(small.noise_step(), large.noise_step()[:3])


def test_model_streams_different_seeds_differ():
    model = _model()
    a = bi.ModelStreams(model, 1)
    b = bi.ModelStreams(model, 2)
    assert not np.array_equal(a.phi_step(1).eta, b.phi_step(1).eta)


@pytest.mark.parametrize("kind", ["sparse", "dense"])
@pytest.mark.parametrize("block", [1, 7, 4096])
def test_stream_bank_columns_equal_the_stacked_block_layout(kind, block):
    gen = _model(n_agents=5, l=3, kind=kind).regressor
    seqs = bi.spawn_agent_sequences(31, 5)["regressor"]
    bank = bi.StreamBank(seqs, gen.draw, block=block)
    gens = [bi.as_generator(s) for s in seqs]
    for _ in range(3):  # three refills
        want = np.stack([gen.draw(g, block) for g in gens], axis=1)
        got = np.array([bank.column() for _ in range(block)])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_stream_bank_old_column_keeps_its_values_after_a_refill():
    seqs = bi.spawn_agent_sequences(8, 4)["noise"]
    bank = bi.StreamBank(seqs, lambda g, size: g.normal(0.0, 1.0, size), block=2)
    first = bank.column()
    kept = first.copy()
    for _ in range(5):  # two more refills
        bank.column()
    assert np.array_equal(first, kept)


def test_expected_columns_size_the_last_refill_and_keep_the_stream():
    seqs = bi.spawn_agent_sequences(21, 3)["noise"]
    sizes = []

    def draw(g, size):
        sizes.append(size)
        return g.normal(0.0, 1.0, size)

    sized = bi.StreamBank(seqs, draw, block=8)
    plain = bi.StreamBank(seqs, lambda g, size: g.normal(0.0, 1.0, size), block=8)
    sized.column()              # one column read before the announcement
    sized.expect(19)            # 7 are cached, 12 still to draw: blocks of 8 and 4
    got = [sized.column() for _ in range(19)]
    assert sizes == [8] * 3 + [8] * 3 + [4] * 3
    got += [sized.column() for _ in range(10)]   # reads past it draw whole blocks
    assert sizes[9:] == [8] * 6
    want = [plain.column() for _ in range(30)][1:]
    for col, ref in zip(got, want):
        assert np.array_equal(col, ref)


def test_a_run_draws_only_the_steps_it_needs():
    model = _model(n_agents=3, l=2)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    streams = bi.ModelStreams(model, 9, block=64)
    bi.run(model, sched, 100, streams=streams)
    assert len(streams._phi_bank._cache) == len(streams._noise_bank._cache) == 36
    # the draws go on where the run stopped, as one unsized stream's would
    fresh = bi.ModelStreams(model, 9, block=64)
    for _ in range(100):
        fresh.columns()
    for k in range(101, 200):
        assert np.array_equal(streams.phi_step(k).eta, fresh.phi_step(k).eta)
        assert np.array_equal(streams.noise_step(), fresh.noise_step())
