"""Deterministic per-(agent, role) random streams and block caching."""

import inspect
import tracemalloc

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


def test_stream_bank_serves_a_drawn_negative_zero_as_positive_zero():
    bank = bi.StreamBank([1, 2], lambda g, size: np.full(size, -0.0), block=3)
    cols = np.array([bank.column() for _ in range(4)])
    assert not np.signbit(cols).any()


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
    gens = [np.random.default_rng(s) for s in seqs]
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


def test_the_draws_go_on_where_a_run_stopped():
    model = _model(n_agents=3, l=2)
    g = bi.complete_graph(3)
    sched = bi.TopologySchedule.static(g, bi.metropolis_weights(g))
    streams = bi.ModelStreams(model, 9, block=64)
    bi.run(model, sched, 100, streams=streams)
    fresh = bi.ModelStreams(model, 9, block=64)
    for _ in range(100):
        fresh.columns()
    for k in range(101, 200):
        assert np.array_equal(streams.phi_step(k).eta, fresh.phi_step(k).eta)
        assert np.array_equal(streams.noise_step(), fresh.noise_step())


# ---------------------------------------------------------------------------
# per-agent generators are seeded without per-agent SeedSequences

class _CountingSeq(np.random.SeedSequence):
    """A SeedSequence whose every spawn is logged."""

    log: list = []

    def spawn(self, n_children):
        type(self).log.append(n_children)
        return super().spawn(n_children)


_SEEDS = [
    0, 101, 2**40 + 7, 2**200 + 3, np.int64(5),
    np.random.SeedSequence(9).spawn(2)[1],
    np.random.SeedSequence(7, pool_size=8),
    np.random.SeedSequence(2**64 - 1, spawn_key=(2**33, 4)),
    np.random.SeedSequence([3, 5]),
]


def _copy(seed):
    if not isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)


@pytest.mark.parametrize("seed", _SEEDS, ids=range(len(_SEEDS)))
def test_model_streams_seed_the_generators_of_spawn_agent_sequences(seed):
    model = _model(n_agents=37)
    streams = bi.ModelStreams(model, _copy(seed))
    seqs = bi.spawn_agent_sequences(_copy(seed), model.n_agents)
    for bank, role in ((streams._phi_bank, "regressor"), (streams._noise_bank, "noise")):
        want = [np.random.PCG64(s).state for s in seqs[role]]
        assert [g.bit_generator.state for g in bank._gens] == want


def test_model_streams_spawn_only_the_root_split():
    _CountingSeq.log = []
    bi.ModelStreams(_model(n_agents=100, l=8), _CountingSeq(17))
    assert _CountingSeq.log == [2]


_INT_SEEDS = [s for s in _SEEDS if isinstance(getattr(s, "entropy", s), (int, np.integer))]


@pytest.mark.parametrize("seed", _INT_SEEDS, ids=range(len(_INT_SEEDS)))
def test_every_int_entropy_seed_takes_the_pool_route(seed):
    # 1-, 2- and 7-word entropy, pool_size 8 and a 2-word spawn-key entry:
    # a wrong word count would still give the right streams, by spawning
    if isinstance(seed, np.random.SeedSequence):
        root = _CountingSeq(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    else:
        root = _CountingSeq(seed)
    _CountingSeq.log = []
    bi.ModelStreams(_model(n_agents=37), root)
    assert _CountingSeq.log == [2]


def test_a_hash_mismatch_falls_back_to_spawning(monkeypatch):
    model = _model(n_agents=9)
    want = bi.ModelStreams(model, 31)
    monkeypatch.setattr(bi.streams, "_MIX_MULT_L", 12345)
    _CountingSeq.log = []
    got = bi.ModelStreams(model, _CountingSeq(31))
    assert _CountingSeq.log == [2, 9, 9]    # each role spawned its agents
    for a, b in zip(got._phi_bank._gens + got._noise_bank._gens,
                    want._phi_bank._gens + want._noise_bank._gens):
        assert isinstance(a.bit_generator.seed_seq, np.random.SeedSequence)
        assert a.bit_generator.state == b.bit_generator.state


def _eager_blocks(model, seed, block, blocks):
    """The first ``blocks`` blocks of both roles, drawn from eagerly built generators."""
    seqs = bi.spawn_agent_sequences(seed, model.n_agents)
    out = {}
    for role, draw in (("regressor", model.regressor.draw), ("noise", model.noise.sample)):
        gens = [np.random.Generator(np.random.PCG64(s)) for s in seqs[role]]
        out[role] = np.concatenate(
            [np.stack([draw(g, block) for g in gens], axis=1) for _ in range(blocks)]
        )
    return out


@pytest.mark.parametrize("kind", ["sparse", "dense"])
@pytest.mark.parametrize("through", ["steps", "columns"])
def test_model_streams_equal_eagerly_spawned_ones(kind, through):
    model = _model(n_agents=6, l=3, kind=kind)
    block = 5
    want = _eager_blocks(model, 2024, block, 2)
    streams = bi.ModelStreams(model, 2024, block=block)
    for k in range(1, 2 * block + 1):
        if through == "columns":
            phi, noise = streams.columns()
        else:
            batch = streams.phi_step(k)
            phi, noise = (batch.eta if kind == "sparse" else batch.dense), streams.noise_step()
        assert np.array_equal(phi, want["regressor"][k - 1])
        assert np.array_equal(noise, want["noise"][k - 1])


def test_a_callers_seed_sequence_spawned_after_construction_leaves_the_streams():
    model = _model(n_agents=5, l=3)
    ss = np.random.SeedSequence(606)
    streams = bi.ModelStreams(model, ss)
    assert ss.n_children_spawned == 2
    ss.spawn(3)
    ref = bi.ModelStreams(model, np.random.SeedSequence(606))
    for k in range(1, 30):
        assert np.array_equal(streams.phi_step(k).eta, ref.phi_step(k).eta)
        assert np.array_equal(streams.noise_step(), ref.noise_step())


# ---------------------------------------------------------------------------
# non-finite draws fail loudly

class _NaNNoise(bi.GaussianNoise):
    """Gaussian noise with NaN in every third slot of each draw."""

    def sample(self, rng, size=None):
        d = super().sample(rng, size)
        d[::3] = np.nan
        return d


class _InfRegressors(bi.SparseUniformRegressors):
    """Sparse amplitudes with +inf in the last slot of each draw."""

    def draw(self, rng, size):
        eta = super().draw(rng, size)
        eta[-1] = np.inf
        return eta


def test_a_nan_noise_sampler_fails_the_first_refill():
    streams = bi.ModelStreams(_model(noise=_NaNNoise(0.25)), 3)
    with pytest.raises(ValueError, match=r"^noise: the sampler returned nan for agent 0$"):
        streams.noise_step()
    with pytest.raises(ValueError, match=r"^noise: "):
        streams.columns()


def test_an_infinite_regressor_sampler_fails_its_refill():
    model = bi.SystemModel(
        theta_star=np.arange(1.0, 4.0), regressor=_InfRegressors(3),
        noise=bi.GaussianNoise(0.25), n_agents=4,
    )
    streams = bi.ModelStreams(model, 3, block=8)
    with pytest.raises(ValueError, match=r"^regressor: the sampler returned inf for agent 0$"):
        streams.phi_step(1)


def test_a_plain_stream_bank_names_its_draws():
    bank = bi.StreamBank([1, 2], lambda g, size: np.full(size, np.nan))
    with pytest.raises(ValueError, match=r"^draws: "):
        bank.column()


def test_a_plain_stream_bank_names_the_agent_that_drew_nan():
    gens = [np.random.default_rng(1), np.random.default_rng(2)]
    bank = bi.StreamBank(gens, lambda g, size: np.full(size, np.nan if g is gens[1] else 0.0))
    with pytest.raises(ValueError, match=r"^draws: the sampler returned nan for agent 1$"):
        bank.column()


def test_a_stream_bank_rejects_a_bad_seed_at_construction():
    with pytest.raises(ValueError):
        bi.StreamBank([3, -1], lambda g, size: g.standard_normal(size))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("width", [None, 3])
def test_a_refill_names_the_first_agent_that_drew_a_non_finite_value(width, bad):
    # agents 2 and 4 go bad in their second block, in a middle slot; the
    # others, agent 0 included, stay finite
    gens = [np.random.default_rng(i) for i in range(5)]
    calls = {id(g): 0 for g in gens}

    def draw(g, size):
        d = g.standard_normal(size if width is None else (size, width))
        calls[id(g)] += 1
        if calls[id(g)] == 2 and g in (gens[2], gens[4]):
            d[1] = bad
        return d

    bank = bi.StreamBank(gens, draw, block=4)
    first = [bank.column() for _ in range(4)]
    assert all(np.isfinite(col).all() for col in first)
    assert first[0].shape == ((5,) if width is None else (5, width))
    with pytest.raises(ValueError, match=rf"^draws: the sampler returned {bad} for agent 2$"):
        bank.column()


def test_a_run_holds_at_most_two_and_a_half_stream_blocks():
    # a refill frees the old block before it draws the new one, so the two
    # banks' blocks, the new block's finiteness mask and the engine's
    # (65, n, l) window buffer are about all a run holds
    cfg = bi.preset_v(seed=101, steps=0)
    pre = bi.preflight(cfg)
    model = pre.model
    default = inspect.signature(bi.ModelStreams).parameters["block"].default
    block = model.n_agents * default * 8
    window = 65 * model.n_agents * model.l * 8
    kw = dict(gain=cfg.gain, radii=cfg.radii)
    bi.run(model, pre.schedule, 10, seed=0, **kw)
    streams = bi.ModelStreams(model, 0)
    tracemalloc.start()
    try:
        bi.run(model, pre.schedule, 3000, streams=streams, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * block + window, (peak - window) / block
