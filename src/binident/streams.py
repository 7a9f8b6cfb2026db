"""Per-agent random number streams.

Every agent owns two independent generator streams (regressor draws and
sensor noise), derived from one experiment seed via ``SeedSequence.spawn``.
Draws are served one network column per step, or several steps' rows at
once, sliced out of a block cache filled by the model's own samplers (the
regressor's ``draw`` and the noise's ``sample``); numpy generators produce
identical values whether drawn one at a time or in batches, so the cache is
purely a speed optimisation and never changes the stream.  A block holds
1024 steps by default: 0.8 MB per bank on the 100-agent preset, so a run's
two banks fit together in a 2 MB L2 cache.  A drawn -0.0 is served as +0.0
(no built-in law draws one), so the true outputs ``y`` of
:meth:`ModelStreams.chunk` are never -0.0 and the identification engine
can read a sensor's sign as the sign of ``y - c``.

:class:`ModelStreams` seeds its per-agent generators without building the
per-agent SeedSequences: it starts from each role child's own ``pool``
(numpy's hash of the words the agents share) and mixes in each agent's
index, vectorised over the agents, getting the same PCG64 seeds bit for
bit.  Every refill checks its whole block once, so a sampler that returns
NaN or an infinity fails at that refill with a ``ValueError`` naming its
role and the first agent that drew one.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import plant
from ._checks import _finite, check_count, check_seed

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]

_ROLES = ("regressor", "noise")

_BLOCK = 1024   # steps cached per refill, unless a bank is given another size
_CHUNK = 64     # steps a chunk read serves at most

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _role_children(seed: int | np.random.SeedSequence) -> list[np.random.SeedSequence]:
    """The root's one child per role (the first level of the layout below)."""
    return check_seed(seed).spawn(len(_ROLES))


def spawn_agent_sequences(
    seed: int | np.random.SeedSequence, n_agents: int
) -> dict[str, list[np.random.SeedSequence]]:
    """Derive one child SeedSequence per (role, agent) from a root seed.

    The roles are ``regressor`` and ``noise``.  The layout is role-major:
    the root spawns one child per role, and each role child spawns one
    sequence per agent.  Spawning is deterministic, so the same seed always
    yields the same family of streams.
    """
    return {role: child.spawn(n_agents) for role, child in zip(_ROLES, _role_children(seed))}


class _PCG64Seed(ISeedSequence):
    """A PCG64 seed computed ahead, so building the generator hashes nothing."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _agent_generators(child: np.random.SeedSequence, n: int) -> list[np.random.Generator]:
    """``[default_rng(s) for s in child.spawn(n)]``, without the n SeedSequences.

    A child's hash input is its parent's words and then its own index, so
    each child's pool is ``child.pool`` with that one word mixed in, at the
    hash constant reached after the parent's words; the index mix and the
    seed output run vectorised over the children, and each PCG64 takes its
    four seed words ready-made.  Generator 0 is checked against numpy's own
    construction; on a mismatch (a numpy that hashes differently, or entropy
    that is not an int) the children are spawned the slow way.
    """
    first, ps = child.n_children_spawned, child.pool_size
    entropy = child.entropy
    if isinstance(entropy, (int, np.integer)) and 0 < n and first + n <= _M32 + 1:
        # the words hashed into child.pool: the entropy's, at least a pool's
        # worth (numpy pads with zeros or hashes zeros up to it), then each
        # spawn-key entry's; every word steps the hash constant ps times
        sizes = [-(-max(1, int(v).bit_length()) // 32) for v in (entropy, *child.spawn_key)]
        hc = _INIT_A * pow(_MULT_A, ps * (max(ps, sizes[0]) + sum(sizes[1:])), _M32 + 1) & _M32
        # the last word, each child's index, into every pool word, as (n, ps)
        pre = [hc]
        for _ in range(ps):
            pre.append(pre[-1] * _MULT_A & _M32)
        idx = np.arange(first, first + n, dtype=np.uint32)[:, None]
        v = (idx ^ np.array(pre[:-1], np.uint32)) * np.array(pre[1:], np.uint32)
        v ^= v >> 16
        r = child.pool * np.uint32(_MIX_MULT_L) - v * np.uint32(_MIX_MULT_R)
        r ^= r >> 16
        # generate_state(4, uint64): eight words cycled from the pool
        pre = [_INIT_B]
        for _ in range(8):
            pre.append(pre[-1] * _MULT_B & _M32)
        v = (r[:, np.arange(8) % ps] ^ np.array(pre[:-1], np.uint32)) * np.array(pre[1:], np.uint32)
        v ^= v >> 16
        seeds = np.ascontiguousarray(v, "<u4").view("<u8").astype(np.uint64)
        gens = [np.random.Generator(np.random.PCG64(_PCG64Seed(s))) for s in seeds]
        real = np.random.SeedSequence(entropy, spawn_key=child.spawn_key + (first,), pool_size=ps)
        if gens[0].bit_generator.state == np.random.PCG64(real).state:
            return gens
    return [np.random.default_rng(s) for s in child.spawn(n)]


class StreamBank:
    """One generator per agent, served as per-step columns or as rows of several steps.

    Every refill checks its block once, and a NaN or an infinity raises
    ``ValueError`` (``draws: ...``) naming the first agent that drew one.

    Parameters
    ----------
    sequences:
        Per-agent seeds (SeedSequence, int, or Generator each).
    draw:
        ``draw(gen, size)`` returning ``(size,)`` or ``(size, width)``
        samples; every agent draws with the same callable from its own
        generator.
    block:
        Steps drawn per refill.  Has no effect on the values served.
    """

    _role = "draws"     # the name errors give the stream

    def __init__(self, sequences: Sequence[SeedLike], draw: Callable, block: int = _BLOCK):
        self._block = check_count("block", block, 1)
        self._gens = [np.random.default_rng(s) for s in sequences]
        self._draw = draw
        self._cache: np.ndarray | None = None
        self._pos = self._block     # the first read refills

    def _refill(self) -> None:
        # Step-major, so each step's column is one contiguous row, filled
        # agent by agent so that only one agent's draws exist beside the new
        # block; the old block is released first unless a view still holds
        # it.  A refill binds a new array and never writes into the old one,
        # so views handed out earlier keep their values.  One finiteness
        # check covers the block; only a failure walks the agents, to name
        # the first bad one.
        size = self._block
        self._cache = cache = None
        for i, g in enumerate(self._gens):
            draws = self._draw(g, size)
            if cache is None:
                shape = (size, len(self._gens)) + draws.shape[1:]
                cache = np.empty(shape, dtype=draws.dtype)
            np.add(draws, 0.0, out=cache[:, i])     # -0.0 is served as +0.0
        if not np.isfinite(cache).all():
            for i in range(len(self._gens)):
                _finite(cache[:, i], self._role, i)
        cache.flags.writeable = False
        self._cache = cache
        self._pos = 0

    def column(self) -> np.ndarray:
        """Next step's draw for every agent: shape ``(n,)`` or ``(n, width)``.

        The result is a read-only view into the block cache; it keeps its
        values after later refills.
        """
        return self._rows(1)[0]

    def _rows(self, steps: int) -> np.ndarray:
        # The next m <= steps (steps >= 1) steps' draws, stacked step-major:
        # one read-only view that stops at the end of the block, refilled
        # first if the block is used up, so m >= 1.
        if self._pos == self._block:
            self._refill()
        pos = self._pos
        self._pos = end = min(pos + steps, self._block)
        return self._cache[pos:end]

    def unread(self, count: int) -> None:
        """Take back the last ``count`` steps served from the current block."""
        check_count("unread", count, 0)
        if count > self._pos:
            raise ValueError(f"unread: {count} steps, {self._pos} were served from this block")
        self._pos -= count


class _RoleBank(StreamBank):
    """A bank whose errors name its role (``regressor`` or ``noise``)."""

    def __init__(self, role: str, sequences, draw: Callable, block: int):
        super().__init__(sequences, draw, block)
        self._role = role


class ModelStreams:
    """Regressor and noise streams bound to a system model.

    Provides the two per-step draws the identification recursion consumes:
    ``phi_step(k)`` (regressor batch) and ``noise_step()``, and
    :meth:`chunk`, several steps' regressor rows with their true outputs.
    All are block-cached through the model's own ``draw`` and ``sample``
    methods; for the sparse kind each batch carries ``model.supports``.

    The streams are those of :func:`spawn_agent_sequences`, all built at
    construction; the per-agent generators are seeded by a vectorised hash
    (see the module docstring) instead of n SeedSequence objects per role.
    """

    def __init__(self, model, seed: int | np.random.SeedSequence, block: int = _BLOCK):
        self.model = model
        regressor, noise = _role_children(seed)
        n = model.n_agents
        self._support = model.supports
        self._phi_bank = _RoleBank(
            "regressor", _agent_generators(regressor, n), model.regressor.draw, block
        )
        self._noise_bank = _RoleBank(
            "noise", _agent_generators(noise, n), model.noise.sample, block
        )

    def phi_step(self, k: int) -> "plant.PhiBatch":
        """Regressor draws for all agents at step ``k``.

        The draws do not depend on ``k``.  The argument stays because it is
        part of the stream interface ``run`` consumes, and the acceptance
        suite and the test reference streams call it that way.
        """
        if self._support is not None:
            return plant.PhiBatch(
                l=self.model.l, eta=self._phi_bank.column(), support=self._support
            )
        return plant.PhiBatch(l=self.model.l, dense=self._phi_bank.column())

    def noise_step(self) -> np.ndarray:
        """Noise draw for every agent: shape ``(n,)``."""
        return self._noise_bank.column()

    def chunk(self, theta_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The next ``m <= 64`` steps' regressor rows and their true outputs.

        Returns ``(phi, y)``: ``phi`` the read-only rows of the regressor
        bank, ``(m, n)`` sparse amplitudes or ``(m, n, l)`` dense rows, and
        ``y`` a new ``(m, n)`` array of the outputs ``phi_i' theta_star + d_i``,
        each step's row bit-equal to ``PhiBatch.outputs(theta_star, d)``.
        ``m >= 1`` stops at the end of either bank's block, so a chunk never
        spans a refill.  The rows come from the banks behind
        :meth:`phi_step` and :meth:`noise_step`, so the reads can be mixed
        and every drawn value stays the same; :meth:`unread` takes back the
        rows not used.
        """
        phi = self._phi_bank._rows(_CHUNK)
        d = self._noise_bank._rows(len(phi))
        if len(d) < len(phi):       # the noise block ends first
            self._phi_bank.unread(len(phi) - len(d))
            phi = phi[: len(d)]
        if self._support is not None:
            y = np.multiply(phi, theta_star[self._support])
        else:
            y = np.matmul(phi, theta_star)      # per step, the product PhiBatch.outputs takes
        y += d
        return phi, y

    def unread(self, count: int) -> None:
        """Take back the last ``count`` steps of the latest :meth:`chunk`.

        The next read serves them again, as if they had never been read.
        Refused, with neither bank moved, beyond the steps either bank
        served from its current block.
        """
        banks = sorted((self._phi_bank, self._noise_bank), key=lambda bank: bank._pos)
        for bank in banks:          # the bank that served fewer refuses first
            bank.unread(count)
