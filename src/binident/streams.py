"""Per-agent random number streams.

Every agent owns two independent generator streams (regressor draws and
sensor noise), derived from one experiment seed via ``SeedSequence.spawn``.
Draws are served one network column per step, sliced out of a block cache
filled by the model's own samplers (the regressor's ``draw`` and the
noise's ``sample``); numpy generators produce identical values whether
drawn one at a time or in batches, so the cache is purely a speed
optimisation and never changes the stream.  A caller that knows how many
steps it will read says so (:meth:`ModelStreams.expect`), and the last
refill then draws only those steps instead of a whole block.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from . import plant

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]

_ROLES = ("regressor", "noise")


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_agent_sequences(
    seed: int | np.random.SeedSequence, n_agents: int
) -> dict[str, list[np.random.SeedSequence]]:
    """Derive one child SeedSequence per (role, agent) from a root seed.

    The roles are ``regressor`` and ``noise``.  The layout is role-major:
    the root spawns one child per role, and each role child spawns one
    sequence per agent.  Spawning is deterministic, so the same seed always
    yields the same family of streams.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(_ROLES))
    return {role: child.spawn(n_agents) for role, child in zip(_ROLES, children)}


class StreamBank:
    """One generator per agent, served as per-step columns.

    Parameters
    ----------
    sequences:
        Per-agent seeds (SeedSequence, int, or Generator each).
    draw:
        ``draw(gen, size)`` returning ``(size,)`` or ``(size, width)``
        samples; every agent draws with the same callable from its own
        generator.
    block:
        Steps cached per refill (at most; see :meth:`expect`).  Has no
        effect on the values served.
    """

    def __init__(self, sequences: Sequence[SeedLike], draw: Callable, block: int = 4096):
        if block < 1:
            raise ValueError("block must be >= 1")
        self._gens = [as_generator(s) for s in sequences]
        self._draw = draw
        self._block = int(block)
        self._cache: np.ndarray | None = None
        self._pos = 0
        self._end = 0           # columns in the cache
        self._budget = 0        # announced columns not drawn yet (0: none announced)

    def expect(self, count: int) -> None:
        """Announce that ``count`` more columns will be read.

        Refills draw no further than that, so the last one is sized to what
        is still needed; reads beyond it draw whole blocks again.
        """
        self._budget = max(0, int(count) - (self._end - self._pos))

    def _refill(self) -> None:
        # Step-major, so each step's column is one contiguous row, filled
        # agent by agent so that only one agent's draws exist beside the new
        # block; the old block is released first unless a view still holds
        # it.  A refill binds a new array and never writes into the old one,
        # so views handed out earlier keep their values.
        size = self._block
        if self._budget:
            size = min(size, self._budget)
            self._budget -= size
        self._cache = cache = None
        for i, g in enumerate(self._gens):
            draws = self._draw(g, size)
            if cache is None:
                shape = (size, len(self._gens)) + draws.shape[1:]
                cache = np.empty(shape, dtype=draws.dtype)
            cache[:, i] = draws
        cache.flags.writeable = False
        self._cache = cache
        self._pos, self._end = 0, size

    def column(self) -> np.ndarray:
        """Next step's draw for every agent: shape ``(n,)`` or ``(n, width)``.

        The result is a read-only view into the block cache; it keeps its
        values after later refills.
        """
        if self._pos == self._end:
            self._refill()
        col = self._cache[self._pos]
        self._pos += 1
        return col


class ModelStreams:
    """Regressor and noise streams bound to a system model.

    Provides the two per-step draws the identification recursion consumes:
    ``phi_step(k)`` (regressor batch) and ``noise_step()``.  Both are
    block-cached through the model's own ``draw`` and ``sample`` methods;
    for the sparse kind each batch carries ``model.supports`` and its flat
    index.
    """

    def __init__(self, model, seed: int | np.random.SeedSequence, block: int = 4096):
        self.model = model
        seqs = spawn_agent_sequences(seed, model.n_agents)
        self._support = model.supports
        if self._support is not None:
            self._flat = np.arange(model.n_agents) * model.l + self._support
        self._phi_bank = StreamBank(seqs["regressor"], model.regressor.draw, block)
        self._noise_bank = StreamBank(seqs["noise"], model.noise.sample, block)

    def phi_step(self, k: int) -> "plant.PhiBatch":
        """Regressor draws for all agents at step ``k``.

        The draws do not depend on ``k``.  The argument stays because it is
        part of the stream interface ``run`` consumes, and the acceptance
        suite and the test reference streams call it that way.
        """
        if self._support is not None:
            return plant.PhiBatch(
                l=self.model.l,
                eta=self._phi_bank.column(),
                support=self._support,
                flat=self._flat,
            )
        return plant.PhiBatch(l=self.model.l, dense=self._phi_bank.column())

    def noise_step(self) -> np.ndarray:
        """Noise draw for every agent: shape ``(n,)``."""
        return self._noise_bank.column()

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Next step's raw regressor column and noise column, with no batch.

        The regressor column holds the sparse amplitudes ``(n,)`` or the
        dense rows ``(n, l)``.  Both come from the banks behind
        :meth:`phi_step` and :meth:`noise_step`, so the three calls can be
        mixed step by step and every drawn value stays the same.
        """
        return self._phi_bank.column(), self._noise_bank.column()

    def expect(self, steps: int) -> None:
        """Announce that ``steps`` more steps will be drawn (see :meth:`StreamBank.expect`)."""
        self._phi_bank.expect(steps)
        self._noise_bank.expect(steps)
