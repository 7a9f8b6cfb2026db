"""Per-agent random number streams.

Every agent owns two independent generator streams (regressor draws and
sensor noise), derived from one experiment seed via ``SeedSequence.spawn``.
Draws are served one network column per step.  For the built-in regressor
kinds and the noise the columns are sliced out of a block cache filled by
the model's own sampler (``draw`` or ``sample``); numpy generators produce
identical values whether drawn one at a time or in batches, so the cache is
purely a speed optimisation and never changes the stream.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from . import plant

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_agent_sequences(
    seed: int | np.random.SeedSequence,
    n_agents: int,
    roles: Sequence[str] = ("regressor", "noise"),
) -> dict[str, list[np.random.SeedSequence]]:
    """Derive one child SeedSequence per (role, agent) from a root seed.

    The layout is role-major: the root spawns one child per role, and each
    role child spawns one sequence per agent.  Spawning is deterministic, so
    the same seed always yields the same family of streams.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(roles))
    return {role: child.spawn(n_agents) for role, child in zip(roles, children)}


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
        Steps cached per refill.  Has no effect on the values served.
    """

    def __init__(self, sequences: Sequence[SeedLike], draw: Callable, block: int = 4096):
        if block < 1:
            raise ValueError("block must be >= 1")
        self._gens = [as_generator(s) for s in sequences]
        self._draw = draw
        self._block = int(block)
        self._cache: np.ndarray | None = None
        self._pos = 0

    @property
    def n_agents(self) -> int:
        return len(self._gens)

    def _refill(self) -> None:
        # Step-major, so each step's column is one contiguous row.  A refill
        # binds a new array and never writes into the old one, so views
        # handed out earlier keep their values.
        rows = [self._draw(g, self._block) for g in self._gens]
        self._cache = np.stack(rows, axis=1)
        self._cache.flags.writeable = False
        self._pos = 0

    def column(self) -> np.ndarray:
        """Next step's draw for every agent: shape ``(n,)`` or ``(n, width)``.

        The result is a read-only view into the block cache; it keeps its
        values after later refills.
        """
        if self._cache is None or self._pos == self._block:
            self._refill()
        col = self._cache[self._pos]
        self._pos += 1
        return col


class ModelStreams:
    """Regressor and noise streams bound to a system model.

    Provides the two per-step draws the identification recursion consumes:
    ``phi_step(k)`` (regressor batch) and ``noise_step()``.  The sparse and
    dense regressor kinds and the noise are block-cached through the
    model's own ``draw`` and ``sample`` methods; custom samplers are called
    one agent at a time against that agent's own generator.
    """

    def __init__(self, model, seed: int | np.random.SeedSequence, block: int = 4096):
        self.model = model
        n = model.n_agents
        seqs = spawn_agent_sequences(seed, n)
        gen = model.regressor
        self._kind = gen.kind
        if self._kind == "sparse-uniform":
            self._support = np.array(
                [gen.support_coordinate(i) - 1 for i in range(1, n + 1)], dtype=np.intp
            )
            self._flat = np.arange(n) * model.l + self._support
        if self._kind in ("sparse-uniform", "dense-uniform"):
            self._phi_bank = StreamBank(seqs["regressor"], gen.draw, block)
        else:
            self._phi_gens = [as_generator(s) for s in seqs["regressor"]]
        self._noise_bank = StreamBank(seqs["noise"], model.noise.sample, block)

    @property
    def n_agents(self) -> int:
        return self.model.n_agents

    def phi_step(self, k: int) -> "plant.PhiBatch":
        """Regressor draws for all agents at step ``k``."""
        if self._kind == "sparse-uniform":
            return plant.PhiBatch(
                l=self.model.l,
                eta=self._phi_bank.column(),
                support=self._support,
                flat=self._flat,
            )
        if self._kind == "dense-uniform":
            return plant.PhiBatch(l=self.model.l, dense=self._phi_bank.column())
        gen = self.model.regressor
        rows = np.stack([gen.sample(i, k, g) for i, g in enumerate(self._phi_gens, start=1)])
        return plant.PhiBatch(l=self.model.l, dense=rows)

    def noise_step(self) -> np.ndarray:
        """Noise draw for every agent: shape ``(n,)``."""
        return self._noise_bank.column()
