"""Per-agent random number streams.

Every agent owns two independent generator streams (regressor draws and
sensor noise), derived from one experiment seed via ``SeedSequence.spawn``.
Draws are served one network column per step.  For homogeneous model kinds
the columns are sliced out of a block cache; numpy generators produce
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
        samples.  May also be a sequence with one callable per agent, e.g.
        for heterogeneous noise models; all widths must agree.
    block:
        Steps cached per refill.  Has no effect on the values served.
    """

    def __init__(
        self,
        sequences: Sequence[SeedLike],
        draw: Callable | Sequence[Callable],
        block: int = 4096,
    ):
        if block < 1:
            raise ValueError("block must be >= 1")
        self._gens = [as_generator(s) for s in sequences]
        n = len(self._gens)
        if callable(draw):
            self._draws = [draw] * n
        else:
            self._draws = list(draw)
            if len(self._draws) != n:
                raise ValueError("need one draw callable per agent")
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
        rows = [d(g, self._block) for g, d in zip(self._gens, self._draws)]
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
    ``phi_step(k)`` (regressor batch) and ``noise_step()``.  Sparse and
    dense homogeneous regressor kinds use block caches; custom samplers are
    called one agent at a time against that agent's own generator.
    """

    def __init__(self, model, seed: int | np.random.SeedSequence, block: int = 4096):
        self.model = model
        n = model.n_agents
        seqs = spawn_agent_sequences(seed, n)

        kind = model.uniform_regressor_kind()
        self._kind = kind
        if kind == "sparse-uniform":
            self._support = np.array(
                [model.regressor_for(i).support_coordinate(i) - 1 for i in range(1, n + 1)],
                dtype=np.intp,
            )
            self._flat = np.arange(n) * model.l + self._support
            self._phi_bank = StreamBank(
                seqs["regressor"], lambda g, s: g.uniform(-1.0, 1.0, s), block
            )
        elif kind == "dense-uniform":
            gens = [model.regressor_for(i) for i in range(1, n + 1)]
            scales = np.array([g.bound / np.sqrt(g.l) for g in gens])
            if not np.all(scales == scales[0]):
                raise ValueError("dense banked streams need a common bound")
            scale = float(scales[0])
            l = model.l
            self._phi_bank = StreamBank(
                seqs["regressor"],
                lambda g, s: g.uniform(-1.0, 1.0, (s, l)) * scale,
                block,
            )
        else:
            # mixed or custom kinds: no banking, direct per-agent sampling
            self._phi_bank = None
            self._phi_gens = [as_generator(s) for s in seqs["regressor"]]

        noise_draws = [
            (lambda g, s, m=model.noise_for(i): m.sample(g, s)) for i in range(1, n + 1)
        ]
        self._noise_bank = StreamBank(seqs["noise"], noise_draws, block)

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
        rows = np.stack(
            [
                self.model.regressor_for(i).sample(i, k, self._phi_gens[i - 1])
                for i in range(1, self.model.n_agents + 1)
            ]
        )
        return plant.PhiBatch(l=self.model.l, dense=rows)

    def noise_step(self) -> np.ndarray:
        """Noise draw for every agent: shape ``(n,)``."""
        return self._noise_bank.column()
