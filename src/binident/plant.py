"""Linear plant with binary-valued sensors.

Each agent i observes the scalar output ``y = phi_i' theta_star + d_i``
only through a one-bit comparison against a threshold of its own choosing.
This module holds the true system (parameter, one regressor generator and
one noise model shared by every agent) and the sensor arithmetic; each
built-in generator writes its sampling law once, in its ``draw`` method.
Nothing here knows about the network or the identification recursion.

Everything here is numpy and the standard library: the Gaussian CDF takes
its tail from the C library's ``erfc`` (``math.erfc``), so neither the
simulation nor the analysis of a Gaussian model loads scipy.  Its last bit
follows the platform's libm; with glibc it was measured within 2^-52
absolute and 1e-13 relative of ``scipy.special.ndtr`` over [-40, 40] sigma,
the absolute bound met with equality at a few points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_array, check_count, check_positive


# ---------------------------------------------------------------------------
# normal CDF

_SQRT1_2 = math.sqrt(0.5)
_CDF_CLIP = 40.0                        # Phi(-40) is 0 in double precision


def _normal_cdf(x: np.ndarray, sigma: float) -> np.ndarray:
    """Phi(x / sigma) elementwise for a float array; NaN passes through.

    The lower tail ``Phi(-t) = erfc(t / sqrt 2) / 2`` comes from the C
    library's ``erfc``, the upper tail is one minus it, so
    ``Phi(t) + Phi(-t) == 1`` and ``Phi(0) == 0.5`` exactly.  ``|x|`` is
    clipped before the division, so no finite input overflows.
    """
    t = np.minimum(np.abs(x), _CDF_CLIP * sigma) / sigma
    z = (t * _SQRT1_2).ravel().tolist()
    p = 0.5 * np.fromiter(map(math.erfc, z), np.float64, len(z)).reshape(t.shape)
    return np.where(x > 0, 1.0 - p, p)


# ---------------------------------------------------------------------------
# uniform draws

def _uniform(rng: np.random.Generator, low: float, high: float, size):
    """``rng.uniform(low, high, size)`` bit for bit, filled in place.

    numpy draws ``low + (high - low) * u`` from ``u = rng.random()``; the
    same two roundings on the array itself skip the per-draw call.
    """
    u = rng.random(size)
    u *= high - low
    u += low
    return u


# ---------------------------------------------------------------------------
# noise models

class NoiseModel:
    """Zero-median sensor noise with a known smooth distribution.

    Concrete models expose the CDF and density (both vectorised), block
    sampling (``sample(rng, size)`` returns ``size`` draws), and a ``kind``
    tag used by config files.  A built-in model's parameters are its
    dataclass fields, the names config files use.  All built-in models are
    symmetric about zero, so ``cdf(0) == 0.5`` holds exactly wherever
    ``pdf(0) > 0``; each parameter is a finite real above zero.
    """

    kind = "abstract"

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size):
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    sigma2: float = 1.0
    kind = "gaussian"

    def __post_init__(self):
        check_positive("sigma2", self.sigma2)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def cdf(self, x):
        return _normal_cdf(np.asarray(x, dtype=np.float64), self.sigma)[()]

    def pdf(self, x):
        # clipped like the CDF: exp(-0.5 * 40^2) is already 0.0, and no
        # finite input overflows the square
        x = np.abs(np.asarray(x, dtype=np.float64))
        t = np.minimum(x, _CDF_CLIP * self.sigma) / self.sigma
        return np.exp(-0.5 * t**2) / (self.sigma * math.sqrt(2.0 * math.pi))

    def sample(self, rng, size):
        # numpy's normal is 0.0 + sigma * z per draw; the same sums, in place
        z = rng.standard_normal(size)
        z *= self.sigma
        z += 0.0
        return z


@dataclass(frozen=True)
class LaplaceNoise(NoiseModel):
    scale: float = 1.0
    kind = "laplace"

    def __post_init__(self):
        check_positive("scale", self.scale)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        # one tail for both sides (-|x| == x below 0): no branch overflows
        tail = 0.5 * np.exp(-np.abs(x) / self.scale)
        return np.where(x < 0, tail, 1.0 - tail)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def sample(self, rng, size):
        return rng.laplace(0.0, self.scale, size)


@dataclass(frozen=True)
class UniformNoise(NoiseModel):
    half_width: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        check_positive("half_width", self.half_width)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x + self.half_width) / (2.0 * self.half_width), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(np.abs(x) <= self.half_width, 1.0 / (2.0 * self.half_width), 0.0)

    def sample(self, rng, size):
        return _uniform(rng, -self.half_width, self.half_width, size)


_NOISE_KINDS = {cls.kind: cls for cls in (GaussianNoise, LaplaceNoise, UniformNoise)}


def make_noise(kind: str, **params) -> NoiseModel:
    """Build a noise model from its config tag and parameters."""
    try:
        cls = _NOISE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown noise kind {kind!r}; one of {sorted(_NOISE_KINDS)}") from None
    return cls(**params)


# ---------------------------------------------------------------------------
# regressor generators

class RegressorGenerator:
    """Bounded stationary regressor law shared by every agent.

    ``draw(rng, size)`` is the one way to sample it, ``size`` draws from one
    agent's generator: the sparse kind returns ``(size,)`` amplitudes on the
    agent's active coordinate (see :attr:`SystemModel.supports`), the dense
    kind ``(size, l)`` rows with ``||phi|| <= bound``.
    """

    l: int
    bound: float

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class SparseUniformRegressors(RegressorGenerator):
    """One active coordinate per agent with uniform amplitude on [-1, 1].

    Agent i excites coordinate ``((i - 1) mod l) + 1`` unless an explicit
    per-agent ``support`` tuple (1-based, one entry per agent) overrides
    the rule.  The norm bound is 1.
    """

    l: int
    support: tuple[int, ...] | None = None

    def __post_init__(self):
        check_count("l", self.l, 1)
        if self.support is not None:
            sup = tuple(check_count("support", m, 1) for m in self.support)
            if any(m > self.l for m in sup):
                raise ValueError("support coordinates must lie in 1..l")
            object.__setattr__(self, "support", sup)

    @property
    def bound(self) -> float:
        return 1.0

    def draw(self, rng, size):
        """Amplitudes on the active coordinate, iid uniform on [-1, 1]."""
        return _uniform(rng, -1.0, 1.0, size)


@dataclass(frozen=True)
class DenseUniformRegressors(RegressorGenerator):
    """All coordinates iid uniform, scaled so that ``||phi|| <= bound``."""

    l: int
    bound: float = 1.0

    def __post_init__(self):
        check_count("l", self.l, 1)
        check_positive("bound", self.bound)

    def draw(self, rng, size):
        """``(size, l)`` rows of scaled iid uniform entries."""
        u = _uniform(rng, -1.0, 1.0, (size, self.l))
        u *= self.bound / math.sqrt(self.l)
        return u


# ---------------------------------------------------------------------------
# per-step batches

@dataclass
class PhiBatch:
    """Regressor draws for every agent at one step.

    Sparse layout stores just the amplitude and active coordinate per agent;
    dense layout stores full rows.  ``dsaawet_identification_step``
    (the general path of ``run``) senses through these methods; ``rows``
    and ``add_innovation`` serve the tests' references.  The quiet step of
    ``run`` and ``centralized_baseline`` build no batch: they compute in
    place from the raw draw columns (``tests/reference.py`` keeps the
    baseline's batch form), and ``tests/test_identifier.py`` pins the quiet
    step bit for bit to the step function.

    The sparse layout addresses agent i's active slot of an ``(n, l)``
    array by one flat index, ``flat[i] = i * l + support[i]``, always built
    from ``support`` (None for the dense layout).
    """

    l: int
    eta: np.ndarray | None = None       # (n,) sparse amplitudes
    support: np.ndarray | None = None   # (n,) 0-based active coordinate
    dense: np.ndarray | None = None     # (n, l) full rows
    flat: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        sparse = self.eta is not None and self.support is not None
        if sparse == (self.dense is not None):
            raise ValueError("need either (eta, support) or dense, not both")
        self.flat = np.arange(len(self.eta)) * self.l + self.support if sparse else None

    @property
    def is_sparse(self) -> bool:
        return self.dense is None

    @property
    def n(self) -> int:
        return len(self.eta) if self.is_sparse else self.dense.shape[0]

    def thresholds(self, theta: np.ndarray) -> np.ndarray:
        """phi_i' theta_i for every agent; theta has shape (n, l)."""
        if self.is_sparse:
            return self.eta * np.ravel(theta)[self.flat]
        return np.einsum("ij,ij->i", self.dense, theta)

    def thresholds_common(self, theta: np.ndarray) -> np.ndarray:
        """phi_i' theta against one shared ``(l,)`` parameter vector."""
        if self.is_sparse:
            return self.eta * theta[self.support]
        return self.dense @ theta

    def outputs(self, theta_star: np.ndarray, d: np.ndarray) -> np.ndarray:
        """True plant outputs phi_i' theta_star + d_i."""
        if self.is_sparse:
            return self.eta * theta_star[self.support] + d
        return self.dense @ theta_star + d

    def add_innovation(self, target: np.ndarray, a_k: float, signs: np.ndarray) -> None:
        """In-place ``target += a_k * phi_i * signs_i`` row by row.

        Sparse rows touch one distinct slot each, so plain fancy-index
        assignment by (row, coordinate) is safe for any layout of ``target``.
        """
        if self.is_sparse:
            target[np.arange(self.n), self.support] += (self.eta * signs) * a_k
        else:
            target += (self.dense * signs[:, None]) * a_k

    def rows(self) -> np.ndarray:
        """Materialise the full (n, l) matrix (reference/diagnostic use)."""
        if not self.is_sparse:
            return self.dense.copy()
        out = np.zeros((self.n, self.l))
        out.reshape(-1)[self.flat] = self.eta
        return out


# ---------------------------------------------------------------------------
# sensor arithmetic

def sign_pm(x):
    """Sign with the sensor's tie convention: +1 for x >= 0, -1 otherwise.

    Matches ``1 - 2 z`` for the bit ``z = (y < c)`` applied to ``x = y - c``.
    """
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# the system under identification

@dataclass(frozen=True, eq=False)
class SystemModel:
    """True parameter plus the regressor generator and noise model that
    every agent shares.

    Agents differ only in their random streams and, for the sparse kind,
    in the coordinate they excite: ``supports[i - 1]`` is agent i's 0-based
    active coordinate (a read-only ``(n_agents,)`` intp array, from the
    generator's index rule or its pinned ``support``); ``None`` for dense.
    """

    theta_star: np.ndarray
    regressor: RegressorGenerator
    noise: NoiseModel
    n_agents: int
    supports: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        theta = check_array("theta_star", self.theta_star, (None,))
        theta.flags.writeable = False
        object.__setattr__(self, "theta_star", theta)
        check_count("n_agents", self.n_agents, 1)
        for name, cls in (("regressor", RegressorGenerator), ("noise", NoiseModel)):
            val = getattr(self, name)
            if not isinstance(val, cls):
                raise ValueError(f"{name}: expected one {cls.__name__}, got {type(val).__name__}")
        gen = self.regressor
        if gen.l != self.l:
            raise ValueError("regressor dimension does not match theta_star")
        supports = None
        if isinstance(gen, SparseUniformRegressors):
            if gen.support is None:
                supports = np.arange(self.n_agents, dtype=np.intp) % self.l
            elif len(gen.support) != self.n_agents:
                raise ValueError(
                    f"regressor: pinned support has {len(gen.support)} entries "
                    f"for {self.n_agents} agents"
                )
            else:
                supports = np.array(gen.support, dtype=np.intp) - 1
            supports.flags.writeable = False
        object.__setattr__(self, "supports", supports)

    @property
    def l(self) -> int:
        return self.theta_star.shape[0]


def graded_theta_star(l: int) -> np.ndarray:
    """Benchmark parameter vector with entries ``(1 + 0.1 j) sqrt(j)``."""
    j = np.arange(1, l + 1, dtype=np.float64)
    return (1.0 + 0.1 * j) * np.sqrt(j)
