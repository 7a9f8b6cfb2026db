"""Linear plant with binary-valued sensors.

Each agent i observes the scalar output ``y = phi_i' theta_star + d_i``
only through a one-bit comparison against a threshold of its own choosing.
This module holds the true system (parameter, one regressor generator and
one noise model shared by every agent) and the sensor arithmetic; each
built-in generator writes its sampling law once, in its ``draw`` method.
Nothing here knows about the network or the identification recursion.

Everything here is numpy: the Gaussian CDF is a port of Cephes ``ndtr``
(the routine behind ``scipy.special.ndtr``), so neither the simulation nor
the analysis of a Gaussian model loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# normal CDF
#
# Cephes ``ndtr`` in numpy: Phi(t) = erfc(|t|/sqrt 2)/2 for t <= 0 and
# 1 - Phi(-t) above, with erf and erfc from the rational approximations of
# Cody (Math. Comp. 1969).  Coefficients run from the highest power down; a
# leading 1.0 stands for Cephes' monic ``p1evl``.

_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _padded(*polys):
    # leading zeros leave every Horner value unchanged
    return [(0.0,) * (9 - len(c)) + c for c in polys]


# (power, numerator/denominator, branch) with branches erf(z) = z T(z^2)/U(z^2)
# for z < 1, erfc(z) = exp(-z^2) P(z)/Q(z) for 1 <= z < 8 and exp(-z^2) R(z)/S(z)
# beyond, so one Horner pass evaluates every element with its own branch
_NDTR_COEFS = np.array(
    [_padded(_ERF_T, _ERF_U), _padded(_ERFC_P, _ERFC_Q), _padded(_ERFC_R, _ERFC_S)]
).transpose(2, 1, 0).copy()
_NDTR_EDGES = np.array([1.0, 8.0])
_MAXLOG = 7.09782712893383996843e2      # log(DBL_MAX): Cephes takes erfc(z) = 0 once z^2 passes it
_SQRT1_2 = math.sqrt(0.5)
_CDF_CLIP = 40.0                        # Phi(-40) is 0 in double precision


def _normal_cdf(x: np.ndarray, sigma: float) -> np.ndarray:
    """Phi(x / sigma) elementwise for a float array; NaN passes through.

    Symmetric by construction: ``Phi(t) + Phi(-t) == 1`` and
    ``Phi(0) == 0.5`` exactly.  ``|x|`` is clipped before the division, so
    no finite input overflows.
    """
    t = np.minimum(np.abs(x), _CDF_CLIP * sigma) / sigma
    z = t.ravel() * _SQRT1_2
    zz = z * z
    tail = z >= 1.0
    coefs = _NDTR_COEFS.take(np.searchsorted(_NDTR_EDGES, z, side="right"), axis=2)
    v = np.where(tail, z, zz)
    v = np.concatenate((v, v)).reshape(2, -1)
    acc = coefs[0].copy()               # row 0 the numerators, row 1 the denominators
    for c in coefs[1:]:
        acc *= v
        acc += c
    scale = z
    if tail.any():
        # exp(-z^2) as exp(-hi^2) exp(-(2 hi lo + lo^2)) with hi a multiple
        # of 1/128: hi^2 is exact, so z^2's rounding stays out of the tail
        hi = np.floor(z * 128.0 + 0.5) / 128.0
        lo = z - hi
        scale = np.where(tail, np.exp(-(hi * hi)) * np.exp(-(2.0 * hi * lo + lo * lo)), z)
    y = scale * acc[0] / acc[1]         # erf(z) below 1, erfc(z) from 1 on
    # the lower tail Phi(-t) = erfc(z)/2.  Below z = 1 Cephes takes
    # 0.5 - 0.5 erf(z), or 0.5 (1 - erf(z)) from z = sqrt(1/2) on; there
    # erf(z) >= 1/2, so both subtractions are exact and the two agree.
    p = np.where(tail, np.where(zz > _MAXLOG, 0.0, 0.5 * y), 0.5 - 0.5 * y)
    p = p.reshape(t.shape)
    return np.where(x > 0, 1.0 - p, p)


# ---------------------------------------------------------------------------
# noise models

class NoiseModel:
    """Zero-median sensor noise with a known smooth distribution.

    Concrete models expose the CDF and density (both vectorised), direct
    sampling, and a ``kind`` tag used by config files.  All built-in models
    are symmetric about zero, so ``cdf(0) == 0.5`` holds exactly wherever
    ``pdf(0) > 0``; their parameters must be positive and finite.
    """

    kind = "abstract"

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    sigma2: float = 1.0
    kind = "gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")

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

    def sample(self, rng, size=None):
        return rng.normal(0.0, self.sigma, size)

    def params(self):
        return {"sigma2": self.sigma2}


@dataclass(frozen=True)
class LaplaceNoise(NoiseModel):
    scale: float = 1.0
    kind = "laplace"

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        # one tail for both sides (-|x| == x below 0): no branch overflows
        tail = 0.5 * np.exp(-np.abs(x) / self.scale)
        return np.where(x < 0, tail, 1.0 - tail)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def sample(self, rng, size=None):
        return rng.laplace(0.0, self.scale, size)

    def params(self):
        return {"scale": self.scale}


@dataclass(frozen=True)
class UniformNoise(NoiseModel):
    half_width: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width!r}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x + self.half_width) / (2.0 * self.half_width), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(np.abs(x) <= self.half_width, 1.0 / (2.0 * self.half_width), 0.0)

    def sample(self, rng, size=None):
        return rng.uniform(-self.half_width, self.half_width, size)

    def params(self):
        return {"half_width": self.half_width}


_NOISE_KINDS = {"gaussian": GaussianNoise, "laplace": LaplaceNoise, "uniform": UniformNoise}


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

    ``draw(rng, size=None)`` is the one way to sample it, from one agent's
    generator: the sparse kind returns amplitudes on the agent's active
    coordinate (see :attr:`SystemModel.supports`), the dense kind full
    rows with ``||phi|| <= bound``.
    """

    kind = "abstract"
    l: int
    bound: float

    def draw(self, rng: np.random.Generator, size=None) -> np.ndarray:
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
    kind = "sparse-uniform"

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.support is not None:
            sup = tuple(int(m) for m in self.support)
            if any(not 1 <= m <= self.l for m in sup):
                raise ValueError("support coordinates must lie in 1..l")
            object.__setattr__(self, "support", sup)

    @property
    def bound(self) -> float:
        return 1.0

    def draw(self, rng, size=None):
        """Amplitudes on the active coordinate, iid uniform on [-1, 1]."""
        return rng.uniform(-1.0, 1.0, size)


@dataclass(frozen=True)
class DenseUniformRegressors(RegressorGenerator):
    """All coordinates iid uniform, scaled so that ``||phi|| <= bound``."""

    l: int
    bound: float = 1.0
    kind = "dense-uniform"

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ValueError(f"bound must be finite and positive, got {self.bound!r}")

    def draw(self, rng, size=None):
        """One row, or ``(size, l)`` rows, of scaled iid uniform entries."""
        shape = self.l if size is None else (size, self.l)
        return rng.uniform(-1.0, 1.0, shape) * (self.bound / math.sqrt(self.l))


# ---------------------------------------------------------------------------
# per-step batches

@dataclass
class PhiBatch:
    """Regressor draws for every agent at one step.

    Sparse layout stores just the amplitude and active coordinate per agent;
    dense layout stores full rows.  All engine arithmetic that touches the
    regressors goes through these methods, so the sparse fast path and the
    dense path cannot drift apart.

    The sparse layout addresses agent i's active slot of an ``(n, l)``
    array by one flat index, ``flat[i] = i * l + support[i]``; it is built
    from ``support`` unless the caller passes it (streams compute it once
    per run).
    """

    l: int
    eta: np.ndarray | None = None       # (n,) sparse amplitudes
    support: np.ndarray | None = None   # (n,) 0-based active coordinate
    dense: np.ndarray | None = None     # (n, l) full rows
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        sparse = self.eta is not None and self.support is not None
        if sparse == (self.dense is not None):
            raise ValueError("need either (eta, support) or dense, not both")
        if sparse and self.flat is None:
            self.flat = np.arange(len(self.eta)) * self.l + self.support

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
        assignment is safe.  The flat index needs a C-contiguous target
        (``reshape`` of any other layout copies, and the update would be
        lost); other layouts are indexed by (row, coordinate).
        """
        if self.is_sparse:
            delta = (self.eta * signs) * a_k
            if target.flags.c_contiguous:
                target.reshape(-1)[self.flat] += delta
            else:
                target[np.arange(self.n), self.support] += delta
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
        theta = np.array(self.theta_star, dtype=np.float64)
        if theta.ndim != 1 or theta.size == 0 or not np.isfinite(theta).all():
            raise ValueError("theta_star must be a nonempty finite vector")
        theta.flags.writeable = False
        object.__setattr__(self, "theta_star", theta)
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
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
