"""Averaged dynamics and run metrics.

The mean correction field driving the recursion is

    f(theta) = sum_i E[ phi_i (1 - 2 F_i(phi_i' (theta - theta_star))) ]

with F_i the noise CDF of agent i.  Its unique root is the true parameter,
which is what makes the one-bit scheme consistent.  For the sparse
one-coordinate-per-agent regressor kind f decouples per coordinate and is
evaluated by Gauss-Legendre quadrature; other kinds fall back to Monte
Carlo.  Also here: consensus/error metrics and the strided trajectory
recorder used by runs.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .plant import SystemModel, sign_pm
from .streams import as_generator


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True, eq=False)
class RegressionContext:
    """Precomputed structure for evaluating the mean correction field.

    Closed-form quadrature is available when every agent uses the sparse
    one-coordinate regressor kind; anything else routes through Monte Carlo
    with ``mc_fallback_samples`` draws from a generator seeded with
    ``mc_fallback_seed`` (deterministic fallback, with a warning).
    """

    model: SystemModel
    quad_nodes: int = 64
    mc_fallback_samples: int = 200_000
    mc_fallback_seed: int = 0

    def __post_init__(self):
        if self.quad_nodes < 2:
            raise ValueError("quad_nodes must be >= 2")
        model = self.model
        n = model.n_agents
        closed = model.uniform_regressor_kind() == "sparse-uniform"
        object.__setattr__(self, "closed_form", closed)
        if closed:
            supports = np.array(
                [model.regressor_for(i).support_coordinate(i) - 1 for i in range(1, n + 1)],
                dtype=np.intp,
            )
            groups: dict[int, tuple] = {}
            for idx in range(n):
                noise = model.noise_for(idx + 1)
                groups.setdefault(id(noise), (noise, []))[1].append(idx)
            noise_groups = tuple(
                (noise, np.array(idxs, dtype=np.intp)) for noise, idxs in groups.values()
            )
        else:
            supports = None
            noise_groups = ()
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "_noise_groups", noise_groups)

    @property
    def l(self) -> int:
        return self.model.l


def regression_function(ctx: RegressionContext, theta: np.ndarray) -> np.ndarray:
    """Mean correction field f at ``theta`` (an ``(l,)`` vector).

    Vanishes exactly at the true parameter; component m is strictly
    decreasing in ``theta_m`` around the root, which is what the solver and
    the descent diagnostics rely on.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (ctx.l,):
        raise ValueError(f"theta must have shape ({ctx.l},)")
    if not ctx.closed_form:
        warnings.warn(
            "no closed form for these regressor kinds; using Monte Carlo fallback",
            stacklevel=2,
        )
        est = regression_function_mc(
            ctx, theta, ctx.mc_fallback_samples, np.random.default_rng(ctx.mc_fallback_seed)
        )
        return est.value
    x, wq = _gauss_legendre(ctx.quad_nodes)
    delta = theta[ctx.supports] - ctx.model.theta_star[ctx.supports]
    out = np.zeros(ctx.l)
    half_x = 0.5 * x
    for noise, idx in ctx._noise_groups:
        args = np.outer(delta[idx], x)                      # (group, nodes)
        vals = (1.0 - 2.0 * noise.cdf(args)) * half_x
        np.add.at(out, ctx.supports[idx], vals @ wq)
    return out


def regression_jacobian(ctx: RegressionContext, theta: np.ndarray) -> np.ndarray:
    """Negated derivative -df/dtheta at ``theta`` (sparse kind only).

    Diagonal with entries ``sum_i int eta^2 f_i(eta delta_m) d eta`` over
    the agents exciting coordinate m; positive definite wherever every
    coordinate is excited and the densities are positive.
    """
    if not ctx.closed_form:
        raise ValueError("general-theta Jacobian needs the sparse regressor kind")
    theta = np.asarray(theta, dtype=np.float64)
    x, wq = _gauss_legendre(ctx.quad_nodes)
    delta = theta[ctx.supports] - ctx.model.theta_star[ctx.supports]
    diag = np.zeros(ctx.l)
    x_sq = x * x
    for noise, idx in ctx._noise_groups:
        args = np.outer(delta[idx], x)
        np.add.at(diag, ctx.supports[idx], (noise.pdf(args) * x_sq) @ wq)
    return np.diag(diag)


def jacobian_at_root(ctx: RegressionContext) -> np.ndarray:
    """Curvature ``sum_i 2 f_i(0) E[phi_i phi_i']`` of -f at the root.

    Closed form for the sparse kind (diagonal, second moment 1/3 on the
    active coordinate) and the dense-uniform kind (``bound^2/(3l)`` times
    the identity per agent); custom regressors estimate the second-moment
    matrix by Monte Carlo, with a warning.
    """
    model = ctx.model
    l = ctx.l
    out = np.zeros((l, l))
    kind = model.uniform_regressor_kind()
    if kind == "sparse-uniform":
        for noise, idx in ctx._noise_groups:
            dens = 2.0 * float(noise.pdf(0.0)) / 3.0
            np.add.at(out, (ctx.supports[idx], ctx.supports[idx]), dens)
        return out
    rng = np.random.default_rng(ctx.mc_fallback_seed)
    per_agent = max(1_000, ctx.mc_fallback_samples // model.n_agents)
    warned = False
    for i in range(1, model.n_agents + 1):
        gen = model.regressor_for(i)
        dens = 2.0 * float(model.noise_for(i).pdf(0.0))
        if gen.kind == "dense-uniform":
            out += dens * (gen.bound**2 / (3.0 * l)) * np.eye(l)
        else:
            if not warned:
                warnings.warn(
                    "custom regressors: estimating second moments by Monte Carlo",
                    stacklevel=2,
                )
                warned = True
            acc = np.zeros((l, l))
            for s in range(per_agent):
                phi = gen.sample(i, s + 1, rng)
                acc += np.outer(phi, phi)
            out += dens * acc / per_agent
    return out


# ---------------------------------------------------------------------------
# Monte Carlo estimators

@dataclass(frozen=True)
class MCEstimate:
    """Sample mean plus standard error of the mean."""

    value: np.ndarray
    stderr: np.ndarray
    samples: int


_CHUNK = 1 << 16


def regression_function_mc(
    ctx: RegressionContext, theta: np.ndarray, samples: int, rng
) -> MCEstimate:
    """Monte Carlo estimate of f at ``theta``.

    Independent of the quadrature route: draws raw regressor/noise samples
    and averages ``phi_i * sign(y_i - phi_i' theta)``.  The generator is
    consumed agent by agent within each chunk (deterministic given ``rng``,
    unrelated to run streams).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = as_generator(rng)
    model = ctx.model
    l = ctx.l
    tstar = model.theta_star
    total = np.zeros(l)
    total_sq = np.zeros(l)
    done = 0
    while done < samples:
        chunk = min(_CHUNK, samples - done)
        x_rows = np.zeros((chunk, l))
        for i in range(1, model.n_agents + 1):
            gen = model.regressor_for(i)
            noise = model.noise_for(i)
            d = noise.sample(rng, chunk)
            if gen.kind == "sparse-uniform":
                m = gen.support_coordinate(i) - 1
                eta = rng.uniform(-1.0, 1.0, chunk)
                s = sign_pm(eta * tstar[m] + d - eta * theta[m])
                x_rows[:, m] += eta * s
            elif gen.kind == "dense-uniform":
                rows = rng.uniform(-1.0, 1.0, (chunk, l)) * (gen.bound / np.sqrt(l))
                s = sign_pm(rows @ (tstar - theta) + d)
                x_rows += rows * s[:, None]
            else:
                for c in range(chunk):
                    phi = gen.sample(i, done + c + 1, rng)
                    s = sign_pm(phi @ (tstar - theta) + d[c])
                    x_rows[c] += phi * s
        total += x_rows.sum(axis=0)
        total_sq += (x_rows * x_rows).sum(axis=0)
        done += chunk
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0)
    return MCEstimate(value=mean, stderr=np.sqrt(var / samples), samples=samples)


# ---------------------------------------------------------------------------
# run metrics

def mean_estimate(s) -> np.ndarray:
    """Network-average estimate theta_bar."""
    return s.theta.mean(axis=0)


def consensus_gap(s) -> float:
    """Root of the summed squared distances to the network average."""
    dev = s.theta - s.theta.mean(axis=0, keepdims=True)
    return float(np.sqrt((dev * dev).sum()))


def estimation_errors(s, theta_star: np.ndarray) -> np.ndarray:
    """Per-agent distances ``||theta_i - theta_star||``."""
    diff = s.theta - np.asarray(theta_star, dtype=np.float64)[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def mean_error(s, theta_star: np.ndarray) -> float:
    """Distance of the network-average estimate from the true parameter."""
    diff = s.theta.mean(axis=0) - np.asarray(theta_star, dtype=np.float64)
    return float(np.sqrt(diff @ diff))


@dataclass(eq=False)
class Metrics:
    """Columnar per-step records captured by :class:`TrajectoryRecorder`."""

    k: np.ndarray
    sigma_max: np.ndarray
    consensus_gap: np.ndarray
    mean_error: np.ndarray
    agent_errors: np.ndarray | None = None   # (rows, n_agents)
    theta_bar: np.ndarray | None = None      # (rows, l)

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.int64)
        n = self.k.size
        for name in ("sigma_max", "consensus_gap", "mean_error"):
            col = np.asarray(getattr(self, name))
            if col.shape != (n,):
                raise ValueError(f"{name} must have {n} rows")
            setattr(self, name, col)
        self.sigma_max = self.sigma_max.astype(np.int64)
        for name in ("agent_errors", "theta_bar"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col, dtype=np.float64)
                if col.ndim != 2 or col.shape[0] != n:
                    raise ValueError(f"{name} must be 2-D with {n} rows")
                setattr(self, name, col)
        if n and np.any(np.diff(self.k) <= 0):
            raise ValueError("step column must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return int(self.k.size)

    def equals(self, other: "Metrics") -> bool:
        """Exact equality of all columns (used by round-trip checks)."""
        if self.n_rows != other.n_rows:
            return False
        for name in ("k", "sigma_max", "consensus_gap", "mean_error", "agent_errors", "theta_bar"):
            a, b = getattr(self, name), getattr(other, name)
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        return True


class TrajectoryRecorder:
    """Run sink keeping strided metric rows (always including first/last).

    Appends a row at the initial snapshot, at every step k divisible by
    ``stride``, and at the final snapshot handed to :meth:`metrics` (for a
    zero-step run that is the initial snapshot, so there is always a row).
    """

    def __init__(
        self,
        theta_star: np.ndarray,
        stride: int = 1,
        record_agent_errors: bool = False,
        record_theta_bar: bool = False,
    ):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.theta_star = np.array(theta_star, dtype=np.float64)
        self.stride = int(stride)
        self.record_agent_errors = record_agent_errors
        self.record_theta_bar = record_theta_bar
        self._rows: list[tuple] = []

    def _append(self, snap) -> None:
        row = [
            snap.k,
            snap.ledger.sigma_max,
            consensus_gap(snap),
            mean_error(snap, self.theta_star),
        ]
        if self.record_agent_errors:
            row.append(estimation_errors(snap, self.theta_star))
        if self.record_theta_bar:
            row.append(mean_estimate(snap))
        self._rows.append(tuple(row))

    def __call__(self, prev, new) -> None:
        if not self._rows:
            self._append(prev)
        if new.k % self.stride == 0:
            self._append(new)

    def metrics(self, final) -> Metrics:
        """Recorded columns, closed by the run's ``final`` snapshot."""
        if not self._rows or final.k > self._rows[-1][0]:
            self._append(final)
        cols = list(zip(*self._rows))
        return Metrics(
            k=np.array(cols[0], dtype=np.int64),
            sigma_max=np.array(cols[1], dtype=np.int64),
            consensus_gap=np.array(cols[2]),
            mean_error=np.array(cols[3]),
            agent_errors=np.stack(cols[4]) if self.record_agent_errors else None,
            theta_bar=np.stack(cols[-1]) if self.record_theta_bar else None,
        )
