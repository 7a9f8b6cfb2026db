"""Averaged dynamics and run metrics.

The mean correction field driving the recursion is

    f(theta) = sum_i E[ phi_i (1 - 2 F(phi_i' (theta - theta_star))) ]

with F the CDF of the noise model all agents share.  Its unique root is
the true parameter, which is what makes the one-bit scheme consistent.
For the sparse one-coordinate-per-agent regressor kind f decouples per
coordinate and is evaluated by Gauss-Legendre quadrature, with the noise
law evaluated once per coordinate rather than once per agent; the dense
kind falls back to Monte Carlo.  Also here: consensus/error metrics and the strided
trajectory recorder used by runs.

Each run metric (theta_bar, consensus gap, per-agent errors, mean error) is
one batch kernel over a stack of estimate arrays of shape (rows, n, l); the
per-snapshot functions call it on a stack of one, so ``summary.json`` and
``trajectory.csv`` share one copy of each formula.  The recorder reduces the
stride rows of each of the run engine's windows in place, with one call per
kernel, so it holds no estimates beyond its columns.
``runner.write_trajectory_csv`` then formats these columns in one pass.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import _finite, _integral, check_array, check_count, check_seed
from .plant import SystemModel, sign_pm


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True, eq=False)
class RegressionContext:
    """Precomputed structure for evaluating the mean correction field.

    Closed-form quadrature is available when the model's shared regressor
    generator is the sparse one-coordinate kind (``model.supports`` is
    set).  The dense kind routes through Monte Carlo with
    ``mc_fallback_samples`` draws from a generator seeded with
    ``mc_fallback_seed`` (deterministic fallback, with a warning).
    """

    model: SystemModel
    quad_nodes: int = 64
    mc_fallback_samples: int = 200_000
    mc_fallback_seed: int = 0

    def __post_init__(self):
        check_count("quad_nodes", self.quad_nodes, 2)
        check_count("mc_fallback_samples", self.mc_fallback_samples, 1)
        check_count("mc_fallback_seed", self.mc_fallback_seed, 0)
        object.__setattr__(self, "closed_form", self.model.supports is not None)

    @property
    def l(self) -> int:
        return self.model.l


def _sum_over_agents(ctx: RegressionContext, per: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Quadrature of each agent's row of ``per`` (l, nodes), summed into its
    coordinate.

    The integrand of an agent depends only on its coordinate, so ``per`` is
    evaluated once per coordinate; gathering it to one row per agent keeps
    the (agents, nodes) product and the summation order of a per-agent
    evaluation, so the result is bit-identical to one.
    """
    sup = ctx.model.supports
    out = np.zeros(ctx.l)
    np.add.at(out, sup, per.take(sup, axis=0) @ wq)
    return out


def regression_function(ctx: RegressionContext, theta: np.ndarray) -> np.ndarray:
    """Mean correction field f at ``theta`` (an ``(l,)`` vector).

    Vanishes exactly at the true parameter; component m is strictly
    decreasing in ``theta_m`` around the root, which is what the solver and
    the descent diagnostics rely on.
    """
    theta = check_array("theta", theta, (ctx.l,))
    if not ctx.closed_form:
        warnings.warn(
            "no closed form for this regressor kind; using Monte Carlo fallback",
            stacklevel=2,
        )
        samples, seed = ctx.mc_fallback_samples, ctx.mc_fallback_seed
        return regression_function_mc(ctx, theta, samples, seed).value
    x, wq = _gauss_legendre(ctx.quad_nodes)
    args = (theta - ctx.model.theta_star)[:, None] * x      # (l, nodes)
    per = (1.0 - 2.0 * ctx.model.noise.cdf(args)) * (0.5 * x)
    return _sum_over_agents(ctx, per, wq)


def regression_jacobian(ctx: RegressionContext, theta: np.ndarray) -> np.ndarray:
    """Negated derivative -df/dtheta at ``theta`` (sparse kind only).

    Diagonal with entries ``sum_i int eta^2 f_i(eta delta_m) d eta`` over
    the agents exciting coordinate m; positive definite wherever every
    coordinate is excited and the densities are positive.
    """
    if not ctx.closed_form:
        raise ValueError("general-theta Jacobian needs the sparse regressor kind")
    theta = check_array("theta", theta, (ctx.l,))
    x, wq = _gauss_legendre(ctx.quad_nodes)
    args = (theta - ctx.model.theta_star)[:, None] * x      # (l, nodes)
    per = ctx.model.noise.pdf(args) * (x * x)
    return np.diag(_sum_over_agents(ctx, per, wq))


def jacobian_at_root(ctx: RegressionContext) -> np.ndarray:
    """Curvature ``sum_i 2 f(0) E[phi_i phi_i']`` of -f at the root.

    ``f`` is the density of the shared noise model.  Closed form for both
    regressor kinds: diagonal for the sparse kind (second moment 1/3 on
    each agent's active coordinate), ``n bound^2/(3l)`` times the identity
    for the dense kind.
    """
    model = ctx.model
    l = ctx.l
    dens = 2.0 * float(model.noise.pdf(0.0))
    sup = model.supports
    if sup is not None:
        out = np.zeros((l, l))
        np.add.at(out, (sup, sup), dens / 3.0)
        return out
    return (model.n_agents * dens * model.regressor.bound**2 / (3.0 * l)) * np.eye(l)


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
    consumed agent by agent within each chunk of at most 65 536 samples,
    noise before regressor (deterministic given ``rng``, unrelated to run
    streams).  ``rng`` is a Generator or a seed under ``check_seed``;
    ``samples`` is an integer of at least 1; a NaN or infinite draw raises
    ValueError naming its role (``noise`` or ``regressor``).

    Each sample's vector ``sum_i phi_i s_i`` is summed over the chunk, and
    so are its squares, for the mean and the standard error.  The sparse
    kind computes each agent's sensor argument in place in one reused
    buffer, takes the bit as ``copysign(1, x + 0.0)`` (``sign_pm``'s +1 at
    a zero; an argument that overflowed to NaN is a ValueError) and adds
    the agent's terms into one contiguous row per coordinate, agent by
    agent.  A row is then summed front to back, as numpy sums a column of a
    ``(samples, l)`` array (one contiguous column when l = 1, pairwise), so
    the estimate equals that of the per-sample form bit for bit.
    """
    theta = check_array("theta", theta, (ctx.l,))
    check_count("samples", samples, 1)
    rng = np.random.default_rng(rng if isinstance(rng, np.random.Generator) else check_seed(rng))
    sums = _mc_sparse_sums if ctx.closed_form else _mc_dense_sums
    total, total_sq = sums(ctx.model, theta, samples, rng)
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0)
    return MCEstimate(value=mean, stderr=np.sqrt(var / samples), samples=samples)


def _mc_sparse_sums(model: SystemModel, theta, samples: int, rng):
    gen, noise, tstar = model.regressor, model.noise, model.theta_star
    l = model.l
    acc = np.empty((l, min(_CHUNK, samples)))    # row m: coordinate m of each sample
    x = np.empty(acc.shape[1])
    total, total_sq = np.zeros(l), np.zeros(l)
    # numpy sums the columns of a (samples, l) array front to back, and its
    # one contiguous column (l = 1) pairwise; cumsum here sums in place
    row_sum = np.sum if l == 1 else (lambda r: np.cumsum(r, out=r)[-1])
    for done in range(0, samples, _CHUNK):
        chunk = min(_CHUNK, samples - done)
        rows, xc = acc[:, :chunk], x[:chunk]
        rows.fill(0.0)
        for i, m in enumerate(model.supports):
            d = _finite(noise.sample(rng, chunk), "noise", i)
            eta = _finite(gen.draw(rng, chunk), "regressor", i)
            np.multiply(eta, tstar[m], out=xc)         # eta t*_m + d - eta theta_m
            xc += d
            xc -= eta * theta[m]
            xc += 0.0
            if np.isnan(xc).any():
                raise ValueError(f"theta: the sensor argument of agent {i} overflowed to NaN")
            np.copysign(1.0, xc, out=xc)
            xc *= eta
            rows[m] += xc
        for m, r in enumerate(rows):
            total_sq[m] += row_sum(np.multiply(r, r, out=xc))
            total[m] += row_sum(r)
    return total, total_sq


def _mc_dense_sums(model: SystemModel, theta, samples: int, rng):
    gen, noise, tstar = model.regressor, model.noise, model.theta_star
    l = model.l
    total, total_sq = np.zeros(l), np.zeros(l)
    for done in range(0, samples, _CHUNK):
        chunk = min(_CHUNK, samples - done)
        x_rows = np.zeros((chunk, l))
        for i in range(model.n_agents):
            d = _finite(noise.sample(rng, chunk), "noise", i)
            rows = _finite(gen.draw(rng, chunk), "regressor", i)
            s = sign_pm(rows @ (tstar - theta) + d)
            x_rows += rows * s[:, None]
        total += x_rows.sum(axis=0)
        total_sq += (x_rows * x_rows).sum(axis=0)
    return total, total_sq


# ---------------------------------------------------------------------------
# run metrics
#
# Each formula is written once, over a stack ``T`` of R estimate arrays of
# shape (R, n, l), and the per-snapshot functions call it on one row.  Every
# reduction runs along the same axis, in the same order, in both uses, so a
# row of a batch is bit-equal to the snapshot value.  The mean error takes
# the stacked ``matmul`` (one dot per row, like ``d @ d``): a batched
# ``einsum("ri,ri->r")`` sums in another order and rounds differently.

def _theta_bar_rows(T: np.ndarray) -> np.ndarray:
    return T.mean(axis=1)


def _consensus_gap_rows(T: np.ndarray, bar: np.ndarray) -> np.ndarray:
    dev = T - bar[:, None, :]
    return np.sqrt((dev * dev).reshape(len(T), -1).sum(axis=1))


def _agent_error_rows(T: np.ndarray, theta_star: np.ndarray) -> np.ndarray:
    diff = T - theta_star
    return np.sqrt(np.einsum("rij,rij->ri", diff, diff))


def _mean_error_rows(bar: np.ndarray, theta_star: np.ndarray) -> np.ndarray:
    d = bar - theta_star
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).reshape(len(d)))


def mean_estimate(s) -> np.ndarray:
    """Network-average estimate theta_bar."""
    return _theta_bar_rows(s.theta[None])[0]


def consensus_gap(s) -> float:
    """Root of the summed squared distances to the network average."""
    T = s.theta[None]
    return float(_consensus_gap_rows(T, _theta_bar_rows(T))[0])


def estimation_errors(s, theta_star: np.ndarray) -> np.ndarray:
    """Per-agent distances ``||theta_i - theta_star||``; ``theta_star`` holds l finite reals."""
    theta_star = check_array("theta_star", theta_star, s.theta.shape[1:])
    return _agent_error_rows(s.theta[None], theta_star)[0]


def mean_error(s, theta_star: np.ndarray) -> float:
    """Distance of the network-average estimate from the true parameter."""
    theta_star = check_array("theta_star", theta_star, s.theta.shape[1:])
    return float(_mean_error_rows(_theta_bar_rows(s.theta[None]), theta_star)[0])


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
        n = np.size(self.k)
        for name in ("k", "sigma_max", "consensus_gap", "mean_error"):
            col = np.asarray(getattr(self, name))
            if col.shape != (n,):
                raise ValueError(f"{name} must have {n} rows")
            if name in ("k", "sigma_max") and col.dtype.kind != "i":
                bad = np.flatnonzero(~_integral(col.astype(np.float64)))
                if bad.size:
                    raise ValueError(f"{name}: {col[bad[0]]} is not an integer an int64 holds")
                col = col.astype(np.int64)
            setattr(self, name, col)
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

    As a window observer of ``run`` it reduces a window's stride rows in
    place, with one call of each metric kernel on a strided view; called
    per step as ``recorder(prev, new)`` it reduces each recorded row as it
    comes.  :meth:`metrics` joins the column chunks.
    """

    def __init__(
        self,
        theta_star: np.ndarray,
        stride: int = 1,
        record_agent_errors: bool = False,
        record_theta_bar: bool = False,
    ):
        self.stride = check_count("stride", stride, 1)
        self.theta_star = check_array("theta_star", theta_star, (None,))
        self.record_agent_errors = record_agent_errors
        self.record_theta_bar = record_theta_bar
        self._ks: list[int] = []
        self._sigma_max: list[int] = []
        self._chunks: dict[str, list[np.ndarray]] = {
            "consensus_gap": [], "mean_error": [], "agent_errors": [], "theta_bar": [],
        }

    def _add(self, T: np.ndarray, ks, sigma_max: int) -> None:
        """Reduce the estimates ``T`` (rows, n, l) of steps ``ks`` into the columns."""
        if not self._ks:        # the first rows give l
            check_array("theta_star", self.theta_star, T.shape[2:])
        bar = _theta_bar_rows(T)
        chunks = self._chunks
        chunks["consensus_gap"].append(_consensus_gap_rows(T, bar))
        chunks["mean_error"].append(_mean_error_rows(bar, self.theta_star))
        if self.record_agent_errors:
            chunks["agent_errors"].append(_agent_error_rows(T, self.theta_star))
        if self.record_theta_bar:
            chunks["theta_bar"].append(bar)
        self._ks.extend(ks)
        self._sigma_max.extend([sigma_max] * len(T))

    def window(self, rows, k, sigma, ledger, radii) -> None:
        """Window observer: rows ``k .. k + len(rows) - 1`` of a run."""
        if not self._ks:        # the run's opening window holds its initial row
            self._add(rows[:1], [k], ledger.sigma_max)
        first = -k % self.stride or self.stride
        if first < len(rows):
            self._add(
                rows[first :: self.stride],
                range(k + first, k + len(rows), self.stride),
                ledger.sigma_max,
            )

    def __call__(self, prev, new) -> None:
        if not self._ks:
            self._add(prev.theta[None], [prev.k], prev.ledger.sigma_max)
        if new.k % self.stride == 0:
            self._add(new.theta[None], [new.k], new.ledger.sigma_max)

    def metrics(self, final) -> Metrics:
        """Recorded columns, closed by the run's ``final`` snapshot."""
        if not self._ks or final.k > self._ks[-1]:
            self._add(final.theta[None], [final.k], final.ledger.sigma_max)
        cols = {name: np.concatenate(c) if c else None for name, c in self._chunks.items()}
        return Metrics(
            k=np.array(self._ks, dtype=np.int64),
            sigma_max=np.array(self._sigma_max, dtype=np.int64),
            **cols,
        )
