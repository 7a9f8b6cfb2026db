"""Independent reference routes to the true parameter.

None of these use the distributed recursion's consensus machinery: the
centralized baseline fuses every agent's bit into one estimator, the root
solver finds the zero of the averaged correction field by damped Newton,
and the identifiability probe runs a single agent in isolation to show
which coordinates its own excitation can and cannot pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _is_integer, check_count, check_positive
from .analysis import RegressionContext, regression_function, regression_jacobian
from .identifier import run
from .plant import SparseUniformRegressors, SystemModel
from .streams import ModelStreams
from .topology import TopologySchedule, complete_graph, metropolis_weights


def centralized_baseline(model: SystemModel, steps: int, seed, record_every: int = 1) -> np.ndarray:
    """All-bits-in-one-place estimator with the same expanding truncations.

    One fused node sees every agent's binary reading each step and applies
    the pooled innovation ``(1/k) sum_i phi_i (1 - 2 z_i)``, truncating
    against the same expanding radii.  Because nothing is diluted through
    averaging, this is the natural upper reference for any distributed run
    on the same model and seed streams.

    Each step reads the raw draw columns (``ModelStreams.columns``) and
    senses in two preallocated arrays: ``y = phi_i' theta* + d_i`` and
    ``c = phi_i' theta``, the bit as ``copysign(1, y - c)`` (a stream never
    serves -0.0 noise, so ``y == c`` reads +1, as ``1 - 2 (y < c)`` does).
    The bits are pooled per coordinate by ``bincount`` in agent order
    (sparse) or as ``phi' signs`` (dense), the same sums in the same order
    as a ``PhiBatch`` step, so the trajectory is that of one bit for bit.
    A step lets go of its columns before the next is drawn, so a bank
    frees its old block before it draws the new one.

    ``steps`` must be a non-negative integer, ``record_every`` a positive
    integer and ``seed`` a non-negative int or a SeedSequence, from which
    the run's :class:`ModelStreams` are built.  Returns the trajectory as an
    array of estimates: the initial zero row, every ``record_every``-th
    step, and the final step.
    """
    check_count("steps", steps, 0)
    check_count("record_every", record_every, 1)
    streams = ModelStreams(model, _checked_seed(seed))
    l, sup = model.l, model.supports
    tstar = model.theta_star if sup is None else model.theta_star[sup]
    y, c = np.empty(model.n_agents), np.empty(model.n_agents)
    theta = np.zeros(l)
    sigma, r2 = 0, 0.0
    traj = np.zeros((1 + steps // record_every + (steps % record_every > 0), l))
    row = 1
    for k in range(1, steps + 1):
        phi, d = streams.columns()
        if sup is not None:
            np.multiply(phi, tstar, out=y)
            np.multiply(phi, theta[sup], out=c)
        else:
            np.matmul(phi, tstar, out=y)
            np.matmul(phi, theta, out=c)
        y += d
        np.copysign(1.0, np.subtract(y, c, out=y), out=y)
        if sup is not None:
            pooled = np.bincount(sup, weights=np.multiply(phi, y, out=y), minlength=l)
        else:
            pooled = phi.T @ y
        del phi, d
        cand = theta + pooled * (1.0 / k)
        if float(cand @ cand) > r2:
            theta = np.zeros(l)
            sigma += 1
            r2 = float(sigma) ** 2
        else:
            theta = cand
        if k % record_every == 0 or k == steps:
            traj[row] = theta
            row += 1
    return traj


def _checked_seed(seed):
    """``seed`` if it is a SeedSequence or a non-negative integer, else a ValueError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer or a SeedSequence, got {seed!r}")
    return check_count("seed", seed, 0)


class RootSolveError(RuntimeError):
    """Newton iteration failed; carries the last iterate and residual."""

    def __init__(self, message: str, theta: np.ndarray, residual_norm: float):
        super().__init__(f"{message} (residual {residual_norm:.3e})")
        self.theta = theta
        self.residual_norm = residual_norm


_TOL = 1e-10         # residual norm at which the root is accepted
_MAX_ITER = 200      # Newton iterations before giving up


def solve_root(ctx: RegressionContext, theta_init) -> np.ndarray:
    """Zero of the averaged correction field by damped Newton.

    Needs the sparse regressor kind, where f decouples per coordinate and
    the curvature is diagonal, so the half-step backtracking accepts each
    coordinate separately once its own ``|f_m|`` strictly decreased.  That
    matters far from the root: f_m saturates with a polynomial tail, so any
    overshoot deeper into saturation strictly increases ``|f_m|`` and gets
    halved away instead of dragging the iterate where the density
    quadrature underflows.  Returns once the residual norm is at most
    1e-10; raises :class:`RootSolveError` after 200 iterations or a stalled
    line search, and ``ValueError`` for a non-finite ``theta_init``.
    """
    theta = np.array(theta_init, dtype=np.float64)
    if not np.isfinite(theta).all():
        raise ValueError(f"theta_init must be finite, got {theta}")
    fval = regression_function(ctx, theta)
    for _ in range(_MAX_ITER):
        fnorm = float(np.linalg.norm(fval))
        if fnorm <= _TOL:
            return theta
        jac = regression_jacobian(ctx, theta)
        try:
            step = np.linalg.solve(jac, fval)
        except np.linalg.LinAlgError:
            raise RootSolveError("singular curvature", theta, fnorm) from None
        fabs = np.abs(fval)
        scales = np.ones_like(step)
        for _ in range(120):
            cand = theta + scales * step
            fcand = regression_function(ctx, cand)
            bad = (np.abs(fcand) >= fabs) & (step != 0.0)
            if not bad.any():
                break
            scales[bad] *= 0.5
            moved = np.abs(scales[bad] * step[bad])
            if np.all(moved < 1e-17 * np.maximum(1.0, np.abs(theta[bad]))):
                raise RootSolveError("line search stalled", theta, fnorm)
        else:
            raise RootSolveError("line search stalled", theta, fnorm)
        theta, fval = cand, fcand
    fnorm = float(np.linalg.norm(fval))
    if fnorm <= _TOL:
        return theta
    raise RootSolveError(f"no convergence in {_MAX_ITER} iterations", theta, fnorm)


@dataclass(frozen=True)
class ProbeReport:
    """What a single agent can identify from its own stream alone."""

    agent: int
    steps: int
    threshold: float
    final_theta: np.ndarray
    errors: np.ndarray
    identifiable: tuple[int, ...]
    stalled: tuple[int, ...]
    truncation_events: int

    def rows(self) -> list[dict]:
        """One dict per coordinate, ready for JSON-lines output."""
        out = []
        for m in range(1, self.errors.size + 1):
            out.append(
                {
                    "coordinate": m,
                    "estimate": float(self.final_theta[m - 1]),
                    "error": float(self.errors[m - 1]),
                    "identifiable": m in self.identifiable,
                    "stalled": m in self.stalled,
                }
            )
        return out


class _Touched:
    """Window observer of a one-agent run: coordinates that ever left zero."""

    def __init__(self, l: int):
        self.touched = np.zeros(l, dtype=bool)

    def window(self, rows, k, sigma, ledger, radii) -> None:
        self.touched |= (rows[1:, 0] != 0.0).any(axis=0)


def identifiability_probe(
    model: SystemModel,
    agent: int,
    steps: int,
    seed,
    threshold: float = 0.1,
) -> ProbeReport:
    """Run one agent in isolation and classify coordinates.

    The agent keeps its own regressor stream (for the sparse kind that
    means its own support coordinate) but hears nobody.  Coordinates whose
    final absolute error is below ``threshold`` are reported identifiable;
    coordinates whose estimate never left the zero initial value are
    reported stalled - with one-coordinate excitation those are exactly the
    coordinates other agents would have to supply through the network.
    ``agent`` is a 1-based integer and ``seed`` a non-negative int or a
    SeedSequence.
    """
    if check_count("agent", agent, 1) > model.n_agents:
        raise ValueError(f"agent must lie in 1..{model.n_agents}")
    check_positive("threshold", threshold)
    seed = _checked_seed(seed)
    sub_gen = model.regressor
    if model.supports is not None:
        sub_gen = SparseUniformRegressors(model.l, support=(int(model.supports[agent - 1]) + 1,))
    submodel = SystemModel(model.theta_star, sub_gen, model.noise, 1)
    g = complete_graph(1)
    schedule = TopologySchedule.static(g, metropolis_weights(g))

    watch = _Touched(model.l)
    final = run(submodel, schedule, steps, streams=ModelStreams(submodel, seed), sinks=(watch,))
    errors = np.abs(final.theta[0] - model.theta_star)
    identifiable = tuple(int(m) for m in range(1, model.l + 1) if errors[m - 1] < threshold)
    stalled = tuple(int(m) for m in range(1, model.l + 1) if not watch.touched[m - 1])
    return ProbeReport(
        agent=agent,
        steps=steps,
        threshold=threshold,
        final_theta=final.theta[0].copy(),
        errors=errors,
        identifiable=identifiable,
        stalled=stalled,
        truncation_events=final.ledger.truncation_events,
    )
