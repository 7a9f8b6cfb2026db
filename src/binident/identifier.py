"""Distributed identification with expanding truncations.

Each agent maintains an estimate ``theta_i`` and a truncation counter
``sigma_i``.  One step: adopt the largest counter in the in-neighborhood,
average the estimates of neighbors holding that counter, nudge along the
one-bit innovation with gain a/k, and reset to zero (bumping the counter)
whenever the candidate leaves the ball of radius M_m indexed by the adopted
counter m.  The expanding radii make the scheme self-stabilising without
any prior bound on the true parameter.

The gain constant ``a`` (default 1) and the radius sequence (``"linear"``,
M_m = m, the default; or ``"doubling"``, M_m = 2^m) are parameters of the
step and of :func:`run`.  Stochastic approximation with expanding
truncations converges for any a > 0 and any increasing, unbounded radii;
the choice only changes how fast.  The defaults are the literal 1/k, M_m = m
recursion.

One private kernel, :func:`_kernel`, holds the update of every step: mix
with ``W @ x``, add the innovation ``a_k s_i phi_i`` and reset to the
origin each row whose norm exceeds its radius.  :func:`_truncated_update`
runs it from any counters, with ``W`` masked to the neighbours that hold
each agent's neighbourhood-max counter, agents below that counter zeroed
and per-row radii.  Two entry points call it:
:func:`dsaawet_identification_step` senses (draws, thresholds, one-bit
signs) and runs it with gain a/k and radii M_m; :func:`generic_dsaawet_step`
runs it on user-supplied observation rows with a given gain a_k and radius
sequence.

:func:`run` drives the recursion through a window engine.  It hoists the
schedule's weight cycle, ``theta*`` on each agent's support, the regressor
bound beta, the largest row sum rho of the weight matrices, and the squared
radius (recomputed when the counters move).

- *Window.*  The state lives in one preallocated ``(65, n, l)`` buffer.
  Slot 0 holds the row before the window, and each step writes its result
  into the next slot.  All rows after slot 0 share one counter array and
  one ledger.  A window closes when 64 steps are in it, before a row whose
  counters moved (that row and its predecessor become slots 1 and 0 of the
  next window), and at the end of the run.
- *Observers.*  A sink with a ``window(rows, k, sigma, ledger, radii)``
  method receives each closed window as a read-only view, before its slots
  are reused: ``rows[i]`` is the state at step ``k + i``, ``sigma`` and
  ``ledger`` belong to ``rows[1:]`` and ``radii`` is the run's radius
  sequence.  Row 0's counters are those of the previous window; the first
  call is the opening window, the initial state alone.  Plain callables
  ``sink(prev, new)`` keep their per-step contract through one adapter that
  builds their frozen snapshots from the window rows, so the engine has a
  single observer path and builds snapshots only for plain sinks, for its
  general steps and for its return value.
- *Quiet step.*  While the counters agree, the engine reads the raw draw
  columns (:meth:`ModelStreams.columns`, the same banks as ``phi_step`` and
  ``noise_step``), computes outputs and thresholds into preallocated
  buffers and calls :func:`_kernel` with the common radius from one slot
  into the next, through flat views of the slots made once.  The sensor's
  signed gain is ``copysign(a_k, y - c)``: this is ``-a_k`` exactly where
  the bit ``y < c`` is set, as long as ``y - c`` is neither -0.0 nor NaN.
  It is -0.0 only when a noise draw is -0.0, which a :class:`StreamBank`
  refill never serves (it adds 0.0 to every draw).  So with the banks of
  :class:`ModelStreams` every value is the identification step's bit for
  bit; a caller's own ``columns()`` must serve no -0.0 noise to keep that.
- *Norm bound.*  Weights are nonnegative, so with agreeing counters each
  new row obeys ``||x'_i|| <= sum_j w_ij ||x_j|| + a_k ||phi_i||
  <= rho max_j ||x_j|| + a_k beta``.  The engine carries
  ``B <- (rho B + a_k beta)(1 + 1e-9)``; the margin covers the rounding of
  the product, the innovation and the norms.  While ``B < M (1 - 1e-9)`` no
  row can leave the ball of radius M, so the exact test is skipped.
  Otherwise (a NaN B included) the exact test runs and B becomes the
  largest norm found, times the same margin.  A truncation, a counter move
  or a general step resets B to infinity.
- *General path.*  A step that starts from disagreeing counters calls
  :func:`dsaawet_identification_step` on a snapshot of the state (the same
  kernel, with masked weights and per-row radii) and writes its result
  into the next slot.

:class:`InvariantMonitor` judges every row's ball with one ``einsum`` per
window and runs its counter checks at every counter move, on snapshots of
the two rows around the move.  The acceptance suite's "per-step
invariants" therefore still judge every step: each step's ball, and the
counters at every step where they moved (at a step where no counter moved,
"never decrease" and "zero after a bump" have nothing to check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._checks import check_count, check_positive
from .plant import SystemModel
from .streams import ModelStreams
from .topology import TopologySchedule, WeightMatrix


# ---------------------------------------------------------------------------
# state containers

def _own_state(obj, name: str) -> None:
    """Copy, validate and freeze ``obj.<name>`` (n, l) and ``obj.sigma`` (n,).

    The frozen dataclass then owns its arrays (later writes to the caller's
    arrays do not reach it) and gains ``sigma_uniform``.
    """
    values = np.array(getattr(obj, name), dtype=np.float64)
    sigma = np.array(obj.sigma, dtype=np.int64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"{name} must be a nonempty (n_agents, l) array")
    if sigma.shape != (values.shape[0],):
        raise ValueError("sigma must have one entry per agent")
    if sigma.min() < 0:
        raise ValueError("truncation counters cannot be negative")
    values.flags.writeable = False
    sigma.flags.writeable = False
    object.__setattr__(obj, name, values)
    object.__setattr__(obj, "sigma", sigma)
    object.__setattr__(obj, "sigma_uniform", bool((sigma == sigma[0]).all()))


@dataclass(slots=True, eq=False)
class TruncationLedger:
    """First-hit times of truncation levels.

    ``first_hit[m]`` is the first step at which any agent's counter equalled
    m; ``first_hit_agent[(i, m)]`` the first step agent i's counter equalled
    m (absent if the agent skipped the level).  Ledgers are treated as
    immutable; :meth:`record` returns a new ledger (or self when no counter
    changed), so snapshots can share them.
    """

    first_hit: dict
    first_hit_agent: dict
    sigma_max: int
    truncation_events: int
    last_change: int

    @classmethod
    def initial(cls, n_agents: int, k0: int = 1) -> "TruncationLedger":
        n_agents = check_count("n_agents", n_agents, 1)
        return cls(
            first_hit={0: k0},
            first_hit_agent={(i, 0): k0 for i in range(1, n_agents + 1)},
            sigma_max=0,
            truncation_events=0,
            last_change=k0,
        )

    def record(self, k_new: int, old_sigma: np.ndarray, new_sigma: np.ndarray,
               n_truncated: int) -> "TruncationLedger":
        changed = np.nonzero(new_sigma != old_sigma)[0]
        if changed.size == 0:
            return self
        first_hit = dict(self.first_hit)
        first_hit_agent = dict(self.first_hit_agent)
        for idx in changed:
            m = int(new_sigma[idx])
            first_hit.setdefault(m, k_new)
            first_hit_agent.setdefault((int(idx) + 1, m), k_new)
        return TruncationLedger(
            first_hit=first_hit,
            first_hit_agent=first_hit_agent,
            sigma_max=max(self.sigma_max, int(new_sigma[changed].max())),
            truncation_events=self.truncation_events + int(n_truncated),
            last_change=k_new,
        )


@dataclass(frozen=True, eq=False)
class NetworkSnapshot:
    """All agents' estimates and counters after step k's update.

    Arrays are owned by the snapshot and frozen; ``theta`` has shape
    ``(n_agents, l)`` and ``sigma`` shape ``(n_agents,)``.  The constructor
    copies its inputs, so the caller's arrays stay writable and later writes
    to them do not reach the snapshot.
    """

    k: int
    theta: np.ndarray
    sigma: np.ndarray
    ledger: TruncationLedger

    def __post_init__(self):
        check_count("k", self.k, 1)
        _own_state(self, "theta")

    @classmethod
    def initial(cls, n_agents: int, l: int) -> "NetworkSnapshot":
        """All-zero starting state at step 1 (the recursion's canonical origin)."""
        n_agents = check_count("n_agents", n_agents, 1)
        return cls(
            k=1,
            theta=np.zeros((n_agents, l)),
            sigma=np.zeros(n_agents, dtype=np.int64),
            ledger=TruncationLedger.initial(n_agents),
        )


# ---------------------------------------------------------------------------
# gain and truncation radii

RADII_KINDS = ("linear", "doubling")


def check_radii(radii: str) -> None:
    if radii not in RADII_KINDS:
        raise ValueError(f"unknown radius sequence {radii!r}; one of {RADII_KINDS}")


def truncation_radii(levels: np.ndarray, radii: str = "linear") -> np.ndarray:
    """Radius M_m for each counter level m: m (``"linear"``) or 2^m (``"doubling"``)."""
    if radii == "linear":
        return levels.astype(np.float64)
    check_radii(radii)
    return np.exp2(levels)


# ---------------------------------------------------------------------------
# single-step updates

def _kernel(x, out, w, coef, draws, flat, out_flat, r_sq, scratch=None):
    """The update of one step, written into ``out``.

    ``out = W x + coef_i phi_i`` row by row, with ``coef`` the signed gain
    ``a_k s_i`` (n,).  The regressors are the sparse amplitudes ``draws``
    (n,), with ``flat`` the flat index of each agent's active slot and
    ``out_flat`` the flat view of ``out``, or the dense rows ``draws`` (n, l)
    with ``flat`` and ``out_flat`` None.  ``out`` is a C-contiguous (n, l)
    array other than ``x``; ``scratch``, if given, has the shape of
    ``draws``.

    ``r_sq`` is a squared radius: one scalar for every row (the engine's
    common counter) or one per row (n,) (the step functions' adopted
    counters).  The rows whose squared norm exceeds it are reset to the
    origin; ``r_sq`` None skips the test.  Returns the mask of reset rows
    and NaN, or, when no row was reset, None and the largest squared norm
    (NaN when untested).
    """
    np.matmul(w, x, out=out)
    if flat is not None:
        # eta (+-a_k) == +-(eta a_k) exactly: the sign of a product is exact
        out_flat[flat] += np.multiply(draws, coef, out=scratch)
    else:
        out += np.multiply(draws, coef[:, None], out=scratch)
    if r_sq is None:
        return None, math.nan
    norms_sq = np.einsum("ij,ij->i", out, out)
    exceeded = norms_sq > r_sq
    if not exceeded.any():
        return None, norms_sq.max()
    out[exceeded] = 0.0
    return exceeded, math.nan


def _truncated_update(x, sigma, weights, coef, draws, flat, radii):
    """One step of the truncated recursion from any counters, by :func:`_kernel`.

    Each agent adopts ``sig_hat``, the largest counter in its neighbourhood,
    and mixes over the neighbours that hold it; an agent whose own counter
    is below ``sig_hat`` (lagging) mixes nothing, gets no innovation and
    ends at +0.0.  Each row is then tested against the radius of its
    ``sig_hat``.  ``coef``, ``draws`` and ``flat`` are as in
    :func:`_kernel`; ``coef`` is the caller's own array and its lagging
    entries are zeroed.  Returns ``(x_next, sigma_next, n_truncated)``;
    ``sigma_next`` is a new array, equal to ``sigma`` when no counter moved.
    """
    if weights.n != len(sigma):
        raise ValueError(f"weights: a matrix for {weights.n} agents, the state has {len(sigma)}")
    sig_hat = np.where(weights.support, sigma[None, :], -1).max(axis=1)
    lag = sigma < sig_hat
    w = weights.w * (sigma[None, :] == sig_hat[:, None])
    w[lag] = 0.0
    coef[lag] = 0.0
    r = truncation_radii(sig_hat, radii)
    x_next = np.empty(x.shape)
    out_flat = None if flat is None else x_next.reshape(-1)
    exceeded, _ = _kernel(x, x_next, w, coef, draws, flat, out_flat, r * r)
    # a zero weight row can still sum to -0.0 (by the BLAS's order of
    # summation) or NaN (beside a non-finite estimate)
    x_next[lag] = 0.0
    if exceeded is None:
        return x_next, sig_hat, 0
    return x_next, sig_hat + exceeded, int(exceeded.sum())


def dsaawet_identification_step(
    s: NetworkSnapshot,
    weights: WeightMatrix,
    model: SystemModel,
    streams: ModelStreams,
    gain: float = 1.0,
    radii: str = "linear",
) -> NetworkSnapshot:
    """Advance every agent one step against fresh regressor/noise draws.

    Sensor bit: ``z_i = 1 if y_i < phi_i' theta_i else 0`` with the true
    output ``y_i = phi_i' theta_star + d_i``.  Candidate:

        theta'_i = [ sum_j w_ij theta_j 1{sigma_j = shat_i}
                     + (a/k) phi_i (1 - 2 z_i) ] * 1{sigma_i = shat_i}

    with ``shat_i = max_{j in N_i} sigma_j`` and a = ``gain``; the candidate
    is kept iff ``||theta'_i|| <= M_shat_i`` (see :func:`truncation_radii`),
    otherwise the agent resets to zero and its counter becomes
    ``shat_i + 1``.

    Like :func:`run`, it rejects a non-finite or non-positive ``gain``, a
    snapshot ``s`` or ``weights`` of another size than the model, and
    ``streams`` whose drawn columns do not fit the model, each with a
    ``ValueError`` that names the argument.
    """
    check_positive("gain", gain)
    n, l = model.n_agents, model.l
    if s.theta.shape != (n, l):
        raise ValueError(f"s: theta has shape {s.theta.shape}, the model needs ({n}, {l})")
    k = s.k
    phi = streams.phi_step(k)
    d = streams.noise_step()
    draws = phi.eta if phi.is_sparse else phi.dense
    if phi.l != l or draws.shape != ((n,) if phi.is_sparse else (n, l)) or np.shape(d) != (n,):
        raise ValueError(
            f"streams: drew regressors of shape {draws.shape} (l = {phi.l}) and noise of "
            f"shape {np.shape(d)}, the model has {n} agents and l = {l}"
        )
    bits = phi.outputs(model.theta_star, d) < phi.thresholds(s.theta)
    a_k = gain / k
    theta_next, sigma_next, n_trunc = _truncated_update(
        s.theta, s.sigma, weights, np.where(bits, -a_k, a_k), draws, phi.flat, radii
    )
    ledger = s.ledger.record(k + 1, s.sigma, sigma_next, n_trunc)
    return NetworkSnapshot(k=k + 1, theta=theta_next, sigma=sigma_next, ledger=ledger)


@dataclass(frozen=True, eq=False)
class EngineState:
    """State of the generic truncated recursion: iterates plus counters.

    Like :class:`NetworkSnapshot` it owns frozen copies of its arrays and
    rejects negative counters.
    """

    x: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        _own_state(self, "x")

    @classmethod
    def initial(cls, n: int, l: int) -> "EngineState":
        return cls(x=np.zeros((n, l)), sigma=np.zeros(n, dtype=np.int64))


def generic_dsaawet_step(
    state: EngineState,
    weights: WeightMatrix,
    observations: np.ndarray,
    a_k: float,
    radii: str = "linear",
) -> EngineState:
    """One step of the general truncated recursion.

    ``observations`` holds each agent's raw correction row O_i (shape
    (n, l), finite); ``a_k`` is the step's gain (finite, positive),
    ``weights`` an (n, n) matrix and ``radii`` the radius sequence M_m of
    :func:`truncation_radii`.  Agents behind the neighborhood-max counter
    contribute the origin in place of their iterate, and truncation resets
    to the origin:

        x~_i = sum_j w_ij x_j 1{sigma_j = shat_i} + a_k O_i
        x'_i = x~_i 1{sigma_i = shat_i}
        x_i  <- x'_i if ||x'_i|| <= M_shat_i else 0,   with counter bump.

    This and :func:`dsaawet_identification_step` are two entry points to
    one kernel: here every row O_i enters with the gain a_k itself, where
    the identification step passes ``+-a_k`` with the regressor row, so
    rows ``s_i phi_i`` and the same weights give its result bit for bit.
    """
    check_radii(radii)
    check_positive("a_k", a_k)
    n, l = state.x.shape
    obs = np.asarray(observations, dtype=np.float64)
    if obs.shape != (n, l):
        raise ValueError(f"observations shape {obs.shape} != ({n}, {l})")
    if not np.isfinite(obs).all():
        raise ValueError("observations must be finite")
    x_next, sigma_next, _ = _truncated_update(
        state.x, state.sigma, weights, np.full(n, a_k), obs, None, radii
    )
    return EngineState(x=x_next, sigma=sigma_next)


# ---------------------------------------------------------------------------
# multi-step driver

_BOUND_SLACK = 1e-9     # relative margin of the norm bound over rounding
_WINDOW = 64            # steps per engine window, judged and reduced together


def _check_streams(streams, model) -> None:
    """Reject streams drawn for a model with another shape or law."""
    theirs = streams.model
    for name in ("n_agents", "l", "regressor", "noise"):
        got, want = getattr(theirs, name), getattr(model, name)
        if got != want:
            raise ValueError(
                f"streams: built for a model with {name} {got!r}, the run's model has {want!r}"
            )


def run(
    model: SystemModel,
    schedule: TopologySchedule,
    steps: int,
    *,
    init: NetworkSnapshot | None = None,
    streams: ModelStreams | None = None,
    seed: int | None = None,
    sinks: Sequence[Callable] = (),
    gain: float = 1.0,
    radii: str = "linear",
) -> NetworkSnapshot:
    """Iterate the identification step ``steps`` times.

    Draws come from ``streams`` (or a fresh :class:`ModelStreams` built from
    ``seed``); streams built for a model with another agent count,
    dimension, regressor law or noise law are rejected.  Results are
    reproducible per seed.  ``gain`` and ``radii`` select the recursion
    (gain a/k, radii M_m) as in :func:`dsaawet_identification_step`, whose
    results the run reproduces bit for bit when no noise draw is -0.0, as
    with every :class:`ModelStreams` (see the module docstring).

    Sinks observe, they cannot alter the run.  A sink with a ``window``
    method is a window observer (see the module docstring); any other sink
    is called as ``sink(previous, new)`` with frozen snapshots after every
    step, in order.  ``steps`` must be a non-negative integer (a bool is
    not one).  ``init`` must hold ``(model.n_agents, model.l)`` estimates;
    with ``steps == 0`` it is returned as it is.
    """
    check_positive("gain", gain)
    check_radii(radii)
    check_count("steps", steps, 0)
    if init is not None and init.theta.shape != (model.n_agents, model.l):
        raise ValueError(
            f"init: theta has shape {init.theta.shape}, "
            f"the model needs ({model.n_agents}, {model.l})"
        )
    if streams is None:
        if seed is None:
            raise ValueError("provide streams= or seed=")
        streams = ModelStreams(model, seed)
    else:
        _check_streams(streams, model)
    if schedule.n_agents != model.n_agents:
        raise ValueError("schedule and model disagree on the number of agents")
    snap = init if init is not None else NetworkSnapshot.initial(model.n_agents, model.l)
    if steps == 0:
        return snap
    return _run_steps(model, schedule, streams, snap, steps, tuple(sinks), gain, radii)


class _StepSinks:
    """Plain ``sink(prev, new)`` callables served from the engine's windows.

    Builds one frozen snapshot per step from the window rows; each owns
    its arrays.
    """

    def __init__(self, sinks, init: NetworkSnapshot):
        self._sinks = sinks
        self._snap = init

    def window(self, rows, k, sigma, ledger, radii) -> None:
        snap = self._snap
        for i in range(1, len(rows)):
            new = NetworkSnapshot(k=k + i, theta=rows[i], sigma=sigma, ledger=ledger)
            for sink in self._sinks:
                sink(snap, new)
            snap = new
        self._snap = snap


def _deliver(observers, rows, k, sigma, ledger, radii) -> None:
    rows.flags.writeable = False
    for ob in observers:
        ob.window(rows, k, sigma, ledger, radii)


def _run_steps(model, schedule, streams, snap, steps, sinks, gain, radii):
    """The engine behind :func:`run`: steps written into one window buffer.

    See the module docstring for the window, the quiet step, the norm bound
    and the observer protocol.
    """
    cycle = schedule.weights
    mats = [wm.w for wm in cycle]
    period = len(cycle)
    rho = max(float(w.sum(axis=1).max()) for w in mats)
    beta = float(model.regressor.bound)
    grow = 1.0 + _BOUND_SLACK
    n = model.n_agents
    sparse = model.supports is not None
    if sparse:
        star = model.theta_star[model.supports]
        flat = np.arange(n) * model.l + model.supports
    else:
        star, flat = model.theta_star, None
    observers = [s for s in sinks if hasattr(s, "window")]
    plain = [s for s in sinks if not hasattr(s, "window")]
    if plain:
        observers.append(_StepSinks(plain, snap))

    win = np.empty((_WINDOW + 1, n, model.l))
    slots = list(win)
    flats = [row.reshape(-1) for row in slots] if sparse else [None] * len(slots)
    win[0] = snap.theta
    k, sigma, uniform, ledger = snap.k, snap.sigma, snap.sigma_uniform, snap.ledger
    _deliver(observers, win[:1], k, sigma, ledger, radii)
    k0, j = k, 0            # the step of slot 0, and the steps written after it
    y, coef = np.empty(n), np.empty(n)
    scratch = np.empty(n) if sparse else np.empty((n, model.l))
    bound = math.inf        # bounds every row norm of the state while counters agree
    radius_of = None        # the counters r_sq and r_cut belong to
    for _ in range(steps):
        x, out = slots[j], slots[j + 1]
        moved = None
        if uniform:
            if sigma is not radius_of:
                radius = float(truncation_radii(sigma[:1], radii)[0])
                r_sq, r_cut, radius_of = radius * radius, radius * (1.0 - _BOUND_SLACK), sigma
            draws, d = streams.columns()
            if sparse:
                np.multiply(draws, star, out=y)
                c = np.multiply(draws, flats[j][flat], out=coef)
            else:
                np.matmul(draws, star, out=y)
                c = np.einsum("ij,ij->i", draws, x, out=coef)
            np.add(y, d, out=y)
            a_k = gain / k
            # sign(y - c) is the sensor's -1 where y < c, +1 elsewhere: a
            # stream bank never serves a -0.0 noise draw, so y - c is never -0.0
            np.copysign(a_k, np.subtract(y, c, out=y), out=coef)
            bound = (rho * bound + a_k * beta) * grow
            exact = not bound < r_cut          # a NaN bound takes the exact test
            exceeded, top = _kernel(
                x, out, mats[(k - 1) % period], coef, draws, flat, flats[j + 1],
                r_sq if exact else None, scratch,
            )
            del draws, d        # views pin their block: let the next refill free it
            k += 1
            if exceeded is None:
                if exact:
                    bound = math.sqrt(top) * grow
            else:
                moved = sigma + exceeded
                moved.flags.writeable = False
                new_ledger = ledger.record(k, sigma, moved, int(exceeded.sum()))
                uniform, bound = bool((moved == moved[0]).all()), math.inf
        else:
            prev = NetworkSnapshot(k=k, theta=x, sigma=sigma, ledger=ledger)
            new = dsaawet_identification_step(
                prev, cycle[(k - 1) % period], model, streams, gain, radii
            )
            np.copyto(out, new.theta)
            k += 1
            if not np.array_equal(new.sigma, sigma):
                moved, new_ledger, uniform = new.sigma, new.ledger, new.sigma_uniform
            bound = math.inf
        if moved is not None:
            if j:               # the window's rows share one counter array
                _deliver(observers, win[: j + 1], k0, sigma, ledger, radii)
                win[:2] = win[j : j + 2]
                k0, j = k0 + j, 0
            sigma, ledger = moved, new_ledger
        j += 1
        if j == _WINDOW:
            _deliver(observers, win[: j + 1], k0, sigma, ledger, radii)
            win[0] = win[j]
            k0, j = k0 + j, 0
    if j:
        _deliver(observers, win[: j + 1], k0, sigma, ledger, radii)
    return NetworkSnapshot(k=k, theta=slots[j], sigma=sigma, ledger=ledger)


# ---------------------------------------------------------------------------
# invariant monitoring

_MAX_RECORDED_VIOLATIONS = 10      # messages kept; ``count`` has them all


class InvariantMonitor:
    """Run sink checking per-step invariants of the recursion.

    Violations are collected rather than raised so a long run reports all
    breakage at the end: counters never decrease, any agent whose counter
    rose holds an exactly-zero estimate, and every estimate satisfies
    ``||theta_i|| <= M_sigma_i`` for the radius sequence ``radii``
    (truncated rows are zero, kept rows passed exactly this comparison
    inside the step).  ``violations`` keeps the first 10 messages, in step
    order; ``count`` counts them all.

    As a window observer of :func:`run` it judges the balls of every row of
    a window with one ``einsum``.  When a window's counter array differs
    from the previous window's, the counters moved between its first two
    rows: those two rows become snapshots and go through :meth:`__call__`,
    the per-step check, which runs the counter checks.  A run whose radius
    sequence is not the monitor's is rejected before its first step.
    """

    def __init__(self, radii: str = "linear"):
        check_radii(radii)
        self.radii = radii
        self.steps = 0
        self.count = 0
        self.violations: list[str] = []
        self._sigma = None          # the counter array ``_radii_sq`` belongs to
        self._radii_sq = None
        self._last = None           # (sigma, ledger) of the last window's rows

    @property
    def ok(self) -> bool:
        return self.count == 0

    def _record(self, msg: str) -> None:
        self.count += 1
        if len(self.violations) < _MAX_RECORDED_VIOLATIONS:
            self.violations.append(msg)

    def _judge(self, rows, ks, sigma) -> None:
        """Ball check of ``rows`` (steps ``ks``) against the radii of ``sigma``."""
        if sigma is not self._sigma:
            radii = truncation_radii(sigma, self.radii)
            self._sigma, self._radii_sq = sigma, radii * radii
        norms_sq = np.einsum("kij,kij->ki", rows, rows)
        for i in np.flatnonzero((norms_sq > self._radii_sq).any(axis=1)).tolist():
            self._record(f"k={ks[i]}: estimate outside its truncation ball")

    def window(self, rows, k, sigma, ledger, radii) -> None:
        """Window observer: rows ``k .. k + len(rows) - 1`` of a run (see :func:`run`)."""
        if radii != self.radii:
            raise ValueError(
                f"radii: the monitor checks {self.radii!r} balls, the run uses {radii!r}"
            )
        first = 1
        if self._last is not None and sigma is not self._last[0] and len(rows) > 1:
            self(
                NetworkSnapshot(k=k, theta=rows[0], sigma=self._last[0], ledger=self._last[1]),
                NetworkSnapshot(k=k + 1, theta=rows[1], sigma=sigma, ledger=ledger),
            )
            first = 2
        self._last = (sigma, ledger)
        if first < len(rows):
            self._judge(rows[first:], range(k + first, k + len(rows)), sigma)
            self.steps += len(rows) - first

    def __call__(self, prev: NetworkSnapshot, new: NetworkSnapshot) -> None:
        self.steps += 1
        if np.any(new.sigma < prev.sigma):
            self._record(f"k={new.k}: a truncation counter decreased")
        rose = new.sigma > prev.sigma
        if np.any(rose) and new.theta[rose].any():
            self._record(f"k={new.k}: nonzero estimate right after a counter bump")
        self._judge(new.theta[None], (new.k,), new.sigma)


def sigma_settled(final: NetworkSnapshot, total_steps: int) -> bool:
    """True if counters are common and unchanged over the second half of the run."""
    cutoff = final.k - total_steps // 2
    return bool(final.sigma_uniform and final.ledger.last_change <= cutoff)


def truncation_spread_violations(
    ledger: TruncationLedger, B: int, n_agents: int, final_k: int
) -> list[tuple[int, int, int]]:
    """Check that truncation levels propagate through the network quickly.

    Once some agent first reaches level m at step t_m, every other agent
    must either reach m itself, or the network must move past m (someone
    reaches m + 1), within B (n_agents - 1) further steps.  Levels whose
    deadline falls beyond the end of the run are skipped (not enough data
    to judge).  Returns (level, agent, deadline) triples that failed.
    """
    out: list[tuple[int, int, int]] = []
    for m, t_m in sorted(ledger.first_hit.items()):
        if m == 0:
            continue
        deadline = t_m + B * (n_agents - 1)
        if deadline >= final_k:
            continue
        next_hit = ledger.first_hit.get(m + 1, math.inf)
        for a in range(1, n_agents + 1):
            own = ledger.first_hit_agent.get((a, m), math.inf)
            if min(own, next_hit) > deadline:
                out.append((m, a, deadline))
    return out
