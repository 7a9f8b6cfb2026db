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

One private kernel holds the truncated update, and two entry points call
it.  :func:`dsaawet_identification_step` senses (draws, thresholds, one-bit
signs) and runs it with gain a/k and radii M_m;
:func:`generic_dsaawet_step` runs it on user-supplied observation rows with
a given gain a_k and radius sequence.  Both reset to the origin.  When all
counters agree the kernel takes one path, :func:`_agreeing_update`: mix
with ``W @ x``, add the innovation and test every norm against the one
common radius.  The disagreeing-counter update is written once, in
:func:`_truncated_update`.

:func:`run` drives the recursion through an engine that keeps the state in
its own buffers and builds frozen snapshots only for its sinks and its
return value.  It hoists the schedule's weight cycle, ``theta*`` on each
agent's support, the regressor bound beta, the largest row sum rho of the
weight matrices, and the squared radius (recomputed when the counters
move).

- *Quiet step.*  While the counters agree, the engine reads the raw draw
  columns (:meth:`ModelStreams.columns`, the same banks as ``phi_step`` and
  ``noise_step``), computes outputs, thresholds and sensor bits into
  preallocated buffers and calls :func:`_agreeing_update` into a second
  state buffer.  The arithmetic is the kernel's, so every value is the
  identification step's bit for bit.
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
  :func:`dsaawet_identification_step` on a snapshot of the state.

:class:`InvariantMonitor` checks the counters at every counter move, and
checks the balls over windows of up to 64 steps with one ``einsum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .plant import PhiBatch, SystemModel
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


class TruncationLedger:
    """First-hit times of truncation levels.

    ``first_hit[m]`` is the first step at which any agent's counter equalled
    m; ``first_hit_agent[(i, m)]`` the first step agent i's counter equalled
    m (absent if the agent skipped the level).  Ledgers are treated as
    immutable; :meth:`record` returns a new ledger (or self when nothing
    changed), so snapshots can share them.
    """

    __slots__ = ("first_hit", "first_hit_agent", "sigma_max", "truncation_events", "last_change")

    def __init__(self, first_hit, first_hit_agent, sigma_max, truncation_events, last_change):
        self.first_hit = first_hit
        self.first_hit_agent = first_hit_agent
        self.sigma_max = sigma_max
        self.truncation_events = truncation_events
        self.last_change = last_change

    @classmethod
    def initial(cls, n_agents: int, k0: int = 1) -> "TruncationLedger":
        return cls(
            first_hit={0: k0},
            first_hit_agent={(i, 0): k0 for i in range(1, n_agents + 1)},
            sigma_max=0,
            truncation_events=0,
            last_change=k0,
        )

    def record(self, k_new: int, old_sigma: np.ndarray, new_sigma: np.ndarray,
               n_truncated: int) -> "TruncationLedger":
        if new_sigma is old_sigma:
            return self
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
    to them do not reach the snapshot.  A step whose counters did not move
    builds its successor around the parent's (already validated, frozen)
    ``sigma`` array, so consecutive snapshots may share it.
    """

    k: int
    theta: np.ndarray
    sigma: np.ndarray
    ledger: TruncationLedger

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("step index k starts at 1")
        _own_state(self, "theta")

    @classmethod
    def initial(cls, n_agents: int, l: int, k: int = 1) -> "NetworkSnapshot":
        """All-zero starting state (the recursion's canonical origin)."""
        return cls(
            k=k,
            theta=np.zeros((n_agents, l)),
            sigma=np.zeros(n_agents, dtype=np.int64),
            ledger=TruncationLedger.initial(n_agents, k),
        )

    def _successor(self, theta: np.ndarray, ledger: TruncationLedger) -> "NetworkSnapshot":
        """Step k + 1 with this snapshot's counters and a fresh ``theta``.

        Skips ``__post_init__``: the counters were validated when this
        snapshot was built and are frozen, and ``theta`` must be a new
        ``(n_agents, l)`` float array that nothing else holds.
        """
        theta.flags.writeable = False
        nxt = object.__new__(NetworkSnapshot)
        nxt.__dict__.update(k=self.k + 1, theta=theta, sigma=self.sigma, ledger=ledger,
                            sigma_uniform=self.sigma_uniform)
        return nxt

    @property
    def n_agents(self) -> int:
        return self.theta.shape[0]

    @property
    def l(self) -> int:
        return self.theta.shape[1]


# ---------------------------------------------------------------------------
# gain and truncation radii

RADII_KINDS = ("linear", "doubling")


def check_gain(gain: float) -> None:
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(f"gain must be finite and positive, got {gain!r}")


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

def _agreeing_update(x, out, w, a_k, bits, draws, flat, r_sq, scratch=None):
    """The update for agreeing counters, written into ``out``.

    ``out = W x + a_k phi_i s_i`` row by row, with ``s_i = -1`` where the
    sensor bit is set (``bits``) and +1 elsewhere.  The regressors are the
    sparse amplitudes ``draws`` (n,), with ``flat`` the flat index of each
    agent's active slot in ``out``, or the dense rows ``draws`` (n, l) with
    ``flat`` None.  ``out`` is a C-contiguous (n, l) array other than ``x``;
    ``scratch``, if given, has the shape of ``draws``.

    With ``r_sq`` (the squared radius of the common counter) the rows whose
    squared norm exceeds it are reset to the origin; ``r_sq`` None skips the
    test.  Returns the mask of reset rows (None when none was) and the
    largest squared norm before any reset (NaN when untested).
    """
    np.matmul(w, x, out=out)
    if flat is not None:
        # (-eta) a_k == -(eta a_k) exactly, so this is (eta s) a_k bit for bit
        delta = np.multiply(draws, a_k, out=scratch)
        np.negative(delta, out=delta, where=bits)
        out.reshape(-1)[flat] += delta
    else:
        coef = np.where(bits, -a_k, a_k)
        out += np.multiply(draws, coef[:, None], out=scratch)
    if r_sq is None:
        return None, math.nan
    norms_sq = np.einsum("ij,ij->i", out, out)
    top = norms_sq.max()
    if not top > r_sq:
        return None, top
    exceeded = norms_sq > r_sq
    out[exceeded] = 0.0
    return exceeded, top


def _truncated_update(x, sigma, sigma_uniform, weights, phi, bits, a_k, radii):
    """The truncated recursion shared by both step functions.

    Mixes over the neighbourhood-max counter (lagging agents contribute the
    origin), adds ``a_k phi_i s_i`` (``phi`` a :class:`PhiBatch`, ``s_i = -1``
    where ``bits`` is set and +1 elsewhere), zeroes lagging agents and
    resets to the origin outside the radius of the adopted counter.
    Agreeing counters go through :func:`_agreeing_update`.  Returns
    ``(x_next, sigma_next, n_truncated)``.
    """
    if sigma_uniform:
        radius = truncation_radii(sigma[:1], radii)[0]
        x_next = np.empty(x.shape)
        draws, flat = (phi.eta, phi.flat) if phi.is_sparse else (phi.dense, None)
        exceeded, _ = _agreeing_update(
            x, x_next, weights.w, a_k, bits, draws, flat, radius * radius
        )
        if exceeded is None:
            return x_next, sigma, 0
        return x_next, sigma + exceeded, int(exceeded.sum())

    sig_hat = np.where(weights.support, sigma[None, :], -1).max(axis=1)
    x_prime = (weights.w * (sigma[None, :] == sig_hat[:, None])) @ x
    phi.add_innovation(x_prime, a_k, np.where(bits, -1.0, 1.0))
    x_prime = np.where((sigma == sig_hat)[:, None], x_prime, 0.0)
    norms_sq = np.einsum("ij,ij->i", x_prime, x_prime)
    bound = truncation_radii(sig_hat, radii)
    exceeded = norms_sq > bound * bound
    if not exceeded.any():
        return x_prime, sig_hat, 0
    x_next = np.where(exceeded[:, None], 0.0, x_prime)
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
    """
    k = s.k
    phi = streams.phi_step(k)
    d = streams.noise_step()
    bits = phi.outputs(model.theta_star, d) < phi.thresholds(s.theta)

    theta_next, sigma_next, n_trunc = _truncated_update(
        s.theta, s.sigma, s.sigma_uniform, weights, phi, bits, gain / k, radii
    )
    ledger = s.ledger.record(k + 1, s.sigma, sigma_next, n_trunc)
    if sigma_next is s.sigma:
        return s._successor(theta_next, ledger)
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
    (n, l), finite); ``a_k`` is the step's gain (finite, positive) and
    ``radii`` the radius sequence M_m of :func:`truncation_radii`.  Agents
    behind the neighborhood-max counter contribute the origin in place of
    their iterate, and truncation resets to the origin:

        x~_i = sum_j w_ij x_j 1{sigma_j = shat_i} + a_k O_i
        x'_i = x~_i 1{sigma_i = shat_i}
        x_i  <- x'_i if ||x'_i|| <= M_shat_i else 0,   with counter bump.

    This and :func:`dsaawet_identification_step` are two entry points to
    one kernel: here the rows O_i enter with unit signs, so the same
    weights and rows give the identification step's result bit for bit.
    """
    check_radii(radii)
    if not (math.isfinite(a_k) and a_k > 0):
        raise ValueError(f"a_k must be finite and positive, got {a_k!r}")
    n, l = state.x.shape
    obs = np.asarray(observations, dtype=np.float64)
    if obs.shape != (n, l):
        raise ValueError(f"observations shape {obs.shape} != ({n}, {l})")
    if not np.isfinite(obs).all():
        raise ValueError("observations must be finite")
    x_next, sigma_next, _ = _truncated_update(
        state.x, state.sigma, state.sigma_uniform, weights,
        PhiBatch(l=l, dense=obs), np.zeros(n, dtype=bool), a_k, radii,
    )
    return EngineState(x=x_next, sigma=sigma_next)


# ---------------------------------------------------------------------------
# multi-step driver

_BOUND_SLACK = 1e-9     # relative margin of the norm bound over rounding


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
    ``seed``), so results are reproducible per seed.  ``gain`` and ``radii``
    select the recursion (gain a/k, radii M_m) as in
    :func:`dsaawet_identification_step`, whose results the run reproduces
    bit for bit.  Each sink is invoked as ``sink(previous, new)`` with
    frozen snapshots after every step; sinks observe, they cannot alter the
    run.  ``init`` must hold ``(model.n_agents, model.l)`` estimates; with
    ``steps == 0`` it is returned as it is.
    """
    check_gain(gain)
    check_radii(radii)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if init is not None and init.theta.shape != (model.n_agents, model.l):
        raise ValueError(
            f"init: theta has shape {init.theta.shape}, "
            f"the model needs ({model.n_agents}, {model.l})"
        )
    if streams is None:
        if seed is None:
            raise ValueError("provide streams= or seed=")
        streams = ModelStreams(model, seed)
    if schedule.n_agents != model.n_agents:
        raise ValueError("schedule and model disagree on the number of agents")
    snap = init if init is not None else NetworkSnapshot.initial(model.n_agents, model.l)
    if steps == 0:
        return snap
    return _run_steps(model, schedule, streams, snap, steps, tuple(sinks), gain, radii)


def _run_steps(model, schedule, streams, snap, steps, sinks, gain, radii):
    """The engine behind :func:`run`: quiet steps in place, the rest general.

    Keeps the state in its own buffers and builds snapshots only for the
    sinks and the return value (see the module docstring).
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

    k, sigma, uniform, ledger = snap.k, snap.sigma, snap.sigma_uniform, snap.ledger
    x = np.array(snap.theta)
    out = np.empty_like(x)
    y, c = np.empty(n), np.empty(n)
    bits = np.empty(n, dtype=bool)
    scratch = np.empty(n) if sparse else np.empty_like(x)
    bound = math.inf        # bounds every row norm of x while counters agree
    radius_of = None        # the counters r_sq and r_cut belong to
    for _ in range(steps):
        if uniform:
            if sigma is not radius_of:
                radius = float(truncation_radii(sigma[:1], radii)[0])
                r_sq, r_cut, radius_of = radius * radius, radius * (1.0 - _BOUND_SLACK), sigma
            draws, d = streams.columns()
            if sparse:
                np.multiply(draws, star, out=y)
                np.multiply(draws, x.reshape(-1)[flat], out=c)
            else:
                np.matmul(draws, star, out=y)
                np.einsum("ij,ij->i", draws, x, out=c)
            np.add(y, d, out=y)
            np.less(y, c, out=bits)
            a_k = gain / k
            bound = (rho * bound + a_k * beta) * grow
            exact = not bound < r_cut          # a NaN bound takes the exact test
            exceeded, top = _agreeing_update(
                x, out, mats[(k - 1) % period], a_k, bits, draws, flat,
                r_sq if exact else None, scratch,
            )
            del draws, d        # views pin their block: let the next refill free it
            x, out = out, x
            k += 1
            if exceeded is None:
                if exact:
                    bound = math.sqrt(top) * grow
                new = snap._successor(x.copy(), ledger) if sinks else None
            else:
                moved = sigma + exceeded
                ledger = ledger.record(k, sigma, moved, int(exceeded.sum()))
                sigma, uniform, bound = moved, bool((moved == moved[0]).all()), math.inf
                new = NetworkSnapshot(k=k, theta=x, sigma=sigma, ledger=ledger) if sinks else None
        else:
            prev = snap if sinks else NetworkSnapshot(k=k, theta=x, sigma=sigma, ledger=ledger)
            new = dsaawet_identification_step(
                prev, cycle[(k - 1) % period], model, streams, gain, radii
            )
            np.copyto(x, new.theta)
            k, sigma, uniform, ledger = new.k, new.sigma, new.sigma_uniform, new.ledger
            bound = math.inf
        if sinks:
            for sink in sinks:
                sink(snap, new)
            snap = new
    if sinks:
        return snap
    return NetworkSnapshot(k=k, theta=x, sigma=sigma, ledger=ledger)


# ---------------------------------------------------------------------------
# invariant monitoring

_MAX_RECORDED_VIOLATIONS = 10      # messages kept; ``count`` has them all
_MONITOR_WINDOW = 64               # steps whose ball checks share one einsum


class InvariantMonitor:
    """Run sink checking per-step invariants of the recursion.

    Violations are collected rather than raised so a long run reports all
    breakage at the end: counters never decrease, any agent whose counter
    rose holds an exactly-zero estimate, and every estimate satisfies
    ``||theta_i|| <= M_sigma_i`` for the run's radius sequence ``radii``
    (truncated rows are zero, kept rows passed exactly this comparison
    inside the step).

    The counter checks run at once whenever the counter array changes.  The
    ball check is deferred: a copy of each step's estimates waits in a
    buffer of at most 64 steps that share one counter array, and one
    ``einsum`` judges them all.  The buffer is flushed when it is full,
    before a counter move is judged and whenever ``ok``, ``count`` or
    ``violations`` is read, so every message keeps its own step ``k`` and
    the messages stay in step order.
    """

    def __init__(self, radii: str = "linear"):
        check_radii(radii)
        self.radii = radii
        self.steps = 0
        self._violations: list[str] = []
        self._count = 0
        self._sigma = None          # counters of the pending steps
        self._radii_sq = None
        self._pending = None        # (window, n, l) estimates awaiting the ball check
        self._ks: list[int] = []    # step index of each pending row

    def _record(self, msg: str) -> None:
        self._count += 1
        if len(self._violations) < _MAX_RECORDED_VIOLATIONS:
            self._violations.append(msg)

    def _flush(self) -> None:
        if not self._ks:
            return
        block = self._pending[: len(self._ks)]
        norms_sq = np.einsum("kij,kij->ki", block, block)
        outside = (norms_sq > self._radii_sq).any(axis=1)
        for k, bad in zip(self._ks, outside.tolist()):
            if bad:
                self._record(f"k={k}: estimate outside its truncation ball")
        self._ks.clear()

    def __call__(self, prev: NetworkSnapshot, new: NetworkSnapshot) -> None:
        self.steps += 1
        moved = new.sigma is not prev.sigma
        if moved or new.sigma is not self._sigma or len(self._ks) == _MONITOR_WINDOW:
            self._flush()
        if moved:
            if np.any(new.sigma < prev.sigma):
                self._record(f"k={new.k}: a truncation counter decreased")
            rose = new.sigma > prev.sigma
            if np.any(rose) and new.theta[rose].any():
                self._record(f"k={new.k}: nonzero estimate right after a counter bump")
        if new.sigma is not self._sigma:
            radii = truncation_radii(new.sigma, self.radii)
            self._sigma, self._radii_sq = new.sigma, radii * radii
        if self._pending is None or self._pending.shape[1:] != new.theta.shape:
            self._pending = np.empty((_MONITOR_WINDOW,) + new.theta.shape)
        self._pending[len(self._ks)] = new.theta
        self._ks.append(new.k)

    @property
    def count(self) -> int:
        self._flush()
        return self._count

    @property
    def violations(self) -> list[str]:
        self._flush()
        return self._violations

    @property
    def ok(self) -> bool:
        return self.count == 0


def sigma_settled(final: NetworkSnapshot, total_steps: int, fraction: float = 0.5) -> bool:
    """True if counters are common and unchanged over the trailing fraction."""
    cutoff = final.k - int(fraction * total_steps)
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
