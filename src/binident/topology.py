"""Time-varying communication topology.

Directed graphs with mandatory self-loops, weight matrix constructions
(Metropolis and uniform-by-degree), schedules that cycle through a fixed
list of weight matrices, validation of the standing network assumptions
(per-step double stochasticity and windowed joint strong connectivity),
and backward products of the weight matrices whose deviation from the
averaging matrix decays geometrically on validated schedules (a static
symmetric doubly stochastic matrix gives the whole profile from its
spectrum).  Everything here, the strong-connectivity search included, runs
on numpy alone.

Agent ids are 1-based in the public API.  An edge ``(j, i)`` means agent i
receives from agent j; matrices are indexed ``w[i-1, j-1]``.  A graph is
one read-only (n, n) boolean adjacency, ``adj[i-1, j-1]`` true for the edge
``(j, i)``: the builders fill it by fancy indexing, and the weight schemes,
support checks and graph equality read it as it is.  Validation stacks one
period's matrices and supports into (P, n, n) arrays and checks every
window of the period on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ._checks import _is_integer, check_array, check_count, check_seed


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True, init=False, eq=False)
class Digraph:
    """Directed communication graph on agents 1..n with all self-loops.

    Held as one read-only (n, n) boolean adjacency (see :meth:`adjacency`);
    ``edges`` is derived from it.  Graphs are equal, and hash alike, when
    their adjacencies are.
    """

    n: int
    _adj: np.ndarray = field(repr=False)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = check_count("n", n, 1)
        j, i = _zero_based(n, edges).T
        adj = np.zeros((n, n), dtype=bool)
        adj[i, j] = True
        self._hold(adj)

    @classmethod
    def _from_adjacency(cls, adj: np.ndarray) -> "Digraph":
        """The graph of ``adj``, a fresh boolean array it takes over and freezes."""
        g = object.__new__(cls)
        g._hold(adj)
        return g

    def _hold(self, adj: np.ndarray) -> None:
        missing = np.flatnonzero(~adj.diagonal()) + 1
        if missing.size:
            raise ValueError(f"missing self-loops for agents {missing.tolist()}")
        adj.flags.writeable = False
        object.__setattr__(self, "n", len(adj))
        object.__setattr__(self, "_adj", adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge ``(j, i)``: agent i receives from agent j."""
        i, j = np.nonzero(self._adj)
        return frozenset(zip((j + 1).tolist(), (i + 1).tolist()))

    @property
    def is_symmetric(self) -> bool:
        return np.array_equal(self._adj, self._adj.T)

    def adjacency(self) -> np.ndarray:
        """Read-only boolean (n, n) matrix, ``adj[i-1, j-1]`` true iff i receives from j."""
        return self._adj


def _zero_based(n: int, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """``pairs`` of integer agent ids in 1..n as a (k, 2) array of 0-based ids."""
    ids = np.array(list(pairs) or np.empty((0, 2)), dtype=object)
    if ids.ndim != 2 or ids.shape[1] != 2:
        raise ValueError("edges must be pairs of agent ids")
    for a, b in ids:    # one by one: an intp array would truncate 1.5 and True
        if not (_is_integer(a) and _is_integer(b)):
            raise ValueError(f"edge ({a}, {b}): agent ids must be integers")
    out = ((ids < 1) | (ids > n)).any(axis=1)
    if out.any():
        a, b = ids[out][0].tolist()
        raise ValueError(f"edge ({a}, {b}) out of range 1..{n}")
    return ids.astype(np.intp) - 1


def _undirected(n: int, a: np.ndarray, b: np.ndarray) -> Digraph:
    """Self-loops plus both directions of each 0-based pair ``(a[k], b[k])``."""
    adj = np.eye(n, dtype=bool)
    adj[a, b] = adj[b, a] = True
    return Digraph._from_adjacency(adj)


def from_undirected_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Digraph:
    """Graph with self-loops plus both directions of each given pair."""
    n = check_count("n", n, 1)
    return _undirected(n, *_zero_based(n, pairs).T)


def complete_graph(n: int) -> Digraph:
    n = check_count("n", n, 1)
    return Digraph._from_adjacency(np.ones((n, n), dtype=bool))


def ring_graph(n: int) -> Digraph:
    """Undirected cycle 1-2-...-n-1 (n = 1 is just the self-loop)."""
    n = check_count("n", n, 1)
    i = np.arange(n)
    return _undirected(n, i, (i + 1) % n)


def generate_poisson_graph(n: int, p: float, rng) -> Digraph:
    """Random undirected graph: each pair linked independently with prob p.

    Self-loops are always present.  ``rng`` is a Generator or a seed under
    ``check_seed``.
    """
    n = check_count("n", n, 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    gen = np.random.default_rng(rng if isinstance(rng, np.random.Generator) else check_seed(rng))
    iu, ju = np.triu_indices(n, k=1)
    hit = gen.random(iu.size) < p
    return _undirected(n, iu[hit], ju[hit])


# ---------------------------------------------------------------------------
# weight matrices

@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Nonnegative weights whose support equals the graph's edge set."""

    graph: Digraph
    w: np.ndarray

    def __post_init__(self):
        w = check_array("weights", self.w, (self.graph.n, self.graph.n))
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        support = self.graph.adjacency()
        if not np.array_equal(w > 0, support):
            raise ValueError("weight support does not match the graph's edges")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "support", support)

    @property
    def n(self) -> int:
        return self.graph.n


def is_doubly_stochastic(w, tol: float = 1e-9) -> bool:
    """True if rows and columns all sum to 1 (within tol) and entries are >= 0."""
    mat = w.w if isinstance(w, WeightMatrix) else np.asarray(w, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    return bool(_doubly_stochastic(mat, tol))


def _doubly_stochastic(mats: np.ndarray, tol: float) -> np.ndarray:
    """Per (n, n) matrix of a stack: entries >= 0, row and column sums within tol of 1."""
    sums = np.concatenate([mats.sum(axis=-2), mats.sum(axis=-1)], axis=-1)
    return ~(mats < 0).any(axis=(-2, -1)) & (np.abs(sums - 1.0) <= tol).all(axis=-1)


def metropolis_weights(g: Digraph) -> WeightMatrix:
    """Doubly stochastic weights for a symmetric graph.

    Off-diagonal: ``1 / (1 + max(d_i, d_j))`` with d the self-loop-free
    degree; the diagonal absorbs the remainder.  Symmetry of the graph is
    required; the result is symmetric, hence doubly stochastic.
    """
    if not g.is_symmetric:
        raise ValueError("Metropolis weights need a symmetric graph")
    adj = g.adjacency()
    inv = 1.0 / adj.sum(axis=1)     # 1 / (1 + d): each row counts its self-loop
    w = np.where(adj, np.minimum(inv[:, None], inv[None, :]), 0.0)
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return WeightMatrix(g, w)


def degree_weights(g: Digraph) -> WeightMatrix:
    """Uniform weights ``1/|N_i|`` over each agent's in-neighborhood.

    Always row stochastic; on most graphs the columns do not sum to one, so
    the averaging guarantees (which assume double stochasticity) do not
    apply.  Check with :func:`is_doubly_stochastic`; preflight reports it.
    """
    adj = g.adjacency()
    return WeightMatrix(g, adj / adj.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True, eq=False)
class TopologySchedule:
    """A cycle of weight matrices: step k >= 1 uses ``weights[(k-1) mod period]``.

    Each matrix carries its graph.  One matrix makes a static schedule
    (``mode`` ``static``), more a periodic one (``periodic-list``).  ``B`` is
    the connectivity window length the schedule claims: the union graph over
    any B consecutive steps should be strongly connected (checked by
    :func:`validate_c4`, not assumed).
    """

    B: int
    weights: tuple[WeightMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        check_count("B", self.B, 1)
        if not self.weights:
            raise ValueError("a schedule needs at least one weight matrix")
        if len({wm.n for wm in self.weights}) != 1:
            raise ValueError("all weight matrices in a schedule must have the same size")

    @classmethod
    def static(cls, graph: Digraph, weights: WeightMatrix) -> "TopologySchedule":
        if weights.graph != graph:
            raise ValueError("weight matrix built on a different graph")
        return cls(B=1, weights=(weights,))

    @property
    def mode(self) -> str:
        return "static" if len(self.weights) == 1 else "periodic-list"

    @property
    def n_agents(self) -> int:
        return self.weights[0].n

    @property
    def period(self) -> int:
        return len(self.weights)

    def __getitem__(self, k: int) -> WeightMatrix:
        if k < 1:
            raise IndexError("steps are numbered from 1")
        return self.weights[(k - 1) % len(self.weights)]


def partitioned_ring_schedule(
    n: int,
    period: int,
    weight_fn: Callable[[Digraph], WeightMatrix] = metropolis_weights,
) -> TopologySchedule:
    """Ring split into ``period`` sparse phases; union over any window = ring.

    Phase r (1-based) carries the undirected ring edges (i, i mod n + 1)
    with i = r - 1 (mod period), so every window of ``period`` consecutive
    steps sees the whole ring and B = period.
    """
    n = check_count("n", n, 1)
    period = check_count("period", period, 1)
    if period > n:
        raise ValueError("period must lie in 1..n")
    starts = (np.arange(r, n, period) for r in range(period))
    phases = [_undirected(n, a, (a + 1) % n) for a in starts]
    return TopologySchedule(B=period, weights=[weight_fn(g) for g in phases])


# ---------------------------------------------------------------------------
# validation

def _strongly_connected(adj: np.ndarray) -> bool:
    """Whether the boolean adjacency ``adj`` (``adj[i, j]``: edge j -> i) is
    strongly connected: agent 1 reaches every agent and every agent reaches
    agent 1.  One frontier search over ``[[adj.T, 0], [0, adj]]`` from agent
    1 of each block runs both directions at once, O(n^2) in all.
    """
    n = len(adj)
    both = np.zeros((2 * n, 2 * n), dtype=bool)
    both[:n, :n] = adj.T        # row j: the agents j sends to
    both[n:, n:] = adj          # row i: the agents i receives from
    seen = np.zeros(2 * n, dtype=bool)
    seen[[0, n]] = True
    frontier = seen
    while frontier.any():
        frontier = both[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


@dataclass
class ValidationReport:
    """Outcome of the standing-assumption checks on one period of a schedule.

    Every step of the period starts one window, so ``steps_checked`` also
    counts the windows.  The entry floor is the smallest positive weight
    seen, so it always holds; it is reported as ``min_entry``.
    """

    steps_checked: int
    stochasticity_failures: list[int]   # steps whose weights are not doubly stochastic
    min_entry: float
    failed_windows: list[int]           # window start steps without strong connectivity

    @property
    def stochasticity_ok(self) -> bool:
        return not self.stochasticity_failures

    @property
    def connectivity_ok(self) -> bool:
        return not self.failed_windows

    @property
    def passed(self) -> bool:
        return self.stochasticity_ok and self.connectivity_ok

    def summary(self) -> str:
        bits = [
            f"steps checked: {self.steps_checked}",
            f"doubly stochastic: {'ok' if self.stochasticity_ok else f'failed at steps {self.stochasticity_failures}'}",
            f"entry floor {self.min_entry:g}: ok (min entry {self.min_entry:g})",
            f"connectivity over {self.steps_checked} windows: {'ok' if self.connectivity_ok else f'failed starts {self.failed_windows}'}",
        ]
        return "; ".join(bits)


def validate_c4(schedule: TopologySchedule) -> ValidationReport:
    """Check the standing network assumptions over one period of a schedule.

    Verifies that each step's weight matrix is doubly stochastic (see
    :func:`is_doubly_stochastic`), and that the union graph over every
    window of B consecutive steps, wrapping around the period (the schedule
    is infinite), is strongly connected.  A window longer than the period
    sees every step, so its union is the union over one period.  The
    period's matrices and supports are checked as two stacked (P, n, n)
    arrays.
    """
    weights = schedule.weights
    period = len(weights)
    mats = np.stack([wm.w for wm in weights])
    support = np.stack([wm.support for wm in weights])
    span = min(schedule.B, period)
    if span == period:      # every window sees the whole period
        unions = support.any(axis=0, keepdims=True)
    else:
        wrapped = np.concatenate([support, support[: span - 1]])
        unions = support.copy()
        for lag in range(1, span):
            unions |= wrapped[lag : lag + period]
    connected = [_strongly_connected(u) for u in unions]
    return ValidationReport(
        steps_checked=period,
        stochasticity_failures=(np.flatnonzero(~_doubly_stochastic(mats, 1e-9)) + 1).tolist(),
        min_entry=float(mats[support].min()),
        failed_windows=[k for k in range(1, period + 1) if not connected[(k - 1) % len(unions)]],
    )


# ---------------------------------------------------------------------------
# backward products

def deviation_profile(schedule: TopologySchedule, s: int, max_lag: int) -> np.ndarray:
    """Spectral-norm distances ``||W(s+lag) ... W(s) - (1/n) 11'||_2``.

    One entry per lag 0..max_lag; on schedules passing validation they decay
    geometrically in the lag.

    A static schedule whose matrix W is exactly symmetric, with row and
    column sums within n ulps of 1 (the rounding of an n-term sum), takes
    the spectral route: W commutes with J = 11'/n, so the distance at lag t
    is ``rho(W - J)**(t + 1)`` exactly, from one ``eigvalsh``.  The
    tolerance is tight because a matrix whose rows sum to 1 + d has an
    eigenvalue near 1 + d along 1, and its true distance then reads about
    ``(t + 1) d`` wherever that exceeds the power: validate_c4's 1e-9 would
    leave out 2e-7 at lag 200, where the preset-v profile is near 1e-9.
    Every other schedule (periodic ones, degree weights, matrices not
    stochastic to rounding) takes the backward product and one SVD per lag.
    """
    s = check_count("s", s, 1)
    max_lag = check_count("max_lag", max_lag, 0)
    n = schedule.n_agents
    avg = np.full((n, n), 1.0 / n)
    w = schedule.weights[0].w
    ulps = n * np.finfo(np.float64).eps
    if (
        schedule.period == 1
        and np.array_equal(w, w.T)
        and np.abs(w.sum(axis=1) - 1.0).max() <= ulps
        and np.abs(w.sum(axis=0) - 1.0).max() <= ulps
    ):
        rho = np.abs(np.linalg.eigvalsh(w - avg)).max()
        return rho ** np.arange(1, max_lag + 2)
    out = np.empty(max_lag + 1)
    prod = np.eye(n)
    for lag in range(max_lag + 1):
        prod = schedule[s + lag].w @ prod
        out[lag] = np.linalg.norm(prod - avg, 2)
    return out


@dataclass(frozen=True)
class GeometricFit:
    """Dominating envelope ``c * rho**lag`` fitted to a deviation profile."""

    c: float
    rho: float
    r_squared: float
    lags_used: int

    def envelope(self, lags) -> np.ndarray:
        return self.c * self.rho ** np.asarray(lags, dtype=np.float64)


_FIT_FLOOR = 1e-13


def fit_geometric_envelope(deviations: np.ndarray) -> GeometricFit:
    """Least-squares geometric fit to a deviation profile.

    Fits ``log dev = log c + lag log rho`` over entries above 1e-13
    (below that, float rounding dominates), then scales c up so the
    envelope dominates every fitted entry.  ``deviations`` is a nonempty
    vector of finite reals.
    """
    dev = check_array("deviations", deviations, (None,))
    lags = np.arange(dev.size)
    keep = dev > _FIT_FLOOR
    if keep.sum() < 2:
        raise ValueError("not enough resolvable deviations to fit")
    x, y = lags[keep], np.log(dev[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    rho = float(np.exp(slope))
    c = float(np.exp(intercept + resid.max()))  # shift up to dominate
    return GeometricFit(c=c, rho=rho, r_squared=r2, lags_used=int(keep.sum()))


# ---------------------------------------------------------------------------
# serialization

def dump_schedule(schedule: TopologySchedule, path) -> None:
    """Write a schedule as text: header ``n B mode``, then per-step blocks.

    Each block is a ``step <k>`` line followed by one ``j i w`` triple per
    positive weight (receiver i takes weight w from sender j).  Weights are
    written with repr so loading reproduces them bit for bit.
    """
    lines = [f"{schedule.n_agents} {schedule.B} {schedule.mode}"]
    for idx, wm in enumerate(schedule.weights, start=1):
        lines.append(f"step {idx}")
        for j, i in sorted(wm.graph.edges):
            lines.append(f"{j} {i} {float(wm.w[i - 1, j - 1])!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_schedule(path) -> TopologySchedule:
    """Inverse of :func:`dump_schedule`; blocks are headed ``step 1``, ``step 2``, ... in order."""
    with open(path, encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ValueError("empty schedule file")
    try:
        n, B, mode = raw[0].split()
        n, B = int(n), int(B)
    except ValueError:
        raise ValueError(f"bad header {raw[0]!r}; expected 'n B mode'") from None
    n = check_count("n", n, 1)

    blocks: list[dict[tuple[int, int], float]] = []
    for ln in raw[1:]:
        if ln.startswith("step "):
            blocks.append({})
            if ln.split() != ["step", str(len(blocks))]:
                raise ValueError(f"block {len(blocks)} is headed {ln!r}, not 'step {len(blocks)}'")
            continue
        try:
            j, i, w = ln.split()
            j, i, w = int(j), int(i), float(w)
        except ValueError:
            raise ValueError(f"bad triple line {ln!r}") from None
        if not blocks:
            raise ValueError("triple before any 'step' line")
        if not (1 <= j <= n and 1 <= i <= n):
            raise ValueError(f"agent id out of range 1..{n} in triple line {ln!r}")
        if (j, i) in blocks[-1]:
            raise ValueError(f"step {len(blocks)} lists the edge (j, i) = ({j}, {i}) twice")
        blocks[-1][(j, i)] = w

    weights = []
    for triples in blocks:
        j, i = _zero_based(n, triples).T
        w = np.zeros((n, n))
        w[i, j] = list(triples.values())
        weights.append(WeightMatrix(Digraph(n, triples), w))

    if mode not in ("static", "periodic-list"):
        raise ValueError(f"unknown mode {mode!r} in schedule file")
    if mode == "static" and len(weights) != 1:
        raise ValueError("static schedule must contain exactly one block")
    return TopologySchedule(B=B, weights=weights)
