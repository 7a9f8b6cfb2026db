"""Time-varying communication topology.

Directed graphs with mandatory self-loops, weight matrix constructions
(Metropolis and uniform-by-degree), schedules that cycle through a fixed
list of weight matrices, validation of the standing network assumptions
(per-step double stochasticity and windowed joint strong connectivity),
and backward products of the weight matrices whose deviation from the
averaging matrix decays geometrically on validated schedules.  Everything
here, the strong-connectivity search included, runs on numpy alone.

Agent ids are 1-based in the public API.  An edge ``(j, i)`` means agent i
receives from agent j; matrices are indexed ``w[i-1, j-1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .streams import as_generator


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class Digraph:
    """Directed communication graph on agents 1..n with all self-loops."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        edges = frozenset((int(j), int(i)) for j, i in self.edges)
        object.__setattr__(self, "edges", edges)
        for j, i in edges:
            if not (1 <= j <= self.n and 1 <= i <= self.n):
                raise ValueError(f"edge ({j}, {i}) out of range 1..{self.n}")
        missing = [i for i in range(1, self.n + 1) if (i, i) not in edges]
        if missing:
            raise ValueError(f"missing self-loops for agents {missing}")

    @property
    def is_symmetric(self) -> bool:
        return all((i, j) in self.edges for j, i in self.edges)

    def adjacency(self) -> np.ndarray:
        """Boolean (n, n) matrix, ``adj[i-1, j-1]`` true iff i receives from j."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for j, i in self.edges:
            adj[i - 1, j - 1] = True
        return adj


def from_undirected_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> Digraph:
    """Graph with self-loops plus both directions of each given pair."""
    edges = {(i, i) for i in range(1, n + 1)}
    for a, b in pairs:
        edges.update(((a, b), (b, a)))
    return Digraph(n, frozenset(edges))


def complete_graph(n: int) -> Digraph:
    return from_undirected_pairs(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


def ring_graph(n: int) -> Digraph:
    """Undirected cycle 1-2-...-n-1 (n >= 2; n = 1 is just the self-loop)."""
    if n == 1:
        return from_undirected_pairs(1, [])
    return from_undirected_pairs(n, [(i, i % n + 1) for i in range(1, n + 1)])


def generate_poisson_graph(n: int, p: float, rng) -> Digraph:
    """Random undirected graph: each pair linked independently with prob p.

    Self-loops are always present.  ``rng`` may be a seed or Generator.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    gen = as_generator(rng)
    iu, ju = np.triu_indices(n, k=1)
    hit = gen.random(iu.size) < p
    pairs = [(int(a) + 1, int(b) + 1) for a, b in zip(iu[hit], ju[hit])]
    return from_undirected_pairs(n, pairs)


# ---------------------------------------------------------------------------
# weight matrices

@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Nonnegative weights whose support equals the graph's edge set."""

    graph: Digraph
    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)
        n = self.graph.n
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} != ({n}, {n})")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        support = w > 0
        adj = self.graph.adjacency()
        if not np.array_equal(support, adj):
            raise ValueError("weight support does not match the graph's edges")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        support.flags.writeable = False
        object.__setattr__(self, "support", support)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def min_positive_entry(self) -> float:
        return float(self.w[self.support].min())


def is_doubly_stochastic(w, tol: float = 1e-9) -> bool:
    """True if rows and columns all sum to 1 (within tol) and entries are >= 0."""
    mat = w.w if isinstance(w, WeightMatrix) else np.asarray(w, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if np.any(mat < 0):
        return False
    return bool(
        np.all(np.abs(mat.sum(axis=0) - 1.0) <= tol)
        and np.all(np.abs(mat.sum(axis=1) - 1.0) <= tol)
    )


def metropolis_weights(g: Digraph) -> WeightMatrix:
    """Doubly stochastic weights for a symmetric graph.

    Off-diagonal: ``1 / (1 + max(d_i, d_j))`` with d the self-loop-free
    degree; the diagonal absorbs the remainder.  Symmetry of the graph is
    required; the result is symmetric, hence doubly stochastic.
    """
    if not g.is_symmetric:
        raise ValueError("Metropolis weights need a symmetric graph")
    adj = g.adjacency()
    off = adj.copy()
    np.fill_diagonal(off, False)
    deg = off.sum(axis=1)
    pair_max = np.maximum(deg[:, None], deg[None, :])
    with np.errstate(divide="ignore"):
        w = np.where(off, 1.0 / (1.0 + pair_max), 0.0)
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
        if self.B < 1:
            raise ValueError("B must be >= 1")
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
    if not 1 <= period <= n:
        raise ValueError("period must lie in 1..n")
    phases = (
        from_undirected_pairs(n, [(i, i % n + 1) for i in range(1, n + 1) if (i - 1) % period == r])
        for r in range(period)
    )
    return TopologySchedule(B=period, weights=[weight_fn(g) for g in phases])


# ---------------------------------------------------------------------------
# validation

def _strongly_connected(adj: np.ndarray) -> bool:
    """Whether the boolean adjacency ``adj`` (``adj[i, j]``: edge j -> i) is
    strongly connected: agent 1 reaches every agent and every agent reaches
    agent 1.  Each direction is one frontier search, O(n^2) in all.
    """
    for a in (adj, adj.T):
        seen = np.zeros(a.shape[0], dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():
            frontier = a[:, frontier].any(axis=1) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


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
    sees every step, so its union is the union over one period.
    """
    weights = schedule.weights
    steps = range(1, len(weights) + 1)
    span = min(schedule.B, len(weights))
    failed_windows = [
        start
        for start in steps
        if not _strongly_connected(
            np.logical_or.reduce([schedule[k].support for k in range(start, start + span)])
        )
    ]
    return ValidationReport(
        steps_checked=len(weights),
        stochasticity_failures=[k for k, wm in zip(steps, weights) if not is_doubly_stochastic(wm)],
        min_entry=min(wm.min_positive_entry for wm in weights),
        failed_windows=failed_windows,
    )


# ---------------------------------------------------------------------------
# backward products

def deviation_profile(schedule: TopologySchedule, s: int, max_lag: int) -> np.ndarray:
    """Spectral-norm distances ``||W(s+lag) ... W(s) - (1/n) 11'||_2``.

    One entry per lag 0..max_lag; on schedules passing validation they decay
    geometrically in the lag.
    """
    if s < 1 or max_lag < 0:
        raise ValueError(f"need s >= 1 and max_lag >= 0, got s={s}, max_lag={max_lag}")
    n = schedule.n_agents
    avg = np.full((n, n), 1.0 / n)
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
    envelope dominates every fitted entry.
    """
    dev = np.asarray(deviations, dtype=np.float64)
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
    """Inverse of :func:`dump_schedule`."""
    with open(path, encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ValueError("empty schedule file")
    head = raw[0].split()
    if len(head) != 3:
        raise ValueError(f"bad header {raw[0]!r}; expected 'n B mode'")
    n, B, mode = int(head[0]), int(head[1]), head[2]

    blocks: list[list[tuple[int, int, float]]] = []
    for ln in raw[1:]:
        if ln.startswith("step "):
            blocks.append([])
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad triple line {ln!r}")
        if not blocks:
            raise ValueError("triple before any 'step' line")
        j, i = int(parts[0]), int(parts[1])
        if not (1 <= j <= n and 1 <= i <= n):
            raise ValueError(f"agent id out of range 1..{n} in triple line {ln!r}")
        blocks[-1].append((j, i, float(parts[2])))

    weights = []
    for triples in blocks:
        w = np.zeros((n, n))
        for j, i, wv in triples:
            w[i - 1, j - 1] = wv
        weights.append(WeightMatrix(Digraph(n, frozenset((j, i) for j, i, _ in triples)), w))

    if mode not in ("static", "periodic-list"):
        raise ValueError(f"unknown mode {mode!r} in schedule file")
    if mode == "static" and len(weights) != 1:
        raise ValueError("static schedule must contain exactly one block")
    return TopologySchedule(B=B, weights=weights)
