"""Slow loop-by-loop re-derivations used as oracles for the fast paths.

Everything here is written straight from the update rules with plain
Python loops, dicts, and math.sqrt -- no shared helpers, no vectorised
shortcuts -- so a bug in the optimised code cannot hide in its mirror.
"""

import math

import numpy as np

from binident import ModelStreams


def reference_step(theta, sigma, w, phi_rows, y, a_k, radius=lambda m: m,
                   x_star=None, observations=None):
    """One synchronous round for all agents, agent by agent.

    theta: list of per-agent estimate lists; sigma: list of counters;
    w: row-stochastic weight matrix (entry > 0 marks an in-neighbor);
    phi_rows: per-agent regressor rows; y: per-agent true outputs;
    radius: truncation radius as a function of the adopted counter level;
    x_star: reset/substitution point (default: the origin), which lagging
    neighbors contribute in place of their estimate, a lagging agent takes
    as its candidate, and a truncated agent resets to;
    observations: raw per-agent correction rows O_i used in place of the
    sensed phi_i (1 - 2 z_i) (phi_rows and y are then not read).
    Returns (theta_next, sigma_next, n_truncated).
    """
    n = len(theta)
    l = len(theta[0])
    center = [0.0] * l if x_star is None else [float(v) for v in x_star]
    theta_next = []
    sigma_next = []
    truncated = 0
    for i in range(n):
        nbrs = [j for j in range(n) if w[i][j] > 0.0]
        shat = max(sigma[j] for j in nbrs)
        if sigma[i] == shat:
            cand = [0.0] * l
            for j in nbrs:
                source = theta[j] if sigma[j] == shat else center
                for m in range(l):
                    cand[m] += w[i][j] * source[m]
            if observations is None:
                c = sum(phi_rows[i][m] * theta[i][m] for m in range(l))
                z = 1 if y[i] < c else 0
                correction = [phi_rows[i][m] * (1 - 2 * z) for m in range(l)]
            else:
                correction = observations[i]
            for m in range(l):
                cand[m] += a_k * correction[m]
        else:
            cand = list(center)
        if math.sqrt(sum(v * v for v in cand)) > radius(shat):
            theta_next.append(list(center))
            sigma_next.append(shat + 1)
            truncated += 1
        else:
            theta_next.append(cand)
            sigma_next.append(shat)
    return theta_next, sigma_next, truncated


def reference_strongly_connected(n, edges):
    """Reachability both ways from agent 1 via breadth-first search."""

    def reach(adj):
        seen = {1}
        frontier = [1]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    fwd = {}
    bwd = {}
    for j, i in edges:
        fwd.setdefault(j, []).append(i)
        bwd.setdefault(i, []).append(j)
    everyone = set(range(1, n + 1))
    return reach(fwd) == everyone and reach(bwd) == everyone


def reference_poisson_edges(n, p, seed):
    """Edge set of ``generate_poisson_graph(n, p, seed)``, pair by pair.

    The draws are the same: one uniform per pair of ``np.triu_indices(n, 1)``,
    in that order, and a pair is linked when its draw is below p.
    """
    iu, ju = np.triu_indices(n, k=1)
    draws = np.random.default_rng(seed).random(iu.size)
    edges = {(i, i) for i in range(1, n + 1)}
    for a, b, u in zip(iu.tolist(), ju.tolist(), draws.tolist()):
        if u < p:
            edges.add((a + 1, b + 1))
            edges.add((b + 1, a + 1))
    return frozenset(edges)


def reference_partitioned_ring_edges(n, period):
    """Edge set of each phase of ``partitioned_ring_schedule(n, period)``."""
    phases = []
    for r in range(period):
        edges = {(i, i) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            if (i - 1) % period == r:
                edges.add((i, i % n + 1))
                edges.add((i % n + 1, i))
        phases.append(frozenset(edges))
    return phases


def reference_metropolis(n, edges):
    """Metropolis weights of a symmetric edge set, entry by entry.

    The diagonal is 1 minus the row's numpy sum: the fast path reduces each
    row with numpy's pairwise summation, whose order a plain loop does not
    reproduce bit for bit.
    """
    deg = {i: sum(1 for j, k in edges if k == i and j != i) for i in range(1, n + 1)}
    w = [[0.0] * n for _ in range(n)]
    for j, i in edges:
        if j != i:
            w[i - 1][j - 1] = 1.0 / (1 + max(deg[i], deg[j]))
    for i in range(n):
        w[i][i] = 1.0 - float(np.sum(np.array(w[i])))
    return np.array(w)


def reference_degree_weights(n, edges):
    """Uniform in-neighborhood weights ``1/|N_i|`` of an edge set, entry by entry."""
    size = {i: sum(1 for j, k in edges if k == i) for i in range(1, n + 1)}
    w = [[0.0] * n for _ in range(n)]
    for j, i in edges:
        w[i - 1][j - 1] = 1 / size[i]
    return np.array(w)


def reference_validation(schedule):
    """(stochasticity failures, smallest positive entry, failed window starts)
    of one period, step by step and window by window.

    Each window is the literal run of B steps from its start, read through
    the schedule's own wrapping, so windows longer than the period need no
    special case here.
    """
    n = schedule.n_agents
    stochastic_failures = []
    entries = []
    failed = []
    for start in range(1, schedule.period + 1):
        w = schedule[start].w.tolist()
        entries += [v for row in w for v in row if v > 0]
        sums = [sum(row) for row in w] + [sum(w[r][c] for r in range(n)) for c in range(n)]
        if any(v < 0 for row in w for v in row) or any(abs(s - 1.0) > 1e-9 for s in sums):
            stochastic_failures.append(start)
        edges = set()
        for k in range(start, start + schedule.B):
            step = schedule[k].w.tolist()
            edges |= {(j + 1, i + 1) for i in range(n) for j in range(n) if step[i][j] > 0}
        if not reference_strongly_connected(n, edges):
            failed.append(start)
    return stochastic_failures, min(entries), failed


def reference_backward_product(mats):
    """Ordered product W(k) ... W(s) given [W(s), ..., W(k)] in time order."""
    n = len(mats[0])
    prod = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    for w in mats:  # prod <- w @ prod
        out = [[0.0] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                acc = 0.0
                for t in range(n):
                    acc += w[r][t] * prod[t][c]
                out[r][c] = acc
        prod = out
    return prod


def reference_deviation_profile(schedule, s, max_lag):
    """``topology.deviation_profile`` as it was before the spectral route:
    the backward product over every schedule, one SVD per lag."""
    n = schedule.n_agents
    avg = np.full((n, n), 1.0 / n)
    out = np.empty(max_lag + 1)
    prod = np.eye(n)
    for lag in range(max_lag + 1):
        prod = schedule[s + lag].w @ prod
        out[lag] = np.linalg.norm(prod - avg, 2)
    return out


def reference_centred_profile(w, max_lag):
    """Distances ``||(W - J)^(lag+1)||_2`` of one doubly stochastic W.

    Equal to the backward-product profile in exact arithmetic, since
    ``W^t - J = (W - J)^t`` when W1 = 1 = W'1.  In floating point the
    centred product has no component along 1 to drift, so it stays
    accurate where the plain product's rounding shows.
    """
    n = len(w)
    centred = w - np.full((n, n), 1.0 / n)
    out = np.empty(max_lag + 1)
    prod = np.eye(n)
    for lag in range(max_lag + 1):
        prod = centred @ prod
        out[lag] = np.linalg.norm(prod, 2)
    return out


def reference_consensus_gap(theta):
    """Root of the summed squared distances from the plain average."""
    n = len(theta)
    l = len(theta[0])
    mean = [sum(theta[i][m] for i in range(n)) / n for m in range(l)]
    total = 0.0
    for i in range(n):
        for m in range(l):
            total += (theta[i][m] - mean[m]) ** 2
    return math.sqrt(total)


class ScriptedStreams:
    """Hand-fed draws so step traces are exact (duck-types ModelStreams)."""

    def __init__(self, l, phi_rows, noises):
        from binident import PhiBatch

        self._batch = PhiBatch
        self.l = l
        self.phi = [np.asarray(p, dtype=np.float64).reshape(-1, l) for p in phi_rows]
        self.noise = [np.atleast_1d(np.asarray(d, dtype=np.float64)) for d in noises]
        self._i = 0

    def phi_step(self, k):
        return self._batch(l=self.l, dense=self.phi[self._i])

    def noise_step(self):
        d = self.noise[self._i]
        self._i += 1
        return d


class ReferenceTrajectoryRecorder:
    """The row-at-a-time trajectory recorder, each metric from one snapshot.

    Same sink contract as ``TrajectoryRecorder``: a row at the initial
    snapshot, at every step divisible by ``stride`` and at the final
    snapshot.  Each row is reduced on its own with the per-snapshot
    formulas, written out here rather than imported.
    """

    def __init__(self, theta_star, stride=1, record_agent_errors=False,
                 record_theta_bar=False):
        self.theta_star = np.array(theta_star, dtype=np.float64)
        self.stride = int(stride)
        self.record_agent_errors = record_agent_errors
        self.record_theta_bar = record_theta_bar
        self._rows = []

    def _append(self, snap):
        theta = snap.theta
        dev = theta - theta.mean(axis=0, keepdims=True)
        bar_diff = theta.mean(axis=0) - self.theta_star
        row = [
            snap.k,
            snap.ledger.sigma_max,
            float(np.sqrt((dev * dev).sum())),
            float(np.sqrt(bar_diff @ bar_diff)),
        ]
        if self.record_agent_errors:
            diff = theta - self.theta_star[None, :]
            row.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
        if self.record_theta_bar:
            row.append(theta.mean(axis=0))
        self._rows.append(tuple(row))

    def __call__(self, prev, new):
        if not self._rows:
            self._append(prev)
        if new.k % self.stride == 0:
            self._append(new)

    def metrics(self, final):
        from binident import Metrics

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


def reference_write_trajectory_csv(metrics, path):
    """Trajectory CSV written value by value with ``repr(float(v))``."""
    cols = ["k", "sigma_max", "consensus_gap", "mean_error"]
    n_err = metrics.agent_errors.shape[1] if metrics.agent_errors is not None else 0
    n_bar = metrics.theta_bar.shape[1] if metrics.theta_bar is not None else 0
    cols += [f"err_{i}" for i in range(1, n_err + 1)]
    cols += [f"theta_bar_{j}" for j in range(1, n_bar + 1)]
    lines = [",".join(cols)]
    for r in range(metrics.n_rows):
        parts = [
            str(int(metrics.k[r])),
            str(int(metrics.sigma_max[r])),
            repr(float(metrics.consensus_gap[r])),
            repr(float(metrics.mean_error[r])),
        ]
        if n_err:
            parts += [repr(float(v)) for v in metrics.agent_errors[r]]
        if n_bar:
            parts += [repr(float(v)) for v in metrics.theta_bar[r]]
        lines.append(",".join(parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _per_agent_grid(model, theta, nodes):
    x, wq = np.polynomial.legendre.leggauss(nodes)
    sup = model.supports
    delta = np.asarray(theta, dtype=np.float64)[sup] - model.theta_star[sup]
    return np.outer(delta, x), x, wq, sup


def reference_regression_function(model, theta, nodes):
    """The mean correction field of a sparse model on the (agents, nodes) grid.

    Each agent's quadrature row is evaluated on its own, then summed into
    its coordinate.  Vectorised on purpose: this is the per-agent form the
    per-coordinate evaluation must match bit for bit, so it keeps that
    form's product and summation order.
    """
    args, x, wq, sup = _per_agent_grid(model, theta, nodes)
    out = np.zeros(model.l)
    np.add.at(out, sup, ((1.0 - 2.0 * model.noise.cdf(args)) * (0.5 * x)) @ wq)
    return out


def reference_regression_jacobian(model, theta, nodes):
    """-df/dtheta of a sparse model on the (agents, nodes) grid (see above)."""
    args, x, wq, sup = _per_agent_grid(model, theta, nodes)
    diag = np.zeros(model.l)
    np.add.at(diag, sup, (model.noise.pdf(args) * (x * x)) @ wq)
    return np.diag(diag)


def reference_regression_function_mc(model, theta, samples, rng):
    """Monte Carlo mean and standard error of f for a sparse model.

    The per-sample form that ``analysis.regression_function_mc`` replaced:
    a ``(chunk, l)`` array filled column by column with
    ``sign_pm(eta t*_m + d - eta theta_m)``, reduced by ``sum(axis=0)``.
    ``rng`` is a Generator, consumed as the fast path consumes it.
    """
    tstar, sup, l = model.theta_star, model.supports, model.l
    theta = np.asarray(theta, dtype=np.float64)
    total, total_sq = np.zeros(l), np.zeros(l)
    done = 0
    while done < samples:
        chunk = min(1 << 16, samples - done)
        x_rows = np.zeros((chunk, l))
        for i in range(model.n_agents):
            d = model.noise.sample(rng, chunk)
            m = sup[i]
            eta = model.regressor.draw(rng, chunk)
            s = np.where(eta * tstar[m] + d - eta * theta[m] >= 0, 1.0, -1.0)
            x_rows[:, m] += eta * s
        total += x_rows.sum(axis=0)
        total_sq += (x_rows * x_rows).sum(axis=0)
        done += chunk
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0)
    return mean, np.sqrt(var / samples)


def reference_centralized_baseline(model, steps, seed, record_every=1):
    """The fused-bit baseline as ``oracle.centralized_baseline`` first wrote it.

    The form it replaced: one ``PhiBatch`` per step through ``phi_step`` and
    ``noise_step``, the bit as ``1 - 2 (y < c)``, pooled by ``bincount``
    (sparse) or ``phi' signs`` (dense).
    """
    streams = ModelStreams(model, seed)
    l = model.l
    theta = np.zeros(l)
    sigma = 0
    traj = [theta.copy()]
    for k in range(1, steps + 1):
        phi = streams.phi_step(k)
        d = streams.noise_step()
        c = phi.thresholds_common(theta)
        y = phi.outputs(model.theta_star, d)
        signs = 1.0 - 2.0 * (y < c)
        if phi.is_sparse:
            pooled = np.bincount(phi.support, weights=phi.eta * signs, minlength=l)
        else:
            pooled = phi.dense.T @ signs
        cand = theta + pooled * (1.0 / k)
        if float(cand @ cand) > float(sigma) ** 2:
            theta = np.zeros(l)
            sigma += 1
        else:
            theta = cand
        if k % record_every == 0 or k == steps:
            traj.append(theta.copy())
    return np.array(traj)


# The numpy draws the built-in samplers replaced by in-place fills.

def reference_gaussian_sample(noise, rng, size):
    return rng.normal(0.0, noise.sigma, size)


def reference_uniform_noise_sample(noise, rng, size):
    return rng.uniform(-noise.half_width, noise.half_width, size)


def reference_sparse_draw(gen, rng, size):
    return rng.uniform(-1.0, 1.0, size)


def reference_dense_draw(gen, rng, size):
    return rng.uniform(-1.0, 1.0, (size, gen.l)) * (gen.bound / math.sqrt(gen.l))
