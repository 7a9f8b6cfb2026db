"""Experiment orchestration: config files, preflight, runs, outputs.

A run is described by an INI config (sections [run], [model], [topology],
[regressor], [noise], [record], [algorithm]).  ``run_experiment`` validates
the setup, simulates with per-seed reproducible streams, and emits
``trajectory.csv`` (strided metrics; repr-formatted floats, so parsing
reproduces the in-memory values exactly) plus ``summary.json``.

The experiment seed is split once: ``SeedSequence(seed).spawn(2)`` feeds
(topology sampling, model streams), so the same seed always reproduces both
the random graph and the draws.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import (
    Metrics,
    TrajectoryRecorder,
    consensus_gap,
    estimation_errors,
    mean_error,
    mean_estimate,
)
from .identifier import (
    InvariantMonitor,
    NetworkSnapshot,
    check_gain,
    check_radii,
    run,
    sigma_settled,
)
from .plant import (
    DenseUniformRegressors,
    SparseUniformRegressors,
    SystemModel,
    graded_theta_star,
    make_noise,
)
from .streams import ModelStreams
from .topology import (
    TopologySchedule,
    ValidationReport,
    complete_graph,
    degree_weights,
    generate_poisson_graph,
    load_schedule,
    metropolis_weights,
    partitioned_ring_schedule,
    ring_graph,
    validate_c4,
)

_TOPOLOGY_KINDS = ("poisson", "complete", "ring", "partitioned-ring", "file")
_WEIGHT_SCHEMES = ("metropolis", "degree")
_REGRESSOR_KINDS = ("sparse-uniform", "dense-uniform")
_NOISE_PARAM_KEYS = ("sigma2", "scale", "half_width")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one simulation run."""

    n_agents: int
    l: int
    steps: int
    seed: int
    stride: int = 100
    out: str | None = None
    theta_star: object = "graded"          # "graded" or a sequence of l reals
    topology_kind: str = "poisson"
    p: float = 0.06
    period: int | None = None
    schedule_file: str | None = None
    weights: str = "metropolis"
    window: int | None = None              # override the schedule's claimed B
    regressor_kind: str = "sparse-uniform"
    regressor_bound: float = 1.0
    noise_kind: str = "gaussian"
    noise_params: dict = field(default_factory=lambda: {"sigma2": 0.09})
    record_theta_bar: bool = True
    record_agent_errors: bool = False
    gain: float = 1.0                      # a in the gain a/k
    radii: str = "linear"                  # truncation radii: linear M_m = m, doubling 2^m

    def resolved_theta_star(self) -> np.ndarray:
        if isinstance(self.theta_star, str):
            if self.theta_star != "graded":
                raise ValueError(f"model.theta_star: unknown preset {self.theta_star!r}")
            return graded_theta_star(self.l)
        theta = np.asarray(self.theta_star, dtype=np.float64)
        if theta.shape != (self.l,):
            raise ValueError(f"model.theta_star: expected {self.l} entries, got {theta.size}")
        if not np.isfinite(theta).all():
            raise ValueError(f"model.theta_star: entries must be finite, got {theta.tolist()}")
        return theta

    def to_dict(self) -> dict:
        d = {
            "n_agents": self.n_agents,
            "l": self.l,
            "steps": self.steps,
            "seed": self.seed,
            "stride": self.stride,
            "theta_star": self.theta_star
            if isinstance(self.theta_star, str)
            else [float(v) for v in self.theta_star],
            "topology": {
                "kind": self.topology_kind,
                "p": self.p,
                "period": self.period,
                "file": self.schedule_file,
                "weights": self.weights,
                "window": self.window,
            },
            "regressor": {"kind": self.regressor_kind, "bound": self.regressor_bound},
            "noise": {"kind": self.noise_kind, **self.noise_params},
            "record": {
                "theta_bar": self.record_theta_bar,
                "agent_errors": self.record_agent_errors,
            },
            "algorithm": {"gain": self.gain, "radii": self.radii},
        }
        return d

    # -- INI round trip ------------------------------------------------

    @classmethod
    def from_ini(cls, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        found = cp.read(path)
        if not found:
            raise ValueError(f"config file not found: {path}")

        def need(section: str, key: str, cast):
            if not cp.has_option(section, key):
                raise ValueError(f"{section}.{key}: required key is missing")
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except ValueError:
                raise ValueError(f"{section}.{key}: cannot parse {raw!r}") from None

        def opt(section: str, key: str, cast, default):
            if not cp.has_option(section, key):
                return default
            return need(section, key, cast)

        def to_bool(raw: str) -> bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")

        theta_raw = opt("model", "theta_star", str, "graded").strip()
        if theta_raw == "graded":
            theta: object = "graded"
        else:
            try:
                theta = tuple(float(v) for v in theta_raw.replace(",", " ").split())
            except ValueError:
                raise ValueError(f"model.theta_star: cannot parse {theta_raw!r}") from None

        noise_kind = opt("noise", "kind", str, "gaussian")
        noise_params = {}
        for key in _NOISE_PARAM_KEYS:
            if cp.has_option("noise", key):
                noise_params[key] = need("noise", key, float)
        if not noise_params:
            noise_params = {"sigma2": 0.09}

        cfg = cls(
            n_agents=need("model", "n_agents", int),
            l=need("model", "l", int),
            steps=need("run", "steps", int),
            seed=need("run", "seed", int),
            stride=opt("run", "stride", int, 100),
            out=opt("run", "out", str, None),
            theta_star=theta,
            topology_kind=opt("topology", "kind", str, "poisson"),
            p=opt("topology", "p", float, 0.06),
            period=opt("topology", "period", int, None),
            schedule_file=opt("topology", "file", str, None),
            weights=opt("topology", "weights", str, "metropolis"),
            window=opt("topology", "B", int, None),
            regressor_kind=opt("regressor", "kind", str, "sparse-uniform"),
            regressor_bound=opt("regressor", "bound", float, 1.0),
            noise_kind=noise_kind,
            noise_params=noise_params,
            record_theta_bar=opt("record", "theta_bar", to_bool, True),
            record_agent_errors=opt("record", "agent_errors", to_bool, False),
            gain=opt("algorithm", "gain", float, 1.0),
            radii=opt("algorithm", "radii", str, "linear"),
        )
        return cfg

    def to_ini(self, path) -> None:
        cp = configparser.ConfigParser()
        cp["run"] = {"steps": str(self.steps), "seed": str(self.seed), "stride": str(self.stride)}
        if self.out is not None:
            cp["run"]["out"] = str(self.out)
        theta = (
            self.theta_star
            if isinstance(self.theta_star, str)
            else ", ".join(repr(float(v)) for v in self.theta_star)
        )
        cp["model"] = {"n_agents": str(self.n_agents), "l": str(self.l), "theta_star": theta}
        topo = {"kind": self.topology_kind, "weights": self.weights}
        if self.topology_kind == "poisson":
            topo["p"] = repr(self.p)
        if self.period is not None:
            topo["period"] = str(self.period)
        if self.schedule_file is not None:
            topo["file"] = str(self.schedule_file)
        if self.window is not None:
            topo["B"] = str(self.window)
        cp["topology"] = topo
        cp["regressor"] = {"kind": self.regressor_kind, "bound": repr(self.regressor_bound)}
        cp["noise"] = {"kind": self.noise_kind}
        for key, val in self.noise_params.items():
            cp["noise"][key] = repr(float(val))
        cp["record"] = {
            "theta_bar": str(self.record_theta_bar).lower(),
            "agent_errors": str(self.record_agent_errors).lower(),
        }
        cp["algorithm"] = {"gain": repr(float(self.gain)), "radii": self.radii}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            cp.write(fh)


# ---------------------------------------------------------------------------
# building and validating

def build_model(cfg: ExperimentConfig) -> SystemModel:
    if cfg.regressor_kind not in _REGRESSOR_KINDS:
        raise ValueError(
            f"regressor.kind: unknown kind {cfg.regressor_kind!r}; config files support "
            f"{_REGRESSOR_KINDS} (custom hooks are library-level)"
        )
    theta = cfg.resolved_theta_star()
    if cfg.regressor_kind == "sparse-uniform":
        if cfg.regressor_bound != 1:
            raise ValueError(
                "regressor.bound: sparse-uniform regressors have norm bound 1, "
                f"got {cfg.regressor_bound!r}"
            )
        gen: object = SparseUniformRegressors(cfg.l)
    elif not (np.isfinite(cfg.regressor_bound) and cfg.regressor_bound > 0):
        raise ValueError(
            f"regressor.bound: must be finite and positive, got {cfg.regressor_bound!r}"
        )
    else:
        gen = DenseUniformRegressors(cfg.l, cfg.regressor_bound)
    try:
        noise = make_noise(cfg.noise_kind, **cfg.noise_params)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"noise: {exc}") from None
    return SystemModel(theta, gen, noise, cfg.n_agents)


def build_schedule(cfg: ExperimentConfig, topology_seed) -> TopologySchedule:
    if cfg.weights not in _WEIGHT_SCHEMES:
        raise ValueError(f"topology.weights: unknown scheme {cfg.weights!r}")
    if cfg.weights == "metropolis":
        weight_fn = metropolis_weights
    else:
        weight_fn = lambda g: degree_weights(g)[0]  # noqa: E731

    kind = cfg.topology_kind
    if kind == "poisson":
        g = generate_poisson_graph(cfg.n_agents, cfg.p, topology_seed)
        sched = TopologySchedule.static(g, weight_fn(g))
    elif kind == "complete":
        g = complete_graph(cfg.n_agents)
        sched = TopologySchedule.static(g, weight_fn(g))
    elif kind == "ring":
        g = ring_graph(cfg.n_agents)
        sched = TopologySchedule.static(g, weight_fn(g))
    elif kind == "partitioned-ring":
        if cfg.period is None:
            raise ValueError("topology.period: required for partitioned-ring")
        sched = partitioned_ring_schedule(cfg.n_agents, cfg.period, weight_fn)
    elif kind == "file":
        if cfg.schedule_file is None:
            raise ValueError("topology.file: required for kind=file")
        sched = load_schedule(cfg.schedule_file)
        if sched.n_agents != cfg.n_agents:
            raise ValueError(
                f"topology.file: schedule has {sched.n_agents} agents, config says {cfg.n_agents}"
            )
    else:
        raise ValueError(f"topology.kind: unknown kind {kind!r}; one of {_TOPOLOGY_KINDS}")
    if cfg.window is not None:
        sched = replace(sched, B=cfg.window)
    return sched


@dataclass
class PreflightReport:
    """Pre-run validation outcome; ``errors`` name the failing config field."""

    errors: list[str]
    warnings: list[str]
    network: ValidationReport | None

    @property
    def ok(self) -> bool:
        return not self.errors

    def lines(self) -> list[str]:
        out = [f"preflight: {'ok' if self.ok else 'FAILED'}"]
        out += [f"  error: {e}" for e in self.errors]
        out += [f"  warning: {w}" for w in self.warnings]
        if self.network is not None:
            out.append(f"  network: {self.network.summary()}")
        return out


def preflight(
    cfg: ExperimentConfig,
    model: SystemModel | None = None,
    schedule: TopologySchedule | None = None,
) -> PreflightReport:
    """Static checks before a run: model sanity, excitation coverage, and
    the network assumptions (double stochasticity, entry floor, windowed
    strong connectivity).  Degree weights are only row stochastic on most
    graphs; that is downgraded to a warning since the scheme is an explicit
    user choice.
    """
    errors: list[str] = []
    warnings_: list[str] = []

    if model is None:
        try:
            model = build_model(cfg)
        except ValueError as exc:
            errors.append(str(exc))
    if schedule is None:
        try:
            schedule = build_schedule(cfg, np.random.SeedSequence(cfg.seed).spawn(2)[0])
        except ValueError as exc:
            errors.append(str(exc))

    if cfg.steps < 0:
        errors.append("run.steps: must be >= 0")
    if cfg.stride < 1:
        errors.append("run.stride: must be >= 1")
    for key, check, value in (("gain", check_gain, cfg.gain), ("radii", check_radii, cfg.radii)):
        try:
            check(value)
        except ValueError as exc:
            errors.append(f"algorithm.{key}: {exc}")
    if model is None or schedule is None:
        return PreflightReport(errors, warnings_, None)

    gen = model.regressor_for(1)
    if model.uniform_regressor_kind() == "sparse-uniform":
        covered = gen.coverage(model.n_agents)
        missing = sorted(set(range(1, model.l + 1)) - covered)
        if missing:
            errors.append(
                f"model.n_agents: sparse regressors leave coordinates {missing} unexcited"
            )

    for i in range(1, model.n_agents + 1):
        noise = model.noise_for(i)
        if abs(float(noise.cdf(0.0)) - 0.5) > 1e-12:
            errors.append(f"noise: agent {i} noise median is not zero")
            break
        if not float(noise.pdf(0.0)) > 0:
            errors.append(f"noise: agent {i} density vanishes at zero")
            break

    report = validate_c4(schedule)
    if not report.connectivity_ok:
        errors.append(
            f"topology: union over windows of B={schedule.B} steps is not strongly "
            f"connected (failed window starts {report.failed_windows})"
        )
    if not report.stochasticity_ok:
        msg = (
            f"topology.weights: steps {[s for s, _ in report.stochasticity_failures]} "
            "are not doubly stochastic"
        )
        if cfg.weights == "degree":
            warnings_.append(msg + " (degree scheme; averaging guarantees do not apply)")
        else:
            errors.append(msg)
    return PreflightReport(errors, warnings_, report)


# ---------------------------------------------------------------------------
# trajectory CSV

def write_trajectory_csv(metrics: Metrics, path) -> None:
    """Write metric rows; floats use repr so parsing restores them exactly."""
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


def read_trajectory_csv(path) -> Metrics:
    """Inverse of :func:`write_trajectory_csv`."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    base = ["k", "sigma_max", "consensus_gap", "mean_error"]
    if header[: len(base)] != base:
        raise ValueError(f"unexpected trajectory header: {lines[0]!r}")
    err_cols = [c for c in header if c.startswith("err_")]
    bar_cols = [c for c in header if c.startswith("theta_bar_")]
    rows = [ln.split(",") for ln in lines[1:]]
    if rows and any(len(r) != len(header) for r in rows):
        raise ValueError("ragged trajectory rows")
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    out = Metrics(
        k=data[:, 0].astype(np.int64),
        sigma_max=data[:, 1].astype(np.int64),
        consensus_gap=data[:, 2],
        mean_error=data[:, 3],
        agent_errors=data[:, 4 : 4 + len(err_cols)] if err_cols else None,
        theta_bar=data[:, 4 + len(err_cols) :] if bar_cols else None,
    )
    return out


# ---------------------------------------------------------------------------
# experiments

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    preflight: PreflightReport
    metrics: Metrics
    final: NetworkSnapshot
    summary: dict
    trajectory_path: Path | None = None
    summary_path: Path | None = None


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Validate, simulate, and (if ``cfg.out`` is set) write artifacts.

    Raises ValueError with field-named messages when preflight fails.
    Rerunning with the same config produces byte-identical trajectory.csv.
    """
    t0 = time.perf_counter()
    topology_ss, streams_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    model = build_model(cfg)
    schedule = build_schedule(cfg, topology_ss)
    pre = preflight(cfg, model, schedule)
    if not pre.ok:
        raise ValueError("invalid config:\n" + "\n".join(pre.errors))

    recorder = TrajectoryRecorder(
        model.theta_star,
        stride=cfg.stride,
        record_agent_errors=cfg.record_agent_errors,
        record_theta_bar=cfg.record_theta_bar,
    )
    monitor = InvariantMonitor(radii=cfg.radii)
    final = run(
        model,
        schedule,
        cfg.steps,
        streams=ModelStreams(model, streams_ss),
        sinks=(recorder, monitor),
        gain=cfg.gain,
        radii=cfg.radii,
    )
    metrics = recorder.metrics(final)

    theta_star = model.theta_star
    errs = estimation_errors(final, theta_star)
    norm_star = float(np.linalg.norm(theta_star))
    mean_err = mean_error(final, theta_star)
    summary = {
        "schema": "binident-summary-1",
        "config": cfg.to_dict(),
        "final": {
            "k": int(final.k),
            "mean_error": mean_err,
            "relative_mean_error": mean_err / norm_star if norm_star else float("nan"),
            "max_agent_error": float(errs.max()),
            "relative_max_agent_error": float(errs.max()) / norm_star if norm_star else float("nan"),
            "consensus_gap": consensus_gap(final),
            "peak_consensus_gap": float(metrics.consensus_gap.max()),
            "theta_bar": [float(v) for v in mean_estimate(final)],
            "sigma": [int(v) for v in final.sigma],
            "sigma_max": int(final.ledger.sigma_max),
            "sigma_settled_second_half": sigma_settled(final, cfg.steps),
            "truncation_events": int(final.ledger.truncation_events),
        },
        "invariants": {
            "ok": monitor.ok,
            "violation_count": monitor.count,
            "violations": monitor.violations,
        },
        "preflight": {
            "ok": pre.ok,
            "warnings": pre.warnings,
            "network": pre.network.summary() if pre.network else None,
        },
        "wall_time_s": time.perf_counter() - t0,
    }

    result = ExperimentResult(cfg, pre, metrics, final, summary)
    if cfg.out is not None:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.trajectory_path = out_dir / "trajectory.csv"
        result.summary_path = out_dir / "summary.json"
        write_trajectory_csv(metrics, result.trajectory_path)
        with open(result.summary_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=False)
            fh.write("\n")
    return result


def preset_v(
    seed: int,
    steps: int = 1_000_000,
    out: str | None = None,
    paper_weights: bool = False,
    stride: int = 100,
) -> ExperimentConfig:
    """Benchmark configuration: 100 agents, 8 parameters.

    Graded true parameter ``(1 + 0.1 j) sqrt(j)``, random pairwise topology
    with link probability 0.06, sparse one-coordinate regressors, Gaussian
    noise of variance 0.09.  Metropolis weights by default; with
    ``paper_weights`` the uniform by-degree scheme (row stochastic only).

    The recursion runs with gain 16/k and doubling radii M_m = 2^m.  Per
    coordinate the averaged correction has slope lambda ~ 0.106 at the root
    and saturates at 1/16 in size, so gain a/k needs a > 1/(2 lambda) ~ 4.7
    for the error to shrink like k^-1/2, and (a/16) ln k must exceed the
    largest target entry (5.09) for the estimate to get there at all;
    a = 16 covers it 2.7 times over in 10^6 steps.  Doubling radii clear
    ``||theta*|| = 9.47`` at counter 4 (linear radii would need 10 resets,
    each restarting from zero).  With the literal 1/k, M_m = m recursion the
    relative error after 10^6 steps is still about 0.88.
    """
    return ExperimentConfig(
        n_agents=100,
        l=8,
        steps=steps,
        seed=seed,
        stride=stride,
        out=out,
        theta_star="graded",
        topology_kind="poisson",
        p=0.06,
        weights="degree" if paper_weights else "metropolis",
        regressor_kind="sparse-uniform",
        noise_kind="gaussian",
        noise_params={"sigma2": 0.09},
        record_theta_bar=True,
        record_agent_errors=False,
        gain=16.0,
        radii="doubling",
    )
