"""Experiment orchestration: config files, preflight, runs, outputs.

A run is described by an INI config (sections [model], [run], [topology],
[regressor], [noise], [record], [algorithm]); one field table drives INI
reading, INI writing and the summary's config block.  ``preflight`` is the
one place that builds the model and schedule and checks them;
``run_experiment`` runs on what it built, with per-seed reproducible
streams, and emits
``trajectory.csv`` (strided metrics; repr-formatted floats, so parsing
reproduces the in-memory values exactly) plus ``summary.json``.

The experiment seed is split once: ``SeedSequence(seed).spawn(2)`` feeds
(topology sampling, model streams), so the same seed always reproduces both
the random graph and the draws.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._checks import _is_integer, _is_real, check_positive
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
    check_radii,
    run,
    sigma_settled,
)
from .plant import (
    _NOISE_KINDS,
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


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _parse_theta(raw: str) -> object:
    return raw if raw == "graded" else tuple(float(v) for v in raw.replace(",", " ").split())


def _is_theta(value) -> bool:
    """Whether ``value`` is "graded" or a tuple, list or 1-D array of reals."""
    if isinstance(value, str):
        return value == "graded"
    return (isinstance(value, (tuple, list, np.ndarray)) and getattr(value, "ndim", 1) == 1
            and all(_is_real(v) for v in value))


# One row per config field, in summary.json order: (INI section, INI key,
# attribute, parser, summary key).  A summary key "a.b" nests b in block a;
# None keeps the field out of the summary.  The noise parameters follow
# noise.kind and depend on it, so they are read and written outside the table.
_FIELDS = (
    ("model", "n_agents", "n_agents", int, "n_agents"),
    ("model", "l", "l", int, "l"),
    ("run", "steps", "steps", int, "steps"),
    ("run", "seed", "seed", int, "seed"),
    ("run", "stride", "stride", int, "stride"),
    ("run", "out", "out", str, None),
    ("model", "theta_star", "theta_star", _parse_theta, "theta_star"),
    ("topology", "kind", "topology_kind", str, "topology.kind"),
    ("topology", "p", "p", float, "topology.p"),
    ("topology", "period", "period", int, "topology.period"),
    ("topology", "file", "schedule_file", str, "topology.file"),
    ("topology", "weights", "weights", str, "topology.weights"),
    ("topology", "B", "window", int, "topology.window"),
    ("regressor", "kind", "regressor_kind", str, "regressor.kind"),
    ("regressor", "bound", "regressor_bound", float, "regressor.bound"),
    ("noise", "kind", "noise_kind", str, "noise.kind"),
    ("record", "theta_bar", "record_theta_bar", _parse_bool, "record.theta_bar"),
    ("record", "agent_errors", "record_agent_errors", _parse_bool, "record.agent_errors"),
    ("algorithm", "gain", "gain", float, "algorithm.gain"),
    ("algorithm", "radii", "radii", str, "algorithm.radii"),
)
_NOISE_PARAMS = tuple(f.name for cls in _NOISE_KINDS.values() for f in fields(cls))


# What a value of each parser's type must be in a config built in code (an
# INI value has been through its parser): the test, the error it gives, the
# value summary.json records (a numpy scalar as a plain number) and the INI
# text of that value.
_TYPE_CHECKS = {
    int: (_is_integer, "must be an integer", int, str),
    float: (_is_real, "must be a real number", float, repr),
    _parse_bool: (lambda value: isinstance(value, bool), "must be true or false", bool,
                  lambda v: str(v).lower()),
    str: (lambda value: isinstance(value, str), "must be a string", str, str),
    _parse_theta: (_is_theta, 'must be "graded" or a sequence of reals',
                   lambda v: v if isinstance(v, str) else [float(x) for x in v],
                   lambda v: v if isinstance(v, str) else ", ".join(map(repr, v))),
}


def _mistyped(cfg) -> dict[str, str]:
    """``section.key: must be ...`` for every config value of the wrong type.

    Keyed by attribute, or ``noise.<key>`` for a noise parameter (which must
    be real), in table order.  A real field or noise parameter that is NaN,
    an infinity or too large for a float is reported once, as ``must be
    finite``; so is an int in ``theta_star`` too large for a float.
    """
    optional = {f.name for f in fields(cfg) if f.default is None}
    rows = [
        (attr, f"{section}.{key}", parse, value)
        for section, key, attr, parse, _ in _FIELDS
        if (value := getattr(cfg, attr)) is not None or attr not in optional
    ]
    params = cfg.noise_params
    if isinstance(params, Mapping):
        rows += [(f"noise.{key}", f"noise.{key}", float, value) for key, value in params.items()]
    out = {}
    for attr, name, parse, value in rows:
        test, message, summary, _ = _TYPE_CHECKS[parse]
        if not test(value):
            out[attr] = f"{name}: {message}"
            continue
        try:
            summary(value)
            finite = parse is not float or math.isfinite(value)
        except OverflowError:   # a real too large for a float
            finite = False
        if not finite:
            out[attr] = f"{name}: must be finite"
    if not isinstance(params, Mapping):
        out["noise"] = "noise: parameters must be a mapping of names to reals"
    return out


_INI_ERRORS = (
    configparser.DuplicateOptionError, configparser.DuplicateSectionError,
    configparser.ParsingError,
)


def _ini_error(path, exc) -> ValueError:
    """One of the ``_INI_ERRORS`` as a ValueError naming the file and the line."""
    if isinstance(exc, configparser.DuplicateOptionError):
        lineno, what = exc.lineno, f"key {exc.section}.{exc.option} is set twice"
    elif isinstance(exc, configparser.DuplicateSectionError):
        lineno, what = exc.lineno, f"section [{exc.section}] appears twice"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        lineno, what = exc.lineno, "a key before the first [section] header"
    else:   # a ParsingError lists every line that did not parse
        lineno, what = exc.errors[0][0], "not a [section] header or a 'key = value' line"
    return ValueError(f"{path}, line {lineno}: {what}")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one simulation run.

    These field defaults are the only defaults: an INI key is required
    exactly when its field has none.
    """

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
    noise_params: dict = field(default_factory=lambda: {"sigma2": 0.09})  # for noise_kind's default
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
        d: dict = {}
        for _, _, attr, parse, summary_key in _FIELDS:
            if summary_key is None:
                continue
            value = getattr(self, attr)
            if value is not None:
                value = _TYPE_CHECKS[parse][2](value)
            block, _, name = summary_key.rpartition(".")
            (d.setdefault(block, {}) if block else d)[name] = value
        d["noise"].update({key: float(value) for key, value in self.noise_params.items()})
        return d

    # -- INI round trip ------------------------------------------------

    @classmethod
    def from_ini(cls, path) -> "ExperimentConfig":
        """Read an INI config; a file that does not parse raises ValueError naming its line."""
        cp = configparser.ConfigParser(interpolation=None)
        try:
            found = cp.read(path)
        except _INI_ERRORS as exc:
            raise _ini_error(path, exc) from None
        if not found:
            raise ValueError(f"config file not found: {path}")
        required = {
            f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
        }

        def parse(section: str, key: str, cast):
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except ValueError:
                raise ValueError(f"{section}.{key}: cannot parse {raw!r}") from None

        # option names are case-folded on reading, hence "topology.b"
        known = {(sec, key.lower()) for sec, key, *_ in _FIELDS}
        known |= {("noise", key) for key in _NOISE_PARAMS}
        unknown = [
            f"{sec}.{key}: unknown key"
            for sec in cp.sections()
            for key in cp.options(sec)
            if (sec, key) not in known
        ]
        if unknown:
            raise ValueError("\n".join(unknown))

        kwargs = {}
        for section, key, attr, cast, _ in _FIELDS:
            if cp.has_option(section, key):
                kwargs[attr] = parse(section, key, cast)
            elif attr in required:
                raise ValueError(f"{section}.{key}: required key is missing")
        cfg = cls(**kwargs)
        # only the default noise kind has default parameters
        params = {k: parse("noise", k, float) for k in _NOISE_PARAMS if cp.has_option("noise", k)}
        if params or cfg.noise_kind != cls.noise_kind:
            cfg.noise_params = params
        return cfg

    def to_ini(self, path) -> None:
        """Write the config as INI text; a mistyped field raises ValueError and writes nothing."""
        mistyped = _mistyped(self)
        if mistyped:
            raise ValueError("\n".join(mistyped.values()))
        sections: dict = {}
        for section, key, attr, parse, _ in _FIELDS:
            value = getattr(self, attr)
            if value is not None:
                _, _, summary, text = _TYPE_CHECKS[parse]
                sections.setdefault(section, {})[key] = text(summary(value))
        for key, val in self.noise_params.items():
            sections["noise"][key] = repr(float(val))
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_dict(sections)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            cp.write(fh)


# ---------------------------------------------------------------------------
# building and validating

def build_model(cfg: ExperimentConfig) -> SystemModel:
    if cfg.regressor_kind not in _REGRESSOR_KINDS:
        raise ValueError(
            f"regressor.kind: unknown kind {cfg.regressor_kind!r}; one of {_REGRESSOR_KINDS}"
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
    noise_cls = _NOISE_KINDS.get(cfg.noise_kind)   # an unknown kind fails in make_noise
    if noise_cls is not None:
        expected = sorted(f.name for f in fields(noise_cls))
        if sorted(cfg.noise_params) != expected:
            raise ValueError(
                f"noise.{expected[0]}: {cfg.noise_kind} noise takes {expected}, "
                f"got {sorted(cfg.noise_params)}"
            )
    try:
        noise = make_noise(cfg.noise_kind, **cfg.noise_params)
    except ValueError as exc:
        raise ValueError(f"noise: {exc}") from None
    return SystemModel(theta, gen, noise, cfg.n_agents)


def build_schedule(cfg: ExperimentConfig, topology_seed) -> TopologySchedule:
    if cfg.weights not in _WEIGHT_SCHEMES:
        raise ValueError(f"topology.weights: unknown scheme {cfg.weights!r}")
    weight_fn = metropolis_weights if cfg.weights == "metropolis" else degree_weights

    kind = cfg.topology_kind
    if kind == "poisson":
        try:
            g = generate_poisson_graph(cfg.n_agents, cfg.p, topology_seed)
        except ValueError as exc:
            raise ValueError(f"topology.p: {exc}") from None
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
        try:
            sched = partitioned_ring_schedule(cfg.n_agents, cfg.period, weight_fn)
        except ValueError as exc:
            raise ValueError(f"topology.period: {exc}") from None
    elif kind == "file":
        if cfg.schedule_file is None:
            raise ValueError("topology.file: required for kind=file")
        try:
            sched = load_schedule(cfg.schedule_file)
        except OSError as exc:
            raise ValueError(
                f"topology.file: cannot read {cfg.schedule_file}: {exc.strerror or exc}"
            ) from None
        except ValueError as exc:
            raise ValueError(f"topology.file: {exc}") from None
        if sched.n_agents != cfg.n_agents:
            raise ValueError(
                f"topology.file: schedule has {sched.n_agents} agents, config says {cfg.n_agents}"
            )
    else:
        raise ValueError(f"topology.kind: unknown kind {kind!r}; one of {_TOPOLOGY_KINDS}")
    if cfg.window is not None:
        if cfg.window < 1:
            raise ValueError("topology.B: must be >= 1")
        sched = replace(sched, B=cfg.window)
    return sched


def _split_seed(cfg: ExperimentConfig) -> list[np.random.SeedSequence]:
    """(topology seed, model streams seed) of a run."""
    return np.random.SeedSequence(cfg.seed).spawn(2)


@dataclass
class PreflightReport:
    """Pre-run validation outcome; ``errors`` name the failing config field.

    ``model`` and ``schedule`` are what preflight built (None where the
    build failed); a run uses exactly these.
    """

    errors: list[str]
    warnings: list[str]
    network: ValidationReport | None
    model: SystemModel | None = None
    schedule: TopologySchedule | None = None

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


def preflight(cfg: ExperimentConfig) -> PreflightReport:
    """Build the model and the schedule, then check them before a run:
    model sanity, excitation coverage, and the network assumptions (double
    stochasticity and windowed strong connectivity).  Degree
    weights are only row stochastic on most graphs; that is downgraded to a
    warning since the scheme is an explicit user choice.

    Every field of the config table must hold its parser's type, whichever
    topology is chosen: an int or numpy integer, a finite real, a bool, a
    str, ``theta_star`` "graded" or a tuple, list or 1-D array of reals (a
    bool is no integer or real; ``period``, ``window``, ``out`` and
    ``schedule_file`` may be None).  Every noise parameter must be a finite
    real.  A real field or noise parameter that is NaN, infinite or too
    large for a float, and an int in ``theta_star`` too large for a float,
    is reported once, by the type check, as not finite.  A config with a
    mistyped field or noise parameter, or with ``n_agents``, ``l`` or
    ``seed`` out of range, is reported field by field and not built.

    The noise must have a positive density at zero (``LaplaceNoise(1e308)``
    has none in double precision).  Its median needs no check: the built-in
    kinds, the only ones a config builds, are symmetric about zero.
    """
    warnings_: list[str] = []
    mistyped = _mistyped(cfg)
    errors = list(mistyped.values())

    def below(*rows):
        return [f"{name}: must be >= {low}" for name, value, low in rows
                if _is_integer(value) and value < low]

    # the builders read these three; steps and stride are checked after the
    # build, so a bad one is reported beside the model's and schedule's errors
    errors += below(("model.n_agents", cfg.n_agents, 1), ("model.l", cfg.l, 1),
                    ("run.seed", cfg.seed, 0))
    model = schedule = None
    if not errors:      # the builders take these fields as they are
        try:
            model = build_model(cfg)
        except ValueError as exc:
            errors.append(str(exc))
        try:
            schedule = build_schedule(cfg, _split_seed(cfg)[0])
        except ValueError as exc:
            errors.append(str(exc))
    errors += below(("run.steps", cfg.steps, 0), ("run.stride", cfg.stride, 1))
    for key, check, args in (("gain", check_positive, ("gain", cfg.gain)),
                             ("radii", check_radii, (cfg.radii,))):
        if key in mistyped:
            continue
        try:
            check(*args)
        except ValueError as exc:
            errors.append(f"algorithm.{key}: {exc}")
    if model is None or schedule is None:
        return PreflightReport(errors, warnings_, None, model, schedule)

    if model.supports is not None:
        missing = (np.setdiff1d(np.arange(model.l), model.supports) + 1).tolist()
        if missing:
            errors.append(
                f"model.n_agents: sparse regressors leave coordinates {missing} unexcited"
            )

    if not float(model.noise.pdf(0.0)) > 0:
        errors.append("noise: density vanishes at zero")

    report = validate_c4(schedule)
    if not report.connectivity_ok:
        errors.append(
            f"topology: union over windows of B={schedule.B} steps is not strongly "
            f"connected (failed window starts {report.failed_windows})"
        )
    if not report.stochasticity_ok:
        msg = (
            f"topology.weights: steps {report.stochasticity_failures} "
            "are not doubly stochastic"
        )
        if cfg.weights == "degree":
            warnings_.append(msg + " (degree scheme; averaging guarantees do not apply)")
        else:
            errors.append(msg)
    return PreflightReport(errors, warnings_, report, model, schedule)


# ---------------------------------------------------------------------------
# trajectory CSV

def _trajectory_header(n_errors: int, n_theta: int) -> list[str]:
    """The columns of trajectory.csv, with ``n_errors`` agent errors and ``n_theta`` theta_bar."""
    return (["k", "sigma_max", "consensus_gap", "mean_error"]
            + [f"err_{i}" for i in range(1, n_errors + 1)]
            + [f"theta_bar_{j}" for j in range(1, n_theta + 1)])


def write_trajectory_csv(metrics: Metrics, path) -> None:
    """Write metric rows; floats use repr so parsing restores them exactly.

    The float columns are stacked side by side and converted to Python
    floats by one ``tolist``, whose floats have the same ``repr`` as
    ``float(np.float64)``; each row is then one join.
    """
    errs, bars = metrics.agent_errors, metrics.theta_bar
    cols = _trajectory_header(0 if errs is None else errs.shape[1],
                              0 if bars is None else bars.shape[1])
    floats = [metrics.consensus_gap[:, None], metrics.mean_error[:, None]]
    floats += [a for a in (errs, bars) if a is not None]
    rows = np.hstack(floats, dtype=np.float64).tolist()
    lines = [",".join(cols)]
    lines += [
        f"{k},{s}," + ",".join(map(repr, row))
        for k, s, row in zip(metrics.k.tolist(), metrics.sigma_max.tolist(), rows)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> Metrics:
    """Inverse of :func:`write_trajectory_csv`.

    Only a header that it writes is read, and ``k`` and ``sigma_max`` must
    hold integers; anything else raises ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty trajectory file: {path}")
    header = lines[0].split(",")
    n_err = sum(c.startswith("err_") for c in header)
    n_bar = sum(c.startswith("theta_bar_") for c in header)
    if header != _trajectory_header(n_err, n_bar):
        raise ValueError(f"unexpected trajectory header: {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if rows and any(len(r) != len(header) for r in rows):
        raise ValueError("ragged trajectory rows")
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    for j, name in enumerate(header[:2]):     # k and sigma_max: integers an int64 holds
        col = data[:, j]
        bad = np.flatnonzero(~((col == np.trunc(col)) & (np.abs(col) < 2.0**63)))
        if bad.size:
            raise ValueError(f"trajectory column {name}: {rows[bad[0]][j]!r} is not an integer")
    return Metrics(
        k=data[:, 0].astype(np.int64),
        sigma_max=data[:, 1].astype(np.int64),
        consensus_gap=data[:, 2],
        mean_error=data[:, 3],
        agent_errors=data[:, 4 : 4 + n_err] if n_err else None,
        theta_bar=data[:, 4 + n_err :] if n_bar else None,
    )


# ---------------------------------------------------------------------------
# experiments

def _make_out_dir(path, name: str) -> Path:
    """Create the output directory ``path``, or raise ValueError naming ``name``."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{name}: cannot create {out_dir}: {exc.strerror or exc}") from None
    return out_dir


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

    Raises one ValueError listing every field-named preflight error, and
    one naming ``run.out`` when the output directory cannot be created;
    both before the run.
    Rerunning with the same config produces byte-identical trajectory.csv.
    """
    t0 = time.perf_counter()
    pre = preflight(cfg)
    if not pre.ok:
        raise ValueError("invalid config:\n" + "\n".join(pre.errors))
    out_dir = None if cfg.out is None else _make_out_dir(cfg.out, "run.out")
    model = pre.model

    recorder = TrajectoryRecorder(
        model.theta_star,
        stride=cfg.stride,
        record_agent_errors=cfg.record_agent_errors,
        record_theta_bar=cfg.record_theta_bar,
    )
    monitor = InvariantMonitor(radii=cfg.radii)
    final = run(
        model,
        pre.schedule,
        cfg.steps,
        streams=ModelStreams(model, _split_seed(cfg)[1]),
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
            "relative_mean_error": mean_err / norm_star if norm_star else None,
            "max_agent_error": float(errs.max()),
            "relative_max_agent_error": float(errs.max()) / norm_star if norm_star else None,
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
    if out_dir is not None:
        # Strict JSON: a non-finite value raises here, before either file is written.
        text = json.dumps(summary, indent=2, sort_keys=False, allow_nan=False)
        result.trajectory_path = out_dir / "trajectory.csv"
        result.summary_path = out_dir / "summary.json"
        write_trajectory_csv(metrics, result.trajectory_path)
        with open(result.summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return result


def preset_v(
    seed: int,
    steps: int = 1_000_000,
    out: str | None = None,
    stride: int = 100,
) -> ExperimentConfig:
    """Benchmark configuration: 100 agents, 8 parameters.

    Graded true parameter ``(1 + 0.1 j) sqrt(j)``, random pairwise topology
    with link probability 0.06, sparse one-coordinate regressors, Gaussian
    noise of variance 0.09, Metropolis weights (the paper's uniform
    by-degree scheme, row stochastic only, is ``weights="degree"``).

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
        weights="metropolis",
        regressor_kind="sparse-uniform",
        noise_kind="gaussian",
        noise_params={"sigma2": 0.09},
        record_theta_bar=True,
        record_agent_errors=False,
        gain=16.0,
        radii="doubling",
    )
