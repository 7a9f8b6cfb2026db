"""Command-line front end.

Subcommands: ``simulate`` (run a config file), ``preset-v`` (the 100-agent
benchmark), ``probe`` (single-agent identifiability), ``analyze`` (evaluate
the averaged correction field at a point).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .analysis import RegressionContext, jacobian_at_root, regression_function
from .oracle import identifiability_probe
from .runner import ExperimentConfig, _make_out_dir, preflight, preset_v, run_experiment


def _add_override_args(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--seed", type=int, required=required, help="override the config seed")
    p.add_argument("--steps", type=int, default=None, help="override the step count")
    p.add_argument("--out", type=str, required=required, help="output directory")
    p.add_argument("--stride", type=int, default=None, help="metric recording stride")
    p.add_argument(
        "--paper-weights",
        action="store_true",
        help="uniform 1/|N_i| neighbor weights instead of Metropolis",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binident",
        description="Distributed identification from binary sensor readings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an experiment described by a config file")
    p_sim.add_argument("--config", required=True, help="INI config path")
    _add_override_args(p_sim)

    p_pre = sub.add_parser("preset-v", help="run the 100-agent benchmark configuration")
    _add_override_args(p_pre, required=True)

    p_probe = sub.add_parser("probe", help="single-agent identifiability probe")
    p_probe.add_argument("--agent", type=int, required=True, help="agent id (1-based)")
    p_probe.add_argument("--config", required=True)
    p_probe.add_argument("--steps", type=int, default=100_000)
    p_probe.add_argument("--seed", type=int, default=None, help="defaults to the config seed")
    p_probe.add_argument("--threshold", type=float, default=0.1)
    p_probe.add_argument("--out", type=str, default=None, help="directory for probe.jsonl")

    p_an = sub.add_parser("analyze", help="evaluate the mean correction field at a point")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--theta", required=True, help='comma-separated values "v1,...,vl"')
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.steps is not None:
        cfg.steps = args.steps
    if args.out is not None:
        cfg.out = args.out
    if args.stride is not None:
        cfg.stride = args.stride
    if args.paper_weights:
        cfg.weights = "degree"
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(ExperimentConfig.from_ini(args.config), args)
    return _execute(cfg)


def _cmd_preset_v(args) -> int:
    return _execute(_apply_overrides(preset_v(seed=args.seed), args))


def _execute(cfg: ExperimentConfig) -> int:
    result = run_experiment(cfg)
    for line in result.preflight.lines():
        print(line)
    fin = result.summary["final"]
    rel = fin["relative_mean_error"]   # None when theta* = 0
    print(
        f"finished k={fin['k']}: mean error {fin['mean_error']:.6g} "
        f"(relative {'n/a' if rel is None else format(rel, '.6g')}), "
        f"max agent error {fin['max_agent_error']:.6g}, "
        f"consensus gap {fin['consensus_gap']:.6g}, "
        f"truncations {fin['truncation_events']}"
    )
    if not result.summary["invariants"]["ok"]:
        print(f"invariant violations: {result.summary['invariants']['violation_count']}")
    if result.trajectory_path is not None:
        print(f"wrote {result.trajectory_path} and {result.summary_path}")
    return 0


def _preflight_model(cfg: ExperimentConfig):
    """The model preflight builds from ``cfg``.

    Stops with preflight's field-named errors only when it built none: a
    topology or excitation error leaves a model to probe or analyze.
    """
    pre = preflight(cfg)
    if pre.model is None:
        raise ValueError("invalid config:\n" + "\n".join(pre.errors))
    return pre.model


def _cmd_probe(args) -> int:
    cfg = ExperimentConfig.from_ini(args.config)
    if args.seed is not None:
        cfg.seed = args.seed        # before preflight, which range-checks it
    model = _preflight_model(cfg)
    out_dir = None if args.out is None else _make_out_dir(args.out, "--out")
    report = identifiability_probe(
        model, args.agent, args.steps, cfg.seed, threshold=args.threshold
    )
    print(
        f"agent {report.agent}, {report.steps} steps, threshold {report.threshold}: "
        f"identifiable {list(report.identifiable)}, stalled {list(report.stalled)}"
    )
    for row in report.rows():
        print(
            f"  coordinate {row['coordinate']}: estimate {row['estimate']:.6g}, "
            f"error {row['error']:.6g}"
            + (" [stalled]" if row["stalled"] else "")
        )
    if out_dir is not None:
        path = out_dir / "probe.jsonl"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in report.rows():
                fh.write(json.dumps(row) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_analyze(args) -> int:
    model = _preflight_model(ExperimentConfig.from_ini(args.config))
    try:
        theta = np.array([float(v) for v in args.theta.replace(",", " ").split()])
    except ValueError:
        raise ValueError(f"--theta: cannot parse {args.theta!r}") from None
    if theta.shape != (model.l,):
        raise ValueError(f"--theta: expected {model.l} values, got {theta.size}")
    if not np.isfinite(theta).all():
        raise ValueError(f"--theta: values must be finite, got {args.theta!r}")
    ctx = RegressionContext(model)
    fval = regression_function(ctx, theta)
    eigs = np.linalg.eigvalsh(jacobian_at_root(ctx))
    print(f"f(theta) = {np.array2string(fval, precision=8)}")
    print(f"||f(theta)|| = {float(np.linalg.norm(fval)):.8g}")
    print(f"curvature eigenvalues at the root: {np.array2string(eigs, precision=8)}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "preset-v": _cmd_preset_v,
    "probe": _cmd_probe,
    "analyze": _cmd_analyze,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built at the first :func:`main` call (parsing never changes it)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
