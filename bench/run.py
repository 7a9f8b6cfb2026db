"""Benchmark runner for binident.

Run from the root of a checkout:

    python3 bench/run.py --workload preset-v --seed 101 --seconds 40 --trace 0

It imports binident from ``src/`` of the checkout it sits in, derives the
workload's inputs from ``--seed``, and repeats the workload's operation for
``--seconds`` seconds in this one process.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` half the time runs
untraced and half traced, and the metrics are the per-layer ones derived
from the spans, plus the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: the machine this benchmark targets
# has two CPUs, and one thread keeps timings free of thread scheduling.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans as sp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "steps_per_s": ("steps/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "rel_mean_error": ("1", "lower"),
}

PER_LAYER = {
    "streams.draw_us_per_step": ("us/step", "lower"),
    "streams.bytes_per_step": ("B/step", "lower"),
    "plant.sensing_us_per_step": ("us/step", "lower"),
    "plant.innovation_us_per_step": ("us/step", "lower"),
    "identifier.step_us_per_step": ("us/step", "lower"),
    "identifier.self_us_per_step": ("us/step", "lower"),
    "identifier.snapshot_us_per_step": ("us/step", "lower"),
    "identifier.ledger_us_per_step": ("us/step", "lower"),
    "identifier.monitor_us_per_step": ("us/step", "lower"),
    "identifier.loop_us_per_step": ("us/step", "lower"),
    "identifier.mix_flops_per_step": ("flop/step", "lower"),
    "identifier.mix_bytes_per_step": ("B/step", "lower"),
    "identifier.truncations": ("count", "lower"),
    "identifier.sigma_max": ("count", "lower"),
    "identifier.settle_step": ("step", "lower"),
    "identifier.nonuniform_steps": ("count", "lower"),
    "topology.schedule_us_per_step": ("us/step", "lower"),
    "topology.validate_s": ("s", "lower"),
    "topology.deviation_profile_s": ("s", "lower"),
    "analysis.recorder_us_per_step": ("us/step", "lower"),
    "analysis.recorder_rows": ("count", "lower"),
    "analysis.quad_calls": ("count", "lower"),
    "analysis.quad_us_per_call": ("us/call", "lower"),
    "analysis.mc_samples_per_s": ("1/s", "higher"),
    "oracle.solve_root_s": ("s", "lower"),
    "oracle.baseline_steps_per_s": ("steps/s", "higher"),
    "oracle.probe_steps_per_s": ("steps/s", "higher"),
    "runner.build_s": ("s", "lower"),
    "runner.preflight_s": ("s", "lower"),
    "runner.write_trajectory_s": ("s", "lower"),
    "runner.trajectory_bytes": ("B", "lower"),
    "runner.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}

# Exact counts: taken from the first traced operation (configuration 0),
# so they repeat exactly for a seed.  Every other per-layer figure is the
# fastest over the traced operations.
EXACT = (
    "streams.bytes_per_step", "identifier.mix_flops_per_step", "identifier.mix_bytes_per_step",
    "identifier.truncations", "identifier.sigma_max", "identifier.settle_step",
    "identifier.nonuniform_steps", "analysis.recorder_rows", "analysis.quad_calls",
    "runner.trajectory_bytes",
)


def import_binident():
    """Import binident from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "binident" / "__init__.py").is_file():
        raise SystemExit(f"bench: no binident sources under {src}")
    sys.path.insert(0, str(src))
    import binident
    import binident.cli  # noqa: F401  (not imported by the package itself)

    if Path(binident.__file__).resolve().parent != (src / "binident").resolve():
        raise SystemExit(f"bench: imported binident from {binident.__file__}, not {src}")
    return binident


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with ten samples beyond it, or None if too few."""
    n = len(values)
    if n <= 10:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over the library sources, a revision id that needs no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "binident").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out or {"L2": "unknown", "L3": "unknown"}


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache": cache_sizes(),
    }


class Runner:
    """Runs operations of one workload and keeps the tally of failures."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(what)

    def setup(self, times: list[float]) -> None:
        self.attempted += 1
        try:
            wall, failures = self.w.setup()
        except Exception:
            self._fail("set-up raised:\n" + traceback.format_exc(limit=4))
            return
        times.append(wall)
        if failures:
            self._fail("set-up: " + "; ".join(failures))

    def op(self, idx: int):
        self.attempted += 1
        try:
            res = self.w.op(idx)
        except Exception:
            self._fail(f"operation on configuration {idx} raised:\n" + traceback.format_exc(limit=4))
            return None
        if res.failures:
            self._fail(f"configuration {idx}: " + "; ".join(res.failures))
        return res

    def loop(self, seconds: float, tracer=None, spans_path=None, setups=False):
        """Operations round-robin over the configurations until time is up.

        Runs at least one full pass.  With ``setups``, the workload's
        set-ups per operation run after each one, so set-up times sample
        the same stretch of time as the operations.  Returns the results,
        the per-operation layer metrics (when traced) and the set-up times.
        """
        results, layers, setup_times = [], [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < self.w.configs or time.perf_counter() < deadline:
            idx = i % self.w.configs
            if tracer is not None:
                tracer.take()
            res = self.op(idx)
            if tracer is not None:
                spans, counts = tracer.take()
                if res is not None:
                    layers.append(sp.layer_metrics(spans, counts, tracer.names, res.steps))
                    if spans_path is not None and i == 0:
                        sp.write_spans(spans_path, spans, tracer.names)
            if res is not None:
                results.append(res)
            for _ in range(self.w.setups_per_op if setups else 0):
                self.setup(setup_times)
            i += 1
        return results, layers, setup_times


def fastest(values, better="lower"):
    """A run's figure for a timing: the fastest of its samples.

    On a host shared with other tenants, speed drifts by up to 2x over tens
    of seconds, which moves the median of a run far more than the fastest
    sample (see README.md).  0 stands in when every sample failed; the
    result then says ``correct: false``.  A rate (``better="higher"``) is
    fastest at its largest sample.
    """
    if not values:
        return 0.0
    return min(values) if better == "lower" else max(values)


def op_wall(results) -> float:
    """Wall time of one operation: the sum over its stages of each stage's
    fastest time in the run.  For a one-stage operation, the fastest one."""
    best: dict[str, float] = {}
    for r in results:
        for stage, wall in r.stages.items():
            best[stage] = min(best.get(stage, wall), wall)
    return sum(best.values())


def report_line(name, value, unit, samples=None):
    line = f"{name:34s} {value:>16.6g} {unit}"
    if samples:
        line += f"   ({len(samples)} samples; median {statistics.median(samples):.6g}"
        tail = tail_percentile(samples)
        if tail is not None:
            line += f", p{tail[0]} {tail[1]:.6g}"
        line += ")"
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny step counts, for the benchmark's self-test")
    args = parser.parse_args(argv)

    bi = import_binident()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        workload = cls(bi, workdir, args.tiny)
        workload.prepare(seed)
        runner = Runner(workload)
        env = environment()
        metrics: dict[str, float] = {}
        samples: dict[str, list] = {}

        if args.trace == 0:
            results, _, setup_times = runner.loop(args.seconds, setups=True)
            walls = [r.wall_s for r in results]
            per_config: dict[int, float] = {}
            for r in results:
                per_config.setdefault(r.config, r.rel_error)
            wall = op_wall(results)
            steps = results[0].steps if results else 0
            metrics = {
                "setup_s": fastest(setup_times),
                "wall_s": wall,
                "steps_per_s": steps / wall if wall > 0 else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "rel_mean_error": statistics.fmean(per_config.values()) if per_config else 0.0,
            }
            samples = {"setup_s": setup_times, "wall_s": walls}
            table = END_TO_END
        else:
            plain, _, _ = runner.loop(args.seconds / 2)
            spans_path = OUT / f"spans-{args.workload}.csv"
            with sp.Tracer(bi) as tracer:
                traced, layers, _ = runner.loop(args.seconds / 2, tracer, spans_path)
            plain_wall = op_wall(plain)
            traced_wall = op_wall(traced)
            env["tracing_overhead_s"] = traced_wall - plain_wall
            env["spans_file"] = spans_path.relative_to(ROOT).as_posix()
            env["untraced_functions"] = tracer.missing
            for name in PER_LAYER:
                if name == "tracing.overhead_s":
                    metrics[name] = traced_wall - plain_wall
                elif not layers:
                    metrics[name] = 0.0
                elif name in EXACT:
                    metrics[name] = layers[0][name]
                else:
                    samples[name] = [lm[name] for lm in layers]
                    metrics[name] = fastest(samples[name], PER_LAYER[name][1])
            table = PER_LAYER

        correct = runner.failed == 0
        print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
        print("environment: " + json.dumps(env, sort_keys=True))
        for name, value in metrics.items():
            report_line(name, value, table[name][0], samples.get(name))
        print(f"error_rate {runner.failed}/{runner.attempted}")
        for msg in runner.messages:
            print("failure: " + msg)
        result = {
            "correct": correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {
                name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()
            },
        }
        report = dict(result, workload=args.workload, seed=seed, trace=args.trace,
                      environment=env, failures=runner.messages)
        (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
