"""The three benchmark workloads.

Each workload turns the benchmark seed into inputs (``prepare``), measures
one set-up (``setup``) and runs one operation (``op``) through binident's
public entry points, checking the outputs.  The program only ever receives
the generated configuration; seeds never select code paths.

Every operation returns an :class:`OpResult`.  ``stages`` holds the wall
time of each stage of the operation; a simulation has one stage, the CLI
call.  ``failures`` lists the checks it failed; an exception inside the
program counts as a failure too.  ``digest`` identifies the outputs, so
repeats of one configuration can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STAR4 = (0.5, -0.4, 0.3, -0.35)


@dataclass
class OpResult:
    stages: dict[str, float]         # stage name -> wall time (s)
    steps: int
    config: int                      # index of the configuration that ran
    rel_error: float = math.nan
    digest: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


def _nonfinite_paths(obj, path="summary"):
    """Paths of non-finite floats anywhere in a decoded JSON document."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite_paths(v, f"{path}[{i}]")]
    return []


def _connected_preset_seeds(bi, rng, count: int) -> list[int]:
    """Config seeds whose random preset graph passes preflight.

    About one preset seed in six draws a graph with an isolated agent,
    which preflight rightly rejects; the workload is defined on connected
    graphs, so such seeds are skipped while drawing inputs.
    """
    out: list[int] = []
    while len(out) < count:
        cand = int(rng.integers(2**31))
        if bi.preflight(bi.preset_v(seed=cand, steps=1)).ok:
            out.append(cand)
    return out


class SimulationWorkload:
    """An operation is one ``binident.cli.main`` call that writes artifacts."""

    name = ""
    default_seed = 0
    heldout_seed = 0
    configs = 1                      # distinct configurations cycled per run
    setups_per_op = 1                # set-ups timed after each operation

    def __init__(self, bi, workdir: Path, tiny: bool):
        self.bi = bi
        self.workdir = workdir
        self.steps = self.tiny_steps if tiny else self.full_steps
        self._digests: dict[int, tuple[str, float]] = {}

    def argv(self, idx: int, steps: int | None = None) -> list[str]:
        raise NotImplementedError

    def _call(self, argv: list[str]):
        """Run the CLI in-process; return its code and the run's result object."""
        cli = self.bi.cli
        inner = cli.run_experiment
        seen = []

        def capture(cfg):
            res = inner(cfg)
            seen.append(res)
            return res

        cli.run_experiment = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - t0
        finally:
            cli.run_experiment = inner
        return code, wall, (seen[0] if seen else None)

    def setup(self) -> tuple[float, list[str]]:
        code, wall, res = self._call(self.argv(0, steps=0))
        ok = code == 0 and res is not None and res.summary["final"]["k"] == 1
        return wall, [] if ok else [f"set-up run exited with {code}"]

    def op(self, idx: int) -> OpResult:
        code, wall, res = self._call(self.argv(idx))
        out = OpResult(stages={"cli.main": wall}, steps=self.steps, config=idx)
        if code != 0 or res is None:
            out.failures.append(f"cli exited with {code}")
            return out
        self.check(idx, res, out)
        return out

    def check(self, idx: int, res, out: OpResult) -> None:
        bi, fail = self.bi, out.failures
        run_dir = self.out_dir(idx)
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        if not summary["invariants"]["ok"]:
            fail.append(f"{summary['invariants']['violation_count']} invariant violations")
        if summary["final"]["k"] != self.steps + 1:
            fail.append(f"final k {summary['final']['k']} != {self.steps + 1}")
        bad = _nonfinite_paths(summary)
        if bad:
            fail.append(f"non-finite summary values at {bad[:3]}")
        traj_path = run_dir / "trajectory.csv"
        if not bi.read_trajectory_csv(traj_path).equals(res.metrics):
            fail.append("trajectory.csv does not read back as the recorder's metrics")
        out.rel_error = float(summary["final"]["relative_mean_error"])
        out.digest = hashlib.sha256(traj_path.read_bytes()).hexdigest()
        first = self._digests.setdefault(idx, (out.digest, out.rel_error))
        if first != (out.digest, out.rel_error):
            fail.append(f"configuration {idx}: output differs from its first repeat")

    def out_dir(self, idx: int) -> Path:
        return self.workdir / f"run{idx}"


class PresetV(SimulationWorkload):
    """``binident preset-v``: 100 agents, l = 8, static Poisson graph."""

    name = "preset-v"
    default_seed = 101
    heldout_seed = 404
    setups_per_op = 2
    full_steps = 10_000
    tiny_steps = 200

    def prepare(self, seed: int) -> None:
        self.seeds = _connected_preset_seeds(self.bi, np.random.default_rng(seed), self.configs)

    def argv(self, idx, steps=None):
        return [
            "preset-v", "--seed", str(self.seeds[idx]), "--out", str(self.out_dir(idx)),
            "--steps", str(self.steps if steps is None else steps),
        ]


class SmallDense(SimulationWorkload):
    """``binident simulate`` on an 8-agent dense-regressor INI."""

    name = "small-dense"
    default_seed = 202
    heldout_seed = 505
    # The final error of one short run varies by about 40% (quartile spread)
    # between seeds; the mean over 64 configurations varies by about 5%.
    configs = 64
    full_steps = 1_000
    tiny_steps = 50

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(2**31, size=self.configs)]
        for idx, cfg_seed in enumerate(self.seeds):
            cfg = self.bi.ExperimentConfig(
                n_agents=8, l=4, steps=self.steps, seed=cfg_seed, stride=1,
                theta_star=STAR4, topology_kind="partitioned-ring", period=4, window=4,
                regressor_kind="dense-uniform", noise_kind="gaussian",
                noise_params={"sigma2": 0.01},
                record_theta_bar=True, record_agent_errors=True,
            )
            cfg.to_ini(self.ini(idx))

    def ini(self, idx: int) -> Path:
        return self.workdir / f"config{idx}.ini"

    def argv(self, idx, steps=None):
        argv = ["simulate", "--config", str(self.ini(idx)), "--out", str(self.out_dir(idx))]
        return argv if steps is None else argv + ["--steps", str(steps)]


class TheoryCheck:
    """The analysis, oracle and topology tools on the preset-v model."""

    name = "theory-check"
    default_seed = 303
    heldout_seed = 606
    configs = 1
    setups_per_op = 10

    def __init__(self, bi, workdir: Path, tiny: bool):
        self.bi = bi
        self.mc_samples = 20_000 if tiny else 200_000
        self.lags = 50 if tiny else 200
        self.baseline_steps = 500 if tiny else 20_000
        self.probe_steps = 500 if tiny else 20_000
        self.steps = self.baseline_steps + self.probe_steps
        self._first_digest = None

    def prepare(self, seed: int) -> None:
        bi = self.bi
        rng = np.random.default_rng(seed)
        (cfg_seed,) = _connected_preset_seeds(bi, rng, 1)
        self.cfg = bi.preset_v(seed=cfg_seed, steps=0)
        star = bi.graded_theta_star(self.cfg.l)
        self.starts = [star + rng.normal(0.0, 2.0, star.size) for _ in range(10)]
        self.point = star + rng.normal(0.0, 1.0, star.size)
        self.mc_seed, self.probe_seed = (int(s) for s in rng.integers(2**31, size=2))
        self.probe_model = bi.build_model(
            bi.ExperimentConfig(
                n_agents=8, l=4, steps=0, seed=0, theta_star=STAR4,
                regressor_kind="sparse-uniform", noise_kind="gaussian",
                noise_params={"sigma2": 0.01},
            )
        )

    def _build(self):
        # spawn() advances a SeedSequence, so the split is redone every time,
        # exactly as run_experiment does it
        bi = self.bi
        topology_ss, streams_ss = np.random.SeedSequence(self.cfg.seed).spawn(2)
        model = bi.build_model(self.cfg)
        schedule = bi.build_schedule(self.cfg, topology_ss)
        return model, schedule, bi.RegressionContext(model), streams_ss

    def setup(self) -> tuple[float, list[str]]:
        t0 = time.perf_counter()
        self._build()
        return time.perf_counter() - t0, []

    def op(self, idx: int) -> OpResult:
        bi = self.bi
        stages: dict[str, float] = {}
        last = time.perf_counter()

        def lap(stage: str) -> None:
            nonlocal last
            now = time.perf_counter()
            stages[stage] = now - last
            last = now

        model, schedule, ctx, streams_ss = self._build()
        lap("build")
        roots = [bi.solve_root(ctx, s) for s in self.starts]
        lap("solve_root")
        mc = bi.regression_function_mc(
            ctx, self.point, self.mc_samples, np.random.default_rng(self.mc_seed)
        )
        lap("monte_carlo")
        quad = bi.regression_function(ctx, self.point)
        jac = bi.jacobian_at_root(ctx)
        lap("quadrature")
        network = bi.validate_c4(schedule)
        lap("validate")
        profile = bi.deviation_profile(schedule, 1, self.lags)
        fit = bi.fit_geometric_envelope(profile)
        lap("deviation_profile")
        baseline = bi.centralized_baseline(
            model, self.baseline_steps, streams_ss, record_every=self.baseline_steps
        )
        lap("baseline")
        probe = bi.identifiability_probe(self.probe_model, 2, self.probe_steps, self.probe_seed)
        lap("probe")

        out = OpResult(stages=stages, steps=self.steps, config=idx)
        fail = out.failures
        star = model.theta_star
        residual = max(float(np.linalg.norm(bi.regression_function(ctx, r))) for r in roots)
        distance = max(float(np.linalg.norm(r - star)) for r in roots)
        if not residual <= 1e-10:
            fail.append(f"solve_root residual {residual:.2e} > 1e-10")
        if not distance <= 1e-8:
            fail.append(f"solve_root lands {distance:.2e} from theta*")
        z = float((np.abs(quad - mc.value) / mc.stderr).max())
        if not z <= 4.0:
            fail.append(f"quadrature {z:.2f} standard errors from Monte Carlo")
        if not fit.r_squared > 0.99:
            fail.append(f"geometric fit R^2 {fit.r_squared:.4f} <= 0.99")
        if not network.passed:
            fail.append(f"schedule fails validation: {network.summary()}")
        outputs = [*roots, mc.value, mc.stderr, quad, jac, profile, baseline[-1], probe.final_theta]
        if not all(np.isfinite(a).all() for a in outputs):
            fail.append("non-finite analysis output")
        pstar = self.probe_model.theta_star
        out.rel_error = float(np.linalg.norm(probe.final_theta - pstar) / np.linalg.norm(pstar))
        out.digest = hashlib.sha256(
            b"".join(np.ascontiguousarray(a).tobytes() for a in outputs)
        ).hexdigest()
        if self._first_digest is None:
            self._first_digest = out.digest
        elif out.digest != self._first_digest:
            fail.append("outputs differ from the first repeat")
        return out


WORKLOADS = {w.name: w for w in (PresetV, SmallDense, TheoryCheck)}
