"""Print artifact digests for a fixed set of runs, to check a refactor.

For each of 21 configs it runs ``run_experiment`` into a temporary
directory and prints one line: the config name, the SHA-256 of
``trajectory.csv`` and the SHA-256 of ``summary.json`` with ``wall_time_s``
removed.  For each config it also prints the SHA-256 of the JSON of
``from_ini(to_ini(cfg)).to_dict()``, so the INI path is compared too, and
the SHA-256 of its schedule's ``dump_schedule`` bytes and of its
``validate_c4(...).summary()`` text, so the topology layer is compared too;
one more schedule line covers ``preset_v`` seed 101 with degree weights,
whose report lists a stochasticity failure.  One more run line comes from a
``topology.kind = file`` config that loads the dumped ring schedule (its
temporary path is replaced by the file name before hashing).  Two
``-nosink`` lines hash the final estimates, counters and truncation ledger
of ``run`` called without sinks (the path ``run_experiment`` never takes),
on ``preset_v`` seed 101 and on ``ring-dense-1``, and two ``-steps`` lines
hash every ``(k, theta, sigma)`` that a plain ``sink(prev, new)`` callable
receives on the same two runs (the per-step path, which ``run_experiment``
does not take either).  Four ``-direct`` lines hash every ``(theta, sigma)``
of 2000 direct ``dsaawet_identification_step`` calls on ``ring-sparse-1``
and on ``ring-dense-1``, each from zero counters and from disagreeing
counters, and one ``generic-direct`` line does the same for 2000
``generic_dsaawet_step`` calls on seeded observation rows: ``run`` calls the
step function only on steps from disagreeing counters, so these lines are
the ones that cover the step functions on agreeing counters.  Two ``-zero``
lines give the run-line digests of ``preset_v`` seed 101 and of
``ring-dense-1`` at zero steps, a run that draws nothing.  It then prints
one line per analysis and oracle output on a sparse and a dense model, and
two on the preset-v model: the output's name and the SHA-256 of its array
bytes.  Two ``deviation_profile`` lines come last.  That makes 92 lines.
No golden values are stored, because BLAS may round differently on
another host.  To check that a change keeps the artifacts, give the
revision to compare against:

    python3 tools/artifact_digests.py HEAD~1

This unpacks that revision with ``git archive`` into a temporary
directory, runs its own copy of this script there and this copy here, on
the same machine, prints the lines that differ (a unified diff) and exits
1 on any difference; with no difference it prints nothing and exits 0.

The configs:

- ``preset_v`` seeds 101, 202 and 303 (gain 16, doubling radii) and seed 7
  at gain 1 with linear radii, 2e4 steps each;
- the acceptance suite's partitioned ring (8 agents, l = 4) at 2e4 steps,
  seeds 1-5;
- the same ring at 3000 steps, seeds 1-5, with sparse regressors, stride 10
  and per-agent errors recorded;
- the same ring at 3000 steps, seeds 1-5, with dense regressors, Laplace
  noise, gain 3, doubling radii and stride 1;
- the same ring at 1000 steps, seed 202, with dense regressors, stride 1,
  per-agent errors and theta_bar recorded (the benchmark's small-dense
  shape);
- ``preset_v`` seed 101 at 2e4 steps with per-agent errors recorded too
  (202 rows of 100 agent errors and 8 theta_bar columns).

The analysis and oracle outputs, each at a fixed seed, on the ring model
(sparse regressors) and on its dense/Laplace variant: ``regression_function_mc``
(value and standard error), ``regression_function``, ``jacobian_at_root``,
``centralized_baseline`` and ``identifiability_probe`` (final estimate and
errors) for agent 2; for the sparse model also ``solve_root`` from the
origin and from all-fives, and ``regression_jacobian`` at the point where
``regression_function`` is evaluated.  Two last lines cover the Gaussian
quadrature on ``preset_v`` seed 101, the model the benchmark's theory-check
workload analyses: ``regression_function`` at 20 fixed points and
``solve_root`` from 10 fixed starts, both drawn around theta* from a
generator seeded with 101.  Two profile lines hash ``deviation_profile``:
on the ``preset_v`` seed 101 schedule at 200 lags, as theory-check runs it
(a static symmetric matrix: the spectral route), and on the partitioned
ring at 50 lags (period 4: the backward product).

The script imports ``binident`` from the ``src`` directory next to it.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import binident as bi  # noqa: E402
import numpy as np  # noqa: E402
from binident.runner import _split_seed  # noqa: E402

RING_STAR = (0.5, -0.4, 0.3, -0.35)


def ring_config(seed: int, steps: int) -> bi.ExperimentConfig:
    """The partitioned ring of the acceptance suite."""
    return bi.ExperimentConfig(
        n_agents=8,
        l=4,
        steps=steps,
        seed=seed,
        stride=1000,
        theta_star=RING_STAR,
        topology_kind="partitioned-ring",
        period=4,
        window=4,
        noise_kind="gaussian",
        noise_params={"sigma2": 0.01},
    )


def small_dense_config(seed: int) -> bi.ExperimentConfig:
    """The benchmark's small-dense shape: every step and every column recorded."""
    return replace(
        ring_config(seed, 1000),
        stride=1,
        regressor_kind="dense-uniform",
        record_agent_errors=True,
        record_theta_bar=True,
    )


def configs() -> list[tuple[str, bi.ExperimentConfig]]:
    out = [(f"preset-v-{s}", bi.preset_v(seed=s, steps=20_000)) for s in (101, 202, 303)]
    out.append(("preset-v-7-gain1-linear", replace(bi.preset_v(seed=7, steps=20_000), gain=1.0, radii="linear")))
    out += [(f"ring-{s}", ring_config(s, 20_000)) for s in range(1, 6)]
    out += [
        (f"ring-sparse-{s}", replace(ring_config(s, 3000), stride=10, record_agent_errors=True))
        for s in range(1, 6)
    ]
    out += [
        (
            f"ring-dense-{s}",
            replace(
                ring_config(s, 3000),
                stride=1,
                regressor_kind="dense-uniform",
                noise_kind="laplace",
                noise_params={"scale": 0.1},
                gain=3.0,
                radii="doubling",
            ),
        )
        for s in range(1, 6)
    ]
    out.append(("small-dense-202", small_dense_config(202)))
    out.append(
        (
            "preset-v-101-all-columns",
            replace(bi.preset_v(seed=101, steps=20_000), record_agent_errors=True),
        )
    )
    return out


def digests(cfg: bi.ExperimentConfig) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        bi.run_experiment(replace(cfg, out=tmp))
        trajectory = (Path(tmp) / "trajectory.csv").read_bytes()
        summary = json.loads((Path(tmp) / "summary.json").read_text(encoding="utf-8"))
    summary.pop("wall_time_s")
    if cfg.schedule_file is not None:
        summary["config"]["topology"]["file"] = Path(cfg.schedule_file).name
    summary_bytes = json.dumps(summary, indent=2).encode("utf-8")
    return hashlib.sha256(trajectory).hexdigest(), hashlib.sha256(summary_bytes).hexdigest()


def schedule_digests(cfg: bi.ExperimentConfig) -> tuple[str, str]:
    """SHA-256 of the dumped schedule and of its validation report text."""
    sched = bi.build_schedule(cfg, _split_seed(cfg)[0])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.schedule"
        bi.dump_schedule(sched, path)
        dumped = path.read_bytes()
    report = bi.validate_c4(sched).summary().encode("utf-8")
    return hashlib.sha256(dumped).hexdigest(), hashlib.sha256(report).hexdigest()


def file_run_digests() -> tuple[str, str]:
    """Digests of a ``topology.kind = file`` run on the dumped ring schedule."""
    ring = ring_config(1, 3000)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ring.schedule"
        bi.dump_schedule(bi.build_schedule(ring, None), path)
        cfg = replace(ring, topology_kind="file", period=None, schedule_file=str(path))
        return digests(cfg)


def no_sink_digests(cfg: bi.ExperimentConfig) -> tuple[str, str, str]:
    """SHA-256 of the final theta, sigma and ledger of ``run`` without sinks."""
    pre = bi.preflight(cfg)
    streams = bi.ModelStreams(pre.model, _split_seed(cfg)[1])
    final = bi.run(
        pre.model, pre.schedule, cfg.steps, streams=streams, gain=cfg.gain, radii=cfg.radii
    )
    led = final.ledger
    ledger = {
        "first_hit": sorted(led.first_hit.items()),
        "first_hit_agent": sorted([i, m, k] for (i, m), k in led.first_hit_agent.items()),
        "sigma_max": led.sigma_max,
        "truncation_events": led.truncation_events,
        "last_change": led.last_change,
    }
    return (
        hashlib.sha256(final.theta.tobytes()).hexdigest(),
        hashlib.sha256(final.sigma.tobytes()).hexdigest(),
        hashlib.sha256(json.dumps(ledger).encode("utf-8")).hexdigest(),
    )


def step_digest(cfg: bi.ExperimentConfig) -> str:
    """SHA-256 of every state a plain per-step sink of ``run`` receives."""
    pre = bi.preflight(cfg)
    streams = bi.ModelStreams(pre.model, _split_seed(cfg)[1])
    digest = hashlib.sha256()

    def feed(snap):
        digest.update(np.int64(snap.k).tobytes())
        digest.update(snap.theta.tobytes())
        digest.update(snap.sigma.tobytes())

    def sink(prev, new):
        if prev.k == 1:         # the first call: the initial state
            feed(prev)
        feed(new)

    bi.run(
        pre.model, pre.schedule, cfg.steps, streams=streams, sinks=(sink,),
        gain=cfg.gain, radii=cfg.radii,
    )
    return digest.hexdigest()


DISAGREEING = (3, 0, 1, 0, 2, 0, 0, 1)     # counters of the disagreeing starts
DIRECT_STEPS = 2000


def _disagreeing_start(n: int, l: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded estimates inside their balls and the ``DISAGREEING`` counters."""
    return np.random.default_rng(seed).uniform(-0.5, 0.5, (n, l)), np.array(DISAGREEING)


def direct_step_digest(cfg: bi.ExperimentConfig, disagreeing: bool) -> str:
    """SHA-256 of every state of direct ``dsaawet_identification_step`` calls."""
    pre = bi.preflight(cfg)
    model = pre.model
    streams = bi.ModelStreams(model, _split_seed(cfg)[1])
    snap = bi.NetworkSnapshot.initial(model.n_agents, model.l)
    if disagreeing:
        theta, sigma = _disagreeing_start(model.n_agents, model.l, cfg.seed)
        snap = bi.NetworkSnapshot(k=1, theta=theta, sigma=sigma, ledger=snap.ledger)
    digest = hashlib.sha256()
    for _ in range(DIRECT_STEPS):
        snap = bi.dsaawet_identification_step(
            snap, pre.schedule[snap.k], model, streams, cfg.gain, cfg.radii
        )
        digest.update(snap.theta.tobytes())
        digest.update(snap.sigma.tobytes())
    return digest.hexdigest()


def generic_step_digest() -> str:
    """SHA-256 of every state of ``generic_dsaawet_step`` on the ring schedule."""
    cfg = ring_config(1, DIRECT_STEPS)
    sched = bi.build_schedule(cfg, None)
    x, sigma = _disagreeing_start(cfg.n_agents, cfg.l, 2)
    state = bi.EngineState(x=x, sigma=sigma)
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    for k in range(1, DIRECT_STEPS + 1):
        obs = rng.normal(0.0, 1.0, (cfg.n_agents, cfg.l))
        state = bi.generic_dsaawet_step(state, sched[k], obs, 2.0 / k, radii="doubling")
        digest.update(state.x.tobytes())
        digest.update(state.sigma.tobytes())
    return digest.hexdigest()


def ini_round_trip(cfg: bi.ExperimentConfig) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.ini"
        cfg.to_ini(path)
        back = bi.ExperimentConfig.from_ini(path)
    return hashlib.sha256(json.dumps(back.to_dict()).encode("utf-8")).hexdigest()


def analysis_outputs(kind: str, model: bi.SystemModel) -> list[tuple[str, np.ndarray]]:
    """Fixed-seed analysis and oracle arrays for one model."""
    ctx = bi.RegressionContext(model, mc_fallback_samples=50_000, mc_fallback_seed=3)
    theta = model.theta_star + np.linspace(-0.3, 0.3, model.l)
    mc = bi.regression_function_mc(ctx, theta, 30_000, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dense kind falls back to Monte Carlo
        quad = bi.regression_function(ctx, theta)
    probe = bi.identifiability_probe(model, 2, 2000, 5)
    out = [
        (f"{kind}-regression_function_mc", np.concatenate([mc.value, mc.stderr])),
        (f"{kind}-regression_function", quad),
        (f"{kind}-jacobian_at_root", bi.jacobian_at_root(ctx)),
        (f"{kind}-centralized_baseline", bi.centralized_baseline(model, 2000, 9, record_every=50)),
        (f"{kind}-identifiability_probe", np.concatenate([probe.final_theta, probe.errors])),
    ]
    if ctx.closed_form:
        starts = (np.zeros(model.l), np.full(model.l, 5.0))
        out += [
            (f"{kind}-solve_root", np.concatenate([bi.solve_root(ctx, s) for s in starts])),
            (f"{kind}-regression_jacobian", bi.regression_jacobian(ctx, theta)),
        ]
    return out


def preset_analysis_outputs() -> list[tuple[str, np.ndarray]]:
    """Gaussian quadrature on the preset-v model, as the theory-check workload runs it."""
    ctx = bi.RegressionContext(bi.build_model(bi.preset_v(seed=101)))
    star = ctx.model.theta_star
    rng = np.random.default_rng(101)
    points = star + rng.normal(0.0, 1.0, (20, star.size))
    starts = star + rng.normal(0.0, 2.0, (10, star.size))
    return [
        ("preset-v-101-regression_function", np.stack([bi.regression_function(ctx, t) for t in points])),
        ("preset-v-101-solve_root", np.stack([bi.solve_root(ctx, s) for s in starts])),
    ]


def profile_outputs() -> list[tuple[str, np.ndarray]]:
    """``deviation_profile`` on one schedule of each route."""
    preset = bi.preflight(bi.preset_v(seed=101)).schedule
    ring = bi.preflight(ring_config(1, 0)).schedule
    return [
        ("preset-v-101-deviation_profile", bi.deviation_profile(preset, 1, 200)),
        ("ring-deviation_profile", bi.deviation_profile(ring, 1, 50)),
    ]


def analysis_models() -> list[tuple[str, bi.SystemModel]]:
    dense = replace(
        ring_config(1, 0), regressor_kind="dense-uniform", noise_kind="laplace",
        noise_params={"scale": 0.1},
    )
    return [("sparse", bi.build_model(ring_config(1, 0))), ("dense", bi.build_model(dense))]


def main() -> None:
    for name, cfg in configs():
        trajectory, summary = digests(cfg)
        print(name, trajectory, summary, flush=True)
    for name, cfg in configs():
        print(f"{name}-ini", ini_round_trip(cfg), flush=True)
    schedules = configs() + [("preset-v-101-degree", replace(bi.preset_v(seed=101), weights="degree"))]
    for name, cfg in schedules:
        print(f"{name}-schedule", *schedule_digests(cfg), flush=True)
    print("ring-file", *file_run_digests(), flush=True)
    for name, cfg in configs():
        if name in ("preset-v-101", "ring-dense-1"):
            print(f"{name}-nosink", *no_sink_digests(cfg), flush=True)
            print(f"{name}-steps", step_digest(cfg), flush=True)
            print(f"{name}-zero", *digests(replace(cfg, steps=0)), flush=True)
    for name, cfg in configs():
        if name in ("ring-sparse-1", "ring-dense-1"):
            for disagreeing in (False, True):
                start = "disagreeing" if disagreeing else "zero"
                print(f"{name}-{start}-direct", direct_step_digest(cfg, disagreeing), flush=True)
    print("generic-direct", generic_step_digest(), flush=True)
    outputs = [out for kind, model in analysis_models() for out in analysis_outputs(kind, model)]
    for name, arr in outputs + preset_analysis_outputs() + profile_outputs():
        print(name, hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest(), flush=True)


def _digest_lines(root: Path) -> list[str]:
    """What this script prints when run from the checkout at ``root``."""
    script = root / "tools" / "artifact_digests.py"
    run = subprocess.run([sys.executable, str(script)], stdout=subprocess.PIPE, text=True, check=True)
    return run.stdout.splitlines()


def compare(rev: str) -> int:
    """Print the diff of ``rev``'s digests against this tree's; 1 if they differ."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        theirs = _digest_lines(Path(tmp))
    ours = _digest_lines(ROOT)
    diff = list(difflib.unified_diff(theirs, ours, rev, "working tree", n=0, lineterm=""))
    if diff:
        print("\n".join(diff))
    return 1 if diff else 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: artifact_digests.py [REV]")
    sys.exit(compare(sys.argv[1]) if len(sys.argv) == 2 else main())
