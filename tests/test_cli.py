"""Command-line entry points, exercised through ``main(argv)``."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from binident import runner
from binident.cli import build_parser, main
from binident.runner import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent

STAR4 = (0.5, -0.4, 0.3, -0.35)


@pytest.fixture
def small_ini(tmp_path):
    cfg = ExperimentConfig(
        n_agents=8,
        l=4,
        steps=300,
        seed=7,
        stride=50,
        theta_star=STAR4,
        topology_kind="partitioned-ring",
        period=4,
        noise_kind="gaussian",
        noise_params={"sigma2": 0.01},
    )
    path = tmp_path / "small.ini"
    cfg.to_ini(path)
    return path


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_main_builds_the_parser_once_and_parses_each_call_afresh(monkeypatch):
    from binident import cli

    built, seen = [], []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    record = {name: lambda args: seen.append(vars(args)) or 0 for name in cli._COMMANDS}
    monkeypatch.setattr(cli, "_COMMANDS", record)
    cli._parser.cache_clear()
    try:
        assert main(["preset-v", "--seed", "3", "--out", "a", "--steps", "5",
                     "--paper-weights"]) == 0
        assert main(["simulate", "--config", "c.ini", "--stride", "7"]) == 0
        assert main(["preset-v", "--seed", "4", "--out", "b"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    common = {"seed": None, "steps": None, "out": None, "stride": None, "paper_weights": False}
    assert seen == [
        {**common, "command": "preset-v", "seed": 3, "out": "a", "steps": 5, "paper_weights": True},
        {**common, "command": "simulate", "config": "c.ini", "stride": 7},
        {**common, "command": "preset-v", "seed": 4, "out": "b"},
    ]


def test_simulate_prints_preflight_and_final_state(small_ini, capsys):
    rc = main(["simulate", "--config", str(small_ini)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("preflight: ok")
    assert "finished k=301: mean error" in out
    assert "truncations" in out


def test_simulate_writes_artifacts_with_out_override(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["simulate", "--config", str(small_ini), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert f"wrote {out_dir / 'trajectory.csv'}" in out


def test_simulate_overrides_reach_the_run(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "o"
    rc = main(
        [
            "simulate",
            "--config",
            str(small_ini),
            "--steps",
            "40",
            "--seed",
            "99",
            "--stride",
            "10",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["final"]["k"] == 41
    assert summary["config"]["seed"] == 99
    assert summary["config"]["stride"] == 10


def test_simulate_missing_config_is_a_clean_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.ini")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: config file not found")
    assert captured.out == ""


def test_simulate_missing_schedule_file_is_a_clean_error(tmp_path, capsys):
    cfg = ExperimentConfig(
        n_agents=3, l=2, steps=10, seed=0, theta_star=(0.5, -0.4), topology_kind="file",
        schedule_file=str(tmp_path / "missing.schedule"),
    )
    path = tmp_path / "file.ini"
    cfg.to_ini(path)
    rc = main(["simulate", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: invalid config:\ntopology.file: cannot read ")
    assert captured.out == ""


def test_simulate_invalid_config_reports_field(tmp_path, capsys):
    cfg = ExperimentConfig(
        n_agents=2, l=4, steps=10, seed=0, theta_star=STAR4, topology_kind="complete"
    )
    path = tmp_path / "bad.ini"
    cfg.to_ini(path)
    rc = main(["simulate", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: invalid config:")
    assert "unexcited" in err


def test_simulate_reports_every_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\nstride = 0\n"
        "[regressor]\nkind = bogus\n[algorithm]\ngain = 0\n"
    )
    rc = main(["simulate", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: invalid config:\n")
    lines = captured.err.splitlines()[1:]
    assert [ln.split(":")[0] for ln in lines] == ["regressor.kind", "run.stride", "algorithm.gain"]
    assert captured.out == ""


def test_simulate_builds_model_and_schedule_once(small_ini, monkeypatch, capsys):
    calls = []
    for name in ("build_model", "build_schedule"):
        inner = getattr(runner, name)

        def counted(*args, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(runner, name, counted)
    assert main(["simulate", "--config", str(small_ini), "--steps", "5"]) == 0
    assert sorted(calls) == ["build_model", "build_schedule"]
    capsys.readouterr()


def test_simulate_refuses_a_nan_in_a_field_the_topology_does_not_read(tmp_path, capsys):
    # a ring never reads p, but the summary's config block would hold it as NaN
    path = tmp_path / "ring.ini"
    path.write_text(
        "[model]\nn_agents = 4\nl = 2\n\n[run]\nsteps = 20\nseed = 1\n\n"
        "[topology]\nkind = ring\np = nan\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "o1"
    rc = main(["simulate", "--config", str(path), "--out", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid config:", "topology.p: must be finite"
    ]
    assert not out_dir.exists()


_MALFORMED = {
    "duplicate-section": ("[model]\nn_agents = 8\n[model]\nl = 4\n",
                          "line 3: section [model] appears twice"),
    "duplicate-key": ("[model]\nn_agents = 8\nn_agents = 4\n",
                      "line 3: key model.n_agents is set twice"),
    "no-section-header": ("n_agents = 8\n[model]\nl = 4\n",
                          "line 1: a key before the first [section] header"),
    "no-equals-sign": ("[model]\nn_agents = 8\nl 4\n",
                       "line 3: not a [section] header or a 'key = value' line"),
}


@pytest.mark.parametrize("kind", list(_MALFORMED))
@pytest.mark.parametrize(
    "command", [["simulate"], ["probe", "--agent", "1"], ["analyze", "--theta", "0"]],
    ids=["simulate", "probe", "analyze"],
)
def test_a_malformed_ini_is_named_by_file_and_line(tmp_path, capsys, kind, command):
    text, message = _MALFORMED[kind]
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    assert main([*command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}, {message}\n"
    assert captured.out == ""


def test_simulate_and_probe_read_a_percent_sign_in_the_config(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "x%y"
    path = tmp_path / "percent.ini"
    text = small_ini.read_text(encoding="utf-8")
    path.write_text(text.replace("[run]\n", f"[run]\nout = {out_dir}\n"), encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 0
    assert (out_dir / "summary.json").exists()
    assert main(["probe", "--agent", "1", "--config", str(path), "--steps", "5"]) == 0
    capsys.readouterr()


def _no_run(*args, **kwargs):
    raise AssertionError("ran with an unusable output directory")


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_simulate_and_probe_refuse_an_unusable_out_before_running(
    small_ini, tmp_path, capsys, monkeypatch, under
):
    from binident import cli

    blocker = tmp_path / "blocker"
    blocker.write_text("x", encoding="utf-8")
    out = blocker / "sub" if under else blocker
    reason = "Not a directory" if under else "File exists"
    monkeypatch.setattr(runner, "run", _no_run)
    monkeypatch.setattr(cli, "identifiability_probe", _no_run)
    assert main(["simulate", "--config", str(small_ini), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: run.out: cannot create {out}: {reason}\n"
    assert main(["probe", "--agent", "1", "--config", str(small_ini), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: cannot create {out}: {reason}\n"
    assert blocker.read_text(encoding="utf-8") == "x"


@pytest.mark.parametrize("command", [["simulate"], ["probe", "--agent", "1"]],
                         ids=["simulate", "probe"])
def test_a_config_that_fails_preflight_creates_no_out_directory(tmp_path, capsys, command):
    path = tmp_path / "bad.ini"
    ExperimentConfig(n_agents=8, l=0, steps=10, seed=0).to_ini(path)
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: invalid config:\nmodel.l: must be >= 1\n"
    assert not out.exists()


def test_preset_v_short_run(tmp_path, capsys):
    out_dir = tmp_path / "pv"
    rc = main(
        ["preset-v", "--seed", "3", "--out", str(out_dir), "--steps", "200", "--stride", "100"]
    )
    assert rc == 0
    assert "finished k=201" in capsys.readouterr().out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["n_agents"] == 100
    assert summary["config"]["topology"]["weights"] == "metropolis"


def test_preset_v_paper_weights_warn_but_run(tmp_path, capsys):
    rc = main(
        [
            "preset-v",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "pw"),
            "--steps",
            "100",
            "--paper-weights",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    summary = json.loads((tmp_path / "pw/summary.json").read_text())
    assert summary["config"]["topology"]["weights"] == "degree"
    assert summary["preflight"]["ok"]


def test_probe_reports_identifiable_partition(small_ini, capsys):
    rc = main(["probe", "--agent", "2", "--config", str(small_ini), "--steps", "2000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "identifiable [2], stalled [1, 3, 4]" in out
    # stalled coordinates stay at zero, so their error is the true magnitude
    assert "coordinate 1: estimate 0, error 0.5 [stalled]" in out


def test_probe_writes_jsonl(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "probe"
    rc = main(
        [
            "probe",
            "--agent",
            "2",
            "--config",
            str(small_ini),
            "--steps",
            "2000",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    rows = [json.loads(ln) for ln in (out_dir / "probe.jsonl").read_text().splitlines()]
    assert [r["coordinate"] for r in rows] == [1, 2, 3, 4]
    assert [r["identifiable"] for r in rows] == [False, True, False, False]
    assert rows[0]["error"] == 0.5
    capsys.readouterr()


def test_probe_bad_agent_id(small_ini, capsys):
    rc = main(["probe", "--agent", "12", "--config", str(small_ini), "--steps", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")


def test_probe_names_a_negative_seed_override(small_ini, capsys):
    rc = main(["probe", "--agent", "1", "--config", str(small_ini), "--steps", "5",
               "--seed", "-3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: invalid config:\nrun.seed: must be >= 0\n"
    assert captured.out == ""


def test_probe_seed_override_replaces_the_config_seed(small_ini, tmp_path, capsys):
    reseeded = tmp_path / "reseeded.ini"
    cfg = ExperimentConfig.from_ini(small_ini)
    cfg.seed = 11
    cfg.to_ini(reseeded)
    argv = ["probe", "--agent", "2", "--steps", "300"]
    assert main([*argv, "--config", str(reseeded)]) == 0
    want = capsys.readouterr().out
    assert main([*argv, "--config", str(small_ini), "--seed", "11"]) == 0
    assert capsys.readouterr().out == want
    assert main([*argv, "--config", str(small_ini)]) == 0
    assert capsys.readouterr().out != want


def test_probe_rejects_a_nan_threshold(small_ini, capsys):
    rc = main(["probe", "--agent", "2", "--config", str(small_ini), "--steps", "10",
               "--threshold", "nan"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: threshold must be finite and positive, got nan\n"
    assert captured.out == ""


@pytest.mark.parametrize("field", ["l", "n_agents"])
@pytest.mark.parametrize("command", [["probe", "--agent", "1"], ["analyze", "--theta", "0"]])
def test_probe_and_analyze_name_the_config_field_preflight_rejects(tmp_path, capsys, field, command):
    path = tmp_path / "bad.ini"
    ExperimentConfig(**{"n_agents": 8, "l": 4, field: 0}, steps=10, seed=0).to_ini(path)
    rc = main([*command, "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: invalid config:\nmodel.{field}: must be >= 1\n"
    assert captured.out == ""


def test_probe_and_analyze_run_on_a_model_with_unexcited_coordinates(tmp_path, capsys):
    # two sparse agents for four coordinates: preflight reports the gap, and
    # these two commands exist to look at such a model
    cfg = ExperimentConfig(n_agents=2, l=4, steps=100, seed=3, theta_star=STAR4,
                           topology_kind="ring")
    path = tmp_path / "sparse.ini"
    cfg.to_ini(path)
    assert runner.preflight(cfg).errors == [
        "model.n_agents: sparse regressors leave coordinates [3, 4] unexcited"
    ]
    assert main(["analyze", "--config", str(path), "--theta", "0,0,0,0"]) == 0
    assert "curvature eigenvalues" in capsys.readouterr().out
    assert main(["probe", "--agent", "1", "--config", str(path), "--steps", "50"]) == 0
    assert "stalled [2, 3, 4]" in capsys.readouterr().out


def test_analyze_reports_field_and_curvature(small_ini, capsys):
    rc = main(["analyze", "--config", str(small_ini), "--theta", "0,0,0,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "||f(theta)||" in out
    assert "curvature eigenvalues" in out
    # 2 agents per coordinate, each contributing 2 pdf(0) / 3
    assert "5.319230" in out


def test_analyze_near_root_norm_is_tiny(small_ini, capsys):
    rc = main(["analyze", "--config", str(small_ini), "--theta", "0.5,-0.4,0.3,-0.35"])
    out = capsys.readouterr().out
    assert rc == 0
    norm = float(out.split("||f(theta)|| = ")[1].splitlines()[0])
    assert norm < 1e-10


def test_analyze_rejects_wrong_length(small_ini, capsys):
    rc = main(["analyze", "--config", str(small_ini), "--theta", "1,2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip() == "error: --theta: expected 4 values, got 2"


def test_analyze_rejects_garbage_theta(small_ini, capsys):
    rc = main(["analyze", "--config", str(small_ini), "--theta", "a,b,c,d"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: --theta: cannot parse")


@pytest.mark.parametrize("theta", ["nan,0,0,0", "0,inf,0,0", "0,0,-inf,0"])
def test_analyze_rejects_non_finite_theta(small_ini, capsys, theta):
    rc = main(["analyze", "--config", str(small_ini), "--theta", theta])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: --theta: values must be finite")
    assert captured.out == ""


_IMPORT_CONTRACT = """
import sys
import numpy as np
import binident as bi
from binident.cli import main


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


out, *inis = sys.argv[1:]
assert main(["preset-v", "--seed", "101", "--steps", "50", "--out", out + "/preset-v"]) == 0
for i, ini in enumerate(inis):
    assert main(["simulate", "--config", ini, "--out", f"{out}/simulate-{i}"]) == 0
assert not scipy_modules(), scipy_modules()

model = bi.build_model(bi.ExperimentConfig.from_ini(inis[0]))    # gaussian noise
ctx = bi.RegressionContext(model)
value = bi.regression_function(ctx, np.zeros(model.l))
assert np.isfinite(value).all(), value
root = bi.solve_root(ctx, np.zeros(model.l))
assert np.abs(root - model.theta_star).max() < 1e-10, root
assert main(["analyze", "--config", inis[0], "--theta", "0,0,0,0"]) == 0
assert not scipy_modules(), scipy_modules()
"""


def _fresh_interpreter(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_simulation_and_analysis_load_no_scipy(tmp_path):
    """Every command and the analysis path are numpy only (checked in a
    fresh interpreter, since this one has scipy loaded)."""
    inis = []
    for kind, params in (
        ("gaussian", {"sigma2": 0.01}),
        ("laplace", {"scale": 0.1}),
        ("uniform", {"half_width": 0.2}),
    ):
        cfg = ExperimentConfig(
            n_agents=8,
            l=4,
            steps=50,
            seed=7,
            theta_star=STAR4,
            topology_kind="partitioned-ring",
            period=4,
            noise_kind=kind,
            noise_params=params,
        )
        inis.append(str(tmp_path / f"{kind}.ini"))
        cfg.to_ini(inis[-1])
    proc = _fresh_interpreter(_IMPORT_CONTRACT, str(tmp_path), *inis)
    assert proc.returncode == 0, proc.stderr


def test_binident_runs_where_scipy_cannot_be_imported():
    script = """
import sys
sys.modules["scipy"] = None          # any scipy import now raises ImportError
import numpy as np
import binident as bi
ctx = bi.RegressionContext(bi.build_model(bi.preset_v(seed=101, steps=0)))
root = bi.solve_root(ctx, np.zeros(ctx.l))
assert np.abs(root - ctx.model.theta_star).max() < 1e-10, root
"""
    proc = _fresh_interpreter(script)
    assert proc.returncode == 0, proc.stderr
