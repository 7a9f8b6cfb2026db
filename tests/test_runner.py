"""Experiment configs, preflight validation, artifact IO, full runs."""

import configparser
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import binident as bi
from binident.cli import main
from binident.runner import (
    _FIELDS,
    _TYPE_CHECKS,
    ExperimentConfig,
    _parse_bool,
    preflight,
    read_trajectory_csv,
    write_trajectory_csv,
)
from binident.topology import degree_weights, dump_schedule, from_undirected_pairs

STAR4 = (0.5, -0.4, 0.3, -0.35)


def small_config(**overrides) -> ExperimentConfig:
    """Fast, preflight-clean 8-agent configuration."""
    base = dict(
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
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config: theta resolution and dict view

def test_resolved_theta_star_graded_preset():
    cfg = small_config(theta_star="graded")
    assert np.allclose(cfg.resolved_theta_star(), bi.graded_theta_star(4))


def test_resolved_theta_star_explicit_vector():
    assert np.array_equal(small_config().resolved_theta_star(), STAR4)


def test_resolved_theta_star_unknown_preset():
    with pytest.raises(ValueError, match="model.theta_star: unknown preset"):
        small_config(theta_star="linear").resolved_theta_star()


def test_resolved_theta_star_wrong_length():
    with pytest.raises(ValueError, match="expected 4 entries, got 3"):
        small_config(theta_star=(1.0, 2.0, 3.0)).resolved_theta_star()


def test_to_dict_groups_fields_by_section():
    d = small_config().to_dict()
    assert d["topology"]["kind"] == "partitioned-ring"
    assert d["noise"] == {"kind": "gaussian", "sigma2": 0.01}
    assert d["theta_star"] == [0.5, -0.4, 0.3, -0.35]
    assert d["algorithm"] == {"gain": 1.0, "radii": "linear"}


# ---------------------------------------------------------------------------
# config: INI round trip

_TOPOLOGY_FIELDS = {
    "poisson": {},
    "complete": {},
    "ring": {},
    "partitioned-ring": {"period": 4, "window": 4},
    "file": {"schedule_file": "nets/ring.schedule", "window": 3},
}


@pytest.mark.parametrize("kind", list(_TOPOLOGY_FIELDS))
def test_ini_round_trip_preserves_every_field(tmp_path, kind):
    cfg = small_config(
        out="runs/x",
        topology_kind=kind,
        p=0.3,
        **{"period": None, **_TOPOLOGY_FIELDS[kind]},
        weights="degree",
        regressor_kind="dense-uniform",
        regressor_bound=2.5,
        noise_kind="laplace",
        noise_params={"scale": 0.3},
        record_theta_bar=False,
        record_agent_errors=True,
        gain=2.5,
        radii="doubling",
    )
    path = tmp_path / "cfg.ini"
    cfg.to_ini(path)
    back = ExperimentConfig.from_ini(path)
    assert back.to_dict() == cfg.to_dict()
    assert back.to_dict()["topology"]["p"] == 0.3
    assert back.out == cfg.out


def test_ini_round_trip_graded_default(tmp_path):
    cfg = small_config(theta_star="graded")
    cfg.to_ini(tmp_path / "g.ini")
    back = ExperimentConfig.from_ini(tmp_path / "g.ini")
    assert back.theta_star == "graded"


def test_ini_round_trip_keeps_a_percent_sign(tmp_path):
    cfg = small_config(out="run 100%")
    cfg.to_ini(tmp_path / "cfg.ini")
    assert ExperimentConfig.from_ini(tmp_path / "cfg.ini").out == "run 100%"


def test_from_ini_missing_file():
    with pytest.raises(ValueError, match="config file not found"):
        ExperimentConfig.from_ini("/no/such/file.ini")


def test_from_ini_missing_required_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\n")
    with pytest.raises(ValueError, match=r"run\.seed: required key is missing"):
        ExperimentConfig.from_ini(path)


def test_from_ini_unparseable_value_names_the_field(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nn_agents = 8\nl = four\n[run]\nsteps = 10\nseed = 0\n")
    with pytest.raises(ValueError, match=r"model\.l: cannot parse 'four'"):
        ExperimentConfig.from_ini(path)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("[algorithm]\ngian = 16\n", r"^algorithm\.gian: unknown key$"),
        ("[topology]\nwindow = 4\n", r"^topology\.window: unknown key$"),
        ("[noise]\nsigma = 0.1\n", r"^noise\.sigma: unknown key$"),
        ("[algorithms]\ngain = 16\nradii = doubling\n",
         r"^algorithms\.gain: unknown key\nalgorithms\.radii: unknown key$"),
    ],
)
def test_from_ini_rejects_unknown_keys(tmp_path, extra, message):
    path = tmp_path / "typo.ini"
    path.write_text("[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n" + extra)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_ini(path)


def test_from_ini_reads_keys_case_insensitively(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(
        "[model]\nN_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n"
        "[topology]\nb = 3\n[noise]\nkind = laplace\nScale = 0.3\n"
    )
    cfg = ExperimentConfig.from_ini(path)
    assert cfg.n_agents == 8 and cfg.window == 3 and cfg.noise_params == {"scale": 0.3}


def test_from_ini_bad_theta_star(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\ntheta_star = 0.5, oops\n[run]\nsteps = 10\nseed = 0\n"
    )
    with pytest.raises(ValueError, match="model.theta_star: cannot parse"):
        ExperimentConfig.from_ini(path)


def test_from_ini_theta_star_mixed_separators(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\ntheta_star = 0.5, -0.4 0.3,-0.35\n"
        "[run]\nsteps = 10\nseed = 0\n"
    )
    assert ExperimentConfig.from_ini(path).theta_star == STAR4


def test_from_ini_defaults(tmp_path):
    path = tmp_path / "min.ini"
    path.write_text("[model]\nn_agents = 100\nl = 8\n[run]\nsteps = 10\nseed = 0\n")
    cfg = ExperimentConfig.from_ini(path)
    assert cfg.theta_star == "graded"
    assert cfg.topology_kind == "poisson" and cfg.p == 0.06
    assert cfg.weights == "metropolis"
    assert cfg.noise_params == {"sigma2": 0.09}
    assert cfg.stride == 100 and cfg.out is None
    assert cfg.record_theta_bar and not cfg.record_agent_errors
    assert cfg.gain == 1.0 and cfg.radii == "linear"


def test_from_ini_laplace_without_scale_names_the_missing_key(tmp_path):
    path = tmp_path / "laplace.ini"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n[noise]\nkind = laplace\n"
    )
    cfg = ExperimentConfig.from_ini(path)
    assert cfg.noise_params == {}
    with pytest.raises(ValueError, match=r"^noise\.scale: laplace noise takes \['scale'\], got \[\]"):
        bi.build_model(cfg)
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n"
        "[noise]\nkind = laplace\nscale = 0.3\n"
    )
    assert bi.build_model(ExperimentConfig.from_ini(path)).noise == bi.LaplaceNoise(0.3)


def test_build_model_gaussian_with_scale_names_the_expected_key():
    cfg = small_config(noise_kind="gaussian", noise_params={"scale": 0.3})
    with pytest.raises(
        ValueError, match=r"^noise\.sigma2: gaussian noise takes \['sigma2'\], got \['scale'\]"
    ):
        bi.build_model(cfg)
    assert "noise.sigma2: gaussian noise takes ['sigma2'], got ['scale']" in preflight(cfg).errors


def test_from_ini_algorithm_section(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n"
        "[algorithm]\ngain = 16\nradii = doubling\n"
    )
    cfg = ExperimentConfig.from_ini(path)
    assert cfg.gain == 16.0 and cfg.radii == "doubling"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n"
        "[algorithm]\ngain = fast\n"
    )
    with pytest.raises(ValueError, match=r"algorithm\.gain: cannot parse 'fast'"):
        ExperimentConfig.from_ini(path)


def test_from_ini_boolean_spellings(tmp_path):
    path = tmp_path / "b.ini"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n"
        "[record]\ntheta_bar = off\nagent_errors = YES\n"
    )
    cfg = ExperimentConfig.from_ini(path)
    assert cfg.record_theta_bar is False
    assert cfg.record_agent_errors is True


def test_from_ini_rejects_bad_boolean(tmp_path):
    path = tmp_path / "b.ini"
    path.write_text(
        "[model]\nn_agents = 8\nl = 4\n[run]\nsteps = 10\nseed = 0\n"
        "[record]\ntheta_bar = maybe\n"
    )
    with pytest.raises(ValueError, match=r"record\.theta_bar: cannot parse 'maybe'"):
        ExperimentConfig.from_ini(path)


# ---------------------------------------------------------------------------
# building the model and the schedule

def test_build_model_sparse_default():
    model = bi.build_model(small_config())
    assert isinstance(model.regressor, bi.SparseUniformRegressors)
    assert model.noise == bi.GaussianNoise(0.01)


def test_build_model_dense_bound():
    cfg = small_config(regressor_kind="dense-uniform", regressor_bound=2.0)
    gen = bi.build_model(cfg).regressor
    assert isinstance(gen, bi.DenseUniformRegressors)
    assert gen.bound == 2.0


def test_build_model_unknown_regressor_kind():
    with pytest.raises(ValueError, match="regressor.kind: unknown kind 'fourier'"):
        bi.build_model(small_config(regressor_kind="fourier"))


def test_build_model_noise_errors_are_prefixed():
    cfg = small_config(noise_params={"sigma2": -1.0})
    with pytest.raises(ValueError, match="noise: sigma2 must be finite and positive"):
        bi.build_model(cfg)


def test_build_schedule_static_kinds():
    ss = np.random.SeedSequence(0)
    ring = bi.build_schedule(small_config(topology_kind="ring", period=None), ss)
    assert ring.B == 1 and ring.n_agents == 8
    assert bi.is_doubly_stochastic(ring[1])
    comp = bi.build_schedule(small_config(topology_kind="complete", period=None), ss)
    assert np.allclose(comp[5].w, 1.0 / 8)


def test_build_schedule_poisson_uses_topology_seed():
    cfg = small_config(topology_kind="poisson", p=0.5, period=None)
    a = bi.build_schedule(cfg, np.random.SeedSequence(1))
    b = bi.build_schedule(cfg, np.random.SeedSequence(1))
    c = bi.build_schedule(cfg, np.random.SeedSequence(2))
    assert np.array_equal(a[1].w, b[1].w)
    assert not np.array_equal(a[1].w, c[1].w)


def test_build_schedule_partitioned_ring_needs_period():
    with pytest.raises(ValueError, match="topology.period: required"):
        bi.build_schedule(small_config(period=None), np.random.SeedSequence(0))


def test_build_schedule_window_override():
    cfg = small_config(window=8)
    sched = bi.build_schedule(cfg, np.random.SeedSequence(0))
    assert sched.B == 8


@pytest.mark.parametrize("window", [0, -3])
def test_build_schedule_window_must_be_positive(window):
    with pytest.raises(ValueError, match=r"^topology\.B: must be >= 1$"):
        bi.build_schedule(small_config(window=window), np.random.SeedSequence(0))
    assert "topology.B: must be >= 1" in preflight(small_config(window=window)).errors


def test_build_schedule_from_file(tmp_path, datadir):
    cfg = small_config(
        n_agents=4,
        topology_kind="file",
        period=None,
        schedule_file=str(datadir / "ring4_period2.schedule"),
    )
    sched = bi.build_schedule(cfg, np.random.SeedSequence(0))
    assert sched.n_agents == 4 and sched.B == 2


def test_build_schedule_file_agent_mismatch(datadir):
    cfg = small_config(
        topology_kind="file",
        period=None,
        schedule_file=str(datadir / "ring4_period2.schedule"),
    )
    with pytest.raises(ValueError, match="schedule has 4 agents, config says 8"):
        bi.build_schedule(cfg, np.random.SeedSequence(0))


def test_build_schedule_unknown_kind_and_weights():
    with pytest.raises(ValueError, match="topology.kind: unknown kind"):
        bi.build_schedule(small_config(topology_kind="torus"), np.random.SeedSequence(0))
    with pytest.raises(ValueError, match="topology.weights: unknown scheme"):
        bi.build_schedule(small_config(weights="uniform"), np.random.SeedSequence(0))


# ---------------------------------------------------------------------------
# preflight

def test_preflight_clean_config():
    rep = preflight(small_config())
    assert rep.ok and rep.errors == [] and rep.warnings == []
    assert rep.network is not None and rep.network.connectivity_ok
    assert rep.lines()[0] == "preflight: ok"


def test_preflight_negative_steps_and_bad_stride():
    rep = preflight(small_config(steps=-1, stride=0))
    assert "run.steps: must be >= 0" in rep.errors
    assert "run.stride: must be >= 1" in rep.errors


@pytest.mark.parametrize("steps", [2.5, True, "300"])
def test_preflight_rejects_non_integer_steps(steps):
    assert preflight(small_config(steps=steps)).errors == ["run.steps: must be an integer"]
    with pytest.raises(ValueError, match="run.steps: must be an integer"):
        bi.run_experiment(small_config(steps=steps))


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(stride=2.5), "run.stride: must be an integer"),
        (dict(stride=True), "run.stride: must be an integer"),
        (dict(l=4.0), "model.l: must be an integer"),
        (dict(window=2.5), "topology.B: must be an integer"),
        (dict(n_agents=8.0), "model.n_agents: must be an integer"),
        (dict(seed=1.5), "run.seed: must be an integer"),
        (dict(period=2.5), "topology.period: must be an integer"),
        (dict(topology_kind="poisson", p=1.5, period=None),
         "topology.p: p must lie in [0, 1]"),
        (dict(period=20), "topology.period: period must lie in 1..n"),
        (dict(n_agents=0), "model.n_agents: must be >= 1"),
        (dict(l=0), "model.l: must be >= 1"),
        (dict(seed=-3), "run.seed: must be >= 0"),
    ],
    ids=["stride-float", "stride-bool", "l-float", "window-float", "n_agents-float",
         "seed-float", "period-float", "p-range", "period-range", "n_agents-range",
         "l-range", "seed-range"],
)
def test_preflight_names_each_bad_integer_or_range_field_once(overrides, message):
    assert preflight(small_config(**overrides)).errors == [message]
    with pytest.raises(ValueError, match=re.escape(message)):
        bi.run_experiment(small_config(**overrides))


_HOSTILE = {
    float: [None, True, "x", "0.5", (1.0,), float("nan"), float("inf"), float("-inf")],
    _parse_bool: [None, "x", "true", 2.5, 1, float("nan")],
    str: [None, 5, True, b"ring", ("ring",), ["ring"]],
}
_OPTIONAL = {f.name for f in fields(ExperimentConfig) if f.default is None}
_TYPED_CASES = [
    (f"{section}.{key}", parse, attr, value)
    for section, key, attr, parse, _ in _FIELDS
    if parse in _HOSTILE
    for value in _HOSTILE[parse]
    if not (value is None and attr in _OPTIONAL)
]


@pytest.mark.parametrize(
    "name, parse, attr, value", _TYPED_CASES,
    ids=[f"{name}={value!r}" for name, _, _, value in _TYPED_CASES],
)
def test_preflight_names_each_mistyped_or_non_finite_field_once(
    tmp_path, capsys, name, parse, attr, value
):
    # small_config's partitioned ring never reads p or file: they are checked all the same
    out = tmp_path / "out"
    cfg = small_config(**{"out": str(out), attr: value})
    non_finite = parse is float and isinstance(value, float)
    errors = preflight(cfg).errors
    assert errors == [f"{name}: {'must be finite' if non_finite else _TYPE_CHECKS[parse][1]}"]
    with pytest.raises(ValueError, match=re.escape(errors[0])):
        bi.run_experiment(cfg)
    assert not out.exists()
    ini = tmp_path / "cfg.ini"
    with pytest.raises(ValueError) as info:
        cfg.to_ini(ini)
    assert str(info.value) == errors[0]
    assert not ini.exists()
    if non_finite:      # an INI can hold it: written into a valid one's text
        small_config(out=str(out)).to_ini(ini)
        key = name.partition(".")[2]
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value!r}",
                              ini.read_text(encoding="utf-8"), flags=re.M)
        assert count == 1
        ini.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(ini)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: invalid config:", *errors]
        assert not out.exists()


def test_preflight_accepts_numpy_integer_steps():
    assert preflight(small_config(steps=np.int64(300))).ok


def test_numpy_scalars_run_and_are_written_as_plain_numbers(tmp_path):
    cfg = ExperimentConfig(
        n_agents=8, l=4, steps=np.int64(30), seed=1, topology_kind="ring",
        gain=np.float32(2), noise_params={"sigma2": np.float32(0.25)}, out=str(tmp_path),
    )
    assert preflight(cfg).ok
    assert bi.run_experiment(cfg).final.k == 31
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    config = summary["config"]
    assert config["steps"] == 30 and type(config["steps"]) is int
    assert config["algorithm"]["gain"] == 2.0 and type(config["algorithm"]["gain"]) is float
    assert config["noise"]["sigma2"] == 0.25 and type(config["noise"]["sigma2"]) is float


@pytest.mark.parametrize(
    "value, message",
    [("0.1", "must be a real number"), (True, "must be a real number"),
     (float("nan"), "must be finite"), (float("inf"), "must be finite")],
    ids=["str", "bool", "nan", "inf"],
)
def test_preflight_names_each_mistyped_or_non_finite_noise_parameter_once(
    tmp_path, capsys, value, message
):
    out = tmp_path / "out"
    cfg = small_config(noise_params={"sigma2": value}, out=str(out))
    assert preflight(cfg).errors == [f"noise.sigma2: {message}"]
    with pytest.raises(ValueError, match=re.escape(f"noise.sigma2: {message}")):
        bi.run_experiment(cfg)
    # in an INI, the value's repr: a quoted string and True fail to parse
    ini = tmp_path / "cfg.ini"
    small_config(out=str(out)).to_ini(ini)
    text = ini.read_text(encoding="utf-8")
    ini.write_text(text.replace("sigma2 = 0.01", f"sigma2 = {value!r}"), encoding="utf-8")
    assert main(["simulate", "--config", str(ini)]) == 2
    err = capsys.readouterr().err.splitlines()
    if isinstance(value, float):
        assert err == ["error: invalid config:", f"noise.sigma2: {message}"]
    else:
        assert err == [f"error: noise.sigma2: cannot parse {repr(value)!r}"]
    assert not out.exists()


def test_preflight_rejects_noise_parameters_that_are_not_a_mapping():
    for params in (None, [("sigma2", 0.01)]):
        assert preflight(small_config(noise_params=params)).errors == [
            "noise: parameters must be a mapping of names to reals"
        ]


@pytest.mark.parametrize(
    "overrides, name",
    [(dict(gain=10**400), "algorithm.gain"), (dict(gain=-10**400), "algorithm.gain"),
     (dict(p=10**400), "topology.p"), (dict(regressor_bound=10**400), "regressor.bound"),
     (dict(regressor_kind="dense-uniform", regressor_bound=10**400), "regressor.bound"),
     (dict(noise_params={"sigma2": 10**400}), "noise.sigma2")],
    ids=["gain", "gain-negative", "p", "bound-sparse", "bound-dense", "sigma2"],
)
def test_a_real_too_large_for_a_float_is_named_once_as_not_finite(tmp_path, overrides, name):
    out = tmp_path / "out"
    cfg = small_config(out=str(out), **overrides)
    errors = preflight(cfg).errors
    assert errors == [f"{name}: must be finite"]
    with pytest.raises(ValueError, match=re.escape(errors[0])):
        bi.run_experiment(cfg)
    assert not out.exists()


_UNWRITABLE = [
    dict(gain="2"), dict(gain=True), dict(gain=10**400), dict(noise_params={"sigma2": True}),
    dict(noise_params={"sigma2": "0.1"}), dict(noise_params=None), dict(stride=2.5),
    dict(record_theta_bar=1), dict(topology_kind=5), dict(gain="2", weights=None),
]


@pytest.mark.parametrize(
    "overrides", _UNWRITABLE,
    ids=["gain-str", "gain-bool", "gain-huge", "sigma2-bool", "sigma2-str", "params-none",
         "stride-float", "theta_bar-int", "kind-int", "gain-and-weights"],
)
def test_to_ini_refuses_a_mistyped_config_with_preflights_lines(tmp_path, overrides):
    cfg = small_config(**overrides)
    errors = preflight(cfg).errors
    assert errors and all(" must be " in e for e in errors), errors
    path = tmp_path / "cfg.ini"
    with pytest.raises(ValueError) as info:
        cfg.to_ini(path)
    assert str(info.value).splitlines() == errors
    assert not path.exists()


def test_parse_bool_reads_configparsers_words():
    for raw, want in configparser.ConfigParser.BOOLEAN_STATES.items():
        assert _parse_bool(f" {raw.upper()} ") is want
    with pytest.raises(ValueError, match="not a boolean"):
        _parse_bool("maybe")


def test_preflight_rejects_bad_gain_and_radii():
    for gain in (0.0, -2.0, float("nan"), float("inf")):
        rep = preflight(small_config(gain=gain))
        assert [e for e in rep.errors if e.startswith("algorithm.gain: ")], gain
    rep = preflight(small_config(radii="cubic"))
    assert any(
        e.startswith("algorithm.radii: unknown radius sequence 'cubic'") for e in rep.errors
    )
    with pytest.raises(ValueError, match="algorithm.radii"):
        bi.run_experiment(small_config(radii="cubic"))


def test_preflight_sparse_coverage_gap():
    # two agents only ever excite coordinates 1 and 2 of a 4-vector
    rep = preflight(small_config(n_agents=2, topology_kind="complete", period=None))
    assert rep.errors == [
        "model.n_agents: sparse regressors leave coordinates [3, 4] unexcited"
    ]


def test_preflight_disconnected_topology():
    rep = preflight(small_config(topology_kind="poisson", p=0.0, period=None))
    assert any(
        e.startswith("topology: union over windows of B=1 steps is not strongly")
        for e in rep.errors
    )


def test_preflight_bad_model_reported_without_crash():
    rep = preflight(small_config(regressor_kind="fourier"))
    assert not rep.ok
    assert rep.network is None
    assert "regressor.kind" in rep.errors[0]


def test_preflight_reports_every_error_when_the_build_fails():
    rep = preflight(small_config(regressor_kind="bogus", gain=0.0, stride=0))
    assert rep.network is None
    assert rep.errors[0].startswith("regressor.kind: unknown kind 'bogus'")
    assert "run.stride: must be >= 1" in rep.errors
    assert [e for e in rep.errors if e.startswith("algorithm.gain: ")]


def test_preflight_rejects_non_finite_theta_star():
    rep = preflight(small_config(theta_star=(float("nan"), 0.0, 0.0, 0.0)))
    assert rep.errors == ["model.theta_star: entries must be finite, got [nan, 0.0, 0.0, 0.0]"]
    with pytest.raises(ValueError, match="model.theta_star"):
        bi.run_experiment(small_config(theta_star=(0.0, float("inf"), 0.0, 0.0)))


_THETA_TYPE = 'model.theta_star: must be "graded" or a sequence of reals'


@pytest.mark.parametrize(
    "theta, message",
    [(("x", "y", "z", "w"), _THETA_TYPE),
     ((10**400, 1.0, 1.0, 1.0), "model.theta_star: must be finite"),
     ((None, 1.0, 1.0, 1.0), _THETA_TYPE),
     ((True, 1.0, 1.0, 1.0), _THETA_TYPE),
     (1.0, _THETA_TYPE),
     ([[0.5, -0.4], 0.3, -0.35], _THETA_TYPE),
     (np.reshape(STAR4, (2, 2)), _THETA_TYPE),
     ((0.5, -0.4, 0.3), "model.theta_star: expected 4 entries, got 3")],
    ids=["str", "huge", "none", "bool", "scalar", "ragged", "2-d", "length"],
)
def test_theta_star_is_typed_and_named_once(tmp_path, theta, message):
    out = tmp_path / "out"
    cfg = small_config(theta_star=theta, out=str(out))
    assert preflight(cfg).errors == [message]
    with pytest.raises(ValueError, match=re.escape(message)):
        bi.run_experiment(cfg)
    assert not out.exists()
    path = tmp_path / "cfg.ini"
    if message == "model.theta_star: expected 4 entries, got 3":    # typed, so an INI holds it
        cfg.to_ini(path)
        assert ExperimentConfig.from_ini(path).theta_star == theta
    else:
        with pytest.raises(ValueError) as info:
            cfg.to_ini(path)
        assert str(info.value) == message
        assert not path.exists()


def test_preflight_rejects_non_finite_regressor_bound():
    for kind in ("dense-uniform", "sparse-uniform"):
        for bound in (float("inf"), float("nan")):
            rep = preflight(small_config(regressor_kind=kind, regressor_bound=bound))
            assert rep.errors == ["regressor.bound: must be finite"]
    rep = preflight(small_config(regressor_kind="dense-uniform", regressor_bound=0.0))
    assert rep.errors == ["regressor.bound: must be finite and positive, got 0.0"]


def test_preflight_rejects_sparse_regressor_bound_other_than_one():
    for bound in (2.0, 0.5):
        rep = preflight(small_config(regressor_kind="sparse-uniform", regressor_bound=bound))
        assert rep.errors == [
            f"regressor.bound: sparse-uniform regressors have norm bound 1, got {bound!r}"
        ]
    assert preflight(small_config(regressor_kind="sparse-uniform", regressor_bound=1.0)).ok


def _star_schedule_file(tmp_path):
    g = from_undirected_pairs(3, [(1, 2), (1, 3)])
    w = degree_weights(g)
    assert not bi.is_doubly_stochastic(w)
    sched = bi.TopologySchedule(B=1, weights=[w] * 3)
    path = tmp_path / "star.schedule"
    dump_schedule(sched, path)
    return path


@pytest.mark.parametrize("triple", ["1 4 0.5", "0 2 0.5"])
def test_preflight_rejects_schedule_agent_ids_out_of_range(tmp_path, triple):
    path = tmp_path / "bad.schedule"
    path.write_text(f"3 1 static\nstep 1\n1 1 0.5\n{triple}\n")
    cfg = small_config(
        n_agents=3, l=2, theta_star=(0.5, -0.4), topology_kind="file", period=None,
        schedule_file=str(path),
    )
    with pytest.raises(ValueError, match="agent id out of range"):
        bi.build_schedule(cfg, np.random.SeedSequence(0))
    want = f"topology.file: agent id out of range 1..3 in triple line {triple!r}"
    assert preflight(cfg).errors == [want]


def _file_config(path):
    return small_config(
        n_agents=3, l=2, theta_star=(0.5, -0.4), topology_kind="file", period=None,
        schedule_file=str(path),
    )


def test_preflight_names_the_field_for_a_bad_schedule_header(tmp_path):
    path = tmp_path / "bad.schedule"
    path.write_text("3 1\nstep 1\n1 1 1.0\n")
    assert preflight(_file_config(path)).errors == [
        "topology.file: bad header '3 1'; expected 'n B mode'"
    ]


def test_preflight_reports_a_missing_schedule_file(tmp_path):
    path = tmp_path / "missing.schedule"
    with pytest.raises(ValueError, match="^topology.file: cannot read "):
        bi.build_schedule(_file_config(path), np.random.SeedSequence(0))
    assert preflight(_file_config(path)).errors == [
        f"topology.file: cannot read {path}: No such file or directory"
    ]


def test_preflight_degree_weights_downgrade_to_warning(tmp_path):
    """Row-stochastic-only mixing is a warning when chosen on purpose."""
    path = _star_schedule_file(tmp_path)
    cfg = small_config(
        n_agents=3,
        l=2,
        theta_star=(0.5, -0.4),
        topology_kind="file",
        period=None,
        schedule_file=str(path),
        weights="degree",
    )
    rep = preflight(cfg)
    assert rep.ok
    assert len(rep.warnings) == 1
    assert "not doubly stochastic" in rep.warnings[0]
    assert "averaging guarantees do not apply" in rep.warnings[0]


def test_preflight_nonstochastic_weights_fail_otherwise(tmp_path):
    path = _star_schedule_file(tmp_path)
    cfg = small_config(
        n_agents=3,
        l=2,
        theta_star=(0.5, -0.4),
        topology_kind="file",
        period=None,
        schedule_file=str(path),
        weights="metropolis",
    )
    rep = preflight(cfg)
    assert not rep.ok
    assert rep.errors == ["topology.weights: steps [1, 2, 3] are not doubly stochastic"]


def test_preflight_rejects_noise_without_density_at_zero():
    # 2 * 1e308 overflows to inf, so this Laplace density is 0.0 even at zero
    rep = preflight(small_config(noise_kind="laplace", noise_params={"scale": 1e308}))
    assert rep.errors == ["noise: density vanishes at zero"]


@pytest.mark.parametrize(
    "kind, param", [("gaussian", "sigma2"), ("laplace", "scale"), ("uniform", "half_width")]
)
def test_preflight_rejects_infinite_noise_parameters(kind, param):
    rep = preflight(small_config(noise_kind=kind, noise_params={param: float("inf")}))
    assert rep.errors == [f"noise.{param}: must be finite"]


# ---------------------------------------------------------------------------
# trajectory CSV

def _run_metrics(record_agent_errors=True, record_theta_bar=True, steps=120):
    cfg = small_config(
        steps=steps,
        stride=25,
        record_agent_errors=record_agent_errors,
        record_theta_bar=record_theta_bar,
    )
    return bi.run_experiment(cfg).metrics


def test_trajectory_csv_round_trip_exact(tmp_path):
    metrics = _run_metrics()
    path = tmp_path / "t.csv"
    write_trajectory_csv(metrics, path)
    assert read_trajectory_csv(path).equals(metrics)


def test_trajectory_csv_round_trip_without_optional_columns(tmp_path):
    metrics = _run_metrics(record_agent_errors=False, record_theta_bar=False)
    assert metrics.agent_errors is None and metrics.theta_bar is None
    path = tmp_path / "t.csv"
    write_trajectory_csv(metrics, path)
    back = read_trajectory_csv(path)
    assert back.equals(metrics)
    assert back.agent_errors is None and back.theta_bar is None


def test_trajectory_csv_header_names_columns(tmp_path):
    metrics = _run_metrics()
    path = tmp_path / "t.csv"
    write_trajectory_csv(metrics, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("k,sigma_max,consensus_gap,mean_error,err_1")
    assert header.endswith("theta_bar_4")


def test_read_trajectory_rejects_foreign_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,value\n1,2\n")
    with pytest.raises(ValueError, match="unexpected trajectory header"):
        read_trajectory_csv(path)


@pytest.mark.parametrize(
    "header",
    ["k,sigma_max,consensus_gap,mean_error,theta_bar_1,err_1",
     "k,sigma_max,consensus_gap,mean_error,err_1,err_1",
     "k,sigma_max,consensus_gap,mean_error,theta_bar_2,theta_bar_1",
     "k,sigma_max,consensus_gap,mean_error,extra"],
    ids=["theta-bar-before-err", "duplicate", "misnumbered", "unknown"],
)
def test_read_trajectory_rejects_a_header_it_does_not_write(tmp_path, header):
    path = tmp_path / "t.csv"
    path.write_text(header + "\n1,0" + ",0.5" * (header.count(",") - 1) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"unexpected trajectory header: {header!r}")):
        read_trajectory_csv(path)


@pytest.mark.parametrize(
    "row, name, value",
    [("1.5,0", "k", "1.5"), ("1,1.9", "sigma_max", "1.9"), ("inf,0", "k", "inf")],
)
def test_read_trajectory_rejects_a_non_integral_count(tmp_path, row, name, value):
    path = tmp_path / "t.csv"
    path.write_text(f"k,sigma_max,consensus_gap,mean_error\n1,0,0.1,0.2\n{row},0.1,0.2\n")
    with pytest.raises(ValueError, match=re.escape(
        f"trajectory column {name}: {value!r} is not an integer"
    )):
        read_trajectory_csv(path)


def test_read_trajectory_rejects_ragged_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("k,sigma_max,consensus_gap,mean_error\n1,0,0.0\n")
    with pytest.raises(ValueError, match="ragged"):
        read_trajectory_csv(path)


def test_read_trajectory_rejects_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty trajectory file: .*t.csv"):
        read_trajectory_csv(path)


# ---------------------------------------------------------------------------
# run_experiment

def test_run_experiment_writes_artifacts(tmp_path):
    cfg = small_config(out=str(tmp_path / "run"))
    res = bi.run_experiment(cfg)
    assert res.trajectory_path.exists() and res.summary_path.exists()
    on_disk = json.loads(res.summary_path.read_text())
    assert on_disk["schema"] == "binident-summary-1"
    assert on_disk["final"] == pytest.approx(res.summary["final"])
    assert res.summary["invariants"]["ok"]
    assert res.summary["preflight"]["ok"]


def test_run_experiment_summary_final_fields():
    res = bi.run_experiment(small_config())
    fin = res.summary["final"]
    star = np.array(STAR4)
    assert fin["k"] == 301
    assert fin["relative_mean_error"] == pytest.approx(
        fin["mean_error"] / np.linalg.norm(star)
    )
    assert fin["max_agent_error"] >= fin["mean_error"]
    assert fin["peak_consensus_gap"] >= fin["consensus_gap"]
    assert len(fin["theta_bar"]) == 4 and len(fin["sigma"]) == 8
    assert fin["sigma_max"] == max(fin["sigma"])


def test_run_experiment_no_out_keeps_everything_in_memory():
    res = bi.run_experiment(small_config())
    assert res.trajectory_path is None and res.summary_path is None
    assert res.metrics.n_rows > 0


def test_run_experiment_byte_identical_rerun(tmp_path):
    cfg_a = small_config(out=str(tmp_path / "a"))
    cfg_b = small_config(out=str(tmp_path / "b"))
    bi.run_experiment(cfg_a)
    bi.run_experiment(cfg_b)
    assert (tmp_path / "a/trajectory.csv").read_bytes() == (
        tmp_path / "b/trajectory.csv"
    ).read_bytes()
    sa = json.loads((tmp_path / "a/summary.json").read_text())
    sb = json.loads((tmp_path / "b/summary.json").read_text())
    for s in (sa, sb):
        s.pop("wall_time_s")      # timing is the one nondeterministic field
    assert sa == sb


def test_run_experiment_seed_changes_trajectory(tmp_path):
    bi.run_experiment(small_config(out=str(tmp_path / "a")))
    bi.run_experiment(small_config(seed=8, out=str(tmp_path / "b")))
    assert (tmp_path / "a/trajectory.csv").read_bytes() != (
        tmp_path / "b/trajectory.csv"
    ).read_bytes()


def test_run_experiment_zero_steps(tmp_path):
    cfg = small_config(steps=0, out=str(tmp_path / "z"))
    res = bi.run_experiment(cfg)
    # the initial snapshot is the one row
    assert res.metrics.k.tolist() == [1]
    assert (tmp_path / "z/trajectory.csv").read_text().splitlines()[1].startswith("1,0,0.0,")
    fin = res.summary["final"]
    assert fin["mean_error"] == pytest.approx(np.linalg.norm(STAR4))
    assert fin["consensus_gap"] == 0.0 and fin["peak_consensus_gap"] == 0.0


def test_zero_step_trajectory_reads_back_as_the_recorded_metrics(tmp_path):
    cfg = small_config(steps=0, out=str(tmp_path / "z"), record_agent_errors=True)
    res = bi.run_experiment(cfg)
    assert res.metrics.agent_errors.shape == (1, 8)
    assert read_trajectory_csv(res.trajectory_path).equals(res.metrics)


class _NaNNoise(bi.GaussianNoise):
    """Gaussian noise with NaN in every third slot of each draw."""

    def sample(self, rng, size=None):
        d = super().sample(rng, size)
        d[::3] = np.nan
        return d


class _NaNRegressors(bi.SparseUniformRegressors):
    """Sparse amplitudes with NaN in the first slot of each draw."""

    def draw(self, rng, size):
        eta = super().draw(rng, size)
        eta[0] = np.nan
        return eta


@pytest.mark.parametrize("role", ["noise", "regressor"])
def test_a_nan_sampler_fails_run_baseline_and_monte_carlo(role):
    model = bi.SystemModel(
        theta_star=np.array(STAR4),
        regressor=_NaNRegressors(4) if role == "regressor" else bi.SparseUniformRegressors(4),
        noise=_NaNNoise(0.01) if role == "noise" else bi.GaussianNoise(0.01),
        n_agents=8,
    )
    sched = bi.build_schedule(small_config(), None)
    with pytest.raises(ValueError, match=f"^{role}: "):
        bi.run(model, sched, 3000, seed=1, sinks=(bi.InvariantMonitor(),))
    with pytest.raises(ValueError, match=f"^{role}: "):
        bi.centralized_baseline(model, 3000, 1)
    with pytest.raises(ValueError, match=f"^{role}: .* agent 0"):
        bi.regression_function_mc(bi.RegressionContext(model), np.zeros(4), 1000, 1)


def test_run_experiment_rejects_invalid_config():
    cfg = small_config(n_agents=2, topology_kind="complete", period=None)
    with pytest.raises(ValueError, match="invalid config:"):
        bi.run_experiment(cfg)


def test_run_experiment_converges_on_small_network():
    cfg = small_config(steps=30_000, stride=1000)
    res = bi.run_experiment(cfg)
    assert res.summary["final"]["mean_error"] < 0.05
    assert res.summary["final"]["sigma_settled_second_half"]


# ---------------------------------------------------------------------------
# benchmark preset

def test_preset_v_shape():
    cfg = bi.preset_v(seed=42)
    assert cfg.n_agents == 100 and cfg.l == 8
    assert cfg.steps == 1_000_000 and cfg.seed == 42
    assert cfg.topology_kind == "poisson" and cfg.p == 0.06
    assert cfg.weights == "metropolis"
    assert cfg.regressor_kind == "sparse-uniform"
    assert cfg.noise_kind == "gaussian" and cfg.noise_params == {"sigma2": 0.09}
    assert cfg.gain == 16.0 and cfg.radii == "doubling"
    assert cfg.to_dict()["algorithm"] == {"gain": 16.0, "radii": "doubling"}
    star = cfg.resolved_theta_star()
    assert star[0] == pytest.approx(1.1)
    assert star[3] == pytest.approx(2.8)


def test_preset_v_passthroughs(tmp_path):
    cfg = bi.preset_v(seed=5, steps=1000, out=str(tmp_path), stride=10)
    assert cfg.steps == 1000 and cfg.stride == 10 and cfg.out == str(tmp_path)


def test_preset_v_short_run_is_preflight_clean():
    res = bi.run_experiment(bi.preset_v(seed=3, steps=200, stride=100))
    assert res.summary["preflight"]["ok"]
    assert res.summary["final"]["k"] == 201
    assert res.summary["invariants"]["ok"]


def test_preset_v_trajectory_columns_and_drift(tmp_path):
    cfg = bi.preset_v(seed=3, steps=2000, out=str(tmp_path), stride=200)
    res = bi.run_experiment(cfg)
    header = res.trajectory_path.read_text().splitlines()[0]
    assert header == "k,sigma_max,consensus_gap,mean_error," + ",".join(
        f"theta_bar_{j}" for j in range(1, 9)
    )
    # the average estimate heads toward the (all-positive) graded target
    m = res.metrics
    assert np.all(m.theta_bar[-1] > 0)
    assert m.mean_error[-1] < m.mean_error[0]


def test_summary_is_strict_json_when_theta_star_is_zero(tmp_path):
    cfg = ExperimentConfig(
        n_agents=8, l=4, steps=50, seed=1, theta_star=(0, 0, 0, 0), topology_kind="ring",
        out=str(tmp_path),
    )
    bi.run_experiment(cfg)

    def reject(token):
        raise ValueError(f"non-finite token {token} in summary.json")

    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    fin = json.loads(text, parse_constant=reject)["final"]
    assert fin["relative_mean_error"] is None
    assert fin["relative_max_agent_error"] is None
    assert fin["mean_error"] >= 0.0
