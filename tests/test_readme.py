"""The README's examples run as documented."""

import re
from pathlib import Path

import binident as bi

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang: str) -> str:
    """The first fenced code block of the README in ``lang``."""
    return re.search(rf"```{lang}\n(.*?)```", README, re.S).group(1)


def test_readme_ini_example_loads_and_passes_preflight(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(_block("ini"), encoding="utf-8")
    cfg = bi.ExperimentConfig.from_ini(path)
    assert (cfg.n_agents, cfg.l, cfg.steps, cfg.seed) == (8, 4, 100_000, 1)
    assert cfg.topology_kind == "partitioned-ring" and cfg.noise_params == {"sigma2": 0.01}
    report = bi.preflight(cfg)
    assert report.ok, report.errors


def test_readme_quick_start_reaches_the_stated_error(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 0.01
