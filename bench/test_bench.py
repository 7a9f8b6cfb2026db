"""Self-test of the benchmark: every workload at a tiny length.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_prints_every_metric(workload, trace, group):
    proc = run_bench(ROOT, BENCH / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    assert f"error_rate 0/{result['attempted']}" in lines

    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) > 2}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name


def test_metric_tables_match_benchmark_json():
    sys.path.insert(0, str(BENCH))
    import run

    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[group]} == table
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


def test_tracer_restores_the_library():
    sys.path.insert(0, str(BENCH))
    import run
    import spans

    bi = run.import_binident()
    before = {id(bi.runner.run), id(bi.cli.run_experiment),
              id(bi.identifier.InvariantMonitor.__call__)}
    with spans.Tracer(bi) as tracer:
        # a preset seed whose random graph is connected, so preflight passes
        bi.run_experiment(bi.preset_v(seed=1016164991, steps=5))
        spans_, counts = tracer.take()
    after = {id(bi.runner.run), id(bi.cli.run_experiment),
             id(bi.identifier.InvariantMonitor.__call__)}
    assert before == after
    names = {tracer.names[i] for i in spans_["name_id"].tolist()}
    assert {"runner.run_experiment", "identifier.step", "identifier.monitor"} <= names
    assert counts["recorder_rows"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "bench" / "run.py", WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
