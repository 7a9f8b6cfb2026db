"""The scripts under tools/ run against this checkout."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _git_top_level() -> pathlib.Path | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None
    return pathlib.Path(out.stdout.strip()).resolve() if out.returncode == 0 else None


@pytest.mark.skipif(_git_top_level() != ROOT, reason="the checkout is not a git work tree")
def test_artifact_digests_against_head_print_nothing():
    # the working tree against its own HEAD: any difference is an uncommitted artifact change
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "HEAD"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stdout + proc.stderr
