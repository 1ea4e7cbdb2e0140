"""Smoke tests: the documented example scripts must run end to end.

Each example is executed as a subprocess the same way a reader would run it
(``python examples/<name>.py``) with ``REPRO_EXAMPLE_FAST=1``, the CI smoke
configuration the scripts themselves document.  The assertion is deliberately
shallow — exit code zero and the expected headline in the output — because the
examples exist to demonstrate the public API, and the API itself is covered by
the unit suites.  What this tier catches is examples drifting out of sync with
the code they showcase.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"


def _run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["REPRO_EXAMPLE_FAST"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )


@pytest.mark.integration
def test_failure_and_rescheduling_example_runs():
    proc = _run_example("failure_and_rescheduling.py")
    assert proc.returncode == 0, proc.stderr
    assert "GPU failure handling" in proc.stdout
    # All three Figure 11 strategies must appear in the comparison table.
    for mode in ("lightweight", "full", "none"):
        assert f"after failure ({mode})" in proc.stdout


@pytest.mark.integration
def test_live_serving_example_runs():
    proc = _run_example("live_serving.py")
    assert proc.returncode == 0, proc.stderr
    assert "Per-window telemetry" in proc.stdout
    assert "worst window attainment" in proc.stdout


@pytest.mark.integration
def test_quickstart_example_runs():
    proc = _run_example("quickstart.py")
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("Scenario sweep", 1)[1]
    assert "spot-preemption" in table
