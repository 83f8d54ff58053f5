"""Smoke test: the fast demos run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nmhash

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# variant_comparison.py trains many models and is left out for time
@pytest.mark.parametrize("demo", ["metrics_tour.py", "train_and_merge.py"])
def test_metrics_tour_runs(demo):
    # the demo imports the same nmhash package the suite imported
    package_root = str(Path(nmhash.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(DEMOS / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
