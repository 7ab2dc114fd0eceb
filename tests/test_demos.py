"""Every demo script runs to completion against the package in this tree and
prints exactly the output pinned here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


# sha256 of each demo's stdout; every demo is deterministic
STDOUT_SHA256 = {
    "admission_statistics": "6b6f7c7b08f16d98df2919952f80d4c840158bfc2209b2abda25e0fba50e4661",
    "closed_loop_simulation": "08b31dd7b052063c2b3202ddb1cf6603d52e92cc803ee9f5f2a7d0a1d1537b72",
    "interval_aggregation": "3704e48f0f56710c62987bec13915a3abbb77655a7ca69952a1f38d07fb8bc08",
    "rejection_calculator": "6e3f26694daf5271a837a7096b513e7c77cc8bd075f1a4f6b7a65debbc35c1cf",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(done.stdout.encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[script.stem], done.stdout
