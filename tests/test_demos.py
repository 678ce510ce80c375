"""The quick demos run to completion against the package under test.

05_posterior_inference.py runs full chains and is left out for its run time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_simulate_paths.py",
    "02_expm_methods.py",
    "03_truncation_convergence.py",
    "04_unbiased_estimates.py",
])
def test_demo_runs(name, package_env):
    res = subprocess.run([sys.executable, str(DEMOS / name)],
                         capture_output=True, text=True, env=package_env,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
