"""Each study script in scripts/ runs to completion and writes its tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "constitutive_response": ["ramp_hold_stress.csv", "tangent_loss_vs_alpha.csv"],
    "power_law_decay": ["decay_alpha0.3.csv", "decay_alpha0.5.csv", "decay_alpha0.7.csv",
                        "decay_classical.csv", "decay_fits.csv"],
    "resonance_sweeps": ["fold_boundaries.csv", "peak_vs_er.csv", "response_alpha0.4.csv",
                         "response_alpha0.5.csv", "response_alpha0.6.csv",
                         "response_alpha0.7.csv"],
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_writes_its_tables(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == EXPECTED[script]
    assert all(p.stat().st_size > 0 for p in tmp_path.iterdir())
