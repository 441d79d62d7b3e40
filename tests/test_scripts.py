"""Smoke tests of the scripts in scripts/, run as subprocesses."""
import os
import subprocess
import sys
from pathlib import Path

import dilkit


def test_compare_presets_reports_rejected_method(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "compare_presets_hd_balls.py"
    src = str(Path(dilkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, str(script), "--domains", "2", "--per-domain", "50",
         "--steps", "2", "--seeds", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line for line in proc.stdout.splitlines()[2:]}
    assert "rejected: ESM-ER requires" in rows["ESM-ER"]
    assert len(rows) == 10 and "rejected" not in rows["UDIL"]
