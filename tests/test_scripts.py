"""Smoke tests of the scripts in scripts/."""
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

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


def test_rotated_digits_removes_its_config_when_interrupted(tmp_path,
                                                            monkeypatch):
    """A run interrupted with Ctrl-C leaves no config in the temp dir."""
    spec = importlib.util.spec_from_file_location(
        "rotated_digits",
        Path(__file__).parents[1] / "scripts" / "rotated_digits.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    configs = []

    def interrupted(argv):
        configs.append(argv[1])
        raise KeyboardInterrupt

    monkeypatch.setattr(script, "cli_main", interrupted)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(sys, "argv", ["rotated_digits.py", "--methods", "ER"])
    with pytest.raises(KeyboardInterrupt):
        script.main()
    assert len(configs) == 1 and os.path.dirname(configs[0]) == str(tmp_path)
    assert not os.path.exists(configs[0])
