"""Smoke tests of the scripts in scripts/."""
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import dilkit


def _compare_presets(tmp_path, *args):
    """Run compare_presets_hd_balls.py with `args`; its result rows by method."""
    script = Path(__file__).parents[1] / "scripts" / "compare_presets_hd_balls.py"
    src = str(Path(dilkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, str(script), "--domains", "2", "--per-domain", "50",
         "--seeds", "0", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {line.split()[0]: line for line in proc.stdout.splitlines()[2:]}


def test_compare_presets_reports_rejected_method(tmp_path):
    rows = _compare_presets(tmp_path, "--steps", "2")
    assert "rejected: ESM-ER requires" in rows["ESM-ER"]
    assert len(rows) == 10 and "rejected" not in rows["UDIL"]


def test_compare_presets_reports_diverging_runs_and_goes_on(tmp_path):
    """A run whose loss turns non-finite is its method's row, with the
    trainer's message; the methods after it still run and report."""
    rows = _compare_presets(tmp_path, "--steps", "5", "--lr", "1e30",
                            "--methods", "ER", "FineTune")
    assert rows.keys() == {"ER", "FineTune"}
    for method in rows:
        assert (f"failed: {method}: classification loss is nan at domain 1"
                in rows[method])


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


def test_step_p10_reports_each_method_and_domain(tmp_path):
    """step_p10.py on one tree given twice, one seed and one round: a p10
    row per (method, t) for UDIL and ER at t = 1..5, with both trees'
    figures and their ratio."""
    root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "step_p10.py"), str(root),
         str(root), "--seeds", "0", "--rounds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [(r[0], r[1]) for r in rows] == [
        (m, str(t)) for m in ("UDIL", "ER") for t in range(1, 6)]
    for row in rows:
        a, b, ratio = map(float, row[2:])
        assert a > 0 and b > 0 and ratio == pytest.approx(b / a, rel=0.01)
