"""perfbench wraps dilkit functions by name from outside the program; a
name the program no longer defines would make a traced run invalid.  This
installs perfbench's training spans in a fresh process, set up the way
perfbench/run.py starts its worker, and checks that every name resolves.
perfbench/ is only read."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import dilkit

ROOT = Path(dilkit.__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"

PROBE = """
import importlib.util, json, sys
sys.path.insert(0, {bench!r})
spec = importlib.util.spec_from_file_location("perfbench_worker", {worker!r})
worker = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = worker
spec.loader.exec_module(worker)
tracer = worker.Tracer()
worker.install_training_spans(tracer)
tracer.uninstall()
import dilkit.bounds
print(json.dumps({{"missing": tracer.missing,
                  "hdh_exact": "hdh_exact" in vars(dilkit.bounds)}}))
"""


def _blas_vars() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.BLAS_VARS


def test_perfbench_wrapped_names_exist(tmp_path):
    env = dict(os.environ)
    env.update({var: "1" for var in _blas_vars()})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = PROBE.format(bench=str(BENCH), worker=str(BENCH / "worker.py"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    assert found["missing"] == []
    assert found["hdh_exact"]
