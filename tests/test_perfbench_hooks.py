"""perfbench wraps dilkit functions by name from outside the program; a
name the program no longer defines would make a traced run invalid, and a
name the step no longer calls would read 0.  This installs perfbench's
training spans in a fresh process, set up the way perfbench/run.py starts
its worker, checks that every name resolves, and counts the spans one
traced UDIL domain records per step and per domain.  perfbench/ is only
read."""
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
import dilkit.bounds, dilkit.trainer
from dilkit.datagen import gen_hd_balls
from dilkit.losses import HyperParams
from dilkit.models import ArchConfig, SgdConfig
stream = gen_hd_balls(seed=3, n_domains=3, n_per_domain=60, dim=4, sigma=0.4)
config = dilkit.trainer.TrainerConfig(
    "UDIL", 1, arch=ArchConfig([8], 4, [], [8]), sgd=SgdConfig(0.2, {steps}, 16),
    memory_capacity=30, hp=HyperParams(lambda_d=0.1, lambda_p=0.1, lambda_s=0.1))
state = dilkit.trainer.initial_state(config, 4, stream.num_classes)
for t in (1, 2, 3):
    start = len(tracer.col_name)
    state = dilkit.trainer.train_domain(state, stream.train(t))
tracer.uninstall()
inside = [tracer.names[tracer.col_name[i]]
          for i in range(start + 1, tracer.col_last[start] + 1)]
print(json.dumps({{"missing": tracer.missing,
                  "hdh_exact": "hdh_exact" in vars(dilkit.bounds),
                  "domain": tracer.names[tracer.col_name[start]],
                  "spans": {{n: inside.count(n) for n in set(inside)}}}}))
"""
STEPS = 4
# spans per replay step at t = 3 with lambda_d, lambda_p and lambda_s > 0:
# the discriminator, coefficient and model updates each take one sgd_step
PER_STEP = {
    **{f"dilkit.trainer.{name}": 1 for name in (
        "v_d", "coeff_stats_for_step", "v_01", "v_l", "encoder_aux_loss")},
    "dilkit.losses.v_d": 1,
    "dilkit.membank.MemoryBank.sample_past": 1,
    "dilkit.trainer.sgd_step": 3,
}
# spans per replay domain: trainer.snapshot_ms times the teacher pass at its
# start and membank.update_ms the memory update at its end; either would
# read 0 if the call moved out of train_domain or stopped going through the
# wrapped name
PER_DOMAIN = {"dilkit.trainer.snapshot_history": 1,
              "dilkit.membank.MemoryBank.update_after_domain": 1}


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
    code = PROBE.format(bench=str(BENCH), worker=str(BENCH / "worker.py"),
                        steps=STEPS)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    assert found["missing"] == []
    assert found["hdh_exact"]
    assert found["domain"] == "dilkit.trainer.train_domain"
    per_step = {name: found["spans"].get(name, 0) / STEPS for name in PER_STEP}
    assert per_step == PER_STEP
    assert {name: found["spans"].get(name, 0) for name in PER_DOMAIN} == PER_DOMAIN
