"""dilkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload udil-balls --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads: udil-balls, presets-wide and
bounds-audit (see perfbench/DESIGN.md).  The workload runs in a fresh
process (perfbench/worker.py) with every BLAS thread pool pinned to one
thread before NumPy loads; set-up is measured in that process and in
further set-up-only processes, half of them before the workload and half
after it, and the median is reported.  With --trace 0
the last stdout line carries the end-to-end metrics of an untraced run;
with --trace 1 it carries the per-layer metrics of a traced run.  Exit
code 0 only when a result was printed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("udil-balls", "presets-wide", "bounds-audit")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 11                # the worker's own set-up included
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def pinned_env(src: str) -> dict[str, str] | None:
    """The worker's environment: every BLAS pool variable 1 (unset ones are
    set; any other value is refused) and `src` first on PYTHONPATH."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        if env.setdefault(var, "1") != "1":
            return None
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(args, env: dict, deadline: float, setup_only: bool) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        print("perfbench: worker timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def declared_metrics(root: str, trace: int) -> dict[str, str] | None:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1", 2)

    # the whole run, set-up samples and a slow host included
    deadline = time.monotonic() + 3 * args.seconds + 60
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dilkit", "__init__.py")):
        return fail("no dilkit source at ./src/dilkit; run from the "
                    "repository root", 2)
    env = pinned_env(src)
    if env is None:
        return fail("BLAS thread variables must be unset or 1: "
                    + ", ".join(f"{v}={os.environ.get(v)}" for v in BLAS_VARS), 2)

    setup = []

    def sample_setup(n: int) -> bool:
        for _ in range(n):
            probe = run_worker(args, env, deadline, setup_only=True)
            if probe is None:
                return False
            setup.append(probe["setup_s"])
        return True

    extra_samples = 0 if args.trace else SETUP_SAMPLES - 1
    if not sample_setup(extra_samples // 2):
        return fail("set-up failed")
    record = run_worker(args, env, deadline, setup_only=False)
    if record is None:
        return fail("workload failed")
    setup.append(record["setup_s"])
    if not sample_setup(extra_samples - extra_samples // 2):
        return fail("set-up failed")

    metrics = dict(record["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    units = record["units"]
    declared = declared_metrics(root, args.trace)
    if declared is not None and declared != units:
        return fail("metric names or units differ from BENCHMARK.json: "
                    f"{sorted(set(declared.items()) ^ set(units.items()))}")
    if record["correct"] and set(metrics) != set(units):
        return fail(f"a correct run lacks metrics {sorted(set(units) - set(metrics))}")
    record.update(setup_samples_s=setup, git_sha=git_sha(root), metrics=metrics)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(f"{args.workload} seed {args.seed}: correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"digest={record['digest'][:16]}")
    for problem in record["problems"] + [record["invalid"]]:
        if problem:
            print(f"  problem: {problem}")
    if record.get("quality"):
        print("  quality: " + ", ".join(f"{k} {v:.4f}"
                                        for k, v in record["quality"].items()))
    if record.get("unwrapped_names"):
        print("  names the program no longer defines (their per-layer metrics "
              "were not measured): " + ", ".join(record["unwrapped_names"]))
    if record["call_ms_p95"] is not None:
        print(f"  {len(record['call_s'])} calls, p95 {record['call_ms_p95']:.6g} ms "
              "(context, not an end-to-end metric)")
    print(f"  probe before {record['probe']['before']}, "
          f"after {record['probe']['after']}")
    print(f"  env {record['env']}, git {record['git_sha']}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  record -> {path}")
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
