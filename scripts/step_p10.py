#!/usr/bin/env python3
"""In-process p10 of one replay step, per method and domain, for one or two
source trees.

Each run is a fresh Python process with every BLAS pool pinned to one
thread and PYTHONPATH set to a tree's `src`.  It wraps
`dilkit.trainer.replay_step` from outside the library with a
`time.perf_counter_ns` timer and runs UDIL and ER on the criterion-5
config (gen_hd_balls(7, 5, 500, 20, 0.5), widths [32] / 16 / [] / [16],
lr 0.2, 200 steps, batch 32, buffer 100, lambda_d = 0.05) once per seed.
Rounds alternate the trees (A then B, then B then A, ...); a tree's figure
for (method, t) is the lowest over rounds of the 10th percentile of that
round's step times at domain t.  Prints them in microseconds, and with two
trees the ratio B / A.

    PYTHONPATH=src python scripts/step_p10.py PARENT_TREE . --seeds 4 5 6

A stand-in until perfbench reports a per-step statistic of its own.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
METHODS = ("UDIL", "ER")

CHILD = """
import json, sys, time
import dilkit.trainer as trainer
from dilkit.datagen import gen_hd_balls
from dilkit.losses import HyperParams
from dilkit.models import ArchConfig, SgdConfig

seeds = json.loads(sys.argv[1])
times, step = {}, trainer.replay_step

def timed(state, *args):
    start = time.perf_counter_ns()
    record = step(state, *args)
    key = f"{state.config.method} {state.t}"
    times.setdefault(key, []).append(time.perf_counter_ns() - start)
    return record

trainer.replay_step = timed
stream = gen_hd_balls(7, 5, 500, 20, 0.5)
for method in %r:
    for seed in seeds:
        trainer.run_sequence(stream, trainer.TrainerConfig(
            method, seed, arch=ArchConfig([32], 16, [], [16]),
            sgd=SgdConfig(0.2, 200, 32), hp=HyperParams(lambda_d=0.05),
            memory_capacity=100))
print(json.dumps(times))
""" % (METHODS,)


def run_tree(tree: Path, seeds) -> dict:
    """Step times in ns by (method, t) from one fresh process on `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(seeds)],
        env=env, capture_output=True, text=True, check=True)
    return {tuple(k.split()): v for k, v in
            json.loads(proc.stdout.splitlines()[-1]).items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("trees", type=Path, nargs="+", metavar="TREE",
                    help="one or two source trees (each holding src/dilkit)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    trees = [t.resolve() for t in args.trees]
    best = [{} for _ in trees]  # per tree: (method, t) -> lowest p10 in ns
    for k in range(args.rounds):
        order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            for key, ns in run_tree(trees[i], args.seeds).items():
                p10 = float(np.percentile(ns, 10))
                best[i][key] = min(p10, best[i].get(key, p10))
            print(f"  round {k + 1}: {trees[i]}", file=sys.stderr)

    names = ", ".join(f"{chr(65 + i)} = {t}" for i, t in enumerate(trees))
    print(f"p10 of replay_step in us, best of {args.rounds} rounds ({names})")
    head = f"{'method':8s} {'t':>2s}" + "".join(
        f" {chr(65 + i):>8s}" for i in range(len(trees)))
    print(head + (f" {'B / A':>7s}" if len(trees) == 2 else ""))
    for key in sorted(best[0], key=lambda k: (METHODS.index(k[0]), int(k[1]))):
        cells = [b[key] / 1e3 for b in best]
        line = f"{key[0]:8s} {key[1]:>2s}" + "".join(f" {c:8.1f}" for c in cells)
        print(line + (f" {cells[1] / cells[0]:7.3f}" if len(cells) == 2 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
