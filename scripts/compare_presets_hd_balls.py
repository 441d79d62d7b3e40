#!/usr/bin/env python3
"""Rank every method on a desk-scale ball-cloud sequence.

Runs the adaptive method, all fixed presets, and both control baselines on
one shared stream, then prints final average accuracy and forgetting per
method (mean over seeds), or why a method was rejected (ESM-ER at t = 2)
or failed (a non-finite loss, naming its domain and step).  Takes a couple
of minutes at the defaults.
"""
import argparse
import sys
import time

import numpy as np

from dilkit.autodiff import ContractError
from dilkit.coeffs import METHODS
from dilkit.datagen import ConfigError, gen_hd_balls
from dilkit.losses import HyperParams
from dilkit.models import ArchConfig, SgdConfig
from dilkit.trainer import TrainerConfig, run_sequence


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--domains", type=int, default=5)
    ap.add_argument("--per-domain", type=int, default=500)
    ap.add_argument("--dim", type=int, default=20)
    ap.add_argument("--sigma", type=float, default=0.5)
    ap.add_argument("--data-seed", type=int, default=7)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--lr", type=float, default=0.2)
    ap.add_argument("--buffer", type=int, default=100)
    ap.add_argument("--lambda-d", type=float, default=0.05)
    ap.add_argument("--methods", nargs="+", default=list(METHODS))
    args = ap.parse_args()

    stream = gen_hd_balls(args.data_seed, args.domains, args.per_domain,
                          args.dim, args.sigma)
    rows, rejected = [], []
    for method in args.methods:
        tick = time.perf_counter()
        accs, forgs = [], []
        try:
            for seed in args.seeds:
                cfg = TrainerConfig(
                    method, seed, arch=ArchConfig([32], 16, [], [16]),
                    sgd=SgdConfig(args.lr, args.steps, 32),
                    hp=HyperParams(lambda_d=args.lambda_d),
                    memory_capacity=args.buffer)
                result = run_sequence(stream, cfg)
                accs.append(result.avg_acc_by_domain[args.domains])
                forgs.append(result.forgetting_by_domain[args.domains])
        except ConfigError as err:
            rejected.append(f"{method:10s} rejected: {err}")
            continue
        except ContractError as err:  # a run diverged; the others still run
            rejected.append(f"{method:10s} failed: {err}")
            continue
        rows.append((method, np.mean(accs), np.std(accs), np.mean(forgs),
                     time.perf_counter() - tick))
        print(f"  finished {method} ({rows[-1][-1]:.1f}s)", file=sys.stderr)

    rows.sort(key=lambda r: -r[1])
    print(f"\n{'method':10s} {'avg_acc':>8s} {'±std':>7s} {'forgetting':>11s}")
    for method, acc, std, forg, _ in rows:
        print(f"{method:10s} {acc:8.4f} {std:7.4f} {forg:11.4f}")
    for line in rejected:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
