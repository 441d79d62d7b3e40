#!/usr/bin/env python3
"""Run a rotated-digits comparison through the `dilkit` CLI.

Writes one config per method and invokes the regular `run` subcommand, so
all artifacts (results JSON, metric/coefficient CSVs) land under the output
directory exactly as they would from hand-written configs.  Needs the four
raw MNIST IDX files (see README: data formats).
"""
import argparse
import os
import sys
import tempfile

from dilkit.expcli.cli import main as cli_main

TEMPLATE = """\
dataset = r-mnist
mnist_dir = {mnist_dir}
method = {method}
seeds = {seeds}
data_seed = 7
n_domains = {domains}
n_per_domain = {per_domain}
n_test_per_domain = 1000
degrees_per_domain = {degrees}
steps_per_domain = {steps}
batch_size = 32
buffer_capacity = {buffer}
learning_rate = 0.1
lambda_d = 0.05
encoder_hidden = 100
embed_dim = 32
predictor_hidden = none
disc_hidden = 32
output_dir = {output_dir}
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mnist-dir",
                    default=os.environ.get("DILKIT_MNIST_DIR", "data/mnist"))
    ap.add_argument("--methods", nargs="+",
                    default=["UDIL", "DER++", "ER", "FineTune"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--domains", type=int, default=5)
    ap.add_argument("--per-domain", type=int, default=5000)
    ap.add_argument("--degrees", type=float, default=9.0)
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--buffer", type=int, default=200)
    ap.add_argument("--output-dir", default="runs/rotated-digits")
    args = ap.parse_args()

    for method in args.methods:
        text = TEMPLATE.format(
            mnist_dir=args.mnist_dir, method=method,
            seeds=", ".join(str(s) for s in args.seeds),
            domains=args.domains, per_domain=args.per_domain,
            degrees=args.degrees, steps=args.steps, buffer=args.buffer,
            output_dir=args.output_dir)
        with tempfile.NamedTemporaryFile("w", suffix=".cfg",
                                         delete=False) as f:
            f.write(text)
            path = f.name
        try:
            code = cli_main(["run", path])
        finally:
            os.unlink(path)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
