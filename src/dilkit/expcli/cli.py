"""`dilkit` command line: run experiments, verify bounds, materialize data,
and recompute metrics from stored results.

Subcommands
-----------
run CONFIG            train every seed, persist results under the output dir
verify-bounds CONFIG  audit the bound inequalities on random finite instances
gen-data CONFIG       write the configured domain stream to disk
metrics RESULTS_JSON  recompute metrics from stored matrices, print CSV

Exit codes: 0 success; 1 runtime failure or bound violation (partial results
are flagged in the JSON); 2 configuration error (field-level message).

The output directory comes from the config's `output_dir`, overridden by the
`DILKIT_OUTPUT_DIR` environment variable when set.  BLAS threads are pinned
to one (see the package `__init__`) so identical configs reproduce bitwise.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

import numpy as np

from ..bounds import (TOL, CheckReport, check_cross_bound,
                      check_erm_bound_shape, check_intra_bound,
                      check_unified_bound, deterministic_bound,
                      random_instance, tightest_bound_grid, total_risk)
from ..datagen import HD_BALLS_POINTS, ConfigError, DomainStream, \
    FormatError, gen_hd_balls, load_idx, permuted_stream, rotated_stream
from ..seeding import substream
from ..trainer import SequenceResult, TrainerConfig, run_sequence
from . import config as cfg
from . import runio

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2

MNIST_FILES = {"train_x": "train-images-idx3-ubyte",
               "train_y": "train-labels-idx1-ubyte",
               "test_x": "t10k-images-idx3-ubyte",
               "test_y": "t10k-labels-idx1-ubyte"}


def _read_config(path: str) -> tuple[cfg.RunConfig, str]:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return cfg.parse_config(text), text


def _output_dir(config: cfg.RunConfig) -> str:
    return os.environ.get("DILKIT_OUTPUT_DIR", config.output_dir)


def _mnist_base(config: cfg.RunConfig):
    mnist_dir = config.mnist_dir or os.environ.get("DILKIT_MNIST_DIR")
    if not mnist_dir:
        raise ConfigError(
            "key 'mnist_dir' (or env DILKIT_MNIST_DIR) is required for "
            f"dataset {config.dataset!r}: a directory with the raw IDX files "
            + ", ".join(sorted(MNIST_FILES.values())))
    paths = {k: os.path.join(mnist_dir, name)
             for k, name in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        raise ConfigError("missing IDX files: " + ", ".join(missing))
    base = load_idx(paths["train_x"], paths["train_y"])
    base_test = load_idx(paths["test_x"], paths["test_y"])
    label, top = base_test.y.max(initial=-1), base.y.max(initial=-1)
    if label > top:  # the stream's num_classes is read off the train labels
        raise FormatError(f"{paths['test_y']} holds label {label}, above the "
                          f"largest label {top} in {paths['train_y']}")
    return base, base_test


def build_stream(config: cfg.RunConfig) -> DomainStream:
    cfg.require_run_fields(config, ("dataset",))
    if config.dataset == "hd-balls":
        HD_BALLS_POINTS.check("key 'n_per_domain':", config.n_per_domain,
                              ConfigError)
        return gen_hd_balls(config.data_seed, config.n_domains,
                            config.n_per_domain, config.dim, config.sigma)
    base, base_test = _mnist_base(config)
    shared = dict(n_domains=config.n_domains, seed=config.data_seed,
                  base_test=base_test, n_per_domain=config.n_per_domain,
                  n_test_per_domain=config.n_test_per_domain)
    if config.dataset == "p-mnist":
        return permuted_stream(base, **shared)
    return rotated_stream(base, degrees_per_domain=config.degrees_per_domain,
                          **shared)


def _dataset_facts(config: cfg.RunConfig, stream: DomainStream) -> dict:
    return {"name": config.dataset,
            "data_seed": config.data_seed,
            "n_domains": stream.n_domains,
            "input_dim": stream.input_dim,
            "num_classes": stream.num_classes,
            "train_sizes": [len(stream.train(t))
                            for t in range(1, stream.n_domains + 1)],
            "test_sizes": [len(stream.test(t))
                           for t in range(1, stream.n_domains + 1)],
            "fingerprint": runio.stream_fingerprint(stream)}


def _trainer_config(config: cfg.RunConfig, seed: int) -> TrainerConfig:
    return TrainerConfig(method=config.method, seed=seed, **{
        f.name: getattr(config, cfg.RUN_NAMES.get(f.name, f.name))
        for f in fields(TrainerConfig) if f.name not in ("method", "seed")})


def _embedding_rows(results: list[SequenceResult],
                    stream: DomainStream) -> tuple[tuple, list[tuple]]:
    dim = None
    rows = []
    for r in results:
        model = r.final_state.model
        for t in range(1, stream.n_domains + 1):
            test = stream.test(t)
            emb = model.embed(test.x).data
            dim = emb.shape[1]
            for row, label in zip(emb, test.y):
                rows.append((r.seed, t, int(label),
                             *[repr(float(v)) for v in row]))
    header = ("seed", "domain", "label",
              *[f"e{i + 1}" for i in range(dim or 0)])
    return header, rows


def cmd_run(args) -> int:
    config, text = _read_config(args.config)
    cfg.require_run_fields(config)
    stream = build_stream(config)
    out_dir = os.path.join(_output_dir(config),
                           f"{config.dataset}-{config.method}")

    results: list[SequenceResult] = []
    timing: dict = {"per_seed_s": {}}
    failure = None
    started = time.perf_counter()
    for seed in config.seeds:
        tick = time.perf_counter()
        try:
            results.append(run_sequence(stream, _trainer_config(config, seed)))
        except ConfigError as err:  # refused before training: name the key
            raise ConfigError(f"key {cfg.RUN_NAMES.get(err.field, err.field)!r}: "
                              + str(err).removeprefix(f"{err.field} ")) from None
        except Exception as err:  # mid-run failure: flag partial results
            failure = f"seed {seed}: {type(err).__name__}: {err}"
            break
        timing["per_seed_s"][str(seed)] = round(time.perf_counter() - tick, 3)
    timing["total_s"] = round(time.perf_counter() - started, 3)

    if results:
        payload = runio.results_payload(text, results,
                                        _dataset_facts(config, stream))
        if failure is not None:
            payload["partial"] = {"error": failure,
                                  "completed_seeds": [r.seed for r in results]}
        runio.write_results(out_dir, payload, results, timing)
        if args.embeddings:
            header, rows = _embedding_rows(results, stream)
            runio.write_text(os.path.join(out_dir, "embeddings.csv"),
                             runio.format_csv(header, rows))
        summary = payload["summary"]
        final = payload["n_domains"]
        for entry in payload["per_seed"]:
            print(f"seed {entry['seed']}: avg_acc {entry['avg_acc'][str(final)]:.4f}"
                  + (f", forgetting {entry['forgetting'][str(final)]:.4f}"
                     if final >= 2 else ""))
        print(f"{config.method} on {config.dataset}: "
              f"avg_acc {summary['avg_acc']['mean']:.4f} "
              f"± {summary['avg_acc']['std']:.4f} "
              f"over {len(results)} seed(s) -> {out_dir}")
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        if results:
            print("partial results written and flagged", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _aggregate(totals: dict, report: CheckReport) -> None:
    slot = totals.setdefault(report.name, {"checks": 0, "violations": 0,
                                           "max_slack": -np.inf,
                                           "min_slack": np.inf})
    slot["checks"] += report.n_checks
    slot["violations"] += report.n_violations
    # CheckReport.max_violation is the worst lhs-rhs gap; slack is its negation
    slack = -report.max_violation
    slot["max_slack"] = max(slot["max_slack"], slack)
    slot["min_slack"] = min(slot["min_slack"], slack)


def cmd_verify_bounds(args) -> int:
    config, _ = _read_config(args.config)
    rng = substream(config.bounds_seed, "bounds")
    totals: dict = {}
    sample_argmin = None
    for _ in range(config.instances):
        inst = random_instance(rng, n_domains=config.bound_domains,
                               points_per_domain=config.points_per_domain,
                               class_size=config.class_size)
        unified = check_unified_bound(inst)
        if args.selftest_flip_sign:
            # negative control: assert the bound from the wrong side
            gap = deterministic_bound(inst) - total_risk(inst)
            unified = CheckReport("unified_bound", 1, int(gap > TOL),
                                  float(gap))
        grid = tightest_bound_grid(inst, grid_resolution=config.grid_resolution)
        if sample_argmin is None:
            sample_argmin = grid.details["argmin_omega"]
        for report in (check_intra_bound(inst), check_cross_bound(inst),
                       unified, grid, check_erm_bound_shape(inst,
                                                            config.hp.c_gen)):
            _aggregate(totals, report)

    n_violations = sum(s["violations"] for s in totals.values())
    report = {"schema": "dilkit-bounds-report-v1",
              "instances": config.instances,
              "n_domains": config.bound_domains,
              "points_per_domain": config.points_per_domain,
              "class_size": config.class_size,
              "grid_resolution": config.grid_resolution,
              "bounds_seed": config.bounds_seed,
              "flip_sign_selftest": bool(args.selftest_flip_sign),
              "checks": totals,
              "sample_argmin_omega": sample_argmin,
              "total_violations": n_violations}
    out_dir = _output_dir(config)
    path = os.path.join(out_dir, "bounds-report.json")
    runio.write_text(path, runio.dump_json(report))
    for name in sorted(totals):
        s = totals[name]
        print(f"{name}: {s['violations']} violation(s) in {s['checks']} "
              f"checks, slack in [{s['min_slack']:.3e}, {s['max_slack']:.3e}]")
    print(f"report -> {path}")
    return EXIT_OK if n_violations == 0 else EXIT_RUNTIME


def cmd_gen_data(args) -> int:
    config, _ = _read_config(args.config)
    stream = build_stream(config)
    out_dir = os.path.join(_output_dir(config),
                           f"{config.dataset}-s{config.data_seed}")
    runio.save_stream(stream, out_dir)
    print(f"{config.dataset}: {stream.n_domains} domains, "
          f"fingerprint {runio.stream_fingerprint(stream)[:16]}… -> {out_dir}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    payload = runio.load_results(args.results)
    with runio.fields_of(f"{args.results}: "):
        rows, problems = runio.recompute_metrics(payload)
    print(runio.format_csv(runio.METRICS_HEADER, rows), end="")
    if problems:
        for p in problems:
            print(f"mismatch: {p}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilkit",
        description="domain-incremental learning experiments and bound audits")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train every configured seed")
    p_run.add_argument("config", help="path to a flat key=value config")
    p_run.add_argument("--embeddings", action="store_true",
                       help="also write final-model test embeddings CSV")
    p_run.set_defaults(fn=cmd_run)

    p_vb = sub.add_parser("verify-bounds",
                          help="audit bound inequalities on random instances")
    p_vb.add_argument("config")
    p_vb.add_argument("--selftest-flip-sign", action="store_true",
                      help="negative control: flip the unified comparison")
    p_vb.set_defaults(fn=cmd_verify_bounds)

    p_gen = sub.add_parser("gen-data", help="materialize the domain stream")
    p_gen.add_argument("config")
    p_gen.set_defaults(fn=cmd_gen_data)

    p_met = sub.add_parser("metrics",
                           help="recompute metrics from a results.json")
    p_met.add_argument("results")
    p_met.set_defaults(fn=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as err:
        print(f"format error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
