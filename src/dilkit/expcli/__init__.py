"""Experiment runner: config parsing, dataset dispatch, run execution,
result persistence, and plot-data emission.

Importing this package pins BLAS/OpenMP thread pools to one thread *before*
numpy first loads (Python initializes parent packages first, so the console
script inherits the pin).  Single-threaded kernels keep reduction order
fixed, which the bitwise-reproducibility contract of results files relies
on.  Set the variables yourself beforehand to override.
"""
import os as _os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .config import (DATASETS, KEY_TABLE, RunConfig, default_config_text,  # noqa: E402
                     parse_config, parse_kv, require_run_fields)
from .runio import (load_results, recompute_metrics, results_payload,  # noqa: E402
                    save_stream, stream_fingerprint, write_results)
from .cli import build_stream, main  # noqa: E402

__all__ = [
    "DATASETS", "KEY_TABLE", "RunConfig", "default_config_text",
    "parse_config", "parse_kv", "require_run_fields",
    "load_results", "recompute_metrics", "results_payload",
    "save_stream", "stream_fingerprint", "write_results",
    "build_stream", "main",
]
