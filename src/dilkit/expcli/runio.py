"""Artifact persistence: domain streams on disk, results JSON, metric CSVs.

Determinism contract: `results.json` depends only on the config and seeds —
wall-clock goes to a `timing.json` sidecar so two identical runs produce
bitwise-identical results files.  All JSON is dumped with sorted keys and a
trailing newline; matrices serialize unset entries as null.

File layouts
------------
stream directory (``gen-data``):
    meta.json                 schema, dataset facts, per-domain sizes
    d01_train_x.npy ...       one .npy per array, domains numbered from 1

results directory (``run``):
    results.json              schema dilkit-results-v1 (see `results_payload`)
    timing.json               wall-clock per seed + total (nondeterministic)
    metrics.csv               header: method,seed,domain,avg_acc,forgetting,forward_transfer
                              (forgetting empty for domain 1; forward_transfer
                              only on each seed's final-domain row)
    omega.csv                 header: method,seed,domain,past_domain,alpha,beta,gamma
    embeddings.csv (optional) header: seed,domain,label,e1..e<k>
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from contextlib import contextmanager

import numpy as np

from .. import __version__
from ..datagen import DomainStream, FormatError
from ..metrics import AccuracyMatrix
from ..trainer import SequenceResult

RESULTS_SCHEMA = "dilkit-results-v1"
STREAM_SCHEMA = "dilkit-stream-v1"
METRICS_HEADER = ("method", "seed", "domain", "avg_acc", "forgetting",
                  "forward_transfer")
OMEGA_HEADER = ("method", "seed", "domain", "past_domain",
                "alpha", "beta", "gamma")


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_bytes(path: str, data: bytes) -> None:
    """Write via a temporary file in the same directory and os.replace, so
    `path` holds either its old content or all of `data`, never a part."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


@contextmanager
def fields_of(where: str = ""):
    """Report a missing or malformed field of a file read from disk as a
    FormatError naming the field, after `where`, not as a traceback."""
    try:
        yield
    except KeyError as err:
        raise FormatError(f"{where}missing field {err.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as err:
        raise FormatError(f"{where}{err}") from None


# ---------------------------------------------------------------------------
# domain streams

def stream_fingerprint(stream: DomainStream) -> str:
    """sha256 over every array's bytes, in domain order."""
    digest = hashlib.sha256()
    for train, test in stream.domains:
        for part in (train, test):
            digest.update(np.ascontiguousarray(part.x).tobytes())
            digest.update(np.ascontiguousarray(part.y).tobytes())
    return digest.hexdigest()


def save_stream(stream: DomainStream, dir_path: str) -> None:
    sizes = []
    for t, (train, test) in enumerate(stream.domains, start=1):
        for tag, part in (("train", train), ("test", test)):
            for axis, array in (("x", part.x), ("y", part.y)):
                buf = io.BytesIO()
                np.save(buf, array)
                name = f"d{t:02d}_{tag}_{axis}.npy"
                write_bytes(os.path.join(dir_path, name), buf.getvalue())
        sizes.append({"train": len(train), "test": len(test)})
    meta = {"schema": STREAM_SCHEMA,
            "n_domains": stream.n_domains,
            "num_classes": stream.num_classes,
            "input_dim": stream.input_dim,
            "sizes": sizes,
            "fingerprint": stream_fingerprint(stream)}
    write_text(os.path.join(dir_path, "meta.json"), dump_json(meta))


# ---------------------------------------------------------------------------
# results

def _seed_entry(result: SequenceResult) -> dict:
    return {
        "seed": result.seed,
        "matrix": result.matrix.to_lists(),
        "omega": {str(t): v for t, v in result.omega_by_domain.items()},
        "avg_acc": {str(t): v for t, v in result.avg_acc_by_domain.items()},
        "forgetting": {str(t): v for t, v in result.forgetting_by_domain.items()},
        "forward_transfer": result.forward_transfer,
        "baseline_acc": result.baseline_acc,
        "shortfalls": {str(t): v for t, v in result.shortfalls.items()},
    }


def _mean_std(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def _summary(results: list[SequenceResult]) -> dict:
    """Mean and std over seeds of each final-domain metric; forgetting and
    forward transfer are None on a 1-domain run."""
    final = results[0].n_domains
    return {
        "avg_acc": _mean_std([r.avg_acc_by_domain[final] for r in results]),
        "forgetting": _mean_std([r.forgetting_by_domain[final]
                                 for r in results]) if final >= 2 else None,
        "forward_transfer": _mean_std([r.forward_transfer
                                       for r in results]) if final >= 2 else None,
    }


def results_payload(config_text: str, results: list[SequenceResult],
                    dataset: dict) -> dict:
    """Deterministic results document.  `dataset` carries the generation
    facts (name, sizes, data_seed, fingerprint) so two methods on the same
    config are comparable at a glance."""
    if not results:
        raise ValueError("results must be nonempty")
    payload = {
        "schema": RESULTS_SCHEMA,
        "config_text": config_text,
        "dataset": dataset,
        "method": results[0].method,
        "n_domains": results[0].n_domains,
        "seeds": [r.seed for r in results],
        "per_seed": [_seed_entry(r) for r in results],
        "summary": _summary(results),
        "fingerprint": {
            "package": f"dilkit {__version__}",
            "numpy": np.__version__,
        },
    }
    return payload


def metrics_rows(results: list[SequenceResult]) -> list[tuple]:
    """One metrics.csv row per seed and domain: forgetting is empty for
    domain 1 and forward transfer is given on the final domain's row only."""
    rows = []
    for r in results:
        avg, forget, last = r.avg_acc_by_domain, r.forgetting_by_domain, r.n_domains
        rows += [(r.method, r.seed, t, repr(avg[t]),
                  repr(forget[t]) if t >= 2 else "",
                  repr(r.forward_transfer) if t == last >= 2 else "")
                 for t in range(1, last + 1)]
    return rows


def omega_rows(results: list[SequenceResult]) -> list[tuple]:
    rows = []
    for r in results:
        for t in sorted(r.omega_by_domain):
            for past, (alpha, beta, gamma) in enumerate(
                    r.omega_by_domain[t], start=1):
                rows.append((r.method, r.seed, t, past,
                             repr(float(alpha)), repr(float(beta)),
                             repr(float(gamma))))
    return rows


def format_csv(header: tuple, rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_results(out_dir: str, payload: dict,
                  results: list[SequenceResult], timing: dict) -> None:
    write_text(os.path.join(out_dir, "results.json"), dump_json(payload))
    write_text(os.path.join(out_dir, "metrics.csv"),
               format_csv(METRICS_HEADER, metrics_rows(results)))
    write_text(os.path.join(out_dir, "omega.csv"),
               format_csv(OMEGA_HEADER, omega_rows(results)))
    write_text(os.path.join(out_dir, "timing.json"), dump_json(timing))


def load_results(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except FileNotFoundError:
        raise FormatError(f"{path}: not found") from None
    except (ValueError, RecursionError) as err:  # bad JSON, UTF-8 or depth
        raise FormatError(f"{path}: {err}") from None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != RESULTS_SCHEMA:
        raise FormatError(f"{path}: schema {schema!r}, "
                          f"expected {RESULTS_SCHEMA!r}")
    return payload


def _disagree(stored, got) -> bool:
    """Null on one side only, or more than 1e-12 apart (NaN included)."""
    if stored is None or got is None:
        return stored is not got
    return not abs(got - stored) <= 1e-12


def recompute_metrics(payload: dict) -> tuple[list[tuple], list[str]]:
    """Rebuild each stored seed's SequenceResult from its matrix and
    baseline, and compare the metrics it derives, and the summary over the
    rebuilt results, with the stored ones; a stored per-domain key outside
    1..n_domains is a discrepancy too.  Returns (the rebuilt results'
    metrics rows, list of discrepancies); a missing or malformed field
    raises FormatError naming it."""
    with fields_of():
        final, method, entries = (payload[k] for k in ("n_domains", "method",
                                                       "per_seed"))
    if not entries:
        raise FormatError("per_seed is empty")
    results, problems = [], []
    for k, entry in enumerate(entries):
        with fields_of(f"per_seed[{k}]: "):
            result = SequenceResult(method, entry["seed"],
                                    AccuracyMatrix.from_lists(entry["matrix"]),
                                    {}, entry["baseline_acc"], {})
            if result.n_domains != final:
                raise FormatError(f"matrix has {result.n_domains} domains, "
                                  f"n_domains is {final!r}")
            rebuilt = _seed_entry(result)
            checks = [(f" domain {t}: {name}", entry[name].get(str(t)),
                       rebuilt[name].get(str(t)))
                      for t in range(1, final + 1) for name in ("avg_acc", "forgetting")]
            checks.append((": forward_transfer", entry["forward_transfer"],
                           rebuilt["forward_transfer"]))
            problems += [f"seed {result.seed}{what} stored {stored!r} != recomputed {got!r}"
                         for what, stored, got in checks if _disagree(stored, got)]
            domains = {str(t) for t in range(1, final + 1)}
            problems += [f"seed {result.seed}: {name} key {key!r} is outside domains 1..{final}"
                         for name in ("avg_acc", "forgetting")
                         for key in entry[name] if key not in domains]
        results.append(result)
    with fields_of():
        summary = payload["summary"]
    with fields_of("summary: "):
        for name, got in _summary(results).items():
            want = summary[name]
            pairs = ([(name, want, got)] if want is None or got is None else
                     [(f"{name}.{k}", want[k], got[k]) for k in ("mean", "std")])
            problems += [f"summary: {what} stored {w!r} != recomputed {g!r}"
                         for what, w, g in pairs if _disagree(w, g)]
    return metrics_rows(results), problems
