"""Flat key-value experiment configs.

Grammar (diff-friendly, one assignment per line):

    # full-line comments start with '#'
    key = value          <- exactly one '=' split; surrounding spaces trimmed
                            blank lines are ignored

Value syntax per key type:

    int / float   plain literals ("500", "0.1"); floats must be finite
    bool          true / false (case-insensitive)
    str           taken verbatim after trimming
    int list      comma-separated ("0, 1, 2"); "" or "none" -> empty list

Every key is optional unless a subcommand states otherwise; "" or "none"
keeps a default of none.  Unknown keys, malformed lines and out-of-range
values are rejected with the offending key or line number.  `KEY_TABLE`
states each key's type, range and help; each default lives in its dataclass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

from ..bounds import (
    CLASS_SIZE_RANGE, MIN_DOMAINS, MIN_GRID_RESOLUTION, POINTS_RANGE,
)
from ..coeffs import METHODS
from ..datagen import ConfigError
from ..losses import HyperParams
from ..models import ArchConfig, SgdConfig

DATASETS = ("hd-balls", "p-mnist", "r-mnist")


@dataclass(frozen=True)
class Key:
    """One config key; numbers and list entries must lie in `lo..hi`, or
    above `lo` when `above` is set."""
    kind: str                   # int | float | bool | str | int_list
    help: str
    path: str = ""              # the RunConfig attribute set; default: the key
    lo: float | None = None
    hi: int | None = None
    above: bool = False
    choices: tuple[str, ...] = ()
    distinct: bool = False      # int_list entries may not repeat

    def span(self) -> str:
        if self.choices:
            return "one of " + ", ".join(self.choices)
        if self.lo is None:
            return ""
        if self.hi is not None:
            return f"in {self.lo}..{self.hi}"
        return f"{'>' if self.above else '>='} {self.lo}"

    def notes(self) -> str:
        return "; ".join(filter(None, (self.help, self.span())))


KEY_TABLE = {
    # experiment identity
    "dataset": Key("str", "domain stream", choices=DATASETS),
    "method": Key("str", "UDIL or a fixed preset; required by `run`", choices=METHODS),
    "seeds": Key("int_list", "training seeds; required by `run`", lo=0, distinct=True),
    "output_dir": Key("str", "base directory for artifacts"),
    # dataset shape
    "data_seed": Key("int", "dataset substream seed (shared across methods)", lo=0),
    "n_domains": Key("int", "length of the domain sequence", lo=1),
    "n_per_domain": Key("int", "points per domain (hd-balls: split 80/20)", lo=1),
    "n_test_per_domain": Key("int", "per-domain test size (mnist streams)", lo=1),
    "dim": Key("int", "hd-balls input dimension", lo=2),
    "sigma": Key("float", "hd-balls cloud scale", lo=0, above=True),
    "mnist_dir": Key("str", "directory holding the four raw IDX files"),
    "degrees_per_domain": Key("float", "r-mnist rotation band per domain", lo=0, above=True),
    # optimization
    "learning_rate": Key("float", "SGD step size", "sgd.learning_rate", lo=0, above=True),
    "steps_per_domain": Key("int", "SGD steps per domain", "sgd.step_count", lo=1),
    "batch_size": Key("int", "current-domain minibatch size", "sgd.batch_size", lo=1),
    "buffer_capacity": Key("int", "total replay-memory budget", lo=1),
    "lambda_d": Key("float", "domain-alignment strength", "hp.lambda_d", lo=0),
    "c_gen": Key("float", "generalization-effect scalar", "hp.c_gen", lo=0),
    "lambda_p": Key("float", "past-embedding distillation weight", "hp.lambda_p", lo=0),
    "lambda_s": Key("float", "supervised contrastive weight", "hp.lambda_s", lo=0),
    "encoder_hidden": Key("int_list", "encoder hidden widths", "arch.encoder_hidden", lo=1),
    "embed_dim": Key("int", "embedding width", "arch.embed_dim", lo=1),
    "predictor_hidden": Key("int_list", "predictor hidden widths", "arch.predictor_hidden", lo=1),
    "disc_hidden": Key("int_list", "discriminator hidden widths", "arch.disc_hidden", lo=1),
    "omega_lr": Key("float", "coefficient-descent step size (none: learning_rate)", lo=0, above=True),
    "disc_lr": Key("float", "discriminator step size (none: learning_rate)", lo=0, above=True),
    "memory_batch": Key("int", "replay minibatch per past domain (none: batch_size)", lo=1),
    "split_memory_batch": Key("bool", "divide one batch across past domains"),
    "baseline_models": Key("int", "fresh models averaged for the transfer baseline", lo=1),
    # bound verification; the ranges random_instance and barycentric_grid accept
    "instances": Key("int", "random bound instances to audit", lo=1),
    "bound_domains": Key("int", "domains per bound instance, the last one current",
                         lo=MIN_DOMAINS),
    "points_per_domain": Key("int", "ground-set points per domain",
                             lo=POINTS_RANGE.start, hi=POINTS_RANGE[-1]),
    "class_size": Key("int", "hypotheses per sampled finite class",
                      lo=CLASS_SIZE_RANGE.start, hi=CLASS_SIZE_RANGE[-1]),
    "grid_resolution": Key("int", "barycentric grid density for the argmin",
                           lo=MIN_GRID_RESOLUTION),
    "bounds_seed": Key("int", "seed for the bound-instance sampler", lo=0),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand may need, with `method`/`seeds` left optional
    so one file can also drive `gen-data` and `verify-bounds`."""
    dataset: str | None = None
    method: str | None = None
    seeds: tuple[int, ...] = ()
    output_dir: str = "runs"
    data_seed: int = 0
    n_domains: int = 5
    n_per_domain: int = 500
    n_test_per_domain: int | None = None
    dim: int = 20
    sigma: float = 1.0
    mnist_dir: str | None = None
    degrees_per_domain: float = 9.0
    sgd: SgdConfig = field(default_factory=SgdConfig)
    hp: HyperParams = field(default_factory=HyperParams)
    arch: ArchConfig = field(default_factory=ArchConfig)
    buffer_capacity: int = 200
    omega_lr: float | None = None
    disc_lr: float | None = None
    memory_batch: int | None = None
    split_memory_batch: bool = False
    baseline_models: int = 5
    instances: int = 100
    bound_domains: int = 3
    points_per_domain: int = 6
    class_size: int = 64
    grid_resolution: int = 10
    bounds_seed: int = 0


def parse_kv(text: str) -> dict[str, str]:
    """Raw grammar pass: line discipline only, no typing."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.count("=") != 1:
            raise ConfigError(
                f"line {lineno}: expected exactly one '=' in {raw!r}")
        key, value = (part.strip() for part in line.split("="))
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _default(key: str):
    return attrgetter(KEY_TABLE[key].path or key)(RunConfig())


def _typed(key: str, value: str):
    """The value as the key's type; None for "none" on a none default."""
    kind = KEY_TABLE[key].kind
    none = value.lower() in ("", "none")
    try:
        if kind == "int_list":
            ints = () if none else tuple(int(p) for p in value.split(",") if p.strip())
            return type(_default(key))(ints)  # seeds a tuple, widths a list
        if none and _default(key) is None:
            return None
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            return {"true": True, "false": False}[value.lower()]
        return value  # str
    except (ValueError, KeyError):
        raise ConfigError(f"key {key!r}: cannot read {value!r} as {kind}") from None


def _check(key: str, value) -> None:
    spec = KEY_TABLE[key]
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"key {key!r}: unknown {key} {value!r}; valid {key}s: "
                          + ", ".join(spec.choices))
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {value}")
    entries = value if isinstance(value, (tuple, list)) else (value,)
    for entry in entries:
        if spec.lo is not None and not (
                (spec.lo < entry if spec.above else spec.lo <= entry)
                and (spec.hi is None or entry <= spec.hi)):
            raise ConfigError(f"key {key!r}: must be {spec.span()}, got {entry}")
    if spec.distinct and len(set(entries)) != len(entries):
        raise ConfigError(f"key {key!r}: entries must be distinct, got {value}")


def parse_config(text: str) -> RunConfig:
    """Grammar + typing + range validation; raises ConfigError with the
    offending key in the message."""
    top, nested = {}, {}
    for key, raw in parse_kv(text).items():
        if key not in KEY_TABLE:
            raise ConfigError(f"unknown key {key!r}; valid keys: "
                              + ", ".join(sorted(KEY_TABLE)))
        value = _typed(key, raw)
        if value is None:
            continue  # explicit "none" keeps the default
        _check(key, value)
        owner, _, name = (KEY_TABLE[key].path or key).rpartition(".")
        (nested.setdefault(owner, {}) if owner else top)[name] = value
    base = RunConfig()
    for owner, values in nested.items():
        top[owner] = replace(getattr(base, owner), **values)
    return replace(base, **top)


def require_run_fields(config: RunConfig,
                       keys: tuple[str, ...] = ("dataset", "method", "seeds")) -> None:
    """Raise unless each key is set; by default the ones `run` needs."""
    for key in keys:
        if not getattr(config, key):
            raise ConfigError(f"key {key!r} is required ({KEY_TABLE[key].notes()})")


def format_value(value) -> str:
    """A typed value as config text; `parse_config` reads it back."""
    if isinstance(value, (tuple, list)):
        return ", ".join(map(str, value)) or "none"
    if isinstance(value, bool):
        return str(value).lower()
    return "none" if value is None else str(value)


def default_config_text() -> str:
    """A commented template with every key at its default and its range."""
    lines = ["# dilkit experiment config (flat key-value lines)"]
    for key, spec in KEY_TABLE.items():
        lines.append(f"# {key} = {format_value(_default(key))}   ({spec.notes()})")
    return "\n".join(lines) + "\n"
