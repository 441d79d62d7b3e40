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
states each key's type and help; each default and numeric range lives on the
dataclass field the key sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

from ..bounds import (
    CLASS_SIZE_RANGE, MIN_DOMAINS, MIN_GRID_RESOLUTION, POINTS_RANGE,
)
from ..coeffs import METHODS
from ..datagen import HD_BALLS_DIM, HD_BALLS_SIGMA, ConfigError
from ..losses import HyperParams
from ..models import ArchConfig, Range, SgdConfig
from ..trainer import TrainerConfig

DATASETS = ("hd-balls", "p-mnist", "r-mnist")


@dataclass(frozen=True)
class Key:
    """One config key.  Its numeric range is the `Range` declared on the
    dataclass field that `path` names."""
    kind: str                   # int | float | bool | str | int_list
    help: str
    path: str = ""              # the RunConfig attribute set; default: the key
    choices: tuple[str, ...] = ()
    distinct: bool = False      # int_list entries may not repeat

    @property
    def range(self) -> Range | None:
        owner, _, name = self.path.rpartition(".")
        return Range.of(attrgetter(owner)(RunConfig()) if owner else RunConfig, name)

    def notes(self) -> str:
        span = "one of " + ", ".join(self.choices) if self.choices else self.range
        return "; ".join(map(str, filter(None, (self.help, span))))


KEY_TABLE = {key: replace(spec, path=spec.path or key) for key, spec in {
    # experiment identity
    "dataset": Key("str", "domain stream", choices=DATASETS),
    "method": Key("str", "UDIL or a fixed preset; required by `run`", choices=METHODS),
    "seeds": Key("int_list", "training seeds; required by `run`", distinct=True),
    "output_dir": Key("str", "base directory for artifacts"),
    # dataset shape
    "data_seed": Key("int", "dataset substream seed (shared across methods)"),
    "n_domains": Key("int", "length of the domain sequence"),
    "n_per_domain": Key("int", "points per domain (hd-balls: split 80/20)"),
    "n_test_per_domain": Key("int", "per-domain test size (mnist streams)"),
    "dim": Key("int", "hd-balls input dimension"),
    "sigma": Key("float", "hd-balls cloud scale"),
    "mnist_dir": Key("str", "directory holding the four raw IDX files"),
    "degrees_per_domain": Key("float", "r-mnist rotation band per domain"),
    # optimization
    "learning_rate": Key("float", "SGD step size", "sgd.learning_rate"),
    "steps_per_domain": Key("int", "SGD steps per domain", "sgd.step_count"),
    "batch_size": Key("int", "current-domain minibatch size", "sgd.batch_size"),
    "buffer_capacity": Key("int", "total replay-memory budget"),
    "lambda_d": Key("float", "domain-alignment strength", "hp.lambda_d"),
    "c_gen": Key("float", "generalization-effect scalar", "hp.c_gen"),
    "lambda_p": Key("float", "past-embedding distillation weight", "hp.lambda_p"),
    "lambda_s": Key("float", "supervised contrastive weight", "hp.lambda_s"),
    "encoder_hidden": Key("int_list", "encoder hidden widths", "arch.encoder_hidden"),
    "embed_dim": Key("int", "embedding width", "arch.embed_dim"),
    "predictor_hidden": Key("int_list", "predictor hidden widths", "arch.predictor_hidden"),
    "disc_hidden": Key("int_list", "discriminator hidden widths", "arch.disc_hidden"),
    "omega_lr": Key("float", "coefficient-descent step size (none: learning_rate)"),
    "disc_lr": Key("float", "discriminator step size (none: learning_rate)"),
    "memory_batch": Key("int", "replay minibatch per past domain (none: batch_size)"),
    "split_memory_batch": Key("bool", "divide one batch across past domains"),
    "baseline_models": Key("int", "fresh models averaged for the transfer baseline"),
    # bound verification
    "instances": Key("int", "random bound instances to audit"),
    "bound_domains": Key("int", "domains per bound instance, the last one current"),
    "points_per_domain": Key("int", "ground-set points per domain"),
    "class_size": Key("int", "hypotheses per sampled finite class"),
    "grid_resolution": Key("int", "barycentric grid density for the argmin"),
    "bounds_seed": Key("int", "seed for the bound-instance sampler"),
}.items()}

# RunConfig's names for the TrainerConfig fields it copies, where they differ
RUN_NAMES = {"memory_capacity": "buffer_capacity"}


def _trainer_field(name: str):
    """RunConfig's copy of TrainerConfig's field `name`: default and range."""
    f = {f.name: f for f in fields(TrainerConfig)}[name]
    return field(default=f.default, default_factory=f.default_factory,
                 metadata=f.metadata)


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand may need, with `method`/`seeds` left optional
    so one file can also drive `gen-data` and `verify-bounds`."""
    dataset: str | None = None
    method: str | None = None
    seeds: tuple[int, ...] = Range(0).field(())
    output_dir: str = "runs"
    data_seed: int = Range(0).field(0)
    n_domains: int = Range(1).field(5)
    n_per_domain: int = Range(1).field(500)
    n_test_per_domain: int | None = Range(1).field(None)
    dim: int = HD_BALLS_DIM.field(20)
    sigma: float = HD_BALLS_SIGMA.field(1.0)
    mnist_dir: str | None = None
    degrees_per_domain: float = Range(0, above=True).field(9.0)
    sgd: SgdConfig = _trainer_field("sgd")
    hp: HyperParams = _trainer_field("hp")
    arch: ArchConfig = _trainer_field("arch")
    buffer_capacity: int = _trainer_field("memory_capacity")
    omega_lr: float | None = _trainer_field("omega_lr")
    disc_lr: float | None = _trainer_field("disc_lr")
    memory_batch: int | None = _trainer_field("memory_batch")
    split_memory_batch: bool = _trainer_field("split_memory_batch")
    baseline_models: int = _trainer_field("baseline_models")
    # the ranges random_instance and barycentric_grid accept
    instances: int = Range(1).field(100)
    bound_domains: int = Range(MIN_DOMAINS).field(3)
    points_per_domain: int = Range(POINTS_RANGE.start, POINTS_RANGE[-1]).field(6)
    class_size: int = Range(CLASS_SIZE_RANGE.start, CLASS_SIZE_RANGE[-1]).field(64)
    grid_resolution: int = Range(MIN_GRID_RESOLUTION).field(10)
    bounds_seed: int = Range(0).field(0)


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
    return attrgetter(KEY_TABLE[key].path)(RunConfig())


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
    if spec.range is not None:
        spec.range.check(f"key {key!r}:", value, ConfigError)
    if spec.distinct and len(set(value)) != len(value):
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
        owner, _, name = KEY_TABLE[key].path.rpartition(".")
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
