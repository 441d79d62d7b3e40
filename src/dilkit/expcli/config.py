"""Flat key-value experiment configs.

Grammar (diff-friendly, one assignment per line):

    # full-line comments start with '#'
    key = value          <- exactly one '=' split; surrounding spaces trimmed
                            blank lines are ignored

Value syntax per key type:

    int / float   plain literals ("500", "0.1")
    bool          true / false (case-insensitive)
    str           taken verbatim after trimming
    int list      comma-separated ("0, 1, 2"); "" or "none" -> empty list

Every key is optional unless a subcommand states otherwise; unknown keys and
malformed lines are rejected with the offending line number.  The full key
table lives in `KEY_TABLE` below and in the README.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..autodiff import ContractError
from ..coeffs import METHODS
from ..datagen import ConfigError
from ..losses import HyperParams
from ..models import ArchConfig, SgdConfig

DATASETS = ("hd-balls", "p-mnist", "r-mnist")

# key -> (type tag, default as written in the grammar, help)
KEY_TABLE = {
    # experiment identity
    "dataset": ("str", None, "hd-balls | p-mnist | r-mnist"),
    "method": ("str", None, "UDIL or a fixed preset; required by `run`"),
    "seeds": ("int_list", None, "training seeds, comma-separated; required by `run`"),
    "output_dir": ("str", "runs", "base directory for artifacts"),
    # dataset shape
    "data_seed": ("int", "0", "dataset substream seed (shared across methods)"),
    "n_domains": ("int", "5", "length of the domain sequence"),
    "n_per_domain": ("int", "500", "points per domain (hd-balls: split 80/20)"),
    "n_test_per_domain": ("int", "none", "per-domain test size (mnist streams)"),
    "dim": ("int", "20", "hd-balls input dimension"),
    "sigma": ("float", "1.0", "hd-balls cloud scale"),
    "mnist_dir": ("str", "none", "directory holding the four raw IDX files"),
    "degrees_per_domain": ("float", "9.0", "r-mnist rotation band per domain"),
    # optimization
    "learning_rate": ("float", "0.1", "SGD step size"),
    "steps_per_domain": ("int", "100", "SGD steps per domain"),
    "batch_size": ("int", "32", "current-domain minibatch size"),
    "buffer_capacity": ("int", "200", "total replay-memory budget"),
    "lambda_d": ("float", "1.0", "domain-alignment strength"),
    "c_gen": ("float", "1.0", "generalization-effect scalar"),
    "lambda_p": ("float", "0.0", "past-embedding distillation weight"),
    "lambda_s": ("float", "0.0", "supervised contrastive weight"),
    "encoder_hidden": ("int_list", "64", "encoder hidden widths"),
    "embed_dim": ("int", "32", "embedding width"),
    "predictor_hidden": ("int_list", "none", "predictor hidden widths"),
    "disc_hidden": ("int_list", "32", "discriminator hidden widths"),
    "omega_lr": ("float", "none", "coefficient-descent step size (default: learning_rate)"),
    "disc_lr": ("float", "none", "discriminator step size (default: learning_rate)"),
    "memory_batch": ("int", "none", "replay minibatch per past domain (default: batch_size)"),
    "split_memory_batch": ("bool", "false", "divide one batch across past domains"),
    "baseline_models": ("int", "5", "fresh models averaged for the transfer baseline"),
    # bound verification
    "instances": ("int", "100", "random bound instances to audit"),
    "bound_domains": ("int", "3", "domains per bound instance, the last one current (>= 2)"),
    "points_per_domain": ("int", "6", "ground-set points per domain (1..8)"),
    "class_size": ("int", "64", "hypotheses per sampled finite class (2..256)"),
    "grid_resolution": ("int", "10", "barycentric grid density for the argmin (>= 2)"),
    "bounds_seed": ("int", "0", "seed for the bound-instance sampler"),
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
    sgd: SgdConfig = field(default_factory=lambda: SgdConfig(0.1, 100, 32))
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


def _is_none(value: str) -> bool:
    return value.lower() in ("", "none")


def _typed(key: str, value: str):
    kind = KEY_TABLE[key][0]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            low = value.lower()
            if low not in ("true", "false"):
                raise ValueError
            return low == "true"
        if kind == "int_list":
            return tuple(int(p) for p in value.split(",") if p.strip())
        return value  # str
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot read {value!r} as {kind}") from None


def parse_config(text: str) -> RunConfig:
    """Grammar + typing + range validation; raises ConfigError with the
    offending key in the message."""
    values: dict = {}
    for key, value in parse_kv(text).items():
        if key not in KEY_TABLE:
            raise ConfigError(f"unknown key {key!r}; valid keys: "
                              + ", ".join(sorted(KEY_TABLE)))
        if _is_none(value) and KEY_TABLE[key][1] in (None, "none"):
            continue  # explicit "none" on an optional key keeps the default
        values[key] = _typed(key, value)

    if "dataset" in values and values["dataset"] not in DATASETS:
        raise ConfigError(f"key 'dataset': {values['dataset']!r} is not one of "
                          + ", ".join(DATASETS))
    if "method" in values and values["method"] not in METHODS:
        raise ConfigError(f"key 'method': unknown method {values['method']!r}; "
                          "valid methods: " + ", ".join(METHODS))

    try:
        sgd = SgdConfig(values.pop("learning_rate", 0.1),
                        values.pop("steps_per_domain", 100),
                        values.pop("batch_size", 32))
        hp = HyperParams(values.pop("lambda_d", 1.0),
                         values.pop("c_gen", 1.0),
                         values.pop("lambda_p", 0.0),
                         values.pop("lambda_s", 0.0))
        arch = ArchConfig(list(values.pop("encoder_hidden", (64,))),
                          values.pop("embed_dim", 32),
                          list(values.pop("predictor_hidden", ())),
                          list(values.pop("disc_hidden", (32,))))
    except ContractError as err:
        raise ConfigError(str(err)) from None

    config = RunConfig(sgd=sgd, hp=hp, arch=arch, **values)
    _check_ranges(config)
    return config


def _check_ranges(c: RunConfig) -> None:
    positives = {"n_domains": c.n_domains, "n_per_domain": c.n_per_domain,
                 "buffer_capacity": c.buffer_capacity,
                 "baseline_models": c.baseline_models,
                 "instances": c.instances}
    for key, value in positives.items():
        if value < 1:
            raise ConfigError(f"key {key!r}: must be >= 1, got {value}")
    # the ranges random_instance and barycentric_grid accept
    for key, value, lo, hi in (("bound_domains", c.bound_domains, 2, None),
                               ("points_per_domain", c.points_per_domain, 1, 8),
                               ("class_size", c.class_size, 2, 256),
                               ("grid_resolution", c.grid_resolution, 2, None)):
        if value < lo or (hi is not None and value > hi):
            span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ConfigError(f"key {key!r}: must be {span}, got {value}")
    if c.data_seed < 0 or c.bounds_seed < 0:
        raise ConfigError("seeds must be >= 0")
    if any(s < 0 for s in c.seeds):
        raise ConfigError("key 'seeds': entries must be >= 0")
    if c.n_test_per_domain is not None and c.n_test_per_domain < 1:
        raise ConfigError("key 'n_test_per_domain': must be >= 1")
    if c.dim < 2:
        raise ConfigError("key 'dim': hd-balls needs dim >= 2")
    if c.sigma <= 0:
        raise ConfigError("key 'sigma': must be > 0")
    if c.degrees_per_domain <= 0:
        raise ConfigError("key 'degrees_per_domain': must be > 0")
    for key, value in (("omega_lr", c.omega_lr), ("disc_lr", c.disc_lr)):
        if value is not None and value <= 0:
            raise ConfigError(f"key {key!r}: must be > 0")
    if c.memory_batch is not None and c.memory_batch < 1:
        raise ConfigError("key 'memory_batch': must be >= 1")
    if c.arch.embed_dim < 1:
        raise ConfigError("key 'embed_dim': must be >= 1")
    if any(w < 1 for w in (*c.arch.encoder_hidden, *c.arch.predictor_hidden,
                           *c.arch.disc_hidden)):
        raise ConfigError("hidden widths must be >= 1")


def require_run_fields(config: RunConfig) -> None:
    """The `run` subcommand needs an explicit experiment identity."""
    if config.dataset is None:
        raise ConfigError("key 'dataset' is required: one of "
                          + ", ".join(DATASETS))
    if config.method is None:
        raise ConfigError("key 'method' is required; valid methods: "
                          + ", ".join(METHODS))
    if not config.seeds:
        raise ConfigError("key 'seeds' is required and must be nonempty")


def default_config_text() -> str:
    """A commented template with every key at its default."""
    lines = ["# dilkit experiment config (flat key-value lines)"]
    for key, (_, default, help_text) in KEY_TABLE.items():
        shown = "" if default is None else default
        lines.append(f"# {key} = {shown}".rstrip() + f"   ({help_text})")
    return "\n".join(lines) + "\n"
