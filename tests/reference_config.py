"""Test-only reference: `parse_config` as it was before `KEY_TABLE` drove
it, with each default, type and range written out per key.  The
differential test in test_config_table.py compares the table-driven parser
against this one."""
from __future__ import annotations

from dilkit.autodiff import ContractError
from dilkit.coeffs import METHODS
from dilkit.datagen import ConfigError
from dilkit.expcli.config import DATASETS, RunConfig, parse_kv
from dilkit.losses import HyperParams
from dilkit.models import ArchConfig, SgdConfig

# key -> (type tag, default as written in the grammar)
KEY_TABLE = {
    "dataset": ("str", None), "method": ("str", None),
    "seeds": ("int_list", None), "output_dir": ("str", "runs"),
    "data_seed": ("int", "0"), "n_domains": ("int", "5"),
    "n_per_domain": ("int", "500"), "n_test_per_domain": ("int", "none"),
    "dim": ("int", "20"), "sigma": ("float", "1.0"),
    "mnist_dir": ("str", "none"), "degrees_per_domain": ("float", "9.0"),
    "learning_rate": ("float", "0.1"), "steps_per_domain": ("int", "100"),
    "batch_size": ("int", "32"), "buffer_capacity": ("int", "200"),
    "lambda_d": ("float", "1.0"), "c_gen": ("float", "1.0"),
    "lambda_p": ("float", "0.0"), "lambda_s": ("float", "0.0"),
    "encoder_hidden": ("int_list", "64"), "embed_dim": ("int", "32"),
    "predictor_hidden": ("int_list", "none"), "disc_hidden": ("int_list", "32"),
    "omega_lr": ("float", "none"), "disc_lr": ("float", "none"),
    "memory_batch": ("int", "none"), "split_memory_batch": ("bool", "false"),
    "baseline_models": ("int", "5"), "instances": ("int", "100"),
    "bound_domains": ("int", "3"), "points_per_domain": ("int", "6"),
    "class_size": ("int", "64"), "grid_resolution": ("int", "10"),
    "bounds_seed": ("int", "0"),
}


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
