"""The config key table: the table-driven parser against the per-key parser
it replaced (reference_config.py), and property tests over every key."""
import ast
import contextlib
import io
import math
import os
import tempfile
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_config as ref
from dilkit.autodiff import ContractError
from dilkit.bounds import barycentric_grid, random_instance
from dilkit.datagen import ConfigError, gen_hd_balls
from dilkit.expcli import KEY_TABLE, RunConfig, default_config_text, parse_config
from dilkit.expcli.cli import _trainer_config, main
from dilkit.expcli.config import format_value
from dilkit.models import Range
from dilkit.trainer import TrainerConfig

EDGES = ("0", "1", "-1", "2", "8", "9", "255", "256", "257", "1.5", "0.0",
         "-0.5", "1e-300", "1e400", "nan", "inf", "-inf", "none", "NONE", "",
         "true", "False", "yes", "abc", "1, 2", "0, 0", "3, 1, 2", "64, 32",
         " , 4", "-1, 2", "0, 5", "hd-balls", "p-mnist", "UDIL", "DER++",
         "Adam", "runs/x")


def _path(key):
    return KEY_TABLE[key].path or key


def _outcome(parse, text):
    try:
        return parse(text), None
    except ConfigError as err:
        return None, str(err)


def _non_finite(value):
    try:
        return not math.isfinite(float(value))
    except ValueError:
        return False


@pytest.mark.parametrize("key", list(KEY_TABLE))
def test_table_parser_matches_reference(key):
    """Every edge value of every key: the reference's result, apart from
    three intended changes (non-finite floats, list `none`, duplicate
    seeds); every rejection names the key."""
    kind = KEY_TABLE[key].kind
    for value in EDGES:
        text = f"{key} = {value}\n"
        want, _ = _outcome(ref.parse_config, text)
        got, err = _outcome(parse_config, text)
        if err is not None:
            assert f"'{key}'" in err, (text, err)
        if kind == "float" and _non_finite(value):
            assert err is not None and "must be finite" in err, text
        elif kind == "int_list" and value.lower() == "none":
            assert got is not None and not attrgetter(_path(key))(got), text
        elif key == "seeds" and value == "0, 0":
            assert err is not None and "distinct" in err, text
        elif want is None:
            assert err is not None, text
        else:
            assert got == want, text


def _benchmark_config_texts():
    """The config texts perfbench/worker.py parses, read from its source."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "worker.py")
                     .read_text())
    lines = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", "").endswith("_LINES")}
    stream = lines.pop("STREAM_LINES").format(seed=3)
    return [stream + body + "method = ER\n" for body in lines.values()]


@pytest.mark.parametrize("text", ["", "seeds = 3, 1, 2\nmethod = UDIL\n",
                                  *_benchmark_config_texts()])
def test_whole_configs_match_reference(text):
    assert parse_config(text) == ref.parse_config(text)


def _live(template: str) -> str:
    return "\n".join(line[2:].split("   (")[0] for line in template.splitlines()
                     if line.startswith("# ") and "=" in line)


def test_default_template_is_the_default_config():
    assert parse_config(default_config_text()) == RunConfig()
    assert parse_config(_live(default_config_text())) == RunConfig()


def test_default_template_matches_golden_file():
    """The spans come from the dataclass fields; moving a range must not
    change the template silently."""
    golden = Path(__file__).parent / "default_config.golden"
    assert default_config_text() == golden.read_text()


# RunConfig's copies of TrainerConfig fields, by TrainerConfig name
TRAINER_COPIES = {"buffer_capacity": "memory_capacity", "omega_lr": "omega_lr",
                  "disc_lr": "disc_lr", "memory_batch": "memory_batch",
                  "split_memory_batch": "split_memory_batch",
                  "baseline_models": "baseline_models"}


@pytest.mark.parametrize("key,name", TRAINER_COPIES.items())
def test_trainer_copies_have_the_trainer_default_and_range(key, name):
    assert getattr(RunConfig(), key) == getattr(TrainerConfig("ER", 0), name)
    assert Range.of(RunConfig, key) == Range.of(TrainerConfig, name)


def test_default_run_config_gives_the_default_trainer_config():
    assert _trainer_config(RunConfig(method="ER"), 0) == TrainerConfig("ER", 0)


NUMERIC = [k for k, spec in KEY_TABLE.items() if spec.range]


def _edges(key):
    """Values at and next to each end of a key's range."""
    spec = KEY_TABLE[key]
    r = spec.range
    if spec.kind == "float":
        lo = float(r.lo)
        return st.sampled_from((lo, math.nextafter(lo, -math.inf),
                                math.nextafter(lo, math.inf), -1.0, 1e300,
                                math.nan, math.inf, -math.inf))
    ends = (r.lo,) if r.hi is None else (r.lo, r.hi)
    ints = st.sampled_from([e + d for e in ends for d in (-1, 0, 1)])
    return ints.map(lambda v: [v]) if spec.kind == "int_list" else ints


def _owner_accepts(key, value):
    """Whether the dataclass holding the key's field accepts `value`.  A
    nested config checks itself on construction; RunConfig checks nothing
    itself, so its own fields are held to their declared range, its copies
    of TrainerConfig fields to TrainerConfig, and dim and sigma to
    gen_hd_balls as well."""
    owner, _, name = KEY_TABLE[key].path.rpartition(".")
    try:
        if owner:
            replace(getattr(RunConfig(), owner), **{name: value})
        elif key in TRAINER_COPIES:
            TrainerConfig("ER", 0, **{TRAINER_COPIES[key]: value})
        else:
            Range.of(RunConfig, name).check(name, value)
        if key in ("dim", "sigma"):
            gen_hd_balls(0, 1, 5, **dict({"dim": 2, "sigma": 1.0}, **{key: value}))
    except (ContractError, ConfigError):
        return False
    return True


@pytest.mark.parametrize("key", NUMERIC)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ranged_key_accepts_exactly_what_its_dataclass_accepts(key, data):
    """Every numerically ranged key, at each edge of its range and at
    nan/inf for floats: the parser accepts a value exactly when the
    dataclass that owns the field does, and names the key when not."""
    value = data.draw(_edges(key))
    parsed, err = _outcome(parse_config, f"{key} = {format_value(value)}\n")
    assert (err is None) == _owner_accepts(key, value), (key, value, err)
    if err is None:
        read = attrgetter(_path(key))(parsed)
        assert (list(read) if isinstance(value, list) else read) == value, key
    else:
        assert err.startswith(f"key '{key}': must be "), err
        if isinstance(value, float) and not math.isfinite(value):
            assert "must be finite and " in err, err


def _in_range(key):
    spec = KEY_TABLE[key]
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.kind == "bool":
        return st.booleans()
    if spec.kind == "str":
        return st.text("abcxyz019_-./", min_size=1).filter(
            lambda s: s.lower() != "none")
    r = spec.range
    if spec.kind == "float":
        return st.floats(r.lo, 1e6, exclude_min=r.above)
    ints = st.integers(r.lo, r.hi if r.hi is not None else r.lo + 10**6)
    if spec.kind == "int":
        return ints
    return st.lists(ints, max_size=4, unique=spec.distinct).map(tuple)


@st.composite
def _config_values(draw):
    keys = draw(st.lists(st.sampled_from(list(KEY_TABLE)), unique=True))
    return {key: draw(_in_range(key)) for key in keys}


@settings(max_examples=200, deadline=None)
@given(_config_values())
def test_in_range_values_round_trip(values):
    text = "".join(f"{key} = {format_value(v)}\n" for key, v in values.items())
    config = parse_config(text)
    for key, value in values.items():
        read = attrgetter(_path(key))(config)
        assert (tuple(read) if isinstance(read, list) else read) == value, key


def _out_of_range(key):
    spec = KEY_TABLE[key]
    if spec.choices:
        return st.text("abcxyz", min_size=1).filter(lambda s: s.lower() != "none")
    r = spec.range
    bad = st.integers(-10**6, r.lo - (0 if r.above else 1))
    if r.hi is not None:
        bad = bad | st.integers(r.hi + 1, r.hi + 10**6)
    if spec.kind == "float":
        bad = (st.floats(-1e6, 0.0 if r.above else -1e-300)
               | st.sampled_from((math.nan, math.inf, -math.inf)))
    if spec.kind == "int_list":
        bad = st.tuples(st.integers(r.lo, r.lo + 9), bad).map(
            lambda pair: ", ".join(map(str, pair)))
    return bad


RANGED = [k for k, spec in KEY_TABLE.items() if spec.range or spec.choices]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_out_of_range_value_exits_2_naming_the_key(data):
    key = data.draw(st.sampled_from(RANGED))
    value = data.draw(_out_of_range(key))
    lines = {"dataset": "hd-balls", "method": "ER", "seeds": "0", key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.cfg")
        with open(path, "w") as f:
            f.write(f"output_dir = {tmp}\n"
                    + "".join(f"{k} = {v}\n" for k, v in lines.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", path])
    assert code == 2 and f"key '{key}'" in err.getvalue(), (key, value, err.getvalue())


INSTANCE_ARGS = {"bound_domains": "n_domains",
                 "points_per_domain": "points_per_domain",
                 "class_size": "class_size"}


def _library_accepts(key, value):
    c = RunConfig()
    args = {arg: getattr(c, k) for k, arg in INSTANCE_ARGS.items()}
    try:
        if key == "grid_resolution":
            barycentric_grid(value)
        else:
            random_instance(np.random.default_rng(0),
                            **dict(args, **{INSTANCE_ARGS[key]: value}))
    except ContractError:
        return False
    return True


@pytest.mark.parametrize("key", [*INSTANCE_ARGS, "grid_resolution"])
def test_bound_key_ranges_are_the_library_ranges(key):
    """At each edge of a bound key's range, the value the table accepts the
    bound library accepts, and the value just outside both refuse."""
    r = KEY_TABLE[key].range
    hi = r.hi if r.hi is not None else r.lo + 3
    for value in (r.lo - 1, r.lo, hi, hi + 1):
        inside = r.lo <= value and (r.hi is None or value <= r.hi)
        assert (_outcome(parse_config, f"{key} = {value}\n")[1] is None) == inside
        assert _library_accepts(key, value) == inside, value
