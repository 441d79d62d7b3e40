"""The config key table: the table-driven parser against the per-key parser
it replaced (reference_config.py), and property tests over every key."""
import ast
import contextlib
import io
import math
import os
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_config as ref
from dilkit.autodiff import ContractError
from dilkit.bounds import barycentric_grid, random_instance
from dilkit.datagen import ConfigError
from dilkit.expcli import KEY_TABLE, RunConfig, default_config_text, parse_config
from dilkit.expcli.cli import main
from dilkit.expcli.config import format_value

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


def _in_range(key):
    spec = KEY_TABLE[key]
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.kind == "bool":
        return st.booleans()
    if spec.kind == "str":
        return st.text("abcxyz019_-./", min_size=1).filter(
            lambda s: s.lower() != "none")
    if spec.kind == "float":
        return st.floats(spec.lo, 1e6, exclude_min=spec.above)
    ints = st.integers(spec.lo, spec.hi if spec.hi is not None else spec.lo + 10**6)
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
    bad = st.integers(-10**6, spec.lo - (0 if spec.above else 1))
    if spec.hi is not None:
        bad = bad | st.integers(spec.hi + 1, spec.hi + 10**6)
    if spec.kind == "float":
        bad = (st.floats(-1e6, 0.0 if spec.above else -1e-300)
               | st.sampled_from((math.nan, math.inf, -math.inf)))
    if spec.kind == "int_list":
        bad = st.tuples(st.integers(spec.lo, spec.lo + 9), bad).map(
            lambda pair: ", ".join(map(str, pair)))
    return bad


RANGED = [k for k, spec in KEY_TABLE.items() if spec.lo is not None or spec.choices]


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
    spec = KEY_TABLE[key]
    hi = spec.hi if spec.hi is not None else spec.lo + 3
    for value in (spec.lo - 1, spec.lo, hi, hi + 1):
        inside = spec.lo <= value and (spec.hi is None or value <= spec.hi)
        assert (_outcome(parse_config, f"{key} = {value}\n")[1] is None) == inside
        assert _library_accepts(key, value) == inside, value
