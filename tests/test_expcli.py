"""Config grammar, artifact persistence, and the four CLI subcommands."""
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dilkit
from dilkit.datagen import ConfigError, DomainStream, LabeledSet, gen_hd_balls
from dilkit.expcli import (RunConfig, default_config_text, load_results,
                           parse_config, parse_kv, require_run_fields,
                           save_stream, stream_fingerprint)
from dilkit.expcli.cli import main
from dilkit.expcli.runio import (METRICS_HEADER, format_csv, metrics_rows,
                                 recompute_metrics, results_payload,
                                 write_text)
from dilkit.trainer import TrainerConfig, run_sequence
from dilkit.models import ArchConfig, SgdConfig

TINY = """
# three tiny ball domains
dataset = hd-balls
method = ER
seeds = 0
n_domains = 3
n_per_domain = 60
dim = 4
sigma = 0.4
steps_per_domain = 40
batch_size = 16
buffer_capacity = 30
encoder_hidden = 8
embed_dim = 4
predictor_hidden = none
disc_hidden = 8
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# grammar


def test_parse_kv_ignores_comments_and_blanks():
    kv = parse_kv("# heading\n\n  a = 1\nb=two words \n")
    assert kv == {"a": "1", "b": "two words"}


@pytest.mark.parametrize("bad,fragment", [
    ("a = 1\na = 2\n", "duplicate key"),
    ("just words\n", "exactly one '='"),
    ("x = a = b\n", "exactly one '='"),
    ("= 3\n", "empty key"),
])
def test_parse_kv_rejects_malformed_lines(bad, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_kv(bad)


def test_parse_config_empty_text_gives_defaults():
    c = parse_config("")
    assert c == RunConfig()
    assert c.dataset is None and c.seeds == ()
    assert c.sgd == SgdConfig(0.1, 100, 32)
    assert c.arch == ArchConfig([64], 32, [], [32])


def test_parse_config_reads_every_field_kind():
    c = parse_config(TINY.replace("seeds = 0", "seeds = 3, 1, 2")
                     + "split_memory_batch = true\n"
                       "omega_lr = 0.5\nlambda_d = 0.25\n")
    assert (c.dataset, c.method) == ("hd-balls", "ER")
    assert c.seeds == (3, 1, 2)          # order preserved, no dedup
    assert c.split_memory_batch is True
    assert c.omega_lr == 0.5 and c.hp.lambda_d == 0.25
    assert c.arch.encoder_hidden == [8] and c.arch.predictor_hidden == []
    assert c.sgd == SgdConfig(0.1, 40, 16)


@pytest.mark.parametrize("line,fragment", [
    ("dataset = mnist-classic", "dataset"),
    ("method = Adam", "valid methods"),
    ("steps_per_domain = ten", "cannot read"),
    ("split_memory_batch = yes", "cannot read"),
    ("frobnicate = 1", "unknown key"),
    ("dim = 1", "dim"),
    ("sigma = 0", "sigma"),
    ("buffer_capacity = 0", "buffer_capacity"),
    ("seeds = -1", "seeds"),
    ("learning_rate = -0.1", "learning_rate"),
    ("bound_domains = 1", "bound_domains"),
    ("points_per_domain = 9", "points_per_domain"),
    ("class_size = 1", "class_size"),
    ("grid_resolution = 1", "grid_resolution"),
    ("sigma = nan", "'sigma'"),
    ("degrees_per_domain = inf", "'degrees_per_domain'"),
    ("lambda_d = nan", "'lambda_d'"),
    ("c_gen = nan", "'c_gen'"),
    ("lambda_p = inf", "'lambda_p'"),
    ("lambda_s = nan", "'lambda_s'"),
    ("omega_lr = inf", "'omega_lr'"),
    ("disc_lr = nan", "'disc_lr'"),
    ("learning_rate = inf", "'learning_rate'"),
    ("steps_per_domain = 0", "'steps_per_domain'"),
    ("batch_size = 0", "'batch_size'"),
    ("encoder_hidden = 0", "'encoder_hidden'"),
    ("disc_hidden = 8, 0", "'disc_hidden'"),
    ("data_seed = -1", "'data_seed'"),
    ("bounds_seed = -1", "'bounds_seed'"),
    ("seeds = 0, 0", "'seeds'"),
])
def test_parse_config_field_level_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line + "\n")


@pytest.mark.parametrize("key", ["seeds", "encoder_hidden", "predictor_hidden",
                                 "disc_hidden"])
@pytest.mark.parametrize("value", ["none", ""])
def test_list_key_none_is_empty(key, value):
    c = parse_config(f"{key} = {value}\n")
    assert c.seeds == () if key == "seeds" else getattr(c.arch, key) == []


def test_require_run_fields_names_the_missing_key():
    with pytest.raises(ConfigError, match="'dataset'"):
        require_run_fields(parse_config("method = ER\nseeds = 0\n"))
    with pytest.raises(ConfigError, match="'method'"):
        require_run_fields(parse_config("dataset = hd-balls\nseeds = 0\n"))
    with pytest.raises(ConfigError, match="'seeds'"):
        require_run_fields(parse_config("dataset = hd-balls\nmethod = ER\n"))


def test_default_template_parses_back():
    # every commented line, uncommented, must round-trip through the parser
    text = default_config_text()
    live = "\n".join(line[2:].split("   (")[0] for line in text.splitlines()
                     if line.startswith("# ") and "=" in line)
    c = parse_config(live)
    assert c.output_dir == "runs" and c.n_domains == 5


# ---------------------------------------------------------------------------
# stream persistence


def tiny_stream():
    return gen_hd_balls(0, 3, 60, 4, 0.4)


def read_stream_dir(dir_path) -> tuple[DomainStream, dict]:
    """The stream a `gen-data` directory holds, read with np.load, and its
    meta.json."""
    meta = json.loads((Path(dir_path) / "meta.json").read_text())
    domains = []
    for t in range(1, meta["n_domains"] + 1):
        parts = [LabeledSet(np.load(Path(dir_path) / f"d{t:02d}_{tag}_x.npy"),
                            np.load(Path(dir_path) / f"d{t:02d}_{tag}_y.npy"),
                            domain_id=t)
                 for tag in ("train", "test")]
        domains.append((parts[0], parts[1]))
    stream = DomainStream(domains, num_classes=meta["num_classes"],
                          input_dim=meta["input_dim"])
    return stream, meta


def test_stream_round_trip_bitwise(tmp_path):
    stream = tiny_stream()
    save_stream(stream, str(tmp_path / "s"))
    back, meta = read_stream_dir(tmp_path / "s")
    assert back.n_domains == 3 and back.num_classes == 2
    assert meta["schema"] == "dilkit-stream-v1"
    assert meta["sizes"] == [{"train": 48, "test": 12}] * 3
    for t in range(1, 4):
        for part, orig in (("train", stream.train(t)), ("test", stream.test(t))):
            loaded = back.train(t) if part == "train" else back.test(t)
            assert loaded.x.tobytes() == orig.x.tobytes()
            assert loaded.y.tobytes() == orig.y.tobytes()
    assert stream_fingerprint(back) == stream_fingerprint(stream) \
        == meta["fingerprint"]


def test_stream_same_seed_same_files(tmp_path):
    save_stream(tiny_stream(), str(tmp_path / "a"))
    save_stream(tiny_stream(), str(tmp_path / "b"))
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name


def test_save_stream_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    """An array write that fails midway leaves no file under the array's
    name and no temporary file behind."""
    def partial_save(file, arr, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            with open(file, "wb") as f:
                f.write(b"\x93NUMPY\x01\x00")
        else:
            file.write(b"\x93NUMPY\x01\x00")
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", partial_save)
    out = tmp_path / "s"
    with pytest.raises(OSError, match="disk full"):
        save_stream(tiny_stream(), str(out))
    assert not out.exists() or os.listdir(out) == []


# ---------------------------------------------------------------------------
# results payloads


def tiny_results(method="ER", seeds=(0, 1)):
    stream = tiny_stream()
    arch = ArchConfig([8], 4, [], [8])
    sgd = SgdConfig(0.2, 40, 16)
    return [run_sequence(stream, TrainerConfig(method, s, arch=arch, sgd=sgd,
                                               memory_capacity=30))
            for s in seeds]


def test_results_payload_summary_and_determinism():
    results = tiny_results()
    payload = results_payload("cfg text", results, {"name": "hd-balls"})
    finals = [r.avg_acc_by_domain[3] for r in results]
    assert payload["summary"]["avg_acc"]["mean"] == pytest.approx(np.mean(finals))
    assert payload["summary"]["avg_acc"]["std"] == pytest.approx(np.std(finals))
    assert payload["seeds"] == [0, 1]
    a = json.dumps(payload, sort_keys=True)
    b = json.dumps(results_payload("cfg text", tiny_results(),
                                   {"name": "hd-balls"}), sort_keys=True)
    assert a == b  # same seeds, same stream -> byte-identical document


def test_matrix_serializes_losslessly():
    result = tiny_results(seeds=(0,))[0]
    payload = results_payload("t", [result], {})
    lists = json.loads(json.dumps(payload))["per_seed"][0]["matrix"]
    assert lists == result.matrix.to_lists()
    assert lists[0][2] is None  # never-evaluated cell stays null


def test_recompute_metrics_matches_and_flags_tampering():
    payload = results_payload("t", tiny_results(seeds=(0,)), {})
    payload = json.loads(json.dumps(payload))  # force a JSON round trip
    rows, problems = recompute_metrics(payload)
    assert problems == []
    assert len(rows) == 3 and rows[-1][2] == 3
    payload["per_seed"][0]["avg_acc"]["3"] += 0.25
    _, problems = recompute_metrics(payload)
    assert any("avg_acc" in p for p in problems)


def test_write_text_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "results.json"
    path.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_text(str(path), "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["results.json"]


def test_metrics_csv_shape():
    results = tiny_results(seeds=(0,))
    text = format_csv(METRICS_HEADER, metrics_rows(results))
    lines = text.strip().split("\n")
    assert lines[0] == "method,seed,domain,avg_acc,forgetting,forward_transfer"
    assert len(lines) == 1 + 3
    assert lines[1].endswith(",,")  # domain 1: no forgetting, no transfer yet


# ---------------------------------------------------------------------------
# CLI subcommands (in-process)


def test_cli_run_writes_all_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    code = main(["run", write_cfg(tmp_path, TINY), "--embeddings"])
    assert code == 0
    out_dir = tmp_path / "out" / "hd-balls-ER"
    for name in ("results.json", "metrics.csv", "omega.csv", "timing.json",
                 "embeddings.csv"):
        assert (out_dir / name).exists(), name
    payload = load_results(str(out_dir / "results.json"))
    assert payload["config_text"] == TINY
    assert payload["per_seed"][0]["matrix"][2][0] is not None
    assert "avg_acc" in capsys.readouterr().out
    header = (out_dir / "embeddings.csv").read_text().splitlines()[0]
    assert header == "seed,domain,label,e1,e2,e3,e4"


def test_cli_run_twice_is_bitwise_identical(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, TINY)
    blobs = []
    for sub in ("a", "b"):
        monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / sub))
        assert main(["run", cfg]) == 0
        blobs.append(
            (tmp_path / sub / "hd-balls-ER" / "results.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_two_methods_share_dataset_fingerprint(tmp_path, monkeypatch):
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", write_cfg(tmp_path, TINY)]) == 0
    assert main(["run", write_cfg(
        tmp_path, TINY.replace("method = ER", "method = FineTune"),
        name="ft.cfg")]) == 0
    a = load_results(str(tmp_path / "out" / "hd-balls-ER" / "results.json"))
    b = load_results(str(tmp_path / "out" / "hd-balls-FineTune" / "results.json"))
    assert a["dataset"]["fingerprint"] == b["dataset"]["fingerprint"]
    assert a["method"] != b["method"]


def test_cli_unknown_method_lists_presets(tmp_path, capsys):
    bad = write_cfg(tmp_path, "dataset = hd-balls\nmethod = Adam\nseeds = 0\n")
    assert main(["run", bad]) == 2
    err = capsys.readouterr().err
    assert "valid methods" in err and "DER++" in err and "UDIL" in err


@pytest.mark.parametrize("old,new,fragment", [
    ("buffer_capacity = 30", "buffer_capacity = 2",
     "key 'buffer_capacity': must be >= n_domains = 3, got 2"),
    ("method = ER", "method = ESM-ER", "key 'method': ESM-ER requires"),
    ("n_per_domain = 60", "n_per_domain = 4",
     "key 'n_per_domain': must be >= 5, got 4")])
def test_cli_run_refuses_before_training(tmp_path, monkeypatch, capsys, old,
                                         new, fragment):
    """Configs that used to fail after training, or inside the stream
    generator, exit 2 naming the key, and nothing is written."""
    import dilkit.trainer as trainer

    def no_training(*args, **kwargs):
        raise AssertionError("trained a domain")

    monkeypatch.setattr(trainer, "train_domain", no_training)
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", write_cfg(tmp_path, TINY.replace(old, new))]) == 2
    assert f"config error: {fragment}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify-bounds", "gen-data"])
def test_cli_non_utf8_config_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: cannot read config {path}: ")


def test_cli_mnist_without_dir_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DILKIT_MNIST_DIR", raising=False)
    bad = write_cfg(tmp_path, "dataset = r-mnist\nmethod = ER\nseeds = 0\n")
    assert main(["run", bad]) == 2
    assert "mnist_dir" in capsys.readouterr().err


def _write_synthetic_idx_dir(tmp_path, n_train=120, n_test=40):
    import struct
    rng = np.random.default_rng(5)
    d = tmp_path / "idx"
    d.mkdir()
    for stem, n in (("train", n_train), ("t10k", n_test)):
        imgs = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        with open(d / f"{stem}-images-idx3-ubyte", "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, *imgs.shape))
            f.write(imgs.tobytes())
        with open(d / f"{stem}-labels-idx1-ubyte", "wb") as f:
            f.write(struct.pack(">II", 0x00000801, n))
            f.write(rng.integers(0, 10, size=n, dtype=np.uint8).tobytes())
    return d


@pytest.mark.parametrize("dataset", ["p-mnist", "r-mnist"])
def test_cli_digit_stream_pipeline_on_synthetic_idx(tmp_path, monkeypatch,
                                                    dataset):
    idx_dir = _write_synthetic_idx_dir(tmp_path)
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    cfg = write_cfg(tmp_path, f"""
dataset = {dataset}
mnist_dir = {idx_dir}
method = DER++
seeds = 0
n_domains = 3
n_per_domain = 40
n_test_per_domain = 12
degrees_per_domain = 20
steps_per_domain = 15
batch_size = 8
buffer_capacity = 20
encoder_hidden = 16
embed_dim = 8
predictor_hidden = none
disc_hidden = 8
""")
    assert main(["run", cfg]) == 0
    payload = load_results(
        str(tmp_path / "out" / f"{dataset}-DER++" / "results.json"))
    assert payload["dataset"]["input_dim"] == 784
    assert payload["dataset"]["num_classes"] == 10
    assert payload["dataset"]["train_sizes"] == [40, 40, 40]
    assert payload["per_seed"][0]["matrix"][2][2] is not None


def test_cli_test_label_above_train_labels_names_both_files(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    import struct
    idx_dir = _write_synthetic_idx_dir(tmp_path)
    test_labels = np.full(40, 3, dtype=np.uint8)
    test_labels[7] = 9
    for stem, labels in (("train", np.arange(120, dtype=np.uint8) % 8),
                         ("t10k", test_labels)):
        with open(idx_dir / f"{stem}-labels-idx1-ubyte", "wb") as f:
            f.write(struct.pack(">II", 0x00000801, len(labels)))
            f.write(labels.tobytes())
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    cfg = write_cfg(tmp_path, f"""
dataset = p-mnist
mnist_dir = {idx_dir}
method = ER
seeds = 0
n_domains = 2
n_per_domain = 20
n_test_per_domain = 8
""")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert (f"format error: {idx_dir / 't10k-labels-idx1-ubyte'} holds label 9"
            f", above the largest label 7 in "
            f"{idx_dir / 'train-labels-idx1-ubyte'}") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_images, labels, bad_file, message", [
    (0, [], "t10k-images-idx3-ubyte", "holds no image"),
    (3, [1, 2], "t10k-labels-idx1-ubyte", "image count 3 != label count 2"),
    (3, [1, 10, 2], "t10k-labels-idx1-ubyte", "labels outside [0, 10)"),
], ids=["no-image", "count-mismatch", "label-range"])
def test_cli_header_only_idx_is_format_error(tmp_path, monkeypatch, capsys,
                                            n_images, labels, bad_file,
                                            message):
    """A well-formed IDX pair that holds no image, whose counts differ or
    whose labels leave [0, 10) fails as a format error naming the file at
    fault, not with a traceback."""
    import struct
    idx_dir = _write_synthetic_idx_dir(tmp_path)
    with open(idx_dir / "t10k-images-idx3-ubyte", "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n_images, 28, 28))
        f.write(bytes(n_images * 28 * 28))
    with open(idx_dir / "t10k-labels-idx1-ubyte", "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(bytes(labels))
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    cfg = write_cfg(tmp_path, f"""
dataset = p-mnist
mnist_dir = {idx_dir}
method = ER
seeds = 0
n_domains = 2
n_per_domain = 20
n_test_per_domain = 8
""")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"format error: {idx_dir / bad_file}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_gen_data_round_trip_and_determinism(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, TINY)
    digests = []
    for sub in ("a", "b"):
        monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / sub))
        assert main(["gen-data", cfg]) == 0
        d = tmp_path / sub / "hd-balls-s0"
        digests.append({n: (d / n).read_bytes()
                        for n in sorted(os.listdir(d))})
    assert digests[0] == digests[1]
    back, meta = read_stream_dir(tmp_path / "a" / "hd-balls-s0")
    assert stream_fingerprint(back) == stream_fingerprint(tiny_stream()) \
        == meta["fingerprint"]


def test_cli_verify_bounds_report_and_flip_sign(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "vb"))
    cfg = write_cfg(tmp_path, "instances = 5\npoints_per_domain = 4\n"
                              "class_size = 16\ngrid_resolution = 4\n")
    assert main(["verify-bounds", cfg]) == 0
    report = json.loads((tmp_path / "vb" / "bounds-report.json").read_text())
    assert report["total_violations"] == 0
    assert set(report["checks"]) == {"intra_bound", "cross_bound",
                                     "unified_bound", "tightest_bound_grid",
                                     "erm_bound_shape"}
    for stats in report["checks"].values():
        assert {"checks", "violations", "max_slack", "min_slack"} <= set(stats)
    assert len(report["sample_argmin_omega"]) == report["n_domains"] - 1
    capsys.readouterr()
    assert main(["verify-bounds", cfg, "--selftest-flip-sign"]) == 1
    flipped = json.loads((tmp_path / "vb" / "bounds-report.json").read_text())
    assert flipped["flip_sign_selftest"] is True
    assert flipped["total_violations"] > 0


def test_cli_verify_bounds_non_finite_c_gen_is_config_error(tmp_path, monkeypatch,
                                                            capsys):
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "vb"))
    assert main(["verify-bounds", write_cfg(tmp_path, "c_gen = nan\n")]) == 2
    assert "key 'c_gen'" in capsys.readouterr().err
    assert not (tmp_path / "vb").exists()


def test_cli_metrics_recomputes_and_detects_corruption(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", write_cfg(tmp_path, TINY)]) == 0
    results = tmp_path / "out" / "hd-balls-ER" / "results.json"
    capsys.readouterr()  # drop the run summary
    assert main(["metrics", str(results)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(METRICS_HEADER)
    assert out == (results.parent / "metrics.csv").read_text()
    payload = json.loads(results.read_text())
    payload["per_seed"][0]["forgetting"]["3"] = 0.77
    results.write_text(json.dumps(payload))
    assert main(["metrics", str(results)]) == 1
    assert "mismatch" in capsys.readouterr().err


def test_cli_metrics_single_domain_run_round_trips(tmp_path, monkeypatch,
                                                   capsys):
    """A 1-domain run stores no forgetting and a null forward transfer;
    `metrics` re-derives the same and prints the run's metrics.csv."""
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    cfg = TINY.replace("n_domains = 3", "n_domains = 1")
    assert main(["run", write_cfg(tmp_path, cfg)]) == 0
    results = tmp_path / "out" / "hd-balls-ER" / "results.json"
    stored = json.loads(results.read_text())["per_seed"][0]
    assert stored["forgetting"] == {} and stored["forward_transfer"] is None
    capsys.readouterr()
    assert main(["metrics", str(results)]) == 0
    assert capsys.readouterr().out == (results.parent / "metrics.csv").read_text()


@pytest.mark.parametrize("name,domain,value", [
    ("forward_transfer", None, None),
    ("forgetting", "3", float("nan")),
])
def test_cli_metrics_null_or_nan_stored_metric_is_a_mismatch(
        tmp_path, capsys, name, domain, value):
    payload = results_payload("t", tiny_results(seeds=(0,)), {})
    entry = payload["per_seed"][0]
    slot, key = (entry[name], domain) if domain else (entry, name)
    recomputed, slot[key] = slot[key], value
    where = f" domain {domain}" if domain else ""
    path = tmp_path / "results.json"
    path.write_text(json.dumps(payload))
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"mismatch: seed 0{where}: {name} stored {value!r} != recomputed "
        f"{recomputed!r}\n")


def _edit(entry, path):
    """The dict at `path` (keys from `entry`) and the last key."""
    for key in path[:-1]:
        entry = entry[key]
    return entry, path[-1]


@pytest.mark.parametrize("path,value,message", [
    (("summary", "avg_acc", "mean"), 0.123,
     "summary: avg_acc.mean stored 0.123 != recomputed {old!r}"),
    (("summary", "forward_transfer", "std"), 0.5,
     "summary: forward_transfer.std stored 0.5 != recomputed {old!r}"),
    (("summary", "forgetting"), None,
     "summary: forgetting stored None != recomputed {old!r}"),
    (("per_seed", 0, "avg_acc", "7"), 0.5,
     "seed 0: avg_acc key '7' is outside domains 1..3"),
    (("per_seed", 0, "forgetting", "0"), 0.0,
     "seed 0: forgetting key '0' is outside domains 1..3"),
], ids=["avg_acc-mean", "forward_transfer-std", "forgetting-nulled",
        "avg_acc-domain-7", "forgetting-domain-0"])
def test_cli_metrics_checks_summary_and_domain_keys(tmp_path, capsys, path,
                                                    value, message):
    """`metrics` re-derives the summary from the rebuilt results as
    results_payload does, and a stored per-domain key outside
    1..n_domains is a mismatch naming it; each edit exits 1."""
    payload = results_payload("t", tiny_results(seeds=(0,)), {})
    slot, key = _edit(payload, path)
    old, slot[key] = slot.get(key), value
    results = tmp_path / "results.json"
    results.write_text(json.dumps(payload))
    assert main(["metrics", str(results)]) == 1
    assert capsys.readouterr().err == f"mismatch: {message.format(old=old)}\n"


def test_cli_metrics_missing_summary_is_format_error(tmp_path, capsys):
    payload = results_payload("t", tiny_results(seeds=(0,)), {})
    del payload["summary"]
    path = tmp_path / "results.json"
    path.write_text(json.dumps(payload))
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"format error: {path}: missing field 'summary'\n")


def _metrics_error(path, capsys) -> str:
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"format error: {path}: ")
    return err


@pytest.mark.parametrize("payload,fragment", [
    ({"schema": "dilkit-results-v1"}, "missing field 'n_domains'"),
    ({"schema": "dilkit-results-v1", "n_domains": 3, "method": "ER",
      "per_seed": [{"seed": 0}]}, "per_seed[0]: missing field 'matrix'"),
    ([], "schema None"),
    ({"schema": "dilkit-results-v1", "n_domains": 3, "method": "ER",
      "per_seed": []}, "per_seed is empty"),
])
def test_cli_metrics_missing_field_is_format_error(tmp_path, capsys, payload,
                                                   fragment):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(payload))
    assert fragment in _metrics_error(path, capsys)


def test_cli_metrics_non_utf8_results_is_format_error(tmp_path, capsys):
    path = tmp_path / "results.json"
    path.write_bytes(b'{"schema": "\xff\xfe"}')
    assert "can't decode byte 0xff" in _metrics_error(path, capsys)


@pytest.mark.parametrize("text,fragment", [
    ('{"schema": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits)"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["5000-digit-int", "deep-array"])
def test_cli_metrics_undecodable_results_is_format_error(tmp_path, capsys,
                                                         text, fragment):
    path = tmp_path / "results.json"
    path.write_text(text)
    assert fragment in _metrics_error(path, capsys)


def test_cli_metrics_matrix_size_not_n_domains_is_format_error(tmp_path,
                                                               capsys):
    payload = results_payload("t", tiny_results(seeds=(0,)), {})
    payload["n_domains"] = 2
    path = tmp_path / "results.json"
    path.write_text(json.dumps(payload))
    err = _metrics_error(path, capsys)
    assert err.endswith("per_seed[0]: matrix has 3 domains, n_domains is 2\n")


def test_cli_metrics_accuracy_out_of_range_is_format_error(tmp_path, capsys):
    payload = results_payload("t", tiny_results(seeds=(0,)), {})
    payload["per_seed"][0]["matrix"][1][0] = 2.0
    path = tmp_path / "results.json"
    path.write_text(json.dumps(payload))
    err = _metrics_error(path, capsys)
    assert "per_seed[0]" in err and "2.0 outside [0,1]" in err


def test_cli_run_diverging_seed_exits_1_with_flagged_partial(
        tmp_path, monkeypatch, capsys):
    """Seed 1 trains with a diverging learning rate: the run stops at its
    first non-finite loss, exits 1, and keeps seed 0's results flagged as
    partial, with the error naming the domain and step."""
    import dilkit.expcli.cli as cli

    def diverge_seed_1(stream, config):
        if config.seed == 1:
            config = dataclasses.replace(config, sgd=SgdConfig(1e6, 40, 16))
        return run_sequence(stream, config)

    monkeypatch.setattr(cli, "run_sequence", diverge_seed_1)
    monkeypatch.setenv("DILKIT_OUTPUT_DIR", str(tmp_path / "out"))
    cfg = write_cfg(tmp_path, TINY.replace("seeds = 0", "seeds = 0, 1"))
    with np.errstate(all="ignore"):
        assert main(["run", cfg]) == 1
    payload = load_results(str(tmp_path / "out" / "hd-balls-ER" / "results.json"))
    assert payload["partial"]["completed_seeds"] == [0]
    assert re.fullmatch(r"seed 1: ContractError: ER: classification loss is "
                        r"nan at domain 1, step \d+",
                        payload["partial"]["error"])
    assert "partial results written and flagged" in capsys.readouterr().err


def test_module_entry_point_runs_without_warnings():
    """`python -m dilkit.expcli` is the uninstalled entry point; running it
    must not re-execute an already imported module (a RuntimeWarning)."""
    src_root = str(Path(dilkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dilkit.expcli",
         "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dilkit")
