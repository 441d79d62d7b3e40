import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dilkit
import reference_datagen as ref
from dilkit.autodiff import ContractError
from dilkit.datagen import (
    ConfigError, DomainStream, FormatError, LabeledSet, gen_hd_balls,
    load_idx, permuted_stream, rotate_images, rotated_stream,
)
from dilkit.expcli.runio import stream_fingerprint
from dilkit.seeding import substream


def hd_balls_mean(seed, t, dim):
    # mirrors gen_hd_balls' substream consumption order
    rng = substream(seed, "data", t)
    g = rng.normal(size=dim)
    return g / np.linalg.norm(g)


def test_hd_balls_shapes_and_split():
    s = gen_hd_balls(seed=1, n_domains=3, n_per_domain=100, dim=10, sigma=0.2)
    assert s.n_domains == 3 and s.num_classes == 2 and s.input_dim == 10
    for t in range(1, 4):
        assert len(s.train(t)) == 80 and len(s.test(t)) == 20


def test_hd_balls_label_rule_and_unit_mean():
    s = gen_hd_balls(seed=7, n_domains=2, n_per_domain=200, dim=8, sigma=0.2)
    for t in (1, 2):
        mu = hd_balls_mean(7, t, 8)
        assert abs(np.linalg.norm(mu) - 1.0) <= 1e-12
        for part in (s.train(t), s.test(t)):
            expect = (part.x @ mu > 1.0).astype(np.int64)
            assert np.array_equal(part.y, expect)
        # points along the normal land on the documented sides
        assert float(1.2 * mu @ mu) > 1.0
        assert float(0.8 * mu @ mu) < 1.0


def test_hd_balls_class_balance():
    s = gen_hd_balls(seed=3, n_domains=4, n_per_domain=2000, dim=100, sigma=0.2)
    for t in range(1, 5):
        y = np.concatenate([s.train(t).y, s.test(t).y])
        assert abs(y.mean() - 0.5) <= 0.05


def test_hd_balls_split_disjoint():
    s = gen_hd_balls(seed=5, n_domains=1, n_per_domain=50, dim=4, sigma=0.2)
    tr, te = s.train(1).x, s.test(1).x
    for row in te:
        assert not np.any(np.all(tr == row, axis=1))


def test_hd_balls_determinism():
    a = gen_hd_balls(seed=9, n_domains=2, n_per_domain=30, dim=5, sigma=0.1)
    b = gen_hd_balls(seed=9, n_domains=2, n_per_domain=30, dim=5, sigma=0.1)
    for t in (1, 2):
        assert np.array_equal(a.train(t).x, b.train(t).x)
        assert np.array_equal(a.test(t).y, b.test(t).y)


def test_hd_balls_config_errors():
    with pytest.raises(ConfigError):
        gen_hd_balls(1, 2, 4, 10, 0.2)
    with pytest.raises(ConfigError):
        gen_hd_balls(1, 2, 100, 1, 0.2)
    with pytest.raises(ConfigError):
        gen_hd_balls(1, 2, 100, 10, 0.0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_hd_balls_rejects_non_finite_sigma(sigma):
    """A nan sigma used to build nan inputs, and training failed later on a
    nan loss."""
    with pytest.raises(ConfigError, match="^hd-balls sigma must be finite and > 0"):
        gen_hd_balls(1, 2, 100, 10, sigma)


def _write_idx_images(path, arr):
    arr = np.asarray(arr, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, *arr.shape))
        f.write(arr.tobytes())


def _write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, labels.shape[0]))
        f.write(labels.tobytes())


def test_load_idx_roundtrip(tmp_path):
    imgs = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    ip, lp = tmp_path / "im", tmp_path / "lb"
    _write_idx_images(ip, imgs)
    _write_idx_labels(lp, [4, 9])
    s = load_idx(str(ip), str(lp))
    assert s.x.shape == (2, 9)
    assert np.array_equal(s.y, [4, 9])
    assert np.allclose(s.x * 255.0, imgs.reshape(2, 9))
    assert s.x.max() <= 1.0 and s.x.min() >= 0.0


def test_load_idx_bad_magic(tmp_path):
    ip, lp = tmp_path / "im", tmp_path / "lb"
    with open(ip, "wb") as f:
        f.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
        f.write(bytes(4))
    _write_idx_labels(lp, [1])
    with pytest.raises(FormatError, match="0xdeadbeef"):
        load_idx(str(ip), str(lp))


def test_load_idx_truncated(tmp_path):
    ip, lp = tmp_path / "im", tmp_path / "lb"
    with open(ip, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 3, 3))
        f.write(bytes(5))  # needs 18
    _write_idx_labels(lp, [1, 2])
    with pytest.raises(FormatError, match="payload"):
        load_idx(str(ip), str(lp))


def test_load_idx_count_mismatch(tmp_path):
    ip, lp = tmp_path / "im", tmp_path / "lb"
    _write_idx_images(ip, np.zeros((2, 2, 2), dtype=np.uint8))
    _write_idx_labels(lp, [1, 2, 3])
    with pytest.raises(FormatError, match="count"):
        load_idx(str(ip), str(lp))


def test_load_idx_label_range(tmp_path):
    ip, lp = tmp_path / "im", tmp_path / "lb"
    _write_idx_images(ip, np.zeros((1, 2, 2), dtype=np.uint8))
    _write_idx_labels(lp, [12])
    with pytest.raises(FormatError, match="labels"):
        load_idx(str(ip), str(lp))


def _toy_base(n=40, dim=16, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledSet(rng.random((n, dim)), rng.integers(0, k, size=n))


def test_permutation_inverse_restores():
    base, base_test = _toy_base(), _toy_base(n=10, seed=1)
    s = permuted_stream(base, 3, seed=4, base_test=base_test)
    for t in (1, 2, 3):
        # reproduce the permutation substream as permuted_stream draws it
        inv = np.argsort(substream(4, "perm", t).permutation(16))
        assert np.array_equal(s.train(t).x[:, inv], base.x)
        assert np.array_equal(s.test(t).x[:, inv], base_test.x)


def test_permuted_stream_structure():
    base, base_test = _toy_base(n=40), _toy_base(n=10, seed=1)
    s = permuted_stream(base, n_domains=3, seed=11, base_test=base_test)
    assert s.n_domains == 3
    assert len(s.train(1)) == 40 and len(s.test(1)) == 10
    # domain 1 is permuted like the others, and the pools keep their labels
    assert not np.array_equal(s.train(1).x, base.x)
    assert np.array_equal(s.train(1).y, base.y)
    assert np.array_equal(s.test(1).y, base_test.y)
    # distinct domains use distinct permutations
    assert not np.array_equal(s.train(1).x, s.train(2).x)


def test_permuted_stream_label_preservation_and_determinism():
    base, base_test = _toy_base(), _toy_base(n=8, seed=1)
    a = permuted_stream(base, 2, seed=5, base_test=base_test)
    b = permuted_stream(base, 2, seed=5, base_test=base_test)
    assert np.array_equal(a.train(2).x, b.train(2).x)
    sorted_a = np.sort(a.train(1).x, axis=1)
    assert np.allclose(sorted_a, np.sort(base.x, axis=1))


def _stream_or_error(make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except (ContractError, ConfigError) as err:
        return type(err), str(err)


@settings(max_examples=60, deadline=None)
@given(rotated=st.booleans(), side=st.integers(3, 7), square=st.booleans(),
       n_base=st.integers(0, 30), n_test=st.integers(0, 12),
       n_domains=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1),
       n_per=st.one_of(st.none(), st.integers(0, 35)),
       n_test_per=st.one_of(st.none(), st.integers(0, 15)),
       degrees=st.floats(0.5, 45.0))
# the errors, in their order: an empty base before a non-square one
@example(rotated=True, side=4, square=False, n_base=0, n_test=3, n_domains=2,
         seed=1, n_per=None, n_test_per=None, degrees=9.0)
@example(rotated=True, side=4, square=False, n_base=5, n_test=3, n_domains=2,
         seed=1, n_per=None, n_test_per=None, degrees=9.0)
@example(rotated=False, side=4, square=True, n_base=0, n_test=3, n_domains=2,
         seed=1, n_per=None, n_test_per=None, degrees=9.0)
def test_streams_match_per_dataset_reference(rotated, side, square, n_base,
                                             n_test, n_domains, seed, n_per,
                                             n_test_per, degrees):
    """The shared builder gives the bytes, ids, sizes and errors the two
    separate loops gave, with `n_per_domain`/`n_test_per_domain` unset,
    inside the pools or beyond them."""
    dim = side * side if square else side * side + 1
    rng = np.random.default_rng(seed)
    base = LabeledSet(rng.random((n_base, dim)), rng.integers(0, 4, n_base))
    base_test = LabeledSet(rng.random((n_test, dim)),
                           rng.integers(0, 4, n_test))
    args = (base, n_domains, seed)
    kwargs = dict(base_test=base_test, n_per_domain=n_per,
                  n_test_per_domain=n_test_per)
    if rotated:
        kwargs["degrees_per_domain"] = degrees
        got = _stream_or_error(rotated_stream, *args, **kwargs)
        want = _stream_or_error(ref.rotated_stream, *args, **kwargs)
    else:
        got = _stream_or_error(permuted_stream, *args, **kwargs)
        want = _stream_or_error(ref.permuted_stream, *args, **kwargs)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, DomainStream)
    assert (got.num_classes, got.input_dim, got.n_domains) == \
        (want.num_classes, want.input_dim, want.n_domains)
    for (g_tr, g_te), (w_tr, w_te) in zip(got.domains, want.domains):
        for g, w in ((g_tr, w_tr), (g_te, w_te)):
            assert g.domain_id == w.domain_id
            assert g.x.tobytes() == w.x.tobytes() and g.x.shape == w.x.shape
            assert g.y.tobytes() == w.y.tobytes()
    assert stream_fingerprint(got) == stream_fingerprint(want)


def test_import_does_not_load_scipy_ndimage():
    """scipy.ndimage costs about as much as the rest of `import dilkit`;
    only the rotated stream needs it, so importing the library must not
    load it."""
    src_root = str(Path(dilkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    code = ("import sys, dilkit.expcli, dilkit.trainer, dilkit.bounds; "
            "print('scipy.ndimage' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_rotate_zero_degrees_bit_exact():
    rng = np.random.default_rng(2)
    x = rng.random((3, 49))
    out = rotate_images(x, np.zeros(3), 7)
    assert np.array_equal(out, x)


def _disk_image(side=256, width=20.0):
    ctr = (side - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(side) - ctr, np.arange(side) - ctr,
                         indexing="ij")
    r2 = rr ** 2 + cc ** 2
    return np.exp(-r2 / (2.0 * width ** 2)).ravel()


@pytest.mark.parametrize("angle", [7.3, 13.0, 30.0, 45.0, 88.7, 181.4])
def test_rotation_mass_conservation_on_disk(angle):
    # Bilinear resampling conserves mass to 1e-6 only when the disk is
    # well-resolved: its quadratic interpolation error beats against the
    # rotated lattice, so a 28-px canvas plateaus near 1e-3.  256 px with a
    # 20-px radial width measured ~1e-7 worst-case over a dense angle sweep.
    img = _disk_image()
    rot = rotate_images(img[None, :], np.array([angle]), 256)[0]
    rel = abs(rot.sum() - img.sum()) / img.sum()
    assert rel <= 1e-6


def test_rotated_stream_angles_in_range():
    base, base_test = _toy_base(n=24, dim=25), _toy_base(n=6, dim=25, seed=1)
    s = rotated_stream(base, n_domains=3, seed=13, base_test=base_test)
    assert s.n_domains == 3
    for t in (1, 2, 3):
        # reproduce the angle substream exactly as rotated_stream consumes it
        rng_a = substream(13, "angles", t)
        n_tr, n_te = len(s.train(t)), len(s.test(t))
        lo = 9.0 * (t - 1)
        a_tr = rng_a.uniform(lo, lo + 9.0, size=n_tr)
        a_te = rng_a.uniform(lo, lo + 9.0, size=n_te)
        for a in (a_tr, a_te):
            assert np.all(a >= lo) and np.all(a < lo + 9.0)
        # and images are reproduced bit-exactly by the same draws
        assert np.array_equal(s.train(t).x, rotate_images(base.x, a_tr, 5))
        assert np.array_equal(s.test(t).x,
                              rotate_images(base_test.x, a_te, 5))


def test_rotated_stream_requires_square():
    base = _toy_base(n=10, dim=15)
    with pytest.raises(ConfigError):
        rotated_stream(base, 2, seed=1, base_test=base)


def test_stream_validation():
    a = LabeledSet(np.zeros((2, 3)), [0, 1], domain_id=1)
    b = LabeledSet(np.zeros((2, 3)), [0, 1], domain_id=3)
    with pytest.raises(ContractError):
        DomainStream([(a, a), (b, b)], num_classes=2, input_dim=3)


def test_labeled_set_validation():
    with pytest.raises(ContractError):
        LabeledSet(np.zeros((2, 3)), [0, 1, 2])
    with pytest.raises(ContractError):
        LabeledSet(np.zeros((2, 3)), [0, 1], domain_id=0)
