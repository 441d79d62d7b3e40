"""Domain-stream construction: HD-Balls synthesis, IDX ingestion, and the
pixel-permutation / rotation domain transforms."""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError
from .models import Range
from .seeding import substream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
TEST_FRACTION = 0.2  # the last fifth of each hd-balls domain is held out
HD_BALLS_DIM, HD_BALLS_SIGMA = Range(2), Range(0, above=True)
HD_BALLS_POINTS = Range(5)  # fewer points degenerate the 80/20 split


class FormatError(ValueError):
    """Malformed input file."""


class ConfigError(ValueError):
    """Invalid configuration value; `field`, when set, names the setting."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass
class LabeledSet:
    x: np.ndarray  # [N, n] float64
    y: np.ndarray  # [N] int64 class ids in [0, K)
    domain_id: int = 1

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ContractError("inputs must be [N, n]")
        if self.x.shape[0] != self.y.shape[0]:
            raise ContractError("inputs row count must equal labels length")
        if self.domain_id < 1:
            raise ContractError("domain_id must be >= 1")
        if len(self.y) and self.y.min() < 0:
            raise ContractError("labels must be nonnegative")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, idx: np.ndarray, domain_id: int | None = None) -> "LabeledSet":
        return LabeledSet(self.x[idx], self.y[idx],
                          self.domain_id if domain_id is None else domain_id)


@dataclass
class DomainStream:
    domains: list[tuple[LabeledSet, LabeledSet]]  # (train, test) per domain
    num_classes: int
    input_dim: int

    def __post_init__(self):
        for t, (tr, te) in enumerate(self.domains, start=1):
            if tr.domain_id != t or te.domain_id != t:
                raise ContractError("domain_ids must be 1..T consecutive")
            for s in (tr, te):
                if s.x.shape[1] != self.input_dim:
                    raise ContractError("all domains must share input_dim")
                if len(s.y) and s.y.max() >= self.num_classes:
                    raise ContractError("labels must lie in [0, num_classes)")

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def train(self, t: int) -> LabeledSet:
        return self.domains[t - 1][0]

    def test(self, t: int) -> LabeledSet:
        return self.domains[t - 1][1]


def gen_hd_balls(seed: int, n_domains: int, n_per_domain: int, dim: int,
                 sigma: float) -> DomainStream:
    """Per domain: mean mu uniform on the unit sphere, x ~ N(mu, sigma^2 I),
    y = 1 iff <x, mu> > 1 (tangent hyperplane with normal mu; ties -> 0)."""
    HD_BALLS_DIM.check("hd-balls dim", dim, ConfigError)
    HD_BALLS_SIGMA.check("hd-balls sigma", sigma, ConfigError)
    HD_BALLS_POINTS.check("hd-balls n_per_domain", n_per_domain, ConfigError)
    n_train = n_per_domain - int(round(n_per_domain * TEST_FRACTION))
    domains = []
    for t in range(1, n_domains + 1):
        rng = substream(seed, "data", t)
        g = rng.normal(size=dim)
        mu = g / np.linalg.norm(g)
        x = mu + sigma * rng.normal(size=(n_per_domain, dim))
        y = (x @ mu > 1.0).astype(np.int64)
        domains.append((LabeledSet(x[:n_train], y[:n_train], t),
                        LabeledSet(x[n_train:], y[n_train:], t)))
    return DomainStream(domains, num_classes=2, input_dim=dim)


def _read_idx(path: str, expect_magic: int) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expect_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    n_dims = magic & 0xFF
    header = 4 + 4 * n_dims
    if len(raw) < header:
        raise FormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{n_dims}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) - header != count:
        raise FormatError(
            f"{path}: payload has {len(raw) - header} bytes, expected {count}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> LabeledSet:
    """Big-endian IDX pair -> LabeledSet with pixels scaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}")
    if images.shape[0] == 0:
        raise FormatError(f"{images_path}: holds no image")
    if labels.size and not (0 <= labels.min() and labels.max() < 10):
        raise FormatError("labels outside [0, 10)")
    x = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return LabeledSet(x, labels.astype(np.int64))


def rotate_images(x: np.ndarray, angles_deg: np.ndarray, side: int) -> np.ndarray:
    """Rotate each flattened side*side image about its center by its own
    angle; bilinear interpolation, out-of-frame pixels zero."""
    # imported here, not at module level: scipy.ndimage doubles the time of
    # `import dilkit`, and only the rotated stream needs it
    from scipy.ndimage import map_coordinates
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    ctr = (side - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(side) - ctr, np.arange(side) - ctr,
                         indexing="ij")
    out = np.empty_like(x)
    for k in range(n):
        th = np.deg2rad(angles_deg[k])
        cos_t, sin_t = np.cos(th), np.sin(th)
        # output pixel p maps back to R(-theta) p in the source image
        src_r = cos_t * rr + sin_t * cc + ctr
        src_c = -sin_t * rr + cos_t * cc + ctr
        img = x[k].reshape(side, side)
        out[k] = map_coordinates(img, [src_r, src_c], order=1,
                                 mode="constant", cval=0.0).ravel()
    return out


def _subsample(s: LabeledSet, n: int | None, rng: np.random.Generator) -> LabeledSet:
    if n is None or n >= len(s):
        return s
    idx = rng.choice(len(s), size=n, replace=False)
    return s.subset(np.sort(idx))


def _digit_stream(base: LabeledSet, base_test: LabeledSet, n_domains: int,
                  seed: int, n_per_domain: int | None,
                  n_test_per_domain: int | None, transform) -> DomainStream:
    """Domain t draws its train and test rows from the base pools with its
    own "subsample" substream, then `transform(t, (train_x, test_x))`
    returns the domain's inputs, train first."""
    k = int(base.y.max()) + 1
    domains = []
    for t in range(1, n_domains + 1):
        rng = substream(seed, "subsample", t)
        tr = _subsample(base, n_per_domain, rng)
        te = _subsample(base_test, n_test_per_domain, rng)
        x_tr, x_te = transform(t, (tr.x, te.x))
        domains.append((LabeledSet(x_tr, tr.y, t), LabeledSet(x_te, te.y, t)))
    return DomainStream(domains, num_classes=k, input_dim=base.x.shape[1])


def permuted_stream(base: LabeledSet, n_domains: int, seed: int,
                    base_test: LabeledSet,
                    n_per_domain: int | None = None,
                    n_test_per_domain: int | None = None) -> DomainStream:
    """Each domain applies its own fixed random pixel permutation (domain 1
    included) to the same base train/test pools."""
    if len(base) == 0:
        raise ContractError("base set is empty")

    def permute(t, xs):
        perm = substream(seed, "perm", t).permutation(base.x.shape[1])
        return [x[:, perm] for x in xs]

    return _digit_stream(base, base_test, n_domains, seed, n_per_domain,
                         n_test_per_domain, permute)


def rotated_stream(base: LabeledSet, n_domains: int, seed: int,
                   base_test: LabeledSet,
                   n_per_domain: int | None = None,
                   n_test_per_domain: int | None = None,
                   degrees_per_domain: float = 9.0) -> DomainStream:
    """Domain t rotates each image by its own angle drawn uniformly from
    [degrees_per_domain*(t-1), degrees_per_domain*t)."""
    if len(base) == 0:
        raise ContractError("base set is empty")
    side = int(round(np.sqrt(base.x.shape[1])))
    if side * side != base.x.shape[1]:
        raise ConfigError("rotated stream requires square images")

    def rotate(t, xs):
        rng = substream(seed, "angles", t)
        lo = degrees_per_domain * (t - 1)
        out = []
        for x in xs:
            angles = rng.uniform(lo, lo + degrees_per_domain, size=len(x))
            out.append(rotate_images(x, angles, side))
        return out

    return _digit_stream(base, base_test, n_domains, seed, n_per_domain,
                         n_test_per_domain, rotate)
