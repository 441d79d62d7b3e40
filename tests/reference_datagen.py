"""Test-only reference: `permuted_stream` and `rotated_stream` as they were
before they shared one builder, each with its own domain loop, its own
`apply_permutation` helper and the 80/20 split of `base` when no
`base_test` is given.  The differential test in test_datagen.py compares
the library's streams against these."""
from __future__ import annotations

import numpy as np

from dilkit.autodiff import ContractError
from dilkit.datagen import (TEST_FRACTION, ConfigError, DomainStream,
                            LabeledSet, rotate_images)
from dilkit.seeding import substream


def _split_80_20(x: np.ndarray, y: np.ndarray,
                 domain_id: int) -> tuple[LabeledSet, LabeledSet]:
    n = x.shape[0]
    n_train = n - int(round(n * TEST_FRACTION))
    return (LabeledSet(x[:n_train], y[:n_train], domain_id),
            LabeledSet(x[n_train:], y[n_train:], domain_id))


def apply_permutation(s: LabeledSet, perm: np.ndarray,
                      domain_id: int) -> LabeledSet:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (s.x.shape[1],):
        raise ConfigError("permutation length must equal input_dim")
    return LabeledSet(s.x[:, perm], s.y, domain_id)


def _base_splits(base: LabeledSet,
                 base_test: LabeledSet | None) -> tuple[LabeledSet, LabeledSet]:
    if base_test is not None:
        return base, base_test
    train, test = _split_80_20(base.x, base.y, base.domain_id)
    if len(train) == 0 or len(test) == 0:
        raise ConfigError("base set too small to split")
    return train, test


def _subsample(s: LabeledSet, n: int | None, rng: np.random.Generator) -> LabeledSet:
    if n is None or n >= len(s):
        return s
    idx = rng.choice(len(s), size=n, replace=False)
    return s.subset(np.sort(idx))


def permuted_stream(base: LabeledSet, n_domains: int, seed: int,
                    base_test: LabeledSet | None = None,
                    n_per_domain: int | None = None,
                    n_test_per_domain: int | None = None) -> DomainStream:
    if len(base) == 0:
        raise ContractError("base set is empty")
    tr0, te0 = _base_splits(base, base_test)
    k = int(base.y.max()) + 1
    domains = []
    for t in range(1, n_domains + 1):
        perm = substream(seed, "perm", t).permutation(base.x.shape[1])
        rng_s = substream(seed, "subsample", t)
        tr = _subsample(tr0, n_per_domain, rng_s)
        te = _subsample(te0, n_test_per_domain, rng_s)
        domains.append((apply_permutation(tr, perm, t),
                        apply_permutation(te, perm, t)))
    return DomainStream(domains, num_classes=k, input_dim=base.x.shape[1])


def rotated_stream(base: LabeledSet, n_domains: int, seed: int,
                   base_test: LabeledSet | None = None,
                   n_per_domain: int | None = None,
                   n_test_per_domain: int | None = None,
                   degrees_per_domain: float = 9.0) -> DomainStream:
    if len(base) == 0:
        raise ContractError("base set is empty")
    side = int(round(np.sqrt(base.x.shape[1])))
    if side * side != base.x.shape[1]:
        raise ConfigError("rotated stream requires square images")
    tr0, te0 = _base_splits(base, base_test)
    k = int(base.y.max()) + 1
    domains = []
    for t in range(1, n_domains + 1):
        rng_s = substream(seed, "subsample", t)
        tr = _subsample(tr0, n_per_domain, rng_s)
        te = _subsample(te0, n_test_per_domain, rng_s)
        rng_a = substream(seed, "angles", t)
        lo = degrees_per_domain * (t - 1)
        pair = []
        for s in (tr, te):
            angles = rng_a.uniform(lo, lo + degrees_per_domain, size=len(s))
            pair.append(LabeledSet(rotate_images(s.x, angles, side), s.y, t))
        domains.append((pair[0], pair[1]))
    return DomainStream(domains, num_classes=k, input_dim=base.x.shape[1])
