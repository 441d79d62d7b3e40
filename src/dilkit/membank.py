"""Capacity-bounded exemplar memory with per-domain buckets.

Maintenance re-partitions capacity exactly: after t domains the quotas are
floor(|M|/t) or ceil(|M|/t), with the larger quotas going to the lower
domain ids, so any two bucket sizes differ by at most one.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError
from .datagen import LabeledSet
from .models import Range, Ranged
from .seeding import substream

log = logging.getLogger(__name__)


def quotas(capacity: int, t: int) -> list[int]:
    base, extra = divmod(capacity, t)
    return [base + 1 if i < extra else base for i in range(t)]


@dataclass
class MemoryBank(Ranged):
    capacity: int = Range(1).field()
    buckets: dict[int, LabeledSet] = field(default_factory=dict)
    shortfalls: dict[int, int] = field(default_factory=dict)

    def sizes(self) -> dict[int, int]:
        return {i: len(b) for i, b in self.buckets.items()}

    def total(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def update_after_domain(self, current: LabeledSet, t: int, seed: int) -> None:
        """Shrink old buckets to their new quotas (uniform eviction) and fill
        bucket t from `current` (uniform draw without replacement)."""
        if t != len(self.buckets) + 1:
            raise ContractError(
                f"update_after_domain expects t={len(self.buckets) + 1}, got {t}")
        q = quotas(self.capacity, t)
        rng = substream(seed, "membank", t)
        for i in range(1, t):
            bucket = self.buckets[i]
            want = q[i - 1]
            if len(bucket) > want:
                keep = np.sort(rng.choice(len(bucket), size=want, replace=False))
                self.buckets[i] = bucket.subset(keep)
        want_t = q[t - 1]
        if len(current) < want_t:
            self.shortfalls[t] = want_t - len(current)
            log.warning("domain %d supplies %d exemplars, quota %d",
                        t, len(current), want_t)
            take = np.arange(len(current))
        else:
            take = np.sort(rng.choice(len(current), size=want_t, replace=False))
        self.buckets[t] = current.subset(take, domain_id=t)

    def sample_past(self, per_domain_batch: int,
                    rng: np.random.Generator) -> dict[int, np.ndarray]:
        """Row indices of a uniform without-replacement minibatch of every
        stored bucket, by domain id in sorted order."""
        return {i: rng.choice(len(b), size=min(per_domain_batch, len(b)),
                              replace=False) for i, b in sorted(self.buckets.items())}
