"""Accuracy-matrix bookkeeping and sequential-evaluation metrics."""
from __future__ import annotations

import numpy as np

from .autodiff import ContractError
from .datagen import LabeledSet
from .losses import erm01


def accuracy(classifier, test_set: LabeledSet) -> float:
    """Fraction of correct argmax predictions on a labeled set."""
    return 1.0 - erm01(classifier, test_set)


class AccuracyMatrix:
    """R[i][j] = accuracy on domain j's test split after training domain i.

    1-based indices.  The lower triangle (j <= i) is filled as training
    progresses; the superdiagonal (j = i + 1) is filled by evaluating on the
    upcoming domain immediately before training on it, which forward
    transfer needs.  Entries further above the diagonal are never defined.
    Unset entries are NaN.
    """

    def __init__(self, n_domains: int):
        if n_domains < 1:
            raise ContractError("n_domains must be >= 1")
        self.n_domains = n_domains
        self._r = np.full((n_domains, n_domains), np.nan)

    def _check_index(self, i: int, j: int) -> None:
        if not (1 <= i <= self.n_domains and 1 <= j <= self.n_domains):
            raise ContractError(f"index ({i},{j}) outside 1..{self.n_domains}")

    def set(self, i: int, j: int, value: float) -> None:
        self._check_index(i, j)
        if j > i + 1:
            raise ContractError(
                f"entry ({i},{j}) is above the superdiagonal and never measured")
        if not 0.0 <= value <= 1.0:
            raise ContractError(f"accuracy {value} outside [0,1]")
        self._r[i - 1, j - 1] = value

    def get(self, i: int, j: int) -> float:
        self._check_index(i, j)
        v = self._r[i - 1, j - 1]
        if np.isnan(v):
            raise ContractError(f"entry ({i},{j}) not populated")
        return float(v)

    def to_lists(self) -> list[list[float | None]]:
        return [[None if np.isnan(v) else float(v) for v in row]
                for row in self._r]

    @classmethod
    def from_lists(cls, rows: list[list[float | None]]) -> "AccuracyMatrix":
        mat = cls(len(rows))
        for i, row in enumerate(rows, start=1):
            if len(row) != mat.n_domains:
                raise ContractError("accuracy matrix rows must be square")
            for j, v in enumerate(row, start=1):
                if v is not None:
                    mat.set(i, j, v)
        return mat


def avg_acc(mat: AccuracyMatrix, t: int) -> float:
    """Mean accuracy over domains 1..t after training domain t."""
    return float(np.mean([mat.get(t, j) for j in range(1, t + 1)]))


def avg_of_avg(mat: AccuracyMatrix, t1: int, t2: int) -> float:
    """Mean of avg_acc(t) for t in t1..t2 inclusive."""
    if not 1 <= t1 <= t2 <= mat.n_domains:
        raise ContractError(f"bad range [{t1},{t2}]")
    return float(np.mean([avg_acc(mat, t) for t in range(t1, t2 + 1)]))


def forgetting(mat: AccuracyMatrix, t: int) -> float:
    """Mean over past domains of the worst accuracy drop from any earlier
    checkpoint: (1/(t-1)) * sum_j max_{l<t} (R[l][j] - R[t][j])."""
    if t < 2:
        raise ContractError("forgetting is undefined at t=1")
    drops = []
    for j in range(1, t):
        best = max(mat.get(l, j) for l in range(j, t))
        drops.append(best - mat.get(t, j))
    return float(np.mean(drops))


def forward_transfer(mat: AccuracyMatrix, r_baseline, t: int) -> float:
    """Mean lift of pre-training accuracy over a fresh-init baseline:
    (1/(t-1)) * sum_{i=2..t} (R[i-1][i] - r_baseline[i-1]).

    r_baseline[i-1] is the fresh-model accuracy on domain i's test split.
    """
    if t < 2:
        raise ContractError("forward transfer is undefined at t=1")
    r = np.asarray(r_baseline, dtype=np.float64)
    if r.ndim != 1 or r.size < t:
        raise ContractError(f"baseline must cover domains 1..{t}")
    lifts = [mat.get(i - 1, i) - r[i - 1] for i in range(2, t + 1)]
    return float(np.mean(lifts))
