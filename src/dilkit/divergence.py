"""Domain-discrepancy estimators.

Two routes to the same quantity: an exact brute-force computation over an
explicitly enumerated finite hypothesis class (used for verification), and
the discriminator-based empirical estimate used during training, read off
one discriminator pass over a stacked batch for every past domain at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, softmax
from .models import Mlp


@dataclass(frozen=True)
class FiniteHypothesisClass:
    """Explicit binary labelings over a fixed finite ground set.

    ``labelings[k, i]`` is hypothesis k's 0/1 label for ground-set point i.
    """

    labelings: np.ndarray

    def __post_init__(self):
        arr = np.array(self.labelings, dtype=np.int8)
        arr.flags.writeable = False  # BoundInstance caches terms built from it
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ContractError("labelings must be a nonempty 2-D array")
        if not np.isin(arr, (0, 1)).all():
            raise ContractError("labelings must be 0/1")
        object.__setattr__(self, "labelings", arr)

    @property
    def n_hypotheses(self) -> int:
        return self.labelings.shape[0]

    @property
    def n_points(self) -> int:
        return self.labelings.shape[1]


def threshold_class(points_1d: np.ndarray) -> FiniteHypothesisClass:
    """Threshold functions h_c(x) = 1[x >= c] over a 1-D ground set.

    One labeling per distinct cut position of the sorted points (n+1 rows).
    """
    pts = np.asarray(points_1d, dtype=np.float64).ravel()
    if pts.size == 0:
        raise ContractError("ground set must be nonempty")
    order = np.argsort(pts, kind="stable")
    n = pts.size
    rows = np.zeros((n + 1, n), dtype=np.int8)
    for k in range(n + 1):
        rows[k, order[k:]] = 1
    return FiniteHypothesisClass(rows)


def _as_sample(sample, n_points: int, name: str) -> np.ndarray:
    idx = np.array(sample, dtype=np.int64).ravel()
    if idx.size == 0 or idx.min() < 0 or idx.max() >= n_points:
        raise ContractError(f"{name} must be nonempty and in the ground set")
    return idx


def _pairwise_disagreement(labelings: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """[m, m] matrix of empirical P[h != h'] over the sample idx.

    For 0/1 labels, 1[a != b] = a + b - 2ab, so the whole matrix reduces to
    row sums and one Gram product over the sampled columns.
    """
    sub = labelings[:, idx].astype(np.float64)
    cnt = sub.sum(axis=1)
    gram = sub @ sub.T
    return (cnt[:, None] + cnt[None, :] - 2.0 * gram) / idx.size


def _hdh(dis_p: np.ndarray, dis_q: np.ndarray) -> float:
    """2 * max |dis_p - dis_q| over two samples' disagreement matrices."""
    return 2.0 * np.max(np.abs(dis_p - dis_q))


def hdh_exact(hclass: FiniteHypothesisClass, sample_p, sample_q) -> float:
    """Exact symmetric-difference divergence between two empirical samples.

    2 * max over hypothesis pairs (h, h') of
    |P_hat[h != h'] - Q_hat[h != h']|, by exhaustive pair enumeration.
    Samples are index multisets into the ground set.
    """
    sp = _as_sample(sample_p, hclass.n_points, "sample_P")
    sq = _as_sample(sample_q, hclass.n_points, "sample_Q")
    return float(_hdh(_pairwise_disagreement(hclass.labelings, sp),
                      _pairwise_disagreement(hclass.labelings, sq)))


def discriminator_divergences(probs: np.ndarray, bounds,
                               past_ids) -> np.ndarray:
    """Discriminator-based divergence estimate for every past domain.

    ``probs`` is the discriminator's [n, t] output over one stacked batch
    whose segment k is rows bounds[k]:bounds[k+1]: the current domain t's
    rows first, then domain past_ids[k-1]'s.  With delta(x) = p_i(x) - p_t(x)
    for past domain i, the discriminator's balanced pairwise accuracy is
    b = 1/2 * [frac of domain i's rows with delta >= 0
               + frac of current rows with delta < 0],
    and the estimate is clamp(2 * (2b - 1), 0, 2): 0 when the discriminator
    does no better than chance, 2 when it separates the domains perfectly.
    """
    ids = np.asarray(past_ids, dtype=np.int64)
    sizes = np.diff(bounds)
    t = probs.shape[1]
    if sizes.size != ids.size + 1 or (sizes < 1).any():
        raise ContractError("every segment must be nonempty")
    if ((ids < 1) | (ids > t - 1)).any():
        raise ContractError(
            f"past domain ids must be in [1, {t - 1}], got {ids.tolist()}")
    delta = probs[:, ids - 1] - probs[:, [t - 1]]          # [n, len(ids)]
    n_cur = sizes[0]
    seg = np.repeat(np.arange(ids.size), sizes[1:])       # past rows' segment
    past_hits = delta[np.arange(n_cur, len(probs)), seg] >= 0
    b = 0.5 * (np.bincount(seg, past_hits, ids.size) / sizes[1:]
               + np.mean(delta[:n_cur] < 0, axis=0))
    return np.clip(2.0 * (2.0 * b - 1.0), 0.0, 2.0)


def hdh_discriminator_estimate(d: Mlp, encoder: Mlp, current_x: np.ndarray,
                               past_x: np.ndarray, past_index: int) -> float:
    """The divergence estimate for one past domain (see
    discriminator_divergences), from one forward over the two stacked
    samples; ``past_index`` must be in [1, t - 1] for a discriminator of
    arity t."""
    if np.shape(current_x)[1:] != np.shape(past_x)[1:]:
        raise ContractError("current and past samples must have one width")
    x = np.concatenate([current_x, past_x])
    probs = softmax(d.logits(encoder.logits(x))).data
    return float(discriminator_divergences(
        probs, [0, len(current_x), len(x)], [past_index])[0])
