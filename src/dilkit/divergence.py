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
from .losses import StepLayout
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
        if not ((arr == 0) | (arr == 1)).all():
            raise ContractError("labelings must be 0/1")
        object.__setattr__(self, "labelings", arr)

    @property
    def n_hypotheses(self) -> int:
        return self.labelings.shape[0]

    @property
    def n_points(self) -> int:
        return self.labelings.shape[1]


def _as_sample(sample, n_points: int, name: str) -> np.ndarray:
    idx = np.array(sample, dtype=np.int64).ravel()
    if idx.size == 0 or idx.min() < 0 or idx.max() >= n_points:
        raise ContractError(f"{name} must be nonempty and in the ground set")
    return idx


def _pairwise_disagreement(labelings: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """[m, m] matrix of empirical P[h != h'] over the sample idx.

    For 0/1 labels, 1[a != b] = a + b - 2ab, so the whole matrix reduces to
    row sums and one Gram product over the sampled columns, combined in
    place: until the division every entry is a small integer, so exact.
    """
    sub = labelings[:, idx].astype(np.float64)
    cnt = sub.sum(axis=1)
    dis = sub @ (-2.0 * sub.T)
    dis += cnt[:, None]
    dis += cnt[None, :]
    return np.divide(dis, idx.size, out=dis)


def _hdh(dis_p: np.ndarray, dis_q: np.ndarray) -> float:
    """2 * max |dis_p - dis_q| over two samples' disagreement matrices."""
    diff = np.subtract(dis_p, dis_q)
    return 2.0 * np.abs(diff, out=diff).max()


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


def discriminator_divergences(probs: np.ndarray,
                              layout: StepLayout) -> np.ndarray:
    """Discriminator-based divergence estimate for every past domain.

    ``probs`` is the discriminator's [n, t] output over one stacked batch
    laid out as ``layout`` says: the current domain t's rows first, then
    each past domain's.  With delta(x) = p_i(x) - p_t(x) for past domain i,
    the discriminator's balanced pairwise accuracy is
    b = 1/2 * [frac of domain i's rows with delta >= 0
               + frac of current rows with delta < 0],
    and the estimate is clamp(2 * (2b - 1), 0, 2): 0 when the discriminator
    does no better than chance, 2 when it separates the domains perfectly.
    """
    sizes, t = layout.sizes, layout.t
    if not layout.full:
        raise ContractError("every segment must be nonempty")
    if probs.shape[1] != t:
        raise ContractError(f"discriminator arity {probs.shape[1]} != t={t}")
    # delta >= 0 exactly when p_i >= p_t; a past row's i is its V_d class.
    # By class, [t, n]: contiguous when probs is a softmax_parts' pt.T
    n_cur, by_class = sizes[0], probs.T
    last = by_class[t - 1]
    hits = by_class.take(layout.past_cells) >= last[n_cur:]
    cur_hits = np.add.reduce(by_class.take(layout.cur_cells) < last[:n_cur],
                             axis=1, dtype=np.intp)
    # b = (x + y) / 2 with x, y in [0, 1], so 2b is x + y exactly and
    # 2 * (2b - 1) is 2 * (x + y - 1), never -0.0: clamped as np.clip does
    d = np.bincount(layout.past_seg, hits, len(layout.ids)) / sizes[1:]
    d += cur_hits / n_cur
    d -= 1.0
    d *= 2.0
    np.maximum(d, 0.0, out=d)
    return np.minimum(d, 2.0, out=d)


def hdh_discriminator_estimate(d: Mlp, encoder: Mlp, current_x: np.ndarray,
                               past_x: np.ndarray, past_index: int) -> float:
    """The divergence estimate for one past domain (see
    discriminator_divergences), from one forward over the two stacked
    samples; ``past_index`` must be in [1, t - 1] for a discriminator of
    arity t."""
    if np.shape(current_x)[1:] != np.shape(past_x)[1:]:
        raise ContractError("current and past samples must have one width")
    x = np.concatenate([current_x, past_x])
    probs = softmax(d.logits(encoder.logits(x)))
    layout = StepLayout([len(current_x), len(past_x)], [past_index],
                        probs.shape[1])
    return float(discriminator_divergences(probs, layout)[0])
