"""Training losses: cross-entropy classification, 0-1 risks and the terms of
the replay objective, one function each: the model loss V_l, the coefficient
loss V_01, the domain discrimination loss V_d and the opt-in encoder losses
V_p / V_s.  V_l, V_d, V_p and V_s read a step's record (`StepBatch`) and
the passes the step ran once over its rows; none runs a network, and none
re-derives what a domain's records share (`StepLayout`).  The teacher whose
probabilities and embedding they read is the model as the previous domain
left it, run once over the domain's rows before its first step.  Each
returns its value and its gradient in closed form, on the logits
(cross-entropy, V_l, V_d), the triples (V_01) or the embedding (V_p, V_s).
On a record of one segment, with no past domain, V_l is the mean
cross-entropy `classification_loss`, bit for bit: no training step calls
the latter, which the acceptance gates, the tests and perfbench keep."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .autodiff import ContractError, Softmax, xent
from .datagen import LabeledSet
from .models import Range, Ranged

log = logging.getLogger(__name__)
N_NEGATIVES = 8  # V_s negatives drawn per anchor in training


@dataclass
class HyperParams(Ranged):
    lambda_d: float = Range(0).field(1.0)   # domain-alignment strength
    c_gen: float = Range(0).field(1.0)      # generalization-effect scalar in V_01
    lambda_p: float = Range(0).field(0.0)   # past-embedding distillation weight
    lambda_s: float = Range(0).field(0.0)   # supervised contrastive weight


def classification_loss(logits: np.ndarray, y: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy -log p(true class) of the [n, k] `logits` toward
    the labels y: its value and its gradient on the logits."""
    if len(y) == 0:
        raise ContractError("classification_loss: empty batch")
    return xent(logits, _one_hot(y, logits.shape[1], 1.0 / len(y)), None, 1.0)


def erm01(h, labeled_set: LabeledSet) -> float:
    """Fraction of argmax-misclassified points (nondifferentiable)."""
    if len(labeled_set) == 0:
        raise ContractError("erm01: empty set")
    return float(np.mean(h.predict(labeled_set.x) != labeled_set.y))


def _check_omega(omega: np.ndarray, ids) -> np.ndarray:
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[1] != 3 or omega.shape[0] != len(ids):
        raise ContractError(
            f"omega must be [t-1, 3] matching {len(ids)} past domains")
    return omega


class StepLayout:
    """The segments every step record of a domain shares, derived and
    checked once: segment k holds sizes[k] rows, from domain t for k = 0 and
    from domain ids[k - 1] after; `seg` maps each row to its segment and
    `domain_class` to the class V_d asks of it (t - 1, or i - 1 on domain
    i's); in [n, t], `class_slot` holds each row's segment at that class
    and len(sizes), one past the last segment, elsewhere.  The divergence
    estimate reads, by flat index into [t, n] (by class), each past row's
    class cell (`past_cells`) and each current row's cell at each past
    domain's class (`cur_cells`, [t - 1, n_0]), and counts the past rows by
    segment, less one (`past_seg`); `starts` is where each segment starts
    and `miss` the [2, n] misses the coefficient statistics write on every
    step."""

    def __init__(self, sizes, ids, t: int):
        self.ids, self.t = tuple(ids), t
        raw = np.asarray(sizes)
        if raw.shape != (len(self.ids) + 1,) or not all(
                0 < i < t for i in self.ids):
            raise ContractError(f"past domain ids must be in [1, {t - 1}], one "
                                f"size per segment: got {self.ids}, {list(sizes)}")
        if raw.dtype.kind not in "iu" or (raw < 0).any():
            raise ContractError(f"segment sizes must be non-negative integers, "
                                f"got {list(sizes)}")
        self.sizes = raw.astype(np.int64)
        self.bounds = np.concatenate([[0], np.cumsum(self.sizes)])
        self.full = bool((self.sizes > 0).all())  # then no weight needs a check
        self.denom = np.maximum(self.sizes, 1)
        self.seg = np.repeat(np.arange(len(self.sizes)), self.sizes)
        self.domain_class = np.array([t - 1] + [i - 1 for i in self.ids])[self.seg]
        self.class_slot = np.where(self.domain_class[:, None] == np.arange(t),
                                   self.seg[:, None], len(self.sizes))
        n_cur, n = self.sizes[0], len(self.seg)
        self.past_seg = self.seg[n_cur:] - 1
        self.past_cells = self.domain_class[n_cur:] * n + np.arange(n_cur, n)
        self.cur_cells = ((np.array(self.ids, dtype=np.int64)[:, None] - 1) * n
                          + np.arange(n_cur))
        self.starts = self.bounds[:-1]
        self.miss = np.empty((2, n), dtype=bool)

    def row_weights(self, seg_w: np.ndarray) -> np.ndarray:
        """Segment k's weight divided by its size, on each of its rows."""
        return (seg_w / self.denom).take(self.seg)

    def check_weighted(self, seg_w: np.ndarray, term: str) -> None:
        """Raise when a segment with no row carries weight."""
        if not self.full and np.any((self.sizes == 0) & (seg_w != 0.0)):
            raise ContractError(f"{term}: empty batch")


@dataclass(frozen=True)
class StepBatch:
    """A step's rows, laid out as `layout` says: domain t's batch, then
    each past domain's in sorted order.  Every step of a domain shares
    one layout; only x and y are gathered per step."""
    x: np.ndarray
    y: np.ndarray
    layout: StepLayout

    @classmethod
    def stack(cls, current: LabeledSet, past: dict[int, LabeledSet]) -> StepBatch:
        """`current` (from domain t, its domain_id), then each set of `past`;
        with no past set, `current`'s own arrays, which no step writes to."""
        sets = [current] + [past[i] for i in sorted(past)]
        join = np.concatenate if past else (lambda arrays: arrays[0])
        return cls(join([s.x for s in sets]), join([s.y for s in sets]),
                   StepLayout([len(s) for s in sets], sorted(past), current.domain_id))


def _one_hot(y: np.ndarray, k: int, row_w) -> np.ndarray:
    """[n, k] target holding row i's weight at column y[i], zeros elsewhere."""
    target = np.zeros((len(y), k))
    target[np.arange(len(y)), y] = row_w
    return target


def v_l(batch: StepBatch, omega: np.ndarray, logits: np.ndarray,
        teacher_probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Model loss from the student's `logits` and the frozen teacher's
    softmax `teacher_probs` on the record's rows: CE + (sum beta) * distill
    on the current batch, plus per past domain gamma_i * CE + alpha_i *
    distill on its memory batch.  Per row the target is w_ce * onehot(y) +
    w_distill * teacher_probs, with (w_ce, w_distill) = (1, sum beta) / n_0
    on current rows and (gamma_i, alpha_i) / n_i on domain i's; the loss is
    the cross-entropy `xent(logits, target)`.  Coefficients enter as
    constants.  Returns the value and its gradient on the logits."""
    layout = batch.layout
    omega = _check_omega(omega, layout.ids)
    seg_w = np.empty((2, len(layout.sizes)))  # rows w_ce, w_distill
    seg_w[0, 0], seg_w[1, 0] = 1.0, np.add.reduce(omega[:, 1])
    seg_w[:, 1:] = omega[:, 2::-2].T  # gamma_i, alpha_i
    layout.check_weighted(seg_w[0], "v_l")
    seg_w /= layout.denom
    row_w = seg_w.take(layout.seg, axis=1)
    ce_w, distill_w = row_w[0], row_w[1]
    k = logits.shape[1]
    target = _one_hot(batch.y, k, ce_w)
    if np.count_nonzero(distill_w):
        if teacher_probs.shape[1] != k:
            raise ContractError(f"v_l: distillation arity mismatch: teacher "
                                f"{teacher_probs.shape[1]} vs student {k}")
        # a row of weight 0 adds 0 * p = +0.0 (p a finite probability): unchanged
        target += distill_w[:, None] * teacher_probs
    return xent(logits, target, None, 1.0)


@dataclass
class CoeffStats:
    """0-1 statistics entering V_01, all constants w.r.t. the coefficients,
    and the sample counts its radical reads.  Arrays are indexed by
    past-domain position (domain i at index i-1); `counts` holds N_t first,
    then N_i per memory bucket."""
    eps_replay: np.ndarray   # eps_i(h) on memory batches
    eps_intra: np.ndarray    # eps_i(h, H) on memory batches
    eps_cross: float         # eps_t(h, H) on the current batch
    dhat: np.ndarray         # discriminator divergence estimates
    eps_hist: np.ndarray     # cached eps_i(H) on memory buckets
    counts: np.ndarray       # N_t, then N_i per memory bucket

    def __post_init__(self):
        n = len(self.eps_replay)
        for name in ("eps_intra", "dhat", "eps_hist"):
            if len(getattr(self, name)) != n:
                raise ContractError(f"CoeffStats.{name} length mismatch")
        self.counts = np.asarray(self.counts, dtype=np.float64)
        # negated, so that a NaN count, false in every comparison, fails it
        if self.counts.shape != (n + 1,) or not self.counts.min() > 0:
            raise ContractError(f"CoeffStats.counts must hold {n + 1} positive "
                                f"sample counts, got {self.counts.tolist()}")

    def weights(self) -> np.ndarray:
        """[t-1, 3] weights of the bound's linear part: row i weighs
        (alpha_i, beta_i, gamma_i) by (eps_intra_i + eps_hist_i,
        eps_cross + dhat_i / 2 + eps_hist_i, eps_replay_i)."""
        w = np.empty((len(self.eps_replay), 3))
        np.add(self.eps_intra, self.eps_hist, out=w[:, 0])
        np.add(self.eps_cross + 0.5 * self.dhat, self.eps_hist, out=w[:, 1])
        w[:, 2] = self.eps_replay
        return w


def radical_terms(omega: np.ndarray) -> np.ndarray:
    """V_01's radical is sqrt(sum(v * v * (1 / counts))) over the [t-1, 3]
    triples omega (row i is (alpha_i, beta_i, gamma_i)) and the stats'
    counts (N_t, N_i); this builds v = (1 + sum beta, alpha_i + gamma_i)."""
    v = np.empty(len(omega) + 1)
    v[0] = 1.0 + np.add.reduce(omega[:, 1])
    np.add(omega[:, 0], omega[:, 2], out=v[1:])
    return v


def v_01(omega: np.ndarray, stats: CoeffStats,
         c_gen: float) -> tuple[float, np.ndarray]:
    """Coefficient loss: the 0-1 surrogate bound evaluated at the [t-1, 3]
    triples `omega`, UDIL's softmax(logits) or a preset's array.  With
    W = stats.weights(), v as radical_terms builds it and w = 1 / counts,
    it is sum(omega * W) + c_gen * sqrt(R), R = sum(v * v * w).  Returns
    the value and its [t-1, 3] gradient on omega, in closed form: row i of
    the gradient is W_i + c_gen / sqrt(R) * (w_i v_i, w_0 v_0, w_i v_i)."""
    n_past = omega.shape[0]
    if len(stats.eps_replay) != n_past:
        raise ContractError(
            f"v_01: the simplex has {n_past} past domains, the stats "
            f"{len(stats.eps_replay)}")
    weights = stats.weights()
    v, w = radical_terms(omega), 1.0 / stats.counts
    rad = np.sqrt(np.add.reduce(v * v * w))
    value = float(np.add.reduce(omega * weights, axis=None) + rad * c_gen)
    # d(w * v * v)/dv in two halves, as the tests' selection-matrix
    # composition sums it: given equal v, the gradients are equal
    half = c_gen * 0.5 / rad * w * v
    dv = half + half
    weights[:, ::2] += dv[1:, None]  # the gradient, in place: W + (dv_i, dv_0, dv_i)
    weights[:, 1] += dv[0]
    return value, weights


def v_d(batch: StepBatch, omega: np.ndarray, logits: np.ndarray,
        scale: float, parts: Softmax | None) -> tuple[float, np.ndarray] | None:
    """Domain discrimination loss from the discriminator's `logits` on the
    record's rows (and their `softmax_parts`, when the caller took it):
    (sum beta_i) * CE(current rows -> class t)
    + sum_i beta_i * CE(domain i's rows -> class i).  Current rows have
    weight (sum beta_i) / n_0 and domain i's rows beta_i / n_i.  Returns
    the value and the logits gradient of `scale` * V_d, or None with no
    beta mass: the loss is then the constant 0."""
    layout = batch.layout
    if not layout.ids:
        return None
    omega = _check_omega(omega, layout.ids)
    seg_w = np.zeros(len(layout.sizes) + 1)  # the last slot: off-class cells'
    seg_w[1:-1] = omega[:, 1]
    seg_w[0] = np.add.reduce(seg_w[1:-1])
    if seg_w[0] == 0.0:
        return None
    layout.check_weighted(seg_w[:-1], "v_d")
    t, arity = layout.t, logits.shape[1]
    if arity != t:
        raise ContractError(f"discriminator arity {arity} != t={t}")
    seg_w[:-1] /= layout.denom
    return xent(logits, seg_w.take(layout.class_slot), parts, scale)


def v_p(batch: StepBatch, embedding: np.ndarray, teacher_embedding: np.ndarray,
        scale: float) -> tuple[float, np.ndarray]:
    """Past-embedding distillation from the student's and the frozen
    teacher's embeddings of the record's rows: over past domains, the sum of
    each domain's mean squared L2 distance between the two.  The current
    rows have weight 0.  Returns the value and the embedding gradient of
    `scale` * V_p, 2 * scale * w_r * (e_r - teacher_r) on row r of weight
    w_r, taken as the two halves of d(diff * diff) are."""
    seg_w = np.r_[0.0, np.ones(len(batch.layout.ids))]
    batch.layout.check_weighted(seg_w, "v_p")
    row_w = batch.layout.row_weights(seg_w)
    diff = embedding + teacher_embedding * -1.0
    value = float(((diff * diff).sum(axis=-1) * row_w).sum())
    half = (scale * row_w)[:, None] * diff
    return value, half + half


def v_s(embedding: np.ndarray, y: np.ndarray, n_negatives: int,
        rng: np.random.Generator, scale: float
        ) -> tuple[float, np.ndarray | None]:
    """Supervised contrastive loss over squared distances between rows of
    `embedding`, labelled `y`: same-class positives, different-class negatives
    drawn from all rows; the draws read labels only, so the loss stays smooth.
    Returns the value and the embedding gradient of `scale` * V_s, or
    (0.0, None) when V_s is the constant 0."""
    n = len(y)
    anchors, positives = [], []
    for a in range(n):
        same = np.flatnonzero(y == y[a])
        same = same[same != a]
        if len(same):
            anchors.append(a)
            positives.append(int(rng.choice(same)))
    if not anchors:
        log.warning("v_s: no same-class pair in batch, returning 0")
        return 0.0, None
    # one label throughout leaves every anchor without a negative: each term
    # is -log[exp(-s+)/exp(-s+)] = 0
    if (y == y[0]).all():
        return 0.0, None
    k = len(anchors)
    negatives = [rng.choice(np.flatnonzero(y != y[a]), size=n_negatives,
                            replace=True) for a in anchors]
    # entry (r, 0) pairs anchor r with its positive and (r, j) with its j-th
    # negative: two [k, n_negatives + 1] gathers give every difference
    anchor = np.repeat(np.array(anchors)[:, None], n_negatives + 1, axis=1)
    partner = np.column_stack([positives, np.stack(negatives)])
    diff = embedding[anchor] + embedding[partner] * -1.0
    # -log[exp(-s+)/(exp(-s+) + sum exp(-s-))] is the cross-entropy of
    # the logits -[s+, s-_1, ...] toward column 0
    target = _one_hot(np.zeros(k, np.int64), n_negatives + 1, 1.0 / k)
    value, d_logits = xent((diff * diff).sum(axis=-1) * -1.0, target, None,
                           scale)
    half = (d_logits * -1.0)[..., None] * diff
    g = half + half
    # each gather's gradient scattered into zeros, the anchors' added last
    grad = np.zeros_like(embedding)
    np.add.at(grad, partner, g * -1.0)
    at_anchors = np.zeros_like(embedding)
    np.add.at(at_anchors, anchor, g)
    grad += at_anchors
    return value, grad


def encoder_aux_loss(embedding: np.ndarray, disc_logits: np.ndarray | None,
                     disc_parts: Softmax | None,
                     teacher_embedding: np.ndarray | None, omega: np.ndarray,
                     batch: StepBatch, hp: HyperParams,
                     rng: np.random.Generator
                     ) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """-lambda_d * V_d + lambda_p * V_p + lambda_s * V_s from the step's passes
    over the record's rows, running no network: the student's `embedding`, the
    stopped discriminator's `disc_logits` on it (None with no beta mass left)
    and their `softmax_parts` (`disc_parts`; None leaves V_d to take it), and
    the frozen teacher's `teacher_embedding` (None when lambda_p = 0).
    Returns the value, its terms added in that order (-0.0, which adds no
    bit, when none is on or the record has no past segment, which each term
    needs), the gradient on `disc_logits` (None without a V_d term) and the
    embedding gradient of the V_p and V_s terms, V_p's added into V_s's
    (None without either, or with only a constant V_s).
    A V_d term with no beta mass is the constant 0: it is left out, as
    adding its -0.0 changes no bit."""
    if not batch.layout.ids:  # every term needs a past segment
        return -0.0, None, None
    values, disc_grad, emb_grad = [], None, None
    if hp.lambda_d > 0:
        vd = v_d(batch, omega, disc_logits, -hp.lambda_d, disc_parts)
        if vd is not None:
            values.append(vd[0] * -hp.lambda_d)
            disc_grad = vd[1]
    vp = None
    if hp.lambda_p > 0:
        vp = v_p(batch, embedding, teacher_embedding, hp.lambda_p)
        values.append(vp[0] * hp.lambda_p)
    if hp.lambda_s > 0:
        value, emb_grad = v_s(embedding, batch.y, N_NEGATIVES, rng,
                              hp.lambda_s)
        values.append(value * hp.lambda_s)
    if vp is not None:
        emb_grad = vp[1] if emb_grad is None else emb_grad + vp[1]
    # in order, as a graph adds them (sum() compensates from Python 3.12)
    return reduce(float.__add__, values, -0.0), disc_grad, emb_grad
