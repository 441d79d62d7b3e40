"""Training losses: cross-entropy classification, 0-1 risks and the terms of
the replay objective, one function each: the model loss V_l, the coefficient
loss V_01, the domain discrimination loss V_d and the opt-in encoder losses
V_p / V_s.  V_l, V_d, V_p and V_s read a replay step's record (`StepBatch`)
and the passes the step ran once over its rows; none runs a network.  The
teacher whose logits and embedding they read is the model as the previous
domain left it, run once over the domain's layout before its first step."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ContractError, Tensor, _make, _wrap, add, mul, reshape, rows, rowsum,
    softmax, softmax_xent, tsum,
)
from .datagen import LabeledSet
from .models import Classifier, Range, Ranged

log = logging.getLogger(__name__)
N_NEGATIVES = 8  # V_s negatives drawn per anchor in training


@dataclass
class HyperParams(Ranged):
    lambda_d: float = Range(0).field(1.0)   # domain-alignment strength
    c_gen: float = Range(0).field(1.0)      # generalization-effect scalar in V_01
    lambda_p: float = Range(0).field(0.0)   # past-embedding distillation weight
    lambda_s: float = Range(0).field(0.0)   # supervised contrastive weight


def classification_loss(h: Classifier, batch: LabeledSet) -> Tensor:
    """Mean cross-entropy -log p(true class)."""
    if len(batch) == 0:
        raise ContractError("classification_loss: empty batch")
    logits = h.logits(batch.x)
    return softmax_xent(
        logits, _one_hot(batch.y, logits.shape[1], 1.0 / len(batch)))


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


@dataclass(frozen=True)
class StepBatch:
    """A replay step's rows: domain t's batch, then each past domain's in
    sorted order; segment k is rows bounds[k]:bounds[k + 1], from domain t
    for k = 0 and from domain ids[k - 1] after."""
    x: np.ndarray
    y: np.ndarray
    bounds: np.ndarray
    ids: tuple[int, ...]
    t: int

    @classmethod
    def stack(cls, current: LabeledSet, past: dict[int, LabeledSet]) -> StepBatch:
        """`current` (from domain t, its domain_id), then each set of `past`."""
        sets = [current] + [past[i] for i in sorted(past)]
        return cls(np.concatenate([s.x for s in sets]),
                   np.concatenate([s.y for s in sets]),
                   np.cumsum([0] + [len(s) for s in sets]),
                   tuple(sorted(past)), current.domain_id)


def _one_hot(y: np.ndarray, k: int, row_w) -> np.ndarray:
    """[n, k] target holding row i's weight at column y[i], zeros elsewhere."""
    target = np.zeros((len(y), k))
    target[np.arange(len(y)), y] = row_w
    return target


def _row_weights(seg_w: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Segment k's weight divided by its size, repeated over its rows."""
    return np.repeat(seg_w / np.maximum(sizes, 1), sizes)


def v_l(batch: StepBatch, omega: np.ndarray, logits: Tensor,
        teacher_logits: np.ndarray) -> Tensor:
    """Model loss from the student's `logits` and the frozen teacher's on the
    record's rows: CE + (sum beta) * distill on the current batch, plus per
    past domain gamma_i * CE + alpha_i * distill on its memory batch.  Per
    row the target is w_ce * onehot(y) + w_distill * teacher_probs, with
    (w_ce, w_distill) = (1, sum beta) / n_0 on current rows and
    (gamma_i, alpha_i) / n_i on domain i's; the loss is
    softmax_xent(logits, target).  Coefficients enter as constants."""
    omega = _check_omega(omega, batch.ids)
    w_ce = np.concatenate([[1.0], omega[:, 2]])
    w_distill = np.concatenate([[float(omega[:, 1].sum())], omega[:, 0]])
    sizes = np.diff(batch.bounds)
    if np.any((sizes == 0) & (w_ce != 0.0)):
        raise ContractError("v_l: empty batch")
    k = logits.data.shape[1]
    target = _one_hot(batch.y, k, _row_weights(w_ce, sizes))
    distilled = np.repeat(w_distill != 0.0, sizes)
    if distilled.any():
        if teacher_logits.shape[1] != k:
            raise ContractError(f"v_l: distillation arity mismatch: teacher "
                                f"{teacher_logits.shape[1]} vs student {k}")
        target[distilled] += (_row_weights(w_distill, sizes)[distilled, None]
                              * softmax(teacher_logits[distilled]).data)
    return softmax_xent(logits, target)


@dataclass
class CoeffStats:
    """0-1 statistics entering V_01, all constants w.r.t. the coefficients.
    Arrays are indexed by past-domain position (domain i at index i-1)."""
    eps_replay: np.ndarray   # eps_i(h) on memory batches
    eps_intra: np.ndarray    # eps_i(h, H) on memory batches
    eps_cross: float         # eps_t(h, H) on the current batch
    dhat: np.ndarray         # discriminator divergence estimates
    eps_hist: np.ndarray     # cached eps_i(H) on memory buckets

    def __post_init__(self):
        n = len(self.eps_replay)
        for name in ("eps_intra", "dhat", "eps_hist"):
            if len(getattr(self, name)) != n:
                raise ContractError(f"CoeffStats.{name} length mismatch")

    def weights(self) -> np.ndarray:
        """[t-1, 3] weights of the bound's linear part: row i weighs
        (alpha_i, beta_i, gamma_i) by (eps_intra_i + eps_hist_i,
        eps_cross + dhat_i / 2 + eps_hist_i, eps_replay_i)."""
        return np.stack([self.eps_intra + self.eps_hist,
                         self.eps_cross + 0.5 * self.dhat + self.eps_hist,
                         self.eps_replay], axis=1)


def radical_terms(omega: np.ndarray, n_current: int,
                  n_memory) -> tuple[np.ndarray, np.ndarray]:
    """V_01's radical is sqrt(sum(w * v**2)) over the [t-1, 3] triples omega
    (row i is (alpha_i, beta_i, gamma_i)), with v = (1 + sum beta,
    alpha_i + gamma_i) and w = (1 / n_current, 1 / n_i).  Returns (v, w)."""
    n_memory = np.asarray(n_memory, dtype=np.float64)
    if n_memory.shape != (len(omega),):
        raise ContractError(
            f"n_memory must have shape ({len(omega)},), got {n_memory.shape}")
    if n_current <= 0 or (n_memory <= 0).any():
        raise ContractError("the radical requires positive sample counts")
    v = np.concatenate(([1.0 + omega[:, 1].sum()], omega[:, 0] + omega[:, 2]))
    return v, 1.0 / np.concatenate(([n_current], n_memory))


def v_01(omega: Tensor | np.ndarray, stats: CoeffStats, c_gen: float,
         n_current: int, n_memory: np.ndarray) -> Tensor:
    """Coefficient loss: the 0-1 surrogate bound evaluated at the [t-1, 3]
    triples `omega`, UDIL's softmax(logits) or a preset's array.  With
    W = stats.weights() and v, w as radical_terms builds them, it is
    sum(omega * W) + c_gen * sqrt(R), R = sum(w * v**2), as one node on omega:
    its gradient adds W + c_gen / sqrt(R) * (w_i v_i, w_0 v_0, w_i v_i) to
    row i."""
    m = _wrap(omega)
    n_past = m.data.shape[0]
    if np.shape(n_memory) != (n_past,) or len(stats.eps_replay) != n_past:
        raise ContractError(
            f"v_01: the simplex has {n_past} past domains, the stats "
            f"{len(stats.eps_replay)} and n_memory {np.size(n_memory)}")
    weights = stats.weights()
    v, w = radical_terms(m.data, n_current, n_memory)
    rad = np.sqrt((v * v * w).sum())
    out = _make((m.data * weights).sum() + rad * c_gen, (m,))
    if out.requires_grad:
        def _back(g):
            # d(w * v * v)/dv in two halves, as the tests' selection-matrix
            # composition sums it: given equal v, the gradients are equal
            half = g * c_gen * 0.5 / rad * w * v
            dv = half + half
            dm = np.column_stack([dv[1:], np.full(n_past, dv[0]), dv[1:]])
            m._accum(g * weights + dm, fresh=True)
        out._backward = _back
    return out


def v_d(batch: StepBatch, omega: np.ndarray, logits: Tensor) -> Tensor:
    """Domain discrimination loss from the discriminator's `logits` on the
    record's rows: (sum beta_i) * CE(current rows -> class t)
    + sum_i beta_i * CE(domain i's rows -> class i).  Current rows have
    weight (sum beta_i) / n_0 and domain i's rows beta_i / n_i."""
    if not batch.ids:
        return Tensor(0.0)
    omega = _check_omega(omega, batch.ids)
    betas = omega[:, 1]
    if float(betas.sum()) == 0.0:
        return Tensor(0.0)
    t = batch.t
    seg_w = np.concatenate([[float(betas.sum())], betas])
    sizes = np.diff(batch.bounds)
    if np.any((sizes == 0) & (seg_w != 0.0)):
        raise ContractError("v_d: empty batch")
    arity = logits.data.shape[1]
    if arity != t:
        raise ContractError(f"discriminator arity {arity} != t={t}")
    seg_class = np.array([t - 1] + [i - 1 for i in batch.ids])
    target = _one_hot(np.repeat(seg_class, sizes), t, _row_weights(seg_w, sizes))
    return softmax_xent(logits, target)


def v_p(batch: StepBatch, embedding: Tensor,
        teacher_embedding: Tensor | np.ndarray) -> Tensor:
    """Past-embedding distillation from the student's and the frozen
    teacher's embeddings of the record's rows: over past domains, the sum of
    each domain's mean squared L2 distance between the two.  The current
    rows have weight 0."""
    sizes = np.diff(batch.bounds)
    if np.any(sizes[1:] == 0):
        raise ContractError("v_p: empty batch")
    diff = add(embedding, mul(teacher_embedding, -1.0))
    row_w = _row_weights(np.r_[0.0, np.ones(len(batch.ids))], sizes)
    return tsum(mul(rowsum(mul(diff, diff)), row_w))


def v_s(embedding: Tensor, y: np.ndarray, n_negatives: int,
        rng: np.random.Generator) -> Tensor:
    """Supervised contrastive loss over squared distances between rows of
    `embedding`, labelled `y`: same-class positives, different-class negatives
    drawn from all rows; the draws read labels only, so the loss stays smooth."""
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
        return Tensor(0.0)
    k = len(anchors)
    keep, negatives = [], []
    for row, a in enumerate(anchors):
        pool = np.flatnonzero(y != y[a])
        if len(pool):
            keep.append(row)
            negatives.append(rng.choice(pool, size=n_negatives, replace=True))
    # An anchor with no different-class sample has an empty negative sum:
    # -log[exp(-s+)/exp(-s+)] = 0, so it adds nothing to the mean over k.
    if not keep:
        return Tensor(0.0)
    m = len(keep)
    a_idx = np.array(anchors)[keep]
    p_idx = np.array(positives)[keep]
    # row (r, 0) is anchor r minus its positive, row (r, j) anchor r minus
    # its j-th negative: two gathers give every difference
    partner = np.concatenate([p_idx[:, None], np.stack(negatives)], axis=1)
    diff = add(rows(embedding, np.repeat(a_idx, n_negatives + 1)),
               mul(rows(embedding, partner.ravel()), -1.0))
    dist = reshape(rowsum(mul(diff, diff)), partner.shape)
    # -log[exp(-s+)/(exp(-s+) + sum exp(-s-))] is the cross-entropy of
    # the logits -[s+, s-_1, ...] toward column 0
    target = _one_hot(np.zeros(m, np.int64), n_negatives + 1, 1.0 / k)
    return softmax_xent(mul(dist, -1.0), target)


def encoder_aux_loss(embedding: Tensor, disc_logits: Tensor | None,
                     teacher_embedding: np.ndarray | None, omega: np.ndarray,
                     batch: StepBatch, hp: HyperParams,
                     rng: np.random.Generator) -> Tensor:
    """-lambda_d * V_d + lambda_p * V_p + lambda_s * V_s from the step's passes
    over the record's rows, running no network: the student's `embedding`, the
    stopped discriminator's `disc_logits` on it (None with no beta mass left)
    and the frozen teacher's `teacher_embedding` (None when lambda_p = 0)."""
    total = Tensor(0.0)
    if hp.lambda_d > 0 and batch.ids:
        total = add(total, mul(v_d(batch, omega, disc_logits), -hp.lambda_d))
    if hp.lambda_p > 0 and batch.ids:
        total = add(total, mul(v_p(batch, embedding, teacher_embedding),
                               hp.lambda_p))
    if hp.lambda_s > 0:
        total = add(total, mul(v_s(embedding, batch.y, N_NEGATIVES, rng),
                               hp.lambda_s))
    return total
