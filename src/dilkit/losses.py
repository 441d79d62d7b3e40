"""Training losses: cross-entropy classification, soft-target distillation,
0-1 risks, the model loss V_l, the coefficient loss V_01, the domain
discrimination loss V_d, and the opt-in encoder losses V_p / V_s."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .autodiff import (
    ContractError, Tensor, add, mlp, mul, reshape, rows, rowsum, softmax,
    softmax_xent, sqrt, tsum,
)
from .coeffs import CoeffSimplex
from .datagen import LabeledSet
from .models import Classifier, Mlp, Range, Ranged

log = logging.getLogger(__name__)
N_NEGATIVES = 8  # V_s negatives drawn per anchor in training


@dataclass
class HyperParams(Ranged):
    lambda_d: float = Range(0).field(1.0)   # domain-alignment strength
    c_gen: float = Range(0).field(1.0)      # generalization-effect scalar in V_01
    lambda_p: float = Range(0).field(0.0)   # past-embedding distillation weight
    lambda_s: float = Range(0).field(0.0)   # supervised contrastive weight


@dataclass
class HistorySnapshot:
    """Frozen copy of the model after a domain, its logits on each memory
    bucket and the per-bucket 0-1 risks (constants for every V_01 step)."""
    classifier: Classifier
    cached_consts: dict[int, float] = field(default_factory=dict)
    logits: dict[int, np.ndarray] = field(default_factory=dict)


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


def _check_omega(omega: np.ndarray, past_batches: dict) -> np.ndarray:
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[1] != 3 or omega.shape[0] != len(past_batches):
        raise ContractError(
            f"omega must be [t-1, 3] matching {len(past_batches)} past domains")
    return omega


def stack_segments(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack row blocks into one batch; block k is rows bounds[k]:bounds[k+1].

    The losses stack the current batch first, then each past domain's
    memory batch in sorted domain order."""
    return np.concatenate(parts), np.cumsum([0] + [len(p) for p in parts])


def _one_hot(y: np.ndarray, k: int, row_w) -> np.ndarray:
    """[n, k] target holding row i's weight at column y[i], zeros elsewhere."""
    target = np.zeros((len(y), k))
    target[np.arange(len(y)), y] = row_w
    return target


def _row_weights(seg_w: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Segment k's weight divided by its size, repeated over its rows."""
    sizes = np.diff(bounds)
    return np.repeat(seg_w / np.maximum(sizes, 1), sizes)


def v_l(h: Classifier, history: HistorySnapshot | None, omega: np.ndarray,
        current_batch: LabeledSet, past_batches: dict[int, LabeledSet],
        logits: Tensor | None = None, teacher_logits: np.ndarray | None = None) -> Tensor:
    """Model loss: CE + (sum beta_i) * distill on the current batch, plus per
    past domain gamma_i * CE + alpha_i * distill on its memory batch.

    One student forward over the stacked batch, and at most one teacher
    forward, over the rows with distillation weight; either is skipped when
    the caller passes its `logits` on every stacked row.  Per row the target
    is w_ce * onehot(y) + w_distill * teacher_probs, where current rows have
    (w_ce, w_distill) = (1, sum beta) / n_0 and domain i's rows
    (gamma_i, alpha_i) / n_i; the loss is softmax_xent(logits, target).
    Coefficients enter as constants (stopped)."""
    if not past_batches:
        return classification_loss(h, current_batch)
    if history is None:
        raise ContractError("v_l with past domains requires a history model")
    omega = _check_omega(omega, past_batches)
    batches = [current_batch] + [past_batches[i] for i in sorted(past_batches)]
    w_ce = np.concatenate([[1.0], omega[:, 2]])
    w_distill = np.concatenate([[float(omega[:, 1].sum())], omega[:, 0]])
    if any(w != 0.0 and len(b) == 0 for w, b in zip(w_ce, batches)):
        raise ContractError("v_l: empty batch")
    x, bounds = stack_segments([b.x for b in batches])
    y = np.concatenate([b.y for b in batches])
    logits = h.logits(x) if logits is None else logits
    k = logits.data.shape[1]
    target = _one_hot(y, k, _row_weights(w_ce, bounds))
    distilled = np.repeat(w_distill != 0.0, np.diff(bounds))
    if distilled.any():
        probs = (history.classifier.probs(x[distilled]) if teacher_logits is None
                 else softmax(teacher_logits[distilled])).data
        if probs.shape[1] != k:
            raise ContractError(
                f"distillation arity mismatch: teacher {probs.shape[1]} "
                f"vs student {k}")
        target[distilled] += (
            _row_weights(w_distill, bounds)[distilled, None] * probs)
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


def radical_map(n_past: int, n_current: int,
                n_memory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radical's argument is sum(w * v**2), where v = flat @ select +
    offset is (1 + sum beta, alpha_i + gamma_i) for the flattened triples
    (flat[3i:3i + 3] is (alpha_i, beta_i, gamma_i)) and
    w = (1 / n_current, 1 / n_i).  Returns (select, offset, w)."""
    n_memory = np.asarray(n_memory, dtype=np.float64)
    if n_memory.shape != (n_past,):
        raise ContractError(
            f"n_memory must have shape ({n_past},), got {n_memory.shape}")
    if n_current <= 0 or np.any(n_memory <= 0):
        raise ContractError("the radical requires positive sample counts")
    w = np.concatenate([[1.0 / n_current], 1.0 / n_memory])
    return _radical_select(n_past) + (w,)


@lru_cache(maxsize=64)
def _radical_select(n_past: int) -> tuple[np.ndarray, np.ndarray]:
    """radical_map's (select, offset): they depend on n_past alone, so each
    size is built once, read-only."""
    select = np.zeros((3 * n_past, n_past + 1))
    select[1::3, 0] = 1.0
    select[0::3, 1:] = select[2::3, 1:] = np.eye(n_past)
    offset = np.eye(1, n_past + 1)[0]
    select.flags.writeable = offset.flags.writeable = False
    return select, offset


def v_01(simplex: CoeffSimplex, stats: CoeffStats, c_gen: float,
         n_current: int, n_memory: np.ndarray) -> Tensor:
    """Coefficient loss: the 0-1 surrogate bound evaluated at the simplex,
    differentiable only through the coefficient logits.  With m the [t-1, 3]
    triples it is sum(m * stats.weights()) + c_gen * sqrt(sum(w * v**2)),
    v and w as radical_map builds them."""
    n_memory = np.asarray(n_memory, dtype=np.float64)
    m = simplex.materialize()
    n_past = m.data.shape[0]
    if n_memory.shape != (n_past,) or len(stats.eps_replay) != n_past:
        raise ContractError(
            f"v_01: the simplex has {n_past} past domains, the stats "
            f"{len(stats.eps_replay)} and n_memory {n_memory.size}")
    select, offset, w = radical_map(n_past, n_current, n_memory)
    v = mlp(reshape(m, (1, 3 * n_past)), [(Tensor(select), Tensor(offset))])
    rad = sqrt(tsum(mul(mul(v, v), w)))
    return add(tsum(mul(m, stats.weights())), mul(rad, c_gen))


def v_d(d: Mlp, encoder: Mlp | None, omega: np.ndarray, current_x: np.ndarray,
        past_x: dict[int, np.ndarray], t: int, logits: Tensor | None = None) -> Tensor:
    """Domain discrimination loss: (sum beta_i) * CE(current batch -> class t)
    + sum_i beta_i * CE(memory batch i -> class i).

    One encoder and discriminator forward over the stacked rows, skipped
    when the caller passes the discriminator's `logits` on them; current
    rows have weight (sum beta_i) / n_0 and domain i's rows beta_i / n_i."""
    if not past_x:
        return Tensor(0.0)
    omega = _check_omega(omega, past_x)
    betas = omega[:, 1]
    if float(betas.sum()) == 0.0:
        return Tensor(0.0)
    arity = d.sizes[-1]
    if arity != t:
        raise ContractError(f"discriminator arity {arity} != t={t}")
    ids = sorted(past_x)
    seg_w = np.concatenate([[float(betas.sum())], betas])
    x, bounds = stack_segments([current_x] + [past_x[i] for i in ids])
    sizes = np.diff(bounds)
    if np.any((sizes == 0) & (seg_w != 0.0)):
        raise ContractError("v_d: empty batch")
    seg_class = np.array([t - 1] + [i - 1 for i in ids])
    target = _one_hot(np.repeat(seg_class, sizes), t, _row_weights(seg_w, bounds))
    return softmax_xent(d.logits(encoder.logits(x)) if logits is None else logits,
                        target)


def v_p(encoder: Mlp, prev_encoder: Mlp,
        memory_x: dict[int, np.ndarray]) -> Tensor:
    """Past-embedding distillation: per past domain the mean squared L2
    distance between current and snapshot embeddings, summed over domains.
    One forward of each encoder over the stacked memory batches, with
    domain i's rows weighted 1 / n_i."""
    if not memory_x:
        return Tensor(0.0)
    x, bounds = stack_segments([memory_x[i] for i in sorted(memory_x)])
    if np.any(np.diff(bounds) == 0):
        raise ContractError("v_p: empty batch")
    diff = add(encoder.logits(x), mul(prev_encoder.logits(x), -1.0))
    w = _row_weights(np.ones(len(memory_x)), bounds)
    return tsum(mul(rowsum(mul(diff, diff)), w))


def v_s(encoder: Mlp, batch: LabeledSet, n_negatives: int,
        rng: np.random.Generator) -> Tensor:
    """Supervised contrastive loss over squared embedding distances.
    Positives are same-class pairs; negatives are different-class samples
    drawn from the whole batch regardless of domain.  Pair choice depends
    only on labels, so the loss stays smooth in the encoder parameters."""
    y = batch.y
    n = len(batch)
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
    emb = encoder.logits(batch.x)
    diff = add(rows(emb, np.repeat(a_idx, n_negatives + 1)),
               mul(rows(emb, partner.ravel()), -1.0))
    dist = reshape(rowsum(mul(diff, diff)), partner.shape)
    # -log[exp(-s+)/(exp(-s+) + sum exp(-s-))] is the cross-entropy of
    # the logits -[s+, s-_1, ...] toward column 0
    target = _one_hot(np.zeros(m, np.int64), n_negatives + 1, 1.0 / k)
    return softmax_xent(mul(dist, -1.0), target)


def encoder_aux_loss(encoder: Mlp, d_stopped: Mlp, prev_encoder: Mlp,
                     omega: np.ndarray, current_batch: LabeledSet,
                     past_batches: dict[int, LabeledSet], t: int,
                     hp: HyperParams, rng: np.random.Generator,
                     disc_logits: Tensor | None = None) -> Tensor:
    """-lambda_d * V_d + lambda_p * V_p + lambda_s * V_s; with the
    discriminator stopped the gradient reaches the encoder only.
    `disc_logits` is V_d's precomputed `logits`."""
    total = Tensor(0.0)
    if hp.lambda_d > 0 and past_batches:
        vd = v_d(d_stopped, encoder, omega, current_batch.x,
                 {i: b.x for i, b in past_batches.items()}, t,
                 logits=disc_logits)
        total = add(total, mul(vd, -hp.lambda_d))
    if hp.lambda_p > 0 and past_batches:
        vp = v_p(encoder, prev_encoder,
                 {i: b.x for i, b in past_batches.items()})
        total = add(total, mul(vp, hp.lambda_p))
    if hp.lambda_s > 0:
        xs = [current_batch.x] + [past_batches[i].x for i in sorted(past_batches)]
        ys = [current_batch.y] + [past_batches[i].y for i in sorted(past_batches)]
        combined = LabeledSet(np.concatenate(xs), np.concatenate(ys),
                              current_batch.domain_id)
        total = add(total, mul(v_s(encoder, combined, N_NEGATIVES, rng),
                               hp.lambda_s))
    return total
