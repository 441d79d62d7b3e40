"""Training losses: cross-entropy classification, soft-target distillation,
0-1 risks, the model loss V_l, the coefficient loss V_01, the domain
discrimination loss V_d, and the opt-in encoder losses V_p / V_s."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    ContractError, Tensor, add, column, concat_cols, log_softmax, lse, mul,
    pick, reshape, rows, rowsum, sqrt, tmean, tsum,
)
from .coeffs import CoeffSimplex
from .datagen import LabeledSet
from .models import Classifier, Mlp

log = logging.getLogger(__name__)


@dataclass
class HyperParams:
    lambda_d: float = 1.0   # domain-alignment strength
    c_gen: float = 1.0      # generalization-effect scalar in V_01
    lambda_p: float = 0.0   # past-embedding distillation weight
    lambda_s: float = 0.0   # supervised contrastive weight

    def __post_init__(self):
        for name in ("lambda_d", "c_gen", "lambda_p", "lambda_s"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0")


@dataclass
class HistorySnapshot:
    """Frozen copy of the model after a domain, plus the per-bucket 0-1
    risks it scores on memory (constants reused by every V_01 step)."""
    classifier: Classifier
    cached_consts: dict[int, float] = field(default_factory=dict)


def classification_loss(h: Classifier, batch: LabeledSet) -> Tensor:
    """Mean cross-entropy -log p(true class)."""
    if len(batch) == 0:
        raise ContractError("classification_loss: empty batch")
    logp = log_softmax(h.logits(batch.x))
    return mul(tmean(pick(logp, batch.y)), -1.0)


def distillation_loss(h: Classifier, teacher, inputs: np.ndarray) -> Tensor:
    """Soft cross-entropy toward the frozen teacher's output distribution."""
    targets = teacher.probs(inputs)
    target_vals = targets.data if isinstance(targets, Tensor) else targets
    logp = log_softmax(h.logits(inputs))
    if target_vals.shape[1] != logp.data.shape[1]:
        raise ContractError(
            f"distillation arity mismatch: teacher {target_vals.shape[1]} "
            f"vs student {logp.data.shape[1]}")
    return mul(tmean(rowsum(mul(Tensor(target_vals), logp))), -1.0)


def erm01(h, labeled_set: LabeledSet) -> float:
    """Fraction of argmax-misclassified points (nondifferentiable)."""
    if len(labeled_set) == 0:
        raise ContractError("erm01: empty set")
    return float(np.mean(h.predict(labeled_set.x) != labeled_set.y))


def erm01_agreement(h, teacher, inputs: np.ndarray) -> float:
    """Fraction of points where argmax predictions of h and teacher differ."""
    if inputs.shape[0] == 0:
        raise ContractError("erm01_agreement: empty set")
    return float(np.mean(h.predict(inputs) != teacher.predict(inputs)))


def _check_omega(omega: np.ndarray, past_batches: dict) -> np.ndarray:
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[1] != 3 or omega.shape[0] != len(past_batches):
        raise ContractError(
            f"omega must be [t-1, 3] matching {len(past_batches)} past domains")
    return omega


def v_l(h: Classifier, history: HistorySnapshot | None, omega: np.ndarray,
        current_batch: LabeledSet,
        past_batches: dict[int, LabeledSet]) -> Tensor:
    """Model loss: per past domain gamma_i * CE + alpha_i * distill, plus CE
    on the current batch and (sum beta_i) * distill on the current batch.
    Coefficients enter as constants (stopped)."""
    loss = classification_loss(h, current_batch)
    if not past_batches:
        return loss
    if history is None:
        raise ContractError("v_l with past domains requires a history model")
    omega = _check_omega(omega, past_batches)
    teacher = history.classifier
    for pos, i in enumerate(sorted(past_batches)):
        a_i, _, g_i = omega[pos]
        batch = past_batches[i]
        if g_i != 0.0:
            loss = add(loss, mul(classification_loss(h, batch), g_i))
        if a_i != 0.0:
            loss = add(loss, mul(distillation_loss(h, teacher, batch.x), a_i))
    sum_beta = float(omega[:, 1].sum())
    if sum_beta != 0.0:
        loss = add(loss, mul(distillation_loss(h, teacher, current_batch.x),
                             sum_beta))
    return loss


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


def v_01(simplex: CoeffSimplex, stats: CoeffStats, c_gen: float,
         n_current: int, n_memory: np.ndarray) -> Tensor:
    """Coefficient loss: the 0-1 surrogate bound evaluated at the simplex,
    differentiable only through the coefficient logits."""
    n_memory = np.asarray(n_memory, dtype=np.float64)
    if n_current <= 0 or np.any(n_memory <= 0):
        raise ContractError("v_01 requires positive sample counts")
    m = simplex.materialize()
    alpha, beta, gamma = column(m, 0), column(m, 1), column(m, 2)
    loss = tsum(mul(gamma, stats.eps_replay))
    loss = add(loss, tsum(mul(alpha, stats.eps_intra)))
    loss = add(loss, mul(tsum(beta), stats.eps_cross))
    loss = add(loss, mul(tsum(mul(beta, stats.dhat)), 0.5))
    loss = add(loss, tsum(mul(add(alpha, beta), stats.eps_hist)))
    one_plus_sb = add(tsum(beta), 1.0)
    rad = mul(mul(one_plus_sb, one_plus_sb), 1.0 / n_current)
    ga = add(gamma, alpha)
    rad = add(rad, tsum(mul(mul(ga, ga), 1.0 / n_memory)))
    return add(loss, mul(sqrt(rad), c_gen))


def v_d(d: Mlp, encoder: Mlp, omega: np.ndarray, current_x: np.ndarray,
        past_x: dict[int, np.ndarray], t: int) -> Tensor:
    """Domain discrimination loss: (sum beta_i) * CE(current batch -> class t)
    + sum_i beta_i * CE(memory batch i -> class i)."""
    if not past_x:
        return Tensor(0.0)
    omega = _check_omega(omega, past_x)
    betas = omega[:, 1]
    if float(betas.sum()) == 0.0:
        return Tensor(0.0)
    arity = d.sizes[-1]
    if arity != t:
        raise ContractError(f"discriminator arity {arity} != t={t}")
    loss = mul(tmean(mul(pick_log(d, encoder, current_x, t - 1), -1.0)),
               float(betas.sum()))
    for pos, i in enumerate(sorted(past_x)):
        b_i = float(betas[pos])
        if b_i == 0.0:
            continue
        term = tmean(mul(pick_log(d, encoder, past_x[i], i - 1), -1.0))
        loss = add(loss, mul(term, b_i))
    return loss


def pick_log(d: Mlp, encoder: Mlp, x: np.ndarray, class_idx: int) -> Tensor:
    """log [d(e(x))]_class for each row of x."""
    if x.shape[0] == 0:
        raise ContractError("v_d: empty batch")
    logits = d.logits(encoder.logits(x))
    logp = log_softmax(logits)
    idx = np.full(x.shape[0], class_idx, dtype=np.int64)
    return pick(logp, idx)


def v_p(encoder: Mlp, prev_encoder: Mlp,
        memory_x: dict[int, np.ndarray]) -> Tensor:
    """Past-embedding distillation: per past domain the mean squared L2
    distance between current and snapshot embeddings, summed over domains."""
    if not memory_x:
        return Tensor(0.0)
    total = None
    for i in sorted(memory_x):
        x = memory_x[i]
        diff = add(encoder.logits(x), mul(prev_encoder.logits(x), -1.0))
        term = mul(tsum(mul(diff, diff)), 1.0 / x.shape[0])
        total = term if total is None else add(total, term)
    return total


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
    neg = np.stack(negatives)
    emb = encoder.logits(batch.x)
    d_pos = add(rows(emb, a_idx), mul(rows(emb, p_idx), -1.0))
    s_pos = rowsum(mul(d_pos, d_pos))
    d_neg = add(rows(emb, np.repeat(a_idx, n_negatives)),
                mul(rows(emb, neg.ravel()), -1.0))
    s_neg = reshape(rowsum(mul(d_neg, d_neg)), (m, n_negatives))
    # -log[exp(-s+)/(exp(-s+) + sum exp(-s-))] = lse([0, s+ - s-_1, ...])
    gap = add(reshape(s_pos, (m, 1)), mul(s_neg, -1.0))
    z = concat_cols([Tensor(np.zeros((m, 1))), gap])
    return mul(tsum(lse(z)), 1.0 / k)


def encoder_aux_loss(encoder: Mlp, d_stopped: Mlp,
                     prev_encoder: Mlp | None, omega: np.ndarray,
                     current_batch: LabeledSet,
                     past_batches: dict[int, LabeledSet], t: int,
                     hp: HyperParams, rng: np.random.Generator,
                     n_negatives: int = 8) -> Tensor:
    """-lambda_d * V_d + lambda_p * V_p + lambda_s * V_s; with the
    discriminator stopped the gradient reaches the encoder only."""
    total = Tensor(0.0)
    if hp.lambda_d > 0 and past_batches:
        vd = v_d(d_stopped, encoder, omega, current_batch.x,
                 {i: b.x for i, b in past_batches.items()}, t)
        total = add(total, mul(vd, -hp.lambda_d))
    if hp.lambda_p > 0 and past_batches and prev_encoder is not None:
        vp = v_p(encoder, prev_encoder,
                 {i: b.x for i, b in past_batches.items()})
        total = add(total, mul(vp, hp.lambda_p))
    if hp.lambda_s > 0:
        xs = [current_batch.x] + [past_batches[i].x for i in sorted(past_batches)]
        ys = [current_batch.y] + [past_batches[i].y for i in sorted(past_batches)]
        combined = LabeledSet(np.concatenate(xs), np.concatenate(ys),
                              current_batch.domain_id)
        total = add(total, mul(v_s(encoder, combined, n_negatives, rng),
                               hp.lambda_s))
    return total
