"""Test-only reference: the per-domain loss loops, coefficient statistics
and discriminator divergence estimate as they were before the losses ran
over one stacked batch.  Each past domain gets its own forward passes
here; the differential tests in test_stacked_step.py compare the stacked
code against these.  The distillation loss and the 0-1 disagreement they
are built from have no caller in the library and live here, tested in
test_losses.py."""
from __future__ import annotations

import numpy as np

from dilkit.autodiff import (
    ContractError, Tensor, add, mul, rowsum, softmax, tsum,
)
from dilkit.datagen import LabeledSet
from dilkit.losses import (
    CoeffStats, HistorySnapshot, _check_omega, classification_loss, erm01,
)
from dilkit.models import Classifier, Mlp

from reference_ops import log_softmax, pick, tmean


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


def erm01_agreement(h, teacher, inputs: np.ndarray) -> float:
    """Fraction of points where argmax predictions of h and teacher differ."""
    if inputs.shape[0] == 0:
        raise ContractError("erm01_agreement: empty set")
    return float(np.mean(h.predict(inputs) != teacher.predict(inputs)))


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


def hdh_discriminator_estimate(d: Mlp, encoder: Mlp, current_x: np.ndarray,
                               past_x: np.ndarray, past_index: int) -> float:
    """Discriminator-based divergence estimate for one past domain.

    With delta(x) = [d(e(x))]_i - [d(e(x))]_t (i = past_index, t = head
    arity = current domain), the discriminator's balanced pairwise accuracy
    is b = 1/2 * [frac of past samples with delta >= 0
                  + frac of current samples with delta < 0],
    and the estimate is clamp(2 * (2b - 1), 0, 2): 0 when the discriminator
    does no better than chance, 2 when it separates the domains perfectly.

    Two forwards, one per sample.  The library's discriminators all had the
    softmax head, so ``d.forward(...)`` is written out as
    ``softmax(d.logits(...))``; the rest is unchanged.
    """
    if current_x.shape[0] == 0 or past_x.shape[0] == 0:
        raise ContractError("both sample sets must be nonempty")
    p_cur = softmax(d.logits(encoder.logits(current_x))).data
    p_past = softmax(d.logits(encoder.logits(past_x))).data
    t = p_cur.shape[1]
    if not 1 <= past_index <= t - 1:
        raise ContractError(
            f"past_index must be in [1, {t - 1}], got {past_index}")
    col = past_index - 1
    delta_cur = p_cur[:, col] - p_cur[:, t - 1]
    delta_past = p_past[:, col] - p_past[:, t - 1]
    b = 0.5 * (np.mean(delta_past >= 0) + np.mean(delta_cur < 0))
    return float(np.clip(2.0 * (2.0 * b - 1.0), 0.0, 2.0))


def coeff_stats_for_step(model: Classifier, history: HistorySnapshot,
                         disc: Mlp, current_batch: LabeledSet,
                         past_batches: dict[int, LabeledSet]) -> CoeffStats:
    """Assemble the per-step scalar statistics the bound surrogate needs,
    from the sampled batches and the frozen history constants."""
    ids = sorted(past_batches)
    teacher = history.classifier
    eps_replay = np.array([erm01(model, past_batches[i]) for i in ids])
    eps_intra = np.array(
        [erm01_agreement(model, teacher, past_batches[i].x) for i in ids])
    eps_cross = erm01_agreement(model, teacher, current_batch.x)
    dhat = np.array([
        hdh_discriminator_estimate(disc, model.encoder, current_batch.x,
                                   past_batches[i].x, i) for i in ids])
    eps_hist = np.array([history.cached_consts[i] for i in ids])
    return CoeffStats(eps_replay, eps_intra, eps_cross, dhat, eps_hist)
