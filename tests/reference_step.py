"""Test-only reference: the per-domain loss loops, coefficient statistics
and discriminator divergence estimate as they were before the losses ran
over one stacked batch.  Each past domain gets its own forward passes
here; the differential tests in test_stacked_step.py compare the stacked
code against these.  V_01 and V_s are kept as they were built from
per-column slices and separate positive/negative gathers, before V_01
became one weighted sum and V_s one cross-entropy over all differences;
test_losses.py compares the library's against them.  The distillation
loss and the 0-1 disagreement they are built from have no caller in the
library and live here, tested in test_losses.py.  `sample_step` draws a
replay step's batches as the trainer did before it gathered them from one
per-domain layout: a sampled current set, one sampled set per memory
bucket, then x, y, segment bounds and the teacher's logits stacked from
them.  `replay_step` is one adaptive training step in the phase order the
trainer ran before the phases and the encoder terms shared one student
pass, one stopped-discriminator pass and the teacher's per-domain outputs,
built from the per-domain V_l, V_d, V_p, V_s and V_01 here and none of the
library's; test_stacked_step.py compares the trainer's draws and step
against these.  Every softmax here is reference_ops' graph node, so
`replay_step` descends the coefficient logits by backpropagation.
`snapshot_history` is the teacher record the trainer kept
between domains before it ran the model once over each replay domain's
layout: a frozen deep copy of the model after a domain (`frozen_copy`),
with its embedding, logits and 0-1 error on each memory bucket, one pass
per bucket (`HistorySnapshot`); test_stacked_step.py compares the
trainer's domain-start pass against it.  `per_step_v_l`, `per_step_v_d`,
`per_step_coeff_stats` and `per_step_divergences` are the stacked forms as
they were before each replay domain built its `StepLayout` once: each call
re-derives the segment sizes, each row's segment and V_d's class per row
from the record's bounds (`Record`), and takes the teacher's logits, whose
softmax or argmax it computes on the gathered rows; test_stacked_step.py
compares the layout-reading library forms against them byte for byte.
`graph_replay_step` is `trainer.replay_step` as it ran before V_l and V_d
returned their logits gradient in closed form: every update one autodiff
graph, its networks chains of linear and relu nodes, V_l, V_d and the
encoder terms nodes (`graph_v_l`, `graph_v_d`, `graph_encoder_aux_loss`,
over the cross-entropy node `graph_softmax_xent`), its softmax and row sums
NumPy's; test_stacked_step.py compares the trainer's step against it bit
for bit, and test_step_layout.py the closed forms against its nodes.
`classification_loss` is the mean cross-entropy as a node over a
classifier's logits, as the library built it before it returned its logits
gradient in closed form; the per-domain V_l here is built from it.
`graph_erm_steps` is the ERM steps (domain 1, FineTune, Joint) as the
trainer ran them in a loop of their own, before they became one-segment
`trainer.replay_step`s, one such graph per step; test_trainer.py compares
the trainer's ERM domains against it bit for bit."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

import reference_ops
from dilkit.autodiff import ContractError, Tensor
from dilkit.datagen import LabeledSet
from dilkit.losses import (
    N_NEGATIVES, CoeffStats, HyperParams, StepBatch,
    _check_omega, _one_hot, erm01,
)
from dilkit.membank import MemoryBank
from dilkit.models import Classifier, Mlp
from dilkit.trainer import StepRecord, _check_finite, _draw_rows

from reference_ops import (
    _make, _wrap, add, column, concat_cols, leaves, log_softmax, logits_node,
    mlp_chain, mul, pick, reshape, rows, rowsum, sgd_step, softmax,
    softmax_xent, sqrt, tmean, tsum, v_01_node,
)

log = logging.getLogger(__name__)


@dataclass
class HistorySnapshot:
    """Frozen copy of the model after a domain, its embedding and logits on
    each memory bucket and the per-bucket 0-1 risks (V_01's constants)."""
    classifier: Classifier
    cached_consts: dict[int, float] = field(default_factory=dict)
    logits: dict[int, np.ndarray] = field(default_factory=dict)
    embeddings: dict[int, np.ndarray] = field(default_factory=dict)


def frozen_copy(model: Classifier) -> Classifier:
    """A deep copy of `model` whose parameters take no gradient."""
    def copy_net(net: Mlp) -> Mlp:
        return Mlp(net.sizes, _flat=net.flat.copy()).stopped()
    return Classifier(copy_net(model.encoder), copy_net(model.predictor))


def snapshot_history(model: Classifier, bank: MemoryBank) -> HistorySnapshot:
    """Freeze the trained model as the next domain's teacher, with its
    embedding and logits on every memory bucket and its 0-1 error on each."""
    frozen = frozen_copy(model)
    embedded = {i: frozen.embed(b.x) for i, b in bank.buckets.items()}
    logits = {i: frozen.predictor.logits(e) for i, e in embedded.items()}
    cached = {i: float(np.mean(np.argmax(logits[i], axis=1) != b.y))
              for i, b in bank.buckets.items()}
    return HistorySnapshot(frozen, cached, logits, embedded)


def classification_loss(h: Classifier, batch: LabeledSet) -> Tensor:
    """Mean cross-entropy -log p(true class) as a node over h's logits, as
    the library built it before it returned its logits gradient in closed
    form."""
    if len(batch) == 0:
        raise ContractError("classification_loss: empty batch")
    logits = logits_node(h, batch.x)
    return graph_softmax_xent(
        logits, _one_hot(batch.y, logits.data.shape[1], 1.0 / len(batch)))


def distillation_loss(h: Classifier, teacher, inputs: np.ndarray) -> Tensor:
    """Soft cross-entropy toward the frozen teacher's output distribution."""
    target_vals = softmax(teacher.logits(inputs)).data
    logp = log_softmax(logits_node(h, inputs))
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
    arity = d.layers[-1][0].shape[1]
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
    logp = log_softmax(logits_node(d, logits_node(encoder, x)))
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
        diff = add(logits_node(encoder, x), mul(prev_encoder.logits(x), -1.0))
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
                         past_batches: dict[int, LabeledSet],
                         counts) -> CoeffStats:
    """Assemble the per-step scalar statistics the bound surrogate needs,
    from the sampled batches, the frozen history constants and the
    radical's sample counts."""
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
    return CoeffStats(eps_replay, eps_intra, eps_cross, dhat, eps_hist, counts)


def v_01(omega: Tensor | np.ndarray, stats: CoeffStats,
         c_gen: float) -> Tensor:
    """Coefficient loss: the 0-1 surrogate bound evaluated at the [t-1, 3]
    triples `omega`, differentiable through them when they are a Tensor;
    the radical reads the counts N_t, N_i of the stats."""
    n_current, n_memory = stats.counts[0], stats.counts[1:]
    m = _wrap(omega)
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


def v_s(encoder: Mlp, batch: LabeledSet | StepBatch, n_negatives: int,
        rng: np.random.Generator) -> Tensor:
    """Supervised contrastive loss over squared embedding distances.
    Positives are same-class pairs; negatives are different-class samples
    drawn from the whole batch regardless of domain.  Pair choice depends
    only on labels, so the loss stays smooth in the encoder parameters."""
    y = batch.y
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
    neg = np.stack(negatives)
    emb = logits_node(encoder, batch.x)
    d_pos = add(rows(emb, a_idx), mul(rows(emb, p_idx), -1.0))
    s_pos = rowsum(mul(d_pos, d_pos))
    d_neg = add(rows(emb, np.repeat(a_idx, n_negatives)),
                mul(rows(emb, neg.ravel()), -1.0))
    s_neg = reshape(rowsum(mul(d_neg, d_neg)), (m, n_negatives))
    # -log[exp(-s+)/(exp(-s+) + sum exp(-s-))] is the cross-entropy of
    # the logits [0, s+ - s-_1, ...] toward column 0
    gap = add(reshape(s_pos, (m, 1)), mul(s_neg, -1.0))
    z = concat_cols([Tensor(np.zeros((m, 1))), gap])
    target = _one_hot(np.zeros(m, np.int64), n_negatives + 1, 1.0 / k)
    return softmax_xent(z, target)


def sample_step(domain_data: LabeledSet, bank: MemoryBank,
                teacher: dict[int, np.ndarray], batch_size: int,
                memory_batch: int | None, split: bool,
                rng: np.random.Generator):
    """One step's draws: the current set (sorted without-replacement rows
    of `domain_data`), then one set per bucket in sorted order (unsorted
    without-replacement rows; `memory_batch`, default `batch_size`, divided
    by t - 1 when `split`), each a LabeledSet.  Returns (current, past, x,
    y, bounds, teacher_logits), the last four stacked over the sets, with
    `teacher` the frozen teacher's logits on each domain's full set."""
    n, t = len(domain_data), domain_data.domain_id
    cur_idx = np.sort(rng.choice(n, size=min(batch_size, n), replace=False))
    current = domain_data.subset(cur_idx)
    mem = batch_size if memory_batch is None else memory_batch
    if split:
        mem = max(1, mem // (t - 1))
    past, sources = {}, {t: cur_idx}
    for i in sorted(bank.buckets):
        bucket = bank.buckets[i]
        sources[i] = rng.choice(len(bucket), size=min(mem, len(bucket)),
                                replace=False)
        past[i] = bucket.subset(sources[i])
    batches = [current] + [past[i] for i in sorted(past)]
    x = np.concatenate([b.x for b in batches])
    y = np.concatenate([b.y for b in batches])
    bounds = np.cumsum([0] + [len(b) for b in batches])
    order = [t] + sorted(past)
    teacher_logits = np.concatenate([teacher[i][sources[i]] for i in order])
    return current, past, x, y, bounds, teacher_logits


def replay_step(model: Classifier, history: HistorySnapshot, disc: Mlp,
                coeff_logits: Tensor, current: LabeledSet,
                past: dict[int, LabeledSet], t: int, hp: HyperParams,
                n_current: int, n_memory: list[int],
                rng: np.random.Generator, disc_lr: float, omega_lr: float):
    """One adaptive step, each phase with its own forwards, built from the
    per-domain forms above, so that it shares none of the library's V_l,
    V_d, V_p, V_s or V_01 (only the plain cross-entropy
    `classification_loss`): the discriminator update through a stopped
    encoder pass, the coefficient statistics and update, then V_l, which
    runs the student and the teacher on each domain's batch, minus
    lambda_d * V_d through the encoder and a stopped discriminator, plus
    lambda_p * V_p and lambda_s * V_s, each running its own encoder passes.
    Returns (stats, objective); the objective is not yet backpropagated."""
    past_x = {i: b.x for i, b in past.items()}
    disc_loss = mul(v_d(disc, model.encoder.stopped(),
                        softmax(coeff_logits).data, current.x, past_x, t),
                    hp.lambda_d)
    if disc_loss.requires_grad:
        disc_loss.backward()
        sgd_step(leaves(disc), disc_lr)
    stats = coeff_stats_for_step(model, history, disc, current, past,
                                 [n_current, *n_memory])
    loss01 = v_01(softmax(coeff_logits), stats, hp.c_gen)
    loss01.backward()
    sgd_step([coeff_logits], omega_lr)
    omega = softmax(coeff_logits).data
    objective = v_l(model, history, omega, current, past)
    if hp.lambda_d > 0:
        vd = v_d(disc.stopped(), model.encoder, omega, current.x, past_x, t)
        objective = add(objective, mul(vd, -hp.lambda_d))
    if hp.lambda_p > 0:
        vp = v_p(model.encoder, history.classifier.encoder, past_x)
        objective = add(objective, mul(vp, hp.lambda_p))
    if hp.lambda_s > 0:
        vs = v_s(model.encoder, StepBatch.stack(current, past), N_NEGATIVES,
                 rng)
        objective = add(objective, mul(vs, hp.lambda_s))
    return stats, objective


# -- the stacked forms before the per-domain layout ------------------------

@dataclass(frozen=True)
class Record:
    """A replay step's record as the per-step forms read it: segment k is
    rows bounds[k]:bounds[k + 1], from domain t for k = 0 and from domain
    ids[k - 1] after."""
    x: np.ndarray
    y: np.ndarray
    bounds: np.ndarray
    ids: tuple[int, ...]
    t: int

    @classmethod
    def of(cls, batch: StepBatch) -> "Record":
        layout = batch.layout
        return cls(batch.x, batch.y, np.cumsum([0] + list(layout.sizes)),
                   layout.ids, layout.t)


def _row_weights(seg_w: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Segment k's weight divided by its size, repeated over its rows."""
    return np.repeat(seg_w / np.maximum(sizes, 1), sizes)


def per_step_v_l(batch: Record, omega: np.ndarray, logits: Tensor,
                 teacher_logits: np.ndarray) -> Tensor:
    """V_l as softmax_xent(logits, w_ce * onehot(y) + w_distill *
    softmax(teacher_logits)), the teacher's softmax taken on the distilled
    rows."""
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


def per_step_v_d(batch: Record, omega: np.ndarray, logits: Tensor) -> Tensor:
    """V_d as softmax_xent toward each segment's domain class, weighted
    (sum beta, beta_1, ...) / segment size."""
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


def per_step_divergences(probs: np.ndarray, bounds, past_ids) -> np.ndarray:
    """The discriminator divergence estimate of every past domain from the
    discriminator's [n, t] probabilities on a record's rows (see
    dilkit.divergence.discriminator_divergences)."""
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


def per_step_coeff_stats(eps_hist: np.ndarray, counts, batch: Record,
                         logits: np.ndarray, disc_logits: np.ndarray,
                         teacher_logits: np.ndarray) -> CoeffStats:
    """The coefficient statistics from the step's three outputs on the
    record's rows, the teacher's argmax taken on them, with the radical's
    `counts`."""
    dhat = per_step_divergences(softmax(disc_logits).data, batch.bounds,
                                batch.ids)
    pred = np.argmax(logits, axis=1)
    wrong, differs = (
        np.add.reduceat(miss, batch.bounds[:-1], dtype=np.int64)
        / np.diff(batch.bounds)
        for miss in (pred != batch.y, pred != np.argmax(teacher_logits, axis=1)))
    return CoeffStats(wrong[1:], differs[1:], float(differs[0]), dhat, eps_hist,
                      counts)


# -- the replay step as one graph, before V_l and V_d took closed forms -----

def _array_softmax(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an array with NumPy's row max and sum."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def graph_softmax_xent(a: Tensor, target) -> Tensor:
    """[n, c], constant [n, c] -> scalar: -sum(target * log_softmax(a)) as
    one node, its adjoint g * (softmax(a) * rowsum(target) - target)
    accumulated as the composed log_softmax graph did."""
    a = _wrap(a)
    target = np.asarray(target, dtype=np.float64)
    if a.data.ndim != 2 or target.shape != a.data.shape:
        raise ContractError("softmax_xent target must match the [n, c] logits, "
                            "got %r for %r" % (target.shape, a.data.shape))
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1, keepdims=True)
    logp = a.data + (m + np.log(s)) * -1.0
    out = _make(-(logp * target).sum(), (a,))
    if out.requires_grad:
        sm = e / s
        def _back(g):
            d = np.full_like(a.data, -float(g)) * target
            a._accum(d)
            a._accum(sm * (d.sum(axis=1, keepdims=True) * -1.0))
        out._backward = _back
    return out


def graph_v_l(batch: StepBatch, omega: np.ndarray, logits: Tensor,
              teacher_probs: np.ndarray) -> Tensor:
    """V_l as a node over the student's logits Tensor."""
    layout = batch.layout
    omega = _check_omega(omega, layout.ids)
    w_ce = np.concatenate([[1.0], omega[:, 2]])
    w_distill = np.concatenate([[float(omega[:, 1].sum())], omega[:, 0]])
    layout.check_weighted(w_ce, "v_l")
    k = logits.data.shape[1]
    target = _one_hot(batch.y, k, layout.row_weights(w_ce))
    row_w = layout.row_weights(w_distill)
    if row_w.any():
        if teacher_probs.shape[1] != k:
            raise ContractError(f"v_l: distillation arity mismatch: teacher "
                                f"{teacher_probs.shape[1]} vs student {k}")
        target += row_w[:, None] * teacher_probs
    return graph_softmax_xent(logits, target)


def graph_v_d(batch: StepBatch, omega: np.ndarray, logits: Tensor) -> Tensor:
    """V_d as a node over the discriminator's logits Tensor; the constant
    Tensor(0.0) with no beta mass."""
    layout = batch.layout
    if not layout.ids:
        return Tensor(0.0)
    omega = _check_omega(omega, layout.ids)
    betas = omega[:, 1]
    sum_beta = float(betas.sum())
    if sum_beta == 0.0:
        return Tensor(0.0)
    seg_w = np.concatenate([[sum_beta], betas])
    layout.check_weighted(seg_w, "v_d")
    t, arity = layout.t, logits.data.shape[1]
    if arity != t:
        raise ContractError(f"discriminator arity {arity} != t={t}")
    target = _one_hot(layout.domain_class, t, layout.row_weights(seg_w))
    return graph_softmax_xent(logits, target)


def graph_encoder_aux_loss(embedding: Tensor, disc_logits: Tensor | None,
                           teacher_embedding: np.ndarray | None,
                           omega: np.ndarray, batch: StepBatch,
                           hp: HyperParams, rng: np.random.Generator) -> Tensor:
    """-lambda_d * V_d + lambda_p * V_p + lambda_s * V_s as one graph over
    the embedding Tensor, each term built even when constant."""
    terms = []
    if hp.lambda_d > 0 and batch.layout.ids:
        terms.append(mul(graph_v_d(batch, omega, disc_logits), -hp.lambda_d))
    if hp.lambda_p > 0 and batch.layout.ids:
        terms.append(mul(reference_ops.v_p(batch, embedding, teacher_embedding),
                         hp.lambda_p))
    if hp.lambda_s > 0:
        terms.append(mul(reference_ops.v_s(embedding, batch.y, N_NEGATIVES,
                                           rng), hp.lambda_s))
    return reduce(add, terms) if terms else Tensor(0.0)


def graph_coeff_stats(eps_hist: np.ndarray, counts, batch: StepBatch,
                      logits: np.ndarray, disc_logits: np.ndarray,
                      teacher_pred: np.ndarray) -> CoeffStats:
    """The coefficient statistics with NumPy's softmax, two reductions and
    the per-step divergence estimate, with the radical's `counts`."""
    layout = batch.layout
    dhat = per_step_divergences(_array_softmax(disc_logits), layout.bounds,
                                layout.ids)
    pred = np.argmax(logits, axis=1)
    wrong, differs = (
        np.add.reduceat(miss, layout.bounds[:-1], dtype=np.int64) / layout.sizes
        for miss in (pred != batch.y, pred != teacher_pred))
    return CoeffStats(wrong[1:], differs[1:], float(differs[0]), dhat, eps_hist,
                      counts)


def graph_replay_step(state, disc: Mlp, stopped_disc: Mlp,
                      eps_hist: np.ndarray, pool_sizes: np.ndarray,
                      rng: np.random.Generator, step: int, batch: StepBatch,
                      teacher: tuple, omega: np.ndarray,
                      param: Tensor | None) -> StepRecord:
    """trainer.replay_step as one autodiff graph per update: the networks
    as chains of linear and relu nodes (`mlp_chain`), V_l, V_d and the
    encoder terms as the nodes above, the discriminator and the model each
    updated from `loss.backward()`, the coefficient step through
    `v_01_node`, each softmax and row sum NumPy's."""
    config = state.config
    t, hp, sgd, model = state.t, config.hp, config.sgd, state.model
    adaptive = param is not None
    omega_lr = config.omega_lr if config.omega_lr is not None else sgd.learning_rate
    disc_lr = config.disc_lr if config.disc_lr is not None else sgd.learning_rate
    disc_on = hp.lambda_d > 0 and (adaptive or float(omega[:, 1].sum()) > 0.0)
    teacher_probs, teacher_pred, teacher_embedding = teacher
    stats = disc_value = coeff_value = None
    embedding = mlp_chain(batch.x, model.encoder)
    logits = mlp_chain(embedding, model.predictor)

    if disc_on:
        disc_loss = mul(graph_v_d(batch, omega,
                                  mlp_chain(embedding.data, disc)),
                        hp.lambda_d)
        disc_value = disc_loss.item()
        _check_finite(disc_value, "discriminator", config.method, t, step)
        if disc_loss.requires_grad:
            disc_loss.backward()
            sgd_step(leaves(disc), disc_lr)
    disc_logits = (mlp_chain(embedding, stopped_disc)
                   if adaptive or disc_on else None)

    if adaptive:
        stats = graph_coeff_stats(eps_hist, pool_sizes, batch, logits.data,
                                  disc_logits.data, teacher_pred)
        simplex = Tensor(omega, requires_grad=True)
        loss01 = v_01_node(simplex, stats, hp.c_gen)
        coeff_value = loss01.item()
        _check_finite(coeff_value, "coefficient", config.method, t, step)
        loss01.backward()
        param.grad = omega * (simplex.grad - (simplex.grad * omega).sum(
            axis=-1, keepdims=True))
        sgd_step([param], omega_lr)
        omega = _array_softmax(param.data)

    objective = graph_v_l(batch, omega, logits, teacher_probs)
    aux = graph_encoder_aux_loss(embedding, disc_logits, teacher_embedding,
                                 omega, batch, hp, rng)
    objective = add(objective, aux)
    model_value = objective.item()
    _check_finite(model_value, "model", config.method, t, step)
    objective.backward()
    sgd_step(leaves(model), sgd.learning_rate)
    return StepRecord(omega, stats, disc_value, coeff_value, model_value)


def graph_erm_steps(model: Classifier, data: LabeledSet, sgd, rng: np.random.Generator,
                    method: str, t: int) -> None:
    """The ERM steps as the trainer ran them before each network ran its
    closed-form forward and backward: each step one autodiff graph, its
    batch a `LabeledSet.subset`, its networks chains of linear and relu
    nodes and its loss the cross-entropy node `graph_softmax_xent`."""
    for step in range(1, sgd.step_count + 1):
        batch = data.subset(_draw_rows(len(data), sgd.batch_size, rng))
        logits = mlp_chain(mlp_chain(batch.x, model.encoder),
                           model.predictor)
        loss = graph_softmax_xent(
            logits, _one_hot(batch.y, logits.data.shape[1], 1.0 / len(batch)))
        _check_finite(loss.item(), "classification", method, t, step)
        loss.backward()
        sgd_step(leaves(model), sgd.learning_rate)
