"""Per-domain training orchestration.

Every step of every domain is one `replay_step`, the three-way alternating
update: the discriminator descends the domain-confusion loss, the replay
coefficients descend the bound surrogate, and the model descends the
weighted replay loss while the encoder ascends the confusion loss.  With no
past to replay (domain 1, FineTune, Joint) the step's record has one
segment and the step is the model update on the cross-entropy alone.  The
teacher is the model as the previous domain left it: one pass at the start
of each replay domain records its outputs, and each step's record shares
one layout derived at the domain's start.  A step takes every gradient in
closed form, and each network backpropagates its own, writing its layer
outputs and gradients into buffers built at the domain's start for the
networks its steps run.  After each domain the replay memory is rebalanced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import iadd

import numpy as np

from .autodiff import (ContractError, Tensor, mlp_buffers, softmax,
                       softmax_parts)
from .coeffs import check_method, from_preset, init_uniform, logit_gradient
from .datagen import ConfigError, DomainStream, LabeledSet
# no caller here; perfbench wraps hdh_discriminator_estimate by this name
from .divergence import discriminator_divergences, hdh_discriminator_estimate
# classification_loss has no caller here; perfbench wraps it by this name
from .losses import (
    CoeffStats, HyperParams, StepBatch, StepLayout, classification_loss,
    encoder_aux_loss, v_01, v_d, v_l,
)
from .membank import MemoryBank
from .metrics import (
    AccuracyMatrix, accuracy, avg_acc, forgetting, forward_transfer,
)
from .models import (ArchConfig, Classifier, Mlp, Range, Ranged, SgdConfig,
                     sgd_step)
from .seeding import substream

ADAPTIVE_METHOD = "UDIL"
ORACLE_METHOD = "Joint"


@dataclass
class TrainerConfig(Ranged):
    method: str
    seed: int
    arch: ArchConfig = field(default_factory=ArchConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    hp: HyperParams = field(default_factory=HyperParams)
    memory_capacity: int = Range.of(MemoryBank, "capacity").field(200)
    omega_lr: float | None = Range(0, above=True).field(None)  # None: sgd.learning_rate
    disc_lr: float | None = Range(0, above=True).field(None)   # None: sgd.learning_rate
    # per past domain; None: sgd.batch_size
    memory_batch: int | None = Range(1).field(None)
    split_memory_batch: bool = False   # split one batch across past domains
    baseline_models: int = Range(1).field(5)


@dataclass
class TrainState:
    """Mutable state threaded through the per-domain fold: only what lives
    across domains.

    Between domains: ``t`` is the next domain to train and ``model`` is
    also the teacher domain t distills from.  The discriminator (arity t)
    and UDIL's coefficient logits are built when domain t's training starts
    and dropped when it ends; ``omega_log`` keeps each domain's final
    triples.
    """

    model: Classifier
    bank: MemoryBank
    config: TrainerConfig
    t: int
    omega_log: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.t < 1:
            raise ContractError("domain index t must be >= 1")


def initial_state(config: TrainerConfig, input_dim: int,
                  n_classes: int) -> TrainState:
    model = config.arch.build_classifier(
        input_dim, n_classes, substream(config.seed, "init"))
    return TrainState(model=model, bank=MemoryBank(config.memory_capacity),
                      config=config, t=1)


def _draw_rows(n: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform without-replacement batch of row indices, sorted."""
    return np.sort(rng.choice(n, size=min(batch_size, n), replace=False))


def _check_finite(value: float, name: str, method: str, t: int,
                  step: int) -> None:
    """Raise before a non-finite loss value reaches its update."""
    if not math.isfinite(value):
        raise ContractError(
            f"{method}: {name} loss is {value!r} at domain {t}, step {step}")


def coeff_stats_for_step(eps_hist: np.ndarray, batch: StepBatch,
                         logits: np.ndarray, disc_probs: np.ndarray,
                         teacher_pred: np.ndarray) -> CoeffStats:
    """Assemble the per-step scalar statistics the bound surrogate needs from
    the student's logits, the stopped discriminator's softmax and the
    teacher's argmax on the record's rows and the teacher's 0-1 error on
    each memory bucket.  The 0-1 errors are counted per segment, the
    divergence estimates read off them; an empty one raises."""
    layout = batch.layout
    dhat = discriminator_divergences(disc_probs, layout)
    pred = logits.argmax(axis=1)
    miss = layout.miss
    np.not_equal(pred, batch.y, out=miss[0])
    np.not_equal(pred, teacher_pred, out=miss[1])
    wrong, differs = np.add.reduceat(miss, layout.starts, axis=1,
                                     dtype=np.int64) / layout.sizes
    return CoeffStats(wrong[1:], differs[1:], float(differs[0]), dhat, eps_hist)


def descend_v01(coeff_logits: np.ndarray, stats: CoeffStats, c_gen: float,
                n_current: int, n_memory: list[int], steps: int,
                learning_rate: float) -> float:
    """Run plain gradient descent on the bound surrogate over the [t-1, 3]
    `coeff_logits`, in place, and return the final value.  For the
    frozen-instance comparisons against the fixed presets; each iteration is
    `replay_step`'s coefficient update, without its finiteness check."""
    if steps < 1:
        raise ContractError(f"descend_v01 needs at least one step, got {steps}")
    param, omega = Tensor(coeff_logits), softmax(coeff_logits)
    for _ in range(steps):
        value, grad = v_01(omega, stats, c_gen, n_current, n_memory)
        param.grad = logit_gradient(omega, grad)
        sgd_step([param], learning_rate)
        omega = softmax(param.data)
    return value


def snapshot_history(model: Classifier, pool: StepBatch
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The teacher's pass over a replay domain's rows: its softmax, argmax
    and embedding on every row (row-wise, so gathering a step's rows gives
    what the step would compute on them) and its 0-1 error on each bucket.
    Runs on a view of `model` sharing its weights, so call it before the
    first step.  One pass per segment keeps the logits those of a pass per set."""
    frozen = model.stopped()
    bounds = pool.layout.bounds
    embedded = [frozen.embed(x) for x in np.split(pool.x, bounds[1:-1])]
    logits = np.concatenate([frozen.predictor.logits(e) for e in embedded])
    pred = np.argmax(logits, axis=1)
    eps = np.add.reduceat(pred != pool.y, bounds[:-1], dtype=np.int64) / pool.layout.sizes
    return softmax(logits), pred, np.concatenate(embedded), eps[1:]


def train_domain(state: TrainState, domain_data: LabeledSet,
                 pooled: LabeledSet | None = None) -> TrainState:
    """Train one domain and return the state advanced to the next domain.

    Every step is a `replay_step` on a batch of the domain's rows and, on a
    replay domain, a batch per memory bucket: the discriminator update, the
    coefficient update (UDIL only) and the model update, in that order.
    Domain 1 has no bucket yet, and FineTune and Joint replay none; Joint
    draws its rows from `pooled`, the union of domains 1..t, which it alone
    must pass.  Their steps run on one segment, as plain SGD on the
    cross-entropy.  Every method fills memory bucket t from `domain_data`.
    """
    config = state.config
    if domain_data.domain_id != state.t:
        raise ContractError(
            f"domain_data has id {domain_data.domain_id}, state expects {state.t}")
    if len(domain_data) == 0:
        raise ContractError("training data is empty")
    if (pooled is not None) != (config.method == ORACLE_METHOD):
        raise ContractError("pooled data is passed exactly when the method is Joint")
    t = state.t
    if state.bank.capacity < t:  # a memory bucket would be left empty
        raise ContractError(f"domain {t} needs memory capacity >= {t}, "
                            f"got {state.bank.capacity}")
    past = ({} if pooled is not None or config.method == "FineTune"
            else state.bank.buckets)
    coeff_logits = disc = None
    if past:
        if config.method == ADAPTIVE_METHOD:
            coeff_logits = init_uniform(t)
        disc = config.arch.build_discriminator(t, substream(config.seed, "disc", t))
    omega = _train_steps(state, domain_data if pooled is None else pooled, past,
                         substream(config.seed, "batches", t), disc, coeff_logits)
    if t >= 2 and pooled is None:  # FineTune logs its preset's zeros
        state.omega_log[t] = omega if past else from_preset(config.method, t)

    state.bank.update_after_domain(domain_data, t, config.seed)
    state.t = t + 1
    return state


def _trains_disc(hp: HyperParams, omega: np.ndarray, adaptive: bool) -> bool:
    """Whether a replay step updates the discriminator: a fixed preset with
    no cross-domain mass never trains it."""
    return hp.lambda_d > 0 and (adaptive or float(omega[:, 1].sum()) > 0.0)


@dataclass(frozen=True)
class StepRecord:
    """What a step computed: the triples after it, UDIL's coefficient
    statistics, and the discriminator, coefficient and model loss values,
    each checked finite before its update (None where a phase did not run)."""
    omega: np.ndarray
    stats: CoeffStats | None
    disc_loss: float | None
    coeff_loss: float | None
    model_loss: float


def replay_step(state: TrainState, disc: Mlp | None, stopped_disc: Mlp | None,
                eps_hist: np.ndarray | None, pool_sizes: np.ndarray,
                rng: np.random.Generator, step: int, batch: StepBatch,
                teacher: tuple, omega: np.ndarray,
                param: Tensor | None) -> StepRecord:
    """Step `step` of domain state.t on the record `batch` from the triples
    `omega`: the discriminator update, the coefficient update (UDIL's
    `param` over its logits, in place) and the model update, each network
    running once on the rows for every loss term.  `teacher` is the teacher's
    softmax, argmax and embedding (None when lambda_p = 0) on the rows, and
    `pool_sizes` counts the domain's rows, then each bucket's, as the
    floats V_01's radical reads; `disc` and `stopped_disc` are None where
    no phase runs them.  On a one-segment record (domain 1, FineTune,
    Joint) `omega` is [0, 3], the teacher's outputs, `eps_hist` and `param`
    are None, and the step is the model update alone: V_l is then the mean
    cross-entropy, bit for bit, and the encoder terms are off.

    Every loss term hands back its gradient in closed form and each
    network backpropagates its own (`Mlp.backward`), into its `buffers`
    when they are set; no step builds a Tensor.  The stopped
    discriminator's softmax is taken once (`softmax_parts`), for the
    divergence estimate and V_d's encoder side alike.  The embedding's
    gradient is summed as a graph over the whole step would sum it: V_p
    and V_s's, then the stopped discriminator's, then the predictor's, so
    every update is bitwise that graph's."""
    config = state.config
    t, hp, sgd, model = state.t, config.hp, config.sgd, state.model
    adaptive = param is not None
    omega_lr = config.omega_lr if config.omega_lr is not None else sgd.learning_rate
    disc_lr = config.disc_lr if config.disc_lr is not None else sgd.learning_rate
    disc_on = _trains_disc(hp, omega, adaptive)
    teacher_probs, teacher_pred, teacher_embedding = teacher
    stats = disc_value = coeff_value = None
    encoded = model.encoder.forward(batch.x)
    predicted = model.predictor.forward(encoded[-1])

    if disc_on:
        acts = disc.forward(encoded[-1])
        vd = v_d(batch, omega, acts[-1], hp.lambda_d, None)
        # with no beta mass left the loss is the constant 0: nothing to train
        disc_value = 0.0 if vd is None else vd[0] * hp.lambda_d
        _check_finite(disc_value, "discriminator", config.method, t, step)
        if vd is not None:
            disc.backward(acts, vd[1], False)
            sgd_step(disc.params(), disc_lr)
    stopped = disc_soft = None
    if adaptive or disc_on:
        stopped = stopped_disc.forward(encoded[-1])
        disc_soft = softmax_parts(stopped[-1])

    if adaptive:
        stats = coeff_stats_for_step(eps_hist, batch, predicted[-1],
                                     disc_soft.pt.T, teacher_pred)
        coeff_value, grad = v_01(omega, stats, hp.c_gen, pool_sizes[0], pool_sizes[1:])
        _check_finite(coeff_value, "coefficient", config.method, t, step)
        param.grad = logit_gradient(omega, grad)
        sgd_step([param], omega_lr)
        omega = softmax(param.data)

    model_value, logits_grad = v_l(batch, omega, predicted[-1], teacher_probs)
    aux_value, disc_grad, emb_grad = encoder_aux_loss(
        encoded[-1], None if stopped is None else stopped[-1], disc_soft,
        teacher_embedding, omega, batch, hp, rng)
    model_value += aux_value
    # a one-segment step's model loss is the cross-entropy alone
    _check_finite(model_value, "model" if batch.layout.ids else "classification",
                  config.method, t, step)
    into_embedding = [] if emb_grad is None else [emb_grad]
    if disc_grad is not None:
        into_embedding.append(stopped_disc.backward(stopped, disc_grad, True))
    into_embedding.append(model.predictor.backward(predicted, logits_grad, True))
    model.encoder.backward(encoded, reduce(iadd, into_embedding), False)
    sgd_step(model.params(), sgd.learning_rate)
    return StepRecord(omega, stats, disc_value, coeff_value, model_value)


def _train_steps(state: TrainState, current: LabeledSet,
                 past: dict[int, LabeledSet], rng: np.random.Generator,
                 disc: Mlp | None, coeff_logits: np.ndarray | None) -> np.ndarray:
    """Run the domain's steps on [current; bucket 1; ...; bucket t-1], the
    sets of `past` after `current` (none on a one-segment domain), stacked
    once, as is the layout of every step's record (a current batch, then a
    memory batch per bucket) and, with a past segment, the teacher's
    outputs on it from the model before its first step.  Each step gathers
    its rows and the teacher's by drawn index for `replay_step`.  The
    triples are the method's preset, or with UDIL's [t-1, 3] `coeff_logits`
    their softmax, descended in place once per step, and [0, 3] with no
    past segment; returns the domain's final triples.  The networks the
    steps run (the encoder and predictor; the discriminator `disc` and its
    stopped view when they train or the coefficients need it) write into
    buffers at the steps' row count while the domain trains."""
    config = state.config
    t, hp, sgd, model = state.t, config.hp, config.sgd, state.model
    adaptive = coeff_logits is not None
    # UDIL's logit array as sgd_step's parameter (sharing its memory), built
    # once per domain so that no update builds a Tensor; each update's
    # softmax is the next V_01 input
    param = Tensor(coeff_logits) if adaptive else None
    omega = (softmax(coeff_logits) if adaptive
             else from_preset(config.method, t) if past else np.zeros((0, 3)))
    mem_batch = config.memory_batch if config.memory_batch is not None else sgd.batch_size
    if config.split_memory_batch and past:
        mem_batch = max(1, mem_batch // (t - 1))
    pool = StepBatch.stack(current, past)
    counts = pool.layout.sizes.astype(np.float64)  # as V_01's radical reads them
    n_memory = pool.layout.sizes[1:]
    layout = StepLayout([min(sgd.batch_size, len(current))]
                        + [min(mem_batch, n) for n in n_memory], pool.layout.ids, t)
    offsets = pool.layout.bounds[layout.seg]  # where each row's segment starts
    probs, pred, emb, eps_hist = snapshot_history(model, pool) if past else (None,) * 4
    teacher_outputs = (probs, pred, emb if hp.lambda_p > 0 else None)

    disc_on = _trains_disc(hp, omega, adaptive)
    # sharing the weights sgd_step updates in place
    stopped_disc = disc.stopped() if adaptive or disc_on else None
    nets = ([model.encoder, model.predictor] + ([disc] if disc_on else [])
            + ([stopped_disc] if stopped_disc is not None else []))
    for net in nets:
        net.buffers = mlp_buffers(net.layers, len(layout.seg))
    try:
        for step in range(1, sgd.step_count + 1):
            rows = [_draw_rows(len(current), sgd.batch_size, rng)]
            if past:  # in layout.ids order
                rows += state.bank.sample_past(mem_batch, rng).values()
            idx = np.concatenate(rows) + offsets
            batch = StepBatch(pool.x.take(idx, axis=0), pool.y.take(idx), layout)
            teacher = tuple(None if a is None else a.take(idx, axis=0)
                            for a in teacher_outputs)
            omega = replay_step(state, disc, stopped_disc, eps_hist, counts,
                                rng, step, batch, teacher, omega, param).omega
    finally:  # so that no model a result keeps holds buffers
        for net in nets:
            net.buffers = None
    return omega


def _pooled_through(stream: DomainStream, t: int) -> LabeledSet:
    xs = [stream.train(i).x for i in range(1, t + 1)]
    ys = [stream.train(i).y for i in range(1, t + 1)]
    return LabeledSet(np.concatenate(xs), np.concatenate(ys), t)


@dataclass
class SequenceResult:
    """What one sequence run produced.  Each run metric is a property read
    off `matrix` (and `baseline_acc`, for forward transfer), never stored."""
    method: str
    seed: int
    matrix: AccuracyMatrix
    omega_by_domain: dict[int, list[list[float]]]
    baseline_acc: list[float]
    shortfalls: dict[int, int]
    final_state: TrainState | None = None

    @property
    def n_domains(self) -> int:
        return self.matrix.n_domains

    @property
    def avg_acc_by_domain(self) -> dict[int, float]:
        return {t: avg_acc(self.matrix, t) for t in range(1, self.n_domains + 1)}

    @property
    def forgetting_by_domain(self) -> dict[int, float]:
        return {t: forgetting(self.matrix, t)
                for t in range(2, self.n_domains + 1)}

    @property
    def forward_transfer(self) -> float | None:
        n = self.n_domains
        return forward_transfer(self.matrix, self.baseline_acc, n) if n >= 2 else None


def _baseline_accuracies(stream: DomainStream, config: TrainerConfig) -> list[float]:
    """Fresh-init accuracy per domain, averaged over several models."""
    accs = np.zeros(stream.n_domains)
    for m in range(config.baseline_models):
        fresh = config.arch.build_classifier(
            stream.input_dim, stream.num_classes,
            substream(config.seed, "baseline", m))
        for j in range(1, stream.n_domains + 1):
            accs[j - 1] += accuracy(fresh, stream.test(j))
    return (accs / config.baseline_models).tolist()


def check_sequence(config: TrainerConfig, n_domains: int) -> None:
    """Raise ConfigError, with `field` set, when a run could not finish."""
    if config.memory_capacity < n_domains:  # a domain would keep no exemplar
        raise ConfigError(f"memory_capacity must be >= n_domains = {n_domains}"
                          f", got {config.memory_capacity}", field="memory_capacity")
    check_method(config.method)
    for t in range(2, n_domains + 1):  # the coefficients train_domain builds
        if config.method not in (ADAPTIVE_METHOD, ORACLE_METHOD):
            from_preset(config.method, t)


def run_sequence(stream: DomainStream, config: TrainerConfig) -> SequenceResult:
    """Fold train_domain over the stream, evaluating all seen test splits
    after each domain (plus the upcoming split before, for forward
    transfer)."""
    if stream.n_domains < 1:
        raise ContractError("stream is empty")
    n = stream.n_domains
    check_sequence(config, n)
    mat = AccuracyMatrix(n)
    state = initial_state(config, stream.input_dim, stream.num_classes)
    baseline = _baseline_accuracies(stream, config)

    for t in range(1, n + 1):
        if t >= 2:
            mat.set(t - 1, t, accuracy(state.model, stream.test(t)))
        # two calls, not one with pooled=None: perfbench tags a train_domain
        # span by its domain only when called as (state, domain_data)
        if config.method == ORACLE_METHOD:
            state = train_domain(state, stream.train(t),
                                 pooled=_pooled_through(stream, t))
        else:
            state = train_domain(state, stream.train(t))
        for j in range(1, t + 1):
            mat.set(t, j, accuracy(state.model, stream.test(j)))

    return SequenceResult(
        method=config.method, seed=config.seed, matrix=mat,
        omega_by_domain={k: v.tolist() for k, v in state.omega_log.items()},
        baseline_acc=baseline,
        shortfalls=dict(state.bank.shortfalls),
        final_state=state)
