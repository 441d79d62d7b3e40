"""Per-domain training orchestration.

Each domain runs the three-way alternating update: the discriminator
descends the domain-confusion loss, the replay coefficients descend the
bound surrogate, and the model descends the weighted replay loss while the
encoder ascends the confusion loss.  The teacher is the model as the
previous domain left it: one pass at the start of each replay domain records
its outputs.  After each domain the replay memory is rebalanced.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, Tensor, add, mul, softmax
from .coeffs import from_preset, init_uniform
from .datagen import ConfigError, DomainStream, LabeledSet
# no caller here; perfbench wraps hdh_discriminator_estimate by this name
from .divergence import discriminator_divergences, hdh_discriminator_estimate
from .losses import (
    CoeffStats, HyperParams, StepBatch, classification_loss,
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


def _check_finite(loss: Tensor, name: str, method: str, t: int,
                  step: int) -> None:
    """Raise before a non-finite loss reaches backward() and the SGD step."""
    value = loss.item()
    if not np.isfinite(value):
        raise ContractError(
            f"{method}: {name} loss is {value!r} at domain {t}, step {step}")


def _erm_steps(model: Classifier, data: LabeledSet, sgd: SgdConfig,
               rng: np.random.Generator, method: str, t: int) -> None:
    for step in range(1, sgd.step_count + 1):
        batch = data.subset(_draw_rows(len(data), sgd.batch_size, rng))
        loss = classification_loss(model, batch)
        _check_finite(loss, "classification", method, t, step)
        loss.backward()
        sgd_step(model.params(), sgd.learning_rate)


def coeff_stats_for_step(eps_hist: np.ndarray, batch: StepBatch,
                         logits: np.ndarray, disc_logits: np.ndarray,
                         teacher_logits: np.ndarray) -> CoeffStats:
    """Assemble the per-step scalar statistics the bound surrogate needs
    from the step's three outputs on the record's rows and the teacher's
    0-1 error on each memory bucket.  The 0-1 errors are counted per segment
    and every divergence estimate is read off them; an empty segment raises."""
    dhat = discriminator_divergences(softmax(disc_logits).data, batch.bounds, batch.ids)
    pred = np.argmax(logits, axis=1)
    wrong, differs = (
        np.add.reduceat(miss, batch.bounds[:-1], dtype=np.int64) / np.diff(batch.bounds)
        for miss in (pred != batch.y, pred != np.argmax(teacher_logits, axis=1)))
    return CoeffStats(wrong[1:], differs[1:], float(differs[0]), dhat, eps_hist)


def descend_v01(coeff_logits: Tensor, stats: CoeffStats, c_gen: float,
                n_current: int, n_memory: list[int], steps: int,
                learning_rate: float) -> float:
    """Run plain gradient descent on the bound surrogate over the [t-1, 3]
    `coeff_logits`, in place, and return the final value.  For the
    frozen-instance comparisons against the fixed presets; the training step
    takes its one `v_01` step inline, so it can check the loss is finite
    before `backward()`."""
    value = None
    for _ in range(steps):
        loss = v_01(softmax(coeff_logits), stats, c_gen, n_current, n_memory)
        loss.backward()
        sgd_step([coeff_logits], learning_rate)
        value = loss.item()
    return value


def snapshot_history(model: Classifier, layout: StepBatch
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The teacher's pass over a replay domain's layout: its logits and
    embedding on every row and its 0-1 error on each memory bucket.  Runs on
    a view of `model` sharing its weights, so call it before the first step.
    One pass per segment keeps the logits bitwise those of a pass per set."""
    frozen = model.stopped()
    bounds = layout.bounds
    embedded = [frozen.embed(x).data for x in np.split(layout.x, bounds[1:-1])]
    logits = np.concatenate([frozen.predictor.logits(e).data for e in embedded])
    wrong = np.argmax(logits, axis=1) != layout.y
    eps = np.add.reduceat(wrong, bounds[:-1], dtype=np.int64) / np.diff(bounds)
    return logits, np.concatenate(embedded), eps[1:]


def train_domain(state: TrainState, domain_data: LabeledSet,
                 pooled: LabeledSet | None = None) -> TrainState:
    """Train one domain and return the state advanced to the next domain.

    Domain 1 and the FineTune preset reduce to plain SGD on the current
    data; Joint runs plain SGD on `pooled`, the union of domains 1..t,
    which it alone must pass.  Otherwise each step samples one current
    batch plus one batch per memory bucket and applies, in order: the
    discriminator update, the coefficient update (UDIL only), and
    the model update.  Every method fills memory bucket t from
    `domain_data`.
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
    rng = substream(config.seed, "batches", t)

    if pooled is not None:
        _erm_steps(state.model, pooled, config.sgd, rng, config.method, t)
    elif t == 1 or config.method == "FineTune":
        if t >= 2:
            state.omega_log[t] = from_preset(config.method, t)  # zeros
        _erm_steps(state.model, domain_data, config.sgd, rng, config.method, t)
    else:
        coeff_logits = init_uniform(t) if config.method == ADAPTIVE_METHOD else None
        disc = config.arch.build_discriminator(
            t, substream(config.seed, "disc", t))
        state.omega_log[t] = _train_domain_replay(
            state, domain_data, rng, disc, coeff_logits)

    state.bank.update_after_domain(domain_data, t, config.seed)
    state.t = t + 1
    return state


def _train_domain_replay(state: TrainState, domain_data: LabeledSet,
                         rng: np.random.Generator, disc: Mlp,
                         coeff_logits: Tensor | None) -> np.ndarray:
    """[domain_data; bucket 1; ...; bucket t-1] is laid out once, with the
    teacher's logits and embedding on it from the model before its first
    step; each step gathers its record (a current batch, then a memory batch
    per bucket) by drawn row index, and each network runs once on it for
    every loss term.  The triples are the method's preset, or with UDIL's
    [t-1, 3] `coeff_logits` their softmax, descended once per step; returns
    the domain's final triples."""
    config = state.config
    t, hp, sgd, model = state.t, config.hp, config.sgd, state.model
    adaptive = coeff_logits is not None
    omega = (softmax(coeff_logits).data if adaptive
             else from_preset(config.method, t))
    omega_lr = config.omega_lr if config.omega_lr is not None else sgd.learning_rate
    disc_lr = config.disc_lr if config.disc_lr is not None else sgd.learning_rate
    mem_batch = config.memory_batch if config.memory_batch is not None else sgd.batch_size
    if config.split_memory_batch:
        mem_batch = max(1, mem_batch // (t - 1))
    # a fixed preset with no cross-domain mass never trains the discriminator
    disc_on = hp.lambda_d > 0 and (
        adaptive or float(omega[:, 1].sum()) > 0.0)
    layout = StepBatch.stack(domain_data, state.bank.buckets)
    n_memory = np.diff(layout.bounds)[1:]
    teacher, teacher_emb, eps_hist = snapshot_history(model, layout)

    for step in range(1, sgd.step_count + 1):
        rows = [_draw_rows(len(domain_data), sgd.batch_size, rng)]
        rows += state.bank.sample_past(mem_batch, rng).values()  # in layout.ids order
        idx = np.concatenate([lo + r for lo, r in zip(layout.bounds, rows)])
        batch = StepBatch(layout.x[idx], layout.y[idx],
                          np.cumsum([0] + [len(r) for r in rows]), layout.ids, t)
        teacher_logits = teacher[idx]
        teacher_embedding = teacher_emb[idx] if hp.lambda_p > 0 else None
        embedding = model.encoder.logits(batch.x)
        logits = model.predictor.logits(embedding)

        if disc_on:
            disc_loss = mul(v_d(batch, omega, disc.logits(embedding.data)),
                            hp.lambda_d)
            _check_finite(disc_loss, "discriminator", config.method, t, step)
            # with no beta mass left the loss is a constant: nothing to train
            if disc_loss.requires_grad:
                disc_loss.backward()
                sgd_step(disc.params(), disc_lr)
        disc_logits = disc.stopped().logits(embedding) if adaptive or disc_on else None

        if adaptive:
            stats = coeff_stats_for_step(eps_hist, batch, logits.data,
                                         disc_logits.data, teacher_logits)
            loss = v_01(softmax(coeff_logits), stats, hp.c_gen,
                        len(domain_data), n_memory)
            _check_finite(loss, "coefficient", config.method, t, step)
            loss.backward()
            sgd_step([coeff_logits], omega_lr)
            omega = softmax(coeff_logits).data

        objective = v_l(batch, omega, logits, teacher_logits)
        aux = encoder_aux_loss(embedding, disc_logits, teacher_embedding,
                               omega, batch, hp, rng)
        objective = add(objective, aux)
        _check_finite(objective, "model", config.method, t, step)
        objective.backward()
        sgd_step(model.params(), sgd.learning_rate)
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
