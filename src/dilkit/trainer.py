"""Per-domain training orchestration.

Each domain runs the three-way alternating update: the discriminator
descends the domain-confusion loss, the replay coefficients descend the
bound surrogate, and the model descends the weighted replay loss while the
encoder ascends the confusion loss.  Between domains the model is
snapshotted as the frozen teacher and the replay memory is rebalanced.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, Tensor, add, mul, softmax
from .coeffs import CoeffSimplex, from_preset, init_uniform
from .datagen import DomainStream, LabeledSet
# no caller here; perfbench wraps hdh_discriminator_estimate by this name
from .divergence import discriminator_divergences, hdh_discriminator_estimate
from .losses import (
    CoeffStats, HistorySnapshot, HyperParams, classification_loss,
    encoder_aux_loss, erm01, stack_segments, v_01, v_d, v_l,
)
from .membank import MemoryBank
from .metrics import (
    AccuracyMatrix, accuracy, avg_acc, forgetting, forward_transfer,
)
from .models import ArchConfig, Classifier, Mlp, SgdConfig, sgd_step
from .seeding import substream

ADAPTIVE_METHOD = "UDIL"
ORACLE_METHOD = "Joint"


@dataclass
class TrainerConfig:
    method: str
    seed: int
    arch: ArchConfig = field(default_factory=ArchConfig)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    hp: HyperParams = field(default_factory=HyperParams)
    memory_capacity: int = 200
    omega_lr: float | None = None      # default: sgd.learning_rate
    disc_lr: float | None = None       # default: sgd.learning_rate
    memory_batch: int | None = None    # per past domain; default: sgd.batch_size
    split_memory_batch: bool = False   # split one batch across past domains
    baseline_models: int = 5


@dataclass
class TrainState:
    """Mutable state threaded through the per-domain fold: only what lives
    across domains.

    Between domains: ``t`` is the next domain to train and ``history`` is
    the frozen teacher from domain t-1 (absent before domain 2).  The
    discriminator (arity t) and the coefficient simplex are built when
    domain t's training starts and dropped when it ends; ``omega_log``
    keeps each domain's final triples.
    """

    model: Classifier
    history: HistorySnapshot | None
    bank: MemoryBank
    config: TrainerConfig
    t: int
    omega_log: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.t < 1:
            raise ContractError("domain index t must be >= 1")
        if (self.history is None) != (self.t == 1):
            raise ContractError("history must be present exactly when t >= 2")


def initial_state(config: TrainerConfig, input_dim: int,
                  n_classes: int) -> TrainState:
    model = config.arch.build_classifier(
        input_dim, n_classes, substream(config.seed, "init"))
    return TrainState(model=model, history=None,
                      bank=MemoryBank(config.memory_capacity),
                      config=config, t=1)


def _make_simplex(method: str, t: int) -> CoeffSimplex:
    if method == ADAPTIVE_METHOD:
        return init_uniform(t)
    return from_preset(method, t)


def _sample_batch(data: LabeledSet, batch_size: int,
                  rng: np.random.Generator) -> LabeledSet:
    n = len(data)
    idx = rng.choice(n, size=min(batch_size, n), replace=False)
    return data.subset(np.sort(idx))


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
        batch = _sample_batch(data, sgd.batch_size, rng)
        loss = classification_loss(model, batch)
        _check_finite(loss, "classification", method, t, step)
        loss.backward()
        sgd_step(model.params(), sgd.learning_rate)


def coeff_stats_for_step(model: Classifier, history: HistorySnapshot,
                         disc: Mlp, current_batch: LabeledSet,
                         past_batches: dict[int, LabeledSet]) -> CoeffStats:
    """Assemble the per-step scalar statistics the bound surrogate needs,
    from the sampled batches and the frozen history constants.  One stopped
    encoder pass embeds the stacked batch (current rows, then each memory
    batch in sorted domain order); the predictor and the discriminator each
    run once on that embedding, and the teacher once on the batch.  The 0-1
    errors and every divergence estimate are read off the segments."""
    ids = sorted(past_batches)
    batches = [current_batch] + [past_batches[i] for i in ids]
    if any(len(b) == 0 for b in batches):
        raise ContractError("coeff_stats_for_step: empty batch")
    x, bounds = stack_segments([b.x for b in batches])
    stopped = model.stopped()
    embedding = stopped.encoder.logits(x)
    pred = np.argmax(stopped.predictor.logits(embedding).data, axis=1)
    differs = pred != history.classifier.predict(x)
    segs = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    eps_replay = np.array([np.mean(pred[s] != b.y)
                           for s, b in zip(segs[1:], batches[1:])])
    eps_intra = np.array([np.mean(differs[s]) for s in segs[1:]])
    eps_cross = float(np.mean(differs[segs[0]]))
    probs = softmax(disc.stopped().logits(embedding)).data
    dhat = discriminator_divergences(probs, bounds, ids)
    eps_hist = np.array([history.cached_consts[i] for i in ids])
    return CoeffStats(eps_replay, eps_intra, eps_cross, dhat, eps_hist)


def descend_v01(simplex: CoeffSimplex, stats: CoeffStats, c_gen: float,
                n_current: int, n_memory: list[int], steps: int,
                learning_rate: float) -> float:
    """Run plain gradient descent on the bound surrogate in logit space and
    return the final value.  Used by the coefficient-update step and by the
    frozen-instance comparisons against the fixed presets."""
    if simplex.mode != "adaptive":
        raise ContractError("only adaptive coefficients can be descended")
    value = None
    for _ in range(steps):
        loss = v_01(simplex, stats, c_gen, n_current, n_memory)
        loss.backward()
        sgd_step([simplex.logits], learning_rate)
        value = loss.item()
    return value


def snapshot_history(state: TrainState) -> HistorySnapshot:
    """Freeze the trained model as the next domain's teacher and cache its
    0-1 error on every memory bucket."""
    frozen = state.model.copy(frozen=True)
    cached = {i: erm01(frozen, bucket)
              for i, bucket in state.bank.buckets.items()}
    return HistorySnapshot(frozen, cached)


def train_domain(state: TrainState, domain_data: LabeledSet,
                 pooled: LabeledSet | None = None) -> TrainState:
    """Train one domain and return the state advanced to the next domain.

    Domain 1 and the FineTune preset reduce to plain SGD on the current
    data; Joint runs plain SGD on `pooled`, the union of domains 1..t,
    which it alone must pass.  Otherwise each step samples one current
    batch plus one batch per memory bucket and applies, in order: the
    discriminator update, the coefficient update (adaptive mode only), and
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
    rng = substream(config.seed, "batches", t)

    simplex = None
    if pooled is not None:
        _erm_steps(state.model, pooled, config.sgd, rng, config.method, t)
    elif t == 1 or config.method == "FineTune":
        if t >= 2:
            simplex = _make_simplex(config.method, t)  # zeros, for the log
        _erm_steps(state.model, domain_data, config.sgd, rng, config.method, t)
    else:
        simplex = _make_simplex(config.method, t)
        disc = config.arch.build_discriminator(
            t, substream(config.seed, "disc", t))
        _train_domain_replay(state, domain_data, rng, disc, simplex)

    if simplex is not None:
        state.omega_log[t] = simplex.triples()

    state.bank.update_after_domain(domain_data, t, config.seed)
    state.history = snapshot_history(state)
    state.t = t + 1
    return state


def _train_domain_replay(state: TrainState, domain_data: LabeledSet,
                         rng: np.random.Generator, disc: Mlp,
                         simplex: CoeffSimplex) -> None:
    config = state.config
    t, hp, sgd = state.t, config.hp, config.sgd
    model, history = state.model, state.history
    adaptive = simplex.mode == "adaptive"
    omega_lr = config.omega_lr if config.omega_lr is not None else sgd.learning_rate
    disc_lr = config.disc_lr if config.disc_lr is not None else sgd.learning_rate
    mem_batch = config.memory_batch if config.memory_batch is not None else sgd.batch_size
    if config.split_memory_batch:
        mem_batch = max(1, mem_batch // (t - 1))
    n_memory = [len(state.bank.buckets[i]) for i in sorted(state.bank.buckets)]
    # a fixed preset with no cross-domain mass never trains the discriminator
    fixed_beta_mass = (not adaptive
                       and float(simplex.triples()[:, 1].sum()) > 0.0)

    for step in range(1, sgd.step_count + 1):
        current = _sample_batch(domain_data, sgd.batch_size, rng)
        past = state.bank.sample_past(mem_batch, rng)
        past_x = {i: b.x for i, b in past.items()}

        if hp.lambda_d > 0 and (adaptive or fixed_beta_mass):
            omega_frozen = simplex.triples()
            disc_loss = mul(v_d(disc, model.stopped().encoder, omega_frozen,
                                current.x, past_x, t), hp.lambda_d)
            _check_finite(disc_loss, "discriminator", config.method, t, step)
            # with no beta mass left the loss is a constant: nothing to train
            if disc_loss.requires_grad:
                disc_loss.backward()
                sgd_step(disc.params(), disc_lr)

        if adaptive:
            stats = coeff_stats_for_step(model, history, disc, current, past)
            loss = v_01(simplex, stats, hp.c_gen, len(domain_data), n_memory)
            _check_finite(loss, "coefficient", config.method, t, step)
            loss.backward()
            sgd_step([simplex.logits], omega_lr)

        omega_frozen = simplex.triples()
        objective = v_l(model, history, omega_frozen, current, past)
        aux = encoder_aux_loss(
            model.encoder, disc.stopped(), history.classifier.encoder,
            omega_frozen, current, past, t, hp, rng)
        objective = add(objective, aux)
        _check_finite(objective, "model", config.method, t, step)
        objective.backward()
        sgd_step(model.params(), sgd.learning_rate)


def _pooled_through(stream: DomainStream, t: int) -> LabeledSet:
    xs = [stream.train(i).x for i in range(1, t + 1)]
    ys = [stream.train(i).y for i in range(1, t + 1)]
    return LabeledSet(np.concatenate(xs), np.concatenate(ys), t)


@dataclass
class SequenceResult:
    method: str
    seed: int
    n_domains: int
    matrix: AccuracyMatrix
    omega_by_domain: dict[int, list[list[float]]]
    avg_acc_by_domain: dict[int, float]
    forgetting_by_domain: dict[int, float]
    forward_transfer: float | None
    baseline_acc: list[float]
    shortfalls: dict[int, int]
    final_state: TrainState | None = None


def _baseline_accuracies(stream: DomainStream, config: TrainerConfig) -> list[float]:
    """Fresh-init accuracy per domain, averaged over several models."""
    accs = np.zeros(stream.n_domains)
    for m in range(config.baseline_models):
        fresh = config.arch.build_classifier(
            stream.input_dim, stream.num_classes,
            substream(config.seed, "baseline", m))
        for j in range(1, stream.n_domains + 1):
            accs[j - 1] += accuracy(fresh, stream.test(j))
    return list(accs / config.baseline_models)


def run_sequence(stream: DomainStream, config: TrainerConfig) -> SequenceResult:
    """Fold train_domain over the stream, evaluating all seen test splits
    after each domain (plus the upcoming split before, for forward
    transfer)."""
    if stream.n_domains < 1:
        raise ContractError("stream is empty")
    n = stream.n_domains
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
        method=config.method, seed=config.seed, n_domains=n, matrix=mat,
        omega_by_domain={k: v.tolist() for k, v in state.omega_log.items()},
        avg_acc_by_domain={t: avg_acc(mat, t) for t in range(1, n + 1)},
        forgetting_by_domain={t: forgetting(mat, t) for t in range(2, n + 1)},
        forward_transfer=forward_transfer(mat, baseline, n) if n >= 2 else None,
        baseline_acc=baseline,
        shortfalls=dict(state.bank.shortfalls),
        final_state=state)
