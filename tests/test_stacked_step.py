"""Differential tests against the per-domain reference in
reference_step.py, on random states: the loss terms, each fed the passes
a step runs over the record's rows, and the coefficient statistics and
divergence estimate; the encoder terms as the step sums them; the
trainer's draws, gathered from one per-domain layout, against the
reference's sampled and stacked sets; `trainer.replay_step`, whose phases
and encoder terms share their passes, called directly against the
reference's phase order, which shares none of the library's loss terms,
and the record it returns for a preset; every step of a run against the
step as one autodiff graph, bit for bit; the forwards and Tensors a step
makes; and the trainer's domain-start teacher pass against the snapshot
it replaced."""
import copy
import dataclasses
import inspect
from functools import reduce
from operator import iadd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_step as ref
from dilkit import trainer
from dilkit.autodiff import ContractError, Tensor, softmax, softmax_parts
from dilkit.coeffs import TRIPLE_PRESETS, from_preset
from dilkit.datagen import LabeledSet, gen_hd_balls
from dilkit.divergence import hdh_discriminator_estimate
from dilkit.losses import (N_NEGATIVES, HyperParams, StepBatch,
                           encoder_aux_loss, v_d, v_l, v_p)
from dilkit.membank import MemoryBank
from dilkit.models import ArchConfig, Classifier, Mlp, SgdConfig
from dilkit.trainer import TrainerConfig, TrainState, coeff_stats_for_step
from gradcheck import closed_form_node
from reference_ops import add, grads, leaves, logits_node, mul, stopped

IN_DIM, EMBED, N_CLASSES = 4, 5, 3
KINDS = ("UDIL", "ER", "LwF", "FineTune", "mixed")


def _classifier(rng, frozen=False):
    clf = Classifier(Mlp([IN_DIM, 6, EMBED], rng=rng),
                     Mlp([EMBED, N_CLASSES], rng=rng))
    return stopped(clf) if frozen else clf


def _batch(rng, n, domain):
    # a wide spread, so the student and teacher disagree on some rows
    return LabeledSet(rng.normal(size=(n, IN_DIM)) * 2.0,
                      rng.integers(0, N_CLASSES, n), domain)


def _omega(rng, kind, t):
    """[t-1, 3] triples; ER, LwF and FineTune rows carry zero columns."""
    if kind == "UDIL":
        return rng.dirichlet(np.ones(3), size=t - 1)
    if kind == "ER":
        return np.tile([0.0, 0.0, 1.0], (t - 1, 1))
    if kind == "LwF":
        return np.tile([0.0, 1.0, 0.0], (t - 1, 1))
    if kind == "FineTune":
        return np.zeros((t - 1, 3))
    # one random zero column per row
    rows = rng.dirichlet(np.ones(3), size=t - 1)
    rows[np.arange(t - 1), rng.integers(0, 3, t - 1)] = 0.0
    return rows


def _state(seed, t, kind):
    """Random student, teacher, discriminator, omega and batches with
    unequal segment sizes (short buckets, split memory batches)."""
    rng = np.random.default_rng(seed)
    h = _classifier(rng)
    teacher = _classifier(rng, frozen=True)
    disc = Mlp([EMBED, 6, t], rng=rng)
    current = _batch(rng, int(rng.integers(1, 10)), t)
    past = {i: _batch(rng, int(rng.integers(1, 8)), i) for i in range(1, t)}
    history = ref.HistorySnapshot(teacher,
                                  {i: float(rng.random()) for i in past})
    return h, history, disc, _omega(rng, kind, t), current, past


def _eps_hist(history):
    """The snapshot's per-bucket 0-1 errors as coeff_stats_for_step takes
    them, domain i at index i - 1."""
    return np.array([history.cached_consts[i]
                     for i in sorted(history.cached_consts)])


def _counts(batch):
    """Positive sample counts for V_01's radical, one per segment of the
    record: the statistics only carry them."""
    return batch.layout.sizes + 10.0


def _outputs(h, teacher, disc, batch):
    """What a step hands coeff_stats_for_step on the record's rows: the
    student's logits, the stopped discriminator's softmax on the student's
    embedding, and the teacher's argmax."""
    frozen = stopped(h)
    embedding = frozen.encoder.logits(batch.x)
    return (frozen.predictor.logits(embedding),
            softmax(disc.stopped().logits(embedding)),
            teacher.predict(batch.x))


def _v_l(h, teacher, omega, current, past):
    """The library's V_l on the record of `current` and `past`, from the
    student's logits and the teacher's probabilities on its rows, as a node
    over the logits."""
    batch = StepBatch.stack(current, past)
    probs = softmax(teacher.logits(batch.x))
    return closed_form_node(lambda z: v_l(batch, omega, z, probs),
                            logits_node(h, batch.x))


def _v_d(disc, encoder, omega, current, past):
    """The library's V_d on the record of `current` and `past`, from the
    discriminator's logits on the encoder's embedding of its rows, as a
    node over the logits."""
    batch = StepBatch.stack(current, past)
    return closed_form_node(lambda z: v_d(batch, omega, z, 1.0, None),
                            logits_node(disc, logits_node(encoder, batch.x)))


def _value_and_grads(loss, params):
    for p in params:
        p.grad = None
    loss.backward()
    out = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
           for p in params]
    for p in params:
        p.grad = None
    return loss.item(), out


def _assert_same(new_loss, ref_loss, params):
    new_val, new_grads = _value_and_grads(new_loss, params)
    ref_val, ref_grads = _value_and_grads(ref_loss, params)
    assert abs(new_val - ref_val) <= 1e-10
    for got, want in zip(new_grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


CASES = [(t, kind, seed) for t in (2, 3, 4, 5) for kind in KINDS
         for seed in (0, 1)]


@pytest.mark.parametrize("t,kind,seed", CASES)
def test_v_l_matches_reference(t, kind, seed):
    h, history, _, omega, current, past = _state(100 * t + seed, t, kind)
    _assert_same(_v_l(h, history.classifier, omega, current, past),
                 ref.v_l(h, history, omega, current, past), leaves(h))


@pytest.mark.parametrize("t,kind,seed", CASES)
def test_v_d_matches_reference(t, kind, seed):
    h, _, disc, omega, current, past = _state(200 * t + seed, t, kind)
    past_x = {i: b.x for i, b in past.items()}
    params = leaves(disc) + leaves(h.encoder)
    _assert_same(_v_d(disc, h.encoder, omega, current, past),
                 ref.v_d(disc, h.encoder, omega, current.x, past_x, t), params)


@pytest.mark.parametrize("t,seed", [(t, seed) for t in (2, 3, 4, 5)
                                    for seed in (0, 1)])
def test_v_p_matches_reference(t, seed):
    h, _, _, _, current, past = _state(300 * t + seed, t, "UDIL")
    prev = _classifier(np.random.default_rng(seed)).encoder
    past_x = {i: b.x for i, b in past.items()}
    batch = StepBatch.stack(current, past)
    new = closed_form_node(lambda z: v_p(batch, z, prev.logits(batch.x), 1.0),
                           logits_node(h.encoder, batch.x))
    _assert_same(new, ref.v_p(h.encoder, prev, past_x), leaves(h.encoder))


@pytest.mark.parametrize("t,seed", [(t, seed) for t in (2, 3, 4, 5)
                                    for seed in range(4)])
def test_coeff_stats_match_reference_exactly(t, seed):
    h, history, disc, _, current, past = _state(400 * t + seed, t, "UDIL")
    batch = StepBatch.stack(current, past)
    got = coeff_stats_for_step(_eps_hist(history), _counts(batch), batch,
                               *_outputs(h, history.classifier, disc, batch))
    want = ref.coeff_stats_for_step(h, history, disc, current, past,
                                    _counts(batch))
    for name in ("eps_replay", "eps_intra", "dhat", "eps_hist", "counts"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.eps_cross == want.eps_cross


@pytest.mark.parametrize("t", [2, 3, 5])
def test_coeff_stats_build_no_gradient_graph(monkeypatch, t):
    """coeff_stats_for_step builds no Tensor, so none requires a gradient:
    the discriminator's softmax it reads off is a plain array."""
    h, history, disc, _, current, past = _state(450 + t, t, "UDIL")
    batch = StepBatch.stack(current, past)
    outputs = _outputs(h, history.classifier, disc, batch)
    tracked = []
    init = Tensor.__init__

    def recording_init(self, data, requires_grad=False, _prev=()):
        tracked.append(bool(requires_grad))
        init(self, data, requires_grad, _prev)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    coeff_stats_for_step(_eps_hist(history), _counts(batch), batch, *outputs)
    assert tracked == []


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_coeff_stats_runs_each_network_once(monkeypatch, t):
    """No Mlp.logits call at any t: the step runs each network once and
    hands coeff_stats_for_step its outputs on the stacked batch."""
    h, history, disc, _, current, past = _state(700 + t, t, "UDIL")
    batch = StepBatch.stack(current, past)
    outputs = _outputs(h, history.classifier, disc, batch)
    calls = []
    logits = Mlp.logits

    def counting_logits(self, x):
        calls.append(self)
        return logits(self, x)

    monkeypatch.setattr(Mlp, "logits", counting_logits)
    coeff_stats_for_step(_eps_hist(history), _counts(batch), batch, *outputs)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 5), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from(("plain", "tie", "scaled")),
       st.integers(0, 2 ** 31 - 1))
def test_divergence_estimate_matches_reference_exactly(data, arity, n_cur,
                                                       n_past, mode, seed):
    """One stacked forward gives the reference's two-forward estimate
    exactly, at every past index: with a tie (delta = 0 on every row, the
    two columns' last-layer weights equal) and with logits scaled by 1e3."""
    past_index = data.draw(st.integers(1, arity - 1))
    rng = np.random.default_rng(seed)
    enc = Mlp([IN_DIM, 6, EMBED], rng=rng)
    disc = Mlp([EMBED, 6, arity], rng=rng)
    w, b = disc.layers[-1]
    b[...] = rng.normal(size=arity)
    if mode == "tie":
        w[:, past_index - 1] = w[:, arity - 1]
        b[past_index - 1] = b[arity - 1]
    elif mode == "scaled":
        w *= 1e3
        b *= 1e3
    cur = rng.normal(size=(n_cur, IN_DIM)) * 2.0
    past_x = rng.normal(size=(n_past, IN_DIM)) * 2.0 + rng.normal(size=IN_DIM)
    got = hdh_discriminator_estimate(disc, enc, cur, past_x, past_index)
    want = ref.hdh_discriminator_estimate(disc, enc, cur, past_x, past_index)
    assert got == want
    if mode == "tie":
        assert got == 0.0


def _outcome(fn):
    try:
        return fn().item()
    except ContractError:
        return "ContractError"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("empty", [0, 1, 2])
def test_empty_segment_contracts_match_reference(kind, empty):
    """An empty segment raises exactly when the reference raises, and
    otherwise gives the reference's value."""
    h, history, disc, omega, current, past = _state(500 + empty, 3, kind)
    batches = [current, past[1], past[2]]
    batches[empty] = batches[empty].subset(np.arange(0))
    current, past = batches[0], {1: batches[1], 2: batches[2]}
    past_x = {i: b.x for i, b in past.items()}
    calls = [
        (lambda: _v_l(h, history.classifier, omega, current, past),
         lambda: ref.v_l(h, history, omega, current, past)),
        (lambda: _v_d(disc, h.encoder, omega, current, past),
         lambda: ref.v_d(disc, h.encoder, omega, current.x, past_x, 3)),
    ]
    for new, old in calls:
        got, want = _outcome(new), _outcome(old)
        if want == "ContractError":
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-10)
    batch = StepBatch.stack(current, past)
    with pytest.raises(ContractError):
        coeff_stats_for_step(_eps_hist(history), _counts(batch), batch,
                             *_outputs(h, history.classifier, disc, batch))
    with pytest.raises(ContractError):
        ref.coeff_stats_for_step(h, history, disc, current, past,
                                 _counts(batch))


def test_v_l_teacher_arity_contract_kept():
    h, history, _, _, current, past = _state(600, 2, "UDIL")
    wide = Classifier(history.classifier.encoder,
                      Mlp([EMBED, N_CLASSES + 1],
                          rng=np.random.default_rng(0)))
    omega = np.array([[0.5, 0.0, 0.5]])
    with pytest.raises(ContractError, match="arity"):
        _v_l(h, wide, omega, current, past)
    with pytest.raises(ContractError, match="arity"):
        ref.v_l(h, ref.HistorySnapshot(wide, history.cached_consts), omega,
                current, past)


# -- precomputed passes ---------------------------------------------------

@pytest.mark.parametrize("t,kind,seed", CASES)
def test_losses_fed_shared_passes_match_their_own_forwards(t, kind, seed):
    """v_l given the student's and the teacher's logits on the record's
    rows matches the per-domain reference, and so does v_d given the
    discriminator's logits on them in both forms a step feeds it: the
    stopped discriminator through a graph into the encoder, and the
    discriminator on a stopped embedding.  Segments without weight (ER,
    LwF, FineTune, mixed) keep their rows at zero weight.
    coeff_stats_for_step given all three equals the per-domain reference
    exactly."""
    h, history, disc, omega, current, past = _state(800 * t + seed, t, kind)
    batch = StepBatch.stack(current, past)
    x = batch.x
    past_x = {i: b.x for i, b in past.items()}
    teacher_logits = history.classifier.logits(x)
    probs = softmax(teacher_logits)
    _assert_same(closed_form_node(lambda z: v_l(batch, omega, z, probs),
                                  logits_node(h, x)),
                 ref.v_l(h, history, omega, current, past), leaves(h))
    d_stopped = disc.stopped()

    def v_d_at(z):
        return v_d(batch, omega, z, 1.0, None)
    stopped_logits = logits_node(d_stopped, logits_node(h.encoder, x))
    _assert_same(closed_form_node(v_d_at, stopped_logits),
                 ref.v_d(d_stopped, h.encoder, omega, current.x, past_x, t),
                 leaves(h.encoder))
    disc_logits = logits_node(disc, h.encoder.logits(x))
    _assert_same(closed_form_node(v_d_at, disc_logits),
                 ref.v_d(disc, h.encoder.stopped(), omega, current.x, past_x,
                         t),
                 leaves(disc))
    got = coeff_stats_for_step(
        _eps_hist(history), _counts(batch), batch, h.logits(x),
        softmax(disc.logits(h.encoder.logits(x))),
        np.argmax(teacher_logits, axis=1))
    want = ref.coeff_stats_for_step(h, history, disc, current, past,
                                    _counts(batch))
    for name in ("eps_replay", "eps_intra", "dhat", "eps_hist", "counts"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.eps_cross == want.eps_cross


AUX_HP = HyperParams(lambda_d=0.3, lambda_p=0.2, lambda_s=0.1)


@pytest.mark.parametrize("t,kind,seed", CASES)
def test_encoder_aux_loss_matches_its_terms_own_forwards(t, kind, seed):
    """encoder_aux_loss fed one student embedding of the record's rows, the
    stopped discriminator's logits on it and the teacher's embedding of the
    rows equals -lambda_d * V_d + lambda_p * V_p + lambda_s * V_s, each the
    per-domain reference running its own forwards: the value within 1e-12,
    and every encoder gradient within 1e-10 once its V_d logits gradient
    and its V_p + V_s embedding gradient are backpropagated as the step
    does.  From equal rng states, both leave the rng in equal states."""
    h, history, disc, omega, current, past = _state(1100 * t + seed, t, kind)
    batch = StepBatch.stack(current, past)
    enc, teacher, d_stopped = h.encoder, history.classifier.encoder, disc.stopped()
    past_x = {i: b.x for i, b in past.items()}
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    encoded = enc.forward(batch.x)
    disc_acts = d_stopped.forward(encoded[-1])
    got_val, disc_grad, emb_grad = encoder_aux_loss(
        encoded[-1], disc_acts[-1], softmax_parts(disc_acts[-1]),
        teacher.logits(batch.x), omega,
        batch, AUX_HP, rng)
    into = [emb_grad] + ([] if disc_grad is None else
                         [d_stopped.backward(disc_acts, disc_grad, True)])
    enc.backward(encoded, reduce(iadd, into), False)
    got_grads = grads(enc)
    for p in leaves(enc):
        p.grad = None
    vd = ref.v_d(d_stopped, enc, omega, current.x, past_x, t)
    vp = ref.v_p(enc, teacher, past_x)
    vs = ref.v_s(enc, batch, N_NEGATIVES, ref_rng)
    want = add(add(mul(vd, -AUX_HP.lambda_d), mul(vp, AUX_HP.lambda_p)),
               mul(vs, AUX_HP.lambda_s))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    want_val, want_grads = _value_and_grads(want, leaves(enc))
    assert abs(got_val - want_val) <= 1e-12
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)


# -- one full step -------------------------------------------------------

def _step_state(seed, t, hp, steps=1, **config):
    """A UDIL state at domain t with random memory buckets, a teacher other
    than the student, a discriminator, random coefficient logits and the
    domain's data."""
    rng = np.random.default_rng(seed)
    bank = MemoryBank(100)
    bank.buckets = {i: _batch(rng, int(rng.integers(4, 15)), i)
                    for i in range(1, t)}
    config = {"memory_batch": int(rng.integers(1, 8)), **config}
    config = TrainerConfig("UDIL", seed, hp=hp, omega_lr=0.7, disc_lr=0.4,
                           sgd=SgdConfig(0.3, steps, int(rng.integers(1, 12))),
                           **config)
    teacher = _classifier(rng)
    state = TrainState(_classifier(rng), bank, config, t)
    disc = Mlp([EMBED, 6, t], rng=rng)
    coeff_logits = rng.normal(size=(t - 1, 3))
    return state, teacher, disc, coeff_logits, _batch(rng, 30, t)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_draws_match_reference_sampling(monkeypatch, t, split, seed):
    """From equal rng states, each of three replay steps gathers the
    reference's x, y, segment bounds and teacher argmax bitwise (as handed
    to replay_step; the teacher is the model at domain start), and the
    steps leave the rng in the reference's state.  Bucket 1 holds one row,
    shorter than any memory batch; with `split` the memory batch is divided
    over t - 1."""
    state, _, disc, coeff_logits, domain = _step_state(
        1000 * t + seed, t, HyperParams(), steps=3, memory_batch=8,
        split_memory_batch=split)
    bank = state.bank
    bank.buckets[1] = bank.buckets[1].subset(np.arange(1))
    history = ref.snapshot_history(state.model, bank)
    teacher = {**history.logits, t: history.classifier.logits(domain.x)}
    seen = []
    replay_step = trainer.replay_step
    parameters = inspect.signature(replay_step)

    def recording_step(*args):
        seen.append(parameters.bind(*args).arguments)
        return replay_step(*args)

    monkeypatch.setattr(trainer, "replay_step", recording_step)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trainer._train_steps(state, domain, bank.buckets, rng, disc, coeff_logits)
    assert len(seen) == 3
    for args in seen:
        batch, (_, teacher_pred, _) = args["batch"], args["teacher"]
        _, _, x, y, bounds, ref_teacher = ref.sample_step(
            domain, bank, teacher, state.config.sgd.batch_size, 8, split,
            ref_rng)
        np.testing.assert_array_equal(batch.x, x)
        np.testing.assert_array_equal(batch.y, y)
        np.testing.assert_array_equal(batch.layout.bounds, bounds)
        np.testing.assert_array_equal(teacher_pred,
                                      np.argmax(ref_teacher, axis=1))
        assert batch.layout.ids == tuple(range(1, t)) and batch.layout.t == t
        assert bounds[2] - bounds[1] == 1  # the short bucket: all of it
    # lambda_s = 0: the draws are the steps' only use of the rng
    assert rng.bit_generator.state == ref_rng.bit_generator.state


HPS = [HyperParams(lambda_d=0.5, c_gen=1.0),
       HyperParams(lambda_d=0.05, c_gen=0.3, lambda_p=0.2, lambda_s=0.1)]


def _step_inputs(state, teacher, domain, rng):
    """A replay step's inputs, drawn as the trainer draws them: the record of
    a current batch and a memory batch per bucket, the teacher's softmax,
    argmax and embedding (with lambda_p > 0) on its rows from its pass over
    the domain's pool, its error on each bucket and the pool's segment sizes;
    then the drawn current and memory sets themselves."""
    config, bank = state.config, state.bank
    pool = StepBatch.stack(domain, bank.buckets)
    probs, pred, emb, eps_hist = trainer.snapshot_history(teacher, pool)
    current_rows = trainer._draw_rows(len(domain), config.sgd.batch_size, rng)
    past_rows = bank.sample_past(config.memory_batch, rng)
    current = domain.subset(current_rows)
    past = {i: bank.buckets[i].subset(rows) for i, rows in past_rows.items()}
    batch = StepBatch.stack(current, past)
    idx = (np.concatenate([current_rows, *past_rows.values()])
           + np.repeat(pool.layout.bounds[:-1], batch.layout.sizes))
    teacher_rows = (probs[idx], pred[idx],
                    emb[idx] if config.hp.lambda_p > 0 else None)
    return batch, teacher_rows, eps_hist, pool.layout.sizes, current, past


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("hp_index", range(len(HPS)))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_step_matches_reference_phase_order(t, hp_index, seed):
    """One library step (one student pass, one stopped-discriminator pass,
    the teacher's rows gathered from its pass over the domain's pool)
    against reference_step.replay_step on the same draws: the same
    coefficient statistics exactly, the same discriminator and coefficient
    updates, and the model loss and every model gradient (read off the
    model's update) within 1e-10."""
    hp = HPS[hp_index]
    state, teacher, disc, coeff_logits, domain = _step_state(
        900 * t + 10 * hp_index + seed, t, hp)
    model, bank = state.model, state.bank
    history = ref.snapshot_history(teacher, bank)
    ref_model, ref_disc = copy.deepcopy((model, disc))
    ref_logits = Tensor(coeff_logits.copy(), requires_grad=True)
    rng = np.random.default_rng(seed)
    batch, teacher_rows, eps_hist, sizes, current, past = _step_inputs(
        state, teacher, domain, rng)
    ref_rng = copy.deepcopy(rng)  # the stream V_s draws from next
    record = trainer.replay_step(state, disc, disc.stopped(), eps_hist, sizes,
                                 rng, 1, batch, teacher_rows,
                                 softmax(coeff_logits), coeff_logits)

    n_memory = [len(bank.buckets[i]) for i in sorted(bank.buckets)]
    ref_stats, ref_objective = ref.replay_step(
        ref_model, history, ref_disc, ref_logits, current, past, t, hp,
        len(domain), n_memory, ref_rng, 0.4, 0.7)
    for name in ("eps_replay", "eps_intra", "dhat", "eps_hist", "counts"):
        np.testing.assert_array_equal(getattr(record.stats, name),
                                      getattr(ref_stats, name))
    assert record.stats.eps_cross == ref_stats.eps_cross
    assert None not in (record.disc_loss, record.coeff_loss)
    np.testing.assert_allclose(coeff_logits, ref_logits.data,
                               rtol=0, atol=1e-10)
    np.testing.assert_array_equal(record.omega, softmax(coeff_logits))
    for p, r in zip(leaves(disc), leaves(ref_disc)):
        np.testing.assert_allclose(p.data, r.data, rtol=0, atol=1e-10)
    ref_value, ref_grads = _value_and_grads(ref_objective, leaves(ref_model))
    assert abs(record.model_loss - ref_value) <= 1e-10
    lr = state.config.sgd.learning_rate
    assert len(leaves(model)) == len(ref_grads)
    for p, before, want in zip(leaves(model), leaves(ref_model), ref_grads):
        np.testing.assert_allclose((before.data - p.data) / lr, want,
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("t", [2, 4])
@pytest.mark.parametrize("method,lambda_d", [("ER", 0.05), ("LwF", 0.05),
                                             ("LwF", 0.0)])
def test_replay_step_record_of_a_preset(t, method, lambda_d):
    """A preset's step keeps its triples and computes no coefficient
    statistics and no V_01 value.  Its discriminator trains only with beta
    mass and lambda_d > 0, so only LwF at lambda_d = 0.05 records a
    discriminator loss."""
    state, teacher, disc, _, domain = _step_state(
        50 * t + int(100 * lambda_d), t, HyperParams(lambda_d=lambda_d))
    state.config = dataclasses.replace(state.config, method=method)
    batch, teacher_rows, eps_hist, sizes, *_ = _step_inputs(
        state, teacher, domain, np.random.default_rng(t))
    record = trainer.replay_step(state, disc, disc.stopped(), eps_hist, sizes,
                                 np.random.default_rng(t), 1, batch,
                                 teacher_rows, from_preset(method, t), None)
    assert record.stats is None and record.coeff_loss is None
    np.testing.assert_array_equal(record.omega, from_preset(method, t))
    trains_disc = method == "LwF" and lambda_d > 0
    assert (record.disc_loss is not None) == trains_disc
    assert np.isfinite(record.model_loss)


FROZEN_METHODS = ("UDIL",) + tuple(m for m in TRIPLE_PRESETS if m != "ESM-ER")


def _same_bits(got, want, what):
    if want is None or got is None:
        assert got is None and want is None, what
    else:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), what


@pytest.mark.parametrize("method", FROZEN_METHODS)
@pytest.mark.parametrize("aux", [0.0, 0.1])
@pytest.mark.parametrize("split", [False, True])
def test_replay_step_matches_frozen_graph_step_bitwise(monkeypatch, method,
                                                       aux, split):
    """Every replay step of a five-domain run, at t = 2..5, against
    reference_step.graph_replay_step (the step as one autodiff graph per
    update) run from copies of the same state and rng: the StepRecord's
    triples, statistics and three loss values, every model and
    discriminator parameter and the coefficient logits after the step, and
    the rng's state, all bit for bit.  UDIL and each triple preset but
    ESM-ER, which cannot train domain 2, with lambda_p = lambda_s = `aux`
    and the memory batch split over the buckets or not."""
    stream = gen_hd_balls(seed=5, n_domains=5, n_per_domain=60, dim=4,
                          sigma=0.4)
    config = TrainerConfig(method, 2, arch=ArchConfig([8], 4, [], [8]),
                           sgd=SgdConfig(0.2, 3, 12), memory_capacity=30,
                           memory_batch=9, split_memory_batch=split,
                           hp=HyperParams(lambda_d=0.1, lambda_p=aux,
                                          lambda_s=aux))
    library, seen = trainer.replay_step, []

    def both(state, disc, stopped_disc, eps_hist, pool_sizes, rng, step,
             batch, teacher, omega, param):
        if not batch.layout.ids:  # domain 1: test_trainer.py checks its steps
            return library(state, disc, stopped_disc, eps_hist, pool_sizes,
                           rng, step, batch, teacher, omega, param)
        ref_state = dataclasses.replace(state, model=copy.deepcopy(state.model))
        ref_disc, ref_rng = copy.deepcopy(disc), copy.deepcopy(rng)
        ref_param = None if param is None else Tensor(param.copy())
        want = ref.graph_replay_step(ref_state, ref_disc, ref_disc.stopped(),
                                     eps_hist, pool_sizes, ref_rng, step,
                                     batch, teacher, omega, ref_param)
        got = library(state, disc, stopped_disc, eps_hist, pool_sizes, rng,
                      step, batch, teacher, omega, param)
        where = f"{method}, t = {state.t}, step {step}"
        for name in ("omega", "disc_loss", "coeff_loss", "model_loss"):
            _same_bits(getattr(got, name), getattr(want, name), f"{name}, {where}")
        assert (got.stats is None) == (want.stats is None), where
        for name in ("eps_replay", "eps_intra", "eps_cross", "dhat", "eps_hist",
                     "counts"):
            if want.stats is not None:
                _same_bits(getattr(got.stats, name), getattr(want.stats, name),
                           f"{name}, {where}")
        pairs = list(zip(leaves(state.model) + leaves(disc),
                         leaves(ref_state.model) + leaves(ref_disc)))
        if param is not None:
            pairs.append((Tensor(param), ref_param))
        for k, (p, r) in enumerate(pairs):
            _same_bits(p.data, r.data, f"parameter {k}, {where}")
        assert rng.bit_generator.state == ref_rng.bit_generator.state, where
        seen.append(state.t)
        return got

    monkeypatch.setattr(trainer, "replay_step", both)
    trainer.run_sequence(stream, config)
    assert seen == [t for t in range(2, 6) for _ in range(3)]


def _counts_per_step(method, aux, logs):
    """How many entries each list of `logs` gains per replay step at
    t = 2..5, with lambda_p = lambda_s = `aux`: the counts over a domain of
    three steps less those over a domain of one, halved, so that the
    teacher's pass and the rest of each domain's set-up drop out."""
    stream = gen_hd_balls(seed=3, n_domains=5, n_per_domain=60, dim=4,
                          sigma=0.4)

    def per_domain(steps):
        config = TrainerConfig(method, 1, arch=ArchConfig([8], 4, [], [8]),
                               sgd=SgdConfig(0.2, steps, 16),
                               memory_capacity=30,
                               hp=HyperParams(lambda_d=0.1, lambda_p=aux,
                                              lambda_s=aux))
        state = trainer.initial_state(config, 4, stream.num_classes)
        counts = {}
        for t in range(1, 6):
            start = [len(log) for log in logs]
            state = trainer.train_domain(state, stream.train(t))
            counts[t] = [len(log) - n for log, n in zip(logs, start)]
        return counts

    one, three = per_domain(1), per_domain(3)
    return {t: tuple((b - a) / 2 for a, b in zip(one[t], three[t]))
            for t in range(2, 6)}


@pytest.mark.parametrize("method", ["UDIL", "ER", "LwF"])
def test_replay_step_runs_each_network_at_most_once(monkeypatch, method):
    """With the auxiliary terms off or on (lambda_p = lambda_s = 0.1), a UDIL
    step runs four network passes at every t (the encoder and the
    predictor over the stacked rows, the discriminator for its update and
    once stopped), flat in t; ER runs two and LwF four: V_p and V_s read
    the step's embedding and the teacher's per-domain one.  A pass is an
    Mlp.forward call (the step's) or an Mlp.logits call (the teacher's
    pass makes them).
    The teacher runs once per domain, not per step: the counts of a
    three-step and a one-step domain differ by exactly two steps' worth.
    No step constructs a LabeledSet: its rows are gathered from the
    domain's layout."""
    calls, sets = [], []
    logits, forward, post_init = Mlp.logits, Mlp.forward, LabeledSet.__post_init__

    def counting_logits(self, x):
        calls.append(self)
        return logits(self, x)

    def counting_forward(self, x):
        calls.append(self)
        return forward(self, x)

    def counting_post_init(self):
        sets.append(self)
        post_init(self)

    monkeypatch.setattr(Mlp, "logits", counting_logits)
    monkeypatch.setattr(Mlp, "forward", counting_forward)
    monkeypatch.setattr(LabeledSet, "__post_init__", counting_post_init)
    want = {"UDIL": 4, "ER": 2, "LwF": 4}[method]
    for aux in (0.0, 0.1):
        assert (_counts_per_step(method, aux, (calls, sets))
                == {t: (want, 0) for t in range(2, 6)})


@pytest.mark.parametrize("method", ["UDIL", "ER"])
@pytest.mark.parametrize("aux", [0.0, 0.1])
def test_replay_step_constructs_a_fixed_number_of_tensors(monkeypatch, method,
                                                          aux):
    """Tensor constructions per replay step: none, at every t, for UDIL and
    ER alike, with the auxiliary terms off and with lambda_p = lambda_s =
    0.1 (V_l, V_d, V_01, V_p, V_s and the networks take their gradients in
    closed form).  Besides this test only perfbench's traced
    autodiff.nodes_per_step sees the count."""
    made = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    assert (_counts_per_step(method, aux, (made,))
            == {t: (0,) for t in range(2, 6)})


# -- the teacher pass at domain start ------------------------------------

@pytest.mark.parametrize("method", ["UDIL", "ER"])
def test_domain_start_pass_matches_end_of_domain_snapshot(monkeypatch,
                                                          method):
    """At each replay domain t = 2..5, trainer.snapshot_history runs once,
    before any step, and gives bitwise what the reference snapshot of the
    model and memory after domain t - 1 gives: the softmax and argmax of
    the logits and the embedding of the domain's rows and every bucket's,
    and each bucket's 0-1 error.
    After the domain has trained the live model, its outputs have not
    moved.  Domain 1 runs no pass."""
    stream = gen_hd_balls(seed=3, n_domains=5, n_per_domain=60, dim=4,
                          sigma=0.4)
    config = TrainerConfig(method, 1, arch=ArchConfig([8], 4, [], [8]),
                           sgd=SgdConfig(0.2, 3, 16), memory_capacity=30,
                           hp=HyperParams(lambda_d=0.1, lambda_p=0.1))
    state = trainer.initial_state(config, 4, stream.num_classes)
    domain_start, passes = trainer.snapshot_history, []

    def recording_pass(model, layout):
        assert model is state.model
        passes.append((layout, domain_start(model, layout)))
        return passes[-1][1]

    monkeypatch.setattr(trainer, "snapshot_history", recording_pass)
    state = trainer.train_domain(state, stream.train(1))
    assert passes == []
    for t in range(2, 6):
        snap = ref.snapshot_history(state.model, state.bank)
        data = stream.train(t)
        teacher_emb = snap.classifier.embed(data.x)
        ids = sorted(snap.logits)
        logits = np.concatenate(
            [snap.classifier.predictor.logits(teacher_emb)]
            + [snap.logits[i] for i in ids])
        want = (softmax(logits), np.argmax(logits, axis=1),
                np.concatenate([teacher_emb] + [snap.embeddings[i] for i in ids]),
                np.array([snap.cached_consts[i] for i in ids]))
        state = trainer.train_domain(state, data)
        assert len(passes) == t - 1
        pool, got = passes[-1]
        assert pool.layout.ids == tuple(range(1, t)) and pool.layout.t == t
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # the model has trained: the same pass now reads other logits
        assert not np.array_equal(domain_start(state.model, pool)[0], got[0])
