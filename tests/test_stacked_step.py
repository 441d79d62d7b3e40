"""Differential tests against the per-domain reference in
reference_step.py, on random states: the loss terms, each fed the passes
a step runs over the record's rows, and the coefficient statistics and
divergence estimate; the encoder terms as the step sums them; the
trainer's draws, gathered from one per-domain layout, against the
reference's sampled and stacked sets; and the trainer's step, whose phases
and encoder terms share their passes, against the reference's phase
order, which shares none of the library's loss terms; and the trainer's
domain-start teacher pass against the snapshot it replaced."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_step as ref
from dilkit import trainer
from dilkit.autodiff import ContractError, Tensor, add, mul
from dilkit.coeffs import init_uniform
from dilkit.datagen import LabeledSet, gen_hd_balls
from dilkit.divergence import hdh_discriminator_estimate
from dilkit.losses import (N_NEGATIVES, HyperParams, StepBatch,
                           encoder_aux_loss, v_d, v_l, v_p)
from dilkit.membank import MemoryBank
from dilkit.models import ArchConfig, Classifier, Mlp, SgdConfig, sgd_step
from dilkit.trainer import TrainerConfig, TrainState, coeff_stats_for_step

IN_DIM, EMBED, N_CLASSES = 4, 5, 3
KINDS = ("UDIL", "ER", "LwF", "FineTune", "mixed")


def _classifier(rng, frozen=False):
    clf = Classifier(Mlp([IN_DIM, 6, EMBED], rng=rng),
                     Mlp([EMBED, N_CLASSES], rng=rng))
    return clf.stopped() if frozen else clf


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


def _outputs(h, teacher, disc, batch):
    """The three passes a step hands coeff_stats_for_step, over the
    record's rows: the student's logits, the stopped discriminator's on the
    student's embedding, and the teacher's."""
    stopped = h.stopped()
    embedding = stopped.encoder.logits(batch.x)
    return (stopped.predictor.logits(embedding).data,
            disc.stopped().logits(embedding).data,
            teacher.logits(batch.x).data)


def _v_l(h, teacher, omega, current, past):
    """The library's V_l on the record of `current` and `past`, from the
    student's and the teacher's logits on its rows."""
    batch = StepBatch.stack(current, past)
    return v_l(batch, omega, h.logits(batch.x), teacher.logits(batch.x).data)


def _v_d(disc, encoder, omega, current, past):
    """The library's V_d on the record of `current` and `past`, from the
    discriminator's logits on the encoder's embedding of its rows."""
    batch = StepBatch.stack(current, past)
    return v_d(batch, omega, disc.logits(encoder.logits(batch.x)))


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
                 ref.v_l(h, history, omega, current, past), h.params())


@pytest.mark.parametrize("t,kind,seed", CASES)
def test_v_d_matches_reference(t, kind, seed):
    h, _, disc, omega, current, past = _state(200 * t + seed, t, kind)
    past_x = {i: b.x for i, b in past.items()}
    params = disc.params() + h.encoder.params()
    _assert_same(_v_d(disc, h.encoder, omega, current, past),
                 ref.v_d(disc, h.encoder, omega, current.x, past_x, t), params)


@pytest.mark.parametrize("t,seed", [(t, seed) for t in (2, 3, 4, 5)
                                    for seed in (0, 1)])
def test_v_p_matches_reference(t, seed):
    h, _, _, _, current, past = _state(300 * t + seed, t, "UDIL")
    prev = _classifier(np.random.default_rng(seed)).encoder
    past_x = {i: b.x for i, b in past.items()}
    params = h.encoder.params() + prev.params()
    batch = StepBatch.stack(current, past)
    _assert_same(v_p(batch, h.encoder.logits(batch.x), prev.logits(batch.x)),
                 ref.v_p(h.encoder, prev, past_x), params)


@pytest.mark.parametrize("t,seed", [(t, seed) for t in (2, 3, 4, 5)
                                    for seed in range(4)])
def test_coeff_stats_match_reference_exactly(t, seed):
    h, history, disc, _, current, past = _state(400 * t + seed, t, "UDIL")
    batch = StepBatch.stack(current, past)
    got = coeff_stats_for_step(_eps_hist(history), batch,
                               *_outputs(h, history.classifier, disc, batch))
    want = ref.coeff_stats_for_step(h, history, disc, current, past)
    for name in ("eps_replay", "eps_intra", "dhat", "eps_hist"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.eps_cross == want.eps_cross


@pytest.mark.parametrize("t", [2, 3, 5])
def test_coeff_stats_build_no_gradient_graph(monkeypatch, t):
    """No Tensor created inside coeff_stats_for_step requires a gradient."""
    h, history, disc, _, current, past = _state(450 + t, t, "UDIL")
    batch = StepBatch.stack(current, past)
    outputs = _outputs(h, history.classifier, disc, batch)
    tracked = []
    init = Tensor.__init__

    def recording_init(self, data, requires_grad=False, _prev=()):
        tracked.append(bool(requires_grad))
        init(self, data, requires_grad, _prev)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    coeff_stats_for_step(_eps_hist(history), batch, *outputs)
    assert tracked and not any(tracked)


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
    coeff_stats_for_step(_eps_hist(history), batch, *outputs)
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
    b.data[...] = rng.normal(size=arity)
    if mode == "tie":
        w.data[:, past_index - 1] = w.data[:, arity - 1]
        b.data[past_index - 1] = b.data[arity - 1]
    elif mode == "scaled":
        w.data *= 1e3
        b.data *= 1e3
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
        coeff_stats_for_step(_eps_hist(history), batch,
                             *_outputs(h, history.classifier, disc, batch))
    with pytest.raises(ContractError):
        ref.coeff_stats_for_step(h, history, disc, current, past)


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
    teacher_logits = history.classifier.logits(x).data
    _assert_same(v_l(batch, omega, h.logits(x), teacher_logits),
                 ref.v_l(h, history, omega, current, past), h.params())
    d_stopped = disc.stopped()
    _assert_same(v_d(batch, omega, d_stopped.logits(h.encoder.logits(x))),
                 ref.v_d(d_stopped, h.encoder, omega, current.x, past_x, t),
                 h.encoder.params())
    _assert_same(v_d(batch, omega, disc.logits(h.encoder.logits(x).data)),
                 ref.v_d(disc, h.encoder.stopped(), omega, current.x, past_x,
                         t),
                 disc.params())
    got = coeff_stats_for_step(
        _eps_hist(history), batch, h.logits(x).data,
        disc.logits(h.encoder.logits(x)).data, teacher_logits)
    want = ref.coeff_stats_for_step(h, history, disc, current, past)
    for name in ("eps_replay", "eps_intra", "dhat", "eps_hist"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.eps_cross == want.eps_cross


AUX_HP = HyperParams(lambda_d=0.3, lambda_p=0.2, lambda_s=0.1)


@pytest.mark.parametrize("t,kind,seed", CASES)
def test_encoder_aux_loss_matches_its_terms_own_forwards(t, kind, seed):
    """encoder_aux_loss fed one student embedding of the record's rows, the
    stopped discriminator's logits on it and the teacher's embedding of the
    rows equals -lambda_d * V_d + lambda_p * V_p + lambda_s * V_s, each the
    per-domain reference running its own forwards: the value within 1e-12
    and every encoder gradient within 1e-10.  From equal rng states, both
    leave the rng in equal states."""
    h, history, disc, omega, current, past = _state(1100 * t + seed, t, kind)
    batch = StepBatch.stack(current, past)
    enc, teacher, d_stopped = h.encoder, history.classifier.encoder, disc.stopped()
    past_x = {i: b.x for i, b in past.items()}
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    embedding = enc.logits(batch.x)
    got = encoder_aux_loss(embedding, d_stopped.logits(embedding),
                           teacher.logits(batch.x).data, omega, batch,
                           AUX_HP, rng)
    vd = ref.v_d(d_stopped, enc, omega, current.x, past_x, t)
    vp = ref.v_p(enc, teacher, past_x)
    vs = ref.v_s(enc, batch, N_NEGATIVES, ref_rng)
    want = add(add(mul(vd, -AUX_HP.lambda_d), mul(vp, AUX_HP.lambda_p)),
               mul(vs, AUX_HP.lambda_s))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    got_val, got_grads = _value_and_grads(got, enc.params())
    want_val, want_grads = _value_and_grads(want, enc.params())
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
    coeff_logits = init_uniform(t)
    coeff_logits.data[...] = rng.normal(size=(t - 1, 3))
    return state, teacher, disc, coeff_logits, _batch(rng, 30, t)


def _teach_with(monkeypatch, teacher):
    """Have the trainer's domain-start pass run `teacher` in place of the
    model it is given, so that a step's teacher and student differ."""
    domain_start = trainer.snapshot_history
    monkeypatch.setattr(trainer, "snapshot_history",
                        lambda model, layout: domain_start(teacher, layout))


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_draws_match_reference_sampling(monkeypatch, t, split, seed):
    """From equal rng states, each of three replay steps gathers the
    reference's x, y, segment bounds and teacher logits bitwise (as handed
    to coeff_stats_for_step), and the steps leave the rng in the
    reference's state.  Bucket 1 holds one row, shorter than any memory
    batch; with `split` the memory batch is divided over t - 1."""
    state, teacher_net, disc, coeff_logits, domain = _step_state(
        1000 * t + seed, t, HyperParams(), steps=3, memory_batch=8,
        split_memory_batch=split)
    bank = state.bank
    bank.buckets[1] = bank.buckets[1].subset(np.arange(1))
    history = ref.snapshot_history(teacher_net, bank)
    teacher = {**history.logits, t: history.classifier.logits(domain.x).data}
    seen = []
    stats_for_step = trainer.coeff_stats_for_step

    def recording_stats(eps_hist, batch, logits, disc_logits, teacher_logits):
        seen.append((batch, teacher_logits))
        return stats_for_step(eps_hist, batch, logits, disc_logits,
                              teacher_logits)

    _teach_with(monkeypatch, teacher_net)
    monkeypatch.setattr(trainer, "coeff_stats_for_step", recording_stats)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trainer._train_domain_replay(state, domain, rng, disc, coeff_logits)
    assert len(seen) == 3
    for batch, teacher_logits in seen:
        _, _, x, y, bounds, ref_teacher = ref.sample_step(
            domain, bank, teacher, state.config.sgd.batch_size, 8, split,
            ref_rng)
        np.testing.assert_array_equal(batch.x, x)
        np.testing.assert_array_equal(batch.y, y)
        np.testing.assert_array_equal(batch.bounds, bounds)
        np.testing.assert_array_equal(teacher_logits, ref_teacher)
        assert batch.ids == tuple(range(1, t)) and batch.t == t
        assert bounds[2] - bounds[1] == 1  # the short bucket: all of it
    # lambda_s = 0: the draws are the steps' only use of the rng
    assert rng.bit_generator.state == ref_rng.bit_generator.state


HPS = [HyperParams(lambda_d=0.5, c_gen=1.0),
       HyperParams(lambda_d=0.05, c_gen=0.3, lambda_p=0.2, lambda_s=0.1)]


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("hp_index", range(len(HPS)))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_step_matches_reference_phase_order(monkeypatch, t, hp_index,
                                                   seed):
    """One trainer step (one student pass, one stopped-discriminator pass,
    teacher logits by row) against reference_step.replay_step on the rows
    it drew: the same coefficient statistics exactly, the same
    discriminator and coefficient updates, and the model loss and every
    model gradient within 1e-10."""
    hp = HPS[hp_index]
    state, teacher, disc, coeff_logits, domain = _step_state(
        900 * t + 10 * hp_index + seed, t, hp)
    model, bank = state.model, state.bank
    history = ref.snapshot_history(teacher, bank)
    ref_model, ref_disc, ref_logits = copy.deepcopy((model, disc, coeff_logits))
    seen = {"rows": [], "stats": [], "losses": {}, "grads": []}
    draw_rows, sample_past = trainer._draw_rows, bank.sample_past
    stats_for_step = trainer.coeff_stats_for_step

    def recording_draw_rows(*args):
        seen["rows"].append(draw_rows(*args))
        return seen["rows"][-1]

    def recording_sample_past(per_domain, rng):
        seen["rows"].append(sample_past(per_domain, rng))
        seen["rng"] = copy.deepcopy(rng)  # the stream V_s draws from next
        return seen["rows"][-1]

    def recording_stats(*args):
        seen["stats"].append(stats_for_step(*args))
        return seen["stats"][-1]

    def recording_sgd_step(params, lr):
        seen["grads"].append([p.grad.copy() for p in params])
        sgd_step(params, lr)

    _teach_with(monkeypatch, teacher)
    monkeypatch.setattr(trainer, "_draw_rows", recording_draw_rows)
    monkeypatch.setattr(bank, "sample_past", recording_sample_past)
    monkeypatch.setattr(trainer, "coeff_stats_for_step", recording_stats)
    monkeypatch.setattr(trainer, "_check_finite", lambda loss, name, *rest:
                        seen["losses"].update({name: loss.item()}))
    monkeypatch.setattr(trainer, "sgd_step", recording_sgd_step)
    trainer._train_domain_replay(state, domain, np.random.default_rng(seed),
                                 disc, coeff_logits)

    current_rows, past_rows = seen["rows"]
    current = domain.subset(current_rows)
    past = {i: bank.buckets[i].subset(rows) for i, rows in past_rows.items()}
    n_memory = [len(bank.buckets[i]) for i in sorted(bank.buckets)]
    ref_stats, ref_objective = ref.replay_step(
        ref_model, history, ref_disc, ref_logits, current, past, t, hp,
        len(domain), n_memory, seen["rng"], 0.4, 0.7)
    (stats,) = seen["stats"]
    for name in ("eps_replay", "eps_intra", "dhat", "eps_hist"):
        np.testing.assert_array_equal(getattr(stats, name),
                                      getattr(ref_stats, name))
    assert stats.eps_cross == ref_stats.eps_cross
    np.testing.assert_allclose(coeff_logits.data, ref_logits.data,
                               rtol=0, atol=1e-10)
    for p, r in zip(disc.params(), ref_disc.params()):
        np.testing.assert_allclose(p.data, r.data, rtol=0, atol=1e-10)
    ref_value, ref_grads = _value_and_grads(ref_objective, ref_model.params())
    assert abs(seen["losses"]["model"] - ref_value) <= 1e-10
    model_grads = seen["grads"][-1]  # the model update comes last
    assert len(model_grads) == len(ref_grads)
    for got, want in zip(model_grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("method", ["UDIL", "ER", "LwF"])
def test_replay_step_runs_each_network_at_most_once(monkeypatch, method):
    """With the auxiliary terms off or on (lambda_p = lambda_s = 0.1), a UDIL
    step makes four Mlp.logits calls at every t (the encoder and the
    predictor over the stacked rows, the discriminator for its update and
    once stopped), flat in t; ER makes two and LwF four: V_p and V_s read
    the step's embedding and the teacher's per-domain one.  The teacher
    runs once per domain, not per step: the counts of a three-step and a
    one-step domain differ by exactly two steps' worth.  No step
    constructs a LabeledSet: its rows are gathered from the domain's
    layout."""
    stream = gen_hd_balls(seed=3, n_domains=5, n_per_domain=60, dim=4,
                          sigma=0.4)
    calls, sets = [], []
    logits, post_init = Mlp.logits, LabeledSet.__post_init__

    def counting_logits(self, x):
        calls.append(self)
        return logits(self, x)

    def counting_post_init(self):
        sets.append(self)
        post_init(self)

    def per_domain(steps, aux):
        config = TrainerConfig(method, 1, arch=ArchConfig([8], 4, [], [8]),
                               sgd=SgdConfig(0.2, steps, 16),
                               memory_capacity=30,
                               hp=HyperParams(lambda_d=0.1, lambda_p=aux,
                                              lambda_s=aux))
        state = trainer.initial_state(config, 4, stream.num_classes)
        counts = {}
        for t in range(1, 6):
            data = stream.train(t)
            start = len(calls), len(sets)
            state = trainer.train_domain(state, data)
            counts[t] = len(calls) - start[0], len(sets) - start[1]
        return counts

    monkeypatch.setattr(Mlp, "logits", counting_logits)
    monkeypatch.setattr(LabeledSet, "__post_init__", counting_post_init)
    for aux in (0.0, 0.1):
        one, three = per_domain(1, aux), per_domain(3, aux)
        per_step = {t: tuple((b - a) / 2 for a, b in zip(one[t], three[t]))
                    for t in range(2, 6)}
        want = {"UDIL": 4, "ER": 2, "LwF": 4}[method]
        assert per_step == {t: (want, 0) for t in range(2, 6)}


# -- the teacher pass at domain start ------------------------------------

@pytest.mark.parametrize("method", ["UDIL", "ER"])
def test_domain_start_pass_matches_end_of_domain_snapshot(monkeypatch,
                                                          method):
    """At each replay domain t = 2..5, trainer.snapshot_history runs once,
    before any step, and gives bitwise what the reference snapshot of the
    model and memory after domain t - 1 gives: the logits and embedding of
    the domain's rows and every bucket's, and each bucket's 0-1 error.
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
        teacher_emb = snap.classifier.embed(data.x).data
        ids = sorted(snap.logits)
        want = (np.concatenate([snap.classifier.predictor.logits(teacher_emb).data]
                               + [snap.logits[i] for i in ids]),
                np.concatenate([teacher_emb] + [snap.embeddings[i] for i in ids]),
                np.array([snap.cached_consts[i] for i in ids]))
        state = trainer.train_domain(state, data)
        assert len(passes) == t - 1
        layout, got = passes[-1]
        assert layout.ids == tuple(range(1, t)) and layout.t == t
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # the model has trained: the same pass now reads other logits
        assert not np.array_equal(domain_start(state.model, layout)[0], got[0])
