import copy
import math
import dataclasses
import tracemalloc

import numpy as np
import pytest

from dilkit import trainer
from dilkit.autodiff import ContractError, Tensor, softmax
from dilkit.coeffs import (
    ConfigError, TRIPLE_PRESETS, from_preset, init_uniform, logit_gradient,
)
from dilkit.datagen import DomainStream, LabeledSet, gen_hd_balls
from dilkit.losses import (
    CoeffStats, HyperParams, StepBatch, StepLayout, encoder_aux_loss, erm01,
    v_01, v_d, v_l,
)
from dilkit.membank import MemoryBank
from dilkit.models import ArchConfig, Mlp, SgdConfig, sgd_step
from dilkit.seeding import substream
from dilkit.trainer import (
    TrainerConfig, coeff_stats_for_step, descend_v01,
    initial_state, run_sequence, snapshot_history, train_domain,
)
import reference_ops
import reference_step as ref
from reference_ops import leaves
from reference_step import erm01_agreement, frozen_copy

SMALL_ARCH = ArchConfig(encoder_hidden=[8], embed_dim=4,
                        predictor_hidden=[], disc_hidden=[8])


def small_config(method, seed=1, steps=40, **kw):
    return TrainerConfig(method=method, seed=seed, arch=SMALL_ARCH,
                     sgd=SgdConfig(0.2, steps, 16), memory_capacity=30, **kw)


def small_stream(seed=3):
    return gen_hd_balls(seed=seed, n_domains=3, n_per_domain=60, dim=4,
                        sigma=0.4)


def toy_two_domain_stream(seed, n=80):
    """Domain 1: classes at (-3,0)/(-1,0); domain 2: at (1,0)/(3,0).

    One threshold cannot separate both domains jointly, so training on
    domain 2 alone forgets domain 1, while a replayed nonlinear model keeps
    both."""
    centers = {1: ((-3.0, 0.0), (-1.0, 0.0)), 2: ((1.0, 0.0), (3.0, 0.0))}
    domains = []
    for t in (1, 2):
        rng = substream(seed, "toy", t)
        c0, c1 = centers[t]
        x = np.concatenate([rng.normal(c0, 0.3, size=(n, 2)),
                            rng.normal(c1, 0.3, size=(n, 2))])
        y = np.array([0] * n + [1] * n)
        perm = rng.permutation(2 * n)
        x, y = x[perm], y[perm]
        cut = int(2 * n * 0.8)
        domains.append((LabeledSet(x[:cut], y[:cut], t),
                        LabeledSet(x[cut:], y[cut:], t)))
    return DomainStream(domains, 2, 2)


def test_domain1_equals_plain_sgd():
    stream = small_stream()
    cfg = small_config("UDIL")
    state = train_domain(initial_state(cfg, 4, 2), stream.train(1))
    assert state.t == 2 and state.omega_log == {}
    # the discriminator and the coefficients live only inside one train_domain call
    assert {"disc", "omega"}.isdisjoint(
        f.name for f in dataclasses.fields(state))

    # independent replication: fresh model, same init and batch substreams
    manual = SMALL_ARCH.build_classifier(4, 2, substream(1, "init"))
    rng = substream(1, "batches", 1)
    data = stream.train(1)
    for _ in range(40):
        idx = np.sort(rng.choice(len(data), size=16, replace=False))
        loss = ref.classification_loss(manual, data.subset(idx))
        loss.backward()
        reference_ops.sgd_step(leaves(manual), 0.2)
    for got, want in zip(leaves(state.model), leaves(manual)):
        np.testing.assert_array_equal(got.data, want.data)


def _ten_class_stream(seed=4):
    """Three domains of 4-D points with ten classes: the cross-entropy's
    class axis is then wider than 8."""
    rng = np.random.default_rng(seed)
    domains = [tuple(LabeledSet(rng.normal(size=(n, 4)) + t,
                                rng.integers(0, 10, n), t) for n in (50, 10))
               for t in (1, 2, 3)]
    return DomainStream(domains, 10, 4)


@pytest.mark.parametrize("method", ["UDIL", "FineTune", "Joint"])
@pytest.mark.parametrize("classes", [2, 10])
def test_erm_steps_match_frozen_graph_steps_bitwise(monkeypatch, method,
                                                    classes):
    """Every ERM domain of a three-domain run (domain 1 for UDIL, each
    domain for FineTune and Joint), driven through train_domain, against
    reference_step.graph_erm_steps, the steps as one autodiff graph each,
    run from a copy of the same model and an equal rng: every parameter and
    the rng's state after the domain, bit for bit, with two classes and
    with ten, and no network left holding buffers."""
    stream = small_stream() if classes == 2 else _ten_class_stream()
    library, seen, made = trainer.train_domain, [], {}

    def recording_substream(seed, *names):
        made[names] = substream(seed, *names)
        return made[names]

    def both(state, domain_data, pooled=None):
        t, config = state.t, state.config
        if method == "UDIL" and t > 1:
            return library(state, domain_data)
        want = copy.deepcopy(state.model)
        ref_rng = substream(config.seed, "batches", t)
        ref.graph_erm_steps(want, domain_data if pooled is None else pooled,
                            config.sgd, ref_rng, method, t)
        state = library(state, domain_data, pooled)
        for k, (p, r) in enumerate(zip(leaves(state.model), leaves(want))):
            assert p.data.tobytes() == r.data.tobytes(), (method, t, k)
        assert (made["batches", t].bit_generator.state
                == ref_rng.bit_generator.state)
        assert all(net.buffers is None
                   for net in (state.model.encoder, state.model.predictor))
        seen.append(t)
        return state

    monkeypatch.setattr(trainer, "substream", recording_substream)
    monkeypatch.setattr(trainer, "train_domain", both)
    run_sequence(stream, small_config(method, steps=12))
    assert seen == ([1] if method == "UDIL" else [1, 2, 3])


@pytest.mark.parametrize("method", ["UDIL", "FineTune", "Joint"])
def test_erm_step_runs_each_network_once_and_builds_no_tensor(monkeypatch,
                                                             method):
    """Per ERM step (domain 1 for UDIL, each domain for FineTune and
    Joint), counted as the replay step's passes are (a three-step domain
    less a one-step one, halved): each network runs forward once and
    backward once (Mlp.forward, Mlp.backward), no Mlp.logits graph node,
    no Tensor constructed, no Tensor.backward, and no LabeledSet built."""
    logs = {name: [] for name in ("forward", "backward", "logits")}
    for name in logs:
        def counting(self, *args, fn=getattr(Mlp, name), log=logs[name]):
            log.append(self)
            return fn(self, *args)
        monkeypatch.setattr(Mlp, name, counting)
    made, walks, sets = [], [], []
    init, walk, post_init = Tensor.__init__, Tensor.backward, LabeledSet.__post_init__

    def counting_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    def counting_walk(self):
        walks.append(None)
        walk(self)

    def counting_post_init(self):
        sets.append(None)
        post_init(self)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    monkeypatch.setattr(Tensor, "backward", counting_walk)
    monkeypatch.setattr(LabeledSet, "__post_init__", counting_post_init)
    stream = small_stream()
    counted = [logs["forward"], logs["backward"], logs["logits"], made, walks,
               sets]
    domains = (1,) if method == "UDIL" else (1, 2, 3)

    def per_domain(steps):
        state = initial_state(small_config(method, steps=steps), 4, 2)
        counts = {}
        for t in domains:
            pooled = trainer._pooled_through(stream, t) if method == "Joint" else None
            start = [len(log) for log in counted]
            state = train_domain(state, stream.train(t), pooled)
            counts[t] = [len(log) - n for log, n in zip(counted, start)]
        return counts

    one, three = per_domain(1), per_domain(3)
    assert {t: tuple((b - a) / 2 for a, b in zip(one[t], three[t]))
            for t in domains} == {t: (2, 2, 0, 0, 0, 0) for t in domains}


@pytest.mark.parametrize("method", ["UDIL", "ER", "FineTune", "Joint"])
def test_every_step_is_a_replay_step(monkeypatch, method):
    """Every step of a three-domain run goes through replay_step, in order:
    step_count of them per domain.  A one-segment step (domain 1, and every
    FineTune and Joint domain) is the model update alone: its record holds
    [0, 3] triples, no coefficient statistics, no discriminator or
    coefficient loss, and a finite model loss."""
    library, steps = trainer.replay_step, []

    def recording_step(state, *args):
        record = library(state, *args)
        steps.append((state.t, args[5], args[6].layout.ids, record))
        return record

    monkeypatch.setattr(trainer, "replay_step", recording_step)
    run_sequence(small_stream(), small_config(method, steps=5))
    assert ([(t, step) for t, step, _, _ in steps]
            == [(t, step) for t in (1, 2, 3) for step in range(1, 6)])
    for t, _, ids, record in steps:
        one_segment = t == 1 or method in ("FineTune", "Joint")
        assert ids == (() if one_segment else tuple(range(1, t)))
        if one_segment:
            assert record.omega.shape == (0, 3)
            assert record.stats is record.disc_loss is record.coeff_loss is None
            assert math.isfinite(record.model_loss)


def test_model_starts_from_history(monkeypatch):
    stream = small_stream()
    state = train_domain(initial_state(small_config("UDIL"), 4, 2),
                         stream.train(1))
    before = frozen_copy(state.model)
    domain_start, passes = trainer.snapshot_history, []

    def recording_pass(model, layout):
        passes.append((layout, domain_start(model, layout)))
        return passes[-1][1]

    monkeypatch.setattr(trainer, "snapshot_history", recording_pass)
    train_domain(state, stream.train(2))
    # the teacher of domain 2 is the model as domain 1 left it
    ((pool, (_, pred, _, _)),) = passes
    np.testing.assert_array_equal(pred, before.predict(pool.x))


def test_two_domain_toy_udil_retains_finetune_forgets():
    stream = toy_two_domain_stream(seed=1)
    accs = {}
    for method in ("UDIL", "FineTune"):
        cfg = TrainerConfig(method=method, seed=1, arch=ArchConfig(
            encoder_hidden=[16], embed_dim=8, predictor_hidden=[],
            disc_hidden=[8]), sgd=SgdConfig(0.1, 300, 16),
            memory_capacity=40, hp=HyperParams(lambda_d=0.1))
        accs[method] = run_sequence(stream, cfg).matrix.get(2, 1)
    assert accs["UDIL"] >= 0.9
    assert accs["FineTune"] < 0.7


def test_single_domain_stream():
    stream = gen_hd_balls(seed=5, n_domains=1, n_per_domain=50, dim=4,
                          sigma=0.4)
    res = run_sequence(stream, small_config("UDIL", steps=20))
    assert res.matrix.to_lists()[0][0] is not None
    assert res.forgetting_by_domain == {}
    assert res.forward_transfer is None


def test_joint_dominates_finetune_final_row():
    stream = small_stream()
    joint = run_sequence(stream, small_config("Joint"))
    ft = run_sequence(stream, small_config("FineTune"))
    assert joint.avg_acc_by_domain[3] >= ft.avg_acc_by_domain[3]
    # SGD draws from the pooled domains, but bucket t is filled from domain
    # t's own split, and Joint keeps no coefficient log
    state = joint.final_state
    for t, bucket in state.bank.buckets.items():
        own = {row.tobytes() for row in stream.train(t).x}
        assert all(row.tobytes() in own for row in bucket.x)
    assert joint.omega_by_domain == {}


def test_seeded_repeat_bitwise_identical():
    """Two runs from one seed agree bitwise, with the encoder terms off and
    on: accuracies, coefficients and every final parameter's bytes."""
    stream = small_stream()
    for aux in (0.0, 0.1):
        hp = HyperParams(lambda_p=aux, lambda_s=aux)
        a = run_sequence(stream, small_config("UDIL", hp=hp))
        b = run_sequence(stream, small_config("UDIL", hp=hp))
        assert a.matrix.to_lists() == b.matrix.to_lists()
        assert a.omega_by_domain == b.omega_by_domain
        assert a.baseline_acc == b.baseline_acc
        assert ([p.data.tobytes() for p in leaves(a.final_state.model)]
                == [p.data.tobytes() for p in leaves(b.final_state.model)])


@pytest.mark.parametrize("method", ["LwF", "ER", "DER++", "iCaRL", "CLS-ER",
                                    "BiC", "FineTune"])
def test_preset_run_records_fixed_triples(method):
    res = run_sequence(small_stream(), small_config(method))
    assert sorted(res.omega_by_domain) == [2, 3]
    for t in (2, 3):
        np.testing.assert_array_equal(np.array(res.omega_by_domain[t]),
                                      from_preset(method, t))


def test_omega_rows_stay_on_simplex():
    stream = small_stream()
    res = run_sequence(stream, small_config("UDIL"))
    for t, rows in res.omega_by_domain.items():
        arr = np.array(rows)
        assert arr.shape == (t - 1, 3)
        assert np.all(arr >= 0)
        np.testing.assert_allclose(arr.sum(axis=1), 1.0, atol=1e-9)


def test_memory_invariants_during_run():
    stream = small_stream()
    res = run_sequence(stream, small_config("ER"))
    bank = res.final_state.bank
    assert sum(len(b) for b in bank.buckets.values()) <= 30
    sizes = [len(b) for b in bank.buckets.values()]
    assert max(sizes) - min(sizes) <= 1


def test_esm_er_rejected_on_second_domain():
    stream = small_stream()
    with pytest.raises(ConfigError, match="ESM-ER"):
        run_sequence(stream, small_config("ESM-ER"))


def test_train_domain_contracts():
    stream = small_stream()
    state = initial_state(small_config("UDIL"), 4, 2)
    with pytest.raises(ContractError, match="id 2"):
        train_domain(state, stream.train(2))
    with pytest.raises(ContractError, match="empty"):
        train_domain(state, LabeledSet(np.zeros((0, 4)), [], 1))
    with pytest.raises(ContractError, match="pooled"):
        train_domain(initial_state(small_config("Joint"), 4, 2),
                     stream.train(1))


@pytest.mark.parametrize("method", ["UDIL", "ER", "DER++", "FineTune"])
def test_train_domain_fails_fast_when_memory_is_too_small(method):
    """With room for fewer exemplars than domains, train_domain raises at
    the first such domain, naming it and the capacity, before it trains the
    model or touches the memory: no bucket is emptied silently."""
    stream = small_stream()
    config = dataclasses.replace(small_config(method, steps=3),
                                 memory_capacity=1)
    state = train_domain(initial_state(config, 4, 2), stream.train(1))
    params = [p.data.copy() for p in leaves(state.model)]
    buckets = dict(state.bank.buckets)
    with pytest.raises(ContractError,
                       match=r"^domain 2 needs memory capacity >= 2, got 1$"):
        train_domain(state, stream.train(2))
    assert state.t == 2 and state.bank.buckets == buckets
    for p, before in zip(leaves(state.model), params):
        np.testing.assert_array_equal(p.data, before)


def _post_domain1_state(method="UDIL"):
    stream = small_stream()
    state = train_domain(initial_state(small_config(method), 4, 2),
                         stream.train(1))
    return state, stream


def test_snapshot_deep_copy_and_cache_coherence():
    state, stream = _post_domain1_state()
    layout = StepBatch.stack(stream.train(2), state.bank.buckets)
    outputs = snapshot_history(state.model, layout)
    saved = [a.copy() for a in outputs]
    eps = [erm01(state.model, b) for _, b in sorted(state.bank.buckets.items())]
    for p in leaves(state.model):
        p.data += 10.0  # wreck the live model
    for got, want in zip(outputs, saved):
        np.testing.assert_array_equal(got, want)
    assert list(outputs[3]) == eps


def test_snapshot_untrained_model_near_chance():
    rng = substream(77, "mem")
    bank = MemoryBank(400)
    x = rng.normal(size=(400, 6))
    y = np.array([0, 1] * 200)
    bank.update_after_domain(LabeledSet(x, y, 1), 1, seed=77)
    model = SMALL_ARCH.build_classifier(6, 2, substream(77, "init"))
    layout = StepBatch.stack(LabeledSet(x[:1], y[:1], 2), bank.buckets)
    *_, eps_hist = snapshot_history(model, layout)
    assert abs(eps_hist[0] - 0.5) <= 0.1


def test_trained_discriminator_near_chance_on_identical_distributions():
    from dilkit.divergence import hdh_discriminator_estimate
    rng = substream(11, "same")
    cur = rng.normal(size=(300, 4))
    past = rng.normal(size=(300, 4))
    # held-out draws from the same two (identical) distributions: the
    # estimate should reflect the distributions, not finite-sample overfit
    cur_eval = rng.normal(size=(300, 4))
    past_eval = rng.normal(size=(300, 4))
    state = initial_state(small_config("UDIL", seed=11), 4, 2)
    enc = state.model.encoder
    d = SMALL_ARCH.build_discriminator(2, substream(11, "disc"))
    omega = np.array([[0.0, 1.0, 0.0]])
    record = StepBatch(np.concatenate([cur, past]), np.zeros(600, np.int64),
                       StepLayout([300, 300], (1,), 2))
    for _ in range(200):
        acts = d.forward(enc.stopped().logits(record.x))
        d.backward(acts, v_d(record, omega, acts[-1], 1.0, None)[1], False)
        sgd_step([d], 0.2)
    est = hdh_discriminator_estimate(d, enc, cur_eval, past_eval, 1)
    assert est <= 0.1


def test_update_isolation_checksums():
    state, stream = _post_domain1_state()
    t = 2
    model = state.model
    teacher = frozen_copy(model)  # domain 2's teacher: the model at its start
    eps_hist = np.array([erm01(teacher, state.bank.buckets[1])])
    disc = SMALL_ARCH.build_discriminator(t, substream(1, "disc", t))
    coeff_logits = Tensor(init_uniform(t))  # a leaf over the logits training updates
    rng = substream(1, "batches", t)
    data = stream.train(2)
    idx = np.sort(rng.choice(len(data), size=16, replace=False))
    current = data.subset(idx)
    past = {i: state.bank.buckets[i].subset(ix)
            for i, ix in state.bank.sample_past(16, rng).items()}
    batch = StepBatch.stack(current, past)

    def dump(params):
        return [p.data.copy() for p in params]

    def unchanged(params, before):
        return all(np.array_equal(p.data, b)
                   for p, b in zip(params, before))

    m0, d0, o0 = dump(leaves(model)), dump(leaves(disc)), dump([coeff_logits])
    acts = disc.forward(model.encoder.forward(batch.x)[-1])
    disc.backward(acts, v_d(batch, softmax(coeff_logits.data), acts[-1], 1.0,
                            None)[1], False)
    sgd_step([disc], 0.2)
    assert unchanged(leaves(model), m0) and unchanged([coeff_logits], o0)
    assert not unchanged(leaves(disc), d0)

    m0, d0, o0 = dump(leaves(model)), dump(leaves(disc)), dump([coeff_logits])
    embedding = model.encoder.logits(batch.x)
    stats = coeff_stats_for_step(
        eps_hist, [len(data)] + [len(b) for b in past.values()], batch,
        model.predictor.logits(embedding), softmax(disc.logits(embedding)),
        teacher.predict(batch.x))
    omega = softmax(coeff_logits.data)
    _, grad = v_01(omega, stats, 1.0)
    sgd_step([(coeff_logits.data, logit_gradient(omega, grad))], 0.2)
    assert unchanged(leaves(model), m0) and unchanged(leaves(disc), d0)
    assert not unchanged([coeff_logits], o0)

    m0, d0, o0 = dump(leaves(model)), dump(leaves(disc)), dump([coeff_logits])
    frozen = softmax(coeff_logits.data)
    encoded = model.encoder.forward(batch.x)
    predicted = model.predictor.forward(encoded[-1])
    _, logits_grad = v_l(batch, frozen, predicted[-1],
                         softmax(teacher.logits(batch.x)))
    stopped = disc.stopped()
    disc_acts = stopped.forward(encoded[-1])
    _, disc_grad, _ = encoder_aux_loss(encoded[-1], disc_acts[-1], None,
                                       teacher.embed(batch.x),
                                       frozen, batch, HyperParams(), rng)
    grad = stopped.backward(disc_acts, disc_grad, True)
    grad += model.predictor.backward(predicted, logits_grad, True)
    model.encoder.backward(encoded, grad, False)
    sgd_step(model.params(), 0.2)
    assert unchanged(leaves(disc), d0) and unchanged([coeff_logits], o0)
    assert not unchanged(leaves(model), m0)


def _frozen_instance(seed, t):
    rng = np.random.default_rng(seed)
    n = t - 1
    terms = (rng.random(n) * 0.5, rng.random(n) * 0.5,
             float(rng.random() * 0.5), rng.random(n) * 1.5,
             rng.random(n) * 0.3)
    return CoeffStats(*terms, [rng.integers(50, 200), *rng.integers(10, 60, n)])


@pytest.mark.parametrize("seed,t", [(0, 2), (0, 5), (1, 3), (2, 4), (3, 3)])
def test_descent_matches_or_beats_presets(seed, t):
    stats = _frozen_instance(seed, t)
    preset_vals = []
    for m in TRIPLE_PRESETS:
        try:
            preset_vals.append(v_01(from_preset(m, t), stats, 1.0)[0])
        except ConfigError:
            continue  # ESM-ER is undefined at t=2
    final = descend_v01(init_uniform(t), stats, 1.0, steps=500,
                        learning_rate=10.0)
    assert final <= min(preset_vals) + 1e-3


@pytest.mark.parametrize("steps", [0, -3])
def test_descend_v01_refuses_fewer_than_one_step(steps):
    """With no step there is no value to return: refused, not None."""
    with pytest.raises(ContractError, match="at least one step"):
        descend_v01(init_uniform(3), _frozen_instance(0, 3), 1.0,
                    steps=steps, learning_rate=1.0)


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_descend_v01_returns_the_value_at_the_logits_it_leaves(steps):
    """The value returned is V_01 at the softmax of the logits after the
    last step, not the one computed before it: with one step it already
    differs from the starting value."""
    stats = _frozen_instance(4, 4)
    start = init_uniform(4)
    before = v_01(softmax(start), stats, 1.0)[0]
    logits = start.copy()
    got = descend_v01(logits, stats, 1.0, steps=steps, learning_rate=1.0)
    assert got == v_01(softmax(logits), stats, 1.0)[0]
    assert got < before


@pytest.mark.parametrize("method", ["ER", "UDIL"])
def test_diverging_run_fails_loudly(method):
    """A learning rate that blows the parameters up stops the run at the
    first non-finite loss, naming the method, loss, domain and step, rather
    than finishing with NaN parameters or failing later in sgd_step."""
    cfg = TrainerConfig(method=method, seed=1, arch=SMALL_ARCH,
                        sgd=SgdConfig(1e6, 40, 16), memory_capacity=30)
    with np.errstate(all="ignore"), pytest.raises(
            ContractError, match=rf"^{method}: classification loss is nan "
                                 r"at domain 1, step \d+$"):
        run_sequence(small_stream(), cfg)


@pytest.mark.parametrize("method,loss", [("ER", "model"), ("UDIL", "model"),
                                         ("LwF", "discriminator")])
def test_diverging_replay_step_names_the_loss(method, loss):
    stream = small_stream()
    state = train_domain(initial_state(small_config(method), 4, 2),
                         stream.train(1))
    state.config = dataclasses.replace(state.config,
                                       sgd=SgdConfig(1e6, 40, 16))
    with np.errstate(all="ignore"), pytest.raises(
            ContractError, match=rf"^{method}: {loss} loss is nan at "
                                 r"domain 2, step \d+$"):
        train_domain(state, stream.train(2))


def test_non_finite_coefficient_loss_names_the_loss(monkeypatch):
    """A NaN statistic stops UDIL at its coefficient loss, before the logits
    move: a diverging learning rate fails the model loss first, so the
    statistics the coefficient loss reads are poisoned instead."""
    stats_for_step = trainer.coeff_stats_for_step

    def nan_dhat(*args):
        stats = stats_for_step(*args)
        stats.dhat[...] = np.nan
        return stats

    monkeypatch.setattr(trainer, "coeff_stats_for_step", nan_dhat)
    stream = small_stream()
    state = train_domain(initial_state(small_config("UDIL"), 4, 2),
                         stream.train(1))
    with pytest.raises(ContractError, match=r"^UDIL: coefficient loss is nan "
                                            r"at domain 2, step 1$"):
        train_domain(state, stream.train(2))
    assert 2 not in state.omega_log


@pytest.mark.parametrize("method", ["UDIL", "ER"])
def test_replay_step_gradients_own_their_memory(monkeypatch, method):
    """At every SGD update of a replay step (UDIL's discriminator,
    coefficient and model updates, ER's model update), with every loss term
    on: no two gradients share memory, and no gradient shares memory with
    the parameter array of any network built so far, nor with the values
    it updates, so sgd_step may scale each gradient in place."""
    nets, updates = [], []
    init = Mlp.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        nets.append(self)

    def checking_sgd_step(params, learning_rate):
        pairs = [p if isinstance(p, tuple) else (p.flat, p.grad) for p in params]
        grads = [g for _, g in pairs]
        arrays = [v for v, _ in pairs] + [net.flat for net in nets]
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, o) for o in grads[i + 1:])
            assert not any(np.shares_memory(g, a) for a in arrays)
        updates.append(len(params))
        sgd_step(params, learning_rate)

    monkeypatch.setattr(Mlp, "__init__", recording_init)
    monkeypatch.setattr("dilkit.trainer.sgd_step", checking_sgd_step)
    stream = small_stream()
    hp = HyperParams(lambda_d=0.1, lambda_p=0.1, lambda_s=0.1)
    state = initial_state(small_config(method, steps=1, hp=hp), 4,
                          stream.num_classes)
    for t in (1, 2):
        state = train_domain(state, stream.train(t))
    assert len(updates) == {"UDIL": 4, "ER": 2}[method]


def test_wide_replay_steps_write_into_buffers(monkeypatch):
    """An ER domain at widths [256, 256] and 64 with 228 rows per step (a
    batch of 128 and a bucket of 100): each step after the first allocates
    less than one [228, 256] float64 array at its peak (tracemalloc around
    each replay_step), since the networks write their layer outputs and
    gradients into buffers built once per domain.  The buffers are dropped
    with the domain, so the model keeps none."""
    stream = gen_hd_balls(seed=3, n_domains=2, n_per_domain=200, dim=20,
                          sigma=0.5)
    config = TrainerConfig("ER", 0, arch=ArchConfig([256, 256], 64, [], [64]),
                           sgd=SgdConfig(0.1, 4, 128), memory_capacity=100)
    state = train_domain(initial_state(config, 20, stream.num_classes),
                         stream.train(1))
    step, peaks, rows = trainer.replay_step, [], []

    def traced_step(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        record = step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        rows.append(len(args[7].x))
        return record

    monkeypatch.setattr(trainer, "replay_step", traced_step)
    tracemalloc.start()
    try:
        train_domain(state, stream.train(2))
    finally:
        tracemalloc.stop()
    assert rows == [228] * 4
    assert max(peaks[1:]) < 228 * 256 * 8, peaks
    assert all(net.buffers is None for net in (state.model.encoder,
                                               state.model.predictor))


def test_collapsed_beta_mass_skips_discriminator_step():
    """A huge coefficient step can put exactly zero mass on beta; the
    discriminator loss is then a constant and the step goes on without a
    discriminator update."""
    stream = small_stream()
    res = run_sequence(stream, small_config("UDIL", omega_lr=1e6))
    assert res.omega_by_domain[2] == [[0.0, 0.0, 1.0]]
    assert all(np.isfinite(p.data).all()
               for p in leaves(res.final_state.model))


@pytest.mark.parametrize("name,value", [
    ("omega_lr", float("nan")), ("omega_lr", float("inf")), ("omega_lr", 0.0),
    ("disc_lr", float("nan")), ("disc_lr", -0.1),
    ("memory_batch", 0), ("baseline_models", 0), ("baseline_models", -2),
    ("memory_capacity", 0)])
def test_trainer_config_rejects_bad_values_naming_the_field(name, value):
    with pytest.raises(ContractError, match=f"^{name} must be"):
        TrainerConfig("UDIL", 0, **{name: value})


@pytest.mark.parametrize("name,value", [
    ("embed_dim", 0), ("encoder_hidden", [8, 0]), ("predictor_hidden", [-1]),
    ("disc_hidden", [0])])
def test_arch_config_rejects_empty_layers_naming_the_field(name, value):
    with pytest.raises(ContractError, match=f"^{name} must be >= 1, got"):
        ArchConfig(**{name: value})


@pytest.mark.parametrize("method,capacity,match,field", [
    ("ER", 2, r"^memory_capacity must be >= n_domains = 3, got 2$",
     "memory_capacity"),
    ("Joint", 2, "^memory_capacity must be", "memory_capacity"),
    ("ESM-ER", 30, "^ESM-ER requires lambda' .* t=2 gives", "method")])
def test_unrunnable_sequence_fails_before_the_first_step(
        monkeypatch, method, capacity, match, field):
    """A memory smaller than the number of domains leaves the last domain
    an empty bucket, and ESM-ER has no triple at t = 2: both used to fail
    only after training; now run_sequence refuses before its first step."""
    import dilkit.trainer as trainer

    def no_training(*args, **kwargs):
        raise AssertionError("trained a domain")

    monkeypatch.setattr(trainer, "train_domain", no_training)
    config = dataclasses.replace(small_config(method), memory_capacity=capacity)
    with pytest.raises(ConfigError, match=match) as info:
        run_sequence(small_stream(), config)
    assert info.value.field == field


@pytest.mark.parametrize("n_domains", [1, 2])
def test_unknown_method_is_refused_whatever_the_domain_count(monkeypatch,
                                                             n_domains):
    """A method outside coeffs.METHODS is refused before the first step,
    on a one-domain stream too, where no preset is ever looked up."""
    def no_training(*args, **kwargs):
        raise AssertionError("trained a domain")

    monkeypatch.setattr(trainer, "train_domain", no_training)
    stream = gen_hd_balls(7, n_domains, 50, 20, 0.5)
    with pytest.raises(ConfigError, match="^unknown method 'bogus'") as info:
        run_sequence(stream, small_config("bogus"))
    assert info.value.field == "method"


def test_udil_replay_step_updates_four_arrays(monkeypatch):
    """Every layer's weight and bias of each network a UDIL replay step
    trains is a view of that network's one array, in layer order, and the
    step's three sgd_step calls (discriminator, coefficients, model)
    update four arrays, each with one pair of in-place calls: 8 where an
    update per weight and bias made 22 at these depths."""
    sizes = []

    def counting_sgd_step(params, learning_rate):
        nets = [p for p in params if isinstance(p, Mlp)]
        for net in nets:
            at = 0
            for w, b in net.layers:
                for view in (w, b):
                    assert view.base is net.flat
                    assert view.ctypes.data == net.flat.ctypes.data + 8 * at
                    at += view.size
            assert at == net.flat.size
        sizes.append([2 * len(net.layers) for net in nets]
                     + [1] * (len(params) - len(nets)))
        sgd_step(params, learning_rate)

    monkeypatch.setattr("dilkit.trainer.sgd_step", counting_sgd_step)
    stream = small_stream()
    state = train_domain(initial_state(small_config("UDIL", steps=2), 4, 2),
                         stream.train(1))
    del sizes[:]
    train_domain(state, stream.train(2))
    # per step: the discriminator (2 layers), the logits, the encoder (2
    # layers) and the predictor (1 layer)
    assert sizes == [[4], [1], [4, 2]] * 2
    per_step = sizes[:3]
    assert 2 * sum(map(len, per_step)) == 8
    assert 2 * sum(sum(s) for s in per_step) == 22
