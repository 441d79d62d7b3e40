import dataclasses

import numpy as np
import pytest

from dilkit.autodiff import ContractError, add, mul
from dilkit.coeffs import ConfigError, TRIPLE_PRESETS, from_preset, init_uniform
from dilkit.datagen import DomainStream, LabeledSet, gen_hd_balls
from dilkit.losses import (
    CoeffStats, HyperParams, classification_loss, encoder_aux_loss, erm01,
    v_01, v_d, v_l,
)
from dilkit.membank import MemoryBank
from dilkit.models import ArchConfig, SgdConfig, sgd_step
from dilkit.seeding import substream
from dilkit.trainer import (
    TrainerConfig, TrainState, coeff_stats_for_step, descend_v01,
    initial_state, run_sequence, snapshot_history, train_domain,
)
from reference_step import erm01_agreement

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
    # the discriminator and the simplex live only inside one train_domain call
    assert {"disc", "omega"}.isdisjoint(
        f.name for f in dataclasses.fields(state))

    # independent replication: fresh model, same init and batch substreams
    manual = SMALL_ARCH.build_classifier(4, 2, substream(1, "init"))
    rng = substream(1, "batches", 1)
    data = stream.train(1)
    for _ in range(40):
        idx = np.sort(rng.choice(len(data), size=16, replace=False))
        loss = classification_loss(manual, data.subset(idx))
        loss.backward()
        sgd_step(manual.params(), 0.2)
    for got, want in zip(state.model.params(), manual.params()):
        np.testing.assert_array_equal(got.data, want.data)


def test_model_starts_from_history():
    stream = small_stream()
    state = train_domain(initial_state(small_config("UDIL"), 4, 2),
                         stream.train(1))
    # before any domain-2 step, the live model IS the frozen teacher
    x = stream.test(2).x
    assert erm01_agreement(state.model, state.history.classifier, x) == 0.0


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
    assert state.history is not None


def test_seeded_repeat_bitwise_identical():
    stream = small_stream()
    a = run_sequence(stream, small_config("UDIL"))
    b = run_sequence(stream, small_config("UDIL"))
    assert a.matrix.to_lists() == b.matrix.to_lists()
    assert a.omega_by_domain == b.omega_by_domain
    assert a.baseline_acc == b.baseline_acc


def test_preset_run_records_fixed_triples():
    stream = small_stream()
    res = run_sequence(stream, small_config("DER++"))
    for t in (2, 3):
        np.testing.assert_allclose(np.array(res.omega_by_domain[t]),
                                   from_preset("DER++", t).triples(), atol=0)
    ft = run_sequence(stream, small_config("FineTune"))
    assert np.all(np.array(ft.omega_by_domain[3]) == 0.0)


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
    with pytest.raises(ContractError):
        TrainState(model=state.model, history=None, bank=MemoryBank(10),
                   config=TrainerConfig(method="UDIL", seed=0, arch=SMALL_ARCH,
                                        sgd=SgdConfig(0.1, 1, 1)),
                   t=2)
    with pytest.raises(ContractError, match="pooled"):
        train_domain(initial_state(small_config("Joint"), 4, 2),
                     stream.train(1))


def _post_domain1_state(method="UDIL"):
    stream = small_stream()
    state = train_domain(initial_state(small_config(method), 4, 2),
                         stream.train(1))
    return state, stream


def test_snapshot_deep_copy_and_cache_coherence():
    state, stream = _post_domain1_state()
    snap = state.history
    before = snap.classifier.predict(stream.test(1).x).copy()
    for p in state.model.params():
        p.data += 10.0  # wreck the live model
    np.testing.assert_array_equal(snap.classifier.predict(stream.test(1).x), before)
    for i, bucket in state.bank.buckets.items():
        assert snap.cached_consts[i] == erm01(snap.classifier, bucket)


def test_snapshot_untrained_model_near_chance():
    rng = substream(77, "mem")
    bank = MemoryBank(400)
    x = rng.normal(size=(400, 6))
    y = np.array([0, 1] * 200)
    bank.update_after_domain(LabeledSet(x, y, 1), 1, seed=77)
    state = TrainState(
        model=SMALL_ARCH.build_classifier(6, 2, substream(77, "init")),
        history=None, bank=bank,
        config=TrainerConfig(method="UDIL", seed=77, arch=SMALL_ARCH,
                             sgd=SgdConfig(0.1, 1, 1)),
        t=1)
    snap = snapshot_history(state)
    assert abs(snap.cached_consts[1] - 0.5) <= 0.1


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
    for _ in range(200):
        loss = v_d(d, enc.stopped(), omega, cur, {1: past}, 2)
        loss.backward()
        sgd_step(d.params(), 0.2)
    est = hdh_discriminator_estimate(d, enc, cur_eval, past_eval, 1)
    assert est <= 0.1


def test_update_isolation_checksums():
    state, stream = _post_domain1_state()
    t = 2
    model = state.model
    disc = SMALL_ARCH.build_discriminator(t, substream(1, "disc", t))
    simplex = init_uniform(t)
    rng = substream(1, "batches", t)
    data = stream.train(2)
    idx = np.sort(rng.choice(len(data), size=16, replace=False))
    current = data.subset(idx)
    past = state.bank.sample_past(16, rng)
    past_x = {i: b.x for i, b in past.items()}

    def dump(params):
        return [p.data.copy() for p in params]

    def unchanged(params, before):
        return all(np.array_equal(p.data, b)
                   for p, b in zip(params, before))

    m0, d0, o0 = dump(model.params()), dump(disc.params()), dump([simplex.logits])
    loss5 = mul(v_d(disc, model.stopped().encoder, simplex.triples(),
                    current.x, past_x, t), 1.0)
    loss5.backward()
    sgd_step(disc.params(), 0.2)
    assert unchanged(model.params(), m0) and unchanged([simplex.logits], o0)
    assert not unchanged(disc.params(), d0)

    m0, d0, o0 = dump(model.params()), dump(disc.params()), dump([simplex.logits])
    stats = coeff_stats_for_step(model, state.history, disc, current, past)
    loss6 = v_01(simplex, stats, 1.0, len(data), [len(b) for b in past.values()])
    loss6.backward()
    sgd_step([simplex.logits], 0.2)
    assert unchanged(model.params(), m0) and unchanged(disc.params(), d0)
    assert not unchanged([simplex.logits], o0)

    m0, d0, o0 = dump(model.params()), dump(disc.params()), dump([simplex.logits])
    frozen = simplex.triples()
    loss7 = v_l(model, state.history, frozen, current, past)
    aux = encoder_aux_loss(model.encoder, disc.stopped(),
                           state.history.classifier.encoder, frozen, current,
                           past, t, HyperParams(), rng)
    total = add(loss7, aux)
    total.backward()
    sgd_step(model.params(), 0.2)
    assert unchanged(disc.params(), d0) and unchanged([simplex.logits], o0)
    assert not unchanged(model.params(), m0)


def _frozen_instance(seed, t):
    rng = np.random.default_rng(seed)
    n = t - 1
    stats = CoeffStats(rng.random(n) * 0.5, rng.random(n) * 0.5,
                       float(rng.random() * 0.5), rng.random(n) * 1.5,
                       rng.random(n) * 0.3)
    return stats, int(rng.integers(50, 200)), list(rng.integers(10, 60, n))


@pytest.mark.parametrize("seed,t", [(0, 2), (0, 5), (1, 3), (2, 4), (3, 3)])
def test_descent_matches_or_beats_presets(seed, t):
    stats, n_cur, n_mem = _frozen_instance(seed, t)
    preset_vals = []
    for m in TRIPLE_PRESETS:
        try:
            preset_vals.append(v_01(from_preset(m, t), stats, 1.0,
                                    n_cur, n_mem).item())
        except ConfigError:
            continue  # ESM-ER is undefined at t=2
    simplex = init_uniform(t)
    final = descend_v01(simplex, stats, 1.0, n_cur, n_mem,
                        steps=500, learning_rate=10.0)
    assert final <= min(preset_vals) + 1e-3


def test_descend_rejects_fixed_mode():
    stats, n_cur, n_mem = _frozen_instance(0, 3)
    with pytest.raises(ContractError):
        descend_v01(from_preset("ER", 3), stats, 1.0, n_cur, n_mem, 10, 1.0)


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


def test_collapsed_beta_mass_skips_discriminator_step():
    """A huge coefficient step can put exactly zero mass on beta; the
    discriminator loss is then a constant and the step goes on without a
    discriminator update."""
    stream = small_stream()
    res = run_sequence(stream, small_config("UDIL", omega_lr=1e6))
    assert res.omega_by_domain[2] == [[0.0, 0.0, 1.0]]
    assert all(np.isfinite(p.data).all()
               for p in res.final_state.model.params())
