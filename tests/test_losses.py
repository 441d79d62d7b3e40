import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops
import reference_step
from dilkit import trainer
from dilkit.autodiff import ContractError, Tensor, softmax
from dilkit.coeffs import (
    TRIPLE_PRESETS, from_preset, init_uniform, logit_gradient,
)
from dilkit.datagen import LabeledSet, gen_hd_balls
from dilkit.losses import (
    N_NEGATIVES, CoeffStats, HyperParams, StepBatch, StepLayout,
    classification_loss, encoder_aux_loss, erm01, v_01, v_d, v_l, v_p, v_s,
)
from dilkit.models import ArchConfig, Classifier, Mlp, SgdConfig
from gradcheck import closed_form_node, gradcheck, gradcheck_array
from reference_ops import logits_node
from reference_step import distillation_loss, erm01_agreement


def identity_mlp(dim):
    m = Mlp([dim, dim], rng=np.random.default_rng(0))
    m.layers[0][0].data[...] = np.eye(dim)
    m.layers[0][1].data[...] = 0.0
    return m


def passthrough_classifier(k):
    """Logits equal the input row exactly."""
    return Classifier(identity_mlp(k), identity_mlp(k))


def random_classifier(in_dim, k, seed, hidden=5, embed=4):
    rng = np.random.default_rng(seed)
    return Classifier(Mlp([in_dim, hidden, embed], rng=rng),
                      Mlp([embed, k], rng=rng))


# numpy-only oracles
def np_logsoftmax(z):
    m = z.max(axis=1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def np_ce(clf, batch):
    lp = np_logsoftmax(clf.logits(batch.x))
    return -lp[np.arange(len(batch)), batch.y].mean()


def np_distill(clf, teacher, x):
    t = softmax(teacher.logits(x))
    lp = np_logsoftmax(clf.logits(x))
    return -(t * lp).sum(axis=1).mean()


def _ce(clf, batch):
    """classification_loss's value on the classifier's logits for `batch`."""
    return classification_loss(clf.logits(batch.x), batch.y)[0]


def test_classification_perfect_prediction():
    clf = passthrough_classifier(3)
    # logits massively favor the true class -> p(true) ~ 1
    x = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    batch = LabeledSet(x, [0, 1])
    assert _ce(clf, batch) < 1e-12


def test_classification_uniform_binary():
    clf = passthrough_classifier(2)
    batch = LabeledSet(np.zeros((4, 2)), [0, 1, 0, 1])
    assert _ce(clf, batch) == pytest.approx(math.log(2))


def test_classification_hand_probabilities():
    clf = passthrough_classifier(2)
    # feed log-probabilities as logits: softmax restores the probabilities
    rows = [np.log([0.7, 0.3]), np.log([0.7, 0.3]), np.log([0.1, 0.9])]
    batch = LabeledSet(np.array(rows), [0, 0, 0])
    expect = (2 * -math.log(0.7) + -math.log(0.1)) / 3
    assert _ce(clf, batch) == pytest.approx(expect)


def test_classification_empty_batch():
    clf = passthrough_classifier(2)
    with pytest.raises(ContractError):
        _ce(clf, LabeledSet(np.zeros((0, 2)), []))


def test_distillation_self_is_entropy_floor():
    clf = random_classifier(4, 3, seed=1)
    x = np.random.default_rng(2).normal(size=(6, 4))
    teacher = clf.stopped()
    p = softmax(teacher.logits(x))
    entropy = -(p * np.log(p)).sum(axis=1).mean()
    assert distillation_loss(clf, teacher, x).item() == pytest.approx(entropy)


def test_distillation_onehot_reduces_to_classification():
    clf = random_classifier(3, 2, seed=3)
    teacher = passthrough_classifier(2)
    # broken: teacher takes 2-dim inputs; use matching input dim
    clf = random_classifier(2, 2, seed=3)
    x = np.array([[80.0, 0.0], [0.0, 80.0], [90.0, 1.0]])
    dl = distillation_loss(clf, teacher, x).item()
    labels = teacher.predict(x)
    cl = _ce(clf, LabeledSet(x, labels))
    assert dl == pytest.approx(cl, abs=1e-9)


def test_distillation_matches_numpy_oracle():
    clf = random_classifier(5, 4, seed=4)
    teacher = random_classifier(5, 4, seed=5).stopped()
    x = np.random.default_rng(6).normal(size=(5, 5))
    assert distillation_loss(clf, teacher, x).item() == pytest.approx(
        np_distill(clf, teacher, x))


def test_distillation_no_gradient_into_teacher():
    clf = random_classifier(3, 2, seed=7)
    teacher = random_classifier(3, 2, seed=8)  # not frozen on purpose
    x = np.random.default_rng(9).normal(size=(4, 3))
    loss = distillation_loss(clf, teacher, x)
    loss.backward()
    assert all(p.grad is None for p in teacher.params())
    assert any(p.grad is not None for p in clf.params())


def test_distillation_arity_mismatch():
    clf = random_classifier(3, 2, seed=1)
    teacher = random_classifier(3, 4, seed=2)
    with pytest.raises(ContractError, match="arity"):
        distillation_loss(clf, teacher, np.zeros((2, 3)))


def test_erm01_counting():
    clf = passthrough_classifier(2)
    x = np.array([[1.0, 0.0]] * 10)
    y = np.array([0] * 7 + [1] * 3)
    assert erm01(clf, LabeledSet(x, y)) == pytest.approx(0.3)
    assert erm01(clf, LabeledSet(x, np.zeros(10, dtype=int))) == 0.0
    assert erm01(clf, LabeledSet(x, np.ones(10, dtype=int))) == 1.0


def test_erm01_agreement_brute_force():
    a = random_classifier(4, 3, seed=10)
    b = random_classifier(4, 3, seed=11)
    x = np.random.default_rng(12).normal(size=(20, 4))
    expect = np.mean(np.argmax(a.logits(x), 1) != np.argmax(b.logits(x), 1))
    assert erm01_agreement(a, b, x) == pytest.approx(expect)
    assert erm01_agreement(a, a, x) == 0.0


def _two_domain_setup(seed=20):
    rng = np.random.default_rng(seed)
    h = random_classifier(3, 2, seed=seed)
    teacher = random_classifier(3, 2, seed=seed + 1).stopped()
    cur = LabeledSet(rng.normal(size=(6, 3)), rng.integers(0, 2, 6), 2)
    past = {1: LabeledSet(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))}
    return h, teacher, cur, past


def _v_l(h, teacher, omega, cur, past):
    """V_l on the record of `cur` and `past`, from the student's logits and
    the teacher's probabilities on its rows, as a node over the logits."""
    b = StepBatch.stack(cur, past)
    probs = softmax(teacher.logits(b.x))
    return closed_form_node(lambda z: v_l(b, omega, z, probs),
                            logits_node(h, b.x))


def _x_record(cur_x, past_x, t):
    """A record of bare inputs, every label 0: `cur_x` from domain t, then
    past_x[i] for each past domain i."""
    xs = [cur_x] + [past_x[i] for i in sorted(past_x)]
    layout = StepLayout([len(x) for x in xs], sorted(past_x), t)
    return StepBatch(np.concatenate(xs), np.zeros(layout.bounds[-1], np.int64),
                     layout)


def _v_d(d, enc, omega, cur_x, past_x, t):
    """V_d on the record of `cur_x` and `past_x`, from d(enc(x)), as a node
    over the logits."""
    b = _x_record(cur_x, past_x, t)
    return closed_form_node(lambda z: v_d(b, omega, z, 1.0, None),
                            logits_node(d, logits_node(enc, b.x)))


def _v_p(enc, prev, memory_x):
    """V_p on the record of two current rows (weight 0) and `memory_x`,
    from both encoders' embeddings of its rows, as a node over the
    student's."""
    cur_x = np.ones((2, next(iter(memory_x.values())).shape[1]))
    b = _x_record(cur_x, memory_x, len(memory_x) + 1)
    return closed_form_node(lambda z: v_p(b, z, prev.logits(b.x), 1.0),
                            logits_node(enc, b.x))


def _v_s(enc, batch, n_negatives, rng):
    """V_s on the encoder's embedding of the batch's rows, as a node over
    it (a constant when V_s is)."""
    return closed_form_node(
        lambda z: v_s(z, batch.y, n_negatives, rng, 1.0),
        logits_node(enc, batch.x))


def test_v_l_t1_is_plain_ce():
    h, _, cur, _ = _two_domain_setup()
    b = StepBatch.stack(cur, {})
    value, _ = v_l(b, np.zeros((0, 3)), h.logits(b.x), None)
    assert value == pytest.approx(np_ce(h, cur))


def test_v_l_er_preset_is_replay_ce():
    h, teacher, cur, past = _two_domain_setup()
    omega = from_preset("ER", 2)
    got = _v_l(h, teacher, omega, cur, past)
    assert got.item() == pytest.approx(np_ce(h, cur) + np_ce(h, past[1]))


def test_v_l_derpp_hand_arithmetic():
    h, teacher, cur, past = _two_domain_setup(seed=21)
    omega = np.array([[0.5, 0.0, 0.5]])
    got = _v_l(h, teacher, omega, cur, past)
    expect = (np_ce(h, cur) + 0.5 * np_ce(h, past[1])
              + 0.5 * np_distill(h, teacher, past[1].x))
    assert got.item() == pytest.approx(expect)


def test_v_l_lwf_uses_current_distillation():
    h, teacher, cur, past = _two_domain_setup(seed=22)
    omega = np.array([[0.0, 1.0, 0.0]])
    got = _v_l(h, teacher, omega, cur, past)
    expect = np_ce(h, cur) + np_distill(h, teacher, cur.x)
    assert got.item() == pytest.approx(expect)


def test_v_l_omega_length_contract():
    h, teacher, cur, past = _two_domain_setup()
    with pytest.raises(ContractError):
        _v_l(h, teacher, np.zeros((3, 3)), cur, past)


def test_v_l_moves_theta_not_omega():
    h, teacher, cur, past = _two_domain_setup(seed=23)
    loss = _v_l(h, teacher, softmax(init_uniform(2)), cur, past)
    loss.backward()  # the triples are a constant array
    assert any(p.grad is not None and np.any(p.grad != 0) for p in h.params())


def _stats(n, rng=None, zero=False):
    if zero:
        z = np.zeros(n)
        return CoeffStats(z, z.copy(), 0.0, z.copy(), z.copy())
    return CoeffStats(rng.random(n), rng.random(n), float(rng.random()),
                      rng.random(n) * 2, rng.random(n))


def test_v_01_generalization_term_substitution():
    stats = _stats(1, zero=True)
    er = from_preset("ER", 2)     # beta = 0, gamma + alpha = 1
    lwf = from_preset("LwF", 2)   # beta = 1, gamma + alpha = 0
    got_er = v_01(er, stats, c_gen=1.0, n_current=100, n_memory=[10])
    got_lwf = v_01(lwf, stats, c_gen=1.0, n_current=100, n_memory=[10])
    assert got_er[0] == pytest.approx(math.sqrt(1 / 100 + 1 / 10))
    assert got_lwf[0] == pytest.approx(math.sqrt(4 / 100))


def test_v_01_zero_stats_zero_c():
    logits = np.random.default_rng(0).normal(size=(3, 3))
    got = v_01(softmax(logits), _stats(3, zero=True), 0.0, 50, [5, 5, 5])
    assert got[0] == 0.0


def test_v_01_numpy_oracle_and_monotone_beta_slope():
    rng = np.random.default_rng(30)
    stats = _stats(2, rng)
    logits = rng.normal(size=(2, 3))
    tr = softmax(logits)
    a, b, g = tr[:, 0], tr[:, 1], tr[:, 2]
    expect = (np.sum(g * stats.eps_replay) + np.sum(a * stats.eps_intra)
              + b.sum() * stats.eps_cross + 0.5 * np.sum(b * stats.dhat)
              + np.sum((a + b) * stats.eps_hist)
              + 2.0 * math.sqrt((1 + b.sum()) ** 2 / 40
                                + np.sum((g + a) ** 2 / np.array([7.0, 9.0]))))
    got = v_01(softmax(logits), stats, 2.0, 40, [7, 9])
    assert got[0] == pytest.approx(expect)


def _coefficient_step_gradient(logits, stats, c_gen, n_current, n_memory):
    """V_01 at softmax(logits) and its gradient on the logits, as the
    trainer's coefficient update takes them."""
    omega = softmax(logits)
    value, grad = v_01(omega, stats, c_gen, n_current, n_memory)
    return value, logit_gradient(omega, grad)


def test_v_01_gradient_fd():
    rng = np.random.default_rng(31)
    stats = _stats(3, rng)
    logits = rng.normal(size=(3, 3))
    gradcheck_array(lambda z: _coefficient_step_gradient(
        z, stats, 1.3, 60, [8, 6, 9]), logits, rng=rng)


def test_v_01_contract_positive_counts():
    with pytest.raises(ContractError):
        v_01(softmax(init_uniform(2)), _stats(1, zero=True), 1.0, 0, [5])


def test_v_01_contract_past_domain_counts_agree():
    rng = np.random.default_rng(32)
    with pytest.raises(ContractError, match="simplex has 4 .* stats 4 and n_memory 1"):
        v_01(softmax(init_uniform(5)), _stats(4, rng), 1.0, 50, [10])
    with pytest.raises(ContractError, match="simplex has 4 .* stats 3 and n_memory 4"):
        v_01(softmax(init_uniform(5)), _stats(3, rng), 1.0, 50,
             [10, 10, 10, 10])
    with pytest.raises(ContractError, match="simplex has 1 .* stats 2 and n_memory 2"):
        v_01(from_preset("ER", 2), _stats(2, rng), 1.0, 50, [10, 10])


@settings(max_examples=80, deadline=None)
@given(t=st.integers(2, 7), c_gen=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
       scale=st.sampled_from([0.1, 1.0, 5.0]), zero=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1))
def test_v_01_matches_per_column_reference(t, c_gen, scale, zero, seed):
    """The closed-form V_01 gives, byte for byte, the value and gradient of
    the one-node form it replaced (loss.item() and the leaf's grad after
    loss.backward()), and equals the per-column reference (within 1e-12
    relative, the gradient against its largest entry) and the
    selection-matrix composition (value within 1e-15 relative, gradient
    within 1e-15): on the logits, through reference_ops' graph softmax, at
    random logits, and on the triples at every preset."""
    rng = np.random.default_rng(seed)
    stats = _stats(t - 1, rng, zero=zero)
    n_current = int(rng.integers(1, 500))
    n_memory = list(rng.integers(1, 200, size=t - 1))
    logits = rng.normal(size=(t - 1, 3)) * scale
    args = (stats, c_gen, n_current, n_memory)
    methods = [m for m in TRIPLE_PRESETS + ("FineTune",)
               if not (m == "ESM-ER" and t == 2)]
    for method in methods + ["UDIL"]:
        adaptive = method == "UDIL"
        if adaptive:
            value, grad = _coefficient_step_gradient(logits, *args)
        else:
            value, grad = v_01(from_preset(method, t), *args)
        runs = []
        for build in (reference_ops.v_01_node, reference_step.v_01,
                      reference_ops.v_01_selection):
            leaf = Tensor(logits.copy() if adaptive else from_preset(method, t),
                          requires_grad=True)
            loss = build(reference_ops.softmax(leaf) if adaptive else leaf,
                         *args)
            loss.backward()
            runs.append((loss.item(), leaf.grad))
        (node_value, node_grad), (ref_value, ref_grad), (sel_value, sel_grad) = runs
        assert np.float64(value).tobytes() == np.float64(node_value).tobytes()
        assert grad.tobytes() == node_grad.tobytes()
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert abs(value - sel_value) <= 1e-15 * abs(sel_value)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        assert np.abs(grad - sel_grad).max() <= 1e-15


def test_coefficient_update_builds_no_tensor(monkeypatch):
    """A UDIL step's coefficient update, from V_01 through the logits'
    sgd_step to the next triples, builds no Tensor: between entering V_01
    and entering V_l the creation counter moves only for the probe.  Domain
    1's steps, V_l's alone, build none from one V_l to the next either."""
    seen = []

    def probe(fn, name):
        def wrapped(*args, **kwargs):
            seen.append((name, Tensor(0.0)._seq))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(trainer, "v_01", probe(trainer.v_01, "v_01"))
    monkeypatch.setattr(trainer, "v_l", probe(trainer.v_l, "v_l"))
    stream = gen_hd_balls(seed=3, n_domains=3, n_per_domain=40, dim=4,
                          sigma=0.4)
    config = trainer.TrainerConfig(
        "UDIL", 0, arch=ArchConfig([8], 4, [], [8]), sgd=SgdConfig(0.2, 3, 8),
        memory_capacity=20)
    trainer.run_sequence(stream, config)
    assert [name for name, _ in seen] == ["v_l"] * 3 + ["v_01", "v_l"] * 6
    for (_, start), (_, end) in zip(seen[:2], seen[1:3]):
        assert end - start == 1
    for (_, start), (_, end) in zip(seen[3::2], seen[4::2]):
        assert end - start == 1


def test_v_d_zero_betas():
    """With no beta mass V_d is the constant 0: v_d returns None."""
    enc = identity_mlp(3)
    d = Mlp([3, 2], rng=np.random.default_rng(0))
    b = _x_record(np.zeros((4, 3)), {1: np.zeros((4, 3))}, 2)
    assert v_d(b, np.array([[0.5, 0.0, 0.5]]),
               d.logits(enc.logits(b.x)), 1.0, None) is None


def test_v_d_uniform_discriminator_4ln3():
    enc = identity_mlp(3)
    d = Mlp([3, 3], rng=np.random.default_rng(0))
    d.layers[0][0].data[...] = 0.0
    omega = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(1)
    got = _v_d(d, enc, omega, rng.normal(size=(5, 3)),
               {1: rng.normal(size=(4, 3)), 2: rng.normal(size=(6, 3))}, t=3)
    assert got.item() == pytest.approx(4 * math.log(3))


def test_v_d_perfect_discriminator_near_zero():
    enc = identity_mlp(2)
    d = Mlp([2, 3], rng=np.random.default_rng(0))
    d.layers[0][0].data[...] = np.array([[60.0, 0.0, 0.0],
                                         [0.0, 0.0, 60.0]])
    cur = np.array([[0.0, 1.0]] * 3)     # class index 2
    past1 = np.array([[1.0, 0.0]] * 3)   # class index 0
    omega = np.array([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
    past = {1: past1, 2: np.array([[1.0, 0.0]])}
    # domain 2's batch lands on class 0, not 1, so exclude it via beta
    omega[1, 1] = 0.0
    got = _v_d(d, enc, omega, cur, past, t=3)
    assert got.item() < 1e-8


def test_v_d_arity_contract():
    enc = identity_mlp(3)
    d = Mlp([3, 2], rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match="arity"):
        _v_d(d, enc, np.array([[0.0, 1.0, 0.0]]), np.zeros((2, 3)),
             {1: np.zeros((2, 3))}, t=3)


def test_v_p_identical_and_shifted():
    enc = identity_mlp(3)
    prev = identity_mlp(3)
    x = {1: np.random.default_rng(0).normal(size=(4, 3))}
    assert _v_p(enc, prev, x).item() == 0.0
    shifted = identity_mlp(3)
    shifted.layers[0][1].data[...] = [1.0, 2.0, 2.0]  # ||c||^2 = 9
    assert _v_p(shifted, prev, x).item() == pytest.approx(9.0)
    x2 = {1: x[1], 2: np.random.default_rng(1).normal(size=(6, 3))}
    assert _v_p(shifted, prev, x2).item() == pytest.approx(18.0)


def test_v_p_numpy_oracle():
    rng = np.random.default_rng(40)
    enc = Mlp([3, 4, 2], rng=rng)
    prev = Mlp([3, 4, 2], rng=rng)
    x = {1: rng.normal(size=(10, 3))}
    diff = enc.logits(x[1]) - prev.logits(x[1])
    assert _v_p(enc, prev, x).item() == pytest.approx((diff ** 2).sum() / 10)


def test_v_p_empty_past_returns_zero():
    b = _x_record(np.ones((3, 2)), {}, 1)
    shifted = identity_mlp(2)
    shifted.layers[0][1].data[...] = 1.0
    value, _ = v_p(b, shifted.logits(b.x), identity_mlp(2).logits(b.x), 1.0)
    assert value == 0.0


def test_v_s_all_distances_equal():
    # rows of 2*I: every pair of distinct points at squared distance 8
    enc = identity_mlp(4)
    x = 2.0 * np.eye(4)
    batch = LabeledSet(x, [0, 0, 1, 1])
    got = _v_s(enc, batch, n_negatives=3, rng=np.random.default_rng(0))
    assert got.item() == pytest.approx(math.log(1 + 3))


def test_v_s_perfect_separation_limit():
    enc = identity_mlp(2)
    x = np.array([[0.0, 0.0], [0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
    batch = LabeledSet(x, [0, 0, 1, 2])
    # anchors are the two coincident class-0 points: s+ = 0, s- >= 1600
    got = _v_s(enc, batch, n_negatives=4, rng=np.random.default_rng(1))
    assert got.item() < 1e-6


def test_v_s_no_positive_pair_warns_and_zero(caplog):
    enc = identity_mlp(2)
    batch = LabeledSet(np.eye(2), [0, 1])
    with caplog.at_level(logging.WARNING):
        got = _v_s(enc, batch, 2, np.random.default_rng(0))
    assert got.item() == 0.0
    assert any("same-class" in r.message for r in caplog.records)


@pytest.mark.parametrize("n", [2, 5])
def test_v_s_one_label_batch_is_zero(n):
    """With one label throughout no anchor has a negative: V_s is a constant
    0, and the generator has drawn one positive per anchor and nothing
    more, where the per-row reference also leaves it."""
    enc = identity_mlp(2)
    batch = LabeledSet(np.arange(2.0 * n).reshape(n, 2), [1] * n)
    rng, ref_rng, replay = (np.random.default_rng(4) for _ in range(3))
    got = _v_s(enc, batch, 3, rng)
    assert got.item() == 0.0 and not got.requires_grad
    assert reference_step.v_s(enc, batch, 3, ref_rng).item() == 0.0
    for a in range(n):
        replay.choice(np.delete(np.arange(n), a))
    assert (rng.bit_generator.state == ref_rng.bit_generator.state
            == replay.bit_generator.state)


def test_v_s_hand_table():
    # embeddings on a line: class 0 at 0 and 1, class 1 at 4
    enc = identity_mlp(1)
    x = np.array([[0.0], [1.0], [4.0]])
    batch = LabeledSet(x, [0, 0, 1])
    rng = np.random.default_rng(3)
    got = _v_s(enc, batch, n_negatives=2, rng=rng)
    # replay the rng to recover the sampled pairs, then evaluate by hand
    rng2 = np.random.default_rng(3)
    pos = {0: int(rng2.choice([1])), 1: int(rng2.choice([0]))}
    neg = {}
    for a in (0, 1):
        pool = np.array([j for j in range(3) if batch.y[j] != batch.y[a]])
        neg[a] = rng2.choice(pool, size=2, replace=True)
    total = 0.0
    for a in (0, 1):
        sp = (x[a, 0] - x[pos[a], 0]) ** 2
        sn = [(x[a, 0] - x[j, 0]) ** 2 for j in neg[a]]
        total += np.logaddexp.reduce([0.0] + [sp - s for s in sn])
    assert got.item() == pytest.approx(total / 2)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 30), n_classes=st.integers(1, 4),
       n_negatives=st.integers(0, 6), seed=st.integers(0, 2 ** 31 - 1))
def test_v_s_matches_per_row_reference(n, n_classes, n_negatives, seed):
    """The single cross-entropy V_s draws the same pairs as the per-row
    reference (the generators end in the same state), with the value
    within 1e-12 relative and every encoder gradient within 1e-12 of the
    largest reference gradient entry."""
    rng = np.random.default_rng(seed)
    enc = Mlp([3, 5, 4], rng=rng)
    batch = LabeledSet(rng.normal(size=(n, 3)),
                       rng.integers(0, n_classes, size=n))
    runs = []
    for build in (_v_s, reference_step.v_s):
        for p in enc.params():
            p.grad = None
        draws = np.random.default_rng(seed)
        loss = build(enc, batch, n_negatives, draws)
        if loss.requires_grad:
            loss.backward()
        runs.append((loss.item(), [p.grad for p in enc.params()],
                     draws.bit_generator.state))
    (value, grads, state), (ref_value, ref_grads, ref_state) = runs
    assert state == ref_state
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    if all(g is None for g in ref_grads):
        assert all(g is None for g in grads)
        return
    scale = max(np.abs(g).max() for g in ref_grads)
    for g, ref_g in zip(grads, ref_grads):
        assert np.abs(g - ref_g).max() <= 1e-12 * scale


def test_encoder_aux_reductions_and_composition():
    rng = np.random.default_rng(50)
    enc = Mlp([3, 4, 2], rng=rng)
    prev = Mlp([3, 4, 2], rng=rng)
    d = Mlp([2, 2], rng=rng).stopped()
    cur = LabeledSet(rng.normal(size=(5, 3)), rng.integers(0, 2, 5), 2)
    past = {1: LabeledSet(rng.normal(size=(4, 3)), rng.integers(0, 2, 4))}
    batch = StepBatch.stack(cur, past)
    omega = np.array([[0.2, 0.5, 0.3]])

    def aux(hp, seed):
        embedding = enc.logits(batch.x)
        return encoder_aux_loss(embedding, d.logits(embedding), None,
                                prev.logits(batch.x), omega, batch, hp,
                                np.random.default_rng(seed))[0]

    hp0 = HyperParams(lambda_d=0.0, lambda_p=0.0, lambda_s=0.0)
    assert aux(hp0, 0) == 0.0

    hp_d = HyperParams(lambda_d=0.7, lambda_p=0.0, lambda_s=0.0)
    vd = _v_d(d, enc, omega, cur.x, {1: past[1].x}, 2).item()
    assert aux(hp_d, 0) == pytest.approx(-0.7 * vd)

    hp = HyperParams(lambda_d=0.5, lambda_p=1.3, lambda_s=0.9)
    vp = _v_p(enc, prev, {1: past[1].x}).item()
    combined = LabeledSet(np.concatenate([cur.x, past[1].x]),
                          np.concatenate([cur.y, past[1].y]))
    vs = _v_s(enc, combined, N_NEGATIVES, np.random.default_rng(7)).item()
    assert aux(hp, 7) == pytest.approx(-0.5 * vd + 1.3 * vp + 0.9 * vs)


def test_encoder_aux_gradient_reaches_encoder_only():
    """The V_d term's logits gradient, backpropagated through the stopped
    discriminator as the step does, sets the encoder's gradients and none
    of the discriminator's; without V_p or V_s there is no graph term."""
    rng = np.random.default_rng(51)
    enc = Mlp([3, 4, 2], rng=rng)
    d = Mlp([2, 2], rng=rng)
    cur = LabeledSet(rng.normal(size=(5, 3)), rng.integers(0, 2, 5), 2)
    past = {1: LabeledSet(rng.normal(size=(4, 3)), rng.integers(0, 2, 4))}
    batch = StepBatch.stack(cur, past)
    encoded = enc.forward(batch.x)
    stopped = d.stopped()
    disc_acts = stopped.forward(encoded[-1])
    hp = HyperParams(lambda_d=1.0)
    _, disc_grad, emb_grad = encoder_aux_loss(
        encoded[-1], disc_acts[-1], None,
        Mlp([3, 4, 2], rng=rng).logits(batch.x),
        np.array([[0.0, 1.0, 0.0]]), batch, hp, np.random.default_rng(0))
    assert emb_grad is None
    enc.backward(encoded, stopped.backward(disc_acts, disc_grad, True), False)
    assert any(p.grad is not None for p in enc.params())
    assert all(p.grad is None for p in d.params())


def test_encoder_aux_loss_needs_a_past_segment():
    """On a one-segment record (domain 1, FineTune, Joint) with every
    weight on, no term runs: V_d and V_p have no past row to read, and V_s,
    drawing pairs from the rows, is left out with them.  The value is -0.0,
    which adds no bit to V_l's, there is no gradient, and the generator
    is not drawn from."""
    rng = np.random.default_rng(52)
    batch = StepBatch.stack(
        LabeledSet(rng.normal(size=(6, 3)), np.array([0, 1] * 3), 1), {})
    embedding = Mlp([3, 4, 2], rng=rng).logits(batch.x)
    draws = np.random.default_rng(0)
    before = draws.bit_generator.state
    hp = HyperParams(lambda_d=0.1, lambda_p=0.1, lambda_s=0.1)
    value, disc_grad, emb_grad = encoder_aux_loss(
        embedding, None, None, None, np.zeros((0, 3)), batch, hp, draws)
    assert (value, disc_grad, emb_grad) == (0.0, None, None)
    assert math.copysign(1.0, value) == -1.0
    assert draws.bit_generator.state == before


@pytest.mark.parametrize("seed", range(5))
def test_loss_gradients_finite_difference(seed):
    rng = np.random.default_rng(100 + seed)
    h, teacher, cur, past = _two_domain_setup(seed=200 + seed)
    omega = np.array([[0.3, 0.3, 0.4]])
    gradcheck(lambda: _v_l(h, teacher, omega, cur, past), h.params(),
              rng=rng, max_coords=4)

    d = Mlp([4, 2], rng=rng)
    enc = h.encoder
    gradcheck(lambda: _v_d(d, enc, omega, cur.x, {1: past[1].x}, 2),
              enc.params() + d.params(), rng=rng, max_coords=4)

    prev = Mlp([3, 5, 4], rng=rng)
    gradcheck(lambda: _v_p(enc, prev, {1: past[1].x}), enc.params(),
              rng=rng, max_coords=4)

    def vs():
        return _v_s(enc, cur, 3, np.random.default_rng(seed))
    gradcheck(vs, enc.params(), rng=rng, max_coords=4)


_H = random_classifier(3, 2, seed=61)
_D = Mlp([3, 3], rng=np.random.default_rng(62))
ER, LWF = [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]
# (message, call on a t = 3 record and omega, (empty segment, omega) that
# raises, (empty segment, omega) that is accepted); segment 0 is the current
# rows, None leaves every segment full
LOSS_RAISES = [
    ("v_l: empty batch",
     lambda b, w: v_l(b, w, _H.logits(b.x), _H.logits(b.x))[0],
     (1, [ER, ER]), (1, [LWF, ER])),
    ("v_l: distillation arity mismatch",
     lambda b, w: v_l(b, w, _H.logits(b.x), np.zeros((len(b.y), 3)))[0],
     (None, [LWF, ER]), (None, [ER, ER])),
    ("v_d: empty batch",
     lambda b, w: v_d(b, w, _D.logits(b.x), 1.0, None)[0],
     (2, [LWF, LWF]), (2, [LWF, ER])),
    ("v_p: empty batch",
     lambda b, w: v_p(b, _H.encoder.logits(b.x),
                      np.zeros((len(b.y), 4)), 1.0)[0],
     (1, [ER, ER]), (0, [ER, ER])),
]


def _record_without(empty):
    """A t = 3 record of 4 current rows and 3 and 5 past rows, with
    segment `empty` emptied."""
    rng = np.random.default_rng(60)
    sizes = [4, 3, 5]
    if empty is not None:
        sizes[empty] = 0
    cur, past1, past2 = (LabeledSet(rng.normal(size=(n, 3)),
                                    rng.integers(0, 2, n), i)
                         for n, i in zip(sizes, (3, 1, 2)))
    return StepBatch.stack(cur, {1: past1, 2: past2})


@pytest.mark.parametrize("message,call,raising,accepted", LOSS_RAISES,
                         ids=[case[0] for case in LOSS_RAISES])
def test_loss_raises_only_on_a_weighted_segment(message, call, raising,
                                                accepted):
    """A segment with no row raises, naming the term, when it carries
    weight, and so does a teacher of the wrong arity once a segment is
    distilled; the same shortfall at weight 0 gives a finite loss."""
    empty, omega = raising
    with pytest.raises(ContractError, match=f"^{message}"):
        call(_record_without(empty), np.array(omega))
    empty, omega = accepted
    assert np.isfinite(call(_record_without(empty), np.array(omega)))


def test_hyperparams_validation():
    with pytest.raises(ContractError):
        HyperParams(lambda_d=-0.1)
    hp = HyperParams()
    assert hp.lambda_d == 1.0 and hp.c_gen == 1.0
    assert hp.lambda_p == 0.0 and hp.lambda_s == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,name", [
    (SgdConfig, "learning_rate"), (HyperParams, "lambda_d"),
    (HyperParams, "c_gen"), (HyperParams, "lambda_p"),
    (HyperParams, "lambda_s")])
def test_non_finite_values_rejected_naming_the_field(cls, name, value):
    with pytest.raises(ContractError, match=f"^{name} must be finite"):
        cls(**{name: value})
