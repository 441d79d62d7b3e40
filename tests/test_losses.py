import logging
import math

import numpy as np
import pytest

from dilkit.autodiff import ContractError, Tensor, gradcheck
from dilkit.coeffs import from_preset, init_uniform
from dilkit.datagen import LabeledSet
from dilkit.losses import (
    CoeffStats, HistorySnapshot, HyperParams, classification_loss,
    encoder_aux_loss, erm01, v_01, v_d, v_l, v_p, v_s,
)
from dilkit.models import Classifier, Mlp, SgdConfig
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
    lp = np_logsoftmax(clf.logits(batch.x).data)
    return -lp[np.arange(len(batch)), batch.y].mean()


def np_distill(clf, teacher, x):
    t = teacher.probs(x).data
    lp = np_logsoftmax(clf.logits(x).data)
    return -(t * lp).sum(axis=1).mean()


def test_classification_perfect_prediction():
    clf = passthrough_classifier(3)
    # logits massively favor the true class -> p(true) ~ 1
    x = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    batch = LabeledSet(x, [0, 1])
    assert classification_loss(clf, batch).item() < 1e-12


def test_classification_uniform_binary():
    clf = passthrough_classifier(2)
    batch = LabeledSet(np.zeros((4, 2)), [0, 1, 0, 1])
    assert classification_loss(clf, batch).item() == pytest.approx(math.log(2))


def test_classification_hand_probabilities():
    clf = passthrough_classifier(2)
    # feed log-probabilities as logits: softmax restores the probabilities
    rows = [np.log([0.7, 0.3]), np.log([0.7, 0.3]), np.log([0.1, 0.9])]
    batch = LabeledSet(np.array(rows), [0, 0, 0])
    expect = (2 * -math.log(0.7) + -math.log(0.1)) / 3
    assert classification_loss(clf, batch).item() == pytest.approx(expect)


def test_classification_empty_batch():
    clf = passthrough_classifier(2)
    with pytest.raises(ContractError):
        classification_loss(clf, LabeledSet(np.zeros((0, 2)), []))


def test_distillation_self_is_entropy_floor():
    clf = random_classifier(4, 3, seed=1)
    x = np.random.default_rng(2).normal(size=(6, 4))
    teacher = clf.copy(frozen=True)
    p = teacher.probs(x).data
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
    cl = classification_loss(clf, LabeledSet(x, labels)).item()
    assert dl == pytest.approx(cl, abs=1e-9)


def test_distillation_matches_numpy_oracle():
    clf = random_classifier(5, 4, seed=4)
    teacher = random_classifier(5, 4, seed=5).copy(frozen=True)
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
    expect = np.mean(np.argmax(a.logits(x).data, 1) != np.argmax(b.logits(x).data, 1))
    assert erm01_agreement(a, b, x) == pytest.approx(expect)
    assert erm01_agreement(a, a, x) == 0.0


def _two_domain_setup(seed=20):
    rng = np.random.default_rng(seed)
    h = random_classifier(3, 2, seed=seed)
    hist = HistorySnapshot(random_classifier(3, 2, seed=seed + 1).copy(frozen=True))
    cur = LabeledSet(rng.normal(size=(6, 3)), rng.integers(0, 2, 6))
    past = {1: LabeledSet(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))}
    return h, hist, cur, past


def test_v_l_t1_is_plain_ce():
    h, _, cur, _ = _two_domain_setup()
    got = v_l(h, None, np.zeros((0, 3)), cur, {})
    assert got.item() == pytest.approx(np_ce(h, cur))


def test_v_l_er_preset_is_replay_ce():
    h, hist, cur, past = _two_domain_setup()
    omega = from_preset("ER", 2).triples()
    got = v_l(h, hist, omega, cur, past)
    assert got.item() == pytest.approx(np_ce(h, cur) + np_ce(h, past[1]))


def test_v_l_derpp_hand_arithmetic():
    h, hist, cur, past = _two_domain_setup(seed=21)
    omega = np.array([[0.5, 0.0, 0.5]])
    got = v_l(h, hist, omega, cur, past)
    expect = (np_ce(h, cur) + 0.5 * np_ce(h, past[1])
              + 0.5 * np_distill(h, hist.classifier, past[1].x))
    assert got.item() == pytest.approx(expect)


def test_v_l_lwf_uses_current_distillation():
    h, hist, cur, past = _two_domain_setup(seed=22)
    omega = np.array([[0.0, 1.0, 0.0]])
    got = v_l(h, hist, omega, cur, past)
    expect = np_ce(h, cur) + np_distill(h, hist.classifier, cur.x)
    assert got.item() == pytest.approx(expect)


def test_v_l_omega_length_contract():
    h, hist, cur, past = _two_domain_setup()
    with pytest.raises(ContractError):
        v_l(h, hist, np.zeros((3, 3)), cur, past)


def test_v_l_moves_theta_not_omega():
    h, hist, cur, past = _two_domain_setup(seed=23)
    simplex = init_uniform(2)
    loss = v_l(h, hist, simplex.triples(), cur, past)
    loss.backward()
    assert simplex.logits.grad is None
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
    assert got_er.item() == pytest.approx(math.sqrt(1 / 100 + 1 / 10))
    assert got_lwf.item() == pytest.approx(math.sqrt(4 / 100))


def test_v_01_zero_stats_zero_c():
    simplex = init_uniform(4)
    simplex.logits.data[...] = np.random.default_rng(0).normal(size=(3, 3))
    got = v_01(simplex, _stats(3, zero=True), 0.0, 50, [5, 5, 5])
    assert got.item() == 0.0


def test_v_01_numpy_oracle_and_monotone_beta_slope():
    rng = np.random.default_rng(30)
    stats = _stats(2, rng)
    simplex = init_uniform(3)
    simplex.logits.data[...] = rng.normal(size=(2, 3))
    tr = simplex.triples()
    a, b, g = tr[:, 0], tr[:, 1], tr[:, 2]
    expect = (np.sum(g * stats.eps_replay) + np.sum(a * stats.eps_intra)
              + b.sum() * stats.eps_cross + 0.5 * np.sum(b * stats.dhat)
              + np.sum((a + b) * stats.eps_hist)
              + 2.0 * math.sqrt((1 + b.sum()) ** 2 / 40
                                + np.sum((g + a) ** 2 / np.array([7.0, 9.0]))))
    got = v_01(simplex, stats, 2.0, 40, [7, 9])
    assert got.item() == pytest.approx(expect)


def test_v_01_gradient_fd():
    rng = np.random.default_rng(31)
    stats = _stats(3, rng)
    simplex = init_uniform(4)
    simplex.logits.data[...] = rng.normal(size=(3, 3))
    gradcheck(lambda: v_01(simplex, stats, 1.3, 60, [8, 6, 9]),
              [simplex.logits], rng=rng)


def test_v_01_contract_positive_counts():
    with pytest.raises(ContractError):
        v_01(init_uniform(2), _stats(1, zero=True), 1.0, 0, [5])


def test_v_d_zero_betas():
    enc = identity_mlp(3)
    d = Mlp([3, 2], rng=np.random.default_rng(0))
    got = v_d(d, enc, np.array([[0.5, 0.0, 0.5]]), np.zeros((4, 3)),
              {1: np.zeros((4, 3))}, t=2)
    assert got.item() == 0.0


def test_v_d_uniform_discriminator_4ln3():
    enc = identity_mlp(3)
    d = Mlp([3, 3], rng=np.random.default_rng(0))
    d.layers[0][0].data[...] = 0.0
    omega = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(1)
    got = v_d(d, enc, omega, rng.normal(size=(5, 3)),
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
    got = v_d(d, enc, omega, cur, past, t=3)
    assert got.item() < 1e-8


def test_v_d_arity_contract():
    enc = identity_mlp(3)
    d = Mlp([3, 2], rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match="arity"):
        v_d(d, enc, np.array([[0.0, 1.0, 0.0]]), np.zeros((2, 3)),
            {1: np.zeros((2, 3))}, t=3)


def test_v_p_identical_and_shifted():
    enc = identity_mlp(3)
    prev = identity_mlp(3)
    x = {1: np.random.default_rng(0).normal(size=(4, 3))}
    assert v_p(enc, prev, x).item() == 0.0
    shifted = identity_mlp(3)
    shifted.layers[0][1].data[...] = [1.0, 2.0, 2.0]  # ||c||^2 = 9
    assert v_p(shifted, prev, x).item() == pytest.approx(9.0)
    x2 = {1: x[1], 2: np.random.default_rng(1).normal(size=(6, 3))}
    assert v_p(shifted, prev, x2).item() == pytest.approx(18.0)


def test_v_p_numpy_oracle():
    rng = np.random.default_rng(40)
    enc = Mlp([3, 4, 2], rng=rng)
    prev = Mlp([3, 4, 2], rng=rng)
    x = {1: rng.normal(size=(10, 3))}
    diff = enc.logits(x[1]).data - prev.logits(x[1]).data
    assert v_p(enc, prev, x).item() == pytest.approx((diff ** 2).sum() / 10)


def test_v_p_empty_past_returns_zero():
    assert v_p(identity_mlp(2), identity_mlp(2), {}).item() == 0.0


def test_v_s_all_distances_equal():
    # rows of 2*I: every pair of distinct points at squared distance 8
    enc = identity_mlp(4)
    x = 2.0 * np.eye(4)
    batch = LabeledSet(x, [0, 0, 1, 1])
    got = v_s(enc, batch, n_negatives=3, rng=np.random.default_rng(0))
    assert got.item() == pytest.approx(math.log(1 + 3))


def test_v_s_perfect_separation_limit():
    enc = identity_mlp(2)
    x = np.array([[0.0, 0.0], [0.0, 0.0], [40.0, 0.0], [0.0, 40.0]])
    batch = LabeledSet(x, [0, 0, 1, 2])
    # anchors are the two coincident class-0 points: s+ = 0, s- >= 1600
    got = v_s(enc, batch, n_negatives=4, rng=np.random.default_rng(1))
    assert got.item() < 1e-6


def test_v_s_no_positive_pair_warns_and_zero(caplog):
    enc = identity_mlp(2)
    batch = LabeledSet(np.eye(2), [0, 1])
    with caplog.at_level(logging.WARNING):
        got = v_s(enc, batch, 2, np.random.default_rng(0))
    assert got.item() == 0.0
    assert any("same-class" in r.message for r in caplog.records)


def test_v_s_hand_table():
    # embeddings on a line: class 0 at 0 and 1, class 1 at 4
    enc = identity_mlp(1)
    x = np.array([[0.0], [1.0], [4.0]])
    batch = LabeledSet(x, [0, 0, 1])
    rng = np.random.default_rng(3)
    got = v_s(enc, batch, n_negatives=2, rng=rng)
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


def test_encoder_aux_reductions_and_composition():
    rng = np.random.default_rng(50)
    enc = Mlp([3, 4, 2], rng=rng)
    prev = Mlp([3, 4, 2], rng=rng)
    d = Mlp([2, 2], rng=rng).stopped()
    cur = LabeledSet(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
    past = {1: LabeledSet(rng.normal(size=(4, 3)), rng.integers(0, 2, 4))}
    omega = np.array([[0.2, 0.5, 0.3]])

    hp0 = HyperParams(lambda_d=0.0, lambda_p=0.0, lambda_s=0.0)
    assert encoder_aux_loss(enc, d, prev, omega, cur, past, 2, hp0,
                            np.random.default_rng(0)).item() == 0.0

    hp_d = HyperParams(lambda_d=0.7, lambda_p=0.0, lambda_s=0.0)
    got = encoder_aux_loss(enc, d, prev, omega, cur, past, 2, hp_d,
                           np.random.default_rng(0)).item()
    vd = v_d(d, enc, omega, cur.x, {1: past[1].x}, 2).item()
    assert got == pytest.approx(-0.7 * vd)

    hp = HyperParams(lambda_d=0.5, lambda_p=1.3, lambda_s=0.9)
    got = encoder_aux_loss(enc, d, prev, omega, cur, past, 2, hp,
                           np.random.default_rng(7), n_negatives=3).item()
    vp = v_p(enc, prev, {1: past[1].x}).item()
    combined = LabeledSet(np.concatenate([cur.x, past[1].x]),
                          np.concatenate([cur.y, past[1].y]))
    vs = v_s(enc, combined, 3, np.random.default_rng(7)).item()
    assert got == pytest.approx(-0.5 * vd + 1.3 * vp + 0.9 * vs)


def test_encoder_aux_gradient_reaches_encoder_only():
    rng = np.random.default_rng(51)
    enc = Mlp([3, 4, 2], rng=rng)
    d = Mlp([2, 2], rng=rng)
    cur = LabeledSet(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
    past = {1: LabeledSet(rng.normal(size=(4, 3)), rng.integers(0, 2, 4))}
    hp = HyperParams(lambda_d=1.0)
    loss = encoder_aux_loss(enc, d.stopped(), None,
                            np.array([[0.0, 1.0, 0.0]]), cur, past, 2, hp,
                            np.random.default_rng(0))
    loss.backward()
    assert any(p.grad is not None for p in enc.params())
    assert all(p.grad is None for p in d.params())


@pytest.mark.parametrize("seed", range(5))
def test_loss_gradients_finite_difference(seed):
    rng = np.random.default_rng(100 + seed)
    h, hist, cur, past = _two_domain_setup(seed=200 + seed)
    omega = np.array([[0.3, 0.3, 0.4]])
    gradcheck(lambda: v_l(h, hist, omega, cur, past), h.params(),
              rng=rng, max_coords=4)

    d = Mlp([4, 2], rng=rng)
    enc = h.encoder
    gradcheck(lambda: v_d(d, enc, omega, cur.x, {1: past[1].x}, 2),
              enc.params() + d.params(), rng=rng, max_coords=4)

    prev = Mlp([3, 5, 4], rng=rng)
    gradcheck(lambda: v_p(enc, prev, {1: past[1].x}), enc.params(),
              rng=rng, max_coords=4)

    def vs():
        return v_s(enc, cur, 3, np.random.default_rng(seed))
    gradcheck(vs, enc.params(), rng=rng, max_coords=4)


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
