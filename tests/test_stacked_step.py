"""Differential tests: the stacked-batch losses, coefficient statistics
and divergence estimate against the per-domain reference in
reference_step.py, on random states."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_step as ref
from dilkit.autodiff import ContractError, Tensor
from dilkit.datagen import LabeledSet
from dilkit.divergence import hdh_discriminator_estimate
from dilkit.losses import HistorySnapshot, v_d, v_l, v_p
from dilkit.models import Classifier, Mlp
from dilkit.trainer import coeff_stats_for_step

IN_DIM, EMBED, N_CLASSES = 4, 5, 3
KINDS = ("UDIL", "ER", "LwF", "FineTune", "mixed")


def _classifier(rng, frozen=False):
    clf = Classifier(Mlp([IN_DIM, 6, EMBED], rng=rng),
                     Mlp([EMBED, N_CLASSES], rng=rng))
    return clf.copy(frozen=True) if frozen else clf


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
    history = HistorySnapshot(teacher, {i: float(rng.random()) for i in past})
    return h, history, disc, _omega(rng, kind, t), current, past


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
    _assert_same(v_l(h, history, omega, current, past),
                 ref.v_l(h, history, omega, current, past), h.params())


@pytest.mark.parametrize("t,kind,seed", CASES)
def test_v_d_matches_reference(t, kind, seed):
    h, _, disc, omega, current, past = _state(200 * t + seed, t, kind)
    past_x = {i: b.x for i, b in past.items()}
    params = disc.params() + h.encoder.params()
    _assert_same(v_d(disc, h.encoder, omega, current.x, past_x, t),
                 ref.v_d(disc, h.encoder, omega, current.x, past_x, t), params)


@pytest.mark.parametrize("t,seed", [(t, seed) for t in (2, 3, 4, 5)
                                    for seed in (0, 1)])
def test_v_p_matches_reference(t, seed):
    h, _, _, _, _, past = _state(300 * t + seed, t, "UDIL")
    prev = _classifier(np.random.default_rng(seed)).encoder
    past_x = {i: b.x for i, b in past.items()}
    params = h.encoder.params() + prev.params()
    _assert_same(v_p(h.encoder, prev, past_x),
                 ref.v_p(h.encoder, prev, past_x), params)


@pytest.mark.parametrize("t,seed", [(t, seed) for t in (2, 3, 4, 5)
                                    for seed in range(4)])
def test_coeff_stats_match_reference_exactly(t, seed):
    h, history, disc, _, current, past = _state(400 * t + seed, t, "UDIL")
    got = coeff_stats_for_step(h, history, disc, current, past)
    want = ref.coeff_stats_for_step(h, history, disc, current, past)
    for name in ("eps_replay", "eps_intra", "dhat", "eps_hist"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.eps_cross == want.eps_cross


@pytest.mark.parametrize("t", [2, 3, 5])
def test_coeff_stats_build_no_gradient_graph(monkeypatch, t):
    """Every network is scored through a stopped view: no Tensor created
    inside coeff_stats_for_step requires a gradient."""
    h, history, disc, _, current, past = _state(450 + t, t, "UDIL")
    tracked = []
    init = Tensor.__init__

    def recording_init(self, data, requires_grad=False, _prev=()):
        tracked.append(bool(requires_grad))
        init(self, data, requires_grad, _prev)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    coeff_stats_for_step(h, history, disc, current, past)
    assert tracked and not any(tracked)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_coeff_stats_runs_each_network_once(monkeypatch, t):
    """Five Mlp.logits calls at every t: the encoder, the predictor and the
    discriminator once each over the stacked batch, and the teacher's two
    nets once each; none per past domain."""
    h, history, disc, _, current, past = _state(700 + t, t, "UDIL")
    calls = []
    logits = Mlp.logits

    def counting_logits(self, x):
        calls.append(self)
        return logits(self, x)

    monkeypatch.setattr(Mlp, "logits", counting_logits)
    coeff_stats_for_step(h, history, disc, current, past)
    assert len(calls) == 5


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
        (lambda: v_l(h, history, omega, current, past),
         lambda: ref.v_l(h, history, omega, current, past)),
        (lambda: v_d(disc, h.encoder, omega, current.x, past_x, 3),
         lambda: ref.v_d(disc, h.encoder, omega, current.x, past_x, 3)),
    ]
    for new, old in calls:
        got, want = _outcome(new), _outcome(old)
        if want == "ContractError":
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-10)
    with pytest.raises(ContractError):
        coeff_stats_for_step(h, history, disc, current, past)
    with pytest.raises(ContractError):
        ref.coeff_stats_for_step(h, history, disc, current, past)


def test_v_l_teacher_arity_contract_kept():
    h, history, _, _, current, past = _state(600, 2, "UDIL")
    wide = Classifier(history.classifier.encoder,
                      Mlp([EMBED, N_CLASSES + 1],
                          rng=np.random.default_rng(0)))
    bad = HistorySnapshot(wide, history.cached_consts)
    omega = np.array([[0.5, 0.0, 0.5]])
    for fn in (v_l, ref.v_l):
        with pytest.raises(ContractError, match="arity"):
            fn(h, bad, omega, current, past)
