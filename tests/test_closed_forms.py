"""The replay step's closed forms against the forms they replaced, bit for
bit, on hypothesis-drawn inputs: the cross-entropy `xent` (given the
caller's softmax parts or taking its own) and the row-wise softmax, the
discriminator divergence estimate (from a softmax stored by class or by
row), the coefficient statistics, and V_l and V_d against their graph
nodes.  The inputs cover ties p_i = p_t and tied logits, one-label
batches, triples without beta mass, t = 2..6, signed zeros and wide class
axes (8 columns and more, where NumPy's own reductions are kept).  The
encoder terms (V_d, V_p and V_s) are checked against their graph form: the
value, both gradients and the generator's state.  V_01's in-place
gradient is checked against its one-node form in test_losses.py and the
ERM steps against their graph form in test_trainer.py."""
import numpy as np
from hypothesis import given, settings, strategies as st

import reference_ops
import reference_step as ref
from dilkit.autodiff import Tensor, softmax, softmax_parts, xent
from dilkit.coeffs import from_preset
from dilkit.divergence import discriminator_divergences
from dilkit.losses import (HyperParams, StepBatch, StepLayout,
                           encoder_aux_loss, v_d, v_l)
from dilkit.trainer import coeff_stats_for_step
from reference_ops import mul

STATS = ("eps_replay", "eps_intra", "eps_cross", "dhat", "eps_hist")


def _logits(rng, n, c, mode):
    """[n, c] logits: normal draws at a random scale; with "ties" small
    integers, so rows tie across columns; with "zeros" about a third of the
    entries are +0.0 or -0.0."""
    if mode == "ties":
        return rng.integers(-2, 3, size=(n, c)).astype(np.float64)
    a = rng.normal(size=(n, c)) * rng.choice([1e-3, 1.0, 30.0, 1e4])
    if mode == "zeros":
        hit = rng.random((n, c)) < 0.35
        a[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    return a


def _target(rng, n, c, kind):
    """A constant [n, c] target: one-hot rows times row weights (some 0),
    soft nonnegative rows, or soft rows with signed zeros."""
    if kind == "onehot":
        target = np.zeros((n, c))
        target[np.arange(n), rng.integers(0, c, n)] = \
            rng.random(n) * (rng.random(n) < 0.8)
        return target
    target = rng.random((n, c)) / n
    if kind == "signed":
        hit = rng.random((n, c)) < 0.3
        target[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    return target


MODES = st.sampled_from(("plain", "ties", "zeros"))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), MODES,
       st.sampled_from(("onehot", "soft", "signed")),
       st.sampled_from((1.0, -1.0, 0.05, -0.05, 3.0)), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_xent_matches_frozen_form_bitwise(n, c, mode, kind, g, given_parts,
                                          seed):
    """xent's value and adjoint, from the softmax parts it takes itself or
    that the caller took, equal the row-wise form's byte for byte; so do
    softmax and softmax_parts' row max and row sum against NumPy's."""
    rng = np.random.default_rng(seed)
    a, target = _logits(rng, n, c, mode), _target(rng, n, c, kind)
    parts = softmax_parts(a) if given_parts else None
    value, adjoint = xent(a, target, parts)
    want_value, want_adjoint = reference_ops.xent(a, target)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    got, want = adjoint(g), want_adjoint(g)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    m = a.max(axis=-1, keepdims=True)
    e = np.exp(a - m)
    s = e.sum(axis=-1, keepdims=True)
    parts = softmax_parts(a)
    assert parts.m.tobytes() == m.ravel().tobytes()
    assert parts.s.tobytes() == s.ravel().tobytes()
    assert softmax(a).flags.c_contiguous
    assert softmax(a).tobytes() == (e / s).tobytes() == parts.pt.T.tobytes()


def _layout(data, t):
    """A full StepLayout at domain t: every past domain 1..t-1 or a drawn
    subset of them, one to 15 rows per segment."""
    ids = data.draw(st.sampled_from(
        (tuple(range(1, t)),
         tuple(sorted(data.draw(st.sets(st.integers(1, t - 1), min_size=1)))))))
    sizes = data.draw(st.lists(st.integers(1, 15), min_size=len(ids) + 1,
                               max_size=len(ids) + 1))
    return StepLayout(sizes, ids, t)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 6), MODES, st.integers(0, 2 ** 31 - 1))
def test_divergences_match_frozen_form_bitwise(data, t, mode, seed):
    """The estimate from the probabilities stored by class (the step's
    softmax_parts) and from a C-order softmax equals the frozen form's,
    byte for byte.  With tied logits (and a past column forced equal to
    column t on a third of the rows) p_i = p_t holds exactly on many rows."""
    layout = _layout(data, t)
    rng = np.random.default_rng(seed)
    logits = _logits(rng, len(layout.seg), t, mode)
    tie = rng.random(len(logits)) < 0.33
    logits[tie, rng.integers(0, t - 1)] = logits[tie, t - 1]
    probs = softmax(logits)
    want = reference_ops.discriminator_divergences(probs, layout).tobytes()
    assert discriminator_divergences(probs, layout).tobytes() == want
    assert discriminator_divergences(softmax_parts(logits).pt.T,
                                     layout).tobytes() == want


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 6), MODES, st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_coeff_stats_match_frozen_form_bitwise(data, t, mode, k, one_label,
                                               seed):
    """coeff_stats_for_step, given the stopped discriminator's softmax as
    the step takes it, equals the frozen form given its logits, every
    statistic byte for byte, on two records of one layout in turn (the
    layout's miss rows are rewritten, never carried over); with one label
    throughout, or with tied student logits."""
    layout = _layout(data, t)
    rng = np.random.default_rng(seed)
    n = len(layout.seg)
    eps_hist = rng.random(len(layout.ids))
    for _ in range(2):
        y = np.full(n, rng.integers(0, k)) if one_label else rng.integers(0, k, n)
        batch = StepBatch(np.zeros((n, 1)), y, layout)
        logits = _logits(rng, n, k, mode)
        disc_logits = _logits(rng, n, t, mode)
        teacher_pred = rng.integers(0, k, n)
        got = coeff_stats_for_step(eps_hist, batch, logits,
                                   softmax_parts(disc_logits).pt.T, teacher_pred)
        want = reference_ops.coeff_stats_for_step(eps_hist, batch, logits,
                                                  disc_logits, teacher_pred)
        for name in STATS:
            assert np.asarray(getattr(got, name)).tobytes() \
                == np.asarray(getattr(want, name)).tobytes(), name


def _omega(rng, kind, layout):
    """A triple per past domain of the layout: random on the simplex, a
    preset's (ER and FineTune carry no beta mass), or random with a zero
    beta column."""
    if kind in ("ER", "LwF", "FineTune", "BiC"):
        return from_preset(kind, layout.t)[:len(layout.ids)]
    omega = rng.dirichlet(np.ones(3), size=len(layout.ids))
    if kind == "no-beta":
        omega[:, 1] = 0.0
    return omega


def _at_leaf(node, logits, g):
    """The bytes of a graph node's value and of its gradient at a leaf
    holding `logits`, backpropagated from g times it."""
    leaf = Tensor(logits.copy(), requires_grad=True)
    loss = node(leaf)
    mul(loss, g).backward()
    return (np.float64(loss.data).tobytes(),
            None if leaf.grad is None else leaf.grad.tobytes())


def _closed(result):
    if result is None:
        return np.float64(0.0).tobytes(), None
    return np.float64(result[0]).tobytes(), result[1].tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 6),
       st.sampled_from(("UDIL", "ER", "LwF", "FineTune", "BiC", "no-beta")),
       MODES, st.booleans(), st.sampled_from((0.05, -0.05, 1.0)),
       st.integers(0, 2 ** 31 - 1))
def test_v_l_and_v_d_match_graph_nodes_bitwise(data, t, kind, mode, one_label,
                                               scale, seed):
    """V_l and V_d (given the discriminator's softmax parts or not) give
    the value and logits gradient of their graph nodes byte for byte; with
    no beta mass V_d is None where the node is the constant 0."""
    layout = _layout(data, t)
    rng = np.random.default_rng(seed)
    n, k = len(layout.seg), 3
    omega = _omega(rng, kind, layout)
    y = np.full(n, rng.integers(0, k)) if one_label else rng.integers(0, k, n)
    batch = StepBatch(np.zeros((n, 1)), y, layout)
    logits, disc_logits = _logits(rng, n, k, mode), _logits(rng, n, t, mode)
    teacher_probs = softmax(_logits(rng, n, k, mode))
    assert _closed(v_l(batch, omega, logits, teacher_probs)) == _at_leaf(
        lambda z: ref.graph_v_l(batch, omega, z, teacher_probs), logits, 1.0)
    want = _at_leaf(lambda z: ref.graph_v_d(batch, omega, z), disc_logits, scale)
    for parts in (None, softmax_parts(disc_logits)):
        assert _closed(v_d(batch, omega, disc_logits, scale, parts)) == want


def _labels(rng, n, kind):
    """[n] labels: two or three classes at random, one label throughout, no
    two rows alike (no same-class pair), or one row of class 1 among class
    0 (every class-0 anchor draws all its negatives from that one row)."""
    if kind == "mixed":
        return rng.integers(0, rng.integers(2, 4), n)
    if kind == "one-label":
        return np.full(n, rng.integers(0, 3))
    if kind == "no-pair":
        return rng.permutation(n)
    y = np.zeros(n, np.int64)
    y[rng.integers(n)] = 1
    return y


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(2, 5), st.sampled_from(("p", "s", "ps")),
       st.booleans(),
       st.sampled_from(("mixed", "one-label", "no-pair", "one-negative")),
       st.sampled_from((1, 3, 7, 8, 9, 16)),
       st.sampled_from(("UDIL", "ER", "no-beta")), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_encoder_aux_loss_matches_frozen_graph_bitwise(data, t, terms, with_d,
                                                       labels, width, kind,
                                                       given_parts, seed):
    """encoder_aux_loss, V_p and V_s in closed form, against the frozen form
    that backpropagates their graph over a leaf copy of the embedding: the
    value, the embedding gradient (None alike), the discriminator-logits
    gradient and the generator's state afterwards, byte for byte.  With
    lambda_p, lambda_s or both on, each with lambda_d on or off; one-label
    batches, batches without a same-class pair, partners repeated in V_s's
    index, and embeddings of 8 columns and more, where NumPy's pairwise sum
    groups a row's entries otherwise."""
    layout = _layout(data, t)
    rng = np.random.default_rng(seed)
    n = len(layout.seg)
    batch = StepBatch(np.zeros((n, 1)), _labels(rng, n, labels), layout)
    scale = rng.choice([1e-3, 1.0, 30.0])
    embedding = rng.normal(size=(n, width)) * scale
    teacher_embedding = rng.normal(size=(n, width)) * scale
    disc_logits = _logits(rng, n, t, "plain")
    omega = _omega(rng, kind, layout)
    lam = [float(v) for v in rng.choice([0.05, 0.1, 0.7, 1.0], size=3)]
    hp = HyperParams(lambda_d=lam[0] if with_d else 0.0,
                     lambda_p=lam[1] if "p" in terms else 0.0,
                     lambda_s=lam[2] if "s" in terms else 0.0)
    parts = softmax_parts(disc_logits) if given_parts else None
    draws = [np.random.default_rng(seed + 1) for _ in range(2)]
    got, want = (aux(embedding, disc_logits, parts, teacher_embedding, omega,
                     batch, hp, draw)
                 for aux, draw in zip((encoder_aux_loss,
                                       reference_ops.encoder_aux_loss), draws))
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for g, w in zip(got[1:], want[1:]):
        assert (g is None) == (w is None)
        assert g is None or g.tobytes() == w.tobytes()
    assert draws[0].bit_generator.state == draws[1].bit_generator.state
