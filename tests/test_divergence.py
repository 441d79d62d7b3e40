import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilkit.autodiff import ContractError
from dilkit.datagen import LabeledSet
from dilkit.divergence import (
    FiniteHypothesisClass, _as_sample, discriminator_divergences, hdh_exact,
    hdh_discriminator_estimate,
)
from dilkit.losses import StepLayout, classification_loss
from dilkit.models import Mlp
from dilkit.seeding import substream
from finite_classes import all_labelings, threshold_class
from gradcheck import closed_form_node
from reference_ops import leaves, logits_node, sgd_step


def naive_hdh(labelings, sample_p, sample_q):
    """Reference: direct double loop over hypothesis pairs."""
    best = 0.0
    for ha in labelings:
        for hb in labelings:
            dp = np.mean(ha[sample_p] != hb[sample_p])
            dq = np.mean(ha[sample_q] != hb[sample_q])
            best = max(best, abs(dp - dq))
    return 2.0 * best


def identity_encoder(dim):
    m = Mlp([dim, dim], rng=np.random.default_rng(0))
    m.layers[0][0][...] = np.eye(dim)
    m.layers[0][1][...] = 0.0
    return m


def test_identical_samples_zero():
    h = all_labelings(4)
    s = np.array([0, 1, 2, 2])
    assert hdh_exact(h, s, s) == 0.0


def test_disjoint_supports_full_class_two():
    h = all_labelings(6)
    assert hdh_exact(h, [0, 1, 2], [3, 4, 5]) == 2.0


def test_singleton_class_zero():
    h = FiniteHypothesisClass(np.array([[0, 1, 0, 1]]))
    assert hdh_exact(h, [0, 1], [2, 3]) == 0.0


def test_matches_naive_double_loop():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = rng.integers(2, 9), rng.integers(3, 8)
        lab = rng.integers(0, 2, size=(m, n)).astype(np.int8)
        h = FiniteHypothesisClass(lab)
        sp = rng.integers(0, n, size=rng.integers(1, 12))
        sq = rng.integers(0, n, size=rng.integers(1, 12))
        assert hdh_exact(h, sp, sq) == pytest.approx(naive_hdh(lab, sp, sq))


def test_symmetry():
    rng = np.random.default_rng(8)
    lab = rng.integers(0, 2, size=(5, 7)).astype(np.int8)
    h = FiniteHypothesisClass(lab)
    sp = rng.integers(0, 7, size=9)
    sq = rng.integers(0, 7, size=4)
    assert hdh_exact(h, sp, sq) == pytest.approx(hdh_exact(h, sq, sp))


def test_monotone_in_class():
    rng = np.random.default_rng(9)
    lab = rng.integers(0, 2, size=(8, 6)).astype(np.int8)
    small = FiniteHypothesisClass(lab[:3])
    big = FiniteHypothesisClass(lab)
    sp = rng.integers(0, 6, size=10)
    sq = rng.integers(0, 6, size=10)
    assert hdh_exact(small, sp, sq) <= hdh_exact(big, sp, sq) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_range_property(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 8)), int(rng.integers(2, 8))
    h = FiniteHypothesisClass(rng.integers(0, 2, size=(m, n)).astype(np.int8))
    sp = rng.integers(0, n, size=int(rng.integers(1, 10)))
    sq = rng.integers(0, n, size=int(rng.integers(1, 10)))
    assert 0.0 <= hdh_exact(h, sp, sq) <= 2.0


def disagreement_rate(label_a: np.ndarray, label_b: np.ndarray,
                      sample) -> float:
    """Empirical fraction of sample points where two labelings differ."""
    a = np.asarray(label_a)
    b = np.asarray(label_b)
    idx = _as_sample(sample, a.size, "sample")
    return float(np.mean(a[idx] != b[idx]))


def test_pairwise_gap_bounded_by_half_divergence():
    rng = np.random.default_rng(10)
    lab = rng.integers(0, 2, size=(6, 9)).astype(np.int8)
    h = FiniteHypothesisClass(lab)
    sp = rng.integers(0, 9, size=15)
    sq = rng.integers(0, 9, size=12)
    half_d = 0.5 * hdh_exact(h, sp, sq)
    for a, b in product(range(6), repeat=2):
        gap = abs(disagreement_rate(lab[a], lab[b], sp)
                  - disagreement_rate(lab[a], lab[b], sq))
        assert gap <= half_d + 1e-12


def test_empty_sample_rejected():
    h = all_labelings(3)
    with pytest.raises(ContractError):
        hdh_exact(h, [], [0])
    with pytest.raises(ContractError):
        hdh_exact(h, [0], [])
    with pytest.raises(ContractError):
        hdh_exact(h, [0, 3], [1])  # out of ground set


def test_class_validation():
    with pytest.raises(ContractError):
        FiniteHypothesisClass(np.zeros((0, 3)))
    with pytest.raises(ContractError):
        FiniteHypothesisClass(np.array([[0, 2]]))


def test_threshold_class_structure():
    pts = np.array([3.0, 1.0, 2.0])
    h = threshold_class(pts)
    assert h.n_hypotheses == 4 and h.n_points == 3
    # cut below everything labels all 1; above everything labels all 0
    got = {tuple(row) for row in h.labelings}
    assert (1, 1, 1) in got and (0, 0, 0) in got
    # threshold between 1 and 2 labels exactly the points >= 2
    assert (1, 0, 1) in got


def test_discriminator_estimate_identical_sets_zero():
    enc = identity_encoder(2)
    d = Mlp([2, 2], rng=np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(20, 2))
    assert hdh_discriminator_estimate(d, enc, x, x, 1) == 0.0


def test_discriminator_estimate_perfect_separation():
    enc = identity_encoder(2)
    d = Mlp([2, 2], rng=np.random.default_rng(1))
    d.layers[0][0][...] = np.array([[40.0, 0.0], [0.0, 40.0]])
    past = np.array([[1.0, 0.0]] * 5)
    cur = np.array([[0.0, 1.0]] * 7)
    assert hdh_discriminator_estimate(d, enc, cur, past, 1) == 2.0


def test_discriminator_estimate_clamped_at_zero():
    enc = identity_encoder(2)
    d = Mlp([2, 2], rng=np.random.default_rng(1))
    # anti-separating: claims current for past points and vice versa
    d.layers[0][0][...] = np.array([[0.0, 40.0], [40.0, 0.0]])
    past = np.array([[1.0, 0.0]] * 5)
    cur = np.array([[0.0, 1.0]] * 7)
    assert hdh_discriminator_estimate(d, enc, cur, past, 1) == 0.0


def test_discriminator_estimate_contracts():
    enc = identity_encoder(2)
    d = Mlp([2, 3], rng=np.random.default_rng(1))
    x = np.zeros((3, 2))
    with pytest.raises(ContractError):
        hdh_discriminator_estimate(d, enc, np.zeros((0, 2)), x, 1)
    with pytest.raises(ContractError):
        hdh_discriminator_estimate(d, enc, x, x, 3)  # arity 3 -> past in [1,2]
    for bad in (np.zeros(0), np.zeros((3, 3))):  # not [n, 2] like x
        with pytest.raises(ContractError):
            hdh_discriminator_estimate(d, enc, bad, x, 1)
        with pytest.raises(ContractError):
            hdh_discriminator_estimate(d, enc, x, bad, 1)


def test_discriminator_divergences_read_each_segment():
    # t = 3: current rows lean to class 3, domain 1's rows to class 1 and
    # domain 2's rows to class 3 as well
    cur, first, second = [0.1, 0.1, 0.8], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]
    probs = np.array([cur] * 3 + [first] * 2 + [second] * 4)
    got = discriminator_divergences(probs, StepLayout([3, 2, 4], [1, 2], 3))
    assert got.tolist() == [2.0, 0.0]


def test_discriminator_divergences_contracts():
    probs = np.full((5, 3), 1 / 3)
    for sizes, ids in (([0, 5], [1]), ([2, 0, 3], [1, 2])):
        with pytest.raises(ContractError, match="every segment must be nonempty"):
            discriminator_divergences(probs, StepLayout(sizes, ids, 3))
    for sizes, ids in (([2, 3], [1, 2]), ([2, 3], [0]), ([2, 3], [3])):
        with pytest.raises(ContractError, match=r"in \[1, 2\], one size per"):
            StepLayout(sizes, ids, 3)
    with pytest.raises(ContractError, match="discriminator arity 3 != t=2"):
        discriminator_divergences(probs, StepLayout([2, 3], [1], 2))


def test_trained_discriminator_tracks_exact_divergence():
    # Two 1-D Gaussians two sigma away from the midpoint on each side.
    rng = substream(0xD1, "gauss")
    n = 200
    past_pts = rng.normal(-2.0, 1.0, size=n)
    cur_pts = rng.normal(2.0, 1.0, size=n)

    pooled = np.concatenate([past_pts, cur_pts])
    exact = hdh_exact(threshold_class(pooled), np.arange(n),
                      np.arange(n, 2 * n))

    enc = identity_encoder(1)
    d = Mlp([1, 2], rng=substream(0xD1, "disc-init"))
    batch = LabeledSet(pooled.reshape(-1, 1), [0] * n + [1] * n)
    for _ in range(400):
        loss = closed_form_node(lambda z: classification_loss(z, batch.y),
                                logits_node(d, batch.x))
        loss.backward()
        sgd_step(leaves(d), 1.0)
        for p in leaves(d):
            p.grad = None

    est = hdh_discriminator_estimate(d, enc, cur_pts.reshape(-1, 1),
                                     past_pts.reshape(-1, 1), 1)
    assert abs(est - exact) <= 0.15
    # sanity: both near the population value 2*(Phi(2) - Phi(-2))
    pop = 2 * (math.erf(2 / math.sqrt(2)))
    assert abs(exact - pop) < 0.1
