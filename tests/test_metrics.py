import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilkit.autodiff import ContractError
from dilkit.datagen import LabeledSet
from dilkit.metrics import (
    AccuracyMatrix, accuracy, avg_acc, avg_of_avg, forgetting,
    forward_transfer,
)
from dilkit.models import ArchConfig


def lower_triangular_matrix(values):
    """Build an AccuracyMatrix from a list of rows (row t has t entries)."""
    mat = AccuracyMatrix(len(values))
    for i, row in enumerate(values, start=1):
        for j, v in enumerate(row, start=1):
            mat.set(i, j, v)
    return mat


def test_avg_acc_row_mean():
    mat = lower_triangular_matrix([[0.5], [0.5, 0.5], [0.9, 0.8, 0.7]])
    assert avg_acc(mat, 3) == pytest.approx(0.8)
    assert avg_acc(mat, 1) == pytest.approx(0.5)


def test_avg_acc_unpopulated_row():
    mat = AccuracyMatrix(3)
    mat.set(1, 1, 0.5)
    with pytest.raises(ContractError, match="not populated"):
        avg_acc(mat, 2)


def test_avg_of_avg():
    mat = lower_triangular_matrix(
        [[0.9], [0.85, 0.75], [0.9, 0.8, 0.7]])
    # row means: 0.9, 0.8, 0.8 -> range means
    assert avg_of_avg(mat, 1, 1) == pytest.approx(avg_acc(mat, 1))
    assert avg_of_avg(mat, 1, 3) == pytest.approx((0.9 + 0.8 + 0.8) / 3)
    const = lower_triangular_matrix([[0.6], [0.6, 0.6], [0.6, 0.6, 0.6]])
    assert avg_of_avg(const, 1, 3) == pytest.approx(0.6)
    with pytest.raises(ContractError):
        avg_of_avg(mat, 2, 1)


def test_forgetting_direct_substitution():
    mat = lower_triangular_matrix([[0.9], [0.8, 0.7]])
    assert forgetting(mat, 2) == pytest.approx(0.1)
    with pytest.raises(ContractError):
        forgetting(mat, 1)


def test_forgetting_nondecreasing_columns_nonpositive():
    mat = lower_triangular_matrix(
        [[0.5], [0.6, 0.5], [0.7, 0.6, 0.5], [0.8, 0.7, 0.6, 0.5]])
    for t in (2, 3, 4):
        assert forgetting(mat, t) <= 0.0


def test_forgetting_matches_brute_force():
    rng = np.random.default_rng(0)
    rows = [list(rng.random(t)) for t in range(1, 6)]
    mat = lower_triangular_matrix(rows)
    for t in range(2, 6):
        per_col = []
        for j in range(1, t):
            per_col.append(max(rows[l - 1][j - 1] for l in range(j, t))
                           - rows[t - 1][j - 1])
        assert forgetting(mat, t) == pytest.approx(np.mean(per_col))
        # mean of per-column forgetting never exceeds the worst column
        assert forgetting(mat, t) <= max(per_col) + 1e-12


def test_forward_transfer_substitution():
    mat = lower_triangular_matrix([[0.9], [0.8, 0.7], [0.7, 0.6, 0.55]])
    mat.set(1, 2, 0.6)
    mat.set(2, 3, 0.7)
    r = [0.5, 0.5, 0.5]
    assert forward_transfer(mat, r, 3) == pytest.approx((0.1 + 0.2) / 2)
    assert forward_transfer(mat, [0.0, 0.6, 0.7], 3) == pytest.approx(0.0)
    with pytest.raises(ContractError):
        forward_transfer(mat, r, 1)
    with pytest.raises(ContractError):
        forward_transfer(mat, [0.5], 3)


def test_forward_transfer_missing_superdiagonal():
    mat = lower_triangular_matrix([[0.9], [0.8, 0.7]])
    with pytest.raises(ContractError, match="not populated"):
        forward_transfer(mat, [0.5, 0.5], 2)


def test_matrix_entry_contracts():
    mat = AccuracyMatrix(3)
    with pytest.raises(ContractError):
        mat.set(1, 3, 0.5)  # above superdiagonal
    with pytest.raises(ContractError):
        mat.set(1, 1, 1.5)
    with pytest.raises(ContractError):
        mat.set(0, 1, 0.5)
    mat.set(1, 2, 0.5)  # superdiagonal allowed
    with pytest.raises(ContractError):
        AccuracyMatrix(0)


def test_matrix_roundtrip():
    mat = lower_triangular_matrix([[0.9], [0.8, 0.7]])
    mat.set(1, 2, 0.45)
    back = AccuracyMatrix.from_lists(mat.to_lists())
    assert back.to_lists() == mat.to_lists()


def test_accuracy_permutation_invariant():
    rng = np.random.default_rng(5)
    clf = ArchConfig(encoder_hidden=[6], embed_dim=4).build_classifier(
        3, 2, rng)
    x = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, 30)
    perm = rng.permutation(30)
    a1 = accuracy(clf, LabeledSet(x, y))
    a2 = accuracy(clf, LabeledSet(x[perm], y[perm]))
    assert a1 == a2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 7))
def test_metrics_match_independent_formulas(seed, n):
    rng = np.random.default_rng(seed)
    rows = [list(rng.random(t)) for t in range(1, n + 1)]
    mat = lower_triangular_matrix(rows)
    t = int(rng.integers(2, n + 1))
    assert avg_acc(mat, t) == pytest.approx(float(np.mean(rows[t - 1])))
    f = np.mean([max(rows[l - 1][j - 1] for l in range(j, t))
                 - rows[t - 1][j - 1] for j in range(1, t)])
    assert forgetting(mat, t) == pytest.approx(float(f))
