import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilkit.autodiff import ContractError, Tensor, add, softmax, tsum, mul
from dilkit.coeffs import (
    ESM_ER_RATIO, METHODS, TRIPLE_PRESETS, from_preset, init_uniform,
    preset_triple,
)
from dilkit.datagen import ConfigError
from dilkit.models import sgd_step


def test_init_uniform_triples():
    logits = init_uniform(3)
    assert logits.requires_grad
    tr = softmax(logits).data
    assert tr.shape == (2, 3)
    assert np.allclose(tr, 1.0 / 3.0)
    with pytest.raises(ContractError, match="t >= 2"):
        init_uniform(1)


def test_softmax_logit_arithmetic():
    logits = init_uniform(2)
    logits.data[0] = [math.log(2.0), 0.0, 0.0]
    assert np.allclose(softmax(logits).data[0], [0.5, 0.25, 0.25])


def test_logit_shift_invariance():
    logits = init_uniform(2)
    logits.data[0] = [0.3, -1.2, 2.0]
    before = softmax(logits).data
    logits.data[0] += 17.5
    assert np.allclose(softmax(logits).data, before, atol=1e-12)


def test_simplex_gradient_of_sum_is_zero():
    logits = init_uniform(2)
    logits.data[0] = [0.7, -0.4, 0.1]
    loss = tsum(softmax(logits))
    loss.backward()
    assert np.allclose(logits.grad, 0.0, atol=1e-15)


def test_preset_golden_values_exact():
    # frozen from the closed-form coefficient definitions, exact rationals
    # where the formulas are rational in t
    assert preset_triple("LwF", 4) == (0.0, 1.0, 0.0)
    assert preset_triple("ER", 17) == (0.0, 0.0, 1.0)
    assert preset_triple("DER++", 2) == (0.5, 0.0, 0.5)
    assert preset_triple("iCaRL", 9) == (1.0, 0.0, 0.0)

    for t in range(2, 12):
        lam = Fraction(t - 2)
        expect = (Fraction(lam, 1 + lam), Fraction(0), Fraction(1, 1 + lam))
        got = preset_triple("CLS-ER", t)
        assert got == tuple(float(v) for v in expect)

        bic = (Fraction(t - 1, 2 * t - 1), Fraction(t - 1, 2 * t - 1),
               Fraction(1, 2 * t - 1))
        got_bic = preset_triple("BiC", t)
        assert np.allclose(got_bic, [float(v) for v in bic], atol=1e-15)


def test_cls_er_t5():
    assert preset_triple("CLS-ER", 5) == (0.75, 0.0, 0.25)


def test_bic_t3():
    assert np.allclose(preset_triple("BiC", 3), (0.4, 0.4, 0.2), atol=1e-15)


def test_esm_er_values_and_rejection():
    with pytest.raises(ConfigError, match="lambda"):
        preset_triple("ESM-ER", 2)
    with pytest.raises(ConfigError):
        from_preset("ESM-ER", 2)
    lam = ESM_ER_RATIO * 2 - 1  # t=3
    a, b, g = preset_triple("ESM-ER", 3)
    assert b == 0.0
    assert a == pytest.approx(lam / (1 + lam), abs=1e-15)
    assert g == pytest.approx(1 / (1 + lam), abs=1e-15)


def test_presets_lie_on_simplex():
    for m in TRIPLE_PRESETS:
        for t in (2, 3, 7, 20):
            if m == "ESM-ER" and t == 2:
                continue
            tr = np.array(preset_triple(m, t))
            assert np.all(tr >= 0)
            assert abs(tr.sum() - 1.0) <= 1e-9


def test_from_preset_builds_fixed_rows():
    s = from_preset("DER++", 4)
    assert isinstance(s, np.ndarray) and s.dtype == np.float64
    assert np.allclose(s, [[0.5, 0.0, 0.5]] * 3)
    ft = from_preset("FineTune", 3)
    assert np.allclose(ft, 0.0)


def test_from_preset_rejections():
    with pytest.raises(ConfigError, match="valid methods"):
        from_preset("SGDM", 3)
    with pytest.raises(ConfigError):
        from_preset("UDIL", 3)
    with pytest.raises(ConfigError):
        from_preset("Joint", 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(20, 100))
def test_simplex_closure_under_sgd(seed, t, n_steps):
    rng = np.random.default_rng(seed)
    logits = init_uniform(t)
    target = Tensor(rng.random((t - 1, 3)))
    for _ in range(n_steps):
        diff = add(softmax(logits), mul(target, -1.0))
        loss = tsum(mul(diff, diff))
        loss.backward()
        sgd_step([logits], 0.5)
    tr = softmax(logits).data
    assert np.all(tr >= 0) and np.all(tr <= 1)
    assert np.allclose(tr.sum(axis=1), 1.0, atol=1e-9)


def test_methods_enum_complete():
    assert set(METHODS) == {"UDIL", "LwF", "ER", "DER++", "iCaRL", "CLS-ER",
                            "ESM-ER", "BiC", "FineTune", "Joint"}
