"""Replay coefficients: per past domain a triple (alpha_i, beta_i, gamma_i)
mixing intra-domain distillation, cross-domain distillation, and raw replay
ERM.  A preset's triples are a fixed [t-1, 3] array; UDIL's are the row-wise
softmax of a [t-1, 3] logit Tensor it descends."""
from __future__ import annotations

import math

import numpy as np

from .autodiff import ContractError, Tensor
from .datagen import ConfigError

METHODS = ("UDIL", "LwF", "ER", "DER++", "iCaRL", "CLS-ER", "ESM-ER", "BiC",
           "FineTune", "Joint")
# methods expressible as a fixed on-simplex triple
TRIPLE_PRESETS = ("LwF", "ER", "DER++", "iCaRL", "CLS-ER", "ESM-ER", "BiC")

ESM_ER_RATIO = 1.0 - math.exp(-1.0)  # replay-stream retention rate r


def init_uniform(t: int) -> Tensor:
    """UDIL's [t-1, 3] coefficient logits for domain t, all zero: their
    softmax rows are (1/3, 1/3, 1/3)."""
    if t < 2:
        raise ContractError("adaptive coefficients require t >= 2")
    return Tensor(np.zeros((t - 1, 3)), requires_grad=True)


def preset_triple(method: str, t: int) -> tuple[float, float, float]:
    """(alpha, beta, gamma) for one past domain at current domain t."""
    if t < 2:
        raise ContractError("presets require t >= 2")
    if method == "LwF":
        return (0.0, 1.0, 0.0)
    if method == "ER":
        return (0.0, 0.0, 1.0)
    if method == "DER++":
        return (0.5, 0.0, 0.5)
    if method == "iCaRL":
        return (1.0, 0.0, 0.0)
    if method == "CLS-ER":
        lam = float(t - 2)
        return (lam / (1.0 + lam), 0.0, 1.0 / (1.0 + lam))
    if method == "ESM-ER":
        lam = ESM_ER_RATIO * (t - 1) - 1.0
        if lam < 0:
            raise ConfigError(
                f"ESM-ER requires lambda' = r*(t-1)-1 >= 0 with r = 1-1/e; "
                f"t={t} gives lambda' = {lam:.6f} < 0", field="method")
        return (lam / (1.0 + lam), 0.0, 1.0 / (1.0 + lam))
    if method == "BiC":
        # equal-batch bias-correction replay: the weight ratio
        # alpha:beta:gamma = (t-1):(t-1):1, normalized
        return ((t - 1) / (2.0 * t - 1), (t - 1) / (2.0 * t - 1),
                1.0 / (2.0 * t - 1))
    raise ConfigError(
        f"unknown preset {method!r}; on-simplex presets: {TRIPLE_PRESETS}")


def from_preset(method: str, t: int) -> np.ndarray:
    """[t-1, 3] fixed triples of one of the coefficient presets; FineTune
    zeroes all past-domain weights (off-simplex by definition: no replay)."""
    if method not in METHODS:
        raise ConfigError(
            f"unknown method {method!r}; valid methods: {', '.join(METHODS)}",
            field="method")
    if method in ("UDIL", "Joint"):
        raise ConfigError(
            f"{method} does not use fixed coefficients; "
            "UDIL adapts them and Joint ignores them")
    if t < 2:
        raise ContractError("presets require t >= 2")
    if method == "FineTune":
        return np.zeros((t - 1, 3))
    return np.array([preset_triple(method, t)] * (t - 1))
