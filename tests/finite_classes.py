"""Test-only hypothesis classes: every labeling of a small ground set, the
largest class the exact divergence and bound tests enumerate."""
from itertools import product

import numpy as np

from dilkit.autodiff import ContractError
from dilkit.divergence import FiniteHypothesisClass


def all_labelings(n_points: int) -> FiniteHypothesisClass:
    """Every binary labeling of an n-point ground set (2**n hypotheses)."""
    if not 1 <= n_points <= 16:
        raise ContractError("all_labelings supports 1..16 points")
    rows = list(product((0, 1), repeat=n_points))
    return FiniteHypothesisClass(np.array(rows, dtype=np.int8))
