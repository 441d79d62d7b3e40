"""Test-only hypothesis classes: every labeling of a small ground set, the
largest class the exact divergence and bound tests enumerate, and the
threshold functions over a 1-D ground set that gate 7 measures the exact
divergence with."""
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


def threshold_class(points_1d: np.ndarray) -> FiniteHypothesisClass:
    """Threshold functions h_c(x) = 1[x >= c] over a 1-D ground set.

    One labeling per distinct cut position of the sorted points (n+1 rows).
    """
    pts = np.asarray(points_1d, dtype=np.float64).ravel()
    if pts.size == 0:
        raise ContractError("ground set must be nonempty")
    order = np.argsort(pts, kind="stable")
    n = pts.size
    rows = np.zeros((n + 1, n), dtype=np.int8)
    for k in range(n + 1):
        rows[k, order[k:]] = 1
    return FiniteHypothesisClass(rows)
