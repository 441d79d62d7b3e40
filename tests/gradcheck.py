"""Test-only finite-difference oracle: the gate-4 suite and the autodiff and
loss tests check every analytic gradient against central differences, of
a graph's loss (`gradcheck`) or of a function of a plain array that returns
its value and gradient (`gradcheck_array`).  `closed_form_node` puts a
loss that returns its gradient in closed form (V_l, V_d on the logits, V_p,
V_s on the embedding) back into a graph, so its gradient reaches the
networks' parameters through their nodes."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from dilkit.autodiff import Tensor
from reference_ops import _make


def closed_form_node(fn, logits: Tensor) -> Tensor:
    """fn(logits.data), a closed-form loss's (value, gradient on the logits
    at upstream 1), or None or (value, None) for a constant, as a node over
    `logits` whose backward hands them g times that gradient."""
    value, grad = fn(logits.data) or (0.0, None)
    if grad is None:
        return Tensor(value)
    out = _make(value, (logits,))
    if out.requires_grad:
        out._backward = lambda g: logits._accum(g * grad)
    return out


def gradcheck(fn, tensors: Sequence[Tensor], eps: float = 1e-5,
              rtol: float = 1e-4, atol: float = 1e-7,
              max_coords: int | None = None,
              rng: np.random.Generator | None = None) -> float:
    """Compare analytic grads of scalar fn() against central differences.

    Returns the worst relative error; raises AssertionError past tolerance.
    """
    for t in tensors:
        t.grad = None
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]
    return _central_differences(lambda: float(fn().data),
                                [t.data for t in tensors], analytic, eps,
                                rtol, atol, max_coords, rng)


def gradcheck_array(fn, x: np.ndarray, eps: float = 1e-5, rtol: float = 1e-4,
                    atol: float = 1e-7, max_coords: int | None = None,
                    rng: np.random.Generator | None = None) -> float:
    """Compare the gradient fn(x) returns, as (value, gradient; None for a
    constant), against central differences of its value, perturbing x in
    place.

    Returns the worst relative error; raises AssertionError past tolerance.
    """
    grad = fn(x)[1]
    analytic = (np.zeros_like(x) if grad is None
                else np.array(grad, dtype=np.float64))
    return _central_differences(lambda: float(fn(x)[0]), [x], [analytic],
                                eps, rtol, atol, max_coords, rng)


def _central_differences(value, arrays, analytic, eps, rtol, atol,
                         max_coords, rng) -> float:
    """value() against the analytic gradients of `arrays`, coordinate by
    coordinate (at most `max_coords` drawn per array)."""
    worst = 0.0
    for arr, an in zip(arrays, analytic):
        flat = arr.ravel()
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = value()
            flat[c] = orig - eps
            lo = value()
            flat[c] = orig
            fd = (hi - lo) / (2.0 * eps)
            a = an.ravel()[c]
            err = abs(a - fd)
            denom = max(abs(a), abs(fd))
            rel = err / denom if denom > 0 else 0.0
            worst = max(worst, rel if denom > atol else 0.0)
            if err > atol and rel > rtol:
                raise AssertionError(
                    f"grad mismatch at coord {c}: analytic {a!r} vs fd {fd!r}")
    return worst
