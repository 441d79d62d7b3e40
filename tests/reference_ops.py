"""Test-only reference: the autodiff ops the library composed its networks
and cross-entropies from before `mlp` and `softmax_xent` fused them (a
`linear` node per layer and a `relu` node between layers; `linear` itself
fused `matmul` and `add`), and the slicing ops V_01 and V_s were built
from before V_01 became one weighted sum and V_s one cross-entropy over
gathered differences.  `sqrt` is the op V_01's radical was built with, and
`v_01_selection` is V_01 as it was composed before it became one node: an
`mlp` used as an affine map over a selection matrix, then the weighted sum
and the radical from generic ops.  The differential tests in
test_autodiff.py and test_losses.py compare the fused ops and V_01 against
these compositions, and reference_step.py builds its per-domain losses from
them.  `backward` is the graph walk `Tensor.backward` ran before it ordered
nodes by creation: a two-phase depth-first search whose post-order,
reversed, is the topological order.  `sgd_step` is the update as
models.sgd_step wrote it before it scaled each gradient in place."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from dilkit.autodiff import (
    ContractError, Tensor, _make, _wrap, add, mlp, mul, reshape, tsum,
)


def backward(loss: Tensor) -> None:
    """loss.backward() with the two-phase depth-first topological sort."""
    if loss.data.size != 1:
        raise ContractError("backward() requires a scalar loss, got shape %r"
                            % (loss.shape,))
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def sgd_step(params, learning_rate: float) -> None:
    """p <- p - lr * grad for every param, through a temporary."""
    for p in params:
        if p.grad is None:
            raise ContractError("sgd_step: parameter has no gradient")
    for p in params:
        p.data -= learning_rate * p.grad
        p.grad = None


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ContractError(
            "matmul shape mismatch: %r @ %r" % (a.data.shape, b.data.shape))
    out = _make(a.data @ b.data, (a, b))
    if out.requires_grad:
        def _back(g):
            a._accum(g @ b.data.T)
            b._accum(a.data.T @ g)
        out._backward = _back
    return out


def linear(x, w, b) -> Tensor:
    """[n, i], [i, o], [o] -> [n, o]: x @ w + b as one node."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if (x.data.ndim != 2 or b.data.ndim != 1
            or w.data.shape != (x.data.shape[1],) + b.data.shape):
        raise ContractError(
            "linear shape mismatch: %r @ %r + %r" % (x.shape, w.shape, b.shape))
    out = _make(x.data @ w.data + b.data, (x, w, b))
    if out.requires_grad:
        def _back(g):
            b._accum(g.sum(axis=0))
            if x.requires_grad:
                x._accum(g @ w.data.T)
            if w.requires_grad:
                w._accum(x.data.T @ g)
        out._backward = _back
    return out


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _make(np.maximum(a.data, 0.0), (a,))
    if out.requires_grad:
        mask = a.data > 0.0
        def _back(g):
            a._accum(g * mask)
        out._backward = _back
    return out


def mlp_chain(x, layers) -> Tensor:
    """A network forward as the composed chain of linear and relu nodes,
    the way Mlp.logits built it before `mlp` fused it."""
    h = _wrap(x)
    for k, (w, b) in enumerate(layers):
        h = linear(h, w, b)
        if k < len(layers) - 1:
            h = relu(h)
    return h


def tmean(a: Tensor) -> Tensor:
    n = max(a.data.size, 1)
    return mul(tsum(a), 1.0 / n)


def pick(a: Tensor, idx) -> Tensor:
    """[n, c], [n] -> [n]: a[i, idx[i]] per row."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    n = a.data.shape[0]
    if idx.shape != (n,):
        raise ContractError("pick index must be 1-D with one entry per row")
    rows_i = np.arange(n)
    out = _make(a.data[rows_i, idx], (a,))
    if out.requires_grad:
        def _back(g):
            full = np.zeros_like(a.data)
            np.add.at(full, (rows_i, idx), g)
            a._accum(full)
        out._backward = _back
    return out


def lse(a: Tensor) -> Tensor:
    """[n, c] -> [n]: row-wise log-sum-exp, stabilized."""
    a = _wrap(a)
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1, keepdims=True)
    val = (m + np.log(s)).ravel()
    out = _make(val, (a,))
    if out.requires_grad:
        sm = e / s
        def _back(g):
            a._accum(sm * g[:, None])
        out._backward = _back
    return out


def log_softmax(a: Tensor) -> Tensor:
    n = a.data.shape[0]
    return add(a, mul(reshape(lse(a), (n, 1)), -1.0))


def column(a: Tensor, j: int) -> Tensor:
    """[r, c] -> [r]: one column."""
    a = _wrap(a)
    out = _make(a.data[:, j].copy(), (a,))
    if out.requires_grad:
        def _back(g):
            full = np.zeros_like(a.data)
            full[:, j] = g
            a._accum(full)
        out._backward = _back
    return out


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1."""
    parts = [_wrap(p) for p in parts]
    widths = [p.data.shape[1] for p in parts]
    out = _make(np.concatenate([p.data for p in parts], axis=1), parts)
    if out.requires_grad:
        offsets = np.cumsum([0] + widths)
        def _back(g):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                p._accum(g[:, lo:hi])
        out._backward = _back
    return out


def sqrt(a: Tensor) -> Tensor:
    a = _wrap(a)
    val = np.sqrt(a.data)
    out = _make(val, (a,))
    if out.requires_grad:
        def _back(g):
            a._accum(g * 0.5 / val)
        out._backward = _back
    return out


def v_01_selection(omega, stats, c_gen: float, n_current: int,
                   n_memory) -> Tensor:
    """sum(m * stats.weights()) + c_gen * sqrt(sum(w * v**2)) over the
    [t-1, 3] triples m = omega, with v = flat(m) @ select + offset, the
    selection matrix picking (1 + sum beta, alpha_i + gamma_i)."""
    n_memory = np.asarray(n_memory, dtype=np.float64)
    m = _wrap(omega)
    n_past = m.data.shape[0]
    if n_memory.shape != (n_past,) or len(stats.eps_replay) != n_past:
        raise ContractError("v_01: past-domain counts disagree")
    if n_current <= 0 or np.any(n_memory <= 0):
        raise ContractError("the radical requires positive sample counts")
    select = np.zeros((3 * n_past, n_past + 1))
    select[1::3, 0] = 1.0
    select[0::3, 1:] = select[2::3, 1:] = np.eye(n_past)
    offset = np.eye(1, n_past + 1)[0]
    w = np.concatenate([[1.0 / n_current], 1.0 / n_memory])
    v = mlp(reshape(m, (1, 3 * n_past)), [(Tensor(select), Tensor(offset))])
    rad = sqrt(tsum(mul(mul(v, v), w)))
    return add(tsum(mul(m, stats.weights())), mul(rad, c_gen))
