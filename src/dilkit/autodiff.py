"""Minimal reverse-mode autodiff over numpy float64 arrays.

Ops, each one the library calls: add, mul, relu, sqrt, tsum, rowsum, rows,
column, reshape, concat_cols, softmax, and the fused linear (x @ w + b) and
softmax_xent (-sum(target * log_softmax(a)), every cross-entropy loss).

Each op builds a Tensor holding a `_backward` closure; `backward()` runs
the closures in reverse topological order, passing each node its own
`.grad`, and the closures accumulate into their inputs' `.grad` with +=.
A closure takes the incoming gradient as its argument and holds no
reference to its output, so a graph has no reference cycles: dropping the
loss frees the whole graph at once, without the cyclic garbage collector.
Gradients are cleared by the optimizer step, not here.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ContractError(ValueError):
    """A documented pre/postcondition was violated."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._prev = _prev
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss, got shape %r" % (self.shape,))
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _make(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _prev=tuple(parents) if req else ())


# -- primitives --------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data + b.data, (a, b))
    if out.requires_grad:
        def _back(g):
            a._accum(_unbroadcast(g, a.data.shape))
            b._accum(_unbroadcast(g, b.data.shape))
        out._backward = _back
    return out


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def _back(g):
            a._accum(_unbroadcast(g * b.data, a.data.shape))
            b._accum(_unbroadcast(g * a.data, b.data.shape))
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


def sqrt(a: Tensor) -> Tensor:
    a = _wrap(a)
    val = np.sqrt(a.data)
    out = _make(val, (a,))
    if out.requires_grad:
        def _back(g):
            a._accum(g * 0.5 / val)
        out._backward = _back
    return out


def tsum(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _make(np.asarray(a.data.sum()), (a,))
    if out.requires_grad:
        def _back(g):
            a._accum(np.full_like(a.data, float(g)))
        out._backward = _back
    return out


def rowsum(a: Tensor) -> Tensor:
    """[n, c] -> [n]: sum over the second axis."""
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ContractError("rowsum expects a 2-D tensor")
    out = _make(a.data.sum(axis=1), (a,))
    if out.requires_grad:
        def _back(g):
            a._accum(np.repeat(g[:, None], a.data.shape[1], axis=1))
        out._backward = _back
    return out


def rows(a: Tensor, idx) -> Tensor:
    """[n, c], [k] -> [k, c]: gather whole rows (duplicates allowed)."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = _make(a.data[idx], (a,))
    if out.requires_grad:
        def _back(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accum(full)
        out._backward = _back
    return out


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


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    out = _make(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def _back(g):
            a._accum(g.reshape(a.data.shape))
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


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax with log-sum-exp stabilization."""
    a = _wrap(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = _make(p, (a,))
    if out.requires_grad:
        def _back(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            a._accum(p * (g - dot))
        out._backward = _back
    return out


def softmax_xent(a: Tensor, target) -> Tensor:
    """[n, c], constant [n, c] -> scalar: -sum(target * log_softmax(a)).
    Row weights live in the target (one-hot rows times 1/n: the mean
    cross-entropy); the adjoint is g * (softmax(a) * rowsum(target) - target)."""
    a = _wrap(a)
    target = np.asarray(target, dtype=np.float64)
    if a.data.ndim != 2 or target.shape != a.data.shape:
        raise ContractError("softmax_xent target must match the [n, c] logits, "
                            "got %r for %r" % (target.shape, a.data.shape))
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1, keepdims=True)
    logp = a.data + (m + np.log(s)) * -1.0
    out = _make(-(logp * target).sum(), (a,))
    if out.requires_grad:
        sm = e / s
        def _back(g):
            # the accumulation order of the composed log_softmax graph, so
            # training results stay bitwise equal to it
            d = np.full_like(a.data, -float(g)) * target
            a._accum(d)
            a._accum(sm * (d.sum(axis=1, keepdims=True) * -1.0))
        out._backward = _back
    return out


# -- finite-difference oracle -----------------------------------------

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
    worst = 0.0
    for t, an in zip(tensors, analytic):
        flat = t.data.ravel()
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = float(fn().data)
            flat[c] = orig - eps
            lo = float(fn().data)
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
