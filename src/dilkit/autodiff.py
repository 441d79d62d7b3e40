"""Minimal reverse-mode autodiff over numpy float64 arrays.

Ops, each one the library calls: add, mul, rowsum, rows, mlp and
softmax_xent.  rowsum sums the last axis; rows gathers rows by an index of
any shape; mlp is a network forward (layers x @ w + b with relu between
them) as one node; softmax_xent is -sum(target * log_softmax(a)), every
cross-entropy.  `softmax` is a plain row-wise function of an array: it
builds no node and has no backward.

Each op builds a Tensor holding a `_backward` closure and a creation number;
an op's inputs exist before its output, so `backward()` runs the closures
of the nodes the loss reaches in reverse creation order, passing each node
its own `.grad`, and the closures accumulate into their inputs' `.grad`:
mlp's own fresh gradients are taken as they are, every other first
gradient is copied, and later ones are added with +=.
A closure takes the incoming gradient as its argument and holds no
reference to its output, so a graph has no reference cycles: dropping the
loss frees the whole graph at once, without the cyclic garbage collector.
Gradients are cleared by the optimizer step, not here.
"""
from __future__ import annotations

from itertools import count
from typing import Sequence

import numpy as np

_SEQUENCE = count()  # creation order of every Tensor


class ContractError(ValueError):
    """A documented pre/postcondition was violated."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._prev = _prev
        self._backward = None
        self._seq = next(_SEQUENCE)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray, fresh: bool = False) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:  # copied: add hands one g to both parents
            self.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss, got shape %r" % (self.shape,))
        reached, stack = {id(self): self}, [self]
        while stack:
            for p in stack.pop()._prev:
                if p.requires_grad and id(p) not in reached:
                    reached[id(p)] = p
                    stack.append(p)
        self.grad = np.ones_like(self.data)
        for node in sorted(reached.values(), key=lambda n: n._seq, reverse=True):
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


def mlp(x, layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """[n, i] through the (w, b) layers -> [n, o]: h @ w + b per layer, relu
    between layers, as one node.  The backward accumulates as a chain of one
    node per layer and per relu does, so gradients are bitwise equal."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ContractError("Mlp input must be [batch, features]")
    hs = [x.data]  # the input of each layer, then the output
    for k, (w, b) in enumerate(layers):
        if hs[-1].shape[1] != w.data.shape[0]:
            raise ContractError(f"layer {k}: input has {hs[-1].shape[1]} "
                                f"features, expected {w.data.shape[0]}")
        h = hs[-1] @ w.data
        h += b.data
        hs.append(np.maximum(h, 0.0, out=h) if k < len(layers) - 1 else h)
    out = _make(hs[-1], [x] + [p for pair in layers for p in pair])
    if out.requires_grad:
        def _back(g):
            for k in reversed(range(len(layers))):
                w, b = layers[k]
                if b.requires_grad:
                    b._accum(g.sum(axis=0), fresh=True)
                g_in = g @ w.data.T if k or x.requires_grad else None
                if w.requires_grad:
                    w._accum(hs[k].T @ g, fresh=True)
                if k:
                    g = np.multiply(g_in, hs[k] > 0.0, out=g_in)
                elif g_in is not None:
                    x._accum(g_in, fresh=True)
        out._backward = _back
    return out


def rowsum(a: Tensor) -> Tensor:
    """[..., c] -> [...]: sum over the last axis."""
    a = _wrap(a)
    if a.data.ndim == 0:
        raise ContractError("rowsum expects a tensor of at least one axis")
    out = _make(a.data.sum(axis=-1), (a,))
    if out.requires_grad:
        def _back(g):
            a._accum(np.repeat(g[..., None], a.data.shape[-1], axis=-1))
        out._backward = _back
    return out


def rows(a: Tensor, idx) -> Tensor:
    """[n, c], index of shape s -> [*s, c]: gather whole rows (duplicates
    allowed)."""
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


def softmax(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an array, with log-sum-exp stabilization."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
