"""Closed-form network passes, softmax and cross-entropy over numpy
float64 arrays, and `Tensor`, the node of the test-side graph.

`mlp_forward` runs a network over its (w, b) arrays and keeps each layer's
input; `mlp_backward` writes each parameter's gradient into its view of a
gradient array and returns the input's; `mlp_buffers` builds the arrays the
two write the rest into, once for a row count.  `softmax_parts`, `softmax`,
`xent` and `row_sum` are the row-wise reductions the losses share.

No other module of the library builds a Tensor.  Each node of the
test-side graph is one, with a value (`data`), a gradient (`grad`), a
`_backward` closure and a creation number; `backward()` runs the closures
of the nodes a scalar loss reaches in reverse creation order, and `_accum`
adds a closure's gradient into an input's (copied unless fresh, then +=).
perfbench wraps `backward` and counts Tensor constructions by name.
"""
from __future__ import annotations

from itertools import count
from typing import Callable, NamedTuple, Sequence

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
        if self.grad is None:  # copied: a node may hand one g to two parents
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


class LayerBuffers(NamedTuple):
    """Where one layer's buffered passes write: its output, its input's
    gradient and its input's relu mask (None on the first layer)."""
    out: np.ndarray | None
    grad_in: np.ndarray | None
    mask: np.ndarray | None


_FRESH = LayerBuffers(None, None, None)  # every result a new array

Layers = Sequence[tuple[np.ndarray, np.ndarray]]  # (w, b) per layer


def mlp_buffers(layers: Layers, rows: int) -> list[LayerBuffers]:
    """The buffers `mlp_forward` and `mlp_backward` write into for the
    (w, b) layers at `rows` rows, built once.  What a buffered call returns
    stays valid until the next call on them."""
    return [LayerBuffers(np.empty((rows, w.shape[1])), np.empty((rows, w.shape[0])),
                         np.empty((rows, w.shape[0]), dtype=bool) if k else None)
            for k, (w, b) in enumerate(layers)]


def mlp_forward(x, layers: Layers,
                buffers: Sequence[LayerBuffers] | None = None) -> list[np.ndarray]:
    """[n, i] through the (w, b) layers: h @ w + b per layer, relu between
    layers.  Returns the input of each layer, then the [n, o] output, as
    `mlp_backward` reads them; each layer's output is written into its
    `buffers` (from `mlp_buffers` at n rows) or, without, a fresh array."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ContractError("Mlp input must be [batch, features]")
    if buffers is None:
        buffers = [_FRESH] * len(layers)
    elif len(h) != len(buffers[0].out):
        raise ContractError(f"Mlp buffers hold {len(buffers[0].out)} rows, "
                            f"got {len(h)}")
    hs, last = [h], len(layers) - 1
    for k, ((w, b), buf) in enumerate(zip(layers, buffers, strict=True)):
        if h.shape[1] != w.shape[0]:
            raise ContractError(f"layer {k}: input has {h.shape[1]} "
                                f"features, expected {w.shape[0]}")
        h = np.matmul(h, w, out=buf.out)
        h += b
        if k < last:
            np.maximum(h, 0.0, out=h)
        hs.append(h)
    return hs


def mlp_backward(hs: list[np.ndarray], layers: Layers, g: np.ndarray,
                 input_grad: bool, grads: Layers | None = None,
                 buffers: Sequence[LayerBuffers] | None = None) -> np.ndarray | None:
    """Backpropagate the output gradient g through the layers `hs` came
    from: write each parameter's gradient into its view in `grads` (None
    for a network that takes none) and return the input's gradient when
    `input_grad` is set, else None; each is bitwise what a chain of one
    node per layer and per relu accumulates.  The input's gradient and the
    relu masks go into `buffers` (the forward's) or fresh arrays."""
    g_in, buffers = None, buffers or [_FRESH] * len(layers)
    for k in reversed(range(len(layers))):
        w, buf = layers[k][0], buffers[k]
        if grads is not None:
            np.add.reduce(g, axis=0, out=grads[k][1])
            np.matmul(hs[k].T, g, out=grads[k][0])
        g_in = np.matmul(g, w.T, out=buf.grad_in) if k or input_grad else None
        if k:
            g = np.multiply(g_in, np.greater(hs[k], 0.0, out=buf.mask), out=g_in)
    return g_in


def _row_reduce(ufunc: np.ufunc, a: np.ndarray,
                at: np.ndarray | None = None) -> np.ndarray:
    """ufunc.reduce over the last axis of [..., c] `a`, bitwise as NumPy's
    max or sum along it gives it on `a` in C order; `at`, when given, is
    a.T as a contiguous copy.  Below 8 columns the columns are taken one at
    a time, in order: NumPy's reduction along a short last axis costs more
    than its elementwise ops, and its sum adds a row's entries in order
    there.  From 8 up NumPy's pairwise sum groups them otherwise, and from
    9 up its vectorized max can return -0.0 where the columns taken in
    order give 0.0 (measured), so from 8 up NumPy's reduction is kept."""
    if a.shape[-1] >= 8:
        return ufunc.reduce(np.ascontiguousarray(a), axis=-1)
    return ufunc.reduce(a.T.copy() if at is None else at).T


def row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True), bitwise."""
    return _row_reduce(np.add, a)[..., None]


class Softmax(NamedTuple):
    """The row-wise softmax of [n, c] logits a, stored by column: `pt` is
    softmax(a).T as a contiguous [c, n] array, `m` the [n] row max of a and
    `s` the [n] row sum of exp(a - m) it divided by.  Row-wise work on
    columns of n entries costs NumPy a few calls, where on rows of c
    entries it costs one call per row."""
    m: np.ndarray
    s: np.ndarray
    pt: np.ndarray


def softmax_parts(a: np.ndarray) -> Softmax:
    """Row-wise softmax of [n, c] logits with log-sum-exp stabilization,
    with the row max and row sum it took, stored by column; bitwise the
    row-wise computation."""
    at = a.T.copy()
    m = _row_reduce(np.maximum, a, at)
    at -= m
    np.exp(at, out=at)
    s = _row_reduce(np.add, at.T, at)
    at /= s
    return Softmax(m, s, at)


def softmax(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [n, c] logits, with log-sum-exp stabilization."""
    return softmax_parts(a).pt.T.copy()


def xent(a: np.ndarray, target, parts: Softmax | None
         ) -> tuple[float, Callable[[float], np.ndarray]]:
    """-sum(target * log_softmax(a)) over [n, c] logits `a` and a constant
    [n, c] target, in closed form, from `softmax_parts(a)` (`parts`, when
    the caller took it already).  Row weights live in the target (one-hot
    rows times 1/n: the mean cross-entropy).  Returns the value and a
    function of an upstream scalar g giving the adjoint on `a`,
    g * (softmax(a) * rowsum(target) - target), computed as
    d = target * -g, then d - softmax(a) * rowsum(d): the accumulation
    order of the composed log_softmax graph, so results stay bitwise
    equal to it."""
    target = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or target.shape != a.shape:
        raise ContractError("softmax_xent target must match the [n, c] logits, "
                            "got %r for %r" % (target.shape, a.shape))
    m, s, pt = softmax_parts(a) if parts is None else parts
    lse = np.log(s)
    lse += m
    logp = np.subtract(a, lse[:, None])
    logp *= target
    value = -float(np.add.reduce(logp, axis=None))

    def adjoint(g: float) -> np.ndarray:
        d = target * -g
        d -= (pt * _row_reduce(np.add, d)).T
        return d
    return value, adjoint
