"""Test-only reference: the graph the library built before every
gradient took a closed form, and the forms earlier changes replaced.

A network's parameters enter the graph as leaves: `leaf_layers` wraps
each weight and bias view of a network's one array as a Tensor, once per
network, `leaves` lists them as Mlp.params() did when every parameter was
a Tensor, and `grads` lists the views of the gradient a network's own
backward wrote, in the same order.

The graph ops: `add`, `mul`, `rowsum` (a sum over the last axis), `rows`
(a gather of rows by an index of any shape), `mlp` (a network forward as
one node over the library's `mlp_forward` and `mlp_backward`) and
`softmax_xent` (the library's `xent` as a node), with the helpers `_wrap`,
`_make` and `_unbroadcast`; each op builds a `Tensor` over the parameters,
and `Tensor.backward` walks them.  A closure holds no reference to its
output, so a dropped loss frees its graph without the cyclic garbage
collector.  `logits_node` is a network's logits as `mlp` nodes, as
Mlp.logits built them before it returned an array; a test that
backpropagates into a network's parameters builds its logits with it.
`v_p` and `v_s` are V_p and V_s as graphs over the embedding, and
`encoder_aux_loss` is the library's as it summed them over a leaf copy of
the embedding and backpropagated, before V_p and V_s returned their
embedding gradient in closed form; test_closed_forms.py compares the
library's against it bit for bit.

The ops the library composed its networks and cross-entropies from before
`mlp` and `softmax_xent` fused them (a `linear` node per layer and a
`relu` node between layers; `linear` itself fused `matmul` and `add`),
and the slicing ops V_01 and V_s were built from before V_01 became one
weighted sum and V_s one cross-entropy over gathered differences.  `sqrt` is the op V_01's radical was built with, and
`v_01_selection` is V_01 as it was composed before it became one node: an
`mlp` used as an affine map over a selection matrix, then the weighted sum
and the radical from generic ops.  The differential tests in
test_autodiff.py and test_losses.py compare the fused ops and V_01 against
these compositions, and reference_step.py builds its per-domain losses from
them.  `softmax` is the graph node the library's softmax was, with its
backward, before UDIL's coefficient update took V_01's gradient through it
in closed form; `v_01_node` is V_01 as that one node on the triples, its
backward in closed form; test_losses.py compares the library's value and
logits gradient against `v_01_node(softmax(logits))`, and
reference_step.py's `replay_step` descends through them.  `backward` is
the graph walk `Tensor.backward` ran before it ordered nodes by creation:
a two-phase depth-first search whose post-order, reversed, is the
topological order.  `sgd_step` is the update as
models.sgd_step wrote it before it scaled each gradient in place, one
parameter at a time; graph-side code applies it to `leaves`.  `tsum`
and `reshape` are the whole-tensor sum and the reshape V_p and V_s were
built with before `rowsum` summed the last axis and V_s gathered its pairs
with one 2-D index; reference_step.py's per-domain V_p and V_s and the
frozen V_01 forms still use them.
`mlp_forward` and `mlp_backward` are the network's plain forward and
backward as they were before they could write into buffers built once:
every layer output, mask and gradient a fresh array; test_autodiff.py
compares the buffered forms against them bitwise.  `v_01_node`, at an
upstream 1, is also V_01's closed form as it was before its gradient was
added in place into the weights (`column_stack` and `full`).

The closed forms as the replay step ran them before it took the stopped
discriminator's softmax once and worked row-wise reductions by column:
`xent` (row max, exp and row sums along the rows, the adjoint added as
d + p * -rowsum(d)), `discriminator_divergences` (a boolean class mask,
a column list index, `count_nonzero` and `np.clip`) and
`coeff_stats_for_step` (its own softmax of the discriminator's logits and
a list of two miss rows).  test_closed_forms.py compares the library's
forms against them bit for bit."""
from __future__ import annotations

import logging
from functools import reduce
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from dilkit import autodiff
from dilkit.autodiff import ContractError, Tensor
from dilkit.losses import (N_NEGATIVES, CoeffStats, HyperParams, StepBatch,
                           _one_hot, v_d)
from dilkit.models import Classifier, Mlp

log = logging.getLogger(__name__)


# -- the graph ops the library built before every gradient took a closed form

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


def leaf_layers(net: Mlp) -> list[tuple[Tensor, Tensor]]:
    """The (w, b) layers of `net` as graph leaves, built once per network:
    each leaf a Tensor over its view of the network's one array, so that an
    in-place update of either shows in the other, and taking a gradient
    unless the network is a stopped view.  A graph's gradients live on the
    leaves; the network's own backward writes its `grad`, as ever."""
    if net not in _LEAVES:
        _LEAVES[net] = [(Tensor(w, requires_grad=net.takes_grad),
                         Tensor(b, requires_grad=net.takes_grad))
                        for w, b in net.layers]
    return _LEAVES[net]


_LEAVES: WeakKeyDictionary = WeakKeyDictionary()


def leaves(net: Mlp | Classifier) -> list[Tensor]:
    """The leaves of `leaf_layers`, each layer's w then b (a Classifier's
    encoder's, then its predictor's): the parameter list Mlp.params()
    returned when each parameter was a Tensor."""
    nets = net.params() if isinstance(net, Classifier) else [net]
    return [p for n in nets for pair in leaf_layers(n) for p in pair]


def stopped(clf: Classifier) -> Classifier:
    """A view of `clf` sharing its weights, taking no gradient."""
    return Classifier(clf.encoder.stopped(), clf.predictor.stopped())


def grads(net: Mlp) -> list[np.ndarray | None]:
    """The views of the network's `grad` in the order of `leaves` (Nones
    while it holds no gradient)."""
    if net.grad is None:
        return [None] * (2 * len(net.layers))
    return [g for pair in net.views(net.grad) for g in pair]


def mlp(x, layers: Mlp | Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """[n, i] through the (w, b) layers (a network's `leaf_layers`) ->
    [n, o] as one node: the forward is the library's `mlp_forward` and the
    backward its `mlp_backward`, each writing into fresh arrays."""
    x = _wrap(x)
    if isinstance(layers, Mlp):
        layers = leaf_layers(layers)
    arrays = [(w.data, b.data) for w, b in layers]
    hs = autodiff.mlp_forward(x.data, arrays)
    out = _make(hs[-1], [x] + [p for pair in layers for p in pair])
    if out.requires_grad:
        def _back(g):
            fresh = [(np.empty_like(w), np.empty_like(b)) for w, b in arrays]
            g_in = autodiff.mlp_backward(hs, arrays, g, x.requires_grad, fresh)
            for (w, b), (gw, gb) in zip(layers, fresh):
                b._accum(gb, fresh=True)
                w._accum(gw, fresh=True)
            if g_in is not None:
                x._accum(g_in, fresh=True)
        out._backward = _back
    return out


def logits_node(net: Mlp | Classifier, x) -> Tensor:
    """net.logits(x) as Mlp.logits built it before it returned an array: an
    `mlp` node per network, a Classifier's encoder's, then its predictor's."""
    if isinstance(net, Classifier):
        return mlp(mlp(x, net.encoder), net.predictor)
    return mlp(x, net)


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


def softmax_xent(a: Tensor, target) -> Tensor:
    """[n, c], constant [n, c] -> scalar: the library's `xent` as a node."""
    a = _wrap(a)
    out = _make(autodiff.xent(a.data, target, None, 1.0)[0], (a,))
    if out.requires_grad:
        out._backward = lambda g: a._accum(
            autodiff.xent(a.data, target, None, float(g))[1], fresh=True)
    return out


def v_p(batch: StepBatch, embedding: Tensor,
        teacher_embedding: Tensor | np.ndarray) -> Tensor:
    """Past-embedding distillation as a graph over the embedding."""
    seg_w = np.r_[0.0, np.ones(len(batch.layout.ids))]
    batch.layout.check_weighted(seg_w, "v_p")
    diff = add(embedding, mul(teacher_embedding, -1.0))
    return rowsum(mul(rowsum(mul(diff, diff)), batch.layout.row_weights(seg_w)))


def v_s(embedding: Tensor, y: np.ndarray, n_negatives: int,
        rng: np.random.Generator) -> Tensor:
    """Supervised contrastive loss as a graph over the embedding: one
    cross-entropy over the anchors' differences to their partners."""
    n = len(y)
    anchors, positives = [], []
    for a in range(n):
        same = np.flatnonzero(y == y[a])
        same = same[same != a]
        if len(same):
            anchors.append(a)
            positives.append(int(rng.choice(same)))
    if not anchors:
        log.warning("v_s: no same-class pair in batch, returning 0")
        return Tensor(0.0)
    if (y == y[0]).all():
        return Tensor(0.0)
    k = len(anchors)
    negatives = [rng.choice(np.flatnonzero(y != y[a]), size=n_negatives,
                            replace=True) for a in anchors]
    partner = np.column_stack([positives, np.stack(negatives)])
    diff = add(rows(embedding, np.repeat(np.array(anchors)[:, None],
                                         n_negatives + 1, axis=1)),
               mul(rows(embedding, partner), -1.0))
    dist = rowsum(mul(diff, diff))
    target = _one_hot(np.zeros(k, np.int64), n_negatives + 1, 1.0 / k)
    return softmax_xent(mul(dist, -1.0), target)


def encoder_aux_loss(embedding: np.ndarray, disc_logits: np.ndarray | None,
                     disc_parts, teacher_embedding: np.ndarray | None,
                     omega: np.ndarray, batch: StepBatch, hp: HyperParams,
                     rng: np.random.Generator):
    """losses.encoder_aux_loss with V_p and V_s as the graphs above over a
    leaf copy of the embedding, backpropagated by `Tensor.backward`."""
    values, disc_grad, emb_grad = [], None, None
    if hp.lambda_d > 0 and batch.layout.ids:
        vd = v_d(batch, omega, disc_logits, -hp.lambda_d, disc_parts)
        if vd is not None:
            values.append(vd[0] * -hp.lambda_d)
            disc_grad = vd[1]
    with_p, with_s = hp.lambda_p > 0 and bool(batch.layout.ids), hp.lambda_s > 0
    if with_p or with_s:
        leaf = Tensor(embedding, requires_grad=True)
        terms = [mul(v_p(batch, leaf, teacher_embedding), hp.lambda_p)] if with_p else []
        if with_s:
            terms.append(mul(v_s(leaf, batch.y, N_NEGATIVES, rng), hp.lambda_s))
        values += [term.item() for term in terms]
        reduce(add, terms).backward()
        emb_grad = leaf.grad
    return reduce(float.__add__, values, -0.0), disc_grad, emb_grad


# -- the forms of earlier changes ------------------------------------------


def tsum(a: Tensor) -> Tensor:
    """Any shape -> scalar: the sum of every entry."""
    a = _wrap(a)
    out = _make(np.asarray(a.data.sum()), (a,))
    if out.requires_grad:
        def _back(g):
            a._accum(np.full_like(a.data, float(g)))
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


def mlp_forward(x, layers):
    """[n, i] through the (w, b) layers, each layer's output a new array;
    returns each layer's input, then the output."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError("Mlp input must be [batch, features]")
    hs = [x]
    for k, (w, b) in enumerate(layers):
        if hs[-1].shape[1] != w.data.shape[0]:
            raise ContractError(f"layer {k}: input has {hs[-1].shape[1]} "
                                f"features, expected {w.data.shape[0]}")
        h = hs[-1] @ w.data
        h += b.data
        hs.append(np.maximum(h, 0.0, out=h) if k < len(layers) - 1 else h)
    return hs


def mlp_backward(hs, layers, g, input_grad):
    """The output gradient g back through the layers `hs` came from, each
    gradient a new array: accumulates the parameters' gradients, returns
    the input's when `input_grad` is set."""
    g_in = None
    for k in reversed(range(len(layers))):
        w, b = layers[k]
        if b.requires_grad:
            b._accum(g.sum(axis=0), fresh=True)
        g_in = g @ w.data.T if k or input_grad else None
        if w.requires_grad:
            w._accum(hs[k].T @ g, fresh=True)
        if k:
            g = np.multiply(g_in, hs[k] > 0.0, out=g_in)
    return g_in


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
    if isinstance(layers, Mlp):
        layers = leaf_layers(layers)
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


def softmax(a) -> Tensor:
    """Row-wise softmax with log-sum-exp stabilization, as a node."""
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


def v_01_node(omega, stats, c_gen: float) -> Tensor:
    """sum(m * stats.weights()) + c_gen * sqrt(sum(w * v**2)) over the
    [t-1, 3] triples m = omega as one node, w = 1 / stats.counts, whose
    backward adds g * (W + c_gen / sqrt(R) * (w_i v_i, w_0 v_0, w_i v_i))
    to row i."""
    m = _wrap(omega)
    n_past = m.data.shape[0]
    if len(stats.eps_replay) != n_past:
        raise ContractError(
            f"v_01: the simplex has {n_past} past domains, the stats "
            f"{len(stats.eps_replay)}")
    weights = stats.weights()
    v = np.concatenate(([1.0 + m.data[:, 1].sum()], m.data[:, 0] + m.data[:, 2]))
    w = 1.0 / np.asarray(stats.counts, dtype=np.float64)
    rad = np.sqrt((v * v * w).sum())
    out = _make((m.data * weights).sum() + rad * c_gen, (m,))
    if out.requires_grad:
        def _back(g):
            half = g * c_gen * 0.5 / rad * w * v
            dv = half + half
            dm = np.column_stack([dv[1:], np.full(n_past, dv[0]), dv[1:]])
            m._accum(g * weights + dm, fresh=True)
        out._backward = _back
    return out


def v_01_selection(omega, stats, c_gen: float) -> Tensor:
    """sum(m * stats.weights()) + c_gen * sqrt(sum(w * v**2)) over the
    [t-1, 3] triples m = omega, w = 1 / stats.counts, with
    v = flat(m) @ select + offset, the selection matrix picking
    (1 + sum beta, alpha_i + gamma_i)."""
    counts = np.asarray(stats.counts, dtype=np.float64)
    m = _wrap(omega)
    n_past = m.data.shape[0]
    if len(stats.eps_replay) != n_past:
        raise ContractError("v_01: past-domain counts disagree")
    select = np.zeros((3 * n_past, n_past + 1))
    select[1::3, 0] = 1.0
    select[0::3, 1:] = select[2::3, 1:] = np.eye(n_past)
    offset = np.eye(1, n_past + 1)[0]
    w = np.concatenate([[1.0 / counts[0]], 1.0 / counts[1:]])
    v = mlp(reshape(m, (1, 3 * n_past)), [(Tensor(select), Tensor(offset))])
    rad = sqrt(tsum(mul(mul(v, v), w)))
    return add(tsum(mul(m, stats.weights())), mul(rad, c_gen))


# -- the replay step's closed forms before they read one softmax by column --

def xent(a: np.ndarray, target):
    """-sum(target * log_softmax(a)) and its adjoint for an upstream g, as
    (value, adjoint), with NumPy's row max and row sums."""
    target = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or target.shape != a.shape:
        raise ContractError("softmax_xent target must match the [n, c] logits, "
                            "got %r for %r" % (target.shape, a.shape))
    m = a.max(axis=-1, keepdims=True)
    e = np.exp(a - m)
    s = e.sum(axis=-1, keepdims=True)
    logp = a + (m + np.log(s)) * -1.0
    value = float(-(logp * target).sum())

    def adjoint(g: float) -> np.ndarray:
        d = target * -g
        d += e / s * (d.sum(axis=-1, keepdims=True) * -1.0)
        return d
    return value, adjoint


def discriminator_divergences(probs: np.ndarray, layout) -> np.ndarray:
    """The divergence estimate of every past domain from the [n, t]
    discriminator probabilities on a record laid out as `layout` says."""
    sizes, t = layout.sizes, layout.t
    if not layout.full:
        raise ContractError("every segment must be nonempty")
    if probs.shape[1] != t:
        raise ContractError(f"discriminator arity {probs.shape[1]} != t={t}")
    n_cur, cols = sizes[0], np.array(layout.ids, dtype=np.int64) - 1
    cur = probs[:n_cur]
    class_mask = layout.domain_class[:, None] == np.arange(t)
    hits = probs[class_mask][n_cur:] >= probs[n_cur:, t - 1]
    b = 0.5 * (np.bincount(layout.past_seg, hits, cols.size) / sizes[1:]
               + np.count_nonzero(cur[:, cols] < cur[:, [t - 1]], axis=0) / n_cur)
    return np.clip(2.0 * (2.0 * b - 1.0), 0.0, 2.0)


def coeff_stats_for_step(eps_hist: np.ndarray, counts, batch,
                         logits: np.ndarray, disc_logits: np.ndarray,
                         teacher_pred: np.ndarray) -> CoeffStats:
    """The coefficient statistics from the student's and the stopped
    discriminator's logits and the teacher's argmax on a record's rows,
    with the radical's `counts`."""
    layout = batch.layout
    m = disc_logits.max(axis=-1, keepdims=True)
    e = np.exp(disc_logits - m)
    dhat = discriminator_divergences(e / e.sum(axis=-1, keepdims=True), layout)
    pred = np.argmax(logits, axis=1)
    wrong, differs = np.add.reduceat(
        [pred != batch.y, pred != teacher_pred], layout.bounds[:-1], axis=1,
        dtype=np.int64) / layout.sizes
    return CoeffStats(wrong[1:], differs[1:], float(differs[0]), dhat, eps_hist,
                      counts)
