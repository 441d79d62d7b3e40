import ast
import copy
import gc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dilkit
from dilkit.autodiff import (
    ContractError, Tensor, _row_reduce, mlp_backward, mlp_buffers, mlp_forward,
    row_sum, softmax,
)
from dilkit.models import Classifier, Mlp, SgdConfig, sgd_step

import reference_ops
from gradcheck import gradcheck
from reference_ops import (
    add, column, concat_cols, leaves, linear, log_softmax, lse, matmul, mlp,
    mlp_chain, mul, pick, relu, reshape, rows, rowsum, softmax_xent, sqrt,
    tmean, tsum,
)


def _mean_xent(logits, y):
    """Mean cross-entropy toward labels y, as classification_loss builds it."""
    n, k = logits.data.shape
    return softmax_xent(logits, np.eye(k)[y] / n)


def test_sum_of_squares_grad():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = tsum(mul(w, w))
    loss.backward()
    assert np.allclose(w.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_nonscalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        mul(w, w).backward()


def test_grad_accumulates_across_uses():
    w = Tensor([3.0], requires_grad=True)
    loss = add(tsum(mul(w, 2.0)), tsum(mul(w, 5.0)))
    loss.backward()
    assert np.allclose(w.grad, [7.0])


def test_first_gradient_is_copied_not_aliased():
    """_unbroadcast hands the upstream gradient itself to both parents of a
    same-shape add: each parent's .grad is its own array, and a tensor used
    twice still accumulates both uses."""
    rng = np.random.default_rng(1)
    readout = rng.normal(size=(3, 4))
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    tsum(mul(add(x, x), readout)).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * readout)
    for op, want in ((add, lambda a, b: (readout, readout)),
                     (mul, lambda a, b: (readout * b, readout * a))):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = op(a, b)
        tsum(mul(out, readout)).backward()
        want_a, want_b = want(a.data, b.data)
        np.testing.assert_array_equal(a.grad, want_a)
        np.testing.assert_array_equal(b.grad, want_b)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad)
        assert not np.shares_memory(b.grad, out.grad)


def test_broadcast_bias_grad():
    x = Tensor(np.ones((4, 3)))
    b = Tensor(np.zeros(3), requires_grad=True)
    loss = tsum(add(x, b))
    loss.backward()
    assert np.allclose(b.grad, [4.0, 4.0, 4.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = softmax(rng.normal(size=(5, 7)) * 50)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_of_zeros_uniform():
    p = softmax(np.zeros((1, 3)))
    assert np.allclose(p, 1.0 / 3.0)


def test_lse_stable_on_huge_logits():
    z = Tensor(np.array([[1000.0, 1000.0]]))
    v = lse(z).data
    assert np.allclose(v, 1000.0 + np.log(2.0))
    assert np.isfinite(log_softmax(z).data).all()


def test_softmax_xent_stable_on_huge_logits():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(4, 5)) * 1e3, requires_grad=True)
    loss = softmax_xent(a, np.eye(5)[[0, 1, 2, 3]] * 0.25)
    loss.backward()
    assert np.isfinite(loss.item())
    assert np.isfinite(a.grad).all()


def test_softmax_xent_rejects_mismatched_target():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(ContractError, match="softmax_xent"):
        softmax_xent(a, np.zeros((3, 5)))
    with pytest.raises(ContractError, match="softmax_xent"):
        softmax_xent(a, np.zeros(4))


@pytest.mark.parametrize("trial", range(20))
def test_gradcheck_composite_ops(trial):
    rng = np.random.default_rng(100 + trial)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = rng.integers(0, 3, size=4)
    ridx = rng.integers(0, 4, size=6)

    def fn():
        z = matmul(a, b)
        z = add(z, 0.3)
        q = log_softmax(z)
        part1 = tmean(pick(q, idx))
        r = rows(relu(z), ridx)
        part2 = tmean(rowsum(mul(r, r)))
        s = reference_ops.softmax(z)
        part3 = tsum(mul(s, s))
        w = concat_cols([z, mul(z, -0.5)])
        part4 = tmean(lse(w))
        part5 = sqrt(add(tsum(mul(z, z)), 1.0))
        return add(add(add(part1, part2), add(part3, part4)), part5)

    gradcheck(fn, [a, b], rng=rng)


def test_mlp_identity_layer():
    m = Mlp([2, 2], rng=np.random.default_rng(0))
    m.layers[0][0][...] = np.eye(2)
    m.layers[0][1][...] = 0.0
    out = m.logits(np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[1.0, 2.0]])


def test_mlp_softmax_head_uniform():
    m = Mlp([3, 3], rng=np.random.default_rng(0))
    m.layers[0][0][...] = 0.0
    out = softmax(m.logits(np.zeros((1, 3))))
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]])


def test_mlp_hand_forward_oracle():
    # 2-2-1 ReLU net evaluated by hand:
    # h = relu([1,2] @ [[1,0],[1,1]] + [0,-3]) = relu([3,2]+[0,-3]) = [3,0]
    # out = [3,0] @ [[2],[7]] + [1] = 7
    m = Mlp([2, 2, 1], rng=np.random.default_rng(0))
    m.layers[0][0][...] = [[1.0, 0.0], [1.0, 1.0]]
    m.layers[0][1][...] = [0.0, -3.0]
    m.layers[1][0][...] = [[2.0], [7.0]]
    m.layers[1][1][...] = [1.0]
    out = m.logits(np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[7.0]])


def test_mlp_shape_error_names_layer():
    m = Mlp([3, 4, 2], rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match="layer 0"):
        m.logits(np.zeros((1, 5)))


def test_mlp_init_bounds_and_zero_bias():
    m = Mlp([10, 20], rng=np.random.default_rng(7))
    w, b = m.layers[0]
    lim = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(w) <= lim)
    assert np.all(b == 0.0)


def test_mlp_cross_entropy_gradcheck():
    rng = np.random.default_rng(42)
    m = Mlp([4, 6, 3], rng=rng)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)

    def fn():
        return _mean_xent(mlp(x, m), y)

    gradcheck(fn, leaves(m), rng=rng)


def test_sgd_step_explicit():
    p, g = np.array([1.0]), np.array([0.5])
    sgd_step([(p, g)], 0.1)
    assert np.allclose(p, [0.95])
    net = Mlp([1, 1], rng=np.random.default_rng(0))
    before = net.flat.copy()
    net.grad = np.array([0.5, -1.0])
    sgd_step([net], 0.1)
    assert np.allclose(net.flat, before - [0.05, -0.1])
    assert net.grad is None


def test_sgd_step_zero_grad_fixed_point():
    p = np.array([2.0])
    sgd_step([(p, np.zeros(1))], 0.1)
    assert np.allclose(p, [2.0])


def _wide(rng, n):
    """n normal draws scaled by 10**[-310, 300): subnormal to huge."""
    return rng.normal(size=n) * 10.0 ** rng.integers(-310, 300, size=n)


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.integers(1, 300), min_size=2, max_size=4),
       seed=st.integers(0, 2 ** 31 - 1))
@pytest.mark.parametrize("learning_rate", [0.1, 0.2, 0.7, 1e-3, 3.0])
def test_sgd_step_matches_reference_bitwise(learning_rate, sizes, seed):
    """Scaling a network's one gradient array in place, then subtracting
    it from its one parameter array, gives each parameter the bits
    p - lr * grad gave it through a temporary, over magnitudes from
    subnormal to huge and with signed zeros, at layer sizes 1-300 (so most
    views start at offsets no vector width divides); the network drops its
    gradient, as the reference clears each parameter's."""
    rng = np.random.default_rng(seed)
    net = Mlp(sizes, rng=rng)
    net.flat[...] = _wide(rng, net.flat.size)
    grad = _wide(rng, net.flat.size)
    zeros = rng.random(net.flat.size) < 0.05
    net.flat[zeros], grad[zeros] = -0.0, 0.0
    want = [Tensor(p.data.copy(), requires_grad=True) for p in leaves(net)]
    for r, g in zip(want, [g for pair in net.views(grad) for g in pair]):
        r.grad = g.copy()
    net.grad = grad
    sgd_step([net], learning_rate)
    reference_ops.sgd_step(want, learning_rate)
    assert net.grad is None and all(r.grad is None for r in want)
    for p, r in zip(leaves(net), want):
        assert p.data.tobytes() == r.data.tobytes()


def test_sgd_step_missing_grad_errors():
    net = Mlp([2, 3], rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match=r"^sgd_step: Mlp\(\[2, 3\]\) has no gradient$"):
        sgd_step([net], 0.1)
    with pytest.raises(ContractError, match="no gradient"):
        sgd_step([(np.ones(2), None)], 0.1)


def test_sgd_descends_quadratic():
    p = Tensor([5.0], requires_grad=True)
    losses = []
    for _ in range(3):
        loss = tsum(mul(p, p))
        losses.append(loss.item())
        loss.backward()
        sgd_step([(p.data, p.grad)], 0.1)
        p.grad = None
    assert losses[0] > losses[1] > losses[2]


def test_sgd_config_validation():
    with pytest.raises(ContractError):
        SgdConfig(learning_rate=0.0, step_count=1, batch_size=1)
    with pytest.raises(ContractError):
        SgdConfig(learning_rate=0.1, step_count=0, batch_size=1)


def test_mlp_stopped_is_view():
    m = Mlp([2, 2], rng=np.random.default_rng(0))
    s = m.stopped()
    m.layers[0][0][0, 0] += 10.0
    assert s.layers[0][0][0, 0] == m.layers[0][0][0, 0]


def test_deep_copy_keeps_views_of_its_own_array():
    """A deep copy's layers are views of its own array, so an update of
    the copy's array moves its forward and leaves the original's alone; a
    network copied with its stopped view still shares its array with
    it."""
    m = Mlp([3, 4, 2], rng=np.random.default_rng(0))
    net, view = copy.deepcopy((m, m.stopped()))
    x = np.ones((2, 3))
    before = m.logits(x)
    net.flat += 1.0
    assert all(np.shares_memory(w, net.flat) and np.shares_memory(b, net.flat)
               for w, b in net.layers)
    assert view.flat is net.flat and not view.takes_grad and net.takes_grad
    assert not np.array_equal(net.logits(x), before)
    np.testing.assert_array_equal(m.logits(x), before)


def test_stopped_model_builds_no_graph():
    m = Mlp([3, 4, 2], rng=np.random.default_rng(1))
    out = mlp(np.ones((2, 3)), m.stopped())
    assert not out.requires_grad
    loss = tsum(out)
    loss.backward()  # harmless: nothing reachable
    assert all(p.grad is None for p in leaves(m))


def test_classifier_composition():
    rng = np.random.default_rng(3)
    clf = Classifier(Mlp([4, 5, 3], rng=rng),
                     Mlp([3, 2], rng=rng))
    x = rng.normal(size=(6, 4))
    p = softmax(clf.logits(x))
    assert p.shape == (6, 2)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert clf.predict(x).shape == (6,)


def test_determinism_forward_backward():
    def run():
        rng = np.random.default_rng(11)
        m = Mlp([4, 8, 3], rng=rng)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        loss = _mean_xent(mlp(x, m), y)
        loss.backward()
        return loss.item(), [p.grad.copy() for p in leaves(m)]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_property(n_cols, n_rows, seed):
    rng = np.random.default_rng(seed)
    p = softmax(rng.normal(size=(n_rows, n_cols)) * 10)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_dropped_graph_is_freed_without_cyclic_gc():
    """No closure refers to its own output, so a graph holds no reference
    cycle and a dropped loss is freed by reference counting alone."""
    rng = np.random.default_rng(5)
    m = Mlp([4, 6, 3], rng=rng)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            loss = _mean_xent(mlp(x, m), y)
            loss.backward()
            reference_ops.sgd_step(leaves(m), 0.1)
            del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- backward order: creation sequence against the depth-first walk ------

def _random_dag(rng, n_leaves, n_ops, max_consumers):
    """Leaves, then add/mul/softmax nodes over [3, 2] values whose inputs
    are drawn from the nodes with fewer than `max_consumers` consumers so
    far (add(x, x) counts twice; a new leaf when every node is taken);
    every node no op consumed joins one sum, and the loss is its total."""
    nodes, uses = [], []

    def leaf():
        nodes.append(Tensor(rng.normal(size=(3, 2)), requires_grad=True))
        uses.append(0)

    for _ in range(n_leaves):
        leaf()

    def take():
        free = [k for k, u in enumerate(uses) if u < max_consumers]
        if not free:
            leaf()
            free = [len(nodes) - 1]
        k = free[rng.integers(len(free))]
        uses[k] += 1
        return nodes[k]

    for _ in range(n_ops):
        kind = rng.integers(3)
        if kind == 2:
            out = reference_ops.softmax(take())
        else:
            a = take()
            out = (add if kind == 0 else mul)(a, take())
        nodes.append(out)
        uses.append(0)
    sinks = [node for node, u in zip(nodes, uses) if u == 0]
    total = sinks[0]
    for node in sinks[1:]:
        total = add(total, node)
    return nodes, tsum(total)


def _dag_grads(walk, seed, *shape):
    """The values and the gradients `walk` leaves on every node of one
    freshly built random DAG."""
    nodes, loss = _random_dag(np.random.default_rng(seed), *shape)
    walk(loss)
    return [node.data for node in nodes], [node.grad for node in nodes]


@settings(max_examples=200, deadline=None)
@given(n_leaves=st.integers(1, 3), n_ops=st.integers(1, 14),
       max_consumers=st.integers(1, 4), seed=st.integers(0, 2 ** 31 - 1))
# values reach 1.7e228 and gradients 4.2e230: their product overflows
@example(n_leaves=1, n_ops=11, max_consumers=2, seed=4868873)
def test_backward_matches_depth_first_reference(n_leaves, n_ops,
                                                max_consumers, seed):
    """Running the closures in reverse creation order gives the two-phase
    DFS's gradients on every node of a random DAG: bitwise when no node has
    more than two consumers (two addends commute exactly), otherwise within
    1e-12 relative to the graph's scale, the largest gradient times the
    largest value (a softmax's gradients cancel to rounding noise).  The
    error is divided by the largest value rather than the scale formed, so
    that no product overflows."""
    shape = (n_leaves, n_ops, max_consumers)
    _, got = _dag_grads(Tensor.backward, seed, *shape)
    values, want = _dag_grads(reference_ops.backward, seed, *shape)
    if max_consumers > 2:
        grad_scale = max(np.abs(w).max() for w in want if w is not None)
        value_scale = max(1.0, max(np.abs(v).max() for v in values))
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is None:
            continue
        if max_consumers <= 2:
            assert np.array_equal(g, w)
        else:
            assert np.abs(g - w).max() / value_scale <= 1e-12 * grad_scale


def test_backward_on_a_leaf():
    """A scalar leaf is its own loss: its gradient is one, with or without
    requires_grad, as under the depth-first walk."""
    for requires_grad in (True, False):
        for walk in (Tensor.backward, reference_ops.backward):
            leaf = Tensor(2.5, requires_grad=requires_grad)
            walk(leaf)
            assert leaf.grad == 1.0


# -- random-shape gradient checks, one per op ----------------------------

def _away_from_zero(rng, shape):
    """Values with |v| >= 0.1, so relu's kink is beyond the FD step."""
    return rng.choice([-1.0, 1.0], size=shape) * (0.1 + np.abs(rng.normal(size=shape)))


def _broadcast_shape(rng, n, m):
    return [(n, m), (m,), (1, m), (n, 1), ()][rng.integers(0, 5)]


def _op_case(op, rng, n, m):
    """The op's differentiable inputs and a thunk applying it to them."""
    a = Tensor(rng.normal(size=(n, m)), requires_grad=True)
    if op in ("add", "mul"):
        b = Tensor(rng.normal(size=_broadcast_shape(rng, n, m)), requires_grad=True)
        fn = add if op == "add" else mul
        return [a, b], lambda: fn(a, b)
    if op in ("matmul", "linear"):
        o = int(rng.integers(1, 5))
        w = Tensor(rng.normal(size=(m, o)), requires_grad=True)
        if op == "matmul":
            return [a, w], lambda: matmul(a, w)
        b = Tensor(rng.normal(size=o), requires_grad=True)
        return [a, w, b], lambda: linear(a, w, b)
    if op == "softmax_xent":
        target = rng.random((n, m)) * (rng.random((n, 1)) < 0.7)
        return [a], lambda: softmax_xent(a, target)
    if op == "mlp":
        sizes = [m] + [int(v) for v in rng.integers(1, 5, rng.integers(1, 4))]
        layers = [(Tensor(rng.normal(size=(i, o)), requires_grad=True),
                   Tensor(rng.normal(size=o), requires_grad=True))
                  for i, o in zip(sizes, sizes[1:])]
        return ([a] + [p for pair in layers for p in pair],
                lambda: mlp(a, layers))
    if op == "relu":
        a.data[...] = _away_from_zero(rng, (n, m))
        return [a], lambda: relu(a)
    if op == "sqrt":
        a.data[...] = 0.5 + rng.random((n, m))
        return [a], lambda: sqrt(a)
    if op == "concat_cols":
        b = Tensor(rng.normal(size=(n, int(rng.integers(1, 4)))), requires_grad=True)
        return [a, b], lambda: concat_cols([a, b, a])
    if op in ("pick", "rows"):
        if op == "pick":
            idx = rng.integers(0, m, size=n)
            return [a], lambda: pick(a, idx)
        idx = rng.integers(0, n, size=n + 3)  # duplicates guaranteed
        return [a], lambda: rows(a, idx)
    if op == "column":
        j = int(rng.integers(0, m))
        return [a], lambda: column(a, j)
    if op == "reshape":
        return [a], lambda: reshape(a, (m, n))
    if op in ("rowsum_1d", "rowsum_3d"):
        a = Tensor(rng.normal(size=(m,) if op == "rowsum_1d" else (n, 2, m)),
                   requires_grad=True)
        return [a], lambda: rowsum(a)
    unary = {"tsum": tsum, "rowsum": rowsum, "softmax": reference_ops.softmax,
             "lse": lse, "log_softmax": log_softmax}
    return [a], lambda: unary[op](a)


OPS = ("add", "mul", "matmul", "linear", "mlp", "relu", "sqrt", "tsum", "rowsum",
       "rowsum_1d", "rowsum_3d", "reshape", "concat_cols", "softmax",
       "softmax_xent", "lse", "log_softmax", "pick", "rows", "column")


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), seed=st.integers(0, 2 ** 31 - 1))
def test_gradcheck_every_op_random_shapes(op, n, m, seed):
    rng = np.random.default_rng(seed)
    inputs, apply = _op_case(op, rng, n, m)
    weights = rng.normal(size=apply().data.shape)  # a generic linear readout
    gradcheck(lambda: tsum(mul(apply(), weights)), inputs)


def test_rowsum_refuses_a_0d_tensor():
    """rowsum sums the last axis; a scalar has none."""
    with pytest.raises(ContractError, match="rowsum"):
        rowsum(Tensor(2.0, requires_grad=True))


# -- fused ops against the compositions they replace ---------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 5), soft=st.booleans(),
       scale=st.sampled_from([1.0, -0.37, 2.5, 1e-3]),
       seed=st.integers(0, 2 ** 31 - 1))
def test_softmax_xent_matches_composition(n, k, soft, scale, seed):
    """Same value within 1e-12 and bitwise-equal gradients as
    -sum(log_softmax(a) * target), and, for one-hot rows, as the weighted
    pick of log_softmax that the per-row class losses used."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, k)) * 3.0
    y = rng.integers(0, k, size=n)
    w = rng.random(n) * (rng.random(n) < 0.7)  # some rows weigh nothing
    target = np.zeros((n, k))
    target[np.arange(n), y] = w
    if soft:
        target += rng.random(n)[:, None] * softmax(rng.normal(size=(n, k)))

    def run(build):
        a = Tensor(logits.copy(), requires_grad=True)
        loss = mul(build(a), scale)
        loss.backward()
        return loss.item(), a.grad

    value, grad = run(lambda a: softmax_xent(a, target))
    compositions = [lambda a: mul(tsum(mul(log_softmax(a), target)), -1.0)]
    if not soft:
        compositions.append(
            lambda a: mul(tsum(mul(pick(log_softmax(a), y), w)), -1.0))
    for build in compositions:
        ref_value, ref_grad = run(build)
        assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
        assert np.array_equal(grad, ref_grad)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), i=st.integers(1, 5), o=st.integers(1, 5),
       seed=st.integers(0, 2 ** 31 - 1))
def test_linear_matches_composition(n, i, o, seed):
    rng = np.random.default_rng(seed)
    x0, w0, b0 = (rng.normal(size=(n, i)), rng.normal(size=(i, o)),
                  rng.normal(size=o))
    readout = rng.normal(size=(n, o))  # an upstream gradient that is not 1

    def run(build):
        x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (x0, w0, b0))
        out = build(x, w, b)
        tsum(mul(out, readout)).backward()
        return out.data, [x.grad, w.grad, b.grad]

    value, grads = run(linear)
    ref_value, ref_grads = run(lambda x, w, b: add(matmul(x, w), b))
    assert np.allclose(value, ref_value, rtol=0, atol=1e-12)
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


def _net(rng, sizes, requires_grad=True):
    return [(Tensor(rng.normal(size=(i, o)), requires_grad=requires_grad),
             Tensor(rng.normal(size=o), requires_grad=requires_grad))
            for i, o in zip(sizes, sizes[1:])]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), depth=st.integers(1, 3), x_grad=st.booleans(),
       stopped_head=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
def test_mlp_matches_composition(n, depth, x_grad, stopped_head, seed):
    """One mlp node gives the composed linear/relu chain's output and, for
    the input and every parameter, bitwise-equal gradients.  The first
    network's output feeds two consumers, a second network and a third
    whose parameters are stopped (as the predictor and the stopped
    discriminator read one embedding), so its gradient is accumulated."""
    rng = np.random.default_rng(seed)
    widths = [int(v) for v in rng.integers(1, 6, depth + 1)]
    x0 = rng.normal(size=(n, widths[0]))
    nets0 = [_net(rng, widths), _net(rng, [widths[-1], 3, 2]),
             _net(rng, [widths[-1], 4, 3], requires_grad=not stopped_head)]
    readouts = [rng.normal(size=(n, 2)), rng.normal(size=(n, 3))]

    def run(forward):
        x = Tensor(x0.copy(), requires_grad=x_grad)
        nets = [[(Tensor(w.data.copy(), requires_grad=w.requires_grad),
                  Tensor(b.data.copy(), requires_grad=b.requires_grad))
                 for w, b in net] for net in nets0]
        emb = forward(x, nets[0])
        outs = [forward(emb, nets[1]), forward(emb, nets[2])]
        add(tsum(mul(outs[0], readouts[0])),
            tsum(mul(outs[1], readouts[1]))).backward()
        params = [p for net in nets for pair in net for p in pair]
        return ([emb.data] + [o.data for o in outs],
                [x.grad] + [p.grad for p in params])

    values, grads = run(mlp)
    ref_values, ref_grads = run(mlp_chain)
    assert all(np.array_equal(v, r) for v, r in zip(values, ref_values))
    for g, r in zip(grads, ref_grads):
        assert (g is None) == (r is None)
        assert g is None or np.array_equal(g, r)


def _copy_net(net, requires_grad):
    return [(Tensor(w.copy(), requires_grad=requires_grad),
             Tensor(b.copy(), requires_grad=requires_grad))
            for w, b in net.layers]


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 300),
       widths=st.lists(st.integers(1, 300), min_size=2, max_size=4),
       input_grad=st.booleans(), stopped=st.booleans(),
       seed=st.integers(0, 2 ** 31 - 1))
def test_buffered_mlp_matches_allocating_reference(rows, widths, input_grad,
                                                   stopped, seed):
    """mlp_forward and mlp_backward writing into buffers built once give
    the frozen allocating forms' layer outputs, parameter gradients and
    input gradient bit for bit, on two calls with different inputs
    through the same buffers and gradient array (filled with NaN first, so
    a value either call leaves unwritten would show); each result is its
    buffer, and each parameter's gradient its view of the gradient array.
    With `stopped` no parameter takes a gradient, as in a stopped view."""
    rng = np.random.default_rng(seed)
    net = Mlp(widths, rng=rng)
    net.flat[...] = rng.normal(size=net.flat.size)
    buffers = mlp_buffers(net.layers, rows)
    grad = np.full_like(net.flat, np.nan)
    views = None if stopped else net.views(grad)
    for buf in buffers:
        for a in buf:
            if a is not None and a.dtype == np.float64:
                a[...] = np.nan
    for _ in range(2):
        x = rng.normal(size=(rows, widths[0]))
        g = rng.normal(size=(rows, widths[-1]))
        ref = _copy_net(net, not stopped)
        want_hs = reference_ops.mlp_forward(x, ref)
        want_in = reference_ops.mlp_backward(want_hs, ref, g.copy(),
                                             input_grad)
        hs = mlp_forward(x, net.layers, buffers)
        got_in = mlp_backward(hs, net.layers, g.copy(), input_grad, views,
                              buffers)
        for h, want, buf in zip(hs[1:], want_hs[1:], buffers):
            assert h is buf.out and h.tobytes() == want.tobytes()
        assert (got_in is None) == (want_in is None)
        if want_in is not None:
            assert np.shares_memory(got_in, buffers[0].grad_in)
            assert got_in.tobytes() == want_in.tobytes()
        for (gw, gb), (w, b) in zip(views or [], ref):
            assert gw.tobytes() == w.grad.tobytes()
            assert gb.tobytes() == b.grad.tobytes()
        assert stopped == all(p.grad is None for pair in ref for p in pair)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 40),
       widths=st.lists(st.integers(1, 300), min_size=2, max_size=4),
       seed=st.integers(0, 2 ** 31 - 1))
def test_network_views_match_contiguous_copies(rows, widths, seed):
    """Mlp.forward and Mlp.backward on the views of one parameter array,
    most at offsets no vector width divides, give the bits the same passes
    give on contiguous copies of each weight and bias, gradients included
    (x @ w, g @ w.T and h.T @ g alike)."""
    rng = np.random.default_rng(seed)
    net = Mlp(widths, rng=rng)
    net.flat[...] = rng.normal(size=net.flat.size)
    copies = [(w.copy(), b.copy()) for w, b in net.layers]
    fresh = [(np.empty_like(w), np.empty_like(b)) for w, b in copies]
    x = rng.normal(size=(rows, widths[0]))
    g = rng.normal(size=(rows, widths[-1]))
    acts = net.forward(x)
    got_in = net.backward(acts, g.copy(), True)
    want_acts = mlp_forward(x, copies)
    want_in = mlp_backward(want_acts, copies, g.copy(), True, fresh)
    for got, want in zip(acts, want_acts):
        assert got.tobytes() == want.tobytes()
    assert got_in.tobytes() == want_in.tobytes()
    for (gw, gb), (w, b) in zip(net.views(net.grad), fresh):
        assert gw.tobytes() == w.tobytes() and gb.tobytes() == b.tobytes()


def test_second_backward_before_the_update_is_refused():
    """A network whose gradient waits for its update refuses another
    backward, naming itself, buffered or not, and leaves that gradient as
    it was; once sgd_step has applied it, the next backward runs.  A
    stopped view takes no gradient, so it backpropagates any number of
    times."""
    rng = np.random.default_rng(7)
    for rows in (None, 4):
        net = Mlp([5, 6, 3], rng=rng)
        net.set_buffers(rows)
        x, g = rng.normal(size=(4, 5)), rng.normal(size=(4, 3))
        net.backward(net.forward(x), g.copy(), False)
        held = net.grad.copy()
        with pytest.raises(ContractError,
                           match=r"^Mlp\(\[5, 6, 3\]\): backward again before sgd_step"):
            net.backward(net.forward(x), g.copy(), False)
        assert net.grad.tobytes() == held.tobytes()
        sgd_step([net], 0.1)
        net.backward(net.forward(x), g.copy(), False)
        assert net.grad is not None
        stopped = net.stopped()
        for _ in range(2):
            stopped.backward(stopped.forward(x), g.copy(), True)
        assert stopped.grad is None


def test_buffered_forward_refuses_another_row_count():
    net = Mlp([3, 2], rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match="^Mlp buffers hold 4 rows, got 5$"):
        mlp_forward(np.zeros((5, 3)), net.layers, mlp_buffers(net.layers, 4))


def test_linear_rejects_mismatched_shapes():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="linear"):
        linear(x, np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(ContractError, match="linear"):
        linear(x, np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ContractError, match="linear"):
        linear(np.zeros(3), np.zeros((3, 2)), np.zeros(2))


def test_every_public_op_has_a_library_caller():
    """The core keeps only what the library calls and builds no graph: each
    public function of dilkit.autodiff is imported by another module of the
    package, none of them returns a Tensor, Tensor carries no operator
    sugar (no dunder method but __init__ and __repr__), and no module of the
    package calls a zero-argument .backward(), the graph walk (Mlp.backward
    always takes arguments)."""
    pkg = Path(dilkit.__file__).parent
    core = ast.parse((pkg / "autodiff.py").read_text())
    public = {node.name: node for node in core.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    assert public, "no public function found in dilkit.autodiff"
    returning_tensor = [name for name, node in public.items()
                        if node.returns is not None
                        and "Tensor" in ast.unparse(node.returns)]
    assert returning_tensor == [], returning_tensor
    imported, walks = set(), []
    for path in pkg.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[-1] == "autodiff"):
                imported.update(alias.name for alias in node.names)
            if (isinstance(node, ast.Call) and not node.args
                    and not node.keywords
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "backward"):
                walks.append(f"{path.name}:{node.lineno}")
    assert not set(public) - imported, sorted(set(public) - imported)
    assert walks == [], walks
    dunders = {name for name, value in vars(Tensor).items()
               if name.startswith("__") and name.endswith("__")
               and callable(value)}
    assert dunders == {"__init__", "__repr__"}, sorted(dunders)


def test_no_library_module_but_autodiff_constructs_a_tensor():
    """Tensor is the test-side graph's node and leaf: no module of the
    package but dilkit.autodiff calls it, by name or as an attribute, and
    none imports it."""
    pkg = Path(dilkit.__file__).parent
    found = []
    for path in sorted(pkg.rglob("*.py")):
        if path == pkg / "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            called = (isinstance(node, ast.Call)
                      and (getattr(node.func, "id", None) == "Tensor"
                           or getattr(node.func, "attr", None) == "Tensor"))
            imported = (isinstance(node, ast.ImportFrom)
                        and any(a.name == "Tensor" for a in node.names))
            if called or imported:
                found.append(f"{path.relative_to(pkg)}:{node.lineno}")
    assert found == [], found


def test_logits_and_embed_are_arrays_built_without_a_tensor(monkeypatch):
    """Mlp.logits, Classifier.embed and Classifier.logits return plain
    arrays, bitwise the last of Mlp.forward's (the classifier's through its
    encoder, then its predictor), and construct no Tensor; predict is their
    argmax."""
    rng = np.random.default_rng(8)
    clf = Classifier(Mlp([4, 6, 3], rng=rng), Mlp([3, 5, 2], rng=rng))
    x = rng.normal(size=(7, 4))
    want_embedding = clf.encoder.forward(x)[-1].copy()
    want_logits = clf.predictor.forward(want_embedding)[-1].copy()
    made = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    got = [clf.encoder.logits(x), clf.embed(x),
           clf.predictor.logits(want_embedding), clf.logits(x)]
    predicted = clf.predict(x)
    assert made == []
    for out, want in zip(got, [want_embedding] * 2 + [want_logits] * 2):
        assert type(out) is np.ndarray
        assert out.tobytes() == want.tobytes()
    np.testing.assert_array_equal(predicted, np.argmax(want_logits, axis=1))


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _wide_range_array(seed, rows, cols, special):
    """Normal draws scaled by 10**[-e, e], e 4 or 300, a 1-D row when
    rows = 1; with `special` about a third of the entries are signed zeros,
    NaN and infinities."""
    rng = np.random.default_rng(seed)
    shape = (rows, cols) if rows > 1 else (cols,)
    e = rng.choice([4, 300])
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-e, e, size=shape)
    if special:
        hit = rng.random(shape) < 0.35
        a[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return a


def _bitwise(got, want):
    return (got.shape == want.shape
            and np.array_equal(np.isnan(got), np.isnan(want))
            and np.where(np.isnan(got), 0.0, got).tobytes()
            == np.where(np.isnan(want), 0.0, want).tobytes())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.integers(1, 40),
       st.booleans())
def test_row_sum_is_numpys_row_sum_bitwise(seed, cols, rows, special):
    """row_sum, one column at a time below 8 columns, equals NumPy's
    sum(axis=-1, keepdims=True) bit for bit, signed zeros and infinities
    included, on 1-D and 2-D arrays."""
    a = _wide_range_array(seed, rows, cols, special)
    with np.errstate(all="ignore"):
        assert _bitwise(row_sum(a), a.sum(axis=-1, keepdims=True))


# row 15 holds 0.0 and -0.0 as its largest entries: NumPy's max gives -0.0
@example(seed=1627, cols=16, rows=29, special=True)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(1, 40),
       st.booleans())
def test_row_max_is_numpys_row_max_bitwise(seed, cols, rows, special):
    """The softmax's row maximum, one column at a time below 8 columns,
    equals NumPy's max(axis=-1, keepdims=True) bit for bit, with signed
    zeros, NaN and infinities."""
    a = _wide_range_array(seed, rows, cols, special)
    assert _bitwise(_row_reduce(np.maximum, a)[..., None],
                    a.max(axis=-1, keepdims=True))


def test_row_sum_keeps_numpys_sum_from_eight_columns():
    """From 8 columns NumPy's pairwise sum groups a row's entries otherwise
    than adding them in order; row_sum then is NumPy's sum."""
    a = np.random.default_rng(0).normal(size=(200, 9)) * 10.0 ** np.arange(9)
    in_order = a[:, :1] + 0.0
    for j in range(1, 9):
        in_order += a[:, j:j + 1]
    assert not np.array_equal(in_order, a.sum(axis=-1, keepdims=True))
    assert row_sum(a).tobytes() == a.sum(axis=-1, keepdims=True).tobytes()
