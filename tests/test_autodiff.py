import ast
import gc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dilkit
from dilkit.autodiff import (
    ContractError, Tensor, add, column, concat_cols, gradcheck, linear, mul,
    relu, reshape, rows, rowsum, softmax, softmax_xent, sqrt, tsum,
)
from dilkit.models import Classifier, Mlp, SgdConfig, sgd_step

from reference_ops import log_softmax, lse, matmul, pick, tmean


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


def test_broadcast_bias_grad():
    x = Tensor(np.ones((4, 3)))
    b = Tensor(np.zeros(3), requires_grad=True)
    loss = tsum(add(x, b))
    loss.backward()
    assert np.allclose(b.grad, [4.0, 4.0, 4.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    z = Tensor(rng.normal(size=(5, 7)) * 50)
    p = softmax(z).data
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_of_zeros_uniform():
    p = softmax(Tensor(np.zeros((1, 3)))).data
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
        s = softmax(z)
        part3 = tsum(mul(s, s))
        w = concat_cols([z, mul(z, -0.5)])
        part4 = tmean(lse(w))
        part5 = sqrt(add(tsum(mul(z, z)), 1.0))
        return add(add(add(part1, part2), add(part3, part4)), part5)

    gradcheck(fn, [a, b], rng=rng)


def test_mlp_identity_layer():
    m = Mlp([2, 2], rng=np.random.default_rng(0))
    m.layers[0][0].data[...] = np.eye(2)
    m.layers[0][1].data[...] = 0.0
    out = m.logits(np.array([[1.0, 2.0]]))
    assert np.allclose(out.data, [[1.0, 2.0]])


def test_mlp_softmax_head_uniform():
    m = Mlp([3, 3], rng=np.random.default_rng(0))
    m.layers[0][0].data[...] = 0.0
    out = softmax(m.logits(np.zeros((1, 3))))
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_mlp_hand_forward_oracle():
    # 2-2-1 ReLU net evaluated by hand:
    # h = relu([1,2] @ [[1,0],[1,1]] + [0,-3]) = relu([3,2]+[0,-3]) = [3,0]
    # out = [3,0] @ [[2],[7]] + [1] = 7
    m = Mlp([2, 2, 1], rng=np.random.default_rng(0))
    m.layers[0][0].data[...] = [[1.0, 0.0], [1.0, 1.0]]
    m.layers[0][1].data[...] = [0.0, -3.0]
    m.layers[1][0].data[...] = [[2.0], [7.0]]
    m.layers[1][1].data[...] = [1.0]
    out = m.logits(np.array([[1.0, 2.0]]))
    assert np.allclose(out.data, [[7.0]])


def test_mlp_shape_error_names_layer():
    m = Mlp([3, 4, 2], rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match="layer 0"):
        m.logits(np.zeros((1, 5)))


def test_mlp_init_bounds_and_zero_bias():
    m = Mlp([10, 20], rng=np.random.default_rng(7))
    w, b = m.layers[0]
    lim = np.sqrt(6.0 / 30.0)
    assert np.all(np.abs(w.data) <= lim)
    assert np.all(b.data == 0.0)


def test_mlp_cross_entropy_gradcheck():
    rng = np.random.default_rng(42)
    m = Mlp([4, 6, 3], rng=rng)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)

    def fn():
        return _mean_xent(m.logits(x), y)

    gradcheck(fn, m.params(), rng=rng)


def test_sgd_step_explicit():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([0.5])
    sgd_step([p], 0.1)
    assert np.allclose(p.data, [0.95])
    assert p.grad is None


def test_sgd_step_zero_grad_fixed_point():
    p = Tensor([2.0], requires_grad=True)
    p.grad = np.zeros(1)
    sgd_step([p], 0.1)
    assert np.allclose(p.data, [2.0])


def test_sgd_step_missing_grad_errors():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        sgd_step([p], 0.1)


def test_sgd_descends_quadratic():
    p = Tensor([5.0], requires_grad=True)
    losses = []
    for _ in range(3):
        loss = tsum(mul(p, p))
        losses.append(loss.item())
        loss.backward()
        sgd_step([p], 0.1)
    assert losses[0] > losses[1] > losses[2]


def test_sgd_config_validation():
    with pytest.raises(ContractError):
        SgdConfig(learning_rate=0.0, step_count=1, batch_size=1)
    with pytest.raises(ContractError):
        SgdConfig(learning_rate=0.1, step_count=0, batch_size=1)


def test_mlp_copy_is_deep_and_stopped_is_view():
    m = Mlp([2, 2], rng=np.random.default_rng(0))
    c = m.copy(frozen=True)
    s = m.stopped()
    m.layers[0][0].data[0, 0] += 10.0
    assert c.layers[0][0].data[0, 0] != m.layers[0][0].data[0, 0]
    assert s.layers[0][0].data[0, 0] == m.layers[0][0].data[0, 0]
    assert all(not p.requires_grad for p in c.params())


def test_stopped_model_builds_no_graph():
    m = Mlp([3, 4, 2], rng=np.random.default_rng(1))
    out = m.stopped().logits(np.ones((2, 3)))
    assert not out.requires_grad
    loss = tsum(out)
    loss.backward()  # harmless: nothing reachable
    assert all(p.grad is None for p in m.params())


def test_classifier_composition():
    rng = np.random.default_rng(3)
    clf = Classifier(Mlp([4, 5, 3], rng=rng),
                     Mlp([3, 2], rng=rng))
    x = rng.normal(size=(6, 4))
    p = clf.probs(x).data
    assert p.shape == (6, 2)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert clf.predict(x).shape == (6,)


def test_determinism_forward_backward():
    def run():
        rng = np.random.default_rng(11)
        m = Mlp([4, 8, 3], rng=rng)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        loss = _mean_xent(m.logits(x), y)
        loss.backward()
        return loss.item(), [p.grad.copy() for p in m.params()]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_property(n_cols, n_rows, seed):
    rng = np.random.default_rng(seed)
    p = softmax(Tensor(rng.normal(size=(n_rows, n_cols)) * 10)).data
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
            loss = _mean_xent(m.logits(x), y)
            loss.backward()
            sgd_step(m.params(), 0.1)
            del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    unary = {"tsum": tsum, "rowsum": rowsum, "softmax": softmax, "lse": lse,
             "log_softmax": log_softmax}
    return [a], lambda: unary[op](a)


OPS = ("add", "mul", "matmul", "linear", "relu", "sqrt", "tsum", "rowsum",
       "reshape", "concat_cols", "softmax", "softmax_xent", "lse",
       "log_softmax", "pick", "rows", "column")


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 5), seed=st.integers(0, 2 ** 31 - 1))
def test_gradcheck_every_op_random_shapes(op, n, m, seed):
    rng = np.random.default_rng(seed)
    inputs, apply = _op_case(op, rng, n, m)
    weights = rng.normal(size=apply().data.shape)  # a generic linear readout
    gradcheck(lambda: tsum(mul(apply(), weights)), inputs)


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
        target += rng.random(n)[:, None] * softmax(Tensor(rng.normal(size=(n, k)))).data

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


def test_linear_rejects_mismatched_shapes():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="linear"):
        linear(x, np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(ContractError, match="linear"):
        linear(x, np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ContractError, match="linear"):
        linear(np.zeros(3), np.zeros((3, 2)), np.zeros(2))


def test_every_public_op_has_a_library_caller():
    """The core keeps only the ops the library calls: each public function
    of dilkit.autodiff, apart from the finite-difference oracle gradcheck,
    is imported by another module of the package, and Tensor carries no
    operator sugar (no dunder method but __init__ and __repr__)."""
    pkg = Path(dilkit.__file__).parent
    core = ast.parse((pkg / "autodiff.py").read_text())
    public = {node.name for node in core.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")} - {"gradcheck"}
    imported = set()
    for path in pkg.rglob("*.py"):
        if path.name == "autodiff.py" and path.parent == pkg:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[-1] == "autodiff"):
                imported.update(alias.name for alias in node.names)
    assert public, "no public functions found in dilkit.autodiff"
    assert not public - imported, sorted(public - imported)
    dunders = {name for name, value in vars(Tensor).items()
               if name.startswith("__") and name.endswith("__")
               and callable(value)}
    assert dunders == {"__init__", "__repr__"}, sorted(dunders)
