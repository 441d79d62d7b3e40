"""The per-domain StepLayout against the per-step forms frozen in
reference_step.py, byte for byte: V_l, both V_d calls (the discriminator
update and the encoder term) and the coefficient statistics as the trainer
calls them, the closed-form logits gradients against the per-step nodes'
backward at the same upstream scalar, on every replay step of a domain, for UDIL and every triple
preset; zero-weight empty segments and the contracts' messages; the
row-wise property the teacher's one pass over the domain's rows relies
on; and that each replay domain builds its step layout once."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_step as ref
from dilkit import losses, trainer
from dilkit.autodiff import ContractError, Tensor, softmax, softmax_parts
from dilkit.coeffs import TRIPLE_PRESETS, from_preset
from dilkit.datagen import LabeledSet, gen_hd_balls
from dilkit.losses import HyperParams, StepBatch, StepLayout, v_d, v_l
from dilkit.membank import MemoryBank
from dilkit.models import ArchConfig, Classifier, Mlp, SgdConfig
from dilkit.trainer import TrainerConfig, TrainState, coeff_stats_for_step
from reference_ops import mul, stopped

IN_DIM, EMBED, N_CLASSES = 4, 5, 3
STATS = ("eps_replay", "eps_intra", "eps_cross", "dhat", "eps_hist")


def _classifier(rng):
    return Classifier(Mlp([IN_DIM, 6, EMBED], rng=rng),
                      Mlp([EMBED, N_CLASSES], rng=rng))


def _set(rng, n, domain):
    return LabeledSet(rng.normal(size=(n, IN_DIM)) * 2.0,
                      rng.integers(0, N_CLASSES, n), domain)


def _at_leaf(fn, data, g):
    """The bytes of a per-step node's value and of its gradient at a fresh
    leaf holding `data`, backpropagated from g times it: each loss here is a
    cross-entropy of its logits, so these two carry every gradient a network
    would receive through it."""
    leaf = Tensor(data.copy(), requires_grad=True)
    loss = fn(leaf)
    mul(loss, g).backward()
    return loss.data.tobytes(), None if leaf.grad is None else leaf.grad.tobytes()


def _closed(result):
    """The same bytes of a closed form's (value, logits gradient), or of
    the constant 0 for None, as the per-step form's Tensor(0.0) gives."""
    if result is None:
        return np.float64(0.0).tobytes(), None
    value, grad = result
    return np.float64(value).tobytes(), grad.tobytes()


def _same_stats(got, want):
    for name in STATS:
        assert np.asarray(getattr(got, name)).tobytes() \
            == np.asarray(getattr(want, name)).tobytes(), name


DOMAIN_CASES = [(t, method, split) for t in (2, 3, 4, 5)
                for method in ("UDIL",) + TRIPLE_PRESETS
                for split in (False, True)
                if not (method == "ESM-ER" and t == 2)]  # ESM-ER needs t >= 3


@pytest.mark.parametrize("t,method,split", DOMAIN_CASES)
def test_layout_forms_match_per_step_forms_bytewise(monkeypatch, t, method,
                                                    split):
    """Three replay steps of a domain whose teacher differs from the
    student, with random buckets shorter than some memory batches: each
    call of V_l, of V_d on the update and on the encoder side, and of the
    coefficient statistics gives the per-step form's value, logits gradient
    and statistics byte for byte, the per-step form reading the record's
    bounds and the teacher's logits on the drawn rows.  Presets without
    beta mass take the encoder side's zero V_d; the teacher's probabilities
    are the softmax of those logits, byte for byte."""
    rng = np.random.default_rng(1000 * t + 7 * len(method) + split)
    bank = MemoryBank(100)
    bank.buckets = {i: _set(rng, int(rng.integers(1, 15)), i)
                    for i in range(1, t)}
    config = TrainerConfig(method, 0, hp=HyperParams(lambda_d=0.5),
                           sgd=SgdConfig(0.3, 3, int(rng.integers(1, 40))),
                           memory_batch=int(rng.integers(1, 12)),
                           split_memory_batch=split, omega_lr=0.7, disc_lr=0.4)
    state = TrainState(_classifier(rng), bank, config, t)
    teacher, disc = _classifier(rng), Mlp([EMBED, 6, t], rng=rng)
    coeff_logits = None
    if method == "UDIL":
        coeff_logits = rng.normal(size=(t - 1, 3))
    seen = {"rows": [], "calls": {}}
    domain_start, draw_rows = trainer.snapshot_history, trainer._draw_rows
    sample_past = bank.sample_past

    def teacher_pass(model, pool):
        # the teacher's logits on the pool, as the pass computes them
        frozen = stopped(teacher)
        embedded = [frozen.embed(x)
                    for x in np.split(pool.x, pool.layout.bounds[1:-1])]
        seen["logits"] = np.concatenate(
            [frozen.predictor.logits(e) for e in embedded])
        seen["starts"] = pool.layout.bounds
        out = domain_start(teacher, pool)
        assert out[0].tobytes() == softmax(seen["logits"]).tobytes()
        return out

    def recording_draw_rows(*args):
        seen["rows"] = [draw_rows(*args)]
        return seen["rows"][0]

    def recording_sample_past(*args):
        drawn = sample_past(*args)
        seen["rows"] += drawn.values()
        return drawn

    def teacher_logits():
        idx = np.concatenate([lo + r for lo, r in zip(seen["starts"],
                                                      seen["rows"])])
        return seen["logits"][idx]

    def checked(name, library, check):
        def call(*args):
            seen["calls"][name] = seen["calls"].get(name, 0) + 1
            check(*args)
            return library(*args)
        return call

    def check_v_l(batch, omega, logits, teacher_probs):
        record = ref.Record.of(batch)
        assert (_closed(v_l(batch, omega, logits, teacher_probs))
                == _at_leaf(lambda z: ref.per_step_v_l(record, omega, z,
                                                       teacher_logits()),
                            logits, 1.0))

    def check_v_d(batch, omega, logits, scale, *rest):
        record = ref.Record.of(batch)
        if logits is None:  # no beta mass: no discriminator pass to read
            assert _closed(v_d(batch, omega, None, scale, *rest)) \
                == (ref.per_step_v_d(record, omega, None).data.tobytes(), None)
            return
        assert (_closed(v_d(batch, omega, logits, scale, *rest))
                == _at_leaf(lambda z: ref.per_step_v_d(record, omega, z),
                            logits, scale))

    def recording_softmax_parts(a):
        # the stopped discriminator's logits, whose softmax the statistics read
        seen["disc_logits"] = a
        return softmax_parts(a)

    def check_stats(eps_hist, batch, logits, disc_probs, teacher_pred):
        disc_logits = seen["disc_logits"]
        assert disc_probs.tobytes() == softmax(disc_logits).tobytes()
        _same_stats(coeff_stats_for_step(eps_hist, batch, logits, disc_probs,
                                         teacher_pred),
                    ref.per_step_coeff_stats(eps_hist, ref.Record.of(batch),
                                             logits, disc_logits,
                                             teacher_logits()))

    monkeypatch.setattr(trainer, "snapshot_history", teacher_pass)
    monkeypatch.setattr(trainer, "_draw_rows", recording_draw_rows)
    monkeypatch.setattr(bank, "sample_past", recording_sample_past)
    monkeypatch.setattr(trainer, "softmax_parts", recording_softmax_parts)
    monkeypatch.setattr(trainer, "v_l", checked("v_l", v_l, check_v_l))
    monkeypatch.setattr(trainer, "v_d", checked("v_d", v_d, check_v_d))
    monkeypatch.setattr(losses, "v_d", checked("v_d_enc", v_d, check_v_d))
    monkeypatch.setattr(trainer, "coeff_stats_for_step",
                        checked("stats", coeff_stats_for_step, check_stats))
    trainer._train_steps(state, _set(rng, 30, t), bank.buckets,
                         np.random.default_rng(t), disc, coeff_logits)
    beta = method in ("UDIL", "LwF", "BiC")
    want = {"v_l": 3, "v_d_enc": 3, **({"v_d": 3} if beta else {}),
            **({"stats": 3} if method == "UDIL" else {})}
    assert seen["calls"] == want


def _record(kind, empty):
    """A t = 3 record of 4 current rows and 3 and 5 past rows with segment
    `empty` emptied, and [2, 3] triples of the kind."""
    rng = np.random.default_rng(60 + empty)
    sizes = [4, 3, 5]
    sizes[empty] = 0
    cur, past1, past2 = (_set(rng, n, i) for n, i in zip(sizes, (3, 1, 2)))
    if kind == "UDIL":
        omega = rng.dirichlet(np.ones(3), size=2)
    elif kind == "mixed":  # one zero column per row
        omega = rng.dirichlet(np.ones(3), size=2)
        omega[[0, 1], [empty % 3, (empty + 1) % 3]] = 0.0
    else:
        omega = from_preset(kind, 3)
    return StepBatch.stack(cur, {1: past1, 2: past2}), omega, rng


def _outcome(fn):
    try:
        return fn()
    except ContractError as err:
        return str(err)


@pytest.mark.parametrize("kind", ("UDIL", "mixed") + TRIPLE_PRESETS)
@pytest.mark.parametrize("empty", [0, 1, 2])
def test_empty_segments_match_per_step_forms_bytewise(kind, empty):
    """With one segment empty, V_l and V_d raise exactly when the per-step
    forms raise, with their message, and otherwise give their value and
    logits gradient byte for byte (the empty segment has weight 0); the
    coefficient statistics raise as theirs do."""
    batch, omega, rng = _record(kind, empty)
    record = ref.Record.of(batch)
    logits = rng.normal(size=(len(batch.y), N_CLASSES))
    teacher_logits = rng.normal(size=logits.shape)
    disc_logits = rng.normal(size=(len(batch.y), 3))
    pairs = [
        (lambda: _closed(v_l(batch, omega, logits, softmax(teacher_logits))),
         lambda: _at_leaf(lambda z: ref.per_step_v_l(record, omega, z,
                                                     teacher_logits),
                          logits, 1.0)),
        (lambda: _closed(v_d(batch, omega, disc_logits, 1.0, None)),
         lambda: _at_leaf(lambda z: ref.per_step_v_d(record, omega, z),
                          disc_logits, 1.0)),
    ]
    for new, old in pairs:
        assert _outcome(new) == _outcome(old)
    eps_hist = rng.random(2)
    assert _outcome(lambda: coeff_stats_for_step(
        eps_hist, batch, logits, softmax(disc_logits),
        np.argmax(teacher_logits, axis=1))) \
        == _outcome(lambda: ref.per_step_coeff_stats(
            eps_hist, record, logits, disc_logits, teacher_logits)) \
        == "every segment must be nonempty"


ER, LWF = [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]
# (message start, [2, 3] triples, emptied segment or None, call on (the
# layout form or the per-step one, its batch or record, triples, logits x));
# the teacher's x is one column wider than the student's 2, the
# discriminator's twice as wide as t = 3
CONTRACTS = [
    ("v_l: empty batch", [ER, ER], 1,
     lambda new, b, w, x: v_l(b, w, x, softmax(x)) if new
     else ref.per_step_v_l(b, w, Tensor(x), x)),
    ("v_l: distillation arity mismatch", [LWF, ER], None,
     lambda new, b, w, x: v_l(b, w, x[:, :2], softmax(x)) if new
     else ref.per_step_v_l(b, w, Tensor(x[:, :2]), x)),
    ("v_d: empty batch", [LWF, LWF], 2,
     lambda new, b, w, x: v_d(b, w, x, 1.0, None) if new
     else ref.per_step_v_d(b, w, Tensor(x))),
    ("discriminator arity", [LWF, LWF], None,
     lambda new, b, w, x: v_d(b, w, np.c_[x, x], 1.0, None) if new
     else ref.per_step_v_d(b, w, Tensor(np.c_[x, x]))),
    ("every segment must be nonempty", [ER, ER], 0,
     lambda new, b, w, x: (coeff_stats_for_step if new
                           else ref.per_step_coeff_stats)(
         np.zeros(2), b, x, softmax(x) if new else x,
         np.argmax(x, axis=1) if new else x)),
]


@pytest.mark.parametrize("message,omega,empty,call", CONTRACTS,
                         ids=[case[0] for case in CONTRACTS])
def test_layout_forms_keep_the_per_step_messages(message, omega, empty, call):
    sizes = [4, 3, 5]
    if empty is not None:
        sizes[empty] = 0
    layout = StepLayout(sizes, (1, 2), 3)
    rng = np.random.default_rng(5)
    batch = StepBatch(np.zeros((sum(sizes), 2)),
                      rng.integers(0, 2, sum(sizes)), layout)
    x = rng.normal(size=(sum(sizes), 3))
    got = _outcome(lambda: call(True, batch, np.array(omega), x))
    want = _outcome(lambda: call(False, ref.Record.of(batch), np.array(omega), x))
    assert got == want and got.startswith(message)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 700), st.integers(2, 11), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_rowwise_softmax_and_argmax_commute_with_gathers(n, k, ties, seed):
    """The teacher's softmax and argmax taken once over all of a domain's
    rows and then gathered equal, byte for byte, the same taken on the
    gathered rows, for any rows in any order with repeats; with `ties`
    the logits are small integers, so many rows tie for their argmax."""
    rng = np.random.default_rng(seed)
    logits = (rng.integers(-2, 3, size=(n, k)).astype(np.float64) if ties
              else rng.normal(size=(n, k)) * rng.choice([1e-3, 1.0, 30.0]))
    idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
    assert softmax(logits)[idx].tobytes() == softmax(logits[idx]).tobytes()
    assert np.argmax(logits, axis=1)[idx].tobytes() \
        == np.argmax(logits[idx], axis=1).tobytes()


def test_step_layout_built_once_per_replay_domain(monkeypatch):
    """Over a 3-domain UDIL run, every step of a domain reads one
    StepLayout of sizes (min(batch, n_t), min(memory batch, |bucket|)...),
    and the StepLayouts a domain constructs (its pool of rows and that
    one) do not grow with its step count: none is built per step.  Domain
    1, with no bucket, builds the same two, of one segment each."""
    stream = gen_hd_balls(seed=3, n_domains=3, n_per_domain=60, dim=4,
                          sigma=0.4)
    built, read = [], []
    init, library_v_l = StepLayout.__init__, trainer.v_l

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def recording_v_l(batch, *args):
        read.append(batch.layout)
        return library_v_l(batch, *args)

    monkeypatch.setattr(StepLayout, "__init__", counting_init)
    monkeypatch.setattr(trainer, "v_l", recording_v_l)

    def per_domain(steps):
        config = TrainerConfig("UDIL", 1, arch=ArchConfig([8], 4, [], [8]),
                               sgd=SgdConfig(0.2, steps, 16), memory_batch=8,
                               memory_capacity=30)
        state = trainer.initial_state(config, 4, stream.num_classes)
        counts = {}
        for t in (1, 2, 3):
            buckets = [len(b) for _, b in sorted(state.bank.buckets.items())]
            del built[:], read[:]
            state = trainer.train_domain(state, stream.train(t))
            counts[t] = len(built)
            layout = read[0]
            assert len(read) == steps and all(r is layout for r in read)
            assert layout in built
            assert layout.ids == tuple(range(1, t)) and layout.t == t
            assert layout.sizes.tolist() == [16] + [min(8, n)
                                                    for n in buckets]
        return counts

    one, four = per_domain(1), per_domain(4)
    assert one == four == {1: 2, 2: 2, 3: 2}


@pytest.mark.parametrize("sizes", [[-1, 3], [2.5, 3], [2, -4]])
def test_step_layout_refuses_segment_sizes_that_are_not_counts(sizes):
    """A negative or fractional segment size is refused with a
    ContractError that names the sizes, not passed on to NumPy's repeat
    (which fails on a negative count) or truncated (2.5 rows become 2)."""
    with pytest.raises(ContractError, match=r"segment sizes must be "
                       r"non-negative integers, got \[" + str(sizes[0])):
        StepLayout(sizes, [1], 2)


def test_one_segment_stack_uses_the_current_set_as_it_is():
    """With no past set, StepBatch.stack copies nothing: its x and y are
    the current set's own arrays (a Joint domain's pooled set, just built,
    is not copied again); with a past set it stacks copies."""
    rng = np.random.default_rng(0)
    current = LabeledSet(rng.normal(size=(7, 3)), rng.integers(0, 2, 7), 2)
    alone = StepBatch.stack(current, {})
    assert alone.x is current.x and alone.y is current.y
    assert alone.layout.sizes.tolist() == [7] and not alone.layout.ids
    past = {1: LabeledSet(rng.normal(size=(4, 3)), rng.integers(0, 2, 4))}
    both = StepBatch.stack(current, past)
    assert not np.shares_memory(both.x, current.x)
    np.testing.assert_array_equal(both.x[:7], current.x)
