"""The ten shipped guarantees, each at its stated tolerance.

One test per criterion; each prints a single ``[criterion NN] PASS|FAIL``
line (visible under ``pytest -s`` and in failure output) and asserts the
same condition, so ``pytest -v`` shows exactly one verdict per criterion.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import dilkit
from dilkit.autodiff import softmax
from dilkit.bounds import (check_cross_bound, check_intra_bound,
                           check_unified_bound, random_instance,
                           tightest_bound_grid)
from dilkit.coeffs import (ConfigError, TRIPLE_PRESETS, from_preset,
                           init_uniform, logit_gradient)
from dilkit.datagen import LabeledSet, gen_hd_balls, load_idx, rotated_stream
from dilkit.divergence import hdh_discriminator_estimate, hdh_exact
from dilkit.losses import (CoeffStats, HyperParams, StepBatch, StepLayout,
                           classification_loss, v_01, v_d, v_l, v_p, v_s)
from dilkit.membank import MemoryBank
from dilkit.metrics import (AccuracyMatrix, avg_acc, avg_of_avg, forgetting,
                            forward_transfer)
from dilkit.models import ArchConfig, Classifier, Mlp, SgdConfig, sgd_step
from dilkit.seeding import substream
from dilkit.trainer import TrainerConfig, descend_v01, run_sequence
from finite_classes import threshold_class
from gradcheck import closed_form_node, gradcheck, gradcheck_array
import reference_ops
from reference_ops import leaves, logits_node

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def gate(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. bound-verification suite: zero violations on 1000 random instances


def test_criterion_01_bound_checks_zero_violations_under_60s():
    rng = substream(2024, "acceptance", "bounds")
    violations = 0
    start = time.perf_counter()
    for _ in range(1000):
        inst = random_instance(
            rng,
            n_domains=int(rng.integers(2, 5)),
            points_per_domain=int(rng.integers(3, 9)),
            class_size=int(rng.choice([16, 64, 256])))
        for check in (check_intra_bound, check_cross_bound,
                      check_unified_bound):
            violations += check(inst).n_violations
    elapsed = time.perf_counter() - start
    gate(1, violations == 0 and elapsed < 60.0,
         f"intra/cross/unified on 1000 instances: {violations} violations, "
         f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. tightest-bound property: grid argmin <= every preset; descent matches


def test_criterion_02_grid_argmin_and_descent_beat_presets():
    rng = substream(2024, "acceptance", "tightest")
    grid_violations = 0
    for _ in range(100):
        inst = random_instance(rng, n_domains=int(rng.integers(2, 5)))
        grid_violations += tightest_bound_grid(inst).n_violations

    # frozen instance: 500 coefficient-descent steps vs the preset minimum
    frozen = np.random.default_rng(0)
    t = 4
    terms = (frozen.random(3) * 0.5, frozen.random(3) * 0.5,
             float(frozen.random() * 0.5), frozen.random(3) * 1.5,
             frozen.random(3) * 0.3)
    # N_t, then N_i per past domain
    stats = CoeffStats(*terms, [frozen.integers(50, 200),
                                *frozen.integers(10, 60, 3)])
    preset_min = min(v_01(from_preset(m, t), stats, 1.0)[0]
                     for m in TRIPLE_PRESETS)
    descended = descend_v01(init_uniform(t), stats, 1.0, steps=500,
                            learning_rate=10.0)
    slack = descended - preset_min
    gate(2, grid_violations == 0 and slack <= 1e-3,
         f"grid argmin: {grid_violations} violations at 1e-9 over 100 "
         f"instances; 500-step descent - preset min = {slack:.2e} (<= 1e-3)")


# ---------------------------------------------------------------------------
# 3. preset golden values


def test_criterion_03_preset_goldens_exact():
    r = 1.0 - math.exp(-1.0)
    lam3, lam5 = r * 2 - 1, r * 4 - 1
    expected = {
        ("LwF", 2): (0.0, 1.0, 0.0), ("LwF", 5): (0.0, 1.0, 0.0),
        ("ER", 2): (0.0, 0.0, 1.0), ("ER", 5): (0.0, 0.0, 1.0),
        ("DER++", 2): (0.5, 0.0, 0.5), ("DER++", 5): (0.5, 0.0, 0.5),
        ("iCaRL", 2): (1.0, 0.0, 0.0), ("iCaRL", 5): (1.0, 0.0, 0.0),
        # lambda = t - 2 blended with weight 1 on the replay term
        ("CLS-ER", 2): (0.0, 0.0, 1.0),
        ("CLS-ER", 3): (0.5, 0.0, 0.5),
        ("CLS-ER", 5): (0.75, 0.0, 0.25),
        # lambda' = r (t - 1) - 1 with r = 1 - 1/e
        ("ESM-ER", 3): (lam3 / (1 + lam3), 0.0, 1 / (1 + lam3)),
        ("ESM-ER", 5): (lam5 / (1 + lam5), 0.0, 1 / (1 + lam5)),
        # equal-batch bias correction: (t-1):(t-1):1 normalized
        ("BiC", 2): (1 / 3, 1 / 3, 1 / 3),
        ("BiC", 3): (0.4, 0.4, 0.2),
        ("BiC", 5): (4 / 9, 4 / 9, 1 / 9),
    }
    bad = []
    for (method, t), triple in expected.items():
        got = from_preset(method, t)
        if not np.array_equal(got, np.array([triple] * (t - 1))):
            bad.append(f"{method}@t={t}: {got[0]}")
    rejected = False
    try:
        from_preset("ESM-ER", 2)
    except ConfigError as err:
        rejected = "r*(t-1)-1 >= 0" in str(err)
    gate(3, not bad and rejected,
         "every fixed-preset triple reproduced exactly and ESM-ER t=2 "
         f"rejected by its condition"
         f"{'; mismatches: ' + '; '.join(bad) if bad else ''}")


# ---------------------------------------------------------------------------
# 4. gradient suite: 100 finite-difference trials per loss operation


def _grad_trial_setups(seed: int):
    rng = np.random.default_rng(seed)
    h = Classifier(Mlp([3, 5, 4], rng=rng),
                   Mlp([4, 2], rng=rng))
    teacher = reference_ops.stopped(Classifier(Mlp([3, 5, 4], rng=rng),
                                               Mlp([4, 2], rng=rng)))
    cur = LabeledSet(rng.normal(size=(6, 3)), rng.integers(0, 2, 6))
    past = {1: LabeledSet(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))}
    omega = rng.dirichlet((1.0, 1.0, 1.0), size=1)
    return rng, h, teacher, cur, past, omega


def _coefficient_step_gradient(coeff_logits, stats):
    """V_01 at softmax(coeff_logits) and its gradient on the logits, as
    the trainer's coefficient update computes them."""
    omega = softmax(coeff_logits)
    value, grad = v_01(omega, stats, 1.3)
    return value, logit_gradient(omega, grad)


def test_criterion_04_gradient_suite_100_trials_each():
    failures = []
    for trial in range(100):
        rng, h, teacher, cur, past, omega = _grad_trial_setups(4000 + trial)
        d = Mlp([4, 2], rng=rng)
        enc = h.encoder
        prev = Mlp([3, 5, 4], rng=rng)
        stats = CoeffStats(rng.random(2) * 0.5, rng.random(2) * 0.5,
                           float(rng.random() * 0.5), rng.random(2) * 1.5,
                           rng.random(2) * 0.3, [60, 8, 6])
        coeff_logits = rng.normal(size=(2, 3))
        trial_seed = 4000 + trial
        # the record of the trial's batches, cur as domain 2's
        batch = StepBatch.stack(LabeledSet(cur.x, cur.y, 2), past)
        # V_l and V_d return their logits gradient in closed form; as nodes
        # over the logits, that gradient reaches the networks' parameters
        probs = softmax(teacher.logits(batch.x))
        cases = {
            "v_l": (lambda: closed_form_node(
                        lambda z: v_l(batch, omega, z, probs),
                        logits_node(h, batch.x)),
                    leaves(h)),
            # the logits gradient the trainer applies, through the softmax
            "v_01": (lambda z: _coefficient_step_gradient(z, stats),
                     coeff_logits),
            "v_d": (lambda: closed_form_node(
                        lambda z: v_d(batch, omega, z, 1.0, None),
                        logits_node(d, logits_node(enc, batch.x))),
                    leaves(enc) + leaves(d)),
            # V_p and V_s return their embedding gradient in closed form
            "v_p": (lambda z: v_p(batch, z, prev.logits(batch.x), 1.0),
                    enc.logits(batch.x)),
            "v_s": (lambda z: v_s(z, cur.y, 3,
                                  np.random.default_rng(trial_seed), 1.0),
                    enc.logits(cur.x)),
        }
        for name, (fn, inputs) in cases.items():
            check = gradcheck if name in ("v_l", "v_d") else gradcheck_array
            try:
                check(fn, inputs, rtol=1e-4, max_coords=3, rng=rng)
            except AssertionError as err:
                failures.append(f"trial {trial} {name}: {err}")
    gate(4, not failures,
         "v_l, v_01, v_d, v_p, v_s each pass 100 finite-difference trials "
         f"at rtol 1e-4{'; ' + failures[0] if failures else ''}")


# ---------------------------------------------------------------------------
# 5. scaled HD-Balls ordering


def _three_seed_metrics(stream, method, **kw):
    accs, forgs = [], []
    for seed in (0, 1, 2):
        cfg = TrainerConfig(method, seed, arch=ArchConfig([32], 16, [], [16]),
                            sgd=SgdConfig(0.2, 200, 32),
                            hp=HyperParams(lambda_d=0.05),
                            memory_capacity=100, **kw)
        result = run_sequence(stream, cfg)
        final = stream.n_domains
        accs.append(result.avg_acc_by_domain[final])
        forgs.append(result.forgetting_by_domain[final])
    return float(np.mean(accs)), float(np.mean(forgs))


def test_criterion_05_scaled_hd_balls_ordering():
    stream = gen_hd_balls(7, 5, 500, 20, 0.5)
    start = time.perf_counter()
    udil = _three_seed_metrics(stream, "UDIL")
    er = _three_seed_metrics(stream, "ER")
    ft = _three_seed_metrics(stream, "FineTune")
    elapsed = time.perf_counter() - start
    ok = (udil[0] >= ft[0] + 0.10 and udil[1] <= ft[1] - 0.10
          and udil[0] >= er[0] - 0.01 and elapsed <= 300.0)
    gate(5, ok,
         f"5 domains/dim 20/500 pts/buffer 100/3 seeds in {elapsed:.0f}s: "
         f"avg_acc UDIL {udil[0]:.3f} vs FineTune {ft[0]:.3f} (+10pt) and "
         f"ER {er[0]:.3f} (-1pt); forgetting UDIL {udil[1]:.3f} vs "
         f"FineTune {ft[1]:.3f} (-10pt)")


# ---------------------------------------------------------------------------
# 6. scaled rotated digits ordering (needs the raw IDX files)


def _find_mnist_dir():
    candidates = [os.environ.get("DILKIT_MNIST_DIR"), "data/mnist",
                  os.path.expanduser("~/data/mnist")]
    for cand in candidates:
        if cand and all(os.path.exists(os.path.join(cand, name))
                        for name in MNIST_FILES):
            return cand
    return None


def _two_seed_forgetting(stream, method):
    forgs = []
    for seed in (0, 1):
        cfg = TrainerConfig(method, seed,
                            arch=ArchConfig([100], 32, [], [32]),
                            sgd=SgdConfig(0.1, 300, 32),
                            hp=HyperParams(lambda_d=0.05),
                            memory_capacity=200)
        result = run_sequence(stream, cfg)
        forgs.append(result.forgetting_by_domain[stream.n_domains])
    return float(np.mean(forgs))


def test_criterion_06_scaled_rotated_digits_ordering():
    mnist_dir = _find_mnist_dir()
    if mnist_dir is None:
        gate(6, False,
             "rotated-digits run needs the four raw MNIST IDX files; none "
             "found (set DILKIT_MNIST_DIR to a directory containing "
             + ", ".join(MNIST_FILES) + ")")
    base = load_idx(os.path.join(mnist_dir, MNIST_FILES[0]),
                    os.path.join(mnist_dir, MNIST_FILES[1]))
    base_test = load_idx(os.path.join(mnist_dir, MNIST_FILES[2]),
                         os.path.join(mnist_dir, MNIST_FILES[3]))
    stream = rotated_stream(base, 5, seed=7, base_test=base_test,
                            n_per_domain=5000, n_test_per_domain=1000)
    start = time.perf_counter()
    udil = _two_seed_forgetting(stream, "UDIL")
    der = _two_seed_forgetting(stream, "DER++")
    ft = _two_seed_forgetting(stream, "FineTune")
    elapsed = time.perf_counter() - start
    ok = udil <= der + 0.02 and udil <= ft - 0.15 and elapsed <= 900.0
    gate(6, ok,
         f"5 domains/5000 imgs/buffer 200/2 seeds in {elapsed:.0f}s: "
         f"forgetting UDIL {udil:.3f} vs DER++ {der:.3f} (+2pt) and "
         f"FineTune {ft:.3f} (-15pt)")


# ---------------------------------------------------------------------------
# 7. divergence estimate vs exact


def test_criterion_07_divergence_estimate_tracks_exact():
    # two 1-D Gaussians, two sigma either side of the midpoint
    rng = substream(0xD1, "gauss")
    n = 200
    past_pts = rng.normal(-2.0, 1.0, size=n)
    cur_pts = rng.normal(2.0, 1.0, size=n)
    pooled = np.concatenate([past_pts, cur_pts])
    exact = hdh_exact(threshold_class(pooled), np.arange(n),
                      np.arange(n, 2 * n))
    enc = Mlp([1, 1], rng=np.random.default_rng(0))
    enc.layers[0][0][...] = np.eye(1)
    enc.layers[0][1][...] = 0.0
    disc = Mlp([1, 2], rng=substream(0xD1, "disc-init"))
    batch = LabeledSet(pooled.reshape(-1, 1), [0] * n + [1] * n)
    for _ in range(400):
        loss = closed_form_node(lambda z: classification_loss(z, batch.y),
                                logits_node(disc, batch.x))
        loss.backward()
        reference_ops.sgd_step(leaves(disc), 1.0)
        for p in leaves(disc):
            p.grad = None
    est = hdh_discriminator_estimate(disc, enc, cur_pts.reshape(-1, 1),
                                     past_pts.reshape(-1, 1), 1)
    gap = abs(est - exact)

    # identical distributions, estimate on held-out draws
    rng2 = substream(11, "same")
    cur = rng2.normal(size=(300, 4))
    past = rng2.normal(size=(300, 4))
    cur_eval = rng2.normal(size=(300, 4))
    past_eval = rng2.normal(size=(300, 4))
    enc4 = Mlp([4, 8, 4], rng=substream(11, "enc"))
    disc4 = Mlp([4, 8, 2], rng=substream(11, "disc"))
    omega = np.array([[0.0, 1.0, 0.0]])
    record = StepBatch(np.concatenate([cur, past]), np.zeros(600, np.int64),
                       StepLayout([300, 300], (1,), 2))
    for _ in range(200):
        acts = disc4.forward(enc4.stopped().logits(record.x))
        disc4.backward(acts, v_d(record, omega, acts[-1], 1.0, None)[1], False)
        sgd_step([disc4], 0.2)
    same = hdh_discriminator_estimate(disc4, enc4, cur_eval, past_eval, 1)
    gate(7, gap <= 0.15 and same <= 0.1,
         f"two-Gaussian benchmark |est - exact| = {gap:.3f} (<= 0.15); "
         f"identical distributions give {same:.3f} (<= 0.1)")


# ---------------------------------------------------------------------------
# 8. metric golden values


def _matrix(rows):
    mat = AccuracyMatrix(len(rows))
    for i, row in enumerate(rows, start=1):
        for j, value in enumerate(row, start=1):
            if value is not None:
                mat.set(i, j, value)
    return mat


def test_criterion_08_metric_goldens_and_bruteforce_forgetting():
    m1 = _matrix([[0.8, 0.3], [0.6, 0.9]])
    m2 = _matrix([[1.0, 0.2, None], [0.7, 0.9, 0.4], [0.5, 0.6, 0.95]])
    m3 = _matrix([[1.0, 0.5, None, None], [1.0, 1.0, 0.5, None],
                  [1.0, 1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0]])
    m4 = _matrix([[0.9, 0.1, None], [0.8, 0.85, 0.2], [0.4, 0.5, 0.8]])
    m5 = _matrix([[0.6, 0.7], [0.75, 0.8]])
    goldens = [
        (avg_acc(m1, 2), (0.6 + 0.9) / 2),
        (avg_of_avg(m1, 1, 2), (0.8 + (0.6 + 0.9) / 2) / 2),
        (forgetting(m1, 2), 0.8 - 0.6),
        (forward_transfer(m1, [0.5, 0.45], 2), 0.3 - 0.45),
        (avg_acc(m2, 3), (0.5 + 0.6 + 0.95) / 3),
        (avg_of_avg(m2, 2, 3), ((0.7 + 0.9) / 2 + (0.5 + 0.6 + 0.95) / 3) / 2),
        (forgetting(m2, 3), ((1.0 - 0.5) + (0.9 - 0.6)) / 2),
        (forward_transfer(m2, [0.5, 0.5, 0.5], 3),
         ((0.2 - 0.5) + (0.4 - 0.5)) / 2),
        (avg_acc(m3, 4), 1.0),
        (forgetting(m3, 4), 0.0),
        (forward_transfer(m3, [0.5, 0.5, 0.5, 0.5], 4), 0.0),
        (avg_acc(m4, 2), (0.8 + 0.85) / 2),
        (avg_of_avg(m4, 1, 3),
         (0.9 + (0.8 + 0.85) / 2 + (0.4 + 0.5 + 0.8) / 3) / 3),
        (forgetting(m4, 3), ((0.9 - 0.4) + (0.85 - 0.5)) / 2),
        (forward_transfer(m4, [0.6, 0.55, 0.5], 3),
         ((0.1 - 0.55) + (0.2 - 0.5)) / 2),
        (forgetting(m5, 2), 0.6 - 0.75),
        (avg_acc(m5, 2), (0.75 + 0.8) / 2),
        (forward_transfer(m5, [0.5, 0.2], 2), 0.7 - 0.2),
    ]
    exact = all(got == want for got, want in goldens)

    rng = substream(2024, "acceptance", "metrics")
    brute_ok = True
    for _ in range(100):
        t = int(rng.integers(2, 7))
        vals = rng.random((t, t))
        mat = AccuracyMatrix(t)
        for i in range(1, t + 1):
            for j in range(1, min(i + 1, t) + 1):
                mat.set(i, j, float(vals[i - 1][j - 1]))
        brute = np.mean([max(vals[l - 1][j - 1] for l in range(j, t))
                         - vals[t - 1][j - 1] for j in range(1, t)])
        brute_ok &= forgetting(mat, t) == brute
    gate(8, exact and brute_ok,
         f"{len(goldens)} hand-computed values exact on 5 fixed matrices; "
         "forgetting matches the brute-force max-scan on 100 random matrices")


# ---------------------------------------------------------------------------
# 9. memory invariants over a 20-domain sequence


def test_criterion_09_memory_invariants_at_three_capacities():
    bad = []
    for capacity in (200, 400, 800):
        bank = MemoryBank(capacity)
        rng = substream(9, "memory", capacity)
        for t in range(1, 21):
            # every domain supplies at least the largest possible quota, so
            # the equal-fill invariant is exercised without shortfalls
            n = int(rng.integers(800, 2001))
            domain = LabeledSet(rng.normal(size=(n, 4)),
                                rng.integers(0, 2, n), domain_id=t)
            bank.update_after_domain(domain, t, seed=capacity + t)
            sizes = list(bank.sizes().values())
            if bank.total() > capacity:
                bad.append(f"capacity {capacity} t={t}: total {bank.total()}")
            if max(sizes) - min(sizes) > 1:
                bad.append(f"capacity {capacity} t={t}: sizes {sizes}")
    gate(9, not bad,
         "bucket sizes stay within 1 of each other and totals never exceed "
         f"capacity at 200/400/800 over 20 domains"
         + ("; " + bad[0] if bad else ""))


# ---------------------------------------------------------------------------
# 10. bitwise-deterministic results files


DETERMINISM_CFG = """\
dataset = hd-balls
method = UDIL
seeds = 0
n_domains = 3
n_per_domain = 60
dim = 4
sigma = 0.4
steps_per_domain = 40
batch_size = 16
buffer_capacity = 30
encoder_hidden = 8
embed_dim = 4
predictor_hidden = none
disc_hidden = 8
lambda_d = 0.1
"""


def test_criterion_10_results_files_bitwise_identical(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(DETERMINISM_CFG)
    # the subprocess runs in tmp_path, where a relative PYTHONPATH entry no
    # longer resolves, so put this package's absolute source root first
    src_root = str(Path(dilkit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    blobs = []
    for sub in ("first", "second"):
        env = dict(os.environ, DILKIT_OUTPUT_DIR=str(tmp_path / sub),
                   PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "dilkit.expcli", "run", str(cfg)],
            capture_output=True, text=True, env=env, cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        blobs.append((tmp_path / sub / "hd-balls-UDIL"
                      / "results.json").read_bytes())
    gate(10, blobs[0] == blobs[1],
         f"two executions wrote identical results.json "
         f"({len(blobs[0])} bytes, single-threaded)")
