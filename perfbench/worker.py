"""One benchmark workload, run in a fresh single-threaded process.

perfbench/run.py starts this file with the BLAS thread variables set to 1
and `src` on PYTHONPATH; this file refuses to start if a variable is not 1
before NumPy loads.  It sets up the workload (imports, config, stream), runs the
closed loop untraced or traced, checks every output, and prints one JSON
record as its last stdout line.  With --setup-only it stops after set-up.
"""
from __future__ import annotations

import os
import sys

from run import BLAS_VARS, OUT_DIR


def _require_pinned_threads() -> None:
    if "numpy" in sys.modules:
        sys.exit("perfbench: NumPy was loaded before the thread pin was checked")
    unpinned = {v: os.environ.get(v) for v in BLAS_VARS
                if os.environ.get(v) != "1"}
    if unpinned:
        sys.exit(f"perfbench: BLAS thread variables must be 1 before NumPy "
                 f"loads, got {unpinned}")


_require_pinned_threads()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dilkit.bounds  # noqa: E402
import dilkit.expcli.cli  # noqa: E402
import dilkit.losses  # noqa: E402
import dilkit.trainer  # noqa: E402
from dilkit.autodiff import Tensor  # noqa: E402
from dilkit.bounds import (  # noqa: E402
    check_cross_bound, check_erm_bound_shape, check_intra_bound,
    check_unified_bound, deterministic_bound, random_instance,
    tightest_bound_grid, total_risk)
from dilkit.coeffs import preset_triple  # noqa: E402
from dilkit.expcli import (  # noqa: E402
    build_stream, parse_config, results_payload, stream_fingerprint,
    write_results)
from dilkit.membank import MemoryBank  # noqa: E402
from dilkit.models import Mlp  # noqa: E402
from dilkit.seeding import substream  # noqa: E402
from dilkit.trainer import TrainerConfig, run_sequence  # noqa: E402

from tracer import SpanTable, Tracer  # noqa: E402

# -- workload definitions -------------------------------------------------
# The criterion-5 ball-cloud stream, generated from the workload seed.
STREAM_LINES = """dataset = hd-balls
data_seed = {seed}
n_domains = 5
n_per_domain = 500
dim = 20
sigma = 0.5
buffer_capacity = 100
lambda_d = 0.05
steps_per_domain = 200
"""
# udil-balls: the paper's method at the criterion-5 widths, where graph
# bookkeeping dominates and step cost grows with the number of past domains.
UDIL_LINES = """learning_rate = 0.2
batch_size = 32
encoder_hidden = 32
embed_dim = 16
predictor_hidden = none
disc_hidden = 16
"""
# presets-wide: beta = 0 methods at widths where matrix products matter.
WIDE_LINES = """learning_rate = 0.1
batch_size = 128
encoder_hidden = 256, 256
embed_dim = 64
predictor_hidden = none
disc_hidden = 64
"""
TRAINING = {
    "udil-balls": (("UDIL",), UDIL_LINES),
    "presets-wide": (("ER", "DER++", "FineTune", "Joint"), WIDE_LINES),
}
# bounds-audit: instances drawn as in acceptance criterion 1.
AUDIT_DOMAINS = (2, 5)          # rng.integers bounds: 2..4 domains
AUDIT_POINTS = (3, 9)           # 3..8 points per domain
AUDIT_CLASS_SIZES = (16, 64, 256)
AUDIT_GRID = 10
DIGEST_INSTANCES = 100          # instances every audit run completes
FLIP_SIGN_INSTANCES = 20

SEQ_TAG = {"UDIL": "udil", "ER": "er", "DER++": "derpp",
           "FineTune": "finetune", "Joint": "joint"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_ms.p50": "ms",
    "peak_rss_mb": "MiB",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for t in range(1, 6):
        units[f"trainer.step_ms.t{t}"] = "ms"
    for phase in ("disc", "coeff", "model"):
        units[f"trainer.phase.{phase}_ms"] = "ms"
    units["trainer.snapshot_ms"] = "ms"
    for tag in ("er", "derpp", "finetune", "joint"):
        units[f"trainer.seq_s.{tag}"] = "s"
    for t in range(1, 6):
        units[f"models.forward_per_step.t{t}"] = "count"
    units["models.forward_per_step.er_t5"] = "count"
    units["models.forward_ms"] = "ms"
    units["models.sgd_ms"] = "ms"
    for t in range(1, 6):
        units[f"autodiff.nodes_per_step.t{t}"] = "count"
    units["autodiff.nodes_per_step.er_t5"] = "count"
    units["autodiff.backward_ms"] = "ms"
    units["autodiff.backward_per_step"] = "count"
    for term in LOSS_SPANS:
        units[f"losses.{term}_ms"] = "ms"
        units[f"losses.{term}_per_step"] = "count"
    for t in range(2, 6):
        units[f"divergence.estimate_per_step.t{t}"] = "count"
    units["divergence.estimate_ms"] = "ms"
    units["divergence.hdh_exact_per_instance"] = "count"
    for t in range(2, 5):
        units[f"divergence.hdh_exact_per_instance.t{t}"] = "count"
    units["divergence.hdh_exact_ms"] = "ms"
    for check in BOUND_SPANS:
        units[f"bounds.{check}_ms"] = "ms"
    units["membank.sample_ms"] = "ms"
    units["membank.update_ms"] = "ms"
    units["metrics.eval_ms"] = "ms"
    units["metrics.avg_acc"] = "fraction"
    units["metrics.forgetting"] = "fraction"
    units["datagen.gen_ms"] = "ms"
    units["expcli.persist_ms"] = "ms"
    units["trace.overhead"] = "ratio"
    return units


# loss metric -> span names whose self time it sums
LOSS_SPANS = {
    "v_l": ("dilkit.trainer.v_l",),
    "v_d": ("dilkit.trainer.v_d",),              # discriminator update
    "v_d_enc": ("dilkit.losses.v_d",),           # encoder-side term in aux
    "v_01": ("dilkit.trainer.v_01",),
    "aux": ("dilkit.trainer.encoder_aux_loss",),
    "ce": ("dilkit.trainer.classification_loss",
           "dilkit.losses.classification_loss"),
}
# bounds metric -> the benchmark's own call it times
BOUND_SPANS = {
    "gen": "random_instance", "intra": "check_intra_bound",
    "cross": "check_cross_bound", "unified": "check_unified_bound",
    "grid": "tightest_bound_grid", "erm_shape": "check_erm_bound_shape",
}
PHASE_OF = {
    "dilkit.trainer.v_d": "disc",
    "dilkit.trainer.coeff_stats_for_step": "coeff",
    "dilkit.trainer.v_01": "coeff",
    "dilkit.trainer.v_l": "model",
    "dilkit.trainer.encoder_aux_loss": "model",
    "dilkit.trainer.classification_loss": "model",
}
PHASE_FOLLOWERS = ("dilkit.autodiff.Tensor.backward",
                   "dilkit.trainer.sgd_step")
PER_LAYER_UNITS = _per_layer_units()


# -- helpers --------------------------------------------------------------

def _p95(values: list[float]) -> float:
    """95th percentile, linear interpolation between closest ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def host_probe() -> dict:
    """Fixed host-speed probe: one pure-Python loop and one small-matrix
    NumPy loop, median of three timings each.  Context only."""
    a = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)

    def python_loop():
        s = 0
        for i in range(200_000):
            s += i * i
        return s

    def numpy_loop():
        b = a
        for _ in range(2000):
            b = np.tanh(a @ b + a)
        return b

    out = {}
    for name, fn in (("python_ms", python_loop), ("numpy_ms", numpy_loop)):
        times = []
        for _ in range(3):
            tick = time.perf_counter()
            fn()
            times.append((time.perf_counter() - tick) * 1e3)
        out[name] = statistics.median(times)
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


class Outcome:
    """What one closed loop did: per-call latencies, completed work items,
    failures, and the determinism digest of its fixed first block."""

    def __init__(self):
        self.call_s: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.invalid = ""           # set when the run as a whole is invalid
        self.wall_s = 0.0
        self.digest = ""

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


# -- training workloads ---------------------------------------------------

def check_sequence(result, method: str) -> list[str]:
    """Output checks for one run_sequence result."""
    problems = []
    n = result.n_domains
    rows = result.matrix.to_lists()
    for i in range(1, n + 1):
        for j in range(1, min(i + 1, n) + 1):
            v = rows[i - 1][j - 1]
            if v is None or not math.isfinite(v) or not 0.0 <= v <= 1.0:
                problems.append(f"accuracy R[{i}][{j}] = {v!r}")
    expected_domains = [] if method == "Joint" else list(range(2, n + 1))
    if sorted(result.omega_by_domain) != expected_domains:
        problems.append(f"omega log covers domains {sorted(result.omega_by_domain)}")
    for t, triples in result.omega_by_domain.items():
        om = np.asarray(triples, dtype=np.float64)
        if om.shape != (t - 1, 3) or not np.isfinite(om).all():
            problems.append(f"omega[{t}] malformed: {triples!r}")
        elif method == "UDIL":
            if om.min() < 0 or np.abs(om.sum(axis=1) - 1.0).max() > 1e-9:
                problems.append(f"omega[{t}] off the simplex: {triples!r}")
        elif method == "FineTune":
            if np.any(om != 0.0):
                problems.append(f"omega[{t}] of FineTune is not zero")
        elif np.any(om != np.array([preset_triple(method, t)] * (t - 1))):
            problems.append(f"omega[{t}] differs from the {method} preset")
    return problems


def result_digest_entry(result) -> list:
    return [result.method, result.seed, result.matrix.to_lists(),
            {str(t): v for t, v in sorted(result.omega_by_domain.items())}]


class TrainingWorkload:
    """Closed loop over rounds; round k runs each method once with training
    seed 1000 * workload seed + k, then persists its results as
    `dilkit run` does."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.methods, lines = TRAINING[name]
        self.texts = {m: STREAM_LINES.format(seed=seed) + lines
                      + f"method = {m}\n" for m in self.methods}
        self.configs = {m: parse_config(text) for m, text in self.texts.items()}
        first = self.configs[self.methods[0]]
        self.stream = build_stream(first)
        self.dataset = self._dataset_facts(first)
        self.results: list = []

    def _dataset_facts(self, config) -> dict:
        stream = self.stream
        return {"name": config.dataset, "data_seed": config.data_seed,
                "n_domains": stream.n_domains, "input_dim": stream.input_dim,
                "num_classes": stream.num_classes,
                "train_sizes": [len(stream.train(t))
                                for t in range(1, stream.n_domains + 1)],
                "test_sizes": [len(stream.test(t))
                               for t in range(1, stream.n_domains + 1)],
                "fingerprint": stream_fingerprint(stream)}

    def trainer_config(self, method: str, k: int) -> TrainerConfig:
        c = self.configs[method]
        return TrainerConfig(
            method=method, seed=1000 * self.seed + k, arch=c.arch, sgd=c.sgd,
            hp=c.hp, memory_capacity=c.buffer_capacity, omega_lr=c.omega_lr,
            disc_lr=c.disc_lr, memory_batch=c.memory_batch,
            split_memory_batch=c.split_memory_batch,
            baseline_models=c.baseline_models)

    def steps_per_sequence(self, method: str) -> int:
        return self.stream.n_domains * self.configs[method].sgd.step_count

    def call(self, method: str, k: int, out: Outcome, out_dir: str):
        """One run_sequence call plus persisting its results."""
        out.attempted += 1
        try:
            tick = time.perf_counter()
            result = run_sequence(self.stream, self.trainer_config(method, k))
            out.call_s.append(time.perf_counter() - tick)
            payload = results_payload(self.texts[method], [result], self.dataset)
            write_results(os.path.join(out_dir, f"{SEQ_TAG[method]}-{k}"),
                          payload, [result],
                          {"per_seed_s": {str(result.seed): out.call_s[-1]}})
        except Exception:  # a failed sequence is counted, the loop goes on
            traceback.print_exc()
            out.fail(f"{method} round {k}: raised")
            return None
        problems = check_sequence(result, method)
        if problems:
            out.fail(f"{method} round {k}: " + "; ".join(problems[:3]))
        else:
            out.items += self.steps_per_sequence(method)
        self.results.append(result)
        return result

    def loop(self, seconds: float, started: float, out_dir: str) -> Outcome:
        """Whole rounds for about `seconds` since `started`: another round
        starts only while at least half of it (at the mean round time so
        far) still fits."""
        out = Outcome()
        tick = time.perf_counter()
        first_round = []
        k = 0
        while True:
            for method in self.methods:
                result = self.call(method, k, out, out_dir)
                if k == 0:
                    first_round.append(None if result is None
                                       else result_digest_entry(result))
            k += 1
            now = time.perf_counter()
            if now - started + (now - tick) / k / 2 >= seconds:
                break
        out.wall_s = time.perf_counter() - tick
        out.digest = _sha256(first_round)
        return out

    def quality(self) -> dict:
        accs = [r.avg_acc_by_domain[r.n_domains] for r in self.results]
        forg = [r.forgetting_by_domain[r.n_domains] for r in self.results]
        return {"avg_acc": float(np.mean(accs)), "forgetting": float(np.mean(forg))}

    def run(self, seconds: float, out_dir: str) -> tuple[Outcome, dict]:
        out = self.loop(seconds, time.perf_counter(), out_dir)
        return out, self.quality() if self.results else {}

    def run_traced(self, seconds: float, out_dir: str, tracer: Tracer):
        started = time.perf_counter()
        # untraced reference: the first call of round 0
        ref = Outcome()
        ref_result = self.call(self.methods[0], 0, ref, out_dir)
        if ref_result is None:
            ref.invalid = "the untraced reference sequence failed"
            return ref, {}
        ref_digest = _sha256(result_digest_entry(ref_result))
        self.results = []

        install_training_spans(tracer)
        try:
            regenerated = build_stream(self.configs[self.methods[0]])
            out = self.loop(seconds, started, out_dir)
        finally:
            tracer.uninstall()
        if not self.results:
            out.invalid = "no traced sequence completed"
            return out, {}
        tab = SpanTable(tracer)
        metrics = self.per_layer(tab)
        seq_spans = tab.ids("bench.run_sequence")
        metrics["trace.overhead"] = (tab.dur[seq_spans[0]] / 1e9) / ref.call_s[0]
        first = self.results[0]
        if _sha256(result_digest_entry(first)) != ref_digest:
            out.invalid = "traced result differs from the untraced reference"
        if stream_fingerprint(regenerated) != self.dataset["fingerprint"]:
            out.invalid = "traced stream differs from the set-up stream"
        return out, metrics

    def per_layer(self, tab: SpanTable) -> dict:
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        seqs = tab.ids("bench.run_sequence")
        steps = sum(n_domains * per_domain for _, n_domains, per_domain
                    in (tab.tags[s] for s in seqs))
        evals = tab.of("dilkit.trainer.accuracy")
        training = tab.subtree_mask(seqs) & ~tab.subtree_mask(np.flatnonzero(evals))

        def self_ms(names, per):
            mask = np.zeros(tab.n, dtype=bool)
            for name in names:
                mask |= tab.of(name)
            return tab.self_time[mask & training].sum() / 1e6 / per

        def incl_ms(name, per):
            return tab.dur[tab.of(name) & training].sum() / 1e6 / per

        def mean_ms(mask):
            return tab.dur[mask].mean() / 1e6 if mask.any() else 0.0

        def calls(names, per):
            return sum(int((tab.of(n) & training).sum()) for n in names) / per

        by_t = {t: {"ms": 0.0, "steps": 0, "fwd": 0, "nodes": 0, "est": 0}
                for t in range(1, 6)}
        er5 = {"steps": 0, "fwd": 0, "nodes": 0}
        phase_ms = {"disc": 0.0, "coeff": 0.0, "model": 0.0}
        steps_t2 = 0
        phase_of = {tab.name_id[n]: p for n, p in PHASE_OF.items()
                    if n in tab.name_id}
        followers = {tab.name_id[n] for n in PHASE_FOLLOWERS if n in tab.name_id}
        for d in tab.ids("dilkit.trainer.train_domain"):
            if d not in tab.tags:
                continue
            (t,) = tab.tags[d]
            method, _, n_steps = tab.tags[tab.root[d]]
            fwd = tab.count_inside(d, "dilkit.models.Mlp.logits")
            nodes = int(tab.nodes1[d] - tab.nodes0[d])
            slot = by_t[t]
            slot["ms"] += tab.dur[d] / 1e6
            slot["steps"] += n_steps
            slot["fwd"] += fwd
            slot["nodes"] += nodes
            slot["est"] += tab.count_inside(d, "dilkit.trainer.hdh_discriminator_estimate")
            if method == "ER" and t == 5:
                er5["steps"] += n_steps
                er5["fwd"] += fwd
                er5["nodes"] += nodes
            if t >= 2:
                steps_t2 += n_steps
                phase = None
                for c in np.flatnonzero(tab.parent == d):
                    name = tab.name[c]
                    if name in phase_of:
                        phase = phase_of[name]
                    elif name not in followers or phase is None:
                        continue
                    phase_ms[phase] += tab.dur[c] / 1e6
        for t, slot in by_t.items():
            if slot["steps"]:
                m[f"trainer.step_ms.t{t}"] = slot["ms"] / slot["steps"]
                m[f"models.forward_per_step.t{t}"] = slot["fwd"] / slot["steps"]
                m[f"autodiff.nodes_per_step.t{t}"] = slot["nodes"] / slot["steps"]
                if t >= 2:
                    m[f"divergence.estimate_per_step.t{t}"] = slot["est"] / slot["steps"]
        if er5["steps"]:
            m["models.forward_per_step.er_t5"] = er5["fwd"] / er5["steps"]
            m["autodiff.nodes_per_step.er_t5"] = er5["nodes"] / er5["steps"]
        if steps_t2:
            for phase, ms in phase_ms.items():
                m[f"trainer.phase.{phase}_ms"] = ms / steps_t2
            m["divergence.estimate_ms"] = incl_ms(
                "dilkit.trainer.hdh_discriminator_estimate", steps_t2)
        m["trainer.snapshot_ms"] = mean_ms(tab.of("dilkit.trainer.snapshot_history"))
        for method in self.methods:
            if method != "UDIL":
                durs = [tab.dur[s] / 1e9 for s in seqs if tab.tags[s][0] == method]
                m[f"trainer.seq_s.{SEQ_TAG[method]}"] = float(np.mean(durs))
        m["models.forward_ms"] = self_ms(["dilkit.models.Mlp.logits"], steps)
        m["models.sgd_ms"] = incl_ms("dilkit.trainer.sgd_step", steps)
        m["autodiff.backward_ms"] = self_ms(["dilkit.autodiff.Tensor.backward"], steps)
        m["autodiff.backward_per_step"] = calls(["dilkit.autodiff.Tensor.backward"], steps)
        for term, names in LOSS_SPANS.items():
            m[f"losses.{term}_ms"] = self_ms(names, steps)
            m[f"losses.{term}_per_step"] = calls(names, steps)
        m["membank.sample_ms"] = incl_ms("dilkit.membank.MemoryBank.sample_past", steps)
        m["membank.update_ms"] = mean_ms(
            tab.of("dilkit.membank.MemoryBank.update_after_domain"))
        m["metrics.eval_ms"] = tab.dur[evals].sum() / 1e6 / len(seqs)
        for name, value in self.quality().items():
            m[f"metrics.{name}"] = value
        m["datagen.gen_ms"] = mean_ms(tab.of("dilkit.expcli.cli.gen_hd_balls"))
        persist = tab.of("bench.results_payload") | tab.of("bench.write_results")
        m["expcli.persist_ms"] = tab.dur[persist].sum() / 1e6 / len(seqs)
        return {k: float(v) for k, v in m.items()}


def install_training_spans(tracer: Tracer) -> None:
    trainer = dilkit.trainer

    def domain_tag(state, domain_data):
        return (domain_data.domain_id,)

    tracer.wrap(trainer, "train_domain", "dilkit.trainer.train_domain", domain_tag)
    for attr in ("snapshot_history", "coeff_stats_for_step",
                 "hdh_discriminator_estimate", "v_d", "v_01", "v_l",
                 "encoder_aux_loss", "classification_loss", "sgd_step",
                 "accuracy"):
        tracer.wrap(trainer, attr, f"dilkit.trainer.{attr}")
    for attr in ("v_d", "classification_loss"):
        tracer.wrap(dilkit.losses, attr, f"dilkit.losses.{attr}")
    tracer.wrap(dilkit.expcli.cli, "gen_hd_balls", "dilkit.expcli.cli.gen_hd_balls")
    tracer.wrap(Mlp, "logits", "dilkit.models.Mlp.logits")
    tracer.wrap(Tensor, "backward", "dilkit.autodiff.Tensor.backward")
    tracer.count_constructions(Tensor)
    for attr in ("sample_past", "update_after_domain"):
        tracer.wrap(MemoryBank, attr, f"dilkit.membank.MemoryBank.{attr}")
    bench = sys.modules[__name__]

    def sequence_tag(stream, config):
        return (config.method, stream.n_domains, config.sgd.step_count)

    tracer.wrap(bench, "run_sequence", "bench.run_sequence", sequence_tag)
    for attr in ("results_payload", "write_results"):
        tracer.wrap(bench, attr, f"bench.{attr}")


# -- bound audit ------------------------------------------------------------

def audit_instance(rng, n_domains: int, points: int, class_size: int, c_gen: float):
    """One instance of the verify-bounds loop: draw it, run every check."""
    inst = random_instance(rng, n_domains=n_domains, points_per_domain=points,
                           class_size=class_size)
    return [check_intra_bound(inst), check_cross_bound(inst),
            check_unified_bound(inst),
            tightest_bound_grid(inst, grid_resolution=AUDIT_GRID),
            check_erm_bound_shape(inst, c_gen)]


def draw_params(rng) -> tuple[int, int, int]:
    return (int(rng.integers(*AUDIT_DOMAINS)), int(rng.integers(*AUDIT_POINTS)),
            int(rng.choice(AUDIT_CLASS_SIZES)))


class AuditWorkload:
    def __init__(self, seed: int):
        self.config = parse_config(f"bounds_seed = {seed}\n"
                                   f"grid_resolution = {AUDIT_GRID}\n")

    def loop(self, seconds: float, started: float) -> Outcome:
        out = Outcome()
        rng = substream(self.config.bounds_seed, "perfbench", "bounds")
        first_block = []
        tick = time.perf_counter()
        while (out.attempted < DIGEST_INSTANCES
               or time.perf_counter() - started < seconds):
            params = draw_params(rng)
            out.attempted += 1
            call_tick = time.perf_counter()
            try:
                reports = audit_instance(rng, *params, self.config.hp.c_gen)
            except Exception:  # a failed instance is counted, the loop goes on
                traceback.print_exc()
                out.fail(f"instance {out.attempted - 1}: raised")
                continue
            out.call_s.append(time.perf_counter() - call_tick)
            bad = [r.name for r in reports if r.n_violations]
            if bad:
                out.fail(f"instance {out.attempted - 1} {params}: violations in {bad}")
            else:
                out.items += 1
            if len(first_block) < DIGEST_INSTANCES:
                first_block.append(
                    [[r.name, r.n_checks, r.n_violations, repr(r.max_violation)]
                     for r in reports] + [reports[3].details["argmin_omega"]])
        out.wall_s = time.perf_counter() - tick
        out.digest = _sha256(first_block)
        return out

    def flip_sign_control(self) -> int:
        """Negative control of verify-bounds --selftest-flip-sign: the
        unified comparison asserted from the wrong side must flag."""
        rng = substream(self.config.bounds_seed, "perfbench", "flip-sign")
        flagged = 0
        for _ in range(FLIP_SIGN_INSTANCES):
            n_domains, points, class_size = draw_params(rng)
            inst = random_instance(rng, n_domains=n_domains,
                                   points_per_domain=points,
                                   class_size=class_size)
            flagged += int(deterministic_bound(inst) - total_risk(inst) > 1e-12)
        return flagged

    def check_control(self, out: Outcome) -> None:
        if self.flip_sign_control() == 0:
            out.invalid = "flip-sign control flagged nothing"

    def run(self, seconds: float, out_dir: str) -> tuple[Outcome, dict]:
        out = self.loop(seconds, time.perf_counter())
        self.check_control(out)
        return out, {}

    def run_traced(self, seconds: float, out_dir: str, tracer: Tracer):
        started = time.perf_counter()
        ref = self.loop(0.0, started)      # the first block, untraced
        bench = sys.modules[__name__]

        def audit_tag(rng, n_domains, *rest):
            return (n_domains,)

        tracer.wrap(bench, "audit_instance", "bench.audit_instance", audit_tag)
        for attr in BOUND_SPANS.values():
            tracer.wrap(bench, attr, f"bench.{attr}")
        tracer.wrap(dilkit.bounds, "hdh_exact", "dilkit.bounds.hdh_exact")
        try:
            out = self.loop(seconds, started)
        finally:
            tracer.uninstall()
        self.check_control(out)
        if out.digest != ref.digest:
            out.invalid = "traced audit differs from the untraced reference"
        if not ref.call_s:
            out.invalid = "no untraced reference instance completed"
            return out, {}
        tab = SpanTable(tracer)
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        audits = tab.ids("bench.audit_instance")
        n = len(audits)
        for metric, attr in BOUND_SPANS.items():
            m[f"bounds.{metric}_ms"] = tab.dur[tab.of(f"bench.{attr}")].sum() / 1e6 / n
        exact = tab.of("dilkit.bounds.hdh_exact")
        m["divergence.hdh_exact_ms"] = tab.dur[exact].sum() / 1e6 / n
        m["divergence.hdh_exact_per_instance"] = exact.sum() / n
        per_t: dict[int, list[int]] = {}
        for a in audits:
            per_t.setdefault(tab.tags[a][0], []).append(
                tab.count_inside(a, "dilkit.bounds.hdh_exact"))
        for t, counts in per_t.items():
            m[f"divergence.hdh_exact_per_instance.t{t}"] = float(np.mean(counts))
        first = audits[:DIGEST_INSTANCES]
        m["trace.overhead"] = (tab.dur[first].sum() / 1e9) / sum(ref.call_s)
        return out, {k: float(v) for k, v in m.items()}


# -- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRAINING) + ["bounds-audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "bounds-audit":
        workload = AuditWorkload(args.seed)
    else:
        workload = TrainingWorkload(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="results-", dir=OUT_DIR)
    probe_before = host_probe()
    try:
        if args.trace:
            tracer = Tracer()
            out, metrics = workload.run_traced(args.seconds, out_dir, tracer)
            extra = {}
            if tracer.missing:
                # a metric of a name that was not wrapped would read 0
                out.invalid = ("names the program no longer defines: "
                               + ", ".join(tracer.missing))
        else:
            out, extra = workload.run(args.seconds, out_dir)
            metrics = {"peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if out.items:               # else no metric of the loop exists
                metrics["items_per_s"] = out.items / out.wall_s
                metrics["call_ms.p50"] = statistics.median(out.call_s) * 1e3
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    probe_after = host_probe()

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s,
        "correct": out.failed == 0 and not out.invalid,
        "attempted": out.attempted, "failed": out.failed,
        "problems": out.problems, "invalid": out.invalid,
        "digest": out.digest,
        "call_s": out.call_s, "wall_s": out.wall_s,
        "call_ms_p95": _p95(out.call_s) * 1e3 if out.call_s else None,
        "metrics": metrics,
        "units": PER_LAYER_UNITS if args.trace else END_TO_END_UNITS,
        "quality": extra,
        "probe": {"before": probe_before, "after": probe_after},
        "env": environment(),
    }
    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "trace"), exist_ok=True)
        path = os.path.join(OUT_DIR, "trace",
                            f"{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(path, f"perfbench {args.workload} seed {args.seed}")
        record["spans"] = path
        record["unwrapped_names"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
