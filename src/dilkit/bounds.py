"""Exact verification of the risk inequalities on finite instances.

Each instance treats empirical distributions over a small ground set as the
true distributions, so every term (risks, disagreements, the
symmetric-difference divergence) is exactly computable and the
pre-generalization inequalities must hold to floating-point precision.
The concentration radical is checked only as algebraic bookkeeping.

Every term is read off a sample, so it depends on a hypothesis only through
its labels there, and a sample of u distinct points tells apart at most 2^u
labelings.  The audit therefore groups the hypotheses per domain by their
labels on its sample and works over classes, not hypothesis pairs.  A
class's members are equal on the sample, so each class entry is the same
float, computed in the same order, as each member's entry; a maximum over
classes is the maximum over hypothesis pairs, and a violating class pair
counts once per hypothesis pair it stands for.  Where a term mixes two
domains (the divergences and the cross check), it is monotone in the term
read off the past domain, so its maximum over the hypothesis pairs of two
current classes is reached at their extreme values, which reductions over
the current classes find.  The reports are bitwise those of the full
[m, m] computation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .autodiff import ContractError
from .coeffs import TRIPLE_PRESETS, from_preset, preset_triple
# hdh_exact has no caller here; perfbench wraps it by this name
from .divergence import (
    FiniteHypothesisClass, _as_sample, _pairwise_disagreement, hdh_exact,
)
from .losses import CoeffStats, radical_terms

TOL = 1e-12
# the instance sizes random_instance accepts and the coarsest grid
MIN_DOMAINS = 2
POINTS_RANGE = range(1, 9)
CLASS_SIZE_RANGE = range(2, 257)
MIN_GRID_RESOLUTION = 2
# sample positions per error code: a sum of distinct powers of two below
# 2**53 is exact in float64, so the codes come out of the same matmul as
# the error counts
CODE_BITS = 52
_POWERS = 2.0 ** np.arange(CODE_BITS)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Classes(NamedTuple):
    """Hypotheses grouped by equal codes, classes numbered in code order:
    ``of[k]`` is hypothesis k's class; ``order`` lists the hypotheses class
    by class, class c's run starting at ``starts[c]``; ``members[c]`` is
    one hypothesis of class c."""

    of: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    members: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        """How many hypotheses each class holds."""
        return np.bincount(self.of)


def _group(codes: np.ndarray) -> Classes:
    """Classes of equal nonnegative integer codes, found by one sort: exact
    for any code, and linear in memory however wide the codes are."""
    order = codes.argsort()
    ordered = codes[order]
    first = np.empty(codes.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return Classes(*map(_read_only, (ordered[starts].searchsorted(codes),
                                     order, starts, order[starts])))


def _join(a: Classes, b: Classes) -> Classes:
    """Classes of the hypotheses that share both a class of a and one of b
    (codes below m**2, so no int64 overflow)."""
    return _group(a.of * b.starts.size + b.of)


@dataclass(frozen=True)
class BoundInstance:
    """Finite ground set with per-domain samples and an explicit class.

    ``domain_samples[i]`` are ground-set indices for domain i+1; the last
    domain is the current one.  ``h_idx``/``hprev_idx`` select the student
    and the frozen teacher from the class.  ``omega`` holds one coefficient
    triple per past domain.  Its arrays are read-only copies; each exact
    term is computed once, on first use, and shared by every check.

    The disagreements are kept per class of hypotheses, not per
    hypothesis: a domain's ``classes`` group the hypotheses by their labels
    on its sample, and its disagreement matrix is [P, P] over its P
    classes.  Hypotheses with equal labels on a sample have equal risks
    there and equal disagreements with every other hypothesis, so
    ``disagreements[d][c, c']`` is bitwise the entry of every hypothesis
    pair of classes c and c', and ``disagreements[d][of][:, of]``, with
    ``of = classes[d].of``, is the full [m, m] matrix.
    """

    hclass: FiniteHypothesisClass
    true_labels: np.ndarray
    domain_samples: tuple[np.ndarray, ...]
    h_idx: int
    hprev_idx: int
    omega: np.ndarray

    def __post_init__(self):
        n = self.hclass.n_points
        y = _read_only(np.array(self.true_labels, dtype=np.int8))
        if y.shape != (n,) or not ((y == 0) | (y == 1)).all():
            raise ContractError("true_labels must be 0/1 over the ground set")
        samples = tuple(_read_only(_as_sample(s, n, f"domain {i}'s sample"))
                        for i, s in enumerate(self.domain_samples, start=1))
        if len(samples) < 2:
            raise ContractError("need at least two domains")
        m = self.hclass.n_hypotheses
        if not (0 <= self.h_idx < m and 0 <= self.hprev_idx < m):
            raise ContractError("h and H_prev must be members of the class")
        om = _read_only(np.array(self.omega, dtype=np.float64))
        if om.shape != (len(samples) - 1, 3):
            raise ContractError(
                f"omega must have shape ({len(samples) - 1}, 3)")
        # negated, so that a NaN entry, false in every comparison, fails it
        if not (om.min() >= 0 and np.abs(om.sum(axis=1) - 1.0).max() <= 1e-9):
            raise ContractError("omega rows must lie on the simplex")
        object.__setattr__(self, "true_labels", y)
        object.__setattr__(self, "domain_samples", samples)
        object.__setattr__(self, "omega", om)

    @property
    def n_domains(self) -> int:
        return len(self.domain_samples)

    @cached_property
    def _error_tallies(self) -> tuple[np.ndarray, list[int]]:
        """One matmul over every hypothesis's errors (labels != true labels):
        column d counts its errors on domain d's sample, and each later
        column reads its errors on up to CODE_BITS positions of one sample
        as binary digits, an integer code.  Also returns each code column's
        domain."""
        t = self.n_domains
        chunks = [(d, idx[lo:lo + CODE_BITS])
                  for d, idx in enumerate(self.domain_samples)
                  for lo in range(0, idx.size, CODE_BITS)]
        weights = np.zeros((self.hclass.n_points, t + len(chunks)))
        for d, idx in enumerate(self.domain_samples):
            weights[:, d] = np.bincount(idx, minlength=self.hclass.n_points)
        # a point repeated in a chunk keeps one of its powers; each power
        # still marks one point, so equal codes mean equal labels
        for k, (_, pos) in enumerate(chunks, start=t):
            weights[pos, k] = _POWERS[:pos.size]
        errors = self.hclass.labelings != self.true_labels
        return errors @ weights, [d for d, _ in chunks]

    @cached_property
    def risks(self) -> np.ndarray:
        """[m, T] matrix: 0-1 risk of every hypothesis on every domain (an
        exact error count over the sample size, as a mean computes it)."""
        tallies, _ = self._error_tallies
        sizes = [idx.size for idx in self.domain_samples]
        return _read_only(tallies[:, :self.n_domains] / sizes)

    @cached_property
    def classes(self) -> tuple[Classes, ...]:
        """Per domain, the hypotheses grouped by their labels on its sample:
        the classes of its error codes, joined when it has several."""
        tallies, domain_of = self._error_tallies
        codes = tallies[:, self.n_domains:].T.astype(np.int64)
        found: list[Classes | None] = [None] * self.n_domains
        for d, code in zip(domain_of, codes):
            part = _group(code)
            found[d] = part if found[d] is None else _join(found[d], part)
        return tuple(found)

    @cached_property
    def disagreements(self) -> tuple[np.ndarray, ...]:
        """One [P, P] pairwise-disagreement matrix per domain over its P
        classes, built from one member of each."""
        lab = self.hclass.labelings
        return tuple(
            _read_only(_pairwise_disagreement(lab[c.members], idx))
            for c, idx in zip(self.classes, self.domain_samples))

    @cached_property
    def divergences(self) -> np.ndarray:
        """Exact divergence between each past domain and the current one,
        read off the cached disagreement matrices (none is rebuilt).
        dis_i - dis_cur rises with dis_i, so over the hypothesis pairs of
        two current classes its largest magnitude is hi - dis_cur or
        dis_cur - lo, at the greatest and least dis_i among those pairs:
        reductions over the current classes' runs of dis_i's rows and
        columns, gathered onto the hypotheses."""
        *past, cur = self.disagreements
        last = self.classes[-1]
        out = []
        for c, dis in zip(self.classes, past):
            on_past = c.of[last.order]
            rows, runs = dis[on_past], last.starts
            lo = np.minimum.reduceat(
                np.minimum.reduceat(rows, runs)[:, on_past], runs, axis=1)
            hi = np.maximum.reduceat(
                np.maximum.reduceat(rows, runs)[:, on_past], runs, axis=1)
            out.append(2.0 * max(float(np.subtract(hi, cur, out=hi).max()),
                                 float(np.subtract(cur, lo, out=lo).max())))
        return _read_only(np.array(out))

    @cached_property
    def intra_tallies(self) -> tuple[tuple[float, int], ...]:
        """Each domain's intra check over its classes (largest gap,
        violating pairs); the current domain's is the cross check's too."""
        return tuple(_class_tally(self, d, m) for d, m in enumerate(self.disagreements))

    @cached_property
    def coeff_stats(self) -> CoeffStats:
        """The exact terms of the chosen (h, H_prev) as the statistics
        V_01 weighs the coefficients by."""
        h, hp = self.h_idx, self.hprev_idx
        dis = _read_only(np.array([d[c.of[h], c.of[hp]] for d, c in
                                   zip(self.disagreements, self.classes)]))
        return CoeffStats(eps_replay=self.risks[h, :-1], eps_intra=dis[:-1],
                          eps_cross=dis[-1], dhat=self.divergences,
                          eps_hist=self.risks[hp, :-1])


@dataclass
class CheckReport:
    name: str
    n_checks: int
    n_violations: int
    max_violation: float
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def _gaps(margin: np.ndarray, offset, rows: np.ndarray,
          cols: np.ndarray) -> np.ndarray:
    """rows[c] - ((margin[c, c'] (+ offset)) + cols[c']), summed in that
    order as for each hypothesis pair the two classes stand for."""
    if offset is not None:
        margin = np.add(margin, offset)
    gap = np.add(margin, cols)
    return np.subtract(rows[:, None], gap, out=gap)


def _tally(gap: np.ndarray, classes: Classes | None) -> tuple[float, int]:
    """The largest gap and, only when it exceeds TOL, the hypothesis pairs
    above TOL: sizes[c] * sizes[c'] per class pair, or one per entry
    without classes."""
    top = float(gap.max())
    if top <= TOL:
        return top, 0
    if classes is None:
        return top, int(np.count_nonzero(gap > TOL))
    sizes = classes.sizes
    return top, int(sizes @ (gap > TOL) @ sizes)


def _report(name: str, inst: BoundInstance, tallies) -> CheckReport:
    m = inst.hclass.n_hypotheses
    return CheckReport(name, m * m * len(tallies), sum(v for _, v in tallies),
                       max(top for top, _ in tallies))


def _class_tally(inst: BoundInstance, d: int, margin: np.ndarray,
                 offset=None) -> tuple[float, int]:
    """Domain d's pair check over its classes, on which its risk is
    constant, against a [P, P] margin over them."""
    c = inst.classes[d]
    risk = inst.risks[c.members, d]
    return _tally(_gaps(margin, offset, risk, risk), c)


def _cross_tally(inst: BoundInstance, d: int, offset) -> tuple[float, int]:
    """Past domain d's cross check at the given offset.  A gap rises with
    its row's risk and falls with its column's, so over the hypothesis
    pairs of two current classes the largest pairs the riskiest of one with
    the safest of the other; violations, when there are any, are counted
    over every hypothesis pair."""
    cur, last = inst.disagreements[-1], inst.classes[-1]
    risk = inst.risks[:, d]
    by_class = risk[last.order]
    top = float(_gaps(cur, offset, np.maximum.reduceat(by_class, last.starts),
                      np.minimum.reduceat(by_class, last.starts)).max())
    if top <= TOL:
        return top, 0
    return _tally(_gaps(cur[last.of][:, last.of], offset, risk, risk), None)


def check_intra_bound(inst: BoundInstance) -> CheckReport:
    """risk_i(h) <= disagreement_i(h, H') + risk_i(H'), over domain i's
    classes, on which the risk is constant."""
    return _report("intra_bound", inst, inst.intra_tallies)


def check_cross_bound(inst: BoundInstance) -> CheckReport:
    """risk_i(h) <= disagreement_cur(h, H') + half-divergence + risk_i(H');
    on the current domain, over its own classes, its divergence to itself
    being exactly 0: the intra check's term there (no disagreement is -0.0,
    so adding 0.0 would change no bit)."""
    return _report("cross_bound", inst, [
        *(_cross_tally(inst, d, 0.5 * div)
          for d, div in enumerate(inst.divergences)),
        inst.intra_tallies[-1]])


def deterministic_bound(inst: BoundInstance,
                        omega: np.ndarray | None = None) -> float:
    """The combined right-hand side evaluated exactly at the given
    coefficients (default: the instance's own): the student's current risk
    plus the coefficients weighed as V_01 weighs them."""
    om = np.asarray(inst.omega if omega is None else omega, dtype=np.float64)
    if om.shape != inst.omega.shape:
        raise ContractError(
            f"omega must have shape {inst.omega.shape}, got {om.shape}")
    return float(inst.risks[inst.h_idx, -1]
                 + np.sum(om * inst.coeff_stats.weights()))


def total_risk(inst: BoundInstance) -> float:
    """Left-hand side: the student's summed risk over all domains."""
    return float(inst.risks[inst.h_idx].sum())


def check_unified_bound(inst: BoundInstance) -> CheckReport:
    gap = total_risk(inst) - deterministic_bound(inst)
    return CheckReport("unified_bound", 1, int(gap > TOL), float(gap))


@lru_cache(maxsize=16)
def barycentric_grid(resolution: int) -> np.ndarray:
    """All triples (k1, k2, k3)/resolution with nonnegative integer parts
    (read-only, built once per resolution)."""
    if resolution < MIN_GRID_RESOLUTION:
        raise ContractError(f"grid resolution must be >= {MIN_GRID_RESOLUTION}")
    pts = [(i / resolution, j / resolution, (resolution - i - j) / resolution)
           for i in range(resolution + 1)
           for j in range(resolution + 1 - i)]
    return _read_only(np.array(pts))


@lru_cache(maxsize=64)
def _grid_candidates(resolution: int,
                     t: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The presets with a triple at t (ESM-ER has none at t = 2), and the
    candidate triples: the barycentric grid, then those presets' triples
    (read-only, built once per (resolution, t))."""
    presets = tuple(m for m in TRIPLE_PRESETS
                    if not (m == "ESM-ER" and t == 2))
    return presets, _read_only(np.concatenate(
        [barycentric_grid(resolution),
         np.array([preset_triple(m, t) for m in presets])]))


def tightest_bound_grid(inst: BoundInstance,
                        grid_resolution: int = 10) -> CheckReport:
    """Minimize the combined bound over per-domain coefficient candidates
    (a barycentric grid joined with every preset's triple; ESM-ER has none
    at t = 2) and compare the minimum against each full preset."""
    presets, cands = _grid_candidates(grid_resolution, inst.n_domains)
    # the bound adds one term per past domain, vals[i, k] domain i's at
    # candidate k (presets last); one column sum totals the row minima and
    # each preset alike, so the minimum is never above a preset by rounding
    vals = inst.coeff_stats.weights() @ cands.T
    totals = inst.risks[inst.h_idx, -1] + np.column_stack(
        [vals.min(axis=1), vals[:, -len(presets):]]).sum(axis=0)
    best_total = float(totals[0])
    preset_values = dict(zip(presets, totals[1:].tolist()))
    violations = sum(best_total > v + 1e-9 for v in preset_values.values())
    worst = max(best_total - v for v in preset_values.values())
    return CheckReport(
        "tightest_bound_grid", len(presets), int(violations), float(worst),
        details={"argmin_omega": cands[vals.argmin(axis=1)].tolist(),
                 "argmin_value": best_total,
                 "preset_values": preset_values})


def radical_argument(omega: np.ndarray, n_current: int,
                     n_memory) -> float:
    """V_01's radical squared:
    (1 + sum beta)^2 / N_t + sum (gamma_i + alpha_i)^2 / N_i."""
    om = np.asarray(omega, dtype=np.float64)
    if om.ndim != 2 or om.shape[1] != 3:
        raise ContractError(f"omega must have shape (t-1, 3), got {om.shape}")
    v, w = radical_terms(om, n_current, n_memory)
    return float((v * v * w).sum())


def check_erm_bound_shape(inst: BoundInstance, c_gen: float = 1.0) -> CheckReport:
    """Bookkeeping identities of the concentration radical: at the
    pure-replay preset it reduces to the plain per-domain form
    1/N_t + sum 1/N_i, and at the pure-distillation preset all memory terms
    vanish leaving t^2/N_t.  Probabilistic content is out of scope."""
    t = inst.n_domains
    n_cur = int(inst.domain_samples[t - 1].size)
    n_mem = [int(s.size) for s in inst.domain_samples[:-1]]

    plain = 1.0 / n_cur + float(np.sum(1.0 / np.asarray(n_mem, dtype=float)))
    gap_er = abs(radical_argument(from_preset("ER", t), n_cur, n_mem) - plain)
    gap_lwf = abs(radical_argument(from_preset("LwF", t), n_cur, n_mem)
                  - t ** 2 / n_cur)

    worst = max(gap_er, gap_lwf) * c_gen
    violations = int(gap_er > TOL) + int(gap_lwf > TOL)
    return CheckReport("erm_bound_shape", 2, violations, float(worst),
                       details={"replay_form": plain,
                                "distill_form": t ** 2 / n_cur})


def random_instance(rng: np.random.Generator, n_domains: int = 3,
                    points_per_domain: int = 6,
                    class_size: int = 64) -> BoundInstance:
    """Randomized exhaustive instance for the verification suites."""
    if not (MIN_DOMAINS <= n_domains and points_per_domain in POINTS_RANGE
            and class_size in CLASS_SIZE_RANGE):
        raise ContractError("instance parameters outside the supported range")
    n = n_domains * points_per_domain
    labelings = rng.integers(0, 2, size=(class_size, n)).astype(np.int8)
    hclass = FiniteHypothesisClass(labelings)
    samples = tuple(
        rng.integers(0, n, size=rng.integers(min(2, points_per_domain),
                                             points_per_domain + 1))
        for _ in range(n_domains))
    omega = rng.dirichlet((1.0, 1.0, 1.0), size=n_domains - 1)
    return BoundInstance(
        hclass=hclass,
        true_labels=rng.integers(0, 2, size=n).astype(np.int8),
        domain_samples=samples,
        h_idx=int(rng.integers(class_size)),
        hprev_idx=int(rng.integers(class_size)),
        omega=omega)
