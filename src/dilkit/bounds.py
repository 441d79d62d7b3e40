"""Exact verification of the risk inequalities on finite instances.

Each instance treats empirical distributions over a small ground set as the
true distributions, so every term (risks, disagreements, the
symmetric-difference divergence) is exactly computable and the
pre-generalization inequalities must hold to floating-point precision.
The concentration radical is checked only as algebraic bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .autodiff import ContractError
from .coeffs import TRIPLE_PRESETS, preset_triple
# hdh_exact has no caller here; perfbench wraps it by this name
from .divergence import (
    FiniteHypothesisClass, _as_sample, _hdh, _pairwise_disagreement, hdh_exact,
)
from .losses import CoeffStats, radical_terms

TOL = 1e-12
# the instance sizes random_instance accepts and the coarsest grid
MIN_DOMAINS = 2
POINTS_RANGE = range(1, 9)
CLASS_SIZE_RANGE = range(2, 257)
MIN_GRID_RESOLUTION = 2


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BoundInstance:
    """Finite ground set with per-domain samples and an explicit class.

    ``domain_samples[i]`` are ground-set indices for domain i+1; the last
    domain is the current one.  ``h_idx``/``hprev_idx`` select the student
    and the frozen teacher from the class.  ``omega`` holds one coefficient
    triple per past domain.  Its arrays are read-only copies; each exact
    term is computed once, on first use, and shared by every check.
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
        if om.min() < 0 or np.abs(om.sum(axis=1) - 1.0).max() > 1e-9:
            raise ContractError("omega rows must lie on the simplex")
        object.__setattr__(self, "true_labels", y)
        object.__setattr__(self, "domain_samples", samples)
        object.__setattr__(self, "omega", om)

    @property
    def n_domains(self) -> int:
        return len(self.domain_samples)

    @cached_property
    def risks(self) -> np.ndarray:
        """[m, T] matrix: 0-1 risk of every hypothesis on every domain."""
        lab = self.hclass.labelings
        return _read_only(np.stack(
            [(lab[:, idx] != self.true_labels[idx]).mean(axis=1)
             for idx in self.domain_samples], axis=1))

    @cached_property
    def disagreements(self) -> tuple[np.ndarray, ...]:
        """One [m, m] pairwise-disagreement matrix per domain."""
        return tuple(_read_only(_pairwise_disagreement(self.hclass.labelings, idx))
                     for idx in self.domain_samples)

    @cached_property
    def divergences(self) -> np.ndarray:
        """Exact divergence between each past domain and the current one,
        read off the cached disagreement matrices (none is rebuilt)."""
        *past, cur = self.disagreements
        return _read_only(np.array([_hdh(d, cur) for d in past]))

    @cached_property
    def coeff_stats(self) -> CoeffStats:
        """The exact terms of the chosen (h, H_prev) as the statistics
        V_01 weighs the coefficients by."""
        h, hp = self.h_idx, self.hprev_idx
        dis = _read_only(np.array([d[h, hp] for d in self.disagreements]))
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


def _pair_check(name: str, inst: BoundInstance, margins,
                offsets=None) -> CheckReport:
    """For every pair (h, H') and every domain i:
    risk_i(h) <= margins[i][h, H'] (+ offsets[i]) + risk_i(H'), summed in
    that order into one scratch buffer; gaps above TOL are counted only in
    a domain whose largest gap exceeds TOL (elsewhere there are none)."""
    risks, m = inst.risks, inst.hclass.n_hypotheses
    gap = np.empty((m, m))
    worst, violations = -np.inf, 0
    for d, margin in enumerate(margins):
        if offsets is not None:
            margin = np.add(margin, offsets[d], out=gap)
        np.add(margin, risks[None, :, d], out=gap)
        np.subtract(risks[:, d, None], gap, out=gap)
        top = float(gap.max())
        worst = max(worst, top)
        if top > TOL:
            violations += int(np.count_nonzero(gap > TOL))
    return CheckReport(name, m * m * len(margins), violations, worst)


def check_intra_bound(inst: BoundInstance) -> CheckReport:
    """risk_i(h) <= disagreement_i(h, H') + risk_i(H')."""
    return _pair_check("intra_bound", inst, inst.disagreements)


def check_cross_bound(inst: BoundInstance) -> CheckReport:
    """risk_i(h) <= disagreement_cur(h, H') + half-divergence + risk_i(H'),
    where the current domain's divergence to itself is exactly 0."""
    half_divs = np.append(0.5 * inst.divergences, 0.0)
    return _pair_check("cross_bound", inst,
                       [inst.disagreements[-1]] * inst.n_domains, half_divs)


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


def barycentric_grid(resolution: int) -> np.ndarray:
    """All triples (k1, k2, k3)/resolution with nonnegative integer parts
    (read-only, built once per resolution)."""
    if resolution < MIN_GRID_RESOLUTION:
        raise ContractError(f"grid resolution must be >= {MIN_GRID_RESOLUTION}")
    return _grid(resolution)


@lru_cache(maxsize=16)
def _grid(resolution: int) -> np.ndarray:
    pts = [(i / resolution, j / resolution, (resolution - i - j) / resolution)
           for i in range(resolution + 1)
           for j in range(resolution + 1 - i)]
    return _read_only(np.array(pts))


def tightest_bound_grid(inst: BoundInstance,
                        grid_resolution: int = 10) -> CheckReport:
    """Minimize the combined bound over per-domain coefficient candidates
    (a barycentric grid joined with every preset's triple; ESM-ER has none
    at t = 2) and compare the minimum against each full preset."""
    t = inst.n_domains
    presets = [m for m in TRIPLE_PRESETS if not (m == "ESM-ER" and t == 2)]
    cands = np.concatenate([barycentric_grid(grid_resolution),
                            np.array([preset_triple(m, t) for m in presets])])
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

    er = np.array([preset_triple("ER", t) for _ in range(t - 1)])
    plain = 1.0 / n_cur + float(np.sum(1.0 / np.asarray(n_mem, dtype=float)))
    gap_er = abs(radical_argument(er, n_cur, n_mem) - plain)

    lwf = np.array([preset_triple("LwF", t) for _ in range(t - 1)])
    gap_lwf = abs(radical_argument(lwf, n_cur, n_mem) - t ** 2 / n_cur)

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
