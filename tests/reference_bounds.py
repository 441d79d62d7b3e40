"""Test-only reference: the bound checks as they were before each exact
term was computed once per instance, and before the bound's arithmetic
moved to the weights and radical that V_01 descends.  Every check here
rebuilds its own risks, disagreement matrices and divergences and writes
the bound's weights out term by term; the differential tests in
test_bounds.py compare the library checks against these.
`_pairwise_disagreement`, `_hdh` and `_pair_check`'s gap are the
allocating kernels as they were before the library's wrote into arrays
they own, and before it grouped the hypotheses by their labels on each
sample: every matrix here is [m, m] over hypothesis pairs, so the library's
class-level kernels are compared with these and not with themselves.
`check_erm_bound_shape` reads none of these terms and is not copied, and
`radical_argument` is the closed form the old library wrote."""
from __future__ import annotations

import numpy as np

from dilkit.bounds import TOL, BoundInstance, CheckReport, barycentric_grid
from dilkit.coeffs import TRIPLE_PRESETS, preset_triple


def _pairwise_disagreement(labelings: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """[m, m] matrix of empirical P[h != h'] over the sample idx."""
    sub = labelings[:, idx].astype(np.float64)
    cnt = sub.sum(axis=1)
    gram = sub @ sub.T
    return (cnt[:, None] + cnt[None, :] - 2.0 * gram) / idx.size


def _hdh(dis_p: np.ndarray, dis_q: np.ndarray) -> float:
    """2 * max |dis_p - dis_q| over two samples' disagreement matrices."""
    return 2.0 * np.max(np.abs(dis_p - dis_q))


def _pair_check(name: str, inst: BoundInstance, margins) -> CheckReport:
    """For every pair (h, H') and every domain i:
    risk_i(h) <= margins[i][h, H'] + risk_i(H')."""
    risks = _risks(inst)
    worst = -np.inf
    violations = 0
    for d, margin in enumerate(margins):
        gap = risks[:, d, None] - (margin + risks[None, :, d])
        worst = max(worst, float(gap.max()))
        violations += int((gap > TOL).sum())
    checks = inst.hclass.n_hypotheses ** 2 * len(margins)
    return CheckReport(name, checks, violations, worst)


def _risks(inst: BoundInstance) -> np.ndarray:
    """[m, T] matrix: 0-1 risk of every hypothesis on every domain."""
    lab = inst.hclass.labelings
    cols = []
    for idx in inst.domain_samples:
        cols.append((lab[:, idx] != inst.true_labels[idx]).mean(axis=1))
    return np.stack(cols, axis=1)


def _divergences_to_current(inst: BoundInstance) -> np.ndarray:
    """Exact divergence between each past domain and the current one."""
    lab = inst.hclass.labelings
    *past, cur = inst.domain_samples
    return np.array([_hdh(_pairwise_disagreement(lab, idx),
                          _pairwise_disagreement(lab, cur)) for idx in past])


def check_intra_bound(inst: BoundInstance) -> CheckReport:
    lab = inst.hclass.labelings
    return _pair_check("intra_bound", inst, [
        _pairwise_disagreement(lab, idx) for idx in inst.domain_samples])


def check_cross_bound(inst: BoundInstance) -> CheckReport:
    lab = inst.hclass.labelings
    dis_cur = _pairwise_disagreement(lab, inst.domain_samples[-1])
    return _pair_check("cross_bound", inst, [
        dis_cur + 0.5 * _hdh(_pairwise_disagreement(lab, idx), dis_cur)
        for idx in inst.domain_samples])


def _unified_terms(inst: BoundInstance):
    lab = inst.hclass.labelings
    h = lab[inst.h_idx]
    hp = lab[inst.hprev_idx]
    risk_h, risk_hp, dis = [], [], []
    for idx in inst.domain_samples:
        risk_h.append(float((h[idx] != inst.true_labels[idx]).mean()))
        risk_hp.append(float((hp[idx] != inst.true_labels[idx]).mean()))
        dis.append(float((h[idx] != hp[idx]).mean()))
    return np.array(risk_h), np.array(risk_hp), np.array(dis)


def deterministic_bound(inst: BoundInstance,
                        omega: np.ndarray | None = None) -> float:
    om = inst.omega if omega is None else np.asarray(omega, dtype=np.float64)
    risk_h, risk_hp, dis = _unified_terms(inst)
    div = _divergences_to_current(inst)
    t = inst.n_domains
    a, b, g = om[:, 0], om[:, 1], om[:, 2]
    past = slice(0, t - 1)
    return float(
        np.sum(g * risk_h[past]) + np.sum(a * dis[past]) + risk_h[t - 1]
        + b.sum() * dis[t - 1] + 0.5 * np.sum(b * div)
        + np.sum((a + b) * risk_hp[past]))


def total_risk(inst: BoundInstance) -> float:
    risk_h, _, _ = _unified_terms(inst)
    return float(risk_h.sum())


def check_unified_bound(inst: BoundInstance) -> CheckReport:
    gap = total_risk(inst) - deterministic_bound(inst)
    return CheckReport("unified_bound", 1, int(gap > TOL), float(gap))


def per_domain_values(inst: BoundInstance, triples: np.ndarray) -> np.ndarray:
    """[t-1, K]: past domain i's term of the bound at each of K triples."""
    risk_h, risk_hp, dis = _unified_terms(inst)
    div = _divergences_to_current(inst)
    t = inst.n_domains
    a, b, g = triples[:, 0], triples[:, 1], triples[:, 2]
    return np.stack([g * risk_h[i] + a * dis[i] + b * dis[t - 1]
                     + 0.5 * b * div[i] + (a + b) * risk_hp[i]
                     for i in range(t - 1)])


def radical_argument(omega: np.ndarray, n_current: int, n_memory) -> float:
    om = np.asarray(omega, dtype=np.float64)
    n_mem = np.asarray(n_memory, dtype=np.float64)
    a, b, g = om[:, 0], om[:, 1], om[:, 2]
    return float((1 + b.sum()) ** 2 / n_current + np.sum((g + a) ** 2 / n_mem))


def tightest_bound_grid(inst: BoundInstance, presets=None,
                        grid_resolution: int = 10) -> CheckReport:
    t = inst.n_domains
    if presets is None:
        presets = [m for m in TRIPLE_PRESETS
                   if not (m == "ESM-ER" and t == 2)]
    risk_h, _, _ = _unified_terms(inst)
    cands = np.concatenate([barycentric_grid(grid_resolution),
                            np.array([preset_triple(m, t) for m in presets])])
    values = per_domain_values(inst, cands)
    argmin = np.zeros((t - 1, 3))
    best_total = risk_h[t - 1]
    for i in range(t - 1):
        vals = values[i]
        k = int(np.argmin(vals))
        argmin[i] = cands[k]
        best_total += float(vals[k])

    preset_values = {m: deterministic_bound(
        inst, np.array([preset_triple(m, t) for _ in range(t - 1)]))
        for m in presets}
    violations = sum(best_total > v + 1e-9 for v in preset_values.values())
    worst = max(best_total - v for v in preset_values.values())
    return CheckReport(
        "tightest_bound_grid", len(presets), int(violations), float(worst),
        details={"argmin_omega": argmin.tolist(),
                 "argmin_value": best_total,
                 "preset_values": preset_values})
