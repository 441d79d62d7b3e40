import math
import warnings

import numpy as np
import pytest

import dilkit.bounds
import dilkit.divergence
import reference_bounds as ref
from dilkit.autodiff import ContractError
from dilkit.bounds import (
    TOL, BoundInstance, barycentric_grid, check_cross_bound,
    check_erm_bound_shape, check_intra_bound, check_unified_bound,
    deterministic_bound, radical_argument, random_instance,
    tightest_bound_grid, total_risk,
)
from dilkit.coeffs import TRIPLE_PRESETS, preset_triple
from dilkit.divergence import (
    FiniteHypothesisClass, _pairwise_disagreement, hdh_exact,
)
from dilkit.losses import v_01
from finite_classes import all_labelings


def simple_instance(omega=None, class_rows=None, labels=None, samples=None,
                    h_idx=0, hprev_idx=1):
    rows = class_rows if class_rows is not None else all_labelings(4).labelings
    y = labels if labels is not None else np.array([0, 1, 0, 1], dtype=np.int8)
    s = samples if samples is not None else (np.array([0, 1]), np.array([2, 3]))
    om = omega if omega is not None else np.array([[0.2, 0.3, 0.5]])
    return BoundInstance(FiniteHypothesisClass(rows), y, s, h_idx, hprev_idx,
                         om)


def test_intra_bound_zero_violations_and_tight_diagonal():
    inst = simple_instance()
    rep = check_intra_bound(inst)
    assert rep.ok
    # h = H_prev pairs give exactly risk <= 0 + risk, so the max gap is 0
    assert rep.max_violation == 0.0
    assert rep.n_checks == 16 * 16 * 2


def test_intra_bound_perfect_teacher_equality():
    # class containing the truth: for pairs (h, truth) the disagreement IS
    # the risk, so the inequality is met with equality
    rows = all_labelings(3).labelings
    y = np.array([1, 0, 1], dtype=np.int8)
    truth_idx = int(np.flatnonzero((rows == y).all(axis=1))[0])
    inst = simple_instance(class_rows=rows, labels=y,
                           samples=(np.array([0, 1]), np.array([1, 2])),
                           h_idx=3, hprev_idx=truth_idx,
                           omega=np.array([[1 / 3, 1 / 3, 1 / 3]]))
    risks_h = [np.mean(rows[3][s] != y[s]) for s in inst.domain_samples]
    dis = [np.mean(rows[3][s] != y[s]) for s in inst.domain_samples]
    assert risks_h == dis  # teacher risk is 0 and disagreement equals risk
    assert check_intra_bound(inst).ok


def test_cross_bound_identical_domains():
    s = np.array([0, 1, 2])
    inst = simple_instance(samples=(s, s.copy()))
    rep = check_cross_bound(inst)
    assert rep.ok


def test_cross_bound_disjoint_full_class():
    inst = simple_instance(samples=(np.array([0, 1]), np.array([2, 3])))
    assert hdh_exact(inst.hclass, [0, 1], [2, 3]) == 2.0
    assert check_cross_bound(inst).ok


def test_unified_bound_er_is_equality():
    inst = simple_instance(omega=np.array([[0.0, 0.0, 1.0]]))
    assert deterministic_bound(inst) == total_risk(inst)
    assert check_unified_bound(inst).ok


def test_unified_bound_icarl_is_summed_intra():
    rows = all_labelings(4).labelings
    y = np.array([0, 1, 1, 0], dtype=np.int8)
    inst = simple_instance(omega=np.array([[1.0, 0.0, 0.0]]), class_rows=rows,
                           labels=y, h_idx=5, hprev_idx=9)
    h, hp = rows[5], rows[9]
    s1, s2 = inst.domain_samples
    expect = (np.mean(h[s2] != y[s2]) + np.mean(h[s1] != hp[s1])
              + np.mean(hp[s1] != y[s1]))
    assert deterministic_bound(inst) == pytest.approx(expect)


def test_random_instances_zero_violations():
    rng = np.random.default_rng(42)
    for _ in range(200):
        inst = random_instance(rng, n_domains=int(rng.integers(2, 4)),
                               points_per_domain=int(rng.integers(2, 7)),
                               class_size=int(rng.integers(4, 65)))
        assert check_intra_bound(inst).ok
        assert check_cross_bound(inst).ok
        assert check_unified_bound(inst).ok


def test_tightest_grid_beats_every_preset():
    rng = np.random.default_rng(7)
    for _ in range(30):
        inst = random_instance(rng, n_domains=3, points_per_domain=5,
                               class_size=32)
        rep = tightest_bound_grid(inst, grid_resolution=6)
        assert rep.ok
        assert rep.max_violation <= 1e-9
        argmin = np.array(rep.details["argmin_omega"])
        np.testing.assert_allclose(argmin.sum(axis=1), 1.0, atol=1e-9)


def test_tightest_grid_zero_divergence_accurate_teacher():
    # two-hypothesis class: the single pair disagrees everywhere, so both
    # empirical disagreement rates are 1 and the divergence is exactly 0
    rows = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.int8)
    y = np.array([1, 1, 1, 1], dtype=np.int8)
    inst = simple_instance(class_rows=rows, labels=y,
                           samples=(np.array([0, 1]), np.array([2, 3])),
                           h_idx=0, hprev_idx=1,
                           omega=np.array([[1 / 3, 1 / 3, 1 / 3]]))
    assert hdh_exact(inst.hclass, [0, 1], [2, 3]) == 0.0
    rep = tightest_bound_grid(inst, grid_resolution=4)
    assert rep.details["argmin_value"] <= rep.details["preset_values"]["ER"]


def test_tightest_grid_large_divergence_poor_teacher():
    rng = np.random.default_rng(11)
    inst = simple_instance(samples=(np.array([0, 1]), np.array([2, 3])),
                           h_idx=int(rng.integers(16)),
                           hprev_idx=int(rng.integers(16)))
    rep = tightest_bound_grid(inst, grid_resolution=4)
    assert rep.details["argmin_value"] <= rep.details["preset_values"]["LwF"]


def test_tightest_grid_monotone_in_resolution():
    rng = np.random.default_rng(13)
    inst = random_instance(rng, n_domains=3, points_per_domain=6,
                           class_size=64)
    vals = [tightest_bound_grid(inst, grid_resolution=r).details["argmin_value"]
            for r in (2, 4, 8, 16)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_erm_bound_shape_substitutions():
    # radical bookkeeping at the stated sizes
    er = np.array([preset_triple("ER", 3)] * 2)
    assert radical_argument(er, 100, [10, 10]) == pytest.approx(0.21)
    lwf = np.array([preset_triple("LwF", 3)] * 2)
    assert radical_argument(lwf, 100, [10, 10]) == pytest.approx(9 / 100)

    rng = np.random.default_rng(3)
    inst = random_instance(rng, n_domains=3)
    rep = check_erm_bound_shape(inst)
    assert rep.ok and rep.max_violation <= 1e-12


def test_instance_validation():
    rows = all_labelings(3).labelings
    y = np.array([0, 1, 0], dtype=np.int8)
    good = dict(class_rows=rows, labels=y,
                samples=(np.array([0]), np.array([1, 2])))
    simple_instance(**good, omega=np.array([[0.5, 0.25, 0.25]]))
    with pytest.raises(ContractError, match="simplex"):
        simple_instance(**good, omega=np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ContractError, match="shape"):
        simple_instance(**good, omega=np.zeros((2, 3)))
    with pytest.raises(ContractError, match="member"):
        simple_instance(**good, omega=np.array([[1.0, 0.0, 0.0]]), h_idx=8)
    with pytest.raises(ContractError, match="two domains"):
        BoundInstance(FiniteHypothesisClass(rows), y, (np.array([0]),), 0, 1,
                      np.zeros((0, 3)))
    with pytest.raises(ContractError, match="nonempty"):
        simple_instance(**dict(good, samples=(np.array([]), np.array([1]))),
                        omega=np.array([[1.0, 0.0, 0.0]]))


def test_barycentric_grid():
    g = barycentric_grid(4)
    assert len(g) == 15  # C(4+2, 2)
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
    assert (g >= 0).all()
    # contains all three vertices at any resolution
    for v in (np.eye(3)):
        assert (g == v).all(axis=1).any()
    with pytest.raises(ContractError):
        barycentric_grid(1)


def test_barycentric_grid_built_once_per_resolution():
    g = barycentric_grid(6)
    assert barycentric_grid(6) is g
    with pytest.raises(ValueError, match="read-only"):
        g[0, 0] = 1.0


# -- cached terms against the per-check reference ---------------------------

def gate1_instances(seed: int, n: int):
    """Instances shaped as acceptance criterion 1 draws them."""
    rng = np.random.default_rng(seed)
    return [random_instance(rng, n_domains=int(rng.integers(2, 5)),
                            points_per_domain=int(rng.integers(3, 9)),
                            class_size=int(rng.choice([16, 64, 256])))
            for _ in range(n)]


def assert_same_report(got, want):
    """Equal field by field with == on floats, and equal reprs, so that
    even the sign of a zero and the float type must agree."""
    assert (got.name, got.n_checks, got.n_violations) == (
        want.name, want.n_checks, want.n_violations)
    assert got.max_violation == want.max_violation
    assert got.details == want.details
    assert repr(got) == repr(want)


def assert_close_report(got, want, inst):
    """Equal counts, and floats within TOL: the library sums the bound's
    weights in another order than the reference does.  Each argmin row must
    minimize the reference's per-domain values, ties broken either way."""
    assert (got.name, got.n_checks, got.n_violations) == (
        want.name, want.n_checks, want.n_violations)
    assert abs(got.max_violation - want.max_violation) <= TOL
    assert got.details.keys() == want.details.keys()
    if not got.details:
        return
    assert abs(got.details["argmin_value"]
               - want.details["argmin_value"]) <= TOL
    got_p, want_p = got.details["preset_values"], want.details["preset_values"]
    assert list(got_p) == list(want_p)
    assert all(abs(got_p[m] - want_p[m]) <= TOL for m in got_p)
    got_v, want_v = (
        ref.per_domain_values(inst, np.array(r.details["argmin_omega"]))
        for r in (got, want))
    assert all(got_v[i, i] <= want_v[i, i] + TOL
               for i in range(inst.n_domains - 1))


@pytest.mark.parametrize("seed", range(4))
def test_checks_match_reference_exactly(seed):
    for inst in gate1_instances(seed, 15):
        assert_same_report(check_intra_bound(inst), ref.check_intra_bound(inst))
        assert_same_report(check_cross_bound(inst), ref.check_cross_bound(inst))
        assert np.array_equal(inst.divergences, ref._divergences_to_current(inst))
        assert total_risk(inst) == ref.total_risk(inst)
        assert_close_report(check_unified_bound(inst),
                            ref.check_unified_bound(inst), inst)
        assert_close_report(tightest_bound_grid(inst),
                            ref.tightest_bound_grid(inst), inst)
        assert abs(deterministic_bound(inst)
                   - ref.deterministic_bound(inst)) <= TOL


@pytest.mark.parametrize("class_size", [2, 16, 64, 256])
@pytest.mark.parametrize("n_domains", [2, 3, 4, 5])
def test_kernels_match_allocating_reference_bitwise(class_size, n_domains):
    """Every disagreement matrix, divergence and pair-check report equals
    the allocating reference kernels' bit for bit, including a pair check
    whose margins are shifted below zero, so violations are counted."""
    rng = np.random.default_rng(10 * class_size + n_domains)
    for _ in range(3):
        inst = random_instance(rng, n_domains=n_domains,
                               points_per_domain=int(rng.integers(1, 9)),
                               class_size=class_size)
        lab, samples = inst.hclass.labelings, inst.domain_samples
        for dis, idx in zip(inst.disagreements, samples):
            assert dis.tobytes() == ref._pairwise_disagreement(
                lab, idx).tobytes()
        want = ref._divergences_to_current(inst)
        assert inst.divergences.tobytes() == want.tobytes()
        assert [hdh_exact(inst.hclass, idx, samples[-1])
                for idx in samples[:-1]] == want.tolist()
        assert_same_report(check_intra_bound(inst), ref.check_intra_bound(inst))
        assert_same_report(check_cross_bound(inst), ref.check_cross_bound(inst))
        shifted = [d - 0.5 for d in inst.disagreements]
        got = dilkit.bounds._pair_check("shifted", inst, shifted)
        assert got.n_violations > 0
        assert_same_report(got, ref._pair_check("shifted", inst, shifted))
        cur, offsets = inst.disagreements[-1], -rng.random(n_domains)
        got = dilkit.bounds._pair_check("offset", inst, [cur] * n_domains,
                                        offsets)
        assert got.n_violations > 0
        assert_same_report(got, ref._pair_check(
            "offset", inst, [cur + o for o in offsets]))


def test_deterministic_bound_matches_reference_at_explicit_omegas():
    rng = np.random.default_rng(5)
    for inst in gate1_instances(5, 20):
        t = inst.n_domains
        omegas = [rng.dirichlet((1.0, 1.0, 1.0), size=t - 1)
                  for _ in range(3)]
        omegas += [np.tile(v, (t - 1, 1)) for v in np.eye(3)]
        omegas += [np.array([preset_triple(m, t)] * (t - 1))
                   for m in TRIPLE_PRESETS if not (m == "ESM-ER" and t == 2)]
        for om in omegas:
            got = deterministic_bound(inst, om)
            assert type(got) is float
            assert abs(got - ref.deterministic_bound(inst, om)) <= TOL


@pytest.mark.parametrize("resolution", range(2, 11))
def test_grid_matches_reference_with_explicit_presets(resolution):
    """The library builds its preset list itself; the reference is handed
    every on-simplex preset explicitly (ESM-ER has no triple at t = 2)."""
    for inst in gate1_instances(100 + resolution, 4):
        presets = [m for m in TRIPLE_PRESETS
                   if not (m == "ESM-ER" and inst.n_domains == 2)]
        assert_close_report(
            tightest_bound_grid(inst, grid_resolution=resolution),
            ref.tightest_bound_grid(inst, presets=presets,
                                    grid_resolution=resolution), inst)


@pytest.mark.parametrize("n_domains", [2, 3, 4])
def test_each_divergence_computed_once_per_instance(monkeypatch, n_domains):
    """Every check reads one matrix per domain; the divergences come off
    those matrices, so no check goes through hdh_exact."""
    builds, exact_calls = [], []

    def counting_build(*args):
        builds.append(args)
        return _pairwise_disagreement(*args)

    def counting_exact(*args):
        exact_calls.append(args)
        return hdh_exact(*args)

    for module in (dilkit.bounds, dilkit.divergence):
        monkeypatch.setattr(module, "_pairwise_disagreement", counting_build)
    monkeypatch.setattr(dilkit.bounds, "hdh_exact", counting_exact)
    rng = np.random.default_rng(n_domains)
    inst = random_instance(rng, n_domains=n_domains, points_per_domain=6,
                           class_size=64)
    check_intra_bound(inst)
    check_cross_bound(inst)
    check_unified_bound(inst)
    tightest_bound_grid(inst)
    check_erm_bound_shape(inst)
    total_risk(inst)
    deterministic_bound(inst)
    assert len(builds) == n_domains
    assert exact_calls == []


def test_cached_terms_and_inputs_are_read_only():
    """The cached terms cannot go stale: the instance keeps read-only
    copies of its inputs and hands out read-only terms."""
    rows = all_labelings(4).labelings.copy()
    y = np.array([0, 1, 0, 1], dtype=np.int8)
    s = (np.array([0, 1]), np.array([2, 3]))
    om = np.array([[0.2, 0.3, 0.5]])
    inst = simple_instance(class_rows=rows, labels=y, samples=s, omega=om)
    risks, bound = inst.risks, deterministic_bound(inst)
    rows[:] = 0
    y[:] = 1
    s[0][:] = 3
    om[:] = 0.0
    assert inst.risks is risks
    assert (inst.true_labels == [0, 1, 0, 1]).all()
    assert (inst.domain_samples[0] == [0, 1]).all()
    assert inst.hclass.labelings.any()
    assert (inst.omega == [[0.2, 0.3, 0.5]]).all()
    assert deterministic_bound(inst) == bound
    stats = inst.coeff_stats
    for a in (inst.hclass.labelings, inst.true_labels, *inst.domain_samples,
              inst.omega,
              inst.risks, *inst.disagreements, inst.divergences,
              stats.eps_replay, stats.eps_intra, stats.dhat, stats.eps_hist):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


# -- the tightest bound in closed form -----------------------------------------

def closed_form_minimum(inst: BoundInstance) -> float:
    """The bound is linear in each past domain's triple, so its minimum over
    the simplex sits at a vertex: gamma (replay), alpha (intra-domain
    distillation) or beta (cross-domain distillation).  Terms come from the
    per-check reference, not from the instance's cache."""
    risk_h, risk_hp, dis = ref._unified_terms(inst)
    div = ref._divergences_to_current(inst)
    t = inst.n_domains
    return risk_h[t - 1] + sum(
        min(risk_h[i], dis[i] + risk_hp[i],
            dis[t - 1] + div[i] / 2 + risk_hp[i])
        for i in range(t - 1))


@pytest.mark.parametrize("resolution", range(2, 11))
def test_grid_minimum_is_the_closed_form_minimum(resolution):
    for inst in gate1_instances(200 + resolution, 12):
        best = closed_form_minimum(inst)
        rep = tightest_bound_grid(inst, grid_resolution=resolution)
        assert abs(rep.details["argmin_value"] - best) <= 1e-12
        for value in rep.details["preset_values"].values():
            assert value >= best - 1e-12


def test_single_point_domains():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, n_domains=3, points_per_domain=1,
                           class_size=8)
    assert all(s.size == 1 for s in inst.domain_samples)
    assert check_intra_bound(inst).ok and check_cross_bound(inst).ok
    assert check_unified_bound(inst).ok and tightest_bound_grid(inst).ok


# -- the audited bound is the objective UDIL descends ---------------------------

def sample_sizes(inst: BoundInstance) -> tuple[int, list[int]]:
    return (int(inst.domain_samples[-1].size),
            [int(s.size) for s in inst.domain_samples[:-1]])


def test_coeff_stats_are_the_instance_terms():
    for inst in gate1_instances(40, 10):
        risk_h, risk_hp, dis = ref._unified_terms(inst)
        stats = inst.coeff_stats
        assert (stats.eps_replay == risk_h[:-1]).all()
        assert (stats.eps_intra == dis[:-1]).all()
        assert stats.eps_cross == dis[-1]
        assert (stats.dhat == ref._divergences_to_current(inst)).all()
        assert (stats.eps_hist == risk_hp[:-1]).all()


@pytest.mark.parametrize("seed", range(4))
def test_deterministic_bound_is_v_01_at_zero_c_gen(seed):
    """Exactly equal: the bound the audit checks is the student's current
    risk plus V_01 without its radical, at the same triples."""
    rng = np.random.default_rng(300 + seed)
    for inst in gate1_instances(300 + seed, 15):
        t = inst.n_domains
        n_cur, n_mem = sample_sizes(inst)
        for om in (inst.omega, rng.dirichlet((1.0, 1.0, 1.0), size=t - 1),
                   rng.dirichlet((0.2, 0.2, 0.2), size=t - 1)):
            surrogate = v_01(om, inst.coeff_stats, 0.0, n_cur,
                             n_mem).item()
            assert deterministic_bound(inst, om) == (
                inst.risks[inst.h_idx, -1] + surrogate)


@pytest.mark.parametrize("seed", range(4))
def test_v_01_radical_is_radical_argument(seed):
    rng = np.random.default_rng(400 + seed)
    for inst in gate1_instances(400 + seed, 15):
        t = inst.n_domains
        n_cur, n_mem = sample_sizes(inst)
        om = rng.dirichlet((1.0, 1.0, 1.0), size=t - 1)
        base = v_01(om, inst.coeff_stats, 0.0, n_cur, n_mem).item()
        rad = math.sqrt(radical_argument(om, n_cur, n_mem))
        for c in (0.3, 1.0, 2.5):
            got = v_01(om, inst.coeff_stats, c, n_cur, n_mem).item()
            assert abs(got - (base + c * rad)) <= 1e-12 * abs(got)


def test_radical_argument_matches_reference():
    rng = np.random.default_rng(41)
    for _ in range(300):
        t = int(rng.integers(2, 9))
        om = rng.dirichlet((1.0, 1.0, 1.0), size=t - 1)
        n_cur = int(rng.integers(1, 500))
        n_mem = list(rng.integers(1, 200, size=t - 1))
        want = ref.radical_argument(om, n_cur, n_mem)
        assert abs(radical_argument(om, n_cur, n_mem) - want) <= 1e-12 * want


@pytest.mark.parametrize("seed", range(4))
def test_grid_never_above_a_preset_with_zero_slack(seed):
    for inst in gate1_instances(seed, 75):
        rep = tightest_bound_grid(inst)
        assert rep.max_violation <= 0.0
        best = rep.details["argmin_value"]
        assert all(best <= v for v in rep.details["preset_values"].values())


def test_bound_api_rejects_misshapen_inputs():
    inst = next(i for i in gate1_instances(7, 40) if i.n_domains == 4)
    for shape in ((1, 3), (2, 3), (3, 2), (9,)):
        with pytest.raises(ContractError, match=r"shape \(3, 3\)"):
            deterministic_bound(inst, np.full(shape, 1 / 3))


def test_radical_argument_rejects_bad_counts():
    om = np.ones((3, 3)) / 3
    with pytest.raises(ContractError, match=r"shape \(3,\)"):
        radical_argument(om, 10, [5])
    with pytest.raises(ContractError, match="shape"):
        radical_argument(np.ones(3) / 3, 10, [5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_cur, n_mem in ((10, [5, 0, 5]), (0, [5, 5, 5]),
                             (10, [5, -1, 5])):
            with pytest.raises(ContractError, match="positive sample counts"):
                radical_argument(om, n_cur, n_mem)
