"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single `ACCEPTANCE n: PASS` line on success (visible
with `pytest -s`); the pytest verdict line carries the same information.
"""

import math

import numpy as np
import pytest

from selbounds import (
    ConditionalLaw,
    DiscreteInstance,
    InfeasibleMedian,
    InfeasibleQuantile,
    MomentRestriction,
    QuantileRestriction,
    StepDistribution,
    TargetSet,
    aumann_interval,
    calibrate_mean,
    dual_envelope,
    least_x_set,
    mean_restricted_prob_bounds,
    mean_restricted_quantile_range,
    median_restricted_mean_interval,
    mixed_selection,
    moment_restricted_mean_interval,
    power_image_interval,
    quantile_area,
    quantile_attainability_range,
    quantile_restricted_mean_interval,
    quantile_selection,
    unrestricted_prob_bounds,
    oracle,
)

from helpers import (
    brute_force_least_mass,
    constant_instance,
    law_median_holds,
    random_instance,
    random_target,
    two_state_instance,
)


def test_criterion_01_chi_square_example(chi2_pipeline):
    report, elapsed = chi2_pipeline
    assert report["grid_size"] >= 200_000
    assert report["median_lower"] == pytest.approx(2 * math.log(2), abs=1e-14)
    assert report["median_upper"] == pytest.approx(4.351, abs=1e-3)
    assert report["m"] == pytest.approx(3.46, abs=1e-2)
    general = report["restricted_interval"]
    for route in ("cost_terms_discrete", "cost_terms_parametric"):
        implied = report[route]["implied"]
        assert implied["lo"] == pytest.approx(general["lo"], abs=1e-3)
        assert implied["hi"] == pytest.approx(general["hi"], abs=1e-3)
    assert elapsed < 2.0
    print(
        f"\nACCEPTANCE 1: PASS - medians ({report['median_lower']:.4f}, "
        f"{report['median_upper']:.4f}), m={report['m']:.3f}, "
        f"route gap {abs(report['cost_terms_parametric']['implied']['lo'] - general['lo']):.2e}, "
        f"runtime {elapsed:.1f}s"
    )


def test_criterion_02_constant_interval_closed_form():
    inst = constant_instance(0.0, 1.0)
    iv = median_restricted_mean_interval(inst, 0.5)
    assert iv.as_tuple() == (0.25, 0.75)
    worst = 0.0
    for m in np.linspace(0.005, 0.995, 199):
        got = median_restricted_mean_interval(inst, float(m))
        worst = max(worst, abs(got.lo - m / 2), abs(got.hi - (m + 1) / 2))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 2: PASS - exact at m=0.5, sweep error {worst:.2e}")


def test_criterion_03_no_shrink_example():
    inst = two_state_instance(kappa=0.0, d=1.0)
    for m in np.linspace(-2.0, 0.0, 21):
        iv = median_restricted_mean_interval(inst, float(m))
        assert iv.lo - 1e-12 <= 0.0 <= iv.hi + 1e-12
        theta = 0.0 if iv.width <= 0.0 else (0.0 - iv.lo) / iv.width
        sel = mixed_selection(inst, float(m), float(np.clip(theta, 0.0, 1.0)))
        sel.validate(inst)
        assert sel.mean() == pytest.approx(0.0, abs=1e-10)
        assert law_median_holds(sel.law(), float(m))
    rng_q = mean_restricted_quantile_range(inst, 0.5, 0.0)
    assert rng_q.as_tuple() == (-2.0, 0.0)
    print("\nACCEPTANCE 3: PASS - 21 selections built, restricted range (-2.0, 0.0) exact")


def test_criterion_04_bathtub_exactness():
    rng = np.random.default_rng(202)
    worst_set = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 13))
        w = rng.uniform(0.05, 1.0, k)
        x = rng.uniform(0.0, 3.0, k)
        if rng.random() < 0.3:
            x = np.round(x, 1)  # value ties
        cond = ConditionalLaw(np.arange(k), w, x)
        s = float(rng.uniform(0.0, w.sum()))
        got = least_x_set(cond, s).value
        ref = brute_force_least_mass(x, w, s)
        worst_set = max(worst_set, abs(got - ref))
    assert worst_set <= 1e-12

    worst_area = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 11))
        vals = np.unique(np.round(rng.uniform(0.0, 5.0, k), 4))
        masses = rng.uniform(0.1, 1.0, vals.size)
        dist = StepDistribution(vals, masses / masses.sum())
        alpha = float(rng.uniform(0.01, 0.99))
        left, right = quantile_area(dist, alpha)
        worst_area = max(worst_area, abs(left - right))
    assert worst_area <= 1e-12
    print(
        f"\nACCEPTANCE 4: PASS - bathtub vs brute force {worst_set:.2e}, "
        f"quantile-area identity {worst_area:.2e} (500 + 500 cases)"
    )


def test_criterion_05_median_differential():
    from selbounds import median_benchmark

    rng = np.random.default_rng(303)
    worst = 0.0
    agree_feasible = 0
    agree_infeasible = 0
    for _ in range(200):
        inst = random_instance(rng, n=6)
        bench = median_benchmark(inst)
        pad = 0.25 * max(bench.width, 0.5)
        for m in rng.uniform(bench.lo - pad, bench.hi + pad, 5):
            try:
                mine = median_restricted_mean_interval(inst, float(m))
            except InfeasibleMedian:
                with pytest.raises(InfeasibleMedian):
                    oracle.exact_median_mean_bounds(inst, float(m))
                agree_infeasible += 1
                continue
            ref = oracle.exact_median_mean_bounds(inst, float(m))
            worst = max(worst, abs(mine.lo - ref.lo), abs(mine.hi - ref.hi))
            agree_feasible += 1
    assert worst <= 1e-9
    print(
        f"\nACCEPTANCE 5: PASS - {agree_feasible} value comparisons within {worst:.2e}, "
        f"{agree_infeasible} infeasible cases rejected identically"
    )


def test_criterion_06_event_probability_duality():
    rng = np.random.default_rng(404)
    worst_primal = worst_dual = 0.0
    for _ in range(100):
        inst = random_instance(rng, max_n=6)
        target = random_target(rng)
        box = aumann_interval(inst)
        outer = unrestricted_prob_bounds(inst, target)
        kappas = np.linspace(box.lo, box.hi, 5)
        us, ls = [], []
        for kappa in kappas:
            iv = mean_restricted_prob_bounds(inst, target, float(kappa))
            ref = oracle.exact_prob_bounds(inst, target, float(kappa))
            env = dual_envelope(inst, target, float(kappa))
            worst_primal = max(
                worst_primal, abs(iv.hi - ref.hi), abs(iv.lo - ref.lo)
            )
            worst_dual = max(
                worst_dual, abs(env.upper - iv.hi), abs(env.lower - iv.lo)
            )
            assert outer.lo - 1e-9 <= iv.lo <= iv.hi <= outer.hi + 1e-9
            us.append(iv.hi)
            ls.append(iv.lo)
        if box.width > 1e-9:
            assert np.all(np.diff(us, 2) <= 1e-8)   # U concave in kappa
            assert np.all(np.diff(ls, 2) >= -1e-8)  # L convex in kappa
        p_lo = float(inst.weight[[target.contains(float(v)) for v in inst.lower]].sum())
        p_hi = float(inst.weight[[target.contains(float(v)) for v in inst.upper]].sum())
        lo_iv = mean_restricted_prob_bounds(inst, target, box.lo)
        hi_iv = mean_restricted_prob_bounds(inst, target, box.hi)
        for iv, point in ((lo_iv, p_lo), (hi_iv, p_hi)):
            assert iv.lo == pytest.approx(point, abs=1e-9)
            assert iv.hi == pytest.approx(point, abs=1e-9)
    assert worst_primal <= 1e-6
    assert worst_dual <= 1e-4
    print(
        f"\nACCEPTANCE 6: PASS - 500 kappa points: primal-oracle {worst_primal:.2e}, "
        f"dual gap {worst_dual:.2e}, sandwich and shape checks clean"
    )


def test_criterion_07_worked_calibration_instance():
    inst = constant_instance(0.0, 1.0)
    target = TargetSet.from_pairs([[0.8, 1.0]])
    cal = calibrate_mean(inst, target, 0.5)
    assert cal.probability == pytest.approx(0.625, abs=1e-9)
    assert cal.lambda_star == pytest.approx(-1.25, abs=1e-6)
    law = cal.selection.law()
    # boundary randomization: fraction of the tie mass routed into the target
    mass_at_entry = float(law.masses[np.where(law.values == 0.8)[0][0]])
    assert mass_at_entry == pytest.approx(0.625, abs=1e-9)
    print(
        f"\nACCEPTANCE 7: PASS - U(0.5)={cal.probability:.9f}, "
        f"lambda*={cal.lambda_star:.6f}, theta={mass_at_entry:.9f}"
    )


def test_criterion_08_moment_dual():
    inst = constant_instance(0.0, 1.0)
    iv = moment_restricted_mean_interval(inst, MomentRestriction(2.0, 0.25))
    assert iv.lo == pytest.approx(0.25, abs=1e-4)
    assert iv.hi == pytest.approx(0.5, abs=1e-4)
    exact = moment_restricted_mean_interval(inst, MomentRestriction(1.0, 0.31))
    assert exact.as_tuple() == (0.31, 0.31)

    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-1.5, 1.5, n)
        width = rng.uniform(0.0, 1.5, n)
        w = rng.uniform(0.2, 1.0, n)
        if rng.random() < 0.5:
            r = float(rng.choice([3.0, 5.0]))
        else:
            lo = np.abs(lo)
            r = float(rng.choice([2.0, 0.5, 2.5]))
        inst_r = DiscreteInstance.from_rows(list(zip(lo, lo + width, w / w.sum())))
        img = power_image_interval(inst_r, r)
        mu = float(rng.uniform(img.lo, img.hi))
        mine = moment_restricted_mean_interval(inst_r, MomentRestriction(r, mu))
        ref = oracle.exact_moment_mean_bounds(inst_r, r, mu)
        worst = max(worst, abs(mine.lo - ref.lo), abs(mine.hi - ref.hi))
    assert worst <= 1e-4
    print(f"\nACCEPTANCE 8: PASS - worked interval exact, 50 random duals within {worst:.2e}")


def test_criterion_09_quantile_restriction():
    rng = np.random.default_rng(606)

    coincide = 0
    while coincide < 100:
        inst = random_instance(rng)
        band = quantile_attainability_range(inst, 0.5)
        q = float(rng.uniform(band.lo, band.hi))
        try:
            med = median_restricted_mean_interval(inst, q)
        except InfeasibleMedian:
            continue
        qua = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, q))
        assert qua.lo == med.lo and qua.hi == med.hi  # identical arithmetic
        coincide += 1

    worst = 0.0
    for _ in range(100):
        inst = random_instance(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        band = quantile_attainability_range(inst, alpha)
        q = float(rng.uniform(band.lo, band.hi))
        try:
            mine = quantile_restricted_mean_interval(inst, QuantileRestriction(alpha, q))
        except InfeasibleQuantile:
            with pytest.raises(InfeasibleQuantile):
                oracle.exact_quantile_mean_bounds(inst, alpha, q)
            continue
        ref = oracle.exact_quantile_mean_bounds(inst, alpha, q)
        worst = max(worst, abs(mine.lo - ref.lo), abs(mine.hi - ref.hi))
    assert worst <= 1e-9

    exact_hits = 0
    for _ in range(100):
        inst = random_instance(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        band = quantile_attainability_range(inst, alpha)
        m = float(rng.uniform(band.lo, band.hi))
        sel = quantile_selection(inst, alpha, m)
        assert sel.law().quantile(alpha) == m
        exact_hits += 1
    assert exact_hits == 100
    print(
        f"\nACCEPTANCE 9: PASS - 100 exact coincidences, oracle delta {worst:.2e}, "
        f"100 exact quantile constructions"
    )


def test_criterion_10_refinement_stability(chi2_pipeline, chi2_pipeline_half):
    full, _ = chi2_pipeline
    half = chi2_pipeline_half
    worst = 0.0
    for key in ("mean_interval", "restricted_interval"):
        for side in ("lo", "hi"):
            worst = max(worst, abs(full[key][side] - half[key][side]))
    for key in ("median_lower", "median_upper", "m"):
        worst = max(worst, abs(full[key] - half[key]))
    assert worst < 2e-3
    print(f"\nACCEPTANCE 10: PASS - halving the grid moves reported values by {worst:.2e}")
