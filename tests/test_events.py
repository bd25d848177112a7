import math

import numpy as np
import pytest

from selbounds import (
    DiscreteInstance,
    KappaInfeasible,
    TargetSet,
    aumann_interval,
    calibrate_mean,
    dual_envelope,
    gap_profile,
    mean_restricted_prob_bounds,
    threshold_selection,
    unrestricted_prob_bounds,
    oracle,
)

from helpers import constant_instance, random_instance, random_target, two_state_instance

UNIT = constant_instance(0.0, 1.0)
EDGE = TargetSet.from_pairs([[0.8, 1.0]])


class TestTargetSet:
    def test_normalizes_and_merges(self):
        ts = TargetSet.from_pairs([[2.0, 3.0], [0.0, 1.0], [0.5, 1.5]])
        assert ts.pieces == ((0.0, 1.5), (2.0, 3.0))

    def test_singleton_piece(self):
        ts = TargetSet.from_pairs([[1.0, 1.0]])
        assert ts.contains(1.0) and not ts.contains(1.0 + 1e-9)

    def test_reflection(self):
        ts = TargetSet.from_pairs([[0.0, 1.0], [2.0, 3.0]])
        assert ts.reflected().pieces == ((-3.0, -2.0), (-1.0, 0.0))


class TestGapProfile:
    def test_right_edge_target(self):
        prof = gap_profile(UNIT, EDGE)
        assert prof.a_plus[0] == 1.0 and prof.delta_plus[0] == 0.0
        assert prof.a_minus[0] == 0.8 and prof.delta_minus[0] == pytest.approx(0.8)

    def test_miss(self):
        prof = gap_profile(UNIT, TargetSet.from_pairs([[2.0, 3.0]]))
        assert not prof.hit[0]
        assert prof.delta_plus[0] == math.inf and prof.delta_minus[0] == math.inf

    def test_containment(self):
        prof = gap_profile(UNIT, TargetSet.from_pairs([[-1.0, 2.0]]))
        assert prof.contain[0] and prof.hit[0]
        assert prof.delta_plus[0] == 0.0 and prof.delta_minus[0] == 0.0

    def test_single_piece_case_formulas(self):
        # clipped-distance case split for one target piece [a, b]; on miss
        # scenarios the general sup/inf-of-empty-set convention forces both
        # gaps to +inf, which supersedes the clipped distances
        rng = np.random.default_rng(67)
        a, b = 0.3, 0.9
        target = TargetSet.from_pairs([[a, b]])
        for _ in range(200):
            lo = rng.uniform(-1.0, 2.0)
            hi = lo + rng.uniform(0.0, 1.5)
            inst = DiscreteInstance.from_rows([(lo, hi, 1.0)])
            prof = gap_profile(inst, target)
            hit = lo <= b and hi >= a
            want_dp = max(hi - b, 0.0) if hit else math.inf
            want_dm = max(a - lo, 0.0) if hit else math.inf
            assert prof.hit[0] == hit
            assert prof.delta_plus[0] == pytest.approx(want_dp)
            assert prof.delta_minus[0] == pytest.approx(want_dm)
            if not hit:
                assert prof.delta_plus[0] == math.inf and prof.delta_minus[0] == math.inf

    def test_multi_piece_intersection(self):
        inst = DiscreteInstance.from_rows([(0.0, 1.0, 1.0)])
        ts = TargetSet.from_pairs([[0.2, 0.3], [0.7, 0.8], [2.0, 3.0]])
        prof = gap_profile(inst, ts)
        assert prof.a_minus[0] == 0.2 and prof.a_plus[0] == 0.8
        assert prof.out_low[0] == 0.0 and prof.out_high[0] == 1.0


class TestUnrestrictedBounds:
    def test_two_state_singleton_target(self):
        iv = unrestricted_prob_bounds(two_state_instance(), TargetSet.from_pairs([[0.0, 0.0]]))
        assert iv.as_tuple() == (0.0, 1.0)

    def test_superset_target(self):
        iv = unrestricted_prob_bounds(two_state_instance(), TargetSet.from_pairs([[-5.0, 5.0]]))
        assert iv.as_tuple() == (1.0, 1.0)

    def test_sandwiches_random_selections(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            inst = random_instance(rng)
            target = random_target(rng)
            iv = unrestricted_prob_bounds(inst, target)
            for _ in range(5):
                frac = rng.uniform(0.0, 1.0, inst.n)
                vals = inst.lower + frac * (inst.upper - inst.lower)
                p = float(inst.weight[[target.contains(v) for v in vals]].sum())
                assert iv.lo - 1e-12 <= p <= iv.hi + 1e-12


class TestThresholdSelection:
    def test_large_lambda_gives_upper(self):
        inst = two_state_instance()
        target = TargetSet.from_pairs([[-0.5, 0.5]])
        sel = threshold_selection(inst, target, 1e12)
        assert np.allclose(np.sort(sel.value), np.sort(inst.upper))
        sel_inf = threshold_selection(inst, target, math.inf)
        assert np.allclose(np.sort(sel_inf.value), np.sort(inst.upper))

    def test_large_negative_lambda_gives_lower(self):
        inst = two_state_instance()
        target = TargetSet.from_pairs([[-0.5, 0.5]])
        sel = threshold_selection(inst, target, -1e12)
        assert np.allclose(np.sort(sel.value), np.sort(inst.lower))

    def test_tie_split(self):
        # at lambda = -1.25 the Lagrangian values of entering at 0.8 and
        # staying at 0 coincide: 1 + lambda*0.8 = 0 = lambda*0
        sel = threshold_selection(UNIT, EDGE, -1.25, tie_in=0.625)
        law = sel.law()
        assert np.allclose(law.values, [0.0, 0.8])
        assert np.allclose(law.masses, [0.375, 0.625])
        assert sel.mean() == pytest.approx(0.5, abs=1e-12)

    def test_mean_monotone_in_lambda(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            inst = random_instance(rng)
            target = random_target(rng)
            lams = np.linspace(-8.0, 8.0, 33)
            means = [threshold_selection(inst, target, float(l)).mean() for l in lams]
            assert np.all(np.diff(means) >= -1e-10)

    def test_lambda_zero_is_hit_maximizing(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            inst = random_instance(rng)
            target = random_target(rng)
            sel = threshold_selection(inst, target, 0.0)
            p = sum(
                w for v, w in zip(sel.value, sel.subweight) if target.contains(float(v))
            )
            assert p == pytest.approx(unrestricted_prob_bounds(inst, target).hi, abs=1e-12)


class TestCalibrateMean:
    def test_worked_instance(self):
        cal = calibrate_mean(UNIT, EDGE, 0.5)
        assert cal.probability == pytest.approx(0.625, abs=1e-9)
        assert cal.lambda_star == pytest.approx(-1.25, abs=1e-6)
        assert cal.selection.mean() == pytest.approx(0.5, abs=1e-10)

    def test_upper_extreme_positive_gap(self):
        # target strictly inside the hit scenario: reaching the mean extreme
        # forces the pure upper-endpoint selection through the +inf branch
        inst = two_state_instance()
        target = TargetSet.from_pairs([[0.5, 1.0]])
        cal = calibrate_mean(inst, target, inst.mean_upper())
        assert cal.lambda_star == math.inf
        assert np.allclose(np.sort(cal.selection.law().values), np.sort(inst.upper))
        assert cal.probability == pytest.approx(0.0, abs=1e-12)  # P(y_U in A) = 0

    def test_upper_extreme_zero_gap(self):
        # the upper endpoint itself lies in the target, so the constraint is
        # slack at the extreme and the multiplier stays at zero
        inst = two_state_instance()
        target = TargetSet.from_pairs([[1.5, 2.5]])
        cal = calibrate_mean(inst, target, inst.mean_upper())
        assert cal.lambda_star == 0.0
        assert cal.probability == pytest.approx(0.5, abs=1e-12)  # P(y_U in A)

    def test_lower_extreme(self):
        inst = two_state_instance()
        target = TargetSet.from_pairs([[-2.0, -2.0]])
        cal = calibrate_mean(inst, target, inst.mean_lower())
        assert cal.probability == pytest.approx(0.5, abs=1e-12)

    def test_infeasible_kappa(self):
        with pytest.raises(KappaInfeasible):
            calibrate_mean(UNIT, EDGE, 1.5)

    def test_calibrated_selection_feasible_on_randoms(self):
        rng = np.random.default_rng(83)
        cases = [(random_instance(rng), random_target(rng)) for _ in range(40)]
        # 0.25-grid instances against a three-piece target: hit scenarios
        # share a gap at different in-target points, so the boundary
        # scenario splits inside a tie
        grid_target = TargetSet.from_pairs([[-1.5, -1.0], [0.0, 0.5], [1.25, 1.5]])
        for _ in range(60):
            n = int(rng.integers(2, 9))
            lower = rng.integers(-10, 8, n) * 0.25
            upper = lower + rng.integers(0, 7, n) * 0.25
            weight = rng.integers(1, 4, n) / 4.0
            rows = list(zip(lower, upper, weight / weight.sum()))
            cases.append((DiscreteInstance.from_rows(rows), grid_target))
        for inst, target in cases:
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            cal = calibrate_mean(inst, target, kappa)
            cal.selection.validate(inst)
            assert cal.selection.mean() == pytest.approx(kappa, abs=1e-10)
            inside = [target.contains(float(v)) for v in cal.selection.value]
            in_mass = float(cal.selection.subweight[inside].sum())
            assert in_mass == pytest.approx(cal.probability, abs=1e-12)


class TestMeanRestrictedBounds:
    def test_worked_upper(self):
        iv = mean_restricted_prob_bounds(UNIT, EDGE, 0.5)
        assert iv.hi == pytest.approx(0.625, abs=1e-9)
        assert iv.lo == pytest.approx(0.0, abs=1e-12)

    def test_extremes_are_endpoint_probabilities(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            inst = random_instance(rng)
            target = random_target(rng)
            p_lo = float(
                inst.weight[[target.contains(float(v)) for v in inst.lower]].sum()
            )
            p_hi = float(
                inst.weight[[target.contains(float(v)) for v in inst.upper]].sum()
            )
            lo_iv = mean_restricted_prob_bounds(inst, target, inst.mean_lower())
            hi_iv = mean_restricted_prob_bounds(inst, target, inst.mean_upper())
            assert lo_iv.lo == pytest.approx(p_lo, abs=1e-9)
            assert lo_iv.hi == pytest.approx(p_lo, abs=1e-9)
            assert hi_iv.lo == pytest.approx(p_hi, abs=1e-9)
            assert hi_iv.hi == pytest.approx(p_hi, abs=1e-9)

    def test_oracle_and_sandwich_on_randoms(self):
        rng = np.random.default_rng(97)
        for _ in range(30):
            inst = random_instance(rng)
            target = random_target(rng)
            box = aumann_interval(inst)
            outer = unrestricted_prob_bounds(inst, target)
            for kappa in np.linspace(box.lo, box.hi, 4):
                iv = mean_restricted_prob_bounds(inst, target, float(kappa))
                ref = oracle.exact_prob_bounds(inst, target, float(kappa))
                assert iv.hi == pytest.approx(ref.hi, abs=1e-6)
                assert iv.lo == pytest.approx(ref.lo, abs=1e-6)
                assert outer.lo - 1e-9 <= iv.lo <= iv.hi <= outer.hi + 1e-9


class TestDualEnvelope:
    def test_lambda_zero_term_is_hit_probability(self):
        from selbounds.events import _psi_mean

        rng = np.random.default_rng(101)
        for _ in range(20):
            inst = random_instance(rng)
            target = random_target(rng)
            prof = gap_profile(inst, target)
            assert _psi_mean(inst, prof, 0.0) == pytest.approx(
                unrestricted_prob_bounds(inst, target).hi, abs=1e-12
            )

    def test_worked_instance(self):
        env = dual_envelope(UNIT, EDGE, 0.5)
        assert env.upper == pytest.approx(0.625, abs=1e-6)

    def test_extreme_kappa(self):
        env = dual_envelope(UNIT, EDGE, 1.0)
        assert env.upper == pytest.approx(1.0, abs=1e-6)  # P(upper in [0.8,1]) = 1

    def test_weak_duality_any_lambda(self):
        from selbounds.events import _psi_mean, _phi_mean

        rng = np.random.default_rng(103)
        for _ in range(25):
            inst = random_instance(rng)
            target = random_target(rng)
            prof = gap_profile(inst, target)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            primal = mean_restricted_prob_bounds(inst, target, kappa)
            for lam in rng.uniform(-30, 30, 12):
                assert _psi_mean(inst, prof, float(lam)) - lam * kappa >= primal.hi - 1e-9
                assert _phi_mean(inst, prof, float(lam)) - lam * kappa <= primal.lo + 1e-9

    def test_matches_primal_on_randoms(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            inst = random_instance(rng)
            target = random_target(rng)
            box = aumann_interval(inst)
            for kappa in np.linspace(box.lo, box.hi, 3):
                primal = mean_restricted_prob_bounds(inst, target, float(kappa))
                env = dual_envelope(inst, target, float(kappa))
                assert env.upper == pytest.approx(primal.hi, abs=1e-4)
                assert env.lower == pytest.approx(primal.lo, abs=1e-4)

    def test_shape_in_kappa(self):
        # upper envelope concave nonincreasing-after-peak is hard to assert
        # directly; check concavity/convexity by second differences and the
        # monotone tails flagged by the sign pattern
        rng = np.random.default_rng(109)
        for _ in range(10):
            inst = random_instance(rng)
            target = random_target(rng)
            box = aumann_interval(inst)
            if box.width <= 1e-9:
                continue
            ks = np.linspace(box.lo, box.hi, 21)
            us, ls = [], []
            for k in ks:
                iv = mean_restricted_prob_bounds(inst, target, float(k))
                us.append(iv.hi)
                ls.append(iv.lo)
            d2u = np.diff(us, 2)
            d2l = np.diff(ls, 2)
            assert np.all(d2u <= 1e-8)   # U concave
            assert np.all(d2l >= -1e-8)  # L convex
