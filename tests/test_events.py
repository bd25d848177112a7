import math
import tracemalloc

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
    normalize,
    unrestricted_prob_bounds,
    oracle,
)

from selbounds.events import _pin_at, _regime_fill

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

    def test_working_set(self):
        # the profile keeps four float and two bool columns (34 bytes a
        # row); one float and five bool scratch columns make the traced
        # peak 48 bytes a row, against 55 while each piece's np.where held
        # a column's old and new array at once
        n = 50_000
        rng = np.random.default_rng(5)
        lo = rng.normal(size=n)
        inst = DiscreteInstance(lo, lo + rng.exponential(size=n), np.full(n, 1.0 / n))
        target = TargetSet.from_pairs([[1.0, 2.0], [3.0, 3.5]])
        tracemalloc.start()
        try:
            gap_profile(inst, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n + 2**16


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

    def test_report_pin_reads_the_calibration_bit_for_bit(self):
        # the report keeps lambda_star and the selection's mean without
        # building the selection; both must be calibrate_mean's own bits
        rng = np.random.default_rng(29)
        for i in range(80):
            if i % 2:
                n = int(rng.integers(2, 9))
                lower = rng.integers(-10, 8, n) * 0.25
                rows = zip(lower, lower + rng.integers(0, 7, n) * 0.25, rng.uniform(0.1, 1.0, n))
                inst, target = DiscreteInstance.from_rows(rows), TargetSet.from_pairs([[0.0, 0.5]])
            else:
                inst, target = random_instance(rng, n=int(rng.integers(1, 40))), random_target(rng)
            box = aumann_interval(inst)
            for kappa in (box.lo, box.hi, float(rng.uniform(box.lo, box.hi))):
                cal = calibrate_mean(inst, target, kappa)
                iv, lam, mean = _pin_at(inst, gap_profile(inst, target), kappa)
                assert (lam, mean, iv.hi) == (cal.lambda_star, cal.selection.mean(), cal.probability)


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

    def test_curve_sorts_each_regime_once(self, tmp_path, monkeypatch):
        # a 201-point curve across all four regimes: one gap sort for each
        import selbounds.cli as cli
        import selbounds.events as events

        sorts = []
        real = events._sort_fill
        monkeypatch.setattr(events, "_sort_fill", lambda *a: sorts.append(1) or real(*a))
        inst = random_instance(np.random.default_rng(5), n=400)
        request = cli.AnalysisRequest(restriction=("mean", 0.0), target=TargetSet.from_pairs([[-1, 0], [1, 1.5]]))
        cli.export_curves(request, inst, tmp_path / "pin")
        assert len(sorts) == 4
        sorts.clear()
        box = aumann_interval(inst)
        mean_restricted_prob_bounds(inst, request.target, box.lo + 0.05 * box.width)
        assert len(sorts) == 2   # a batch of one sorts its U and its L regime

    def test_regime_fill_working_set(self):
        # U's fills at 50k scenarios, 34k of them in the pool, keep 40 B a
        # pool scenario; freeing the gaps, sorted keys and costs before the
        # weights and indices are put in fill order holds the peak at 64
        # (89 while all were alive)
        rng = np.random.default_rng(3)
        n = 50_000
        lower = rng.uniform(0.0, 4.0, n)
        inst = normalize(DiscreteInstance(lower, lower + rng.exponential(1.0, n), rng.uniform(0.1, 1.0, n)))
        prof = gap_profile(inst, TargetSet.from_pairs([[1.0, 2.0], [3.0, 3.5]]))
        for above in (True, False):
            tracemalloc.start()
            try:
                fill = _regime_fill(inst, prof, "sup", above)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert fill.index.size > n // 2
            assert peak <= 67 * fill.index.size

    def test_zero_cost_boundary_raises_no_warning(self):
        # scenario 0 meets the target at its upper endpoint: zero gap, zero
        # cost, and at kappa = E upper it is the fill's first position
        inst = DiscreteInstance.from_rows([(0.0, 1.0, 0.5), (0.5, 2.0, 0.5)])
        target = TargetSet.from_pairs([[1.0, 1.5]])
        assert gap_profile(inst, target).delta_plus[0] == 0.0
        box = aumann_interval(inst)
        for kappa in np.linspace(box.lo, box.hi, 201):
            iv = mean_restricted_prob_bounds(inst, target, float(kappa))
            assert 0.0 <= iv.lo <= iv.hi <= 1.0
        # y0 -> 1 from below avoids A, so L is an unattained 0
        assert mean_restricted_prob_bounds(inst, target, box.hi).as_tuple() == (0.0, 0.5)

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

    def test_one_objective_evaluation_per_side(self, monkeypatch):
        # the multipliers come from the sorted kinks; the objective is
        # evaluated once, at each multiplier
        import selbounds.events as events

        calls = []
        for name in ("_psi_mean", "_phi_mean"):
            real = getattr(events, name)
            monkeypatch.setattr(events, name, lambda *a, f=real: calls.append(1) or f(*a))
        inst = random_instance(np.random.default_rng(113), n=200)
        box = aumann_interval(inst)
        dual_envelope(inst, TargetSet.from_pairs([[-0.5, 0.5], [1.0, 1.5]]), box.lo + 0.3 * box.width)
        assert len(calls) == 2

    def test_upper_multiplier_is_calibration_lambda(self):
        # the dual's kink search and the primal's greedy fill are separate
        # code, yet they stop at the same boundary gap
        rng = np.random.default_rng(117)
        grid_target = TargetSet.from_pairs([[1.0, 2.0], [3.0, 3.5]])
        compared = 0
        for i in range(400):
            if i % 2:
                inst, target = random_instance(rng, max_n=8), random_target(rng)
            else:
                n = int(rng.integers(2, 9))
                lower = 0.25 * rng.integers(0, 17, n)
                upper = lower + 0.25 * rng.integers(0, 9, n)
                w = rng.uniform(0.1, 1.0, n)
                inst = DiscreteInstance(lower, upper, w / w.sum())
                target = grid_target
            box = aumann_interval(inst)
            kappa = box.lo + float(rng.uniform()) * box.width
            lam = calibrate_mean(inst, target, kappa).lambda_star
            if math.isfinite(lam):
                got = dual_envelope(inst, target, kappa).lambda_upper
                assert got == pytest.approx(lam, rel=1e-9, abs=1e-12)
                compared += 1
        assert compared > 300


class TestDualMetamorphic:
    """The dual equals the primal within 1e-12 on transformed instances.

    Each case is a random instance and target at four kappas (both ends of
    the mean range and two inside); the transformed problem moves the
    instance, the target and kappa together.
    """

    @staticmethod
    def cases(seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            inst = random_instance(rng, max_n=8)
            target = random_target(rng)
            box = aumann_interval(inst)
            for frac in (0.0, rng.uniform(), rng.uniform(), 1.0):
                yield inst, target, box.lo + frac * box.width

    @staticmethod
    def assert_dual_is_primal(inst, target, kappa):
        primal = mean_restricted_prob_bounds(inst, target, kappa)
        env = dual_envelope(inst, target, kappa)
        assert abs(env.upper - primal.hi) <= 1e-12
        assert abs(env.lower - primal.lo) <= 1e-12
        return primal

    def test_scaling(self):
        for inst, target, kappa in self.cases(127):
            for s in (1e-6, 1e-3, 1e3, 1e6, 1e8):
                self.assert_dual_is_primal(
                    DiscreteInstance(s * inst.lower, s * inst.upper, inst.weight),
                    TargetSet.from_pairs([[s * a, s * b] for a, b in target.pieces]),
                    s * kappa,
                )

    def test_translation(self):
        # the objective at the multiplier cancels terms of size |lam * kappa|,
        # so its rounding grows with the offset (about 2e-12 at offset 40)
        for inst, target, kappa in self.cases(131):
            for t in (-3.0, 2.5, 10.0):
                self.assert_dual_is_primal(
                    DiscreteInstance(inst.lower + t, inst.upper + t, inst.weight),
                    TargetSet.from_pairs([[a + t, b + t] for a, b in target.pieces]),
                    kappa + t,
                )

    def test_reflection(self):
        for inst, target, kappa in self.cases(137):
            mirror = DiscreteInstance(-inst.upper, -inst.lower, inst.weight)
            got = self.assert_dual_is_primal(mirror, target.reflected(), -kappa)
            want = mean_restricted_prob_bounds(inst, target, kappa)
            assert got.as_tuple() == pytest.approx(want.as_tuple(), abs=1e-12)

    def test_reordering(self):
        rng = np.random.default_rng(139)
        for inst, target, kappa in self.cases(139):
            got = self.assert_dual_is_primal(inst.reordered(rng.permutation(inst.n)), target, kappa)
            want = mean_restricted_prob_bounds(inst, target, kappa)
            assert got.as_tuple() == pytest.approx(want.as_tuple(), abs=1e-12)
