import numpy as np
import pytest

from selbounds import (
    AlphaOutOfRange,
    KappaInfeasible,
    MOutOfRange,
    Selection,
    SelectionMismatch,
    aumann_interval,
    mean_selection,
    median_benchmark,
    quantile_attainability_range,
    quantile_selection,
    marginal_law,
)

from helpers import constant_instance, random_instance, two_state_instance


class TestAumannInterval:
    def test_two_state(self):
        assert aumann_interval(two_state_instance()).as_tuple() == (-1.0, 1.0)

    def test_constant(self):
        assert aumann_interval(constant_instance()).as_tuple() == (0.0, 1.0)

    def test_chi2_grid_against_integration(self):
        from scipy import integrate, stats
        from selbounds import ComonotoneSpec, discretize, parse_law

        inst = discretize(ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 20001))
        iv = aumann_interval(inst)
        for val, df in ((iv.lo, 2), (iv.hi, 5)):
            ref = integrate.quad(lambda x: x * stats.chi2.pdf(x, df), 0, np.inf, limit=200)[0]
            assert val == pytest.approx(ref, abs=0.01)


class TestMedianBenchmark:
    def test_two_state(self):
        assert median_benchmark(two_state_instance()).as_tuple() == (-2.0, 0.0)

    def test_constant(self):
        assert median_benchmark(constant_instance()).as_tuple() == (0.0, 1.0)

    def test_chi2(self):
        from selbounds import ComonotoneSpec, discretize, parse_law

        inst = discretize(ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 20001))
        iv = median_benchmark(inst)
        assert iv.lo == pytest.approx(1.386, abs=1e-3)
        assert iv.hi == pytest.approx(4.351, abs=1e-2)


class TestCapacityFunctionals:
    def test_hitting_dominates_containment(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            inst = random_instance(rng)
            # hitting (-inf, t] is the lower endpoint's law, containment the upper's
            hitting, containment = marginal_law(inst, "lower"), marginal_law(inst, "upper")
            ts = np.union1d(hitting.values, containment.values)
            assert np.all(hitting.cdf(ts) >= containment.cdf(ts) - 1e-12)


class TestMeanSelection:
    def test_constant_affine(self):
        sel = mean_selection(constant_instance(), 0.25)
        assert np.allclose(sel.value, 0.25)
        assert sel.mean() == pytest.approx(0.25, abs=1e-12)

    def test_two_state_midpoint(self):
        sel = mean_selection(two_state_instance(), 0.0)
        # t* = 0.5 puts each scenario at its interval midpoint
        assert sorted(sel.value.tolist()) == [-1.0, 1.0]
        assert sel.mean() == pytest.approx(0.0, abs=1e-12)

    def test_upper_endpoint(self):
        inst = two_state_instance()
        sel = mean_selection(inst, 1.0)
        assert np.array_equal(np.sort(sel.value), np.sort(inst.upper))

    def test_infeasible(self):
        with pytest.raises(KappaInfeasible):
            mean_selection(two_state_instance(), 1.5)

    def test_mean_hits_target_on_randoms(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            inst = random_instance(rng)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            sel = mean_selection(inst, kappa)
            sel.validate(inst)
            assert sel.mean() == pytest.approx(kappa, abs=1e-12)


class TestQuantileAttainability:
    def test_two_state(self):
        assert quantile_attainability_range(two_state_instance(), 0.5).as_tuple() == (-2.0, 0.0)

    def test_constant_any_alpha(self):
        for alpha in (0.1, 0.5, 0.9):
            assert quantile_attainability_range(constant_instance(), alpha).as_tuple() == (0.0, 1.0)

    def test_chi2_medians(self):
        from selbounds import ComonotoneSpec, discretize, parse_law

        inst = discretize(ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 20001))
        iv = quantile_attainability_range(inst, 0.5)
        assert iv.lo == pytest.approx(1.386, abs=1e-3)
        assert iv.hi == pytest.approx(4.351, abs=1e-2)

    def test_nested_in_alpha(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            inst = random_instance(rng)
            a1, a2 = sorted(rng.uniform(0.05, 0.95, 2))
            r1 = quantile_attainability_range(inst, float(a1))
            r2 = quantile_attainability_range(inst, float(a2))
            assert r1.lo <= r2.lo + 1e-12 and r1.hi <= r2.hi + 1e-12

    def test_alpha_domain(self):
        with pytest.raises(AlphaOutOfRange):
            quantile_attainability_range(constant_instance(), 1.0)

    def test_marginal_masses_rounding_apart(self):
        # the lower law sums the weights below -1.25 to 0.49999999999999994
        # and the upper law to 0.5: the median range must not invert
        from selbounds import (
            DiscreteInstance,
            QuantileRestriction,
            mean_restricted_quantile_range,
            quantile_restricted_mean_interval,
        )

        inst = DiscreteInstance.from_rows(SIX_ROWS)
        assert median_benchmark(inst).as_tuple() == (-1.25, 0.25)
        iv = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, -0.5))
        assert aumann_interval(inst).contains_interval(iv)
        box = aumann_interval(inst)
        rng = mean_restricted_quantile_range(inst, 0.5, box.lo + 0.7 * box.width)
        assert median_benchmark(inst).contains_interval(rng)


SIX_ROWS = [(-1.5, -0.5, 1), (0.5, 1.75, 1), (1.5, 1.75, 3), (-1.25, 0.25, 2), (1, 2, 3), (-2, -1.25, 4)]


class TestQuantileSelection:
    def test_constant_split(self):
        sel = quantile_selection(constant_instance(), 0.5, 0.3)
        law = sel.law()
        assert np.array_equal(law.values, [0.3])
        assert law.quantile(0.5) == 0.3
        # one row per scenario: the contact scenario sits at m whole
        assert sel.scenario.tolist() == [0] and sel.subweight.tolist() == [1.0]

    def test_two_state_low_target(self):
        sel = quantile_selection(two_state_instance(), 0.5, -1.0)
        law = sel.law()
        assert law.quantile(0.5) == -1.0
        assert law.cdf(-1.0) >= 0.5

    def test_boundary_target(self):
        inst = two_state_instance()
        rng_att = quantile_attainability_range(inst, 0.5)
        for m in rng_att.as_tuple():
            law = quantile_selection(inst, 0.5, m).law()
            assert law.quantile(0.5) == m

    def test_out_of_range(self):
        with pytest.raises(MOutOfRange):
            quantile_selection(two_state_instance(), 0.5, 0.5)

    def test_exact_on_randoms(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            inst = random_instance(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            band = quantile_attainability_range(inst, alpha)
            m = float(rng.uniform(band.lo, band.hi))
            sel = quantile_selection(inst, alpha, m)
            sel.validate(inst)
            assert sel.law().quantile(alpha) == m


class TestSelectionStats:
    def test_lower_endpoint_selection(self):
        inst = two_state_instance()
        sel = Selection(np.arange(2), inst.lower.copy(), inst.weight.copy())
        sel.validate(inst)
        assert sel.mean() == pytest.approx(inst.mean_lower(), abs=1e-15)
        assert sel.law().values.tolist() == [-2.0, 0.0]

    def test_mean_selection_contract(self):
        inst = two_state_instance()
        sel = mean_selection(inst, 0.3)
        sel.validate(inst)
        assert sel.mean() == pytest.approx(0.3, abs=1e-12)

    def test_quantile_selection_contract(self):
        inst = two_state_instance()
        sel = quantile_selection(inst, 0.5, -0.7)
        sel.validate(inst)
        assert sel.law().quantile(0.5) == -0.7
        assert sel.law().cdf(-0.7) >= 0.5

    def test_mismatch_detection(self):
        inst = two_state_instance()
        bad_value = Selection(np.arange(2), np.array([5.0, 0.0]), inst.weight.copy())
        with pytest.raises(SelectionMismatch):
            bad_value.validate(inst)
        bad_weight = Selection(np.arange(2), inst.lower.copy(), np.array([0.5, 0.4]))
        with pytest.raises(SelectionMismatch):
            bad_weight.validate(inst)

    def test_selection_mean_inside_aumann(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            inst = random_instance(rng)
            box = aumann_interval(inst)
            frac = rng.uniform(0.0, 1.0, inst.n)
            vals = inst.lower + frac * (inst.upper - inst.lower)
            sel = Selection(np.arange(inst.n), vals, inst.weight.copy())
            assert box.contains(sel.mean(), tol=1e-10)
