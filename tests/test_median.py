import numpy as np
import pytest

from selbounds import (
    ComonotoneSpec,
    DiscreteInstance,
    InfeasibleMedian,
    MOutsideMedianSpan,
    aumann_interval,
    discretize,
    extremal_selection,
    marginal_cost_terms,
    marginal_cost_terms_parametric,
    marginal_law,
    median_benchmark,
    median_restricted_mean_interval,
    mixed_selection,
    parse_law,
    partition,
    oracle,
)

import selbounds.median as median
from selbounds.rearrange import ConditionalLaw

from helpers import constant_instance, law_median_holds, random_instance, two_state_instance


class TestPartition:
    def test_constant_contact_only(self):
        part = partition(constant_instance(), 0.5)
        assert part.p_minus == 0.0 and part.p_plus == 0.0 and part.p0 == 1.0
        assert part.alpha_minus == 0.5 and part.alpha_plus == 0.5

    def test_two_state_strictness_at_zero(self):
        # upper of the first scenario equals 0, which is not < 0
        part = partition(two_state_instance(), 0.0)
        assert part.p_minus == 0.0
        assert part.p_plus == 0.0
        assert part.p0 == 1.0

    def test_comonotone_masses_match_cdfs(self):
        from scipy import stats

        inst = discretize(ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 20001))
        m = 3.46
        part = partition(inst, m)
        assert part.p_minus == pytest.approx(stats.chi2.cdf(m, 5), abs=2e-3)
        assert part.p_plus == pytest.approx(1 - stats.chi2.cdf(m, 2), abs=2e-3)


class TestMedianRestrictedInterval:
    def test_constant_closed_form(self):
        iv = median_restricted_mean_interval(constant_instance(), 0.5)
        assert iv.as_tuple() == (0.25, 0.75)

    def test_constant_sweep_exact(self):
        inst = constant_instance()
        for m in np.linspace(0.01, 0.99, 25):
            iv = median_restricted_mean_interval(inst, float(m))
            assert iv.lo == pytest.approx(m / 2, abs=1e-12)
            assert iv.hi == pytest.approx((m + 1) / 2, abs=1e-12)

    def test_empty_contact_gives_aumann(self):
        # two halves strictly on either side of m = 0: p-=p+=1/2, p0=0
        inst = DiscreteInstance.from_rows([(-2.0, -1.0, 0.5), (1.0, 2.0, 0.5)])
        iv = median_restricted_mean_interval(inst, 0.0)
        assert iv.as_tuple() == aumann_interval(inst).as_tuple()

    def test_infeasible_sides(self):
        inst = DiscreteInstance.from_rows([(-2.0, -1.0, 0.7), (1.0, 2.0, 0.3)])
        with pytest.raises(InfeasibleMedian):
            median_restricted_mean_interval(inst, 0.0)  # p_minus = 0.7
        inst2 = DiscreteInstance.from_rows([(-2.0, -1.0, 0.3), (1.0, 2.0, 0.7)])
        with pytest.raises(InfeasibleMedian):
            median_restricted_mean_interval(inst2, 0.0)  # p_plus = 0.7

    def test_random_against_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            inst = random_instance(rng)
            m = float(rng.uniform(inst.lower.min() - 0.2, inst.upper.max() + 0.2))
            try:
                mine = median_restricted_mean_interval(inst, m)
            except InfeasibleMedian:
                with pytest.raises(InfeasibleMedian):
                    oracle.exact_median_mean_bounds(inst, m)
                continue
            ref = oracle.exact_median_mean_bounds(inst, m)
            assert mine.lo == pytest.approx(ref.lo, abs=1e-9)
            assert mine.hi == pytest.approx(ref.hi, abs=1e-9)
            box = aumann_interval(inst)
            assert box.contains_interval(mine, tol=1e-10)

    def test_endpoint_monotonicity_in_m(self):
        # raising the pivot weakens the at-or-below requirement and
        # strengthens the at-or-above one, so both endpoints are
        # nondecreasing in m wherever the restriction stays feasible
        inst = constant_instance()
        ms = np.linspace(0.05, 0.95, 19)
        his = [median_restricted_mean_interval(inst, float(m)).hi for m in ms]
        los = [median_restricted_mean_interval(inst, float(m)).lo for m in ms]
        assert np.all(np.diff(his) >= -1e-12)
        assert np.all(np.diff(los) >= -1e-12)

        rng = np.random.default_rng(63)
        for _ in range(15):
            rand_inst = random_instance(rng)
            his, los = [], []
            for m in np.linspace(rand_inst.lower.min(), rand_inst.upper.max(), 31):
                try:
                    iv = median_restricted_mean_interval(rand_inst, float(m))
                except InfeasibleMedian:
                    continue
                his.append(iv.hi)
                los.append(iv.lo)
            assert np.all(np.diff(his) >= -1e-10)
            assert np.all(np.diff(los) >= -1e-10)


class TestExtremalSelections:
    def test_constant_max(self):
        sel = extremal_selection(constant_instance(), 0.5, "max")
        law = sel.law()
        assert np.allclose(law.values, [0.5, 1.0])
        assert np.allclose(law.masses, [0.5, 0.5])
        assert sel.mean() == pytest.approx(0.75, abs=1e-15)

    def test_constant_min(self):
        sel = extremal_selection(constant_instance(), 0.5, "min")
        assert sel.mean() == pytest.approx(0.25, abs=1e-15)

    def test_randoms_attain_endpoints_and_keep_median(self):
        rng = np.random.default_rng(59)
        done = 0
        while done < 40:
            inst = random_instance(rng)
            m = float(rng.uniform(inst.lower.min(), inst.upper.max()))
            try:
                iv = median_restricted_mean_interval(inst, m)
            except InfeasibleMedian:
                continue
            hi = extremal_selection(inst, m, "max")
            lo = extremal_selection(inst, m, "min")
            hi.validate(inst)
            lo.validate(inst)
            assert hi.mean() == pytest.approx(iv.hi, abs=1e-12)
            assert lo.mean() == pytest.approx(iv.lo, abs=1e-12)
            assert law_median_holds(hi.law(), m)
            assert law_median_holds(lo.law(), m)
            done += 1


class TestMixedSelection:
    def test_theta_endpoints(self):
        inst = constant_instance()
        assert mixed_selection(inst, 0.5, 1.0).mean() == pytest.approx(0.75, abs=1e-12)
        assert mixed_selection(inst, 0.5, 0.0).mean() == pytest.approx(0.25, abs=1e-12)

    def test_theta_half_constant(self):
        sel = mixed_selection(constant_instance(), 0.5, 0.5)
        assert sel.mean() == pytest.approx(0.5, abs=1e-12)

    def test_interpolates_and_keeps_median(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 25:
            inst = random_instance(rng)
            m = float(rng.uniform(inst.lower.min(), inst.upper.max()))
            try:
                iv = median_restricted_mean_interval(inst, m)
            except InfeasibleMedian:
                continue
            theta = float(rng.uniform(0.0, 1.0))
            sel = mixed_selection(inst, m, theta)
            sel.validate(inst)
            want = theta * iv.hi + (1.0 - theta) * iv.lo
            assert sel.mean() == pytest.approx(want, abs=1e-10)
            assert law_median_holds(sel.law(), m)
            done += 1

        # desk-style instances: endpoints and pivots on a 0.25 grid, with
        # pivots meeting endpoints, zero-width and tied scenarios.  The grid
        # is offset by 0.1 so that theta*m + (1-theta)*m can round away from
        # m: cells where both selections sit at m must keep m exactly
        def grid(k):
            return 0.1 + 0.25 * k

        done = 0
        while done < 60:
            n = int(rng.integers(2, 9))
            k_lo = rng.integers(-8, 9, n)
            k_hi = k_lo + rng.integers(0, 9, n) * (rng.random(n) > 0.3)
            if rng.random() < 0.5:
                k_lo[1], k_hi[1] = k_lo[0], k_hi[0]
            weight = rng.uniform(0.2, 1.0, n)
            inst = DiscreteInstance.from_rows(list(zip(grid(k_lo), grid(k_hi), weight / weight.sum())))
            m = float(grid(rng.integers(k_lo.min(), k_hi.max() + 1)))
            try:
                iv = median_restricted_mean_interval(inst, m)
            except InfeasibleMedian:
                continue
            for theta in rng.uniform(0.0, 1.0, 10):
                sel = mixed_selection(inst, m, float(theta))
                sel.validate(inst)
                want = theta * iv.hi + (1.0 - theta) * iv.lo
                assert sel.mean() == pytest.approx(want, abs=1e-12)
                assert law_median_holds(sel.law(), m)
            done += 1


class TestOnePartitionOneFill:
    def test_each_query_partitions_once_and_fills_directly(self, monkeypatch):
        parts, laws = [], []
        real_partition, real_init = median.partition, ConditionalLaw.__init__
        monkeypatch.setattr(median, "partition", lambda *a: parts.append(1) or real_partition(*a))
        monkeypatch.setattr(ConditionalLaw, "__init__", lambda *a: laws.append(1) or real_init(*a))
        inst = random_instance(np.random.default_rng(71), n=40)
        m = float(np.mean(median_benchmark(inst).as_tuple()))
        assert median.partition(inst, m).p0 > 0.0
        for query in (
            lambda: median_restricted_mean_interval(inst, m),
            lambda: extremal_selection(inst, m, "max"),
            lambda: extremal_selection(inst, m, "min"),
            lambda: mixed_selection(inst, m, 0.5),
        ):
            parts.clear()
            query()
            assert (len(parts), len(laws)) == (1, 0)


class TestNoShrinkExample:
    def test_mean_zero_median_m_selection_grid(self):
        # symmetric two-state design: value m on one state, -m on the other
        inst = two_state_instance(kappa=0.0, d=1.0)
        for m in np.linspace(-2.0, 0.0, 21):
            sel_rows = [(0, float(m)), (1, float(-m))]
            values = np.array([v for _, v in sel_rows])
            from selbounds import Selection

            sel = Selection(np.array([0, 1]), values, inst.weight.copy())
            sel.validate(inst)
            assert sel.mean() == pytest.approx(0.0, abs=1e-15)
            assert law_median_holds(sel.law(), m)


class TestMarginalCostTerms:
    def test_zero_at_lower_median(self):
        inst = two_state_instance()
        terms = marginal_cost_terms(inst, -2.0)
        assert terms.s_lower == 0.0

    def test_zero_at_upper_median(self):
        inst = two_state_instance()
        terms = marginal_cost_terms(inst, 0.0)
        assert terms.s_upper == 0.0

    def test_outside_span(self):
        with pytest.raises(MOutsideMedianSpan):
            marginal_cost_terms(two_state_instance(), 1.5)

    def test_inside_span_tolerance_clips(self):
        # m outside the median span [1, 4] by less than the span tolerance
        inst = DiscreteInstance.from_rows([(0.0, 3.0), (1.0, 4.0), (2.0, 5.0)])
        assert marginal_cost_terms(inst, 1.0 - 1e-12) == marginal_cost_terms(inst, 1.0)
        assert marginal_cost_terms(inst, 4.0 + 1e-12) == marginal_cost_terms(inst, 4.0)
        low, high = parse_law("uniform(0,2)"), parse_law("uniform(1,3)")   # medians 1 and 2
        for edge, m in ((1.0 - 1e-12, 1.0), (2.0 + 1e-12, 2.0)):
            assert marginal_cost_terms_parametric(low, high, edge) == (
                marginal_cost_terms_parametric(low, high, m)
            )

    def test_chi2_routes_agree(self):
        spec = ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 20001)
        inst = discretize(spec)
        low = marginal_law(inst, "lower")
        high = marginal_law(inst, "upper")
        m = 0.3 * low.quantile(0.5) + 0.7 * high.quantile(0.5)
        general = median_restricted_mean_interval(inst, m)
        discrete_terms = marginal_cost_terms(inst, m)
        param_terms = marginal_cost_terms_parametric(spec.lower_law, spec.upper_law, m)
        for implied in (discrete_terms.implied, param_terms.implied):
            assert implied.lo == pytest.approx(general.lo, abs=1e-3)
            assert implied.hi == pytest.approx(general.hi, abs=1e-3)
