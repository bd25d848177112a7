import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbounds import (
    ComonotoneSpec,
    DiscreteInstance,
    InfeasibleMedian,
    MOutsideMedianSpan,
    QuantileRestriction,
    aumann_interval,
    discretize,
    extremal_selection,
    marginal_cost_terms,
    marginal_cost_terms_parametric,
    marginal_law,
    mean_restricted_quantile_range,
    median_benchmark,
    median_restricted_mean_interval,
    mixed_selection,
    parse_law,
    partition,
    pivot_mean_interval,
    quantile_attainability_range,
    quantile_restricted_mean_interval,
    oracle,
)

import selbounds.median as median
from selbounds.rearrange import ConditionalLaw

from helpers import (
    constant_instance,
    law_median_holds,
    parity_instance,
    parity_pivots,
    random_instance,
    two_state_instance,
)


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


def _outcome(answer):
    """The endpoints of every interval of ``answer()`` as ``float.hex``, or
    the type and message of the error it raises."""
    try:
        return [v.hex() for iv in answer() for v in iv.as_tuple()]
    except Exception as exc:  # compared with the other form's error
        return type(exc), str(exc)


class TestPivotCurve:
    """The presorted batch answers every pivot as the point functions do,
    to the bit, and a median curve raises the first infeasible pivot's
    error."""

    ALPHA = 0.3

    @staticmethod
    def median_pair(inst, pivots):
        batch = _outcome(lambda: median._median_curve(inst, pivots))
        point = _outcome(lambda: [median_restricted_mean_interval(inst, float(m)) for m in pivots])
        return batch, point

    @classmethod
    def quantile_pair(cls, inst, pivots):
        below, above = 1.0 - cls.ALPHA, cls.ALPHA
        parts = (partition(inst, float(q)) for q in pivots)
        batch = _outcome(lambda: median._pivot_curve(inst, parts, below, above))
        point = _outcome(lambda: [pivot_mean_interval(inst, float(q), below, above) for q in pivots])
        return batch, point

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_batch_equals_point(self, seed):
        # continuous and 0.25-grid data with zero-width scenarios and -0.0
        # endpoints; pivots on endpoints (both zeros among them), on the
        # median band's grid and outside it
        rng = np.random.default_rng(seed)
        inst = parity_instance(rng)
        band = median_benchmark(inst)
        grid = np.linspace(band.lo, band.hi, 7)
        drawn = parity_pivots(rng, inst, 6)
        inside = [*grid, *(q for q in drawn if band.lo <= q <= band.hi)]
        batch, point = self.median_pair(inst, inside)
        assert batch == point
        batch, point = self.median_pair(inst, rng.permutation([*grid, *drawn]))
        assert batch == point
        batch, point = self.quantile_pair(inst, [*grid, *drawn])
        assert batch == point and isinstance(batch, list)

    def test_empty_contact_set(self):
        # both outer masses exactly 1/2: the curve reads the mean box there
        inst = DiscreteInstance.from_rows([(-2.0, -1.0, 0.5), (1.0, 2.0, 0.5)])
        pivots = [-1.0, -0.5, 0.0, 0.5, 1.0]
        batch, point = self.median_pair(inst, pivots)
        assert batch == point
        assert batch[4:6] == [v.hex() for v in aumann_interval(inst).as_tuple()]
        batch, point = self.quantile_pair(inst, pivots)
        assert batch == point

    def test_distinct_uppers_rounding_to_one_gap(self):
        # at pivot -1e16 every gap upper - m rounds to 1e16, so the presort
        # by upper must give way to scenario order among equal gaps
        uppers = [0.9, 0.5, 0.7, 0.6, 0.8, 0.55]
        weights = [0.3, 0.1, 0.25, 0.05, 0.2, 0.1]
        inst = DiscreteInstance.from_rows([(-2e16, u, w) for u, w in zip(uppers, weights)])
        batch, point = self.median_pair(inst, [-1e16, -1.5e16, 0.0])
        assert batch == point and isinstance(batch, list)
        batch, point = self.quantile_pair(inst, [-1e16])
        assert batch == point

    @pytest.mark.parametrize("n", [257, 2000])
    def test_presort_is_the_fill_order(self, monkeypatch, n):
        # past _fill_order's stable-sort pool a presort side is one
        # quicksort with its ties put back: no stable sort, the same bits
        rng = np.random.default_rng(n)
        lower = 0.25 * rng.integers(-8, 9, n)
        inst = DiscreteInstance.from_rows(zip(lower, lower + 0.25 * rng.integers(0, 5, n), rng.uniform(0.1, 1.0, n)))
        band = median_benchmark(inst)
        pivots = np.linspace(band.lo, band.hi, 9)
        kinds, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: kinds.append(kw.get("kind")) or argsort(*a, **kw))
        batch = _outcome(lambda: median._median_curve(inst, pivots))
        monkeypatch.undo()
        assert len(kinds) == 2 and "stable" not in kinds
        assert batch == self.median_pair(inst, pivots)[1]

    def test_first_infeasible_pivot_raises(self):
        inst = DiscreteInstance.from_rows([(-2.0, -1.0, 0.7), (1.0, 2.0, 0.3)])
        batch, point = self.median_pair(inst, [-1.5, 0.0, 3.0])
        assert batch == point
        assert batch[0] is InfeasibleMedian and "m=0.0 " in batch[1]


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


class TestPivotLayerBits:
    """Every pivot answer keeps its bits: the median and quantile intervals
    and the mean-pinned quantile ranges as ``float.hex``, and the extremal
    and mixed selections as a SHA-256 of their arrays."""

    # (seed, on a 0.25 grid, n): ten endpoints as float.hex, then the digest
    PINNED = {
        (1, False, 2): (
            [
                "0x1.74abad195f04ap-2", "0x1.9a416234a699ep-2", "0x1.877687a702cf4p-2", "0x1.ad0c3cc24a648p-2",
                "0x1.81730e83ed1ddp-2", "0x1.a407070da9da5p-2", "0x1.61e0d28bbb3a1p-2", "0x1.64e28f1d4612ep-2",
                "0x1.61e0d28bbb3a1p-2", "0x1.a24f2d95eccc2p-2",
            ],
            "4a5acc86b513207fe68e395a8d6cd1e671e1d611a959e031bf2d55bbcf3fa2b9",
        ),
        (2, True, 3): (
            [
                "0x1.2000000000000p-1", "0x1.8666666666667p-1", "0x1.4000000000000p-1", "0x1.999999999999ap-1",
                "0x1.35c28f5c28f5cp-1", "0x1.947ae147ae148p-1", "0x1.8000000000000p-1", "0x1.8624dd2f1a9fcp-1",
                "0x1.8000000000000p-1", "0x1.0000000000000p+0",
            ],
            "77c04622dcdfcad63091b824ffdf7dba7387568cc3f08176b3828d4820ae0c01",
        ),
        (3, False, 5): (
            [
                "0x1.b1a07b67d5575p-1", "0x1.2c1b36b81b134p+0", "0x1.d2a13c8980f61p-1", "0x1.2ccd084026c2ep+0",
                "0x1.964391e1e54e0p-1", "0x1.2cbba6ead7019p+0", "0x1.053cd67810b16p+1", "0x1.073f5754ce7dap+1",
                "0x1.ac221aa4baeafp-2", "0x1.0a98283990d98p-1",
            ],
            "7b7a1e0c9c7ab1956910c3d02704929b8c458aa82173abc96bc35117d9e45ba1",
        ),
        (4, True, 5): (
            [
                "0x1.fb13b13b13b14p-2", "0x1.db13b13b13b14p-1", "0x1.04ec4ec4ec4ecp-1", "0x1.189d89d89d89ep+0",
                "0x1.eeabb78845512p-2", "0x1.094160e2dafa8p+0", "0x1.0000000000000p-1", "0x1.369d0369d0369p-1",
                "0x0.0p+0", "0x1.0000000000000p-1",
            ],
            "a6892ef8b10bdf30a1ae83f341682f703d05fe6ef31c23dbc31d64bc4a3ea50b",
        ),
        (5, False, 12): (
            [
                "0x1.59fab163bc986p-4", "0x1.f39d6f7649afdp-1", "0x1.67932b61c8b46p-4", "0x1.fae6a18ff1ac3p-1",
                "0x1.4815d73200c02p-4", "0x1.d2bde9e83c6a9p-1", "0x1.c15b7f53fc3e3p-4", "0x1.c15b7f53fc3e3p-4",
                "-0x1.91cebb117e6e3p-1", "0x1.c15b7f53fc3e3p-4",
            ],
            "ca558d8df4e67206a5397c650b25c09154d54061fef941859c7c0efc9ea2d6cd",
        ),
        (6, True, 12): (
            [
                "0x1.5555555555556p-4", "0x1.eaaaaaaaaaaa8p-2", "0x1.5555555555556p-4", "0x1.eaaaaaaaaaaa8p-2",
                "0x1.0da740da740d9p-3", "0x1.0cf13579be023p-1", "0x0.0p+0", "0x1.3333333333332p-5",
                "-0x1.0000000000000p-2", "0x1.0000000000000p-1",
            ],
            "73969ce4fb2a149452fc37843bfa66cfedaf95a46f7d0500c1daa199cf0bed40",
        ),
        (7, False, 40): (
            [
                "-0x1.86f274f67b602p-2", "0x1.43e98baf2aeeap-2", "-0x1.86e75d3622541p-2", "0x1.43edcb8660ab6p-2",
                "-0x1.b3f0e9b485a62p-2", "0x1.259654e3d7414p-2", "-0x1.d49939df35222p-2", "-0x1.94d672ea23b50p-3",
                "-0x1.c7fba74b18102p-1", "-0x1.e93827a07d88fp-2",
            ],
            "5b74e7a0fb57e09665bea4933fa5915538818077d1c967aea061a31707109b2c",
        ),
        (8, True, 40): (
            [
                "-0x1.2620ae4c415c8p-5", "0x1.8ae4c415c9881p-2", "-0x1.0572620ae4c38p-6", "0x1.9882b93105725p-2",
                "-0x1.17bf82816a8a2p-5", "0x1.94ce8b00a7536p-2", "-0x1.0000000000000p-2", "0x1.1bfd44f307820p-7",
                "-0x1.0000000000000p-1", "0x0.0p+0",
            ],
            "5818b513fcf610bd8e5e778a724f364854115dd7d8bf1b4f6869d05915bea96b",
        ),
        (9, False, 120): (
            [
                "0x1.da1d90bec6235p-6", "0x1.94bddb78f3354p-1", "0x1.5fb8541857ee3p-6", "0x1.8f8cbf5d7f899p-1",
                "0x1.139e57fb537fbp-5", "0x1.ab171e6dad3abp-1", "-0x1.86340a9f3e946p-5", "0x1.c24a2b665eaeep-3",
                "-0x1.30024e084686ep-1", "-0x1.8c7144f8b39ecp-4",
            ],
            "b112d7d422f85c3d7af972b9dead986525a193fbdf5fba228dffb350e98e64bb",
        ),
        (10, True, 120): (
            [
                "0x1.1bb8413911efap-4", "0x1.0f15328c3ab38p-1", "0x1.1bb8413911efap-4", "0x1.0f15328c3ab38p-1",
                "0x1.63b9d1f3de584p-4", "0x1.1373e6b1896cdp-1", "0x0.0p+0", "0x1.8ccccccccccd6p-3",
                "-0x1.0000000000000p-2", "0x0.0p+0",
            ],
            "db55d0889a806ca0f3f4d4b7c5e654ad30e7f64c700bbbb89d7e4e4d2c3bc562",
        ),
        (11, False, 300): (
            [
                "0x1.7c0205f0abb48p-4", "0x1.93a7a82e14a9fp-1", "0x1.5f347a6259923p-4", "0x1.9247927dd5585p-1",
                "0x1.810c583887674p-4", "0x1.982f3b220a1e0p-1", "0x1.33077b9783238p-3", "0x1.643ca5368691cp-2",
                "-0x1.d11c320afe2fap-2", "0x1.5967a6d44779cp-3",
            ],
            "7277869ae5bf90d203b7be087311cc736ea8a74979d58d9f4a9a0341ddf9cb01",
        ),
        (12, True, 300): (
            [
                "0x1.0de9bd37a6f50p-4", "0x1.16f4de9bd37aap-1", "0x1.0de9bd37a6f50p-4", "0x1.16f4de9bd37aap-1",
                "0x1.8a84acbe8d944p-4", "0x1.224490401c7eap-1", "0x0.0p+0", "0x1.19f49f49f49f0p-2",
                "-0x1.0000000000000p-1", "0x1.0000000000000p-2",
            ],
            "02e1f3e59df804de3d16c9de0441f3f6ffe324a9e17fb164e1625f463bc1b4fb",
        ),
    }

    @staticmethod
    def instance(seed, grid, n):
        """Signed random data or a 0.25 grid, with zero-width scenarios and
        the first row repeated at the end."""
        rng = np.random.default_rng(seed)
        if grid:
            lower = rng.integers(-4, 5, n) / 4.0
            width = rng.integers(0, 5, n) / 4.0
            weight = rng.integers(1, 5, n).astype(float)
        else:
            lower = rng.normal(size=n)
            width = rng.exponential(size=n) * (rng.random(n) > 0.2)
            weight = rng.uniform(0.1, 1.0, n)
        lower[-1], width[-1], weight[-1] = lower[0], width[0], weight[0]
        return DiscreteInstance(lower, lower + width, weight / weight.sum())

    @staticmethod
    def answers(inst):
        band = median_benchmark(inst)
        ends = np.unique(np.concatenate([inst.lower, inst.upper]))
        inside = ends[(ends >= band.lo) & (ends <= band.hi)]
        pivots = (band.lo + 0.5 * band.width, float(inside[inside.size // 2]))
        box = aumann_interval(inst)
        q_band = quantile_attainability_range(inst, 0.3)
        intervals = [median_restricted_mean_interval(inst, m) for m in pivots] + [
            quantile_restricted_mean_interval(
                inst, QuantileRestriction(0.3, q_band.lo + 0.6 * q_band.width)
            ),
            mean_restricted_quantile_range(inst, 0.5, box.lo + 0.02 * box.width),
            mean_restricted_quantile_range(inst, 0.3, box.lo + 0.6 * box.width),
        ]
        digest = hashlib.sha256()
        for m in pivots:
            for sel in (
                extremal_selection(inst, m, "max"),
                extremal_selection(inst, m, "min"),
                mixed_selection(inst, m, 0.3),
            ):
                for arr in (sel.scenario, sel.value, sel.subweight):
                    digest.update(arr.tobytes())
        return [v.hex() for iv in intervals for v in iv.as_tuple()], digest.hexdigest()

    @pytest.mark.parametrize("seed, grid, n", list(PINNED))
    def test_answers_keep_their_bits(self, seed, grid, n):
        hexes, digest = self.answers(self.instance(seed, grid, n))
        assert (hexes, digest) == self.PINNED[seed, grid, n]
