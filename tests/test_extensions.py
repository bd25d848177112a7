import math

import numpy as np
import pytest

from selbounds import (
    DiscreteInstance,
    InfeasibleMoment,
    InfeasibleQuantile,
    InvalidPower,
    MomentRestriction,
    QuantileRestriction,
    RestrictionViolated,
    Selection,
    aumann_interval,
    mean_restricted_quantile_range,
    median_restricted_mean_interval,
    mixture_convexity_check,
    moment_restricted_mean_interval,
    moment_selection,
    power_image_interval,
    quantile_attainability_range,
    quantile_restricted_mean_interval,
    quantile_restriction_feasible,
    quantile_selection,
    oracle,
)
from selbounds.errors import InfeasibleMedian, InputError

from helpers import constant_instance, random_instance, two_state_instance

UNIT = constant_instance(0.0, 1.0)


class TestPowerImage:
    def test_square_on_unit(self):
        assert power_image_interval(UNIT, 2.0).as_tuple() == (0.0, 1.0)

    def test_identity_power(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng)
            assert power_image_interval(inst, 1.0).as_tuple() == pytest.approx(
                aumann_interval(inst).as_tuple(), abs=1e-14
            )

    def test_cube_with_negative_lowers_vs_sampling(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=4)
        iv = power_image_interval(inst, 3.0)
        # sampling oracle: random selections' third moments stay inside,
        # and the endpoint selections hit the ends
        for _ in range(300):
            frac = rng.uniform(0.0, 1.0, inst.n)
            vals = inst.lower + frac * (inst.upper - inst.lower)
            mom = float(np.dot(inst.weight, np.sign(vals) * np.abs(vals) ** 3))
            assert iv.lo - 1e-9 <= mom <= iv.hi + 1e-9
        lows = float(np.dot(inst.weight, np.sign(inst.lower) * np.abs(inst.lower) ** 3))
        assert iv.lo == pytest.approx(lows, abs=1e-12)

    def test_invalid_power(self):
        inst = DiscreteInstance.from_rows([(-1.0, 1.0, 1.0)])
        with pytest.raises(InvalidPower):
            power_image_interval(inst, 2.0)
        with pytest.raises(InvalidPower):
            power_image_interval(inst, 0.5)
        # negative orders: 1/x has no finite image on a scenario across 0
        with pytest.raises(InvalidPower):
            power_image_interval(inst, -1.0)
        pos = DiscreteInstance.from_rows([(1.0, 4.0), (2.0, 3.0)])
        with pytest.raises(InvalidPower):
            power_image_interval(pos, -1.0)
        with pytest.raises(InvalidPower):
            moment_restricted_mean_interval(pos, MomentRestriction(-1.0, 0.4))


class TestMomentRestrictedInterval:
    def test_unit_square_quarter(self):
        iv = moment_restricted_mean_interval(UNIT, MomentRestriction(2.0, 0.25))
        assert iv.lo == pytest.approx(0.25, abs=1e-4)
        assert iv.hi == pytest.approx(0.5, abs=1e-4)

    def test_r_one_point_identification(self):
        iv = moment_restricted_mean_interval(UNIT, MomentRestriction(1.0, 0.37))
        assert iv.as_tuple() == (0.37, 0.37)

    def test_boundary_moment_collapses(self):
        inst = DiscreteInstance.from_rows([(0.1, 0.5, 0.4), (0.6, 1.4, 0.6)])
        img = power_image_interval(inst, 2.0)
        iv = moment_restricted_mean_interval(inst, MomentRestriction(2.0, img.hi))
        assert iv.hi - iv.lo == pytest.approx(0.0, abs=1e-5)
        assert iv.hi == pytest.approx(inst.mean_upper(), abs=1e-5)

    def test_infeasible(self):
        with pytest.raises(InfeasibleMoment):
            moment_restricted_mean_interval(UNIT, MomentRestriction(2.0, 1.5))

    def test_oracle_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            lo = np.abs(rng.uniform(0.0, 1.5, n))
            width = rng.uniform(0.0, 1.5, n)
            w = rng.uniform(0.2, 1.0, n)
            inst = DiscreteInstance.from_rows(list(zip(lo, lo + width, w / w.sum())))
            r = float(rng.choice([2.0, 3.0, 0.5]))
            img = power_image_interval(inst, r)
            mu = float(rng.uniform(img.lo, img.hi))
            mine = moment_restricted_mean_interval(inst, MomentRestriction(r, mu))
            ref = oracle.exact_moment_mean_bounds(inst, r, mu)
            assert mine.lo == pytest.approx(ref.lo, abs=1e-4)
            assert mine.hi == pytest.approx(ref.hi, abs=1e-4)

    def test_scale_free(self):
        # rescaling the data by s moves the interval by s, to 1e-9 of its width
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            lo, width, w = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n), rng.uniform(0.2, 1.0, n)
            t = float(rng.uniform())

            def interval(s):
                inst = DiscreteInstance.from_rows(list(zip(s * lo, s * (lo + width), w)))
                img = power_image_interval(inst, 2.0)
                return moment_restricted_mean_interval(
                    inst, MomentRestriction(2.0, img.lo + t * img.width)
                )

            unit = interval(1.0)
            gate = 1e-9 * max(unit.width, 1e-6)
            for s in (1e-6, 1e-3, 1e3, 1e6):
                iv = interval(s)
                assert iv.lo / s == pytest.approx(unit.lo, abs=gate)
                assert iv.hi / s == pytest.approx(unit.hi, abs=gate)

    def test_inner_envelope_vs_dense_grid(self):
        # per-scenario sup of x + lam x^r against a dense value grid
        from selbounds.extensions import _scenario_envelope

        rng = np.random.default_rng(13)
        for _ in range(40):
            lo = np.array([rng.uniform(-1.5, 1.0)])
            hi = lo + rng.uniform(0.0, 2.0)
            r = float(rng.choice([3.0, 5.0]))
            lam = float(rng.uniform(-4.0, 4.0))
            got_max = _scenario_envelope(lo, hi, r, lam, True)[0]
            got_min = _scenario_envelope(lo, hi, r, lam, False)[0]
            xs = np.linspace(lo[0], hi[0], 20001)
            vals = xs + lam * np.sign(xs) * np.abs(xs) ** r
            assert got_max >= vals.max() - 1e-6
            assert got_min <= vals.min() + 1e-6


class TestMomentSolver:
    @staticmethod
    def instance(rng, r, n):
        """Odd r across 0, r < 1 touching 0, zero widths, 0.25-grid ties."""
        odd = r in (3.0, 5.0)
        lo = rng.uniform(-1.5, 1.5, n) if odd else rng.uniform(0.0, 1.5, n)
        if r < 1.0:
            lo[0] = 0.0
        width = rng.uniform(0.0, 1.5, n) * (rng.random(n) > 0.2)
        if rng.random() < 0.3:
            lo, width = np.round(4 * lo) / 4, np.round(4 * width) / 4
        w = rng.uniform(0.2, 1.0, n)
        return DiscreteInstance(lo, lo + width, w / w.sum())

    def test_attaining_selections(self):
        # feasible, E y^r = mu_r and E y at the endpoint, each to 1e-12 relative
        from selbounds.extensions import _power

        rng = np.random.default_rng(43)
        for _ in range(120):
            r = float(rng.choice([0.5, 2.0, 2.5, 3.0, 5.0]))
            inst = self.instance(rng, r, int(rng.choice([1, 2, 5, 8, 100, 1000, 10000])))
            img = power_image_interval(inst, r)
            # the edges exactly: a few ulps inside one, the mean moves by
            # |lam*| (up to 1e7 here) per unit of moment, so no value there
            # is defined to 1e-12
            inner = [img.lo + rng.uniform() * img.width for _ in range(2)]
            mu = float(rng.choice([img.lo, img.hi, *inner]))
            restriction = MomentRestriction(r, mu)
            iv = moment_restricted_mean_interval(inst, restriction)
            moment_scale = max(abs(img.lo), abs(img.hi), 1e-300)
            mean_scale = max(abs(inst.mean_lower()), abs(inst.mean_upper()), 1e-300)
            for side, endpoint in (("max", iv.hi), ("min", iv.lo)):
                sel = moment_selection(inst, restriction, side)
                sel.validate(inst)
                moment = float(np.dot(sel.subweight, _power(sel.value, r)))
                assert abs(moment - mu) <= 1e-12 * moment_scale
                assert abs(sel.mean() - endpoint) <= 1e-12 * mean_scale

    def test_image_edges_collapse(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            r = float(rng.choice([0.5, 2.0, 2.5, 3.0, 5.0]))
            inst = self.instance(rng, r, int(rng.integers(1, 9)))
            img = power_image_interval(inst, r)
            for mu, want in ((img.lo, inst.mean_lower()), (img.hi, inst.mean_upper())):
                iv = moment_restricted_mean_interval(inst, MomentRestriction(r, mu))
                gate = 1e-12 * max(abs(want), 1e-300)
                assert abs(iv.lo - want) <= gate and abs(iv.hi - want) <= gate

    def test_side_names(self):
        with pytest.raises(InputError):
            moment_selection(UNIT, MomentRestriction(2.0, 0.25), "upper")

    def test_two_objective_evaluations(self, monkeypatch):
        # the multipliers come from the sorted breakpoints; the dual
        # objective is evaluated once per side, at its multiplier
        import selbounds.extensions as ext

        calls = []
        real = ext._scenario_envelope
        monkeypatch.setattr(ext, "_scenario_envelope", lambda *a: calls.append(1) or real(*a))
        inst = self.instance(np.random.default_rng(53), 3.0, 500)
        img = power_image_interval(inst, 3.0)
        moment_restricted_mean_interval(inst, MomentRestriction(3.0, img.lo + 0.4 * img.width))
        assert len(calls) == 2


class TestQuantileFeasibility:
    def test_constant_inside(self):
        assert quantile_restriction_feasible(UNIT, QuantileRestriction(0.3, 0.5))

    def test_below_range(self):
        assert not quantile_restriction_feasible(UNIT, QuantileRestriction(0.3, -0.2))

    def test_chi2_target_median(self):
        from selbounds import ComonotoneSpec, discretize, parse_law

        inst = discretize(ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 5001))
        assert quantile_restriction_feasible(inst, QuantileRestriction(0.5, 3.46))


class TestQuantileRestrictedInterval:
    def test_median_coincidence_exact(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 60:
            inst = random_instance(rng)
            band = quantile_attainability_range(inst, 0.5)
            q = float(rng.uniform(band.lo, band.hi))
            try:
                med = median_restricted_mean_interval(inst, q)
            except InfeasibleMedian:
                continue
            qua = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, q))
            assert qua.lo == med.lo and qua.hi == med.hi  # bit-identical
            done += 1

    def test_constant_quarter_level(self):
        iv = quantile_restricted_mean_interval(UNIT, QuantileRestriction(0.25, 0.5))
        # cap a quarter of the mass at 0.5, rest at the upper endpoint
        assert iv.hi == pytest.approx(0.875, abs=1e-12)
        ref = oracle.exact_quantile_mean_bounds(UNIT, 0.25, 0.5)
        assert iv.hi == pytest.approx(ref.hi, abs=1e-12)
        assert iv.lo == pytest.approx(ref.lo, abs=1e-12)

    def test_oracle_agreement_randoms(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
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
            assert mine.lo == pytest.approx(ref.lo, abs=1e-9)
            assert mine.hi == pytest.approx(ref.hi, abs=1e-9)

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleQuantile):
            quantile_restricted_mean_interval(UNIT, QuantileRestriction(0.5, 2.0))


class TestMixture:
    def _two_restricted(self, inst, alpha, q1_frac=0.3):
        band = quantile_attainability_range(inst, alpha)
        q = band.lo + q1_frac * band.width
        y1 = quantile_selection(inst, alpha, q)
        # a second restricted selection: nudge free mass toward the top
        y2 = quantile_selection(inst, alpha, q)
        return q, y1, y2

    def test_theta_endpoints(self):
        inst = two_state_instance()
        q, y1, y2 = self._two_restricted(inst, 0.5)
        r = QuantileRestriction(0.5, q)
        mix0 = mixture_convexity_check(inst, r, y1, y2, 0.0)
        mix1 = mixture_convexity_check(inst, r, y1, y2, 1.0)
        assert mix0.law().values.tolist() == y2.law().values.tolist()
        assert mix1.law().values.tolist() == y1.law().values.tolist()

    def test_midpoint_mixture_preserves_quantile(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            inst = random_instance(rng)
            alpha = float(rng.uniform(0.1, 0.9))
            band = quantile_attainability_range(inst, alpha)
            q = float(rng.uniform(band.lo, band.hi))
            y1 = quantile_selection(inst, alpha, q)
            # different second selection: mix endpoints off the contact set
            iv = quantile_restricted_mean_interval(inst, QuantileRestriction(alpha, q))
            y2 = quantile_selection(inst, alpha, q)
            theta = float(rng.uniform(0.0, 1.0))
            mix = mixture_convexity_check(inst, QuantileRestriction(alpha, q), y1, y2, theta)
            assert mix.law().quantile(alpha) == q
            want = theta * y1.mean() + (1.0 - theta) * y2.mean()
            assert mix.mean() == pytest.approx(want, abs=1e-12)

    def test_rejects_violating_input(self):
        inst = two_state_instance()
        q, y1, _ = self._two_restricted(inst, 0.5)
        bad = Selection(np.arange(2), inst.upper.copy(), inst.weight.copy())
        with pytest.raises(RestrictionViolated):
            mixture_convexity_check(inst, QuantileRestriction(0.5, q), y1, bad, 0.5)


class TestMeanRestrictedQuantileRange:
    def test_no_shrink_two_state(self):
        rng_q = mean_restricted_quantile_range(two_state_instance(), 0.5, 0.0)
        assert rng_q.as_tuple() == (-2.0, 0.0)

    def test_endpoint_on_upward_jump(self):
        # weights 1/4 each on [0,3], [0,3], [1,1], [2,3]; alpha = 1/2.
        # E_max(q) = 1 + q/2 on [0,1) and jumps to 2 at q = 1, where the
        # zero-width scenario supplies the capped mass at no cost; so with
        # kappa = 1.6 inside the jump the lower end is exactly 1.  E_min(q)
        # = 1/4 + q/2 on (2,3] meets 1.6 at q = 2.7.
        inst = DiscreteInstance.from_rows(
            [(0.0, 3.0, 0.25), (0.0, 3.0, 0.25), (1.0, 1.0, 0.25), (2.0, 3.0, 0.25)]
        )
        got = mean_restricted_quantile_range(inst, 0.5, 1.6)
        assert got.lo == 1.0
        assert got.hi == pytest.approx(2.7, abs=1e-12)
        at_jump = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, 1.0))
        assert at_jump.as_tuple() == (0.75, 2.0)
        below = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, 1.0 - 1e-9))
        assert below.hi < 1.6

    def test_bisection_call_count(self, monkeypatch):
        # one monotone bisection per endpoint plus one segment midpoint each,
        # not a scan over every breakpoint
        import selbounds.extensions as ext

        calls = []
        real = ext.pivot_mean_interval
        monkeypatch.setattr(
            ext, "pivot_mean_interval", lambda *a: calls.append(a[1]) or real(*a)
        )
        inst = random_instance(np.random.default_rng(37), n=2000)
        box = aumann_interval(inst)
        kappa = box.lo + 0.4 * box.width
        got = mean_restricted_quantile_range(inst, 0.5, kappa)
        band = quantile_attainability_range(inst, 0.5)
        ends = np.unique(np.concatenate([inst.lower, inst.upper]))
        breakpoints = int(np.count_nonzero((ends >= band.lo) & (ends <= band.hi)))
        assert breakpoints > 500
        assert len(calls) <= 2 * math.ceil(math.log2(breakpoints + 1)) + 2
        for q in (got.lo, got.hi):
            iv = real(inst, q, 0.5, 0.5)
            assert iv.lo - 1e-9 <= kappa <= iv.hi + 1e-9

    def test_inside_attainability(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            inst = random_instance(rng)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            alpha = float(rng.uniform(0.1, 0.9))
            got = mean_restricted_quantile_range(inst, alpha, kappa)
            band = quantile_attainability_range(inst, alpha)
            assert band.contains_interval(got, tol=1e-9)

    def test_boundary_is_sharp(self):
        # q strictly inside the reported range is feasible with the mean
        # pin; q beyond it by a margin is not (the endpoints themselves are
        # closure points and may sit on an upward jump)
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            alpha = float(rng.uniform(0.1, 0.9))
            got = mean_restricted_quantile_range(inst, alpha, kappa)
            pad = 1e-7 * max(1.0, got.width)
            if got.width > 10 * pad:
                for q in np.linspace(got.lo + pad, got.hi - pad, 7):
                    iv = quantile_restricted_mean_interval(
                        inst, QuantileRestriction(alpha, float(q))
                    )
                    assert iv.lo - 1e-7 <= kappa <= iv.hi + 1e-7
            band = quantile_attainability_range(inst, alpha)
            eps = 1e-5 * max(1.0, band.width)
            if got.hi + eps < band.hi:
                iv = quantile_restricted_mean_interval(
                    inst, QuantileRestriction(alpha, got.hi + eps)
                )
                assert not (iv.lo - 1e-12 <= kappa <= iv.hi + 1e-12)
            if got.lo - eps > band.lo:
                iv = quantile_restricted_mean_interval(
                    inst, QuantileRestriction(alpha, got.lo - eps)
                )
                assert not (iv.lo - 1e-12 <= kappa <= iv.hi + 1e-12)
