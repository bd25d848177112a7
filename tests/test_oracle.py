import numpy as np
import pytest

from selbounds import (
    DiscreteInstance,
    InfeasibleMedian,
    InstanceTooLarge,
    InvalidPower,
    KappaInfeasible,
    MomentRestriction,
    NoFeasibleSelection,
    TargetSet,
    aumann_interval,
    moment_restricted_mean_interval,
    power_image_interval,
    unrestricted_prob_bounds,
    oracle,
)

from helpers import constant_instance, random_instance, random_target


class TestPivotOracle:
    def test_constant_half(self):
        iv = oracle.exact_median_mean_bounds(constant_instance(), 0.5)
        assert iv.as_tuple() == pytest.approx((0.25, 0.75), abs=1e-12)

    def test_quantile_alpha_half_coincides(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            inst = random_instance(rng)
            m = float(rng.uniform(inst.lower.min(), inst.upper.max()))
            try:
                med = oracle.exact_median_mean_bounds(inst, m)
            except InfeasibleMedian:
                continue
            qua = oracle.exact_quantile_mean_bounds(inst, 0.5, m)
            assert med.as_tuple() == qua.as_tuple()

    def test_reorder_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            inst = random_instance(rng, n=5)
            m = float(rng.uniform(inst.lower.min(), inst.upper.max()))
            perm = rng.permutation(inst.n)
            try:
                a = oracle.exact_median_mean_bounds(inst, m)
            except InfeasibleMedian:
                with pytest.raises(InfeasibleMedian):
                    oracle.exact_median_mean_bounds(inst.reordered(perm), m)
                continue
            b = oracle.exact_median_mean_bounds(inst.reordered(perm), m)
            assert a.lo == pytest.approx(b.lo, abs=1e-12)
            assert a.hi == pytest.approx(b.hi, abs=1e-12)

    def test_split_invariance(self):
        # halving one scenario's mass into two copies must not move bounds:
        # the finite surrogate of non-atomic mass splitting
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng, n=4)
            m = float(rng.uniform(inst.lower.min(), inst.upper.max()))
            i = int(rng.integers(0, inst.n))
            try:
                a = oracle.exact_median_mean_bounds(inst, m)
            except InfeasibleMedian:
                continue
            b = oracle.exact_median_mean_bounds(inst.split_scenario(i, 0.5), m)
            assert a.lo == pytest.approx(b.lo, abs=1e-12)
            assert a.hi == pytest.approx(b.hi, abs=1e-12)

    def test_instance_too_large(self):
        inst = DiscreteInstance.from_rows([(i, i + 1) for i in range(13)])
        with pytest.raises(InstanceTooLarge):
            oracle.exact_median_mean_bounds(inst, 5.0)


class TestProbOracle:
    def test_worked_instance(self):
        iv = oracle.exact_prob_bounds(
            constant_instance(), TargetSet.from_pairs([[0.8, 1.0]]), 0.5
        )
        assert iv.hi == pytest.approx(0.625, abs=1e-12)
        assert iv.lo == pytest.approx(0.0, abs=1e-12)

    def test_mesh_never_beats_vertices(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            inst = random_instance(rng, max_n=4)
            target = random_target(rng)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            base = oracle.exact_prob_bounds(inst, target, kappa, mesh=0)
            meshed = oracle.exact_prob_bounds(inst, target, kappa, mesh=5)
            assert meshed.hi <= base.hi + 1e-9
            assert meshed.lo >= base.lo - 1e-9

    def test_sandwiched_by_unrestricted(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inst = random_instance(rng)
            target = random_target(rng)
            outer = unrestricted_prob_bounds(inst, target)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            iv = oracle.exact_prob_bounds(inst, target, kappa)
            assert outer.lo - 1e-9 <= iv.lo <= iv.hi <= outer.hi + 1e-9

    def test_reorder_and_split_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            inst = random_instance(rng, n=4)
            target = random_target(rng)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            a = oracle.exact_prob_bounds(inst, target, kappa)
            b = oracle.exact_prob_bounds(inst.reordered(rng.permutation(4)), target, kappa)
            c = oracle.exact_prob_bounds(inst.split_scenario(0, 0.5), target, kappa)
            for other in (b, c):
                assert a.lo == pytest.approx(other.lo, abs=1e-10)
                assert a.hi == pytest.approx(other.hi, abs=1e-10)

    def test_kappa_infeasible(self):
        with pytest.raises(KappaInfeasible):
            oracle.exact_prob_bounds(
                constant_instance(), TargetSet.from_pairs([[0.5, 1.0]]), 2.0
            )

    def test_instance_too_large(self):
        inst = DiscreteInstance.from_rows([(i, i + 1) for i in range(9)])
        with pytest.raises(InstanceTooLarge):
            oracle.exact_prob_bounds(inst, TargetSet.from_pairs([[0.0, 1.0]]), 4.8)


class TestMomentOracle:
    def test_unit_square(self):
        iv = oracle.exact_moment_mean_bounds(constant_instance(), 2.0, 0.25)
        assert iv.lo == pytest.approx(0.25, abs=1e-4)
        assert iv.hi == pytest.approx(0.5, abs=1e-4)

    def test_r_one_point(self):
        iv = oracle.exact_moment_mean_bounds(constant_instance(), 1.0, 0.4)
        assert iv.lo == pytest.approx(0.4, abs=1e-9)
        assert iv.hi == pytest.approx(0.4, abs=1e-9)

    def test_boundary_moment_degenerate(self):
        inst = DiscreteInstance.from_rows([(0.1, 0.6, 1.0)])
        iv = oracle.exact_moment_mean_bounds(inst, 2.0, 0.36)
        assert iv.lo == pytest.approx(0.6, abs=1e-6)
        assert iv.hi == pytest.approx(0.6, abs=1e-6)

    def test_instance_too_large(self):
        inst = DiscreteInstance.from_rows([(i, i + 1) for i in range(7)])
        with pytest.raises(InstanceTooLarge):
            oracle.exact_moment_mean_bounds(inst, 2.0, 10.0)

    def test_invalid_powers(self):
        with pytest.raises(InvalidPower):
            oracle.exact_moment_mean_bounds(DiscreteInstance.from_rows([(-1.0, 1.0)]), 2.0, 0.5)
        with pytest.raises(InvalidPower):
            oracle.exact_moment_mean_bounds(
                DiscreteInstance.from_rows([(1.0, 4.0), (2.0, 3.0)]), -1.0, 0.4
            )

    def test_moment_outside_range(self):
        inst = DiscreteInstance.from_rows([(0.0, 1.0), (2.0, 3.0)])
        with pytest.raises(NoFeasibleSelection):
            oracle.exact_moment_mean_bounds(inst, 2.0, 5.0 + 1e-6)
        iv = oracle.exact_moment_mean_bounds(inst, 2.0, 5.0 + 1e-12)
        assert iv.as_tuple() == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_zero_width_instance(self):
        inst = DiscreteInstance.from_rows([(0.5, 0.5, 1.0), (-2.0, -2.0, 3.0)])
        iv = oracle.exact_moment_mean_bounds(inst, 3.0, 0.25 * 0.125 - 0.75 * 8.0)
        assert iv.as_tuple() == pytest.approx((-1.375, -1.375), abs=1e-12)

    def test_failing_mesh_shapes(self):
        # n = 2-3, r = 2, lower ~ U(0,1), width ~ U(0,1), mu_r at 37% of the
        # power image: a locally refined mesh overstated the lower endpoint
        rng = np.random.default_rng(2025)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            lo, width, w = rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0.2, 1, n)
            inst = DiscreteInstance.from_rows(list(zip(lo, lo + width, w / w.sum())))
            img = power_image_interval(inst, 2.0)
            mu = img.lo + 0.37 * img.width
            dual = moment_restricted_mean_interval(inst, MomentRestriction(2.0, mu))
            ref = oracle.exact_moment_mean_bounds(inst, 2.0, mu)
            assert ref.lo == pytest.approx(dual.lo, abs=1e-6)
            assert ref.hi == pytest.approx(dual.hi, abs=1e-6)

    def test_inside_dual_on_randoms(self):
        # odd r across 0, r < 1 touching 0, zero widths, mu_r at the image edges
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            r = float(rng.choice([0.25, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0]))
            odd = r in (1.0, 3.0, 5.0)
            lo = rng.uniform(-1.5, 1.5, n) if odd else rng.uniform(0.0, 1.5, n)
            if r < 1.0:
                lo[0] = 0.0
            width = rng.uniform(0.0, 1.5, n) * (rng.random(n) > 0.2)
            w = rng.uniform(0.2, 1.0, n)
            inst = DiscreteInstance.from_rows(list(zip(lo, lo + width, w / w.sum())))
            img = power_image_interval(inst, r)
            mu = img.lo + float(rng.choice([0.0, 1.0, rng.uniform(), rng.uniform()])) * img.width
            dual = moment_restricted_mean_interval(inst, MomentRestriction(r, mu))
            ref = oracle.exact_moment_mean_bounds(inst, r, mu)
            assert ref.lo >= dual.lo - 1e-9 * max(1.0, abs(dual.lo))
            assert ref.hi <= dual.hi + 1e-9 * max(1.0, abs(dual.hi))
            assert ref.lo == pytest.approx(dual.lo, abs=1e-6)
            assert ref.hi == pytest.approx(dual.hi, abs=1e-6)
