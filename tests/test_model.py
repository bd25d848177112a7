import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbounds import (
    AlphaOutOfRange,
    ClosedInterval,
    ComonotoneSpec,
    CouplingViolation,
    DiscreteInstance,
    EmptyInstance,
    InvertedInterval,
    NonpositiveWeight,
    StepDistribution,
    discretize,
    marginal_law,
    normalize,
    parse_law,
)

from helpers import random_instance, two_state_instance


class TestNormalize:
    def test_rescales_total_mass(self):
        inst = DiscreteInstance([0, 1], [1, 2], [2, 2])
        out = normalize(inst)
        assert np.allclose(out.weight, [0.5, 0.5])
        assert out.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_single_scenario_identity(self):
        out = normalize(DiscreteInstance([0], [1], [1.0]))
        assert out.weight[0] == 1.0

    def test_already_normalized_unchanged(self):
        inst = DiscreteInstance([0, 2, 4], [1, 3, 5], [0.3, 0.3, 0.4])
        out = normalize(inst)
        assert np.array_equal(out.weight, inst.weight)
        assert np.array_equal(out.lower, inst.lower)

    def test_errors(self):
        with pytest.raises(EmptyInstance):
            DiscreteInstance.from_rows([])
        with pytest.raises(NonpositiveWeight):
            DiscreteInstance([0], [1], [0.0])
        with pytest.raises(InvertedInterval):
            DiscreteInstance([2.0], [1.0], [1.0])

    def test_tiny_inversion_repaired(self):
        inst = DiscreteInstance([1.0 + 5e-13], [1.0], [1.0])
        assert inst.lower[0] == inst.upper[0]

    def test_scenario_invariants(self):
        with pytest.raises(NonpositiveWeight):
            DiscreteInstance([0.0], [1.0], [-0.1])
        with pytest.raises(InvertedInterval):
            DiscreteInstance([2.0], [1.0], [0.5])


class TestMarginalLaw:
    def test_two_state_lower(self):
        law = marginal_law(two_state_instance(), "lower")
        assert np.array_equal(law.values, [-2.0, 0.0])
        assert np.allclose(law.masses, [0.5, 0.5])

    def test_two_state_upper(self):
        law = marginal_law(two_state_instance(), "upper")
        assert np.array_equal(law.values, [0.0, 2.0])
        assert np.allclose(law.masses, [0.5, 0.5])

    def test_single_scenario(self):
        law = marginal_law(DiscreteInstance.from_rows([(0, 1)]), "lower")
        assert np.array_equal(law.values, [0.0])
        assert law.masses[0] == 1.0

    def test_mass_and_mean_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = random_instance(rng)
            for side in ("lower", "upper"):
                law = marginal_law(inst, side)
                vals = inst.lower if side == "lower" else inst.upper
                assert law.masses.sum() == pytest.approx(1.0, abs=1e-12)
                assert law.mean() == pytest.approx(
                    float(np.dot(inst.weight, vals)), abs=1e-12
                )


class TestQuantile:
    def test_left_continuous_inverse(self):
        dist = StepDistribution([1.0, 3.0], [0.5, 0.5])
        assert dist.quantile(0.5) == 1.0

    def test_jump_behavior(self):
        dist = StepDistribution([1.0, 3.0], [0.5, 0.5])
        assert dist.quantile(0.5 + 1e-9) == 3.0

    def test_chi2_median_on_grid(self):
        # modest grid here; the full-resolution value is an acceptance item
        spec = ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 20001)
        inst = discretize(spec)
        med = marginal_law(inst, "lower").quantile(0.5)
        assert med == pytest.approx(1.386, abs=1e-3)

    def test_cumulative_mass_within_tolerance_of_alpha(self):
        # 0.1 + 0.35 + 0.05 sums to 0.49999999999999994 and 0.05 + 0.1 +
        # 0.35 to 0.5; either way the mass at or below the third atom is 1/2
        for masses in ([0.1, 0.35, 0.05, 0.5], [0.05, 0.1, 0.35, 0.5]):
            dist = StepDistribution([1.0, 2.0, 3.0, 4.0], masses)
            assert dist.quantile(0.5) == 3.0
        dist = StepDistribution([1.0, 2.0], [0.5 - 2e-12, 0.5 + 2e-12])
        assert dist.quantile(0.5) == 2.0   # beyond the tolerance the next atom

    def test_alpha_out_of_range(self):
        dist = StepDistribution([1.0], [1.0])
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(AlphaOutOfRange):
                dist.quantile(bad)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_galois_connection(self, seed):
        # quantile(alpha) <= t  iff  cdf(t) >= alpha, at atoms and levels
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        vals = np.sort(rng.choice(np.arange(-5.0, 6.0), size=k, replace=False))
        masses = rng.uniform(0.1, 1.0, k)
        dist = StepDistribution(vals, masses / masses.sum())
        for alpha in rng.uniform(1e-6, 1 - 1e-6, 8):
            for t in vals:
                assert (dist.quantile(alpha) <= t) == (dist.cdf(t) >= alpha)


class TestMedianSet:
    def test_three_atoms(self):
        # direct check of both inequalities per atom picks exactly {1}
        dist = StepDistribution([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        for m, member in ((0.0, False), (1.0, True), (2.0, False)):
            holds = dist.cdf(m) >= 0.5 and dist.masses[dist.values >= m].sum() >= 0.5
            assert holds == member


class TestDiscretize:
    def test_grid_definition(self):
        spec = ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 4)
        assert np.allclose(spec.grid(), [0.125, 0.375, 0.625, 0.875])
        inst = discretize(spec)
        assert inst.n == 4 and np.allclose(inst.weight, 0.25)

    def test_uniform_closed_form(self):
        spec = ComonotoneSpec(parse_law("uniform(0,1)"), parse_law("uniform(1,2)"), 2)
        inst = discretize(spec)
        assert np.allclose(inst.lower, [0.25, 0.75])
        assert np.allclose(inst.upper, [1.25, 1.75])
        assert np.allclose(inst.weight, [0.5, 0.5])

    def test_chi2_means_match_integration_oracle(self):
        from scipy import integrate, stats

        spec = ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 20001)
        inst = discretize(spec)
        for side, df in (("lower", 2), ("upper", 5)):
            grid_mean = marginal_law(inst, side).mean()
            oracle_mean = integrate.quad(
                lambda x: x * stats.chi2.pdf(x, df), 0, np.inf, limit=200
            )[0]
            assert grid_mean == pytest.approx(oracle_mean, abs=0.01)

    def test_deterministic(self):
        spec = ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 501)
        a, b = discretize(spec), discretize(spec)
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)

    def test_comonotone_monotone_in_u(self):
        spec = ComonotoneSpec(parse_law("exponential(2)"), parse_law("chi2(5)"), 301)
        inst = discretize(spec)
        assert np.all(np.diff(inst.lower) >= 0)
        assert np.all(np.diff(inst.upper) >= 0)

    def test_coupling_violation(self):
        spec = ComonotoneSpec(parse_law("uniform(1,2)"), parse_law("uniform(0,1)"), 4)
        with pytest.raises(CouplingViolation):
            discretize(spec)


def test_closed_interval_guards():
    with pytest.raises(Exception):
        ClosedInterval(2.0, 1.0)
    iv = ClosedInterval(1.0, 1.0 - 1e-12)  # sub-tolerance inversion snaps
    assert iv.lo == iv.hi


def test_split_scenario_keeps_marginals():
    inst = two_state_instance()
    split = inst.split_scenario(0, 0.25)
    assert split.total_mass == pytest.approx(1.0, abs=1e-12)
    for side in ("lower", "upper"):
        a, b = marginal_law(inst, side), marginal_law(split, side)
        assert np.array_equal(a.values, b.values)
        assert np.allclose(a.masses, b.masses)
