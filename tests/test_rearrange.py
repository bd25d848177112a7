import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbounds import (
    BetaOutOfRange,
    ConditionalLaw,
    MassOutOfRange,
    NegativeSupport,
    StepDistribution,
    conditional_quantile_integral,
    least_x_set,
    median_benchmark,
    median_restricted_mean_interval,
    quantile_area,
    sorted_partial_sum,
)
from selbounds.median import partition
from selbounds.rearrange import _fill_order

from helpers import brute_force_least_mass, random_instance


def three_atom_law():
    # members with X = 1, 2, 3 and weight 0.2 each (p0 = 0.6)
    return ConditionalLaw([0, 1, 2], [0.2, 0.2, 0.2], [1.0, 2.0, 3.0])


def _drawn_values(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "grid":   # heavy ties
        return rng.integers(-4, 5, n).astype(float)
    if kind == "zeros":   # -0.0 and 0.0 compare equal but differ in bits
        return rng.choice([-0.0, 0.0, 0.5], n)
    return rng.normal(size=n)


class TestFillOrder:
    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 2000), st.sampled_from(["grid", "zeros", "continuous"])
    )
    @settings(max_examples=300, deadline=None)
    def test_is_the_lexsort_permutation(self, seed, n, kind):
        values = _drawn_values(seed, n, kind)
        order, along = _fill_order(values)
        want = np.lexsort((np.arange(n), values))
        assert np.array_equal(order, want)
        assert along.tobytes() == values[want].tobytes()
        # descending, as the event dual's kink search uses it
        assert np.array_equal(_fill_order(-values)[0], np.argsort(-values, kind="stable"))

    def test_tie_free_median_query_takes_no_stable_sort(self, monkeypatch):
        sorts = []
        real_lexsort, real_argsort = np.lexsort, np.argsort

        def lexsort(keys, *args, **kw):
            sorts.append("lexsort")
            return real_lexsort(keys, *args, **kw)

        def argsort(a, axis=-1, kind=None, **kw):
            sorts.append(kind)
            return real_argsort(a, axis, kind, **kw)

        inst = random_instance(np.random.default_rng(5), n=5000, degenerate=0.0, tie=0.0)
        m = float(np.mean(median_benchmark(inst).as_tuple()))
        part = partition(inst, m)
        assert part.contact.size > 1000
        for gaps in (part.u_gaps, part.l_gaps):
            assert np.unique(gaps).size == gaps.size   # tie-free pools
        monkeypatch.setattr(np, "lexsort", lexsort)
        monkeypatch.setattr(np, "argsort", argsort)
        median_restricted_mean_interval(inst, m)
        assert sorts and set(sorts) == {None}   # quicksorts only


class TestLeastXSet:
    def test_small_example_vs_brute_force(self):
        cond = three_atom_law()
        got = least_x_set(cond, 0.2)
        ref = brute_force_least_mass(cond.values, cond.member_weights, 0.2)
        assert got.value == pytest.approx(0.2, abs=1e-15)
        assert got.value == pytest.approx(ref, abs=1e-12)

    def test_zero_mass(self):
        assert least_x_set(three_atom_law(), 0.0).value == 0.0

    def test_full_mass(self):
        cond = three_atom_law()
        got = least_x_set(cond, cond.p0)
        assert got.value == pytest.approx(0.2 * (1 + 2 + 3), abs=1e-15)

    def test_mass_out_of_range(self):
        with pytest.raises(MassOutOfRange):
            least_x_set(three_atom_law(), 0.7)
        with pytest.raises(MassOutOfRange):
            least_x_set(three_atom_law(), -0.1)

    def test_randomized_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            k = int(rng.integers(1, 9))
            w = rng.uniform(0.05, 1.0, k)
            x = rng.uniform(0.0, 3.0, k)
            if rng.random() < 0.3:  # force value ties
                x = np.round(x * 2) / 2
            cond = ConditionalLaw(np.arange(k), w, x)
            s = float(rng.uniform(0.0, w.sum()))
            got = least_x_set(cond, s)
            ref = brute_force_least_mass(x, w, s)
            assert got.value == pytest.approx(ref, abs=1e-12)
            assert got.mass == pytest.approx(s, abs=1e-12)
            assert sorted_partial_sum(x, w, s) == pytest.approx(ref, abs=1e-12)

    def test_dominates_no_random_subset(self):
        # inequality side: any measurable set of the same mass costs at least
        # as much; 1000 random fractional subsets across instances
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(2, 9))
            w = rng.uniform(0.05, 1.0, k)
            x = rng.uniform(0.0, 3.0, k)
            cond = ConditionalLaw(np.arange(k), w, x)
            fracs = rng.uniform(0.0, 1.0, k)
            s = float(np.dot(fracs, w))
            cost = float(np.dot(fracs * w, x))
            assert least_x_set(cond, s).value <= cost + 1e-10
            checked += 1

    def test_value_nondecreasing_convex_in_s(self):
        rng = np.random.default_rng(17)
        k = 7
        w = rng.uniform(0.05, 1.0, k)
        x = rng.uniform(0.0, 3.0, k)
        cond = ConditionalLaw(np.arange(k), w, x)
        ss = np.linspace(0.0, w.sum(), 41)
        vals = np.array([least_x_set(cond, s).value for s in ss])
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) >= -1e-10)  # convex: slopes nondecreasing


class TestConditionalQuantileIntegral:
    def test_constant_values(self):
        cond = ConditionalLaw([0, 1], [0.3, 0.3], [2.0, 2.0])
        for beta in (0.0, 0.25, 1.0):
            assert conditional_quantile_integral(cond, beta) == pytest.approx(
                cond.p0 * 2.0 * beta, abs=1e-15
            )

    def test_three_atom_third(self):
        cond = three_atom_law()
        # one third of the conditional mass sits on X = 1
        assert conditional_quantile_integral(cond, 1.0 / 3.0) == pytest.approx(0.2, abs=1e-12)

    def test_beta_one_gives_full_expectation(self):
        cond = three_atom_law()
        assert conditional_quantile_integral(cond, 1.0) == pytest.approx(1.2, abs=1e-12)

    def test_agrees_with_least_x_set(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            w = rng.uniform(0.05, 1.0, k)
            x = np.round(rng.uniform(0.0, 3.0, k), 1)
            cond = ConditionalLaw(np.arange(k), w, x)
            beta = float(rng.uniform(0.0, 1.0))
            a = conditional_quantile_integral(cond, beta)
            b = least_x_set(cond, beta * cond.p0).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_beta_out_of_range(self):
        with pytest.raises(BetaOutOfRange):
            conditional_quantile_integral(three_atom_law(), 1.5)


class TestQuantileArea:
    def test_point_mass_at_zero(self):
        left, right = quantile_area(StepDistribution([0.0], [1.0]), 0.3)
        assert left == 0.0 and right == 0.0

    def test_hand_example(self):
        left, right = quantile_area(StepDistribution([1.0, 3.0], [0.5, 0.5]), 0.75)
        assert left == pytest.approx(1.25, abs=1e-15)
        assert right == pytest.approx(1.25, abs=1e-15)

    def test_negative_support_rejected(self):
        with pytest.raises(NegativeSupport):
            quantile_area(StepDistribution([-1.0, 1.0], [0.5, 0.5]), 0.5)

    def test_against_quadrature_oracle(self):
        # dense trapezoid integration of (alpha - F)_+ as an outside check
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = int(rng.integers(1, 11))
            vals = np.sort(rng.uniform(0.0, 5.0, k))
            vals = np.unique(vals)
            masses = rng.uniform(0.1, 1.0, vals.size)
            dist = StepDistribution(vals, masses / masses.sum())
            alpha = float(rng.uniform(0.05, 0.95))
            left, right = quantile_area(dist, alpha)
            ts = np.linspace(0.0, vals.max() + 1.0, 200_001)
            integrand = np.maximum(alpha - dist.cdf(ts), 0.0)
            numeric = np.trapezoid(integrand, ts)
            assert left == pytest.approx(right, abs=1e-12)
            assert left == pytest.approx(numeric, abs=5e-4)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_identity_on_random_laws(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 11))
        vals = np.unique(np.round(rng.uniform(0.0, 5.0, k), 3))
        masses = rng.uniform(0.1, 1.0, vals.size)
        dist = StepDistribution(vals, masses / masses.sum())
        alpha = float(rng.uniform(1e-3, 1 - 1e-3))
        left, right = quantile_area(dist, alpha)
        assert left == pytest.approx(right, abs=1e-12)
