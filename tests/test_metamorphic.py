"""Metamorphic relations of the primal closed forms at any n.

The oracles stop at a dozen scenarios; these relations do not.  Moving the
data by y -> s (y + t) must move a mean or quantile interval the same way,
reflecting y -> -y must mirror it, and reordering or splitting scenarios
must leave it alone.  Each check is gated at 1e-10 of the interval's width.
A batch of mean pins must answer each pin exactly as a batch of one does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbounds import (
    DiscreteInstance,
    InvalidPower,
    KappaInfeasible,
    MomentRestriction,
    QuantileRestriction,
    TargetSet,
    aumann_interval,
    calibrate_mean,
    mean_restricted_prob_bounds,
    mean_restricted_quantile_range,
    median_benchmark,
    median_restricted_mean_interval,
    moment_restricted_mean_interval,
    power_image_interval,
    quantile_attainability_range,
    quantile_restricted_mean_interval,
)
from selbounds.events import _prob_bounds, _span, gap_profile
from selbounds.median import pivot_mean_interval
from selbounds.rearrange import _greedy_fill

from helpers import random_instance, random_target

GATE = 1e-10
SIZES = [50, 500, 2000, 10_000]
SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]
SHIFTS = [0.0, 0.75]   # in data units, applied before scaling
ALPHA = 0.3


def _instance(n):
    return random_instance(np.random.default_rng(n), n=n)


def _moved(inst, s, t):
    """The instance under y -> s (y + t)."""
    return DiscreteInstance(s * (inst.lower + t), s * (inst.upper + t), inst.weight)


def _reflected(inst):
    return DiscreteInstance(-inst.upper, -inst.lower, inst.weight)


def _assert_at(got, lo, hi, width):
    """got equals [lo, hi] to GATE of ``width``, the reference interval's width."""
    assert max(abs(got.lo - lo), abs(got.hi - hi)) <= GATE * width


def _pivots(band, fractions=(0.0, 0.3, 0.7, 1.0)):
    return [band.lo + f * band.width for f in fractions]


# each primal: (instance, a point in data units) -> interval in data units,
# the range of admissible points, and where in that range to probe.  The
# quantile range is probed inside the mean range here; at its edges the
# range is a point (see test_quantile_range_at_mean_edge_is_scale_free).
PRIMALS = {
    "median": (
        lambda inst, m: median_restricted_mean_interval(inst, m),
        median_benchmark,
        (0.0, 0.3, 0.7, 1.0),
    ),
    "quantile": (
        lambda inst, q: quantile_restricted_mean_interval(inst, QuantileRestriction(ALPHA, q)),
        lambda inst: quantile_attainability_range(inst, ALPHA),
        (0.0, 0.3, 0.7, 1.0),
    ),
    "quantile_range": (
        lambda inst, kappa: mean_restricted_quantile_range(inst, ALPHA, kappa),
        aumann_interval,
        (0.3, 0.7),
    ),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(PRIMALS))
def test_scaling_and_translation(kind, n):
    primal, band, fractions = PRIMALS[kind]
    inst = _instance(n)
    for x in _pivots(band(inst), fractions):
        ref = primal(inst, x)
        for s in SCALES:
            for t in SHIFTS:
                got = primal(_moved(inst, s, t), s * (x + t))
                _assert_at(got, s * (ref.lo + t), s * (ref.hi + t), s * ref.width)


def test_quantile_range_at_mean_edge_is_scale_free():
    # at kappa = E upper the range is one point; an absolute tolerance floor
    # of 1e-12 would be 1e-6 of the data at scale 1e-6 and open it by 8.6e-4
    inst = _instance(2000)
    box = aumann_interval(inst)
    ref = mean_restricted_quantile_range(inst, ALPHA, box.hi)
    s = 1e-6
    got = mean_restricted_quantile_range(_moved(inst, s, 0.0), ALPHA, s * box.hi)
    _assert_at(got, s * ref.lo, s * ref.hi, s * box.width)


@pytest.mark.parametrize("n", SIZES)
def test_median_reflection_reordering_split(n):
    inst = _instance(n)
    rng = np.random.default_rng(n + 1)
    for m in _pivots(median_benchmark(inst)):
        ref = median_restricted_mean_interval(inst, m)
        _assert_at(median_restricted_mean_interval(_reflected(inst), -m), -ref.hi, -ref.lo, ref.width)
        shuffled = inst.reordered(rng.permutation(n))
        _assert_at(median_restricted_mean_interval(shuffled, m), ref.lo, ref.hi, ref.width)
        split = inst.split_scenario(int(rng.integers(n)), float(rng.uniform(0.1, 0.9)))
        _assert_at(median_restricted_mean_interval(split, m), ref.lo, ref.hi, ref.width)


@pytest.mark.parametrize("n", SIZES)
def test_moment_scaling_reflection_reordering(n):
    r = 3.0
    inst = _instance(n)
    rng = np.random.default_rng(n + 2)
    lo_r, hi_r = (float(np.dot(inst.weight, side**3)) for side in (inst.lower, inst.upper))
    for f in (0.2, 0.5, 0.8):
        mu = lo_r + f * (hi_r - lo_r)
        ref = moment_restricted_mean_interval(inst, MomentRestriction(r, mu))
        for s in SCALES:
            got = moment_restricted_mean_interval(_moved(inst, s, 0.0), MomentRestriction(r, s**3 * mu))
            _assert_at(got, s * ref.lo, s * ref.hi, s * ref.width)
        got = moment_restricted_mean_interval(_reflected(inst), MomentRestriction(r, -mu))
        _assert_at(got, -ref.hi, -ref.lo, ref.width)
        shuffled = inst.reordered(rng.permutation(n))
        got = moment_restricted_mean_interval(shuffled, MomentRestriction(r, mu))
        _assert_at(got, ref.lo, ref.hi, ref.width)


@pytest.mark.parametrize("n", SIZES[:3])
def test_prob_bounds_are_unit_free(n):
    # event probabilities do not move with y -> s (y + t): an absolute
    # tolerance of 1e-12 on means moved L and U by 0.136 at s = 1e-12
    inst = _instance(n)
    target = random_target(np.random.default_rng(n + 3))
    kappas = _pivots(aumann_interval(inst), (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
    ref_lo, ref_hi = _prob_bounds(inst, gap_profile(inst, target), kappas)
    ref_p = [calibrate_mean(inst, target, kappa).probability for kappa in kappas]
    # and kappas 100 box widths outside the box are infeasible at every scale:
    # an absolute floor of 1e-9 clipped them to the box at s = 1e-12
    box = aumann_interval(inst)
    outside = [box.lo - 100.0 * box.width, box.hi + 100.0 * box.width]
    for s in SCALES + [1e-9, 1e-12]:
        for t in SHIFTS:
            moved = _moved(inst, s, t)
            moved_target = TargetSet.from_pairs([(s * (a + t), s * (b + t)) for a, b in target.pieces])
            for i, kappa in enumerate(kappas):
                got = mean_restricted_prob_bounds(moved, moved_target, s * (kappa + t))
                p = calibrate_mean(moved, moved_target, s * (kappa + t)).probability
                assert abs(got.lo - ref_lo[i]) <= 1e-12, (s, t, kappa)
                assert abs(got.hi - ref_hi[i]) <= 1e-12, (s, t, kappa)
                assert abs(p - ref_p[i]) <= 1e-12, (s, t, kappa)
            for kappa in outside:
                for query in (mean_restricted_prob_bounds, calibrate_mean):
                    with pytest.raises(KappaInfeasible):
                        query(moved, moved_target, s * (kappa + t))


def test_power_validity_is_unit_free():
    # r = 2 needs nonnegative data: a lower end of -1/3 of the data's scale
    # is invalid and one of -1e-15 of it is rounding, at every scale; an
    # absolute floor of 1e-12 accepted the first at s = 1e-12 and refused
    # the second at s = 1e6
    for s in SCALES + [1e-9, 1e-12]:
        negative = DiscreteInstance([-0.5 * s, 0.2 * s], [1.0 * s, 1.5 * s], [0.5, 0.5])
        with pytest.raises(InvalidPower):
            power_image_interval(negative, 2.0)
        with pytest.raises(InvalidPower):
            moment_restricted_mean_interval(negative, MomentRestriction(2.0, 0.5 * s**2))
        noisy = DiscreteInstance([-1e-15 * s, 0.2 * s], [1.0 * s, 1.5 * s], [0.5, 0.5])
        assert power_image_interval(noisy, 2.0).lo == pytest.approx(0.5 * (0.2 * s) ** 2, rel=1e-15)


# ---------------------------------------------------------------------------
# batch = point for the mean-pinned probability bounds


def _engaged_weight(gaps, w, need, descending=False):
    """Engaged weight of one greedy fill at one mean shift: the point
    formula the batch replaced, kept here as its reference."""
    total = float(np.dot(gaps, w))
    cost = gaps * w
    mass = min(need, total) if need > 1e-12 else 0.0
    order, k, frac, _ = _greedy_fill(-gaps if descending else gaps, cost, mass)
    engaged = np.where(gaps == 0.0, w, 0.0)
    engaged[order[:k]] = w[order[:k]]
    if mass > 0.0:
        engaged[order[k]] = w[order[k]] * min(frac / cost[order[k]], 1.0)
    return float(engaged.sum())


def _reference_bounds(inst, prof, kappa):
    """[L, U] at one clipped kappa, one point fill per bound."""
    w, hit = inst.weight, prof.hit
    k_lo, k_hi = (float(np.dot(w, v)) for v in _span(inst, prof, "sup"))
    if k_lo - 1e-12 <= kappa <= k_hi + 1e-12:
        upper = float(w[hit].sum())
    elif kappa > k_hi:
        upper = _engaged_weight(prof.delta_plus[hit], w[hit], inst.mean_upper() - kappa)
    else:
        upper = _engaged_weight(prof.delta_minus[hit], w[hit], kappa - inst.mean_lower())
    partial = hit & ~prof.contain
    j_lo, j_hi = (float(np.dot(w, v)) for v in _span(inst, prof, "inf"))
    lower = float(w[prof.contain].sum())
    if not (j_lo - 1e-12 <= kappa <= j_hi + 1e-12):
        if kappa < j_lo:
            gaps, need = np.maximum(prof.out_low - prof.a_minus, 0.0), j_lo - kappa
        else:
            gaps, need = np.maximum(prof.a_plus - prof.out_high, 0.0), kappa - j_hi
        pool = partial & (gaps > 0.0)
        lower += _engaged_weight(gaps[pool], w[pool], need, descending=True)
    return min(lower, upper), upper


def _hypothesis_case(seed, n, grid):
    """A random or 0.25-grid instance, a target and a kappa batch that
    covers the mean range, every slack-span edge and random points."""
    rng = np.random.default_rng(seed)
    if grid:
        lower = 0.25 * rng.integers(0, 17, n)
        upper = lower + 0.25 * rng.integers(0, 9, n)
        inst = DiscreteInstance.from_rows(zip(lower, upper, rng.uniform(0.1, 1.0, n)))
        target = random_target(rng, 0.0, 6.0) if rng.random() < 0.5 else TargetSet.from_pairs([[1, 2], [3, 3.5]])
    else:
        inst, target = random_instance(rng, n=n), random_target(rng)
    prof = gap_profile(inst, target)
    box = aumann_interval(inst)
    edges = [float(np.dot(inst.weight, v)) for b in ("sup", "inf") for v in _span(inst, prof, b)]
    kappas = np.concatenate([
        np.linspace(box.lo, box.hi, 41),
        box.lo + box.width * rng.random(8),
        np.clip([e + d for e in edges for d in (-1e-9, 0.0, 1e-9)], box.lo, box.hi),
    ])
    return inst, target, prof, kappas


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.booleans())
@settings(max_examples=100, deadline=None)
def test_prob_bounds_batch_equals_point(seed, n, grid):
    inst, target, prof, kappas = _hypothesis_case(seed, n, grid)
    lower, upper = _prob_bounds(inst, prof, kappas)
    for i, kappa in enumerate(kappas):
        (lo,), (hi,) = _prob_bounds(inst, prof, [kappa])
        assert (lower[i], upper[i]) == (lo, hi)   # bit for bit
        assert mean_restricted_prob_bounds(inst, target, float(kappa)).as_tuple() == (lo, hi)
        ref_lo, ref_hi = _reference_bounds(inst, prof, float(kappa))
        assert abs(lo - ref_lo) <= 1e-12 and abs(hi - ref_hi) <= 1e-12
        if i % 7 == 0:
            assert calibrate_mean(inst, target, float(kappa)).probability == hi


# ---------------------------------------------------------------------------
# the relations on hypothesis-generated instances


def _drawn_instance(seed, n, grid):
    """A random instance, or one whose endpoints lie on a 0.25 grid, with
    n scenarios and weights in [0.1, 1)."""
    rng = np.random.default_rng(seed)
    if not grid:
        return random_instance(rng, n=n), rng
    lower = 0.25 * rng.integers(0, 17, n)
    upper = lower + 0.25 * rng.integers(0, 9, n)
    return DiscreteInstance.from_rows(zip(lower, upper, rng.uniform(0.1, 1.0, n))), rng


def _size(width, inst):
    """``width``, or for a point interval (drawn instances make them) the
    data's magnitude, so that a point is placed to GATE of the data."""
    return width or float(max(np.abs(inst.lower).max(), np.abs(inst.upper).max()))


# each pivot primal: (instance, pivot) -> interval, its admissible pivots,
# and the mirror image of (instance, pivot) -> interval under y -> -y,
# which swaps the mass needed below the pivot with the mass needed above
PIVOTED = {
    "median": (median_restricted_mean_interval, median_benchmark, median_restricted_mean_interval),
    "quantile": (
        PRIMALS["quantile"][0],
        PRIMALS["quantile"][1],
        lambda inst, q: pivot_mean_interval(inst, q, 1.0 - ALPHA, ALPHA),
    ),
}


@given(
    st.integers(0, 2**32 - 1), st.integers(2, 300), st.booleans(), st.sampled_from(sorted(PIVOTED))
)
@settings(max_examples=60, deadline=None)
def test_pivot_relations_on_drawn_instances(seed, n, grid, kind):
    primal, band, mirrored = PIVOTED[kind]
    inst, rng = _drawn_instance(seed, n, grid)
    for x in _pivots(band(inst)):
        ref = primal(inst, x)
        for s in (1e-6, 1.0, 1e6):
            for t in SHIFTS:
                moved = _moved(inst, s, t)
                got = primal(moved, s * (x + t))
                _assert_at(got, s * (ref.lo + t), s * (ref.hi + t), _size(s * ref.width, moved))
        width = _size(ref.width, inst)
        _assert_at(mirrored(_reflected(inst), -x), -ref.hi, -ref.lo, width)
        _assert_at(primal(inst.reordered(rng.permutation(n)), x), ref.lo, ref.hi, width)
        split = inst.split_scenario(int(rng.integers(n)), float(rng.uniform(0.1, 0.9)))
        _assert_at(primal(split, x), ref.lo, ref.hi, width)


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.booleans(), st.sampled_from([2.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_moment_relations_on_drawn_instances(seed, n, grid, r):
    inst, rng = _drawn_instance(seed, n, grid)
    if r == 2.0 and not grid:
        inst = _moved(inst, 1.0, 2.0)   # r = 2 needs nonnegative data; random lowers exceed -2
    image = power_image_interval(inst, r)
    for f in (0.2, 0.5, 0.8):
        mu = image.lo + f * image.width
        ref = moment_restricted_mean_interval(inst, MomentRestriction(r, mu))
        width = _size(ref.width, inst)
        for s in (1e-6, 1e6):
            moved = _moved(inst, s, 0.0)
            got = moment_restricted_mean_interval(moved, MomentRestriction(r, s**r * mu))
            _assert_at(got, s * ref.lo, s * ref.hi, s * width)
        if r == 3.0:
            got = moment_restricted_mean_interval(_reflected(inst), MomentRestriction(r, -mu))
            _assert_at(got, -ref.hi, -ref.lo, width)
        shuffled = inst.reordered(rng.permutation(n))
        _assert_at(moment_restricted_mean_interval(shuffled, MomentRestriction(r, mu)), ref.lo, ref.hi, width)
        split = inst.split_scenario(int(rng.integers(n)), float(rng.uniform(0.1, 0.9)))
        _assert_at(moment_restricted_mean_interval(split, MomentRestriction(r, mu)), ref.lo, ref.hi, width)


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.booleans())
@settings(max_examples=60, deadline=None)
def test_quantile_range_relations_on_drawn_instances(seed, n, grid):
    inst, rng = _drawn_instance(seed, n, grid)
    box = aumann_interval(inst)
    for f in (0.3, 0.7):
        kappa = box.lo + f * box.width
        ref = mean_restricted_quantile_range(inst, ALPHA, kappa)
        for s in (1e-6, 1.0, 1e6):
            for t in SHIFTS:
                moved = _moved(inst, s, t)
                got = mean_restricted_quantile_range(moved, ALPHA, s * (kappa + t))
                _assert_at(got, s * (ref.lo + t), s * (ref.hi + t), _size(s * ref.width, moved))
        shuffled = inst.reordered(rng.permutation(n))
        _assert_at(mean_restricted_quantile_range(shuffled, ALPHA, kappa), ref.lo, ref.hi, _size(ref.width, inst))
