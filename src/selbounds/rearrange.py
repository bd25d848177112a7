"""Bathtub-principle minimization and the quantile-area identity.

Given a nonnegative variable X on a conditioning event M of mass p0, the
cheapest set of prescribed mass s on which to integrate X concentrates
where X is smallest; its value is the partial integral of the conditional
quantile function,

    inf{ E[X 1_S] : S subset of M, P(S) = s } = p0 * int_0^{s/p0} Q(u) du.

On finite instances the infimum is attained exactly by taking whole atoms
in ascending X order and splitting the boundary atom fractionally.  One
greedy fill kernel does this, in two steps: :func:`_sort_fill` sorts once
(:func:`_fill_order`: a stable sort of a small pool, else one quicksort with
its ties put back in position order) and :func:`_fill_at` fills at any
number of masses, so the mean-pinned probability bounds of
:mod:`selbounds.events` answer a whole curve of mean pins from one sort
per regime.  The pivot-restricted mean bounds of :mod:`selbounds.median`
reach the kernel at two call sites: a point query sorts its contact gaps
(:func:`_greedy_fill`), and a curve of pivots takes its gaps in order from
one presort per side, which comes from :func:`_fill_order`, puts ties
back with :func:`_tie_runs` and shares the fill's value
(:func:`_fill_value`).  :func:`sorted_partial_sum` (the fill's value) and
:func:`least_x_set` (also the chosen subset) are thin public wrappers.
Quantile-step integration (:func:`conditional_quantile_integral`) is
implemented independently of that kernel and must agree with it to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BetaOutOfRange, InputError, MassOutOfRange, NegativeSupport
from .model import StepDistribution

_ATOL = 1e-12
#: up to this size a stable sort costs no more than a quicksort and the
#: check for ties after it (about 3 against 5 to 17 us at 6 values)
_STABLE_MAX = 256


@dataclass(frozen=True)
class WeightedSubset:
    """A sub-selection of conditioning members with (possibly split) weights."""

    indices: np.ndarray   # positions into the member list
    subweights: np.ndarray
    value: float          # sum of X * subweight over the subset

    @property
    def mass(self) -> float:
        return float(self.subweights.sum())


class ConditionalLaw:
    """Nonnegative values X on a conditioning member set with raw weights."""

    __slots__ = ("member_indices", "member_weights", "values", "p0")

    def __init__(self, member_indices, member_weights, values):
        member_indices = np.asarray(member_indices, dtype=int)
        member_weights = np.asarray(member_weights, dtype=float)
        values = np.asarray(values, dtype=float)
        if not (member_indices.shape == member_weights.shape == values.shape):
            raise InputError("conditional law arrays must share one shape")
        if member_weights.size == 0 or member_weights.sum() <= 0.0:
            raise InputError("conditioning event must carry positive mass")
        if np.any(member_weights <= 0.0):
            raise InputError("member weights must be positive")
        if np.any(values < -_ATOL):
            raise NegativeSupport("conditional values must be nonnegative")
        values = np.maximum(values, 0.0)
        self.member_indices = member_indices
        self.member_weights = member_weights
        self.values = values
        self.p0 = float(member_weights.sum())

    def distribution(self) -> StepDistribution:
        """Conditional law of X given the member set (masses renormalized)."""
        return StepDistribution.from_samples(self.values, self.member_weights / self.p0)


def _fill_order(values):
    """Ascending order of ``values``, ties by position, and the values
    along it.

    The order is the permutation ``np.lexsort((np.arange(n), values))``
    gives.  A pool of at most ``_STABLE_MAX`` values takes one stable sort.
    A larger one takes one quicksort, and only positions inside runs of
    equal sorted values are sorted again (:func:`_tie_runs`), so a pool
    without ties never pays for a stable sort and a pool of many zero gaps
    pays only for its ties.  ``values`` holds no NaN.
    """
    if values.size <= _STABLE_MAX:
        order = np.argsort(values, kind="stable")
        return order, values[order]
    order = np.argsort(values)
    v = values[order]
    ties = _tie_runs(v, order.__getitem__, v.size)
    if ties is not None:
        at, key = ties
        order[at] = key
        v[at] = values[key]   # -0.0 and 0.0 tie but differ in bits
    return order, v


def _tie_runs(v, key_of, bound):
    """The positions inside runs of equal values of the ascending ``v``, and
    their keys ``key_of(positions)`` (integers in [0, bound)), put in
    ascending order within each run by one integer sort of (run, key);
    None without ties.

    Writing the keys back at those positions gives the order ties by key,
    and the values must be read again there, since -0.0 and 0.0 tie.
    """
    same = v[1:] == v[:-1]
    if not np.count_nonzero(same):
        return None
    n = v.size
    tied = np.zeros(n + 1, dtype=bool)   # tied[i]: v[i] equals v[i - 1]
    tied[1:n] = same
    at = (tied[:n] | tied[1:]).nonzero()[0]
    run = np.where(tied[at], 0, bound)   # bound where a run starts
    np.add.accumulate(run, out=run)      # each position's run, times bound
    key = key_of(at)
    key += run
    key.sort()
    key -= run
    return at, key


def _sort_fill(values, weights):
    """Sort once: the fill order of ``values`` from :func:`_fill_order`
    (ascending, ties by position), the values and weights along it, and
    the weights' running sum, which :func:`_fill_at` reads at any number of
    masses."""
    order, v = _fill_order(values)
    w = weights[order]
    return order, v, w, np.cumsum(w)


def _fill_at(cum, masses):
    """Fill at these masses, each in [0, cum[-1]], along a nonempty order
    with running weight ``cum``: per mass, the count ``k`` of leading
    positions taken whole and the boundary mass ``frac`` that position
    ``k`` contributes (the last position takes any rounding excess)."""
    k = np.minimum(np.searchsorted(cum, masses, side="left"), cum.size - 1)
    return k, np.maximum(masses - np.where(k > 0, cum[k - 1], 0.0), 0.0)


def _greedy_fill(values, weights, mass: float):
    """Fill ascending values (ties by position) up to ``mass``.

    Returns ``(order, k, frac, value)``: the first ``k`` positions of
    ``order`` are taken whole, ``order[k]`` contributes the boundary
    fraction ``frac`` of its weight, and ``value`` is the filled sum of
    value times weight.  ``mass`` is clipped into [0, sum(weights)] within
    tolerance.
    """
    total = float(weights.sum())
    if mass < -_ATOL or mass > total + max(_ATOL, 1e-9 * total):
        raise MassOutOfRange(f"mass {mass} outside [0, {total}]")
    mass = min(max(mass, 0.0), total)
    order, v = _fill_order(values)
    if mass == 0.0:
        return order, 0, 0.0, 0.0
    return (order, *_fill_value(v, weights[order], mass))


def _fill_value(v, w, mass: float):
    """The fill at ``mass`` in (0, sum(w)] of values ``v`` with weights
    ``w``, both already in fill order: ``(k, frac, value)`` as
    :func:`_greedy_fill` returns them."""
    k, frac = _fill_at(np.cumsum(w), mass)
    k, frac = int(k), float(frac)
    return k, frac, float(np.dot(v[:k], w[:k])) + float(v[k]) * frac


def sorted_partial_sum(values, weights, mass: float) -> float:
    """Cost of the cheapest sub-mass: fill ascending values up to ``mass``.

    Whole weights are taken in ascending value order (ties by position) and
    the boundary weight is split fractionally.  ``mass`` is clipped into
    [0, sum(weights)] within tolerance.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return _greedy_fill(values, weights, mass)[3]


def least_x_set(cond: ConditionalLaw, s: float) -> WeightedSubset:
    """Least-X subset of the conditioning set with mass exactly ``s``.

    Returns the chosen members with their (possibly fractional) weights;
    ``value`` equals ``p0 * int_0^{s/p0} Q(u) du`` exactly on step laws.
    """
    order, k, frac, value = _greedy_fill(cond.values, cond.member_weights, s)
    take = order[: k + 1]
    take_w = cond.member_weights[take]
    take_w[-1:] = frac   # the boundary member keeps only its filled fraction
    keep = take_w > 0.0
    return WeightedSubset(cond.member_indices[take[keep]], take_w[keep], value)


def conditional_quantile_integral(cond: ConditionalLaw, beta: float) -> float:
    """p0 * int_0^beta Q(u) du for the conditional quantile Q, exactly.

    Computed from the aggregated conditional step law, independently of the
    greedy fill behind :func:`least_x_set`; the two agree within 1e-12.
    """
    if beta < -_ATOL or beta > 1.0 + _ATOL:
        raise BetaOutOfRange(f"beta must lie in [0,1], got {beta}")
    beta = min(max(beta, 0.0), 1.0)
    if beta == 0.0:
        return 0.0
    dist = cond.distribution()
    cum = np.concatenate(([0.0], np.cumsum(dist.masses)))
    filled = np.clip(beta, cum[:-1], cum[1:]) - cum[:-1]
    return cond.p0 * float(np.dot(dist.values, filled))


def quantile_area(dist: StepDistribution, alpha: float) -> tuple[float, float]:
    """Both sides of the quantile-area identity for a nonnegative law.

    left  = int_0^alpha Q(u) du
    right = int_0^inf (alpha - F(t))_+ dt

    Returns the pair; on step laws they agree to machine precision, which
    the test suite enforces at 1e-12.
    """
    if not (0.0 < alpha < 1.0):
        raise BetaOutOfRange(f"alpha must lie in (0,1), got {alpha}")
    if dist.values[0] < -_ATOL:
        raise NegativeSupport("quantile-area identity requires nonnegative support")

    cum = np.concatenate(([0.0], np.cumsum(dist.masses)))
    filled = np.clip(alpha, cum[:-1], cum[1:]) - cum[:-1]
    left = float(np.dot(dist.values, filled))

    # right side: F is constant between atoms; integrate (alpha - F)_+ on
    # [0, v_1) and on each [v_k, v_{k+1}); beyond the last atom F >= alpha.
    v = np.maximum(dist.values, 0.0)
    ts = np.concatenate(([0.0], v))
    levels = np.concatenate(([0.0], cum[1:]))
    lengths = np.diff(ts)
    right = float(np.dot(lengths, np.maximum(alpha - levels[:-1], 0.0)))
    return left, right
