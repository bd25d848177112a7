"""Mean bounds under higher-moment and general fixed-quantile restrictions.

Moment restrictions are handled through a scalar dual: for each multiplier
the per-scenario problem max/min of x + lam*x^r over the interval is solved
in closed form (endpoints plus interior stationary points), and the outer
envelope over the multiplier is a one-dimensional convex search.

Fixed-quantile restrictions at level alpha reuse the pivot machinery from
the median case with mass levels (alpha, 1-alpha): the upper endpoint caps
the cheapest contact gaps down to the quantile target, the lower endpoint
lifts them up.  This closed form is an implementation device validated
against the exhaustive oracle in the test suite; at alpha = 1/2 it
coincides with the median formulas bit for bit.  The reported endpoints
are closure values: the lower one need not be attained because the
quantile constraint pins P(y < q) strictly below alpha.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InfeasibleMoment,
    InfeasibleQuantile,
    InputError,
    InvalidPower,
    RestrictionViolated,
)
from .model import ClosedInterval, DiscreteInstance
from .benchmarks import Selection, aumann_interval, quantile_attainability_range
from .median import partition, pivot_mean_interval
from .events import _minimize_convex

_ATOL = 1e-12


@dataclass(frozen=True)
class MomentRestriction:
    """Constraint E[y^r] = mu_r."""

    r: float
    mu_r: float

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r == 0.0:
            raise InputError(f"moment order must be a nonzero real, got {self.r}")


@dataclass(frozen=True)
class QuantileRestriction:
    """Constraint F_y^{-1}(alpha) = q (left-continuous inverse)."""

    alpha: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise AlphaOutOfRange(f"alpha must be in (0,1), got {self.alpha}")


def _is_odd_integer(r: float) -> bool:
    return float(r).is_integer() and int(r) % 2 == 1


def _power(x: np.ndarray, r: float) -> np.ndarray:
    """x**r, extended to negative x for odd integer r via sign symmetry."""
    if _is_odd_integer(r):
        return np.sign(x) * np.abs(x) ** int(r)
    return np.power(x, r)


def _check_power_validity(instance: DiscreteInstance, r: float) -> None:
    if r > 0.0 and (_is_odd_integer(r) or float(instance.lower.min()) >= -_ATOL):
        return
    raise InvalidPower(
        f"power r={r} needs a positive exponent, odd integer unless the instance is nonnegative"
    )


def power_image_interval(instance: DiscreteInstance, r: float) -> ClosedInterval:
    """Mean range of y^r over all selections: [E lower^r, E upper^r].

    The power map is monotone on every scenario interval under the
    validity condition, so the image of the random interval is again an
    interval with transformed endpoints.
    """
    _check_power_validity(instance, r)
    lower, upper = instance.lower, instance.upper
    if not _is_odd_integer(r):
        # validity guarantees nonnegative lowers; clamp -1e-15 noise
        lower = np.maximum(lower, 0.0)
        upper = np.maximum(upper, 0.0)
    lo = float(np.dot(instance.weight, _power(lower, r)))
    hi = float(np.dot(instance.weight, _power(upper, r)))
    return ClosedInterval(min(lo, hi), max(lo, hi))


def _scenario_envelope(lower, upper, r: float, lam: float, maximize: bool):
    """Per-scenario extremum of x + lam * x^r over [lower, upper].

    Candidates: both endpoints plus real stationary points of the map,
    i.e. solutions of 1 + lam*r*x^(r-1) = 0 inside the interval.
    """
    cands = [lower, upper]
    if lam != 0.0 and r != 1.0:
        c = -1.0 / (lam * r)
        if _is_odd_integer(r) and int(r) >= 3:
            # r-1 even: real roots only when c > 0, symmetric pair
            if c > 0.0:
                root = c ** (1.0 / (r - 1.0))
                cands.extend([np.full_like(lower, root), np.full_like(lower, -root)])
        elif r == 2.0:
            cands.append(np.full_like(lower, -1.0 / (2.0 * lam)))
        elif r > 0.0:
            if c > 0.0:
                cands.append(np.full_like(lower, c ** (1.0 / (r - 1.0))))
    vals = None
    for cand in cands:
        x = np.clip(cand, lower, upper)
        v = x + lam * _power(x, r)
        vals = v if vals is None else (np.maximum(vals, v) if maximize else np.minimum(vals, v))
    return vals


def moment_restricted_mean_interval(
    instance: DiscreteInstance, restriction: MomentRestriction
) -> ClosedInterval:
    """Mean range over selections with E[y^r] = mu_r, by scalar duality.

    Upper endpoint: inf over the multiplier of E[sup_x(x + lam x^r)] - lam mu_r;
    lower endpoint mirrors with inf_x and sup over the multiplier.  Both
    envelopes are convex (resp. concave) in the multiplier, so an
    expanding-bracket golden-section search is exact up to refinement
    tolerance; results are clipped into the unrestricted mean interval.
    The search runs on the data divided by s = max |endpoint| (mu_r by
    s^r), so its tolerances do not depend on the units.
    """
    r, mu = restriction.r, restriction.mu_r
    _check_power_validity(instance, r)
    image = power_image_interval(instance, r)
    tol = 1e-9 * max(1.0, abs(image.lo), abs(image.hi))
    if not image.contains(mu, tol=tol):
        raise InfeasibleMoment(
            f"mu_r={mu} outside the attainable moment range [{image.lo}, {image.hi}]"
        )
    mu = image.clip(mu)
    box = aumann_interval(instance)
    if r == 1.0:
        return ClosedInterval(mu, mu)

    s = float(max(np.abs(instance.lower).max(), np.abs(instance.upper).max()))
    if s == 0.0:
        return ClosedInterval(0.0, 0.0)
    w, lo, hi, mu = instance.weight, instance.lower / s, instance.upper / s, mu / s**r

    def upper_obj(lam):
        return float(np.dot(w, _scenario_envelope(lo, hi, r, lam, True))) - lam * mu

    def lower_obj_neg(lam):
        return -(float(np.dot(w, _scenario_envelope(lo, hi, r, lam, False))) - lam * mu)

    e_hi = s * _minimize_convex(upper_obj)
    e_lo = -s * _minimize_convex(lower_obj_neg)
    return ClosedInterval(box.clip(min(e_lo, e_hi)), box.clip(max(e_lo, e_hi)))


def quantile_restriction_feasible(
    instance: DiscreteInstance, restriction: QuantileRestriction
) -> bool:
    """True iff the target sits inside the attainability range."""
    rng = quantile_attainability_range(instance, restriction.alpha)
    return rng.contains(restriction.q)


def quantile_restricted_mean_interval(
    instance: DiscreteInstance, restriction: QuantileRestriction
) -> ClosedInterval:
    """Mean range over selections with alpha-quantile pinned at q."""
    if not quantile_restriction_feasible(instance, restriction):
        rng = quantile_attainability_range(instance, restriction.alpha)
        raise InfeasibleQuantile(
            f"q={restriction.q} outside the attainability range "
            f"[{rng.lo}, {rng.hi}] at alpha={restriction.alpha}"
        )
    return pivot_mean_interval(
        instance, restriction.q, restriction.alpha, 1.0 - restriction.alpha
    )


def _law_quantile_matches(selection: Selection, alpha: float, q: float) -> bool:
    law = selection.law()
    return abs(law.quantile(alpha) - q) <= _ATOL * max(1.0, abs(q))


def mixture_convexity_check(
    instance: DiscreteInstance,
    restriction: QuantileRestriction,
    y1: Selection,
    y2: Selection,
    theta: float,
) -> Selection:
    """Law-level mixture of two restricted selections.

    Splits every scenario's weight theta / (1-theta) between the two input
    selections; the mixture law is the convex combination of the input
    laws, so the pinned quantile survives and the mean interpolates
    linearly.  Raises :class:`RestrictionViolated` when either input fails
    the quantile restriction.
    """
    if not (0.0 <= theta <= 1.0):
        raise InputError(f"theta must lie in [0,1], got {theta}")
    for name, sel in (("y1", y1), ("y2", y2)):
        sel.validate(instance)
        if not _law_quantile_matches(sel, restriction.alpha, restriction.q):
            raise RestrictionViolated(
                f"{name} does not satisfy the quantile restriction "
                f"F^-1({restriction.alpha}) = {restriction.q}"
            )
    return Selection(
        np.concatenate([y1.scenario, y2.scenario]),
        np.concatenate([y1.value, y2.value]),
        np.concatenate([y1.subweight * theta, y2.subweight * (1.0 - theta)]),
    )


def mean_restricted_quantile_range(
    instance: DiscreteInstance, alpha: float, kappa: float
) -> ClosedInterval:
    """Attainable alpha-quantiles among selections with mean kappa.

    q is compatible with the mean pin iff E_min(q) <= kappa <= E_max(q).
    Both maps are nondecreasing in q, affine between breakpoints (scenario
    endpoints) and may jump upward at one, so a bisection over the sorted
    breakpoints finds the first with E_max >= kappa and the first with
    E_min > kappa.  The segment before each is an exact line: its slope is
    the capped contact mass min(max(alpha - p_minus, 0), p0) for E_max, or
    the lifted one min(max(1 - alpha - p_plus, 0), p0) for E_min, from one
    partition at the midpoint.  Endpoints are closure values: one on an
    upward jump (a zero-width scenario) may be a supremum, not attained.
    """
    box = aumann_interval(instance)
    if not box.contains(kappa, tol=1e-9 * max(1.0, abs(kappa))):
        raise InfeasibleQuantile(f"kappa={kappa} outside [{box.lo}, {box.hi}]")
    kappa = box.clip(kappa)
    rng = quantile_attainability_range(instance, alpha)
    cuts = np.unique(np.concatenate([instance.lower, instance.upper]))
    cuts = cuts[(cuts > rng.lo) & (cuts < rng.hi)]
    grid = np.concatenate([[rng.lo], cuts, [rng.hi]])
    tol = _ATOL * max(1.0, abs(kappa))

    def at(q):
        return pivot_mean_interval(instance, float(q), alpha, 1.0 - alpha)

    def first(holds):
        return bisect.bisect_left(range(grid.size), True, key=lambda j: holds(at(grid[j])))

    def crossing(i, upper_side):
        """Where E_max (upper_side) or E_min reaches kappa on (grid[i-1], grid[i])."""
        a, b = float(grid[i - 1]), float(grid[i])
        mid = 0.5 * (a + b)
        iv, part = at(mid), partition(instance, mid)
        if upper_side:
            value, slope = iv.hi, min(max(alpha - part.p_minus, 0.0), part.p0)
            if value + slope * (a - mid) >= kappa - tol:
                return a   # on the upward jump at a
        else:
            value, slope = iv.lo, min(max(1.0 - alpha - part.p_plus, 0.0), part.p0)
            if value + slope * (b - mid) <= kappa + tol:
                return b   # on the upward jump at b
        if slope > 0.0:
            return min(max(mid + (kappa - value) / slope, a), b)
        return b if upper_side else a

    i_lo = first(lambda iv: iv.hi >= kappa - tol)
    i_hi = first(lambda iv: iv.lo > kappa + tol)
    if i_lo == grid.size or i_hi == 0:
        raise InfeasibleQuantile(
            f"no quantile at level {alpha} is compatible with mean {kappa}"
        )
    q_lo = float(grid[0]) if i_lo == 0 else crossing(i_lo, True)
    q_hi = float(grid[-1]) if i_hi == grid.size else crossing(i_hi, False)
    return ClosedInterval(min(q_lo, q_hi), max(q_lo, q_hi))
