"""Bounds on P(y in A) for a target set A, with and without a mean pin.

Unrestricted, the probability ranges between the containment and hitting
probabilities of the random interval.  Pinning the mean at kappa tightens
both ends.  The workhorse is a per-scenario trade-off: moving a scenario's
value into (or out of) A costs a deterministic amount of mean, namely the
gap between the relevant interval endpoint and the nearest admissible
point of A (or of its complement).  The optimal selections are bang-bang
in that gap: every scenario whose gap clears a common threshold switches,
and the scenario exactly at the threshold splits its mass (boundary
randomization) so the mean constraint holds with equality.  Finding that
threshold is the greedy fill of :mod:`selbounds.rearrange` over mean
costs.  Each such selection is two scenario-aligned cells, the switched
mass at its in-target point and the rest at the endpoint, built by
:meth:`Selection.from_cells`.

The same values admit a dual description as envelopes over a scalar
multiplier.  Each envelope is piecewise linear in the multiplier, so
:func:`dual_envelope` finds its optimum exactly at a sorted kink, the LP
dual of a continuous knapsack, without touching the greedy fill; dual =
primal to rounding is therefore an independent two-sided check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, KappaInfeasible
from .model import ClosedInterval, DiscreteInstance
from .benchmarks import Selection, _clip_kappa
from .rearrange import _greedy_fill

_ATOL = 1e-12


@dataclass(frozen=True)
class TargetSet:
    """Finite union of disjoint closed intervals, sorted and maximal.

    Singletons are written as zero-length pieces [a, a].  The constructor
    normalizes: pieces are sorted and overlapping or touching pieces are
    merged, so the stored representation is canonical.
    """

    pieces: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise InputError("target set needs at least one piece")
        norm = []
        for a, b in sorted((float(a), float(b)) for a, b in self.pieces):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise InputError("target pieces must be finite")
            if b < a:
                raise InputError(f"target piece [{a}, {b}] is inverted")
            if norm and a <= norm[-1][1]:
                norm[-1] = (norm[-1][0], max(norm[-1][1], b))
            else:
                norm.append((a, b))
        object.__setattr__(self, "pieces", tuple(norm))

    @classmethod
    def from_pairs(cls, pairs) -> "TargetSet":
        return cls(tuple((float(a), float(b)) for a, b in pairs))

    def contains(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.pieces)

    def reflected(self) -> "TargetSet":
        return TargetSet(tuple((-b, -a) for a, b in reversed(self.pieces)))

    def as_lists(self) -> list[list[float]]:
        return [[a, b] for a, b in self.pieces]


@dataclass(frozen=True)
class GapProfile:
    """Per-scenario geometry of the interval against the target set.

    a_plus / a_minus are the largest and smallest points of Y inter A
    (-inf / +inf when the intersection is empty); delta_plus / delta_minus
    are the distances from the interval endpoints to those points (+inf on
    miss scenarios).  out_low / out_high are the infimum and supremum of
    Y minus A (+inf / -inf on contained scenarios); they are closure
    points and need not belong to Y minus A itself.
    """

    a_plus: np.ndarray
    a_minus: np.ndarray
    delta_plus: np.ndarray
    delta_minus: np.ndarray
    hit: np.ndarray
    contain: np.ndarray
    out_low: np.ndarray
    out_high: np.ndarray


def gap_profile(instance: DiscreteInstance, target: TargetSet) -> GapProfile:
    """Exact interval-union intersection geometry, vectorized per piece."""
    lo, hi = instance.lower, instance.upper
    n = instance.n
    a_plus = np.full(n, -np.inf)
    a_minus = np.full(n, np.inf)
    hit = np.zeros(n, dtype=bool)
    contain = np.zeros(n, dtype=bool)
    for a, b in target.pieces:
        meets = (lo <= b) & (hi >= a)
        hit |= meets
        a_minus = np.where(meets, np.minimum(a_minus, np.maximum(a, lo)), a_minus)
        a_plus = np.where(meets, np.maximum(a_plus, np.minimum(b, hi)), a_plus)
        contain |= (a <= lo) & (hi <= b)

    delta_plus = np.where(hit, hi - a_plus, np.inf)
    delta_minus = np.where(hit, a_minus - lo, np.inf)

    # complement extremes: where the endpoint sits inside a piece, the
    # nearest exit is that piece's far edge (a closure point).
    out_low = lo.copy()
    out_high = hi.copy()
    for a, b in target.pieces:
        covers_lo = (a <= lo) & (lo <= b)
        covers_hi = (a <= hi) & (hi <= b)
        out_low = np.where(covers_lo, b, out_low)
        out_high = np.where(covers_hi, a, out_high)
    out_low = np.where(contain, np.inf, out_low)
    out_high = np.where(contain, -np.inf, out_high)
    return GapProfile(
        a_plus=a_plus,
        a_minus=a_minus,
        delta_plus=np.maximum(delta_plus, 0.0),
        delta_minus=np.maximum(delta_minus, 0.0),
        hit=hit,
        contain=contain,
        out_low=out_low,
        out_high=out_high,
    )


def unrestricted_prob_bounds(instance: DiscreteInstance, target: TargetSet) -> ClosedInterval:
    """[P(Y contained in A), P(Y hits A)]: the no-information bounds."""
    return _unrestricted(instance, gap_profile(instance, target))


def _unrestricted(instance: DiscreteInstance, prof: GapProfile) -> ClosedInterval:
    w = instance.weight
    return ClosedInterval(float(w[prof.contain].sum()), float(w[prof.hit].sum()))


@dataclass(frozen=True)
class Calibration:
    """Result of mean calibration: multiplier, selection, probability."""

    lambda_star: float
    selection: Selection
    probability: float


def _engage(gaps: np.ndarray, w: np.ndarray, need: float, descending: bool = False):
    """Engaged weight per scenario for the mean shift ``need``.

    Engaging scenario i shifts the mean by gaps[i] * w[i], so the cheapest
    engagements per unit of probability are one greedy fill over the gaps
    (descending for the infimum) with mass ``need`` in units of mean.  The
    boundary scenario engages the fraction that makes the shift exact;
    zero gaps engage for free.  Returns the engaged weights and the
    boundary gap (0.0 when nothing needs to move).
    """
    total = float(np.dot(gaps, w))
    if need > total + max(1e-9, 1e-9 * total):
        raise KappaInfeasible("mean target outside the reachable range")
    cost = gaps * w
    mass = min(need, total) if need > _ATOL else 0.0
    order, k, frac, _ = _greedy_fill(-gaps if descending else gaps, cost, mass)
    engaged = np.where(gaps == 0.0, w, 0.0)
    engaged[order[:k]] = w[order[:k]]
    if mass == 0.0:
        return engaged, 0.0
    edge = order[k]
    engaged[edge] = w[edge] * min(frac / cost[edge], 1.0)
    return engaged, float(gaps[edge])


def calibrate_mean(instance: DiscreteInstance, target: TargetSet, kappa: float) -> Calibration:
    """Probability-maximizing selection with mean exactly kappa.

    Beyond the slack span of the hit-maximizing selections, one greedy
    fill over mean costs engages hit scenarios in ascending gap order, each
    buying gap * weight of mean shift; the boundary scenario engages the
    fraction that makes the mean exact (boundary randomization).
    lambda_star is +-1 / gap of that scenario, 0 when slack, and +-inf at
    the mean extremes, where nothing moves and selections are endpoints.
    """
    return _calibrate(instance, gap_profile(instance, target), _clip_kappa(instance, kappa))


def _calibrate(instance: DiscreteInstance, prof: GapProfile, kappa: float) -> Calibration:
    """:func:`calibrate_mean` on a built profile and a clipped kappa."""
    w = instance.weight
    hit = prof.hit

    # mean span of fully hit-maximizing selections (mean constraint slack)
    hi_vals = np.where(hit, prof.a_plus, instance.upper)
    lo_vals = np.where(hit, prof.a_minus, instance.lower)
    k_lo = float(np.dot(w, lo_vals))
    k_hi = float(np.dot(w, hi_vals))

    if k_lo - _ATOL <= kappa <= k_hi + _ATOL:
        span = k_hi - k_lo
        tau = 0.0 if span <= 0.0 else min(max((kappa - k_lo) / span, 0.0), 1.0)
        sel = Selection.from_cells(w, [(hi_vals, w * tau)], lo_vals)
        return Calibration(0.0, sel, float(w[hit].sum()))

    if kappa > k_hi:
        # high-mean regime: start from the upper endpoints and pull the
        # cheapest hit scenarios down onto their best in-target point.
        need = instance.mean_upper() - kappa
        gaps = prof.delta_plus
        engaged_value = prof.a_plus
        base_value = instance.upper
        sign = 1.0
    else:
        need = kappa - instance.mean_lower()
        gaps = prof.delta_minus
        engaged_value = prof.a_minus
        base_value = instance.lower
        sign = -1.0

    engaged = np.zeros(instance.n)
    engaged[hit], edge_gap = _engage(gaps[hit], w[hit], need)
    sel = Selection.from_cells(w, [(engaged_value, engaged)], base_value)
    lam = math.inf if edge_gap == 0.0 else 1.0 / edge_gap
    return Calibration(sign * lam, sel, float(engaged.sum()))


def _min_probability(instance: DiscreteInstance, prof: GapProfile, kappa: float) -> float:
    """inf P(y in A) subject to the mean pin (value only).

    Scenarios flee the target through the nearest complement point.  When
    the mean forces some back inside, the cheapest re-entries per unit of
    probability are the LARGEST gaps, so the same greedy fill over mean
    costs runs through the gaps in descending order and the boundary
    scenario re-enters fractionally.  The infimum may be unattained
    (complement extremes are closure points); the value is still exact.
    Takes a built profile and a clipped kappa.
    """
    w = instance.weight
    partial = prof.hit & ~prof.contain

    base_low = np.where(partial, prof.out_low, instance.lower)
    base_high = np.where(partial, prof.out_high, instance.upper)
    j_lo = float(np.dot(w, base_low))
    j_hi = float(np.dot(w, base_high))
    p_contain = float(w[prof.contain].sum())

    if j_lo - _ATOL <= kappa <= j_hi + _ATOL:
        return p_contain

    if kappa < j_lo:
        # must dip below the avoidance floor: re-enter at a_minus
        gaps = np.where(partial, np.maximum(prof.out_low - prof.a_minus, 0.0), 0.0)
        need = j_lo - kappa
    else:
        gaps = np.where(partial, np.maximum(prof.a_plus - prof.out_high, 0.0), 0.0)
        need = kappa - j_hi

    pool = partial & (gaps > 0.0)
    engaged, _ = _engage(gaps[pool], w[pool], need, descending=True)
    return p_contain + float(engaged.sum())


def mean_restricted_prob_bounds(
    instance: DiscreteInstance, target: TargetSet, kappa: float
) -> ClosedInterval:
    """[L(kappa), U(kappa)]: probability range under the mean pin."""
    return _prob_bounds(instance, gap_profile(instance, target), kappa)[0]


def _prob_bounds(instance: DiscreteInstance, prof: GapProfile, kappa: float):
    """[L(kappa), U(kappa)] and the calibration attaining U, from one profile."""
    kappa = _clip_kappa(instance, kappa)
    cal = _calibrate(instance, prof, kappa)
    lower = min(_min_probability(instance, prof, kappa), cal.probability)  # float noise guard
    return ClosedInterval(lower, cal.probability), cal


# ---------------------------------------------------------------------------
# dual envelopes


def _psi_mean(instance: DiscreteInstance, prof: GapProfile, lam: float) -> float:
    """E of the per-scenario sup of 1{x in A} + lam*x over the interval."""
    if lam >= 0.0:
        out_side = lam * instance.upper
        anchor = np.where(prof.hit, prof.a_plus, 0.0)
    else:
        out_side = lam * instance.lower
        anchor = np.where(prof.hit, prof.a_minus, 0.0)
    in_side = np.where(prof.hit, 1.0 + lam * anchor, -np.inf)
    return float(np.dot(instance.weight, np.maximum(out_side, in_side)))


def _phi_mean(instance: DiscreteInstance, prof: GapProfile, lam: float) -> float:
    """E of the per-scenario inf of 1{x in A} + lam*x over the interval.

    Contained scenarios have no escape and pay the indicator at the cheap
    endpoint; partial scenarios compare the best escape (a complement
    closure point) with the cheapest in-target point.
    """
    partial = prof.hit & ~prof.contain
    if lam >= 0.0:
        esc = np.where(partial, prof.out_low, instance.lower)
        in_anchor = np.where(prof.hit, prof.a_minus, 0.0)
        contained = 1.0 + lam * instance.lower
    else:
        esc = np.where(partial, prof.out_high, instance.upper)
        in_anchor = np.where(prof.hit, prof.a_plus, 0.0)
        contained = 1.0 + lam * instance.upper
    inside = np.where(prof.hit, 1.0 + lam * in_anchor, np.inf)
    val = np.where(prof.contain, contained, np.minimum(lam * esc, inside))
    return float(np.dot(instance.weight, val))


def _kink_argmin(w, left: float, right: float, neg_gaps, pos_gaps) -> float:
    """Least point of a convex piecewise-linear function of lam.

    Its slope is ``left`` just below 0 and ``right`` just above, and rises
    by w * g at lam = -1/g for each g in ``neg_gaps`` and at lam = 1/g for
    each g in ``pos_gaps``: the first kink, counted outward from 0, where
    the slope reaches 0 (the last one when rounding keeps it below).
    """
    if left <= 0.0 <= right:
        return 0.0
    start, gaps, side = (-left, neg_gaps, -1.0) if left > 0.0 else (right, pos_gaps, 1.0)
    keep = gaps > 0.0
    if not keep.any():
        return 0.0
    g = gaps[keep]
    order = np.argsort(-g, kind="stable")
    slope = start + np.cumsum(w[keep][order] * g[order])
    return side / float(g[order[min(int(np.searchsorted(slope, 0.0)), g.size - 1)]])


@dataclass(frozen=True)
class DualEnvelope:
    """Dual values of both bounds and the multipliers that attain them."""

    upper: float
    lower: float
    lambda_upper: float
    lambda_lower: float


def _dual(instance: DiscreteInstance, prof: GapProfile, kappa: float) -> DualEnvelope:
    """Both dual envelopes on a built profile.

    Upper: psi_mean(lam) - lam*kappa is convex and piecewise linear; its
    slope starts at E lower - kappa and steps up by delta_minus at
    -1/delta_minus, by a_plus - a_minus at 0 (a miss by its width) and by
    delta_plus at 1/delta_plus.  Lower: phi_mean(lam) - lam*kappa mirrors
    it with the partial scenarios' gaps a_plus - out_high and out_low -
    a_minus.  One sort each, and no call into the primal's greedy fill.
    """
    kappa = _clip_kappa(instance, kappa)
    w, lo, hi, hit = instance.weight, instance.lower, instance.upper, prof.hit
    part = hit & ~prof.contain
    lam_u = _kink_argmin(
        w[hit],
        float(np.dot(w, np.where(hit, prof.a_minus, lo))) - kappa,
        float(np.dot(w, np.where(hit, prof.a_plus, hi))) - kappa,
        prof.delta_minus[hit],
        prof.delta_plus[hit],
    )
    lam_l = _kink_argmin(
        w[part],
        kappa - float(np.dot(w, np.where(part, prof.out_high, hi))),
        kappa - float(np.dot(w, np.where(part, prof.out_low, lo))),
        np.maximum(prof.a_plus[part] - prof.out_high[part], 0.0),
        np.maximum(prof.out_low[part] - prof.a_minus[part], 0.0),
    )
    return DualEnvelope(
        _psi_mean(instance, prof, lam_u) - lam_u * kappa,
        _phi_mean(instance, prof, lam_l) - lam_l * kappa,
        lam_u,
        lam_l,
    )


def dual_envelope(instance: DiscreteInstance, target: TargetSet, kappa: float) -> DualEnvelope:
    """Envelope values inf/sup over the multiplier of the dual objective.

    Each multiplier is found exactly from the sorted kinks of the dual
    objective (the LP dual of a continuous knapsack), and the value is the
    objective there, so it equals the primal bounds to rounding at any
    scale of the data.
    """
    return _dual(instance, gap_profile(instance, target), kappa)
