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
multiplier; :func:`dual_envelope` evaluates it as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, KappaInfeasible
from .model import ClosedInterval, DiscreteInstance
from .benchmarks import Selection, aumann_interval
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
    prof = gap_profile(instance, target)
    lo = float(instance.weight[prof.contain].sum())
    hi = float(instance.weight[prof.hit].sum())
    return ClosedInterval(lo, hi)


def threshold_selection(
    instance: DiscreteInstance, target: TargetSet, lam: float, tie_in: float = 1.0
) -> Selection:
    """Pointwise maximizer of 1{x in A} + lam*x over each scenario.

    For lam > 0 a hit scenario takes its upper endpoint when the gap
    delta_plus exceeds 1/lam, and the in-target point a_plus when it is
    smaller; ties split a fraction ``tie_in`` of the weight onto the
    in-target choice.  Miss scenarios take the endpoint favoured by the
    sign of lam.  lam = 0 returns the hit-maximizing selection (every hit
    scenario inside A), the lam -> 0+ limit.
    """
    if not (0.0 <= tie_in <= 1.0):
        raise InputError("tie_in must lie in [0,1]")
    prof = gap_profile(instance, target)

    if lam == 0.0:
        value = np.where(prof.hit, prof.a_plus, instance.upper)
        return Selection(np.arange(instance.n), value, instance.weight.copy())

    if lam > 0.0:
        cutoff = 1.0 / lam if np.isfinite(lam) else 0.0
        gaps, inside, outside = prof.delta_plus, prof.a_plus, instance.upper
    else:
        cutoff = -1.0 / lam if np.isfinite(lam) else 0.0
        gaps, inside, outside = prof.delta_minus, prof.a_minus, instance.lower

    # miss scenarios have infinite gaps and never go in
    w = instance.weight
    go_in = w * np.where(gaps < cutoff, 1.0, tie_in * (gaps == cutoff))
    return Selection.from_cells(w, [(inside, go_in)], outside)


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
    box = aumann_interval(instance)
    if not box.contains(kappa, tol=1e-9 * max(1.0, abs(kappa))):
        raise KappaInfeasible(
            f"kappa={kappa} outside the mean range [{box.lo}, {box.hi}] "
            f"by {max(box.lo - kappa, kappa - box.hi):.3g}"
        )
    kappa = box.clip(kappa)
    prof = gap_profile(instance, target)
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


def _min_probability(instance: DiscreteInstance, target: TargetSet, kappa: float) -> float:
    """inf P(y in A) subject to the mean pin (value only).

    Scenarios flee the target through the nearest complement point.  When
    the mean forces some back inside, the cheapest re-entries per unit of
    probability are the LARGEST gaps, so the same greedy fill over mean
    costs runs through the gaps in descending order and the boundary
    scenario re-enters fractionally.  The infimum may be unattained
    (complement extremes are closure points); the value is still exact.
    """
    box = aumann_interval(instance)
    if not box.contains(kappa, tol=1e-9 * max(1.0, abs(kappa))):
        raise KappaInfeasible(f"kappa={kappa} outside [{box.lo}, {box.hi}]")
    kappa = box.clip(kappa)
    prof = gap_profile(instance, target)
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
    upper = calibrate_mean(instance, target, kappa).probability
    lower = _min_probability(instance, target, kappa)
    lower = min(lower, upper)  # guard float noise on degenerate instances
    return ClosedInterval(lower, upper)


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


def _refine_scalar(f, lo: float, hi: float, iters: int = 200) -> float:
    """Golden-section minimum of a convex scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd, f(0.5 * (a + b)))


def _minimize_convex(f) -> float:
    """Expanding-bracket + golden-section minimum over the real line.

    Doubles an edge only while the value strictly improves, then widens the
    final bracket one more doubling on each side: when f(2e) >= f(e) the
    convex minimum can still sit between e and 2e.
    """
    lo, hi = -1.0, 1.0
    f_lo, f_hi = f(lo), f(hi)
    best = min(f_lo, f_hi, f(0.0))
    for _ in range(60):
        grew = False
        if f(2.0 * lo) < f_lo - 1e-12 * max(1.0, abs(f_lo)):
            lo *= 2.0
            f_lo = f(lo)
            grew = True
        if f(2.0 * hi) < f_hi - 1e-12 * max(1.0, abs(f_hi)):
            hi *= 2.0
            f_hi = f(hi)
            grew = True
        best = min(best, f_lo, f_hi)
        if not grew:
            break
    return min(best, _refine_scalar(f, 2.0 * lo, 2.0 * hi))


@dataclass(frozen=True)
class DualEnvelope:
    upper: float
    lower: float


def dual_envelope(instance: DiscreteInstance, target: TargetSet, kappa: float) -> DualEnvelope:
    """Envelope values inf/sup over the multiplier of the dual objective.

    Each side is a convex scalar search: an expanding bracket followed by
    golden-section refinement.  Matches the primal bounds to about 1e-6 on
    step instances.
    """
    box = aumann_interval(instance)
    if not box.contains(kappa, tol=1e-9 * max(1.0, abs(kappa))):
        raise KappaInfeasible(f"kappa={kappa} outside [{box.lo}, {box.hi}]")
    kappa = box.clip(kappa)
    prof = gap_profile(instance, target)

    def upper_obj(lam):
        return _psi_mean(instance, prof, lam) - lam * kappa

    def lower_obj_neg(lam):
        return -(_phi_mean(instance, prof, lam) - lam * kappa)

    return DualEnvelope(
        upper=_minimize_convex(upper_obj), lower=-_minimize_convex(lower_obj_neg)
    )
