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
costs.  The gap order does not depend on kappa, only the mass to fill
does, so each regime is sorted once and one ``searchsorted`` answers a
whole batch of kappas (:func:`_prob_bounds`).  Each such selection is two
scenario-aligned cells, the switched mass at its in-target point and the
rest at the endpoint, built by :meth:`Selection.from_cells`.

The same values admit a dual description as envelopes over a scalar
multiplier.  Each envelope is piecewise linear in the multiplier, so
:func:`dual_envelope` finds its optimum exactly at a sorted kink, the LP
dual of a continuous knapsack, without touching the greedy fill; dual =
primal to rounding is therefore an independent two-sided check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, KappaInfeasible
from .model import ClosedInterval, DiscreteInstance
from .benchmarks import Selection, _cells_mean, _clip_kappa, aumann_interval
from .rearrange import _fill_at, _fill_order, _sort_fill

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


class _MeanFill(NamedTuple):
    """One regime of a mean-pinned bound, its gaps sorted once: engaging
    scenario i shifts the mean by gap_i * w_i, so the cheapest engagements
    per unit of probability come in gap order."""

    index: np.ndarray       # pool scenarios in fill order
    weight: np.ndarray
    cost: np.ndarray        # gap * weight
    cum_cost: np.ndarray
    cum_weight: np.ndarray
    reach: float            # dot(gap, weight): the largest shift the pool buys
    cap: float              # sum of the costs, the fill's own clip
    free: int               # zero gaps: first in the order, engaged at no cost
    base: float             # the mean the shift starts from


def _engage(fill: _MeanFill, need: np.ndarray):
    """The fill at each mean shift of ``need``: (k, share, probability).

    The first k scenarios of the order engage whole and scenario k engages
    the fraction ``share`` of its weight that makes the shift exact; the
    probability is the engaged weight.  A shift within tolerance of zero
    engages only the free scenarios, and only then is ``share`` 0.
    """
    if need.max() > fill.reach + max(1e-9, 1e-9 * fill.reach):
        raise KappaInfeasible("mean target outside the reachable range")
    mass = np.minimum(need, min(fill.reach, fill.cap))
    mass[need <= _ATOL] = 0.0
    if fill.cost.size == 0:
        return np.zeros(mass.shape, dtype=int), np.zeros(mass.shape), np.zeros(mass.shape)
    k, frac = _fill_at(fill.cum_cost, mass)
    edge = fill.cost[k]
    share = np.divide(frac, edge, out=np.ones_like(frac), where=edge > 0.0)
    np.minimum(share, 1.0, out=share)
    prob = np.where(k > 0, fill.cum_weight[k - 1], 0.0) + fill.weight[k] * share
    still = mass == 0.0
    if still.any():
        k[still] = fill.free
        share[still] = 0.0
        prob[still] = fill.cum_weight[fill.free - 1] if fill.free else 0.0
    return k, share, prob


def _span(instance: DiscreteInstance, prof: GapProfile, bound: str):
    """Values of the two selections whose means bound the slack span of U
    (``"sup"``: hit scenarios at a_minus and a_plus) or of L (``"inf"``:
    partial scenarios at out_low and out_high); the rest sit at their
    endpoints."""
    if bound == "sup":
        on, low, high = prof.hit, prof.a_minus, prof.a_plus
    else:
        on, low, high = prof.hit & ~prof.contain, prof.out_low, prof.out_high
    return np.where(on, low, instance.lower), np.where(on, high, instance.upper)


def _regime_fill(instance: DiscreteInstance, prof: GapProfile, bound: str, above: bool, fills):
    """The fill of U (``"sup"``) or L (``"inf"``) above or below its slack
    span, sorted once; kept in ``fills`` when that is a dict.

    U starts from the upper endpoints and pulls hit scenarios down onto
    a_plus (above), or from the lower ones and pushes them up onto a_minus
    (below), cheapest gaps first.  L starts from the avoiding selection
    and lets partial scenarios re-enter through the largest gaps first:
    a_plus - out_high above, out_low - a_minus below.  The infimum may be
    unattained (complement extremes are closure points); its value is exact.
    """
    if fills is not None and (bound, above) in fills:
        return fills[bound, above]
    if bound == "sup":
        gaps, pool = (prof.delta_plus if above else prof.delta_minus), prof.hit
        base = instance.mean_upper() if above else instance.mean_lower()
    else:
        partial = prof.hit & ~prof.contain
        reentry = prof.a_plus - prof.out_high if above else prof.out_low - prof.a_minus
        gaps = np.where(partial, np.maximum(reentry, 0.0), 0.0)
        pool = partial & (gaps > 0.0)
        low, high = _span(instance, prof, "inf")
        base = float(np.dot(instance.weight, high if above else low))
    idx = np.flatnonzero(pool)
    g, w = gaps[idx], instance.weight[idx]
    cost = g * w
    order, _, sorted_cost, cum_cost = _sort_fill(-g if bound == "inf" else g, cost)
    weight = w[order]
    fill = _MeanFill(
        idx[order], weight, sorted_cost, cum_cost, np.cumsum(weight), float(np.dot(g, w)),
        float(cost.sum()), int(np.count_nonzero(g == 0.0)), base,
    )
    if fills is not None:
        fills[bound, above] = fill
    return fill


def _bound(instance: DiscreteInstance, prof: GapProfile, bound: str, kappas, fills) -> np.ndarray:
    """U (``"sup"``) or L (``"inf"``) at each clipped kappa.

    Inside the slack span (within tolerance) U counts every hit scenario
    and L only the contained ones.  Beyond it each kappa needs the mean
    shift |base - kappa| from its regime's fill, so one sort per regime
    and one ``searchsorted`` serve every kappa.
    """
    w = instance.weight
    lo, hi = (float(np.dot(w, v)) for v in _span(instance, prof, bound))
    slack = float(w[prof.hit if bound == "sup" else prof.contain].sum())
    floor = 0.0 if bound == "sup" else slack   # L's contained mass always counts
    out = np.full(kappas.shape, slack)
    inside = (lo - _ATOL <= kappas) & (kappas <= hi + _ATOL)
    if inside.all():
        return out
    above = ~inside & (kappas > hi)
    for side, at in ((True, above), (False, ~inside & ~above)):
        if at.any():
            fill = _regime_fill(instance, prof, bound, side, fills)
            out[at] = floor + _engage(fill, np.abs(fill.base - kappas[at]))[2]
    return out


def calibrate_mean(instance: DiscreteInstance, target: TargetSet, kappa: float) -> Calibration:
    """Probability-maximizing selection with mean exactly kappa.

    Beyond the slack span of the hit-maximizing selections, one greedy
    fill over mean costs engages hit scenarios in ascending gap order, each
    buying gap * weight of mean shift; the boundary scenario engages the
    fraction that makes the mean exact (boundary randomization).
    lambda_star is +-1 / gap of that scenario, 0 when slack, and +-inf at
    the mean extremes, where nothing moves and selections are endpoints.
    """
    prof = gap_profile(instance, target)
    lam, cells, prob = _calibrate(instance, prof, _clip_kappa(instance, kappa))
    return Calibration(lam, Selection.from_cells(*cells), prob)


def _calibrate(instance: DiscreteInstance, prof: GapProfile, kappa: float, fills=None):
    """:func:`calibrate_mean` on a built profile and a clipped kappa, from
    the fill that gives U, so its probability is U(kappa) exactly.  Returns
    lambda_star, the selection's arguments to :meth:`Selection.from_cells`
    and the probability."""
    w = instance.weight
    lo_vals, hi_vals = _span(instance, prof, "sup")
    k_lo = float(np.dot(w, lo_vals))
    k_hi = float(np.dot(w, hi_vals))

    if k_lo - _ATOL <= kappa <= k_hi + _ATOL:
        span = k_hi - k_lo
        tau = 0.0 if span <= 0.0 else min(max((kappa - k_lo) / span, 0.0), 1.0)
        return 0.0, (w, [(hi_vals, w * tau)], lo_vals), float(w[prof.hit].sum())

    above = kappa > k_hi
    fill = _regime_fill(instance, prof, "sup", above, fills)
    (k,), (share,), (prob,) = _engage(fill, np.abs(fill.base - np.array([kappa])))
    engaged = np.zeros(instance.n)
    engaged[fill.index[:k]] = fill.weight[:k]
    lam = math.inf   # nothing moves: selections are endpoints
    if share > 0.0:
        edge = fill.index[k]
        engaged[edge] = fill.weight[k] * share
        gap = float((prof.delta_plus if above else prof.delta_minus)[edge])
        lam = math.inf if gap == 0.0 else 1.0 / gap
    if above:
        return lam, (w, [(prof.a_plus, engaged)], instance.upper), float(prob)
    return -lam, (w, [(prof.a_minus, engaged)], instance.lower), float(prob)


def mean_restricted_prob_bounds(
    instance: DiscreteInstance, target: TargetSet, kappa: float
) -> ClosedInterval:
    """[L(kappa), U(kappa)]: probability range under the mean pin."""
    (lower,), (upper,) = _prob_bounds(instance, gap_profile(instance, target), [kappa])
    return ClosedInterval(float(lower), float(upper))


def _prob_bounds(instance: DiscreteInstance, prof: GapProfile, kappas, fills=None):
    """L and U at every kappa of ``kappas``, from one profile and one
    sorted fill per regime that some kappa falls in.  Each entry depends
    only on its own kappa, so a batch equals its points bit for bit.
    ``fills``, a dict, keeps the sorted fills for :func:`_calibrate`."""
    kappas = _clip_kappas(instance, kappas)
    upper = _bound(instance, prof, "sup", kappas, fills)
    lower = np.minimum(_bound(instance, prof, "inf", kappas, fills), upper)   # float noise guard
    return lower, upper


def _pin_at(instance: DiscreteInstance, prof: GapProfile, kappa: float):
    """[L(kappa), U(kappa)], and lambda_star and the selection mean of the
    calibration attaining U, all read from one sorted fill per regime; the
    mean is read without building the selection's scenario column."""
    fills: dict = {}
    (lower,), (upper,) = _prob_bounds(instance, prof, [kappa], fills)
    lam, cells, _ = _calibrate(instance, prof, _clip_kappa(instance, kappa), fills)
    return ClosedInterval(float(lower), float(upper)), lam, _cells_mean(*cells)


def _clip_kappas(instance: DiscreteInstance, kappas) -> np.ndarray:
    """:func:`_clip_kappa` over a sequence; the first kappa outside the
    mean range raises its error."""
    values = np.asarray(kappas, dtype=float)
    box = aumann_interval(instance)
    tol = 1e-9 * np.maximum(1.0, np.abs(values))
    inside = (box.lo - tol <= values) & (values <= box.hi + tol)
    if not inside.all():
        _clip_kappa(instance, kappas[int(np.argmin(inside))])
    return np.minimum(np.maximum(values, box.lo), box.hi)


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
    order, desc = _fill_order(-gaps[keep])
    desc = -desc   # the gaps, largest first
    slope = start + np.cumsum(w[keep][order] * desc)
    return side / float(desc[min(int(np.searchsorted(slope, 0.0)), desc.size - 1)])


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
