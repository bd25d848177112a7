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
scenario-aligned rows, the switched mass at its in-target point and the
rest at the endpoint, written in place into the blocks that
:meth:`Selection.from_cells` lays out.

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
from .benchmarks import Selection, _clip_kappa, _rest_row, _rows_mean, aumann_interval
from .rearrange import _fill_at, _fill_order, _sort_fill


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
    miss scenarios), formed on each read.  out_low / out_high are the
    infimum and supremum of Y minus A (+inf / -inf on contained scenarios);
    they are closure points and need not belong to Y minus A itself, and
    the partial scenarios re-enter A from them over the gaps of
    :meth:`_reentry`.  lower / upper are the instance's own endpoint arrays.
    """

    lower: np.ndarray
    upper: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    hit: np.ndarray
    contain: np.ndarray
    out_low: np.ndarray
    out_high: np.ndarray

    def _gap(self, above: bool, at=slice(None)):
        """delta_plus (``above``) or delta_minus at the scenarios ``at``: a
        miss's -inf a_plus or +inf a_minus makes its gap +inf."""
        if above:
            return np.maximum(self.upper[at] - self.a_plus[at], 0.0)
        return np.maximum(self.a_minus[at] - self.lower[at], 0.0)

    def _reentry(self, above: bool, at=slice(None)):
        """a_plus - out_high (``above``) or out_low - a_minus at the
        scenarios ``at``, floored at 0: the mean a partial scenario moves by
        leaving the complement's closure point for the target."""
        if above:
            return np.maximum(self.a_plus[at] - self.out_high[at], 0.0)
        return np.maximum(self.out_low[at] - self.a_minus[at], 0.0)

    @property
    def delta_plus(self) -> np.ndarray:
        return self._gap(True)

    @property
    def delta_minus(self) -> np.ndarray:
        return self._gap(False)


def gap_profile(instance: DiscreteInstance, target: TargetSet) -> GapProfile:
    """Exact interval-union intersection geometry, vectorized per piece."""
    lo, hi = instance.lower, instance.upper
    hit, contain = np.zeros(instance.n, dtype=bool), np.zeros(instance.n, dtype=bool)
    # complement extremes: where the endpoint sits inside a piece, the
    # nearest exit is that piece's far edge (a closure point).  Columns are
    # written in place: np.where holds a column twice, masked ufuncs are slow.
    a_plus, a_minus = np.full(instance.n, -np.inf), np.full(instance.n, np.inf)
    out_low, out_high, edge = lo.copy(), hi.copy(), np.empty(instance.n)
    for a, b in target.pieces:
        a_lo, lo_b, a_hi, hi_b = a <= lo, lo <= b, a <= hi, hi <= b
        meets = lo_b & a_hi
        hit |= meets
        np.putmask(a_minus, meets, np.minimum(a_minus, np.maximum(a, lo, out=edge), out=edge))
        np.putmask(a_plus, meets, np.maximum(a_plus, np.minimum(b, hi, out=edge), out=edge))
        contain |= a_lo & hi_b
        np.putmask(out_low, a_lo & lo_b, b)
        np.putmask(out_high, a_hi & hi_b, a)
        del a_lo, lo_b, a_hi, hi_b, meets   # freed before the next piece's masks are made
    np.putmask(out_low, contain, np.inf)
    np.putmask(out_high, contain, -np.inf)
    return GapProfile(lo, hi, a_plus, a_minus, hit, contain, out_low, out_high)


def unrestricted_prob_bounds(instance: DiscreteInstance, target: TargetSet) -> ClosedInterval:
    """[P(Y contained in A), P(Y hits A)]: the no-information bounds."""
    return _unrestricted(instance, gap_profile(instance, target))


def _unrestricted(instance: DiscreteInstance, prof: GapProfile) -> ClosedInterval:
    w = instance.weight
    return ClosedInterval(float(w.compress(prof.contain).sum()), float(w.compress(prof.hit).sum()))


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


def _engage(fill: _MeanFill, need: np.ndarray, instance: DiscreteInstance):
    """The fill at each mean shift of ``need``: (k, share, probability).

    The first k scenarios of the order engage whole and scenario k engages
    the fraction ``share`` of its weight that makes the shift exact; the
    probability is the engaged weight.  A zero shift engages only the free
    scenarios, and only then is ``share`` 0.  A shift beyond the reach by
    more than 1e-9 of it or of the instance's scale is infeasible.
    """
    top = float(need.max())
    # the scale is read only for a shift past the reach
    if top > fill.reach and top > fill.reach + 1e-9 * max(fill.reach, instance.magnitude()):
        raise KappaInfeasible("mean target outside the reachable range")
    mass = np.minimum(need, min(fill.reach, fill.cap))
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


def _span(instance: DiscreteInstance, prof: GapProfile, bound: str, out=None):
    """Values of the two selections whose means bound the slack span of U
    (``"sup"``: hit scenarios at a_minus and a_plus) or of L (``"inf"``:
    partial scenarios at out_low and out_high); the rest sit at their
    endpoints.  With ``out``, written into its two rows and returned."""
    if bound == "sup":
        on, low, high = prof.hit, prof.a_minus, prof.a_plus
    else:
        on, low, high = prof.hit & ~prof.contain, prof.out_low, prof.out_high
    if out is None:
        return np.where(on, low, instance.lower), np.where(on, high, instance.upper)
    for row, values, ends in zip(out, (low, high), (instance.lower, instance.upper)):
        np.copyto(row, ends)
        np.copyto(row, values, where=on)
    return out


def _regime_fill(instance: DiscreteInstance, prof: GapProfile, bound: str, above: bool):
    """The fill of U (``"sup"``) or L (``"inf"``) above or below its slack
    span, sorted once; the mean its shifts start from is the caller's.

    U starts from the upper endpoints and pulls hit scenarios down onto
    a_plus (above), or from the lower ones and pushes them up onto a_minus
    (below), cheapest gaps first.  L starts from the avoiding selection
    and lets partial scenarios re-enter through the largest gaps first:
    a_plus - out_high above, out_low - a_minus below.  The infimum may be
    unattained (complement extremes are closure points); its value is exact.
    The gaps, the sorted keys and the pool's costs are freed before the
    weights and indices are put in fill order: the peak is about 64 B per
    pool scenario, for 40 kept.
    """
    if bound == "sup":
        idx = np.flatnonzero(prof.hit)
        g = prof._gap(above, idx)
    else:
        idx = np.flatnonzero(prof.hit & ~prof.contain)
        g = prof._reentry(above, idx)
        pool = g > 0.0
        idx, g = idx.compress(pool), g.compress(pool)
        del pool
    w = instance.weight[idx]
    cost = g * w
    reach, cap, free = float(np.dot(g, w)), float(cost.sum()), int(np.count_nonzero(g == 0.0))
    if bound == "inf":
        np.negative(g, out=g)   # L engages the largest gaps first
    order, keys, sorted_cost, cum_cost = _sort_fill(g, cost)
    del g, keys, cost
    weight = w[order]
    del w
    index = idx[order]
    del idx, order
    return _MeanFill(index, weight, sorted_cost, cum_cost, np.cumsum(weight), reach, cap, free)


def _bound(instance: DiscreteInstance, prof: GapProfile, bound: str, kappas) -> np.ndarray:
    """U (``"sup"``) or L (``"inf"``) at each clipped kappa.

    Inside the slack span U counts every hit scenario and L only the
    contained ones.  Beyond it each kappa needs the mean shift |base -
    kappa| from its regime's fill, so one sort per regime and one
    ``searchsorted`` serve every kappa.  U's shifts start from E upper and
    E lower, L's from the span's own ends.
    """
    w = instance.weight
    lo, hi = (float(np.dot(w, v)) for v in _span(instance, prof, bound))
    slack = float(w.compress(prof.hit if bound == "sup" else prof.contain).sum())
    floor = 0.0 if bound == "sup" else slack   # L's contained mass always counts
    bases = (instance.mean_upper(), instance.mean_lower()) if bound == "sup" else (hi, lo)
    out = np.full(kappas.shape, slack)
    for side, at, base in zip((True, False), (kappas > hi, kappas < lo), bases):
        if at.any():
            fill = _regime_fill(instance, prof, bound, side)
            out[at] = floor + _engage(fill, np.abs(base - kappas[at]), instance)[2]
            del fill   # freed before the other side's fill is built
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
    lam, rows, prob = _calibrate(instance, prof, _clip_kappa(instance, kappa))
    return Calibration(lam, Selection._from_rows(instance.n, *rows), prob)


def _calibrate(instance: DiscreteInstance, prof: GapProfile, kappa: float):
    """:func:`calibrate_mean` on a built profile and a clipped kappa, from
    the fill that gives U, so its probability is U(kappa) exactly.  Returns
    lambda_star, the selection's value and subweight rows as
    :meth:`Selection.from_cells` lays them out for one cell (the cell's
    row first, then the rest's) and the probability.

    The rows are written straight into the two (2, n) blocks: the slack
    branch's span values are the value block, and a regime's blocks are
    built once its fill is freed."""
    w = instance.weight
    values = np.empty((2, instance.n))
    # the span's low selection is the rest's row, its high one the cell's
    low, high = _span(instance, prof, "sup", out=values[::-1])
    k_lo, k_hi = float(np.dot(w, low)), float(np.dot(w, high))

    if k_lo <= kappa <= k_hi:
        span = k_hi - k_lo
        tau = 0.0 if span <= 0.0 else (kappa - k_lo) / span
        prob = float(w.compress(prof.hit).sum())   # before the subweights: compress holds 16 B a row
        subweights = np.empty_like(values)
        np.multiply(w, tau, out=subweights[0])
        return 0.0, _rest_row(w, values, subweights), prob

    del values, low, high
    above = kappa > k_hi
    base = instance.mean_upper() if above else instance.mean_lower()
    fill = _regime_fill(instance, prof, "sup", above)
    (k,), (share,), (prob,) = _engage(fill, np.abs(base - np.array([kappa])), instance)
    subweights = np.zeros((2, instance.n))
    engaged = subweights[0]
    engaged[fill.index[:k]] = fill.weight[:k]
    lam = math.inf   # nothing moves: selections are endpoints
    if share > 0.0:
        edge = fill.index[k]
        engaged[edge] = fill.weight[k] * share
        gap = float(prof._gap(above, edge))
        lam = math.inf if gap == 0.0 else 1.0 / gap
    del fill, engaged
    values = np.empty_like(subweights)
    values[0], values[1] = (prof.a_plus, instance.upper) if above else (prof.a_minus, instance.lower)
    return (lam if above else -lam), _rest_row(w, values, subweights), float(prob)


def mean_restricted_prob_bounds(
    instance: DiscreteInstance, target: TargetSet, kappa: float
) -> ClosedInterval:
    """[L(kappa), U(kappa)]: probability range under the mean pin."""
    (lower,), (upper,) = _prob_bounds(instance, gap_profile(instance, target), [kappa])
    return ClosedInterval(float(lower), float(upper))


def _prob_bounds(instance: DiscreteInstance, prof: GapProfile, kappas):
    """L and U at every kappa of ``kappas``, from one profile and one
    sorted fill per regime that some kappa falls in.  Each entry depends
    only on its own kappa, so a batch equals its points bit for bit."""
    kappas = _clip_kappas(instance, kappas)
    upper = _bound(instance, prof, "sup", kappas)
    lower = np.minimum(_bound(instance, prof, "inf", kappas), upper)   # float noise guard
    return lower, upper


def _pin_at(instance: DiscreteInstance, prof: GapProfile, kappa: float):
    """[L(kappa), U(kappa)], and lambda_star and the selection mean of the
    calibration attaining U: U is the calibration's probability, from the
    fill :func:`_prob_bounds` would sort for it, and the mean is read
    from the calibration's two rows without building the selection's
    scenario column.  L's scratch is freed before those rows are built,
    so beside the instance and the profile the peak is the (2, n) value
    and subweight blocks, 32 B per scenario, and the copies of the kept
    rows where some row has zero weight."""
    kappa = _clip_kappa(instance, kappa)
    (lower,) = _bound(instance, prof, "inf", np.array([kappa]))
    lam, rows, upper = _calibrate(instance, prof, kappa)
    return ClosedInterval(min(float(lower), upper), upper), lam, _rows_mean(*rows)


def _clip_kappas(instance: DiscreteInstance, kappas) -> np.ndarray:
    """:func:`_clip_kappa` over a sequence; the first kappa outside the
    mean range beyond its tolerance raises its error."""
    values = np.asarray(kappas, dtype=float)
    box = aumann_interval(instance)
    for i in np.flatnonzero(~((box.lo <= values) & (values <= box.hi))):
        _clip_kappa(instance, kappas[i])
    return np.minimum(np.maximum(values, box.lo), box.hi)


# ---------------------------------------------------------------------------
# dual envelopes


def _psi_mean(instance: DiscreteInstance, prof: GapProfile, lam: float) -> float:
    """E of the per-scenario sup of 1{x in A} + lam*x over the interval."""
    if lam >= 0.0:
        out_side = lam * instance.upper
        in_side = np.where(prof.hit, prof.a_plus, 0.0)
    else:
        out_side = lam * instance.lower
        in_side = np.where(prof.hit, prof.a_minus, 0.0)
    in_side *= lam   # 1 + lam * anchor on hit scenarios, in place
    in_side += 1.0
    in_side[~prof.hit] = -np.inf
    return float(np.dot(instance.weight, np.maximum(out_side, in_side, out=out_side)))


def _phi_mean(instance: DiscreteInstance, prof: GapProfile, lam: float) -> float:
    """E of the per-scenario inf of 1{x in A} + lam*x over the interval.

    Contained scenarios have no escape and pay the indicator at the cheap
    endpoint; partial scenarios compare the best escape (a complement
    closure point) with the cheapest in-target point.
    """
    partial = prof.hit & ~prof.contain
    if lam >= 0.0:
        esc = np.where(partial, prof.out_low, instance.lower)
        inside = np.where(prof.hit, prof.a_minus, 0.0)
        cheap = instance.lower
    else:
        esc = np.where(partial, prof.out_high, instance.upper)
        inside = np.where(prof.hit, prof.a_plus, 0.0)
        cheap = instance.upper
    inside *= lam   # 1 + lam * anchor on hit scenarios, in place
    inside += 1.0
    inside[~prof.hit] = np.inf
    esc *= lam
    val = np.minimum(esc, inside, out=esc)
    val[prof.contain] = 1.0 + lam * cheap[prof.contain]
    return float(np.dot(instance.weight, val))


def _kink_argmin(w, left: float, right: float, gaps) -> float:
    """Least point of a convex piecewise-linear function of lam.

    Its slope is ``left`` just below 0 and ``right`` just above, and rises
    by w * g at lam = -1/g for each g in ``gaps(False)`` and at lam = 1/g
    for each g in ``gaps(True)``: the first kink, counted outward from 0,
    where the slope reaches 0 (the last one when rounding keeps it below).
    Only the side the minimum lies on is built.
    """
    if left <= 0.0 <= right:
        return 0.0
    start, side = (-left, -1.0) if left > 0.0 else (right, 1.0)
    gaps = gaps(side > 0.0)
    keep = gaps > 0.0
    if not keep.any():
        return 0.0
    order, desc = _fill_order(-gaps.compress(keep))
    desc = -desc   # the gaps, largest first
    slope = start + np.cumsum(w.compress(keep)[order] * desc)
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
    a_minus.  One sort each, and no call into the primal's greedy fill;
    each side is solved and evaluated before the other's scratch is built.
    """
    kappa = _clip_kappa(instance, kappa)
    w, hit = instance.weight, prof.hit
    hit_at = np.flatnonzero(hit)
    low, high = (float(np.dot(w, v)) for v in _span(instance, prof, "sup"))
    lam_u = _kink_argmin(w[hit_at], low - kappa, high - kappa, lambda up: prof._gap(up, hit_at))
    upper = _psi_mean(instance, prof, lam_u) - lam_u * kappa
    part = np.flatnonzero(hit & ~prof.contain)
    low, high = (float(np.dot(w, v)) for v in _span(instance, prof, "inf"))
    lam_l = _kink_argmin(w[part], kappa - high, kappa - low, lambda up: prof._reentry(not up, part))
    return DualEnvelope(upper, _phi_mean(instance, prof, lam_l) - lam_l * kappa, lam_u, lam_l)


def dual_envelope(instance: DiscreteInstance, target: TargetSet, kappa: float) -> DualEnvelope:
    """Envelope values inf/sup over the multiplier of the dual objective.

    Each multiplier is found exactly from the sorted kinks of the dual
    objective (the LP dual of a continuous knapsack), and the value is the
    objective there, so it equals the primal bounds to rounding at any
    scale of the data.
    """
    return _dual(instance, gap_profile(instance, target), kappa)
