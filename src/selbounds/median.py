"""Mean bounds under a known median, with attaining selections.

Knowing that some admissible selection has median m forces enough mass to
sit on each side of m; the cheapest way to comply reshapes the extreme
selections only on the contact set {lower <= m <= upper}, and the exact
price is a partial quantile integral of the gaps upper - m (for the upper
endpoint) and m - lower (for the lower endpoint).  The same machinery with
mass levels (alpha, 1 - alpha) instead of (1/2, 1/2) handles a general
fixed-quantile restriction; see :mod:`selbounds.extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMedian, InputError, MOutsideMedianSpan
from .laws import Law
from .model import ClosedInterval, DiscreteInstance, _marginal
from .rearrange import _fill_order, _fill_value, _greedy_fill, _tie_runs
from .benchmarks import Selection, median_benchmark

_ATOL = 1e-12


@dataclass(frozen=True)
class MedianPartition:
    """Partition of an instance at pivot m, with the mass shortfalls.

    contact holds the scenario indices of {lower <= m <= upper}, and
    p_minus / p_plus the masses of {upper < m} and {lower > m}; the
    shortfalls are the extra masses the contact set must supply at or
    below m (alpha_minus) and at or above m (alpha_plus) for m to be a
    median.
    """

    m: float
    contact: np.ndarray
    p_minus: float
    p_plus: float
    p0: float
    alpha_minus: float
    alpha_plus: float
    feasible: bool


def partition(instance: DiscreteInstance, m: float) -> MedianPartition:
    """Exact partition at m (strict outer inequalities, weak contact)."""
    below = instance.upper < m
    above = instance.lower > m
    ci = np.flatnonzero(~(below | above))
    # compress and take: a boolean index's elements and order at a third of its cost
    p_minus = float(instance.weight.compress(below).sum())
    p_plus = float(instance.weight.compress(above).sum())
    p0 = float(instance.weight[ci].sum())
    return MedianPartition(
        m=m,
        contact=ci,
        p_minus=p_minus,
        p_plus=p_plus,
        p0=p0,
        alpha_minus=max(0.5 - p_minus, 0.0),
        alpha_plus=max(0.5 - p_plus, 0.0),
        feasible=(p_minus <= 0.5 + _ATOL and p_plus <= 0.5 + _ATOL),
    )


def _require_feasible(part: MedianPartition) -> MedianPartition:
    """``part``, if its pivot can be a median; else InfeasibleMedian."""
    if not part.feasible:
        side = "p_minus" if part.p_minus > 0.5 + _ATOL else "p_plus"
        val = part.p_minus if side == "p_minus" else part.p_plus
        raise InfeasibleMedian(
            f"median m={part.m} infeasible: {side}={val:.12g} exceeds 1/2 "
            f"by {val - 0.5:.3g}",
        )
    return part


def _pivot_fill(instance: DiscreteInstance, part: MedianPartition, need: float, side: str, base: float):
    """One endpoint of the pivot-restricted mean range, from one least-gap fill.

    side="max" caps the cheapest gaps upper - pivot for the mass ``need``
    at or below the pivot lacks after p_minus, below ``base`` = E upper;
    side="min" lifts the cheapest gaps pivot - lower for the mass ``need``
    at or above it lacks after p_plus, above ``base`` = E lower.  Returns
    the endpoint, its slope between scenario endpoints (the filled mass)
    and the fill (order, k, frac on the contact set; None when empty),
    which only the selections scatter (:func:`_pivot_mass`).  Each call
    sorts its contact gaps; a curve of many pivots fills from one presort
    instead (:func:`_pivot_curve`).
    """
    ci = part.contact
    mass = min(max(need - (part.p_minus if side == "max" else part.p_plus), 0.0), part.p0)
    cost, fill = 0.0, None
    if mass > 0.0:
        gaps = instance.upper[ci] - part.m if side == "max" else part.m - instance.lower[ci]
        *fill, cost = _greedy_fill(gaps, instance.weight[ci], mass)
    return (base - cost if side == "max" else base + cost), mass, fill


def _pivot_mass(instance: DiscreteInstance, part: MedianPartition, side: str) -> np.ndarray:
    """Each scenario's mass at the pivot in the extremal selection of ``side``."""
    taken = np.zeros(instance.n)
    fill = _pivot_fill(instance, part, 0.5, side, 0.0)[2]
    if fill is not None:
        order, k, frac = fill
        whole = part.contact[order[:k]]
        taken[whole] = instance.weight[whole]
        taken[part.contact[order[k]]] = frac   # the boundary scenario's filled fraction
    return taken


def _pivot_interval(instance: DiscreteInstance, part: MedianPartition, below: float, above: float):
    e_hi = _pivot_fill(instance, part, below, "max", instance.mean_upper())[0]
    e_lo = _pivot_fill(instance, part, above, "min", instance.mean_lower())[0]
    return ClosedInterval(e_lo, e_hi)


def _pivot_curve(instance: DiscreteInstance, parts, below_need: float, above_need: float):
    """:func:`_pivot_interval` at many pivots, bit for bit, from one presort
    per side: the intervals, in the order of ``parts``.

    ``parts`` yields the partitions at the pivots and is read once; only
    their pivots and masses are kept, not their contact sets.  Each side
    is then filled at every pivot from one sort of the scenarios
    (:func:`_presorted_fills`), and only one side's sort is alive at a
    time.  A presort costs more than one point query saves (at 200k
    scenarios a batch of one took about 23 ms of CPU, a point query
    about 6 ms, best of 7 on 2 shared CPUs), so the point functions keep
    their contact sorts.
    """
    masses = [(part.m, part.p_minus, part.p_plus, part.p0) for part in parts]
    e_hi = _presorted_fills(instance, masses, below_need, "max")
    e_lo = _presorted_fills(instance, masses, above_need, "min")
    return [ClosedInterval(lo, hi) for lo, hi in zip(e_lo, e_hi)]


def _presorted_fills(instance: DiscreteInstance, masses, need: float, side: str):
    """E_max (side="max") or E_min at every pivot of ``masses``, rows of
    (pivot, p_minus, p_plus, p0), as :func:`_pivot_fill` gives it, from
    one sort of the scenarios in fill order (:func:`_fill_order`:
    ascending, ties by scenario index).

    The sort key is ``upper`` ascending for the max side and ``lower``
    descending for the min side, signed so that both ascend; with the
    other endpoint along, a pivot's contact set is a suffix of the order
    (one ``searchsorted``) filtered by the other endpoint, and its gaps
    come out ascending.  Runs of equal gaps, from equal keys or from
    distinct keys whose gaps round alike, get their ties put back in
    scenario order (:func:`_tie_runs`), as the point fill orders them.
    """
    sign, ends, others = (1.0, instance.upper, instance.lower) if side == "max" else (
        -1.0, instance.lower, instance.upper)
    order, keys = _fill_order(sign * ends)
    others = sign * others[order]
    weights = instance.weight[order]
    base = instance.mean_upper() if side == "max" else instance.mean_lower()
    out = []
    for q, p_minus, p_plus, p0 in masses:
        mass = min(max(need - (p_minus if side == "max" else p_plus), 0.0), p0)
        cost = 0.0
        if mass > 0.0:
            sq = sign * q
            tail = slice(int(np.searchsorted(keys, sq)), None)
            at = np.flatnonzero(others[tail] <= sq)
            gaps = keys[tail][at]
            gaps -= sq   # upper - q, or -lower + q = q - lower to the bit
            w = weights[tail][at]
            ties = _tie_runs(gaps, lambda pos: order[tail][at[pos]], instance.n)
            if ties is not None:
                pos, key = ties
                gaps[pos] = sign * ends[key] - sq   # -0.0 and 0.0 tie but differ in bits
                w[pos] = instance.weight[key]
            cost = _fill_value(gaps, w, mass)[2]
        out.append(base - cost if side == "max" else base + cost)
    return out


def pivot_mean_interval(
    instance: DiscreteInstance, pivot: float, below_need: float, above_need: float
) -> ClosedInterval:
    """Mean range when mass >= below_need must sit at or below the pivot
    and mass >= above_need at or above it.

    The upper endpoint caps the cheapest contact gaps upper - pivot; the
    lower endpoint raises the cheapest gaps pivot - lower.  Shared by the
    median case (1/2, 1/2) and the general quantile case (alpha, 1-alpha).
    """
    return _pivot_interval(instance, partition(instance, pivot), below_need, above_need)


def median_restricted_mean_interval(instance: DiscreteInstance, m: float) -> ClosedInterval:
    """[E_min(m), E_max(m)] over selections with median m.

    Infeasible when either outer region already carries more than half the
    mass.  When the contact set is empty but the restriction is feasible
    (both outer masses exactly 1/2), the range is the whole unrestricted
    mean interval.
    """
    return _median_interval(instance, partition(instance, m))


def _median_interval(instance: DiscreteInstance, part: MedianPartition) -> ClosedInterval:
    """:func:`median_restricted_mean_interval` on a built partition."""
    return _pivot_interval(instance, _require_feasible(part), 0.5, 0.5)


def _median_curve(instance: DiscreteInstance, pivots) -> list[ClosedInterval]:
    """:func:`median_restricted_mean_interval` at every pivot, bit for bit:
    the first infeasible pivot raises its error."""
    parts = (_require_feasible(partition(instance, float(m))) for m in pivots)
    return _pivot_curve(instance, parts, 0.5, 0.5)


def extremal_selection(instance: DiscreteInstance, m: float, side: str) -> Selection:
    """Selection attaining an endpoint of the median-restricted mean range.

    side="max": value m on the least-gap contact subset of mass
    alpha_minus, upper endpoint everywhere else.  side="min" mirrors with
    the lower endpoint.  The binding median inequality holds with mass
    exactly 1/2.
    """
    if side not in ("max", "min"):
        raise InputError(f"side must be 'max' or 'min', got {side!r}")
    part = partition(instance, m)
    _require_feasible(part)
    base_values = instance.upper if side == "max" else instance.lower
    taken = _pivot_mass(instance, part, side)
    return Selection.from_cells(instance.weight, [(float(m), taken)], base_values)


def mixed_selection(instance: DiscreteInstance, m: float, theta: float) -> Selection:
    """Pointwise convex combination of the two extremal selections.

    Each extremal selection gives a scenario its pivot mass at m first and
    the rest at its endpoint.  Aligned that way, a scenario splits into at
    most three cells: both selections at m, one at m and the other at its
    endpoint, and both at their endpoints.  Each cell takes the theta-blend
    of the two values, so the mix is again a valid selection whose mean
    interpolates the endpoint means linearly in theta and whose median
    still contains m.
    """
    if not (0.0 <= theta <= 1.0):
        raise InputError(f"theta must lie in [0,1], got {theta}")
    part = partition(instance, m)
    _require_feasible(part)
    m = float(m)
    t_hi = _pivot_mass(instance, part, "max")
    t_lo = _pivot_mass(instance, part, "min")

    def blend(v_hi, v_lo):
        # equal cell values (both at the pivot) must survive exactly
        return np.where(v_hi == v_lo, v_hi, theta * v_hi + (1.0 - theta) * v_lo)

    lower, upper = instance.lower, instance.upper
    one_at_m = np.where(t_hi > t_lo, blend(m, lower), blend(upper, m))
    return Selection.from_cells(
        instance.weight,
        [(m, np.minimum(t_hi, t_lo)), (one_at_m, np.abs(t_hi - t_lo))],
        blend(upper, lower),
    )


@dataclass(frozen=True)
class CostTerms:
    """Marginal-CDF cost terms and the mean interval they imply."""

    s_lower: float
    s_upper: float
    implied: ClosedInterval


def marginal_cost_terms(instance: DiscreteInstance, m: float) -> CostTerms:
    """Cost terms from the marginal CDFs, by exact step integration.

    s_lower integrates (F_lower - 1/2) from the lower-marginal median to m;
    s_upper integrates (1/2 - F_upper) from m to the upper-marginal median.
    Valid when m lies between the two marginal medians.
    """
    span = median_benchmark(instance)
    m_l, m_u = span.lo, span.hi
    m = _check_span(m, m_l, m_u)
    s_lower = _marginal(instance, "lower").integrate_cdf_offset(m_l, m, 0.5)
    s_upper = -_marginal(instance, "upper").integrate_cdf_offset(m, m_u, 0.5)
    implied = ClosedInterval(instance.mean_lower() + s_lower, instance.mean_upper() - s_upper)
    return CostTerms(s_lower, s_upper, implied)


def marginal_cost_terms_parametric(lower_law: Law, upper_law: Law, m: float) -> CostTerms:
    """Same cost terms for parametric marginals, by adaptive quadrature to 1e-8."""
    m_l = float(np.asarray(lower_law.ppf(np.array([0.5])))[0])
    m_u = float(np.asarray(upper_law.ppf(np.array([0.5])))[0])
    m = _check_span(m, m_l, m_u)
    s_lower = _adaptive_simpson(lambda t: float(lower_law.cdf(t)) - 0.5, m_l, m, 1e-8)
    s_upper = _adaptive_simpson(lambda t: 0.5 - float(upper_law.cdf(t)), m, m_u, 1e-8)
    implied = ClosedInterval(lower_law.mean() + s_lower, upper_law.mean() - s_upper)
    return CostTerms(s_lower, s_upper, implied)


def _check_span(m: float, m_l: float, m_u: float) -> float:
    """m clipped into [m_l, m_u]; raises when it lies outside by more than 1e-9 relative."""
    tol = 1e-9 * max(1.0, abs(m_l), abs(m_u))
    if not (m_l - tol <= m <= m_u + tol):
        raise MOutsideMedianSpan(
            f"m={m} outside the marginal median span [{m_l}, {m_u}]"
        )
    return min(max(m, m_l), m_u)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    if b <= a:
        return 0.0

    def simpson(x0, x2, f0, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f2, whole, eps, depth):
        x1, f1, _ = simpson(x0, x2, f0, f2)
        _, _, left = simpson(x0, x1, f0, f1)
        _, _, right = simpson(x1, x2, f1, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, f1, left, eps / 2.0, depth - 1) + recurse(
            x1, x2, f1, f2, right, eps / 2.0, depth - 1
        )

    f0, f2 = f(a), f(b)
    _, _, whole = simpson(a, b, f0, f2)
    return recurse(a, b, f0, f2, whole, tol, 48)
