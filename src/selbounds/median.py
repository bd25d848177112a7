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
from .rearrange import _greedy_fill
from .benchmarks import Selection

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
    u_gaps: np.ndarray   # upper - m on the contact set
    l_gaps: np.ndarray   # m - lower on the contact set
    feasible: bool


def partition(instance: DiscreteInstance, m: float) -> MedianPartition:
    """Exact partition at m (strict outer inequalities, weak contact)."""
    below = instance.upper < m
    above = instance.lower > m
    contact = ~(below | above)
    p_minus = float(instance.weight[below].sum())
    p_plus = float(instance.weight[above].sum())
    p0 = float(instance.weight[contact].sum())
    ci = np.flatnonzero(contact)
    return MedianPartition(
        m=m,
        contact=ci,
        p_minus=p_minus,
        p_plus=p_plus,
        p0=p0,
        alpha_minus=max(0.5 - p_minus, 0.0),
        alpha_plus=max(0.5 - p_plus, 0.0),
        u_gaps=instance.upper[ci] - m,
        l_gaps=m - instance.lower[ci],
        feasible=(p_minus <= 0.5 + _ATOL and p_plus <= 0.5 + _ATOL),
    )


def _require_feasible(part: MedianPartition) -> None:
    if not part.feasible:
        side = "p_minus" if part.p_minus > 0.5 + _ATOL else "p_plus"
        val = part.p_minus if side == "p_minus" else part.p_plus
        raise InfeasibleMedian(
            f"median m={part.m} infeasible: {side}={val:.12g} exceeds 1/2 "
            f"by {val - 0.5:.3g}",
        )


def _pivot_fill(instance: DiscreteInstance, part: MedianPartition, need: float, side: str):
    """Least-gap fill of the contact set at the pivot, for one side.

    side="max" caps the cheapest gaps upper - pivot for the mass that
    ``need`` at or below the pivot lacks after p_minus; side="min" lifts the
    cheapest gaps pivot - lower for the mass ``need`` at or above it lacks
    after p_plus.  Returns (mass, cost, taken): the filled mass, which is
    the slope of E_max (E_min) in the pivot between scenario endpoints, the
    cost that E upper loses (E lower gains), and each scenario's pivot mass.
    """
    outside, gaps = (part.p_minus, part.u_gaps) if side == "max" else (part.p_plus, part.l_gaps)
    mass = min(max(need - outside, 0.0), part.p0)
    taken = np.zeros(instance.n)
    if mass == 0.0:
        return mass, 0.0, taken
    w = instance.weight[part.contact]
    order, k, frac, cost = _greedy_fill(gaps, w, mass)
    taken[part.contact[order[:k]]] = w[order[:k]]
    taken[part.contact[order[k]]] = frac   # the boundary scenario's filled fraction
    return mass, cost, taken


def _pivot_interval(instance: DiscreteInstance, part: MedianPartition, below: float, above: float):
    e_hi = instance.mean_upper() - _pivot_fill(instance, part, below, "max")[1]
    e_lo = instance.mean_lower() + _pivot_fill(instance, part, above, "min")[1]
    return ClosedInterval(e_lo, e_hi)


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
    _require_feasible(part)
    return _pivot_interval(instance, part, 0.5, 0.5)


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
    taken = _pivot_fill(instance, part, 0.5, side)[2]
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
    t_hi = _pivot_fill(instance, part, 0.5, "max")[2]
    t_lo = _pivot_fill(instance, part, 0.5, "min")[2]

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
    low = _marginal(instance, "lower")
    high = _marginal(instance, "upper")
    m_l = low.quantile(0.5)
    m_u = high.quantile(0.5)
    m = _check_span(m, m_l, m_u)
    s_lower = low.integrate_cdf_offset(m_l, m, 0.5)
    s_upper = -high.integrate_cdf_offset(m, m_u, 0.5)
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
