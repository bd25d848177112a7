"""Exhaustive ground truth on small instances.

Every closed-form bound in this package is validated against the functions
here, which never sort by gaps or solve dual problems: they enumerate raw
configurations.  The enumeration is exact because each extremal problem is
linear in the per-scenario law once supports are fixed, so some optimum
has at most one scenario splitting its weight between two candidate
values (a basic solution of a one-constraint program).  Enumeration is
over all full-candidate configurations plus all single-scenario fractional
relaxations, vectorized with numpy.  The moment oracle instead builds the
reachable (mean, moment) polygon of selections on fine per-scenario grids.

These functions are a test authority, not a production path; they refuse
instances beyond desk scale.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InfeasibleMedian,
    InfeasibleQuantile,
    InstanceTooLarge,
    InvalidPower,
    KappaInfeasible,
    NoFeasibleSelection,
)
from .model import ClosedInterval, DiscreteInstance
from .events import TargetSet, gap_profile

_ATOL = 1e-12


def _subsets(k: int) -> np.ndarray:
    """All subsets of {0..k-1} as a (2^k, k) boolean matrix."""
    ids = np.arange(1 << k, dtype=np.uint32)
    return ((ids[:, None] >> np.arange(k)) & 1).astype(bool)


# ---------------------------------------------------------------------------
# pivot (median / quantile) restricted means


def _pivot_bounds(instance: DiscreteInstance, pivot: float, alpha: float, err):
    """Exhaustive mean bounds under: P(y <= pivot) >= alpha and
    P(y < pivot) <= alpha (the closure of the strict constraint).

    Max side: outer scenarios take their upper endpoint; every subset of
    the contact set may be capped at the pivot, plus one fractional cap.
    Min side mirrors with lower endpoints and lifted subsets.
    """
    if instance.n > 12:
        raise InstanceTooLarge("exhaustive pivot oracle limited to 12 scenarios")
    l, u, w = instance.lower, instance.upper, instance.weight
    below = u < pivot
    above = l > pivot
    contact = ~(below | above)
    p_minus = float(w[below].sum())
    p_plus = float(w[above].sum())
    ci = np.flatnonzero(contact)
    k = ci.size
    S = _subsets(k)
    wc = w[ci]

    # forced-mass necessary conditions: every selection puts at least
    # p_minus strictly below the pivot and at most 1 - p_plus at or below
    if p_minus > alpha + _ATOL or 1.0 - p_plus < alpha - _ATOL:
        raise err

    # ---- max side: capped contact scenarios carry their weight at the pivot
    at_most = p_minus + S @ wc
    cap_cost = S @ (wc * (u[ci] - pivot))
    best_max = -np.inf
    feasible_max = at_most >= alpha - _ATOL
    if np.any(feasible_max):
        best_max = float(np.max(instance.mean_upper() - cap_cost[feasible_max]))
    for j in range(k):
        free = ~S[:, j]
        need = alpha - at_most[free]
        phi = need / wc[j]
        ok = (phi > 0.0) & (phi <= 1.0 + _ATOL)
        if np.any(ok):
            cand = instance.mean_upper() - cap_cost[free][ok] - np.minimum(phi[ok], 1.0) * wc[j] * (
                u[ci][j] - pivot
            )
            best_max = max(best_max, float(np.max(cand)))

    # ---- min side: P(y < pivot) <= alpha; lifting a contact scenario to
    # the pivot removes its strictly-below mass (zero-cost when lower == pivot)
    strictly_below = wc * (l[ci] < pivot)
    lift_cost = S @ (wc * (pivot - l[ci]))
    below_mass = p_minus + strictly_below.sum() - S @ strictly_below
    best_min = np.inf
    feasible_min = below_mass <= alpha + _ATOL
    if np.any(feasible_min):
        best_min = float(np.min(instance.mean_lower() + lift_cost[feasible_min]))
    for j in range(k):
        free = ~S[:, j]
        if strictly_below[j] <= 0.0:
            continue
        phi = (below_mass[free] - alpha) / strictly_below[j]
        ok = (phi > 0.0) & (phi <= 1.0 + _ATOL)
        if np.any(ok):
            cand = instance.mean_lower() + lift_cost[free][ok] + np.minimum(phi[ok], 1.0) * wc[j] * (
                pivot - l[ci][j]
            )
            best_min = min(best_min, float(np.min(cand)))

    if not np.isfinite(best_max) or not np.isfinite(best_min):
        raise err
    return ClosedInterval(best_min, best_max)


def exact_median_mean_bounds(instance: DiscreteInstance, m: float) -> ClosedInterval:
    """Brute-force mean range over selections with median m (<= 12 scenarios)."""
    err = InfeasibleMedian(f"no selection has median {m}")
    return _pivot_bounds(instance, m, 0.5, err)


def exact_quantile_mean_bounds(
    instance: DiscreteInstance, alpha: float, q: float
) -> ClosedInterval:
    """Brute-force mean range over selections with alpha-quantile q."""
    err = InfeasibleQuantile(f"no selection attains quantile {q} at level {alpha}")
    return _pivot_bounds(instance, q, alpha, err)


# ---------------------------------------------------------------------------
# mean-restricted event probabilities


def _candidates_for_prob(instance, prof, target, mesh):
    """Per-scenario (value, hit) candidate pairs for the probability LP."""
    out = []
    for i in range(instance.n):
        cands = []
        lo, hi = instance.lower[i], instance.upper[i]
        if prof.hit[i]:
            cands.append((float(prof.a_minus[i]), 1.0))
            cands.append((float(prof.a_plus[i]), 1.0))
        if not prof.contain[i]:
            # complement candidates; closure points may lie inside the
            # target but carry probability 0 (limits of escaping values)
            cands.append((float(np.clip(prof.out_low[i], lo, hi)), 0.0))
            cands.append((float(np.clip(prof.out_high[i], lo, hi)), 0.0))
        if mesh > 0:
            for x in np.linspace(lo, hi, mesh + 2):
                cands.append((float(x), 1.0 if target.contains(float(x)) else 0.0))
        dedup = sorted(set(cands))
        out.append(dedup)
    return out


def exact_prob_bounds(
    instance: DiscreteInstance, target: TargetSet, kappa: float, mesh: int = 0
) -> ClosedInterval:
    """Brute-force range of P(y in A) under the mean pin (<= 8 scenarios).

    Candidates per scenario are the extreme points of its in-target and
    out-of-target value sets plus an optional uniform mesh; all full
    configurations and all one-scenario fractional relaxations are
    enumerated.
    """
    if instance.n > 8:
        raise InstanceTooLarge("exhaustive probability oracle limited to 8 scenarios")
    lo_mean = instance.mean_lower()
    hi_mean = instance.mean_upper()
    slack = 1e-9 * max(1.0, abs(kappa))
    if not (lo_mean - slack <= kappa <= hi_mean + slack):
        raise KappaInfeasible(f"kappa={kappa} outside [{lo_mean}, {hi_mean}]")
    kappa = min(max(kappa, lo_mean), hi_mean)

    prof = gap_profile(instance, target)
    cands = _candidates_for_prob(instance, prof, target, mesh)
    n = instance.n
    w = instance.weight

    shape = tuple(len(c) for c in cands)
    mean_grid = np.zeros(shape)
    prob_grid = np.zeros(shape)
    for i, ci in enumerate(cands):
        dims = [1] * n
        dims[i] = len(ci)
        vals = np.array([v for v, _ in ci]).reshape(dims)
        hits = np.array([h for _, h in ci]).reshape(dims)
        mean_grid = mean_grid + w[i] * vals
        prob_grid = prob_grid + w[i] * hits

    best_hi = -np.inf
    best_lo = np.inf
    exact = np.abs(mean_grid - kappa) <= 1e-9 * max(1.0, abs(kappa))
    if np.any(exact):
        best_hi = float(prob_grid[exact].max())
        best_lo = float(prob_grid[exact].min())

    for i, ci in enumerate(cands):
        # collapse scenario i: partial sums over the other scenarios
        sel = [slice(None)] * n
        sel[i] = 0
        v0, h0 = ci[0]
        mean_rest = mean_grid[tuple(sel)] - w[i] * v0
        prob_rest = prob_grid[tuple(sel)] - w[i] * h0
        for a in range(len(ci)):
            va, ha = ci[a]
            for b in range(a + 1, len(ci)):
                vb, hb = ci[b]
                if vb == va:
                    continue
                theta = (kappa - mean_rest - w[i] * vb) / (w[i] * (va - vb))
                ok = (theta >= -_ATOL) & (theta <= 1.0 + _ATOL)
                if np.any(ok):
                    th = np.clip(theta[ok], 0.0, 1.0)
                    p = prob_rest[ok] + w[i] * (th * ha + (1.0 - th) * hb)
                    best_hi = max(best_hi, float(p.max()))
                    best_lo = min(best_lo, float(p.min()))

    if not np.isfinite(best_hi):
        raise NoFeasibleSelection("no candidate configuration matches the mean")
    return ClosedInterval(max(best_lo, 0.0), min(best_hi, 1.0))


# ---------------------------------------------------------------------------
# moment-restricted means


_GRID = 2001   # points per scenario in each of the two moment-oracle grids


def _grid_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Convex hull of the points (x[k], y[k]) with x strictly increasing.

    Andrew's monotone chain; the vertices run counterclockwise from the
    leftmost point, and a single point is its own hull.
    """
    pts = list(zip(x.tolist(), y.tolist()))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) <= (
                out[-1][1] - out[-2][1]
            ) * (p[0] - out[-2][0]):
                out.pop()
            out.append(p)
        return out

    return np.array(chain(pts)[:-1] + chain(pts[::-1])[:-1] or pts[:1])


def exact_moment_mean_bounds(instance: DiscreteInstance, r: float, mu_r: float) -> ClosedInterval:
    """Mean range under E[y^r] = mu_r over selections on per-scenario grids
    (<= 6 scenarios).

    The (E y, E y^r) pairs one scenario reaches on its grid form the convex
    hull of its curve points (x, x^r); the whole instance reaches their
    weighted Minkowski sum, a convex polygon built from the sum of each
    hull's leftmost vertex and all hull edges sorted by direction.  The
    bounds are where the line E y^r = mu_r crosses that polygon.  Each
    scenario carries two grids of ``_GRID`` points, one uniform in x and
    one uniform in x^r (the second keeps r < 1 accurate near 0).

    Every reported value is attained by a selection supported on the grid
    points, so the interval lies inside the exact one.  Between adjacent
    grid points the monotone curve stays inside their cell, so the polygon
    is within Hausdorff distance sum_i w_i d_i of the exact reachable set,
    d_i the largest cell diagonal of scenario i.
    """
    if instance.n > 6:
        raise InstanceTooLarge("exhaustive moment oracle limited to 6 scenarios")
    odd = float(r).is_integer() and int(r) % 2 == 1
    if not (r > 0 and (odd or float(instance.lower.min()) >= -_ATOL)):
        raise InvalidPower(f"power r={r} invalid for this instance")

    def powr(x):
        if odd:
            return np.sign(x) * np.abs(x) ** int(r)
        return np.power(np.maximum(x, 0.0), r)

    start, edges = np.zeros(2), []
    for lo, hi, w in zip(instance.lower, instance.upper, instance.weight):
        image = np.linspace(*powr(np.array([lo, hi])), _GRID)
        roots = np.sign(image) * np.abs(image) ** (1.0 / r)
        grid = np.unique(np.clip(np.concatenate([np.linspace(lo, hi, _GRID), roots]), lo, hi))
        hull = _grid_hull(grid, powr(grid))
        start += w * hull[0]
        edges.append(w * (np.roll(hull, -1, axis=0) - hull))
    edges = np.concatenate(edges)
    # counterclockwise from the leftmost vertex: directions in (-pi/2, 3pi/2]
    angle = np.arctan2(edges[:, 1], edges[:, 0])
    angle[angle <= -0.5 * np.pi] += 2.0 * np.pi
    steps = np.cumsum(edges[np.argsort(angle, kind="stable")], axis=0)
    x, y = (start + np.vstack([np.zeros(2), steps])).T

    tol = 1e-9 * max(1.0, abs(y.min()), abs(y.max()))
    if not (y.min() - tol <= mu_r <= y.max() + tol):
        raise NoFeasibleSelection(f"mu_r={mu_r} outside the moment range [{y.min()}, {y.max()}]")
    mu = min(max(mu_r, y.min()), y.max())
    cross = np.flatnonzero((y[:-1] - mu) * (y[1:] - mu) < 0.0)
    at = x[cross] + (mu - y[cross]) * (x[cross + 1] - x[cross]) / (y[cross + 1] - y[cross])
    xs = np.concatenate([x[y == mu], at])
    return ClosedInterval(float(xs.min()), float(xs.max()))
