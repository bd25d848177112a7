"""Mean bounds under higher-moment and general fixed-quantile restrictions.

Moment restrictions are handled through a scalar dual: for each multiplier
the per-scenario problem max/min of x + lam*x^r over the interval is solved
in closed form (endpoints plus interior stationary points).  Each
scenario's optimizer switches only at closed-form multipliers, so the
optimal multiplier is found exactly by bisecting the sorted switch points
and solving the last segment in closed form; the optimizers there form a
selection that attains the endpoint.

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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InfeasibleMoment,
    InfeasibleQuantile,
    InputError,
    InvalidPower,
)
from .model import ClosedInterval, DiscreteInstance
from .benchmarks import (
    Selection,
    _clip_kappa,
    aumann_interval,
    mean_selection,
    quantile_attainability_range,
)
from .median import partition, pivot_mean_interval

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


def _stationary(lam: float, r: float) -> float:
    """t >= 0 with r t^(r-1) = -1/lam, for lam in [-inf, 0]."""
    if lam in (0.0, -math.inf):
        return math.inf if (lam == 0.0) == (r > 1.0) else 0.0
    return (-1.0 / (lam * r)) ** (1.0 / (r - 1.0))


def _moment_optimum(w, lo, hi, r: float, mu: float, maximize: bool):
    """lam* <= 0 and the optimizers of x + lam* x^r, on data scaled into [-1, 1].

    A scenario's optimizer switches only where the stationary point t meets
    |lower| or |upper|, where the endpoints tie (lam = -(upper - lower) /
    (upper^r - lower^r)) or, for odd r, where an endpoint ties the
    stationary point across 0 (t = z |endpoint|, z the root in (0,1) of
    (r-1) z^r + r z^(r-1) = 1).  Between these sorted breakpoints every
    optimizer is an endpoint or sign*t, so E[x*^r] = C + sign W t^r there,
    monotone in lam across segments.  A bisection finds the segment where it
    meets mu, solved in closed form; at a jump, the two optimizers mix with
    one fraction.  Returns lam*, the values, their fraction and the rest.
    """
    odd = _is_odd_integer(r)
    sign, d = (-1.0 if odd and not maximize else 1.0), (1.0 if maximize else -1.0)
    lo_r, hi_r = _power(lo, r), _power(hi, r)
    t = np.abs(np.concatenate([lo, hi]))
    if odd:
        z = np.roots([r - 1.0, r] + [0.0] * (int(r) - 2) + [-1.0])
        t = np.concatenate([t, t * z.real[(abs(z.imag) < 1e-9) & (z.real > 0.0)][0]])
    t = -1.0 / (r * t[t > 0.0] ** (r - 1.0))
    wide = hi > lo
    cuts = np.concatenate([t, (lo - hi)[wide] / (hi_r - lo_r)[wide]])
    del t   # at most a few n-length arrays alive at once
    cuts = cuts[np.isfinite(cuts) & (cuts < 0.0)]
    cuts.sort()
    last = cuts.size   # segment j runs from end(j - 1) to end(j)
    end = lambda i: -math.inf if i < 0 else (0.0 if i == last else float(cuts[i]))

    def regime(lam):
        """Masks of the scenarios whose optimizer at lam is the upper endpoint / sign*t."""
        x = sign * _stationary(lam, r)
        f_lo, f_hi = lo + lam * lo_r, hi + lam * hi_r
        up = d * f_hi > d * f_lo
        mid = (lo < x) & (x < hi) & (d * (x + lam * _power(x, r)) > d * np.where(up, f_hi, f_lo))
        return up & ~mid, mid

    @functools.cache
    def segment(j):
        """A multiplier inside segment j, and C, W there."""
        lam = 2.0 * end(0) - 1.0 if j == 0 else 0.5 * (end(j - 1) + end(j))
        up, mid = regime(lam)
        return lam, float(np.dot(w, np.where(mid, 0.0, np.where(up, hi_r, lo_r)))), float(w[mid].sum())

    def moment(j, lam):
        _, c, big_w = segment(j)
        return c + sign * big_w * _stationary(lam, r) ** r if big_w > 0.0 else c

    def values(j, t):
        up, mid = regime(segment(j)[0])
        return np.where(mid, sign * t, np.where(up, hi, lo))

    reaches = lambda k: d * moment(k, end(k)) >= d * mu   # at the segment's right end
    j = min(bisect.bisect_left(range(last + 1), True, key=reaches), last)
    if j > 0 and d * moment(j, end(j - 1)) >= d * mu:   # mu inside the jump at end(j - 1)
        lam = end(j - 1)
        t = _stationary(lam, r)
        m_prev, m_cur = moment(j - 1, lam), moment(j, lam)
        return lam, values(j, t), min(max((mu - m_prev) / (m_cur - m_prev), 0.0), 1.0), values(j - 1, t)
    lam, c, big_w = segment(j)
    t = _stationary(lam, r)
    if big_w > 0.0:
        t_a, t_b = sorted((_stationary(end(j - 1), r), _stationary(end(j), r)))
        t = min(max(max(sign * (mu - c) / big_w, 0.0) ** (1.0 / r), t_a), t_b)
        lam = -1.0 / (r * t ** (r - 1.0)) if t > 0.0 else (-math.inf if r > 1.0 else 0.0)
    x = values(j, t)
    return lam, x, 1.0, x


def _moment_solve(instance: DiscreteInstance, restriction: MomentRestriction):
    """The moment-restricted mean interval and, for the min and the max
    side, (dual, primal, x, theta, rest): the dual objective at lam*, and
    the attaining selection, which puts the fraction theta of each weight
    at x and the rest at rest, with its mean.

    mu_r at an image edge pins every scenario to that endpoint (lam* is 0
    on one side and -inf on the other).  Otherwise each side is solved on
    the data divided by s = max |endpoint| (mu_r by s^r), so nothing
    depends on the units.
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
    w, lower, upper = instance.weight, instance.lower, instance.upper
    if r == 1.0:
        x = mean_selection(instance, mu).value   # one row per scenario: weights are positive
        sides = [(mu, mu, x, 1.0, x)] * 2         # the dual at lam = -1 is mu
    elif mu in (image.lo, image.hi):
        x = lower if mu == image.lo else upper
        sides = [(float(np.dot(w, x)),) * 2 + (x, 1.0, x)] * 2
    else:
        s = float(max(np.abs(lower).max(), np.abs(upper).max()))
        lo, hi, mu = lower / s, upper / s, mu / s**r
        if not _is_odd_integer(r):   # clamp -1e-15 noise, as power_image_interval does
            np.maximum(lo, 0.0, out=lo)
            np.maximum(hi, 0.0, out=hi)
        sides = []
        for maximize in (False, True):
            lam, x, theta, rest = _moment_optimum(w, lo, hi, r, mu, maximize)
            x, rest = np.clip(s * x, lower, upper), np.clip(s * rest, lower, upper)
            primal = theta * float(np.dot(w, x)) + (1.0 - theta) * float(np.dot(w, rest))
            if math.isfinite(lam):
                dual = s * (float(np.dot(w, _scenario_envelope(lo, hi, r, lam, maximize))) - lam * mu)
            else:
                dual = primal   # the limit of the dual objective as lam -> -inf
            sides.append((dual, primal, x, theta, rest))
    box = aumann_interval(instance)
    duals = [side[0] for side in sides]
    return ClosedInterval(box.clip(min(duals)), box.clip(max(duals))), sides


def moment_restricted_mean_interval(
    instance: DiscreteInstance, restriction: MomentRestriction
) -> ClosedInterval:
    """Mean range over selections with E[y^r] = mu_r, by scalar duality.

    Upper endpoint: inf over the multiplier of E[sup_x(x + lam x^r)] - lam mu_r;
    lower endpoint mirrors with inf_x and sup over the multiplier.  The
    multiplier is found exactly from the sorted breakpoints where a
    scenario's optimizer can switch (see :func:`_moment_optimum`), and each
    endpoint is the dual objective there, clipped into the unrestricted
    mean interval.
    """
    return _moment_solve(instance, restriction)[0]


def moment_selection(
    instance: DiscreteInstance, restriction: MomentRestriction, side: str
) -> Selection:
    """Selection with E[y^r] = mu_r attaining the upper (``"max"``) or lower
    (``"min"``) endpoint of :func:`moment_restricted_mean_interval`.

    Every scenario sits at an endpoint or at the common stationary point of
    x + lam* x^r; at a jump of the moment in the multiplier, one fraction of
    each scenario's weight moves between the two optimizers there.
    """
    if side not in ("max", "min"):
        raise InputError(f"side must be 'max' or 'min', got {side!r}")
    _, _, x, theta, rest = _moment_solve(instance, restriction)[1][side == "max"]
    return Selection.from_cells(instance.weight, [(x, instance.weight * theta)], rest)


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
    kappa = _clip_kappa(instance, kappa)
    rng = quantile_attainability_range(instance, alpha)
    ends = np.unique(np.concatenate([instance.lower, instance.upper]))
    cuts = ends[(ends > rng.lo) & (ends < rng.hi)]
    grid = np.concatenate([[rng.lo], cuts, [rng.hi]])
    # relative to the data's magnitude, so scaling the instance scales the range
    tol = _ATOL * max(abs(kappa), abs(float(ends[0])), abs(float(ends[-1])))

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
