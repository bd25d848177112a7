"""Mean bounds under higher-moment and general fixed-quantile restrictions.

Moment restrictions are handled through a scalar dual: for each multiplier
the per-scenario problem max/min of x + lam*x^r over the interval is solved
in closed form (endpoints plus interior stationary points).  Each
scenario's optimizer switches only at closed-form multipliers, sorted once
per solve for both sides, so the optimal multiplier lies in one segment
between them, solved in closed form; the optimizers there form a
selection that attains the endpoint.  Each side searches its segment on
its own, CELLS // n candidate segments a pass (every segment at once for
small instances, one bisection probe for large ones), and keeps only the
(lam, up, mid) mask rows it may still read.  Past _BLOCK scenarios it
keeps no scaled copy of the data and evaluates a pass's endpoint values,
like the dual's candidates, a block of scenarios at a time, into the
full-length rows that the sums read.

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
from typing import NamedTuple

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
from .median import _pivot_fill, partition, pivot_mean_interval

_ATOL = 1e-12
#: cells (segments x scenarios) per pass of the moment segment search: a
#: pass evaluates CELLS // n segments, at least one
CELLS = 2**12
# scenarios per block of a large moment solve; a pass of two or more
# probes (n below CELLS / 2) is one block
_BLOCK = 2**14
# searched for in the sorted cuts: the first finite one and the first zero
_FINITE_NEGATIVE = np.array([-np.finfo(float).max, 0.0])


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
    return float(r) % 2.0 == 1.0


def _power(x: np.ndarray, r: float) -> np.ndarray:
    """x**r, extended to negative x for odd integer r via sign symmetry."""
    if _is_odd_integer(r):
        return np.sign(x) * np.abs(x) ** int(r)
    return np.power(x, r)


def power_image_interval(instance: DiscreteInstance, r: float) -> ClosedInterval:
    """Mean range of y^r over all selections: [E lower^r, E upper^r].

    The power map is monotone on every scenario interval under the
    validity condition, so the image of the random interval is again an
    interval with transformed endpoints.
    """
    return _power_image(instance, r)[0]


def _power_image(instance: DiscreteInstance, r: float):
    """:func:`power_image_interval`, and the endpoints it raises to the
    power r: the instance's own, or copies clamped at 0 where r is not an
    odd integer and some lower end is 0 or below.

    r must be positive and, unless it is an odd integer, every lower end
    at least 0, up to 1e-12 of the data's scale.  The clamp removes that
    noise and makes a -0.0 endpoint 0.0, as np.maximum does; data whose
    least lower end is positive needs neither and is not copied."""
    lower, upper = instance.lower, instance.upper
    lowest = math.inf if _is_odd_integer(r) else float(lower.min())
    if not (r > 0.0 and (lowest >= 0.0 or lowest >= -_ATOL * instance.magnitude())):
        raise InvalidPower(
            f"power r={r} needs a positive exponent, odd integer unless the instance is nonnegative"
        )
    if lowest <= 0.0:
        lower, upper = np.maximum(lower, 0.0), np.maximum(upper, 0.0)
    lo = float(np.dot(instance.weight, _power(lower, r)))
    hi = float(np.dot(instance.weight, _power(upper, r)))
    return ClosedInterval(min(lo, hi), max(lo, hi)), lower, upper


def _scenario_envelope(lower, upper, r: float, lam: float, maximize: bool):
    """Per-scenario extremum of x + lam * x^r over [lower, upper], r > 0.

    Candidates: both endpoints plus the stationary points t of
    :func:`_stationary` and, for odd r, -t; on admissible data (nonnegative
    unless r is an odd integer) only a finite lam < 0 has them.  Past
    _BLOCK scenarios the candidates are built a block at a time, written
    into the returned row.
    """
    roots = []
    if lam < 0.0 and r != 1.0:
        t = _stationary(lam, r)
        roots = [t, -t] if _is_odd_integer(r) else [t]
    if lower.size <= _BLOCK:
        return _envelope_block(lower, upper, r, lam, maximize, roots)
    vals = np.empty(lower.size)
    for start in range(0, lower.size, _BLOCK):
        at = slice(start, start + _BLOCK)
        vals[at] = _envelope_block(lower[at], upper[at], r, lam, maximize, roots)
    return vals


def _envelope_block(lower, upper, r: float, lam: float, maximize: bool, roots):
    """:func:`_scenario_envelope` over one block of scenarios, from the
    stationary points ``roots``."""
    vals = None
    for x in [lower, upper] + [np.minimum(np.maximum(lower, root), upper) for root in roots]:
        v = _power(x, r)
        v *= lam   # x + lam x^r, in place
        v += x
        vals = v if vals is None else (np.maximum if maximize else np.minimum)(vals, v, out=vals)
    return vals


def _stationary(lam: float, r: float) -> float:
    """t >= 0 with r t^(r-1) = -1/lam, for lam in [-inf, 0]."""
    if lam in (0.0, -math.inf):
        return math.inf if (lam == 0.0) == (r > 1.0) else 0.0
    return (-1.0 / (lam * r)) ** (1.0 / (r - 1.0))


class _Breaks(NamedTuple):
    """One moment solve's data, scaled into [-1, 1], and its breakpoints:
    the multipliers where some scenario's optimizer of x + lam x^r can
    switch (see :func:`_moment_side`).  Neither side changes them.  The
    scaled data is lo / scale and hi / scale: past _BLOCK scenarios
    :func:`_moment_solve` keeps lo and hi unscaled, and the passes divide
    them a block at a time."""

    w: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_r: np.ndarray   # of the scaled data, as every field below
    hi_r: np.ndarray
    mean_lo_r: float   # E[lo^r]
    ends: np.ndarray   # the breakpoints sorted, then 0: segment j ends at ends[j]
    r: float
    odd: bool          # r an odd integer: the data may be signed
    scale: float = 1.0


@functools.cache
def _tie_root(n: int) -> float:
    """The double nearest the root z in (0, 1) of (n-1) z^n + n z^(n-1) = 1,
    for odd n >= 3: bisection over doubles, each sign taken exactly from
    integers (z = p / q), then the nearer of the two doubles left."""

    def reaches(p: int, q: int) -> bool:   # (n-1) z^n + n z^(n-1) >= 1 at z = p / q
        return (n - 1) * p**n + n * p ** (n - 1) * q >= q**n

    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if reaches(*mid.as_integer_ratio()):
            hi = mid
        else:
            lo = mid
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return lo if reaches(a * d + c * b, 2 * b * d) else hi


def _breakpoints(w, lo, hi, r: float) -> _Breaks:
    """lo^r, hi^r and the sorted breakpoints, built once per solve."""
    lo_r, hi_r = _power(lo, r), _power(hi, r)
    scales, odd = [1.0], _is_odd_integer(r)
    if odd:
        scales.append(_tie_root(int(r)))
    # every cut is written in place into one array; a zero t or a narrow
    # scenario writes -inf, -0.0 or 0.0, which the slice below drops, and
    # the extra last slot holds the 0 that closes the last segment
    n = lo.size
    cuts = np.empty((2 * len(scales) + 1) * n + 1)
    cuts[-1] = 0.0
    with np.errstate(divide="ignore"):
        for i, scale in enumerate(scales):
            seg = cuts[2 * i * n:2 * (i + 1) * n]
            np.abs(lo, out=seg[:n])
            np.abs(hi, out=seg[n:])
            if scale != 1.0:
                seg *= scale
            seg **= r - 1.0   # -1 / (r t^(r-1))
            seg *= r
            np.divide(-1.0, seg, out=seg)
        seg = np.subtract(lo, hi, out=cuts[-n - 1:-1])
        np.divide(seg, hi_r - lo_r, out=seg, where=hi > lo)
    del seg
    cuts.sort()   # the finite negative cuts and one 0 are one slice of the sorted ones, not a copy
    first, zero = cuts.searchsorted(_FINITE_NEGATIVE)
    ends = cuts[first:zero + 1]
    return _Breaks(w, lo, hi, lo_r, hi_r, float(np.dot(w, lo_r)), ends, r, odd)


def _probes(lo_j: int, hi_j: int, batch: int):
    """The segments a pass evaluates: every one of lo_j .. hi_j - 1, or
    ``batch`` of them spread evenly (the midpoint when ``batch`` is 1)."""
    span = hi_j - lo_j
    if span <= batch:
        return np.arange(lo_j, hi_j)
    # lo_j + i span // (batch + 1) for i = 1 .. batch
    start = lo_j * (batch + 1) + span
    return np.arange(start, start + batch * span, span) // (batch + 1)


def _side_free(b: _Breaks, probes):
    """A pass's side-free values at the segments ``probes``: the midpoints
    lam, t and g = t + lam t^r there, lo + lam lo^r and hi + lam hi^r (a
    row per probe; None past _BLOCK scenarios, where :func:`_regimes`
    evaluates them a block at a time), and t^r at each right end but the
    last segment's."""
    ends, r, m = b.ends, b.r, probes.size
    right = ends[probes]
    lam = ends[probes - 1] + right   # probe 0 reads the last end here; set below
    lam *= 0.5
    if probes[0] == 0:
        lam[0] = 2.0 * ends[0] - 1.0
    f_lo = f_hi = None
    if b.lo.size <= _BLOCK:
        f_lo, f_hi = _endpoint_values(lam[:, None], b.lo, b.hi, b.lo_r, b.hi_r)
    inner = m - (int(probes[-1]) == ends.size - 1)   # the last right end, 0, is never read
    t = np.concatenate((lam, right[:inner]))   # t at the midpoints, then at the right ends
    t *= r
    np.divide(-1.0, t, out=t)
    t **= 1.0 / (r - 1.0)   # (-1 / (r lam))^(1 / (r - 1)), as _stationary
    t, right = t[:m], t[m:]
    right **= r
    g = np.power(t, r)   # t > 0
    g *= lam
    g += t
    return lam, t, g, f_lo, f_hi, right


def _endpoint_values(col, lo, hi, lo_r, hi_r):
    """lo + lam lo^r and hi + lam hi^r, a row per multiplier of ``col``."""
    f_lo = col * lo_r   # in place after the product
    f_lo += lo
    f_hi = col * hi_r
    f_hi += hi
    return f_lo, f_hi


def _masks(beats, x, f_x, lo, hi, f_lo, f_hi, mid=None, up=None):
    """The scenarios whose optimizer is x (``mid``: inside lo < x < hi and
    beating both endpoints' values) or the upper endpoint (``up``), a row
    per probe; written into ``mid`` and ``up`` when given."""
    mid = beats(f_x, f_lo, out=mid)
    mid &= beats(f_x, f_hi)
    mid &= np.less(lo, x)
    mid &= x < hi
    up = beats(f_hi, f_lo, out=up)
    np.greater(up, mid, out=up)   # up and not mid
    return mid, up


def _regimes(b: _Breaks, probes, maximize: bool, shared):
    """One side's regimes at the segments ``probes``, from their side-free
    values (``shared``, or built here): the midpoints lam, the masks of the
    scenarios whose optimizer is the upper endpoint (``up``) or sign*t
    (``mid``), a row per segment, and E[x*^r] = C + sign W t^r at each right
    end but the last segment's (C summed over the endpoint optimizers, W the
    weight at sign*t: -t on the min side for odd r, where x + lam x^r is -g)."""
    lam, t, g, f_lo, f_hi, right = shared or _side_free(b, probes)
    flip = b.odd and not maximize
    beats = np.greater if maximize else np.less
    x, f_x = (-t[:, None], -g[:, None]) if flip else (t[:, None], g[:, None])
    if f_lo is not None:
        mid, up = _masks(beats, x, f_x, b.lo, b.hi, f_lo, f_hi)
        del f_lo, f_hi   # before the sums
    else:   # a block of endpoint values at a time, into the full-length masks
        col, shape = lam[:, None], (lam.size, b.lo.size)
        mid, up = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        for start in range(0, b.lo.size, _BLOCK):
            at = slice(start, start + _BLOCK)
            lo, hi = b.lo[at] / b.scale, b.hi[at] / b.scale
            f_lo, f_hi = _endpoint_values(col, lo, hi, b.lo_r[at], b.hi_r[at])
            _masks(beats, x, f_x, lo, hi, f_lo, f_hi, mid[:, at], up[:, at])
        del f_lo, f_hi   # the last block's, before the sums
    # W, and C = E[lo^r] + E[up (hi^r - lo^r)] - E[mid lo^r], from products of
    # the masks with weighted powers (no select branches), one column at a time
    weighted = b.hi_r - b.lo_r
    weighted *= b.w
    c = np.dot(up, weighted)
    np.multiply(b.lo_r, b.w, out=weighted)
    ones = mid.astype(float)   # what np.dot casts the mask to, cast once for two products
    c -= np.dot(ones, weighted)
    c += b.mean_lo_r
    reached = np.dot(ones, b.w)[:right.size]   # W, then C + sign W t^r
    reached *= right
    if flip:
        np.negative(reached, out=reached)
    reached += c[:right.size]
    return lam, up, mid, reached


def _row_sums(b: _Breaks, row):
    """C and W of a (lam, up, mid) row: E[x*^r] over its endpoint
    optimizers, and the mass at the stationary point."""
    _, up, mid = row
    outer = np.where(up, b.hi_r, b.lo_r)
    np.putmask(outer, mid, 0.0)
    return float(np.dot(b.w, outer)), float(b.w.compress(mid).sum())


def _moment_side(b: _Breaks, mu: float, maximize: bool, batch: int, probes, shared):
    """lam* <= 0 and the optimizers of x + lam* x^r on one side.

    A scenario's optimizer switches only where the stationary point t meets
    |lower| or |upper|, where the endpoints tie (lam = -(upper - lower) /
    (upper^r - lower^r)) or, for odd r, where an endpoint ties the
    stationary point across 0 (t = z |endpoint|, z the root in (0,1) of
    (r-1) z^r + r z^(r-1) = 1).  Segment j runs from the breakpoint
    ends[j - 1] (-inf for j = 0) to ends[j] (0 for the last one).  Inside
    it every optimizer is an endpoint or sign*t, so E[x*^r] = C + sign W t^r
    there, monotone in lam across segments.  The search wants the first
    segment whose right end reaches mu (the last one counts as reaching).
    Each pass evaluates ``batch`` = CELLS // n open segments spread evenly,
    the first ``probes`` (from side-free values ``shared`` with the other
    side, if given), and keeps only the (lam, up, mid) rows of the first
    that reaches and of the one before it: up to about 30 scenarios one
    pass reads every segment, a few hundred take two or three, and from
    CELLS / 2 scenarios each probes the midpoint, a bisection.  The
    segment found is solved in closed form from its row, whose C and W are
    summed over its optimizers (the pass's sums only order the search); at
    a jump, its optimizers and those of the row before mix with one
    fraction.  Returns lam*, theta, sign*t, and the rows of the optimizers
    and of the rest (None: the rest are the optimizers).
    """
    r, ends = b.r, b.ends
    sign = -1.0 if b.odd and not maximize else 1.0
    lo_j, hi_j = 0, ends.size   # the first reaching segment lies in [lo_j, hi_j]
    below = above = None        # the rows of segments lo_j - 1 and hi_j
    while True:
        lam, up, mid, reached = _regimes(b, probes, maximize, shared)
        shared = None
        reach = np.greater_equal(reached, mu) if maximize else np.less_equal(reached, mu)
        i = int(reach.argmax()) if reach.size else 0
        if not (reach.size and reach[i]):
            i = reach.size   # the last segment, if probed, counts as reaching
        if i < probes.size:   # probe i is the first that reaches
            hi_j, above = int(probes[i]), (float(lam[i]), up[i], mid[i])
        if i:
            lo_j, below = int(probes[i - 1]) + 1, (float(lam[i - 1]), up[i - 1], mid[i - 1])
        if lo_j == hi_j:
            break
        probes = _probes(lo_j, hi_j, batch)

    j, lam = hi_j, above[0]
    c, big_w = _row_sums(b, above)
    d = 1.0 if maximize else -1.0
    if j > 0:
        left = float(ends[j - 1])
        t = _stationary(left, r)
        m_cur = c + sign * big_w * t ** r if big_w > 0.0 else c
        if d * m_cur >= d * mu:   # mu inside the jump at ends[j - 1]
            c_prev, w_prev = _row_sums(b, below)
            m_prev = c_prev + sign * w_prev * t ** r if w_prev > 0.0 else c_prev
            # rounding apart from the search's sums, the row before may reach mu too
            theta = min(max((mu - m_prev) / (m_cur - m_prev), 0.0), 1.0) if m_cur != m_prev else 1.0
            return left, theta, sign * t, above, below
    t = _stationary(lam, r)
    if big_w > 0.0:
        t_a = _stationary(float(ends[j - 1]) if j else -math.inf, r)
        t_a, t_b = sorted((t_a, _stationary(float(ends[j]), r)))
        t = min(max(max(sign * (mu - c) / big_w, 0.0) ** (1.0 / r), t_a), t_b)
        lam = -1.0 / (r * t ** (r - 1.0)) if t > 0.0 else (-math.inf if r > 1.0 else 0.0)
    return lam, 1.0, sign * t, above, None


def _moment_solve(instance: DiscreteInstance, restriction: MomentRestriction, seen=lambda image: None):
    """The moment-restricted mean interval and, for the min and the max
    side, (dual, primal, x, theta, rest): the dual objective at lam*, and
    the attaining selection, which puts the fraction theta of each weight
    at x and the rest at rest, with its mean; ``seen`` gets the power image.

    mu_r is feasible within 1e-9 of the image's own scale, so the check
    does not depend on the units either.  mu_r at an image edge pins every
    scenario to that endpoint (lam* is 0 on one side and -inf on the
    other).  Otherwise each side is solved on the data divided by s = max
    |endpoint| (mu_r by s^r), so nothing depends on the units; both sides
    search one set of breakpoints, freed before the dual objectives are
    evaluated.  Past _BLOCK scenarios a pass holds, beside the instance,
    the powers and breakpoints (40 B a scenario at even r), the mask rows
    kept and its sums' two float rows.
    """
    r, mu = restriction.r, restriction.mu_r
    image, low, high = _power_image(instance, r)
    seen(image)
    tol = 1e-9 * max(abs(image.lo), abs(image.hi))   # relative: no floor in the data's units
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
        s = instance.magnitude()
        b = _breakpoints(w, low / s, high / s, r)   # clamped as the image's endpoints
        if w.size > _BLOCK:   # no scaled copy beside the search: the passes divide
            b = b._replace(lo=low, hi=high, scale=s)
        mu = mu / s**r
        del low, high
        batch = max(1, CELLS // w.size)
        # both sides probe the same segments first: a pass of at most CELLS cells serves both
        probes = _probes(0, b.ends.size, batch)
        shared = _side_free(b, probes) if w.size <= CELLS else None
        found = [_moment_side(b, mu, maximize, batch, probes, shared) for maximize in (False, True)]
        lo, hi, scale = b.lo, b.hi, b.scale
        del b, shared
        if scale != 1.0:
            lo, hi = lo / scale, hi / scale   # the scaled data, as the search read it
        sides = []
        for maximize, (lam, theta, x_mid, row, rest) in zip((False, True), found):
            values = []
            for _, up, mid in (row,) if rest is None else (row, rest):
                v = np.where(up, hi, lo)   # the optimizers along the row, sign*t = x_mid
                np.putmask(v, mid, x_mid)
                v *= s   # back to the data's units, in place
                np.maximum(v, lower, out=v)
                np.minimum(v, upper, out=v)
                values.append(v)
            x, rest = values[0], values[-1]
            mean_x = float(np.dot(w, x))
            primal = theta * mean_x + (1.0 - theta) * (mean_x if rest is x else float(np.dot(w, rest)))
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
    scenario's optimizer can switch (see :func:`_moment_side`), and each
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


def quantile_restricted_mean_interval(
    instance: DiscreteInstance, restriction: QuantileRestriction
) -> ClosedInterval:
    """Mean range over selections with alpha-quantile pinned at q."""
    rng = quantile_attainability_range(instance, restriction.alpha)
    if not rng.contains(restriction.q):
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
    E_min > kappa; a probe partitions and fills only the side it tests.  The
    segment before each is an exact line, whose value and slope (the capped
    or lifted contact mass) one fill at its midpoint gives.  Endpoints are
    closure values: one on an upward jump (a zero-width scenario) may be a
    supremum, not attained.
    """
    kappa = _clip_kappa(instance, kappa)
    rng = quantile_attainability_range(instance, alpha)
    ends = np.unique(np.concatenate([instance.lower, instance.upper]))
    cuts = ends[(ends > rng.lo) & (ends < rng.hi)]
    grid = np.concatenate([[rng.lo], cuts, [rng.hi]])
    # relative to the data's magnitude, so scaling the instance scales the range
    tol = _ATOL * max(abs(kappa), instance.magnitude())
    fills = ((1.0 - alpha, "min", instance.mean_lower()), (alpha, "max", instance.mean_upper()))

    def side(q, upper_side):
        """E_max (upper_side) or E_min at pivot q, and its slope there."""
        return _pivot_fill(instance, partition(instance, float(q)), *fills[upper_side])[:2]

    def crossing(i, upper_side):
        """Where E_max (upper_side) or E_min reaches kappa on (grid[i-1], grid[i])."""
        a, b = float(grid[i - 1]), float(grid[i])
        mid = 0.5 * (a + b)
        value, slope = side(mid, upper_side)
        if upper_side and value + slope * (a - mid) >= kappa - tol:
            return a   # on the upward jump at a
        if not upper_side and value + slope * (b - mid) <= kappa + tol:
            return b   # on the upward jump at b
        if slope > 0.0:
            return min(max(mid + (kappa - value) / slope, a), b)
        return b if upper_side else a

    i_lo = bisect.bisect_left(grid, True, key=lambda q: side(q, True)[0] >= kappa - tol)
    i_hi = bisect.bisect_left(grid, True, key=lambda q: side(q, False)[0] > kappa + tol)
    if i_lo == grid.size or i_hi == 0:
        raise InfeasibleQuantile(
            f"no quantile at level {alpha} is compatible with mean {kappa}"
        )
    q_lo = float(grid[0]) if i_lo == 0 else crossing(i_lo, True)
    q_hi = float(grid[-1]) if i_hi == grid.size else crossing(i_hi, False)
    return ClosedInterval(min(q_lo, q_hi), max(q_lo, q_hi))
