"""Core data model: scenario instances, step distributions, intervals.

A :class:`DiscreteInstance` is the finite computational stand-in for a
probability space carrying a random interval: an ordered list of weighted
scenarios, each an interval [lower, upper].  All downstream identification
machinery consumes normalized instances (weights summing to one).

A :class:`StepDistribution` is a weighted discrete scalar law with a
right-continuous step CDF and the left-continuous generalized inverse

    quantile(alpha) = inf{t : cdf(t) >= alpha},

which is the quantile convention used everywhere in this package: ties are
never interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRange,
    CouplingViolation,
    EmptyInstance,
    InputError,
    InvertedInterval,
    NonpositiveWeight,
)
from .laws import Law

#: absolute tolerance for mass bookkeeping (weight sums, CDF totals)
MASS_ATOL = 1e-12
#: tolerance for repairing numerically inverted intervals
INVERSION_ATOL = 1e-12


@dataclass(frozen=True)
class ClosedInterval:
    """Ordered pair [lo, hi]; the shape of every identified set here."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise InputError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            if self.lo - self.hi > 1e-9 * max(1.0, abs(self.lo), abs(self.hi)):
                raise InputError(f"inverted interval [{self.lo}, {self.hi}]")
            mid = 0.5 * (self.lo + self.hi)
            object.__setattr__(self, "lo", mid)
            object.__setattr__(self, "hi", mid)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "ClosedInterval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def clip(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)


class DiscreteInstance:
    """Finite weighted list of interval scenarios.

    Arrays are stored read-only; every operation on instances is pure, so
    instances can be shared freely across threads.  The marginal laws are
    built on first use and kept (see :func:`_marginal`).
    """

    __slots__ = ("lower", "upper", "weight", "_laws")

    def __init__(self, lower, upper, weight):
        lower = np.array(lower, dtype=float)
        upper = np.array(upper, dtype=float)
        weight = np.array(weight, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.shape != weight.shape:
            raise InputError("lower, upper and weight must be equal-length 1-d arrays")
        if lower.size == 0:
            raise EmptyInstance("instance needs at least one scenario")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise InputError("scenario endpoints must be finite")
        if np.any(~np.isfinite(weight)) or np.any(weight <= 0.0):
            raise NonpositiveWeight("all scenario weights must be positive and finite")
        bad = lower - upper
        if np.any(bad > INVERSION_ATOL):
            i = int(np.argmax(bad))
            raise InvertedInterval(
                f"scenario {i} has lower={lower[i]} > upper={upper[i]}"
            )
        if np.any(bad > 0.0):
            # repair sub-tolerance inversions to a degenerate midpoint interval
            mid = 0.5 * (lower + upper)
            fix = bad > 0.0
            lower = np.where(fix, mid, lower)
            upper = np.where(fix, mid, upper)
        for arr in (lower, upper, weight):
            arr.setflags(write=False)
        self.lower = lower
        self.upper = upper
        self.weight = weight
        self._laws = {}

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[float]]) -> "DiscreteInstance":
        """Build from (lower, upper) or (lower, upper, weight) rows.

        Missing weights default to equal mass.  The result is normalized.
        """
        rows = [tuple(r) for r in rows]
        if not rows:
            raise EmptyInstance("no scenarios given")
        lower = [r[0] for r in rows]
        upper = [r[1] for r in rows]
        weight = [r[2] if len(r) > 2 else 1.0 for r in rows]
        return normalize(cls(lower, upper, weight))

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def total_mass(self) -> float:
        return float(self.weight.sum())

    def mean_lower(self) -> float:
        return float(np.dot(self.weight, self.lower))

    def mean_upper(self) -> float:
        return float(np.dot(self.weight, self.upper))

    def reordered(self, perm) -> "DiscreteInstance":
        perm = np.asarray(perm, dtype=int)
        return DiscreteInstance(self.lower[perm], self.upper[perm], self.weight[perm])

    def split_scenario(self, i: int, frac: float = 0.5) -> "DiscreteInstance":
        """Split scenario ``i`` into two copies carrying ``frac``/``1-frac``
        of its weight (the finite surrogate of non-atomic mass splitting)."""
        if not (0.0 < frac < 1.0):
            raise InputError("split fraction must lie in (0,1)")
        l = np.concatenate([self.lower, [self.lower[i]]])
        u = np.concatenate([self.upper, [self.upper[i]]])
        w = self.weight.copy()
        extra = w[i] * (1.0 - frac)
        w[i] *= frac
        w = np.concatenate([w, [extra]])
        return DiscreteInstance(l, u, w)

    def __repr__(self):
        return f"DiscreteInstance(n={self.n}, mass={self.total_mass:.6g})"


def normalize(instance: DiscreteInstance) -> DiscreteInstance:
    """Rescale weights to total mass one, preserving scenario order."""
    total = instance.total_mass
    if total <= 0.0:
        raise NonpositiveWeight("total mass must be positive")
    if abs(total - 1.0) <= 0.0:
        return instance
    return DiscreteInstance(instance.lower, instance.upper, instance.weight / total)


class StepDistribution:
    """Weighted discrete scalar law with exact CDF/quantile evaluation."""

    __slots__ = ("values", "masses", "_cum")

    def __init__(self, values, masses):
        values = np.array(values, dtype=float)
        masses = np.array(masses, dtype=float)
        if values.ndim != 1 or values.shape != masses.shape or values.size == 0:
            raise InputError("values and masses must be equal-length nonempty 1-d arrays")
        if np.any(np.diff(values) <= 0.0):
            raise InputError("values must be strictly increasing; aggregate ties first")
        if np.any(masses <= 0.0):
            raise InputError("masses must be strictly positive")
        total = masses.sum()
        if abs(total - 1.0) > MASS_ATOL:
            raise InputError(f"masses must sum to 1 within {MASS_ATOL}, got {total!r}")
        values.setflags(write=False)
        masses.setflags(write=False)
        self.values = values
        self.masses = masses
        self._cum = np.cumsum(masses)

    @classmethod
    def from_samples(cls, values, weights) -> "StepDistribution":
        """Aggregate a weighted sample into a law (ties merged, zeros dropped)."""
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < -MASS_ATOL):
            raise InputError("sample weights must be nonnegative")
        keep = weights > 0.0
        values, weights = values[keep], weights[keep]
        if values.size == 0:
            raise InputError("no positive-mass samples")
        uniq, inverse = np.unique(values, return_inverse=True)
        masses = np.zeros(uniq.size)
        np.add.at(masses, inverse, weights)
        total = masses.sum()
        return cls(uniq, masses / total)

    @property
    def n(self) -> int:
        return self.values.size

    def cdf(self, t):
        """P(Z <= t); right-continuous step function, vectorized."""
        idx = np.searchsorted(self.values, np.asarray(t, dtype=float), side="right")
        cum = np.concatenate(([0.0], self._cum))
        out = cum[idx]
        return float(out) if np.ndim(t) == 0 else out

    def quantile(self, alpha: float) -> float:
        """Left-continuous generalized inverse at ``alpha`` in (0,1)."""
        if not (0.0 < alpha < 1.0):
            raise AlphaOutOfRange(f"quantile level must be in (0,1), got {alpha}")
        # within MASS_ATOL: two orders of summing the same weights may put
        # a cumulative mass of exactly alpha on either side of it
        idx = int(np.searchsorted(self._cum, alpha - MASS_ATOL, side="left"))
        idx = min(idx, self.n - 1)
        return float(self.values[idx])

    def mean(self) -> float:
        return float(np.dot(self.values, self.masses))

    def integrate_cdf_offset(self, a: float, b: float, offset: float) -> float:
        """Exact step integral of (cdf(t) - offset) over [a, b], a <= b."""
        if b < a:
            raise InputError("integration bounds must satisfy a <= b")
        cuts = self.values[(self.values > a) & (self.values < b)]
        ts = np.concatenate(([a], cuts, [b]))
        lengths = np.diff(ts)
        levels = self.cdf(ts[:-1])
        return float(np.dot(lengths, levels - offset))

    def __repr__(self):
        return f"StepDistribution(n={self.n})"


def marginal_law(instance: DiscreteInstance, side: str) -> StepDistribution:
    """Law of the lower or upper endpoint of a normalized instance."""
    if side not in ("lower", "upper"):
        raise InputError(f"side must be 'lower' or 'upper', got {side!r}")
    values = instance.lower if side == "lower" else instance.upper
    return StepDistribution.from_samples(values, instance.weight)


def _marginal(instance: DiscreteInstance, side: str) -> StepDistribution:
    """:func:`marginal_law`, built once per instance and side: the instance
    is immutable, so every query of one report shares each sort."""
    law = instance._laws.get(side)
    if law is None:
        law = instance._laws[side] = marginal_law(instance, side)
    return law


@dataclass(frozen=True)
class ComonotoneSpec:
    """Comonotone coupling of two parametric laws on a midpoint grid.

    Both endpoints are driven by one uniform draw through their inverse
    CDFs, so lower and upper are perfectly rank-correlated.  The grid
    avoids u = 0 and u = 1, where inverse CDFs may be unbounded.
    """

    lower_law: Law
    upper_law: Law
    grid_size: int = field(default=1000)

    def __post_init__(self):
        if self.grid_size < 2:
            raise InputError("grid_size must be at least 2")

    def grid(self) -> np.ndarray:
        n = self.grid_size
        return (np.arange(n) + 0.5) / n

    def label(self) -> str:
        return f"{self.lower_law.label()}/{self.upper_law.label()}@{self.grid_size}"


def discretize(spec: ComonotoneSpec) -> DiscreteInstance:
    """Materialize a comonotone spec as an equal-weight instance.

    Deterministic: identical specs produce bit-identical instances.
    Raises :class:`CouplingViolation` when the inverse CDFs cross on the
    grid beyond numerical noise.
    """
    u = spec.grid()
    lower = np.asarray(spec.lower_law.ppf(u), dtype=float)
    upper = np.asarray(spec.upper_law.ppf(u), dtype=float)
    gap = lower - upper
    if np.any(gap > 1e-9):
        i = int(np.argmax(gap))
        raise CouplingViolation(
            f"lower quantile exceeds upper at u={u[i]:.6g}: "
            f"{lower[i]} > {upper[i]}"
        )
    weight = np.full(spec.grid_size, 1.0 / spec.grid_size)
    return DiscreteInstance(lower, upper, weight)
