"""Unrestricted identification ranges and the selections that attain them.

Without side information, the mean of a latent point inside the random
interval ranges over [E lower, E upper], and its alpha-quantile ranges over
the interval between the hitting and containment quantiles.  Both ranges
are sharp: this module constructs, for any admissible target, an explicit
selection achieving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InputError,
    KappaInfeasible,
    MOutOfRange,
    SelectionMismatch,
)
from .model import ClosedInterval, DiscreteInstance, StepDistribution, _marginal

_ATOL = 1e-12


@dataclass(frozen=True)
class Selection:
    """Per-scenario chosen values with optional weight splitting.

    ``scenario`` maps each choice row to its scenario index; a scenario may
    appear several times, carrying subweights that sum to its weight.  This
    is the finite-instance encoding of boundary randomization.
    """

    scenario: np.ndarray
    value: np.ndarray
    subweight: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scenario, dtype=int)
        v = np.asarray(self.value, dtype=float)
        w = np.asarray(self.subweight, dtype=float)
        if not (s.shape == v.shape == w.shape) or s.ndim != 1:
            raise InputError("selection arrays must be equal-length 1-d")
        keep = _kept_rows(w)
        if keep is not None:
            s, v, w = s.compress(keep), v.compress(keep), w.compress(keep)
        object.__setattr__(self, "scenario", s)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "subweight", w)

    @classmethod
    def from_cells(cls, weight, cells, rest) -> "Selection":
        """Selection from scenario-aligned cells.

        Each cell is a pair (values, subweights) of per-scenario arrays (a
        scalar value stands for every scenario); the last cell puts the
        values ``rest`` on whatever weight the other cells leave.  Rows of
        zero weight are dropped.
        """
        return cls._from_rows(weight.size, *_cell_rows(weight, cells, rest))

    @classmethod
    def _from_rows(cls, n: int, value, subweight) -> "Selection":
        """Selection from the raveled rows of :func:`_rest_row`, each row
        aligned with the n scenarios."""
        scenario = np.empty((value.size // max(n, 1), n), dtype=int)
        scenario[:] = np.arange(n)
        return cls(scenario.ravel(), value, subweight)

    def mean(self) -> float:
        return float(np.dot(self.value, self.subweight))

    def law(self) -> StepDistribution:
        return StepDistribution.from_samples(self.value, self.subweight)

    def validate(self, instance: DiscreteInstance, tol: float = 1e-9) -> None:
        """Raise :class:`SelectionMismatch` unless this selects from ``instance``."""
        if np.any(self.scenario < 0) or np.any(self.scenario >= instance.n):
            raise SelectionMismatch("selection references unknown scenarios")
        lo = instance.lower[self.scenario]
        hi = instance.upper[self.scenario]
        if np.any(self.value < lo - tol) or np.any(self.value > hi + tol):
            raise SelectionMismatch("selection value escapes its scenario interval")
        sums = np.zeros(instance.n)
        np.add.at(sums, self.scenario, self.subweight)
        if np.max(np.abs(sums - instance.weight)) > max(_ATOL, tol * 1e-3):
            raise SelectionMismatch("per-scenario subweights do not match weights")


def _kept_rows(subweight):
    """The mask of a selection's rows of positive weight, or None when that
    is every row; subweights below -1e-12 are an error."""
    if (subweight < -_ATOL).any():
        raise InputError("subweights must be nonnegative")
    keep = subweight > 0.0
    return None if np.count_nonzero(keep) == keep.size else keep


def _cell_rows(weight, cells, rest):
    """The values and subweights of :meth:`Selection.from_cells`, one row
    per cell and scenario, the rest last, zero rows still in; when none
    is dropped these are the selection's own arrays."""
    values = np.empty((len(cells) + 1, weight.size))
    subweights = np.empty_like(values)
    for row, (v, sw) in enumerate(cells):
        values[row], subweights[row] = v, sw
    values[-1] = rest
    return _rest_row(weight, values, subweights)


def _rest_row(weight, values, subweights):
    """The (k+1) x n value and subweight blocks of a selection's cells,
    raveled, once the last subweight row holds the weight that the other
    rows leave.  Callers that can write the cells' rows in place fill
    the blocks themselves and pass them here."""
    left, cells = subweights[-1], len(subweights) - 1
    if cells:
        np.subtract(weight, subweights[0], out=left)
    else:
        left[:] = weight
    for row in range(1, cells):
        left -= subweights[row]
    return values.ravel(), subweights.ravel()


def _rows_mean(value, subweight) -> float:
    """The mean of the selection :meth:`Selection._from_rows` would build
    from these rows, read from its kept rows as ``mean`` reads them."""
    keep = _kept_rows(subweight)
    if keep is not None:
        value, subweight = value.compress(keep), subweight.compress(keep)
    return float(np.dot(value, subweight))


def aumann_interval(instance: DiscreteInstance) -> ClosedInterval:
    """Identified mean range with no restriction: [E lower, E upper]."""
    return ClosedInterval(instance.mean_lower(), instance.mean_upper())


def _clip_kappa(instance: DiscreteInstance, kappa: float) -> float:
    """kappa clipped into the mean range; KappaInfeasible when it lies
    outside by more than 1e-9 of the data's scale or of |kappa|."""
    box = aumann_interval(instance)
    if not box.contains(kappa) and not box.contains(
        kappa, tol=1e-9 * max(abs(kappa), instance.magnitude())
    ):
        raise KappaInfeasible(
            f"kappa={kappa} outside the mean range [{box.lo}, {box.hi}] "
            f"by {max(box.lo - kappa, kappa - box.hi):.3g}"
        )
    return box.clip(kappa)


def median_benchmark(instance: DiscreteInstance) -> ClosedInterval:
    """Unrestricted range of attainable selection medians.

    Endpoints are the canonical (left-continuous 1/2-quantile) medians of
    the two marginal laws; every point in between is the 1/2-quantile of
    some selection, which is what makes the range sharp.
    """
    return quantile_attainability_range(instance, 0.5)


def quantile_attainability_range(instance: DiscreteInstance, alpha: float) -> ClosedInterval:
    """Attainable alpha-quantiles of selections: hitting to containment."""
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0,1), got {alpha}")
    lo = _marginal(instance, "lower").quantile(alpha)
    hi = _marginal(instance, "upper").quantile(alpha)
    return ClosedInterval(lo, hi)


def mean_selection(instance: DiscreteInstance, kappa: float) -> Selection:
    """Selection with mean exactly ``kappa``: the affine endpoint blend.

    Uses y = (1-t) lower + t upper with t chosen from the mean equation;
    the blend degenerates to the lower endpoint when the interval has zero
    width in expectation.
    """
    box = aumann_interval(instance)
    t = 0.0 if box.width <= 0.0 else (_clip_kappa(instance, kappa) - box.lo) / box.width
    return Selection.from_cells(instance.weight, [], (1.0 - t) * instance.lower + t * instance.upper)


def quantile_selection(instance: DiscreteInstance, alpha: float, m: float) -> Selection:
    """Selection whose left-continuous alpha-quantile equals ``m`` exactly.

    Partition at m: scenarios entirely at or below take their upper
    endpoint, scenarios entirely above take their lower endpoint, and the
    contact scenarios sit at m itself, one row per scenario.  Then
    P(y <= m) is the lower endpoint's CDF at m, at least alpha, while for
    t < m P(y <= t) is at most the upper endpoint's CDF at t, below alpha,
    because m lies between the two marginal alpha-quantiles.
    """
    rng = quantile_attainability_range(instance, alpha)
    if not rng.contains(m):
        raise MOutOfRange(f"m={m} outside attainability range [{rng.lo}, {rng.hi}]")
    value = np.where(instance.upper <= m, instance.upper, np.maximum(instance.lower, m))
    return Selection.from_cells(instance.weight, [], value)
