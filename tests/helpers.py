"""Shared generators and micro-oracles for the test suite."""

import numpy as np

from selbounds import DiscreteInstance, TargetSet


def random_instance(rng, n=None, max_n=6, degenerate=0.2, tie=0.3):
    """Weighted instance with occasional zero-width intervals and shared
    endpoints, to exercise tie handling."""
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    lower = rng.uniform(-2.0, 2.0, n)
    width = rng.uniform(0.0, 2.0, n) * (rng.random(n) > degenerate)
    if n >= 2 and rng.random() < tie:
        lower[1] = lower[0]
        width[1] = width[0]
    weight = rng.uniform(0.2, 1.0, n)
    rows = list(zip(lower, lower + width, weight / weight.sum()))
    return DiscreteInstance.from_rows(rows)


def random_target(rng, lo=-2.5, hi=2.5, singleton=0.2):
    k = int(rng.integers(1, 3))
    pts = np.sort(rng.uniform(lo, hi, 2 * k))
    pieces = [[pts[2 * i], pts[2 * i + 1]] for i in range(k)]
    if rng.random() < singleton:
        pieces[0][1] = pieces[0][0]
    return TargetSet.from_pairs(pieces)


def two_state_instance(kappa=0.0, d=1.0):
    """Two equiprobable states: [kappa-2d, kappa] and [kappa, kappa+2d]."""
    return DiscreteInstance.from_rows(
        [(kappa - 2 * d, kappa, 0.5), (kappa, kappa + 2 * d, 0.5)]
    )


def constant_instance(a=0.0, b=1.0):
    return DiscreteInstance.from_rows([(a, b, 1.0)])


def brute_force_least_mass(values, weights, mass):
    """Reference bathtub value: all subsets plus one fractional member."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = values.size
    ids = np.arange(1 << n, dtype=np.uint32)
    subs = ((ids[:, None] >> np.arange(n)) & 1).astype(bool)
    sub_mass = subs @ weights
    sub_val = subs @ (weights * values)
    best = np.inf
    hit = np.abs(sub_mass - mass) <= 1e-12
    if np.any(hit):
        best = float(sub_val[hit].min())
    for j in range(n):
        free = ~subs[:, j]
        frac = (mass - sub_mass[free]) / weights[j]
        ok = (frac > 0.0) & (frac <= 1.0 + 1e-12)
        if np.any(ok):
            cand = sub_val[free][ok] + np.minimum(frac[ok], 1.0) * weights[j] * values[j]
            best = min(best, float(cand.min()))
    return best


def law_median_holds(law, m, tol=1e-12):
    """Direct check of both median inequalities on a step law."""
    at_or_above = float(law.masses[law.values >= m].sum())
    return law.cdf(m) >= 0.5 - tol and at_or_above >= 0.5 - tol
