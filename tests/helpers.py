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


# ---------------------------------------------------------------------------
# boolean-index references for the library's compacted gathers.  Each keeps
# the form the library had before it gathered by ``compress`` or an index
# array: the same elements in the same order, so every sum keeps its bits.


def parity_instance(rng):
    """1 to 3,000 scenarios, log-uniform in n: signed random data, or a
    0.25 grid with ties and zero-width scenarios; some endpoints are -0.0
    and 0.0, and some weights are equal."""
    n = int(np.exp(rng.uniform(0.0, np.log(3000.5))))
    if rng.random() < 0.5:
        lower = rng.normal(0.0, 2.0, n)
        width = rng.exponential(1.0, n) * (rng.random(n) > 0.2)
    else:
        lower = 0.25 * rng.integers(-8, 9, n)
        width = 0.25 * rng.integers(0, 5, n)
    upper = lower + width
    for arr in (lower, upper):
        zero = rng.random(n) < 0.05
        arr[zero] = np.where(rng.random(n) < 0.5, -0.0, 0.0)[zero]
    upper = np.maximum(upper, lower)   # an upper zeroed below its lower
    weight = rng.uniform(0.1, 1.0, n) if rng.random() < 0.7 else np.full(n, 0.25)
    return DiscreteInstance.from_rows(zip(lower, upper, weight))


def parity_pivots(rng, instance, k=4):
    """Pivots on endpoints (both zeros among them) and between them."""
    ends = np.concatenate([instance.lower, instance.upper, [-0.0, 0.0]])
    on = rng.choice(ends, k)
    return [float(x) for x in on] + [float(rng.uniform(ends.min() - 0.5, ends.max() + 0.5))]


def partition_masses_ref(instance, m):
    """p_minus, p_plus, p0, alpha_minus and alpha_plus of ``partition``."""
    w = instance.weight
    below, above = instance.upper < m, instance.lower > m
    p_minus, p_plus = float(w[below].sum()), float(w[above].sum())
    p0 = float(w[~(below | above)].sum())
    return p_minus, p_plus, p0, max(0.5 - p_minus, 0.0), max(0.5 - p_plus, 0.0)


def gap_profile_ref(instance, target):
    """``gap_profile`` by masked ufuncs, the form it had before np.where."""
    from selbounds.events import GapProfile

    lo, hi = instance.lower, instance.upper
    a_plus, a_minus = np.full(instance.n, -np.inf), np.full(instance.n, np.inf)
    hit, contain = np.zeros(instance.n, dtype=bool), np.zeros(instance.n, dtype=bool)
    out_low, out_high = lo.copy(), hi.copy()
    for a, b in target.pieces:
        a_lo, lo_b, a_hi, hi_b = a <= lo, lo <= b, a <= hi, hi <= b
        meets = lo_b & a_hi
        hit |= meets
        np.minimum(a_minus, np.maximum(a, lo), out=a_minus, where=meets)
        np.maximum(a_plus, np.minimum(b, hi), out=a_plus, where=meets)
        contain |= a_lo & hi_b
        np.copyto(out_low, b, where=a_lo & lo_b)
        np.copyto(out_high, a, where=a_hi & hi_b)
    out_low[contain] = np.inf
    out_high[contain] = -np.inf
    return GapProfile(lo, hi, a_plus, a_minus, hit, contain, out_low, out_high)


def unrestricted_ref(instance, prof):
    w = instance.weight
    return float(w[prof.contain].sum()), float(w[prof.hit].sum())


def regime_fill_ref(instance, prof, bound, above):
    """``events._regime_fill`` with a boolean pool filter."""
    from selbounds.events import _MeanFill
    from selbounds.rearrange import _sort_fill

    if bound == "sup":
        idx = np.flatnonzero(prof.hit)
        g = prof._gap(above, idx)
    else:
        idx = np.flatnonzero(prof.hit & ~prof.contain)
        if above:
            g = np.maximum(prof.a_plus[idx] - prof.out_high[idx], 0.0)
        else:
            g = np.maximum(prof.out_low[idx] - prof.a_minus[idx], 0.0)
        pool = g > 0.0
        idx, g = idx[pool], g[pool]
    w = instance.weight[idx]
    cost = g * w
    order, _, sorted_cost, cum_cost = _sort_fill(-g if bound == "inf" else g, cost)
    weight = w[order]
    return _MeanFill(
        idx[order], weight, sorted_cost, cum_cost, np.cumsum(weight), float(np.dot(g, w)),
        float(cost.sum()), int(np.count_nonzero(g == 0.0)),
    )


def bound_ref(instance, prof, bound, kappas):
    """``events._bound`` with a boolean slack mask; U's shifts start from E
    upper and E lower, L's from the dot of the span's own row."""
    from selbounds.events import _engage, _span

    w = instance.weight
    rows = _span(instance, prof, bound)
    lo, hi = (float(np.dot(w, v)) for v in rows)
    slack = float(w[prof.hit if bound == "sup" else prof.contain].sum())
    floor = 0.0 if bound == "sup" else slack
    out = np.full(kappas.shape, slack)
    for side, at in ((True, kappas > hi), (False, kappas < lo)):
        if at.any():
            if bound == "sup":
                base = instance.mean_upper() if side else instance.mean_lower()
            else:
                base = float(np.dot(w, rows[1 if side else 0]))
            fill = regime_fill_ref(instance, prof, bound, side)
            out[at] = floor + _engage(fill, np.abs(base - kappas[at]), instance)[2]
    return out


def _kink_argmin_ref(w, left, right, gaps):
    from selbounds.rearrange import _fill_order

    if left <= 0.0 <= right:
        return 0.0
    start, side = (-left, -1.0) if left > 0.0 else (right, 1.0)
    gaps = gaps(side)
    keep = gaps > 0.0
    if not keep.any():
        return 0.0
    order, desc = _fill_order(-gaps[keep])
    desc = -desc
    slope = start + np.cumsum(w[keep][order] * desc)
    return side / float(desc[min(int(np.searchsorted(slope, 0.0)), desc.size - 1)])


def dual_ref(instance, prof, kappa):
    """``events._dual`` gathering by the hit and partial masks themselves:
    (upper, lower, lambda_upper, lambda_lower)."""
    from selbounds.benchmarks import _clip_kappa
    from selbounds.events import _phi_mean, _psi_mean

    kappa = _clip_kappa(instance, kappa)
    w, lo, hi, hit = instance.weight, instance.lower, instance.upper, prof.hit
    lam_u = _kink_argmin_ref(
        w[hit],
        float(np.dot(w, np.where(hit, prof.a_minus, lo))) - kappa,
        float(np.dot(w, np.where(hit, prof.a_plus, hi))) - kappa,
        lambda side: prof._gap(side > 0.0, hit),
    )
    part = hit & ~prof.contain
    lam_l = _kink_argmin_ref(
        w[part],
        kappa - float(np.dot(w, np.where(part, prof.out_high, hi))),
        kappa - float(np.dot(w, np.where(part, prof.out_low, lo))),
        lambda side: np.maximum(
            prof.out_low[part] - prof.a_minus[part] if side > 0.0
            else prof.a_plus[part] - prof.out_high[part],
            0.0,
        ),
    )
    upper = _psi_mean(instance, prof, lam_u) - lam_u * kappa
    lower = _phi_mean(instance, prof, lam_l) - lam_l * kappa
    return upper, lower, lam_u, lam_l


def moment_row_sums_ref(b, row):
    """``extensions._row_sums`` with a boolean stationary mask."""
    _, up, mid = row
    outer = np.where(up, b.hi_r, b.lo_r)
    np.putmask(outer, mid, 0.0)
    return float(np.dot(b.w, outer)), float(b.w[mid].sum())
