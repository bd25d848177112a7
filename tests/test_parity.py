"""Compacted gathers against their boolean-index references.

The library sums and gathers masked rows through ``compress`` or an index
array instead of a boolean index.  Both take the same elements in the same
order, so each converted value must keep its bits: every check below is
``float.hex`` or ``tobytes`` equality with the reference forms kept in
``helpers.py``, on 3,000 drawn instances of 1 to 3,000 scenarios.
"""

import numpy as np

from selbounds import DiscreteInstance, StepDistribution, aumann_interval, partition
from selbounds.benchmarks import Selection, _cell_rows, _rows_mean
from selbounds.events import _bound, _calibrate, _dual, _regime_fill, _unrestricted, gap_profile
from selbounds.extensions import (
    CELLS,
    _breakpoints,
    _is_odd_integer,
    _power_image,
    _probes,
    _regimes,
    _row_sums,
)

from helpers import (
    bound_ref,
    dual_ref,
    gap_profile_ref,
    moment_row_sums_ref,
    parity_instance,
    parity_pivots,
    partition_masses_ref,
    random_target,
    regime_fill_ref,
    unrestricted_ref,
)

CASES = 3000


def _hex(values):
    return [float(v).hex() for v in values]


def _same_arrays(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_parity_instances_cover_the_edges():
    rng = np.random.default_rng(0)
    sizes, zeros, grid = [], set(), 0
    for _ in range(300):
        inst = parity_instance(rng)
        sizes.append(inst.n)
        ends = np.concatenate([inst.lower, inst.upper])
        zeros.update(np.signbit(ends[ends == 0.0]).tolist())
        grid += bool(np.all(ends * 4.0 == np.round(ends * 4.0)) and inst.n > 20)
    assert min(sizes) == 1 and max(sizes) > 1000
    assert zeros == {True, False} and grid > 50


def test_partition_masses():
    rng = np.random.default_rng(11)
    for _ in range(CASES):
        inst = parity_instance(rng)
        for m in parity_pivots(rng, inst):
            part = partition(inst, m)
            mine = (part.p_minus, part.p_plus, part.p0, part.alpha_minus, part.alpha_plus)
            assert _hex(mine) == _hex(partition_masses_ref(inst, m)), (inst.n, m)
            contact = ~((inst.upper < m) | (inst.lower > m))
            assert part.contact.tobytes() == np.flatnonzero(contact).tobytes()


def test_event_sums():
    rng = np.random.default_rng(12)
    for _ in range(CASES):
        inst = parity_instance(rng)
        box = aumann_interval(inst)
        target = random_target(rng, float(inst.lower.min()) - 0.5, float(inst.upper.max()) + 0.5)
        prof = gap_profile(inst, target)
        assert _same_arrays(vars(prof).values(), vars(gap_profile_ref(inst, target)).values())
        assert _hex(_unrestricted(inst, prof).as_tuple()) == _hex(unrestricted_ref(inst, prof))
        for bound in ("sup", "inf"):
            for above in (True, False):
                fill, ref = _regime_fill(inst, prof, bound, above), regime_fill_ref(inst, prof, bound, above)
                assert _same_arrays(fill[:5], ref[:5]) and _hex(fill[5:]) == _hex(ref[5:])
        kappas = np.concatenate([[box.lo, box.hi], box.lo + rng.random(6) * box.width])
        for bound in ("sup", "inf"):
            assert _bound(inst, prof, bound, kappas).tobytes() == bound_ref(inst, prof, bound, kappas).tobytes()
        for kappa in kappas[[0, 1, 2]].tolist():
            upper = bound_ref(inst, prof, "sup", np.array([kappa]))[0]
            assert float(_calibrate(inst, prof, kappa)[2]).hex() == float(upper).hex()
            env = _dual(inst, prof, kappa)
            mine = (env.upper, env.lower, env.lambda_upper, env.lambda_lower)
            assert _hex(mine) == _hex(dual_ref(inst, prof, kappa)), (inst.n, kappa)


def test_moment_row_sums():
    rng = np.random.default_rng(13)
    for _ in range(CASES):
        inst = parity_instance(rng)
        r = float(rng.choice([0.5, 1.5, 2.0, 3.0, 4.0, 5.0]))
        if not _is_odd_integer(r):   # even and fractional powers need data >= 0
            shift = float(inst.lower.min())
            inst = DiscreteInstance(inst.lower - shift, inst.upper - shift, inst.weight)
        _, low, high = _power_image(inst, r)
        s = max(float(high.max()), -float(low.min()))
        if s == 0.0:
            continue
        b = _breakpoints(inst.weight, low / s, high / s, r)
        probes = _probes(0, b.ends.size, max(1, CELLS // inst.n))
        for maximize in (False, True):
            lam, up, mid, _ = _regimes(b, probes, maximize, None)
            for row in zip(lam, up, mid):
                assert _hex(_row_sums(b, row)) == _hex(moment_row_sums_ref(b, row)), (inst.n, r)


def test_zero_row_filters():
    rng = np.random.default_rng(14)
    for _ in range(CASES):
        inst = parity_instance(rng)
        w = inst.weight
        taken = w * (rng.random(inst.n) < 0.5) * rng.choice([0.0, 0.5, 1.0], inst.n)
        cells = [(0.5 * (inst.lower + inst.upper), taken)]
        value, subweight = _cell_rows(w, cells, inst.upper)
        keep = subweight > 0.0
        scenario = np.tile(np.arange(inst.n), 2)
        sel = Selection(scenario, value, subweight)
        ref = (scenario[keep], value[keep], subweight[keep])
        assert _same_arrays((sel.scenario, sel.value, sel.subweight), ref)
        assert _rows_mean(*_cell_rows(w, cells, inst.upper)).hex() == float(np.dot(ref[1], ref[2])).hex()
        law, law_ref = StepDistribution.from_samples(value, subweight), StepDistribution.from_samples(*ref[1:])
        assert _same_arrays((law.values, law.masses), (law_ref.values, law_ref.masses))
