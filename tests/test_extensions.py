import math
import tracemalloc

import numpy as np
import pytest

from selbounds import (
    DiscreteInstance,
    InfeasibleMoment,
    InfeasibleQuantile,
    InvalidPower,
    MomentRestriction,
    QuantileRestriction,
    Selection,
    aumann_interval,
    mean_restricted_quantile_range,
    median_restricted_mean_interval,
    moment_restricted_mean_interval,
    moment_selection,
    power_image_interval,
    quantile_attainability_range,
    quantile_restricted_mean_interval,
    quantile_selection,
    oracle,
)
from selbounds.errors import InfeasibleMedian, InputError

from helpers import constant_instance, random_instance, two_state_instance

UNIT = constant_instance(0.0, 1.0)


class TestPowerImage:
    def test_square_on_unit(self):
        assert power_image_interval(UNIT, 2.0).as_tuple() == (0.0, 1.0)

    def test_identity_power(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng)
            assert power_image_interval(inst, 1.0).as_tuple() == pytest.approx(
                aumann_interval(inst).as_tuple(), abs=1e-14
            )

    def test_cube_with_negative_lowers_vs_sampling(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=4)
        iv = power_image_interval(inst, 3.0)
        # sampling oracle: random selections' third moments stay inside,
        # and the endpoint selections hit the ends
        for _ in range(300):
            frac = rng.uniform(0.0, 1.0, inst.n)
            vals = inst.lower + frac * (inst.upper - inst.lower)
            mom = float(np.dot(inst.weight, np.sign(vals) * np.abs(vals) ** 3))
            assert iv.lo - 1e-9 <= mom <= iv.hi + 1e-9
        lows = float(np.dot(inst.weight, np.sign(inst.lower) * np.abs(inst.lower) ** 3))
        assert iv.lo == pytest.approx(lows, abs=1e-12)

    def test_invalid_power(self):
        inst = DiscreteInstance.from_rows([(-1.0, 1.0, 1.0)])
        with pytest.raises(InvalidPower):
            power_image_interval(inst, 2.0)
        with pytest.raises(InvalidPower):
            power_image_interval(inst, 0.5)
        # negative orders: 1/x has no finite image on a scenario across 0
        with pytest.raises(InvalidPower):
            power_image_interval(inst, -1.0)
        pos = DiscreteInstance.from_rows([(1.0, 4.0), (2.0, 3.0)])
        with pytest.raises(InvalidPower):
            power_image_interval(pos, -1.0)
        with pytest.raises(InvalidPower):
            moment_restricted_mean_interval(pos, MomentRestriction(-1.0, 0.4))

    def test_positive_endpoints_are_not_copied(self):
        # one power of the endpoints is alive at a time, 8 B a row; the
        # copies clamped at 0 added 16 B a row on data that needs none
        from selbounds.extensions import _power_image

        rng = np.random.default_rng(71)
        n = 100_000
        lower = rng.uniform(0.0, 2.0, n) + 1e-3
        inst = DiscreteInstance(lower, lower + rng.uniform(0.0, 1.0, n), np.full(n, 1.0 / n))
        for r in (0.5, 2.0, 2.5):
            tracemalloc.start()
            try:
                power_image_interval(inst, r)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 9 * n
            _, low, high = _power_image(inst, r)
            assert low is inst.lower and high is inst.upper

    def test_negative_zero_lower_end_keeps_its_bits(self):
        # np.maximum makes a -0.0 endpoint 0.0, so it is still clamped:
        # the image and the moment interval read as with a 0.0 there
        from selbounds.extensions import _power_image

        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            lower = np.round(4 * rng.uniform(0.0, 1.0, n)) / 4
            upper = lower + np.round(4 * rng.uniform(0.0, 1.0, n)) / 4
            lower[rng.random(n) < 0.5] = 0.0
            signed = np.where(lower == 0.0, -0.0, lower)
            w = rng.uniform(0.2, 1.0, n)
            plain, negzero = (DiscreteInstance(lo, upper, w / w.sum()) for lo in (lower, signed))
            for r in (0.5, 1.5, 2.0):
                img, low, _ = _power_image(negzero, r)
                assert low.tobytes() == np.maximum(signed, 0.0).tobytes()
                assert [v.hex() for v in img.as_tuple()] == [
                    v.hex() for v in power_image_interval(plain, r).as_tuple()
                ]
                if img.width == 0.0:
                    continue
                restriction = MomentRestriction(r, img.lo + 0.37 * img.width)
                assert [v.hex() for v in moment_restricted_mean_interval(negzero, restriction).as_tuple()] == [
                    v.hex() for v in moment_restricted_mean_interval(plain, restriction).as_tuple()
                ]


class TestMomentRestrictedInterval:
    def test_unit_square_quarter(self):
        iv = moment_restricted_mean_interval(UNIT, MomentRestriction(2.0, 0.25))
        assert iv.lo == pytest.approx(0.25, abs=1e-4)
        assert iv.hi == pytest.approx(0.5, abs=1e-4)

    def test_r_one_point_identification(self):
        iv = moment_restricted_mean_interval(UNIT, MomentRestriction(1.0, 0.37))
        assert iv.as_tuple() == (0.37, 0.37)

    def test_boundary_moment_collapses(self):
        inst = DiscreteInstance.from_rows([(0.1, 0.5, 0.4), (0.6, 1.4, 0.6)])
        img = power_image_interval(inst, 2.0)
        iv = moment_restricted_mean_interval(inst, MomentRestriction(2.0, img.hi))
        assert iv.hi - iv.lo == pytest.approx(0.0, abs=1e-5)
        assert iv.hi == pytest.approx(inst.mean_upper(), abs=1e-5)

    def test_infeasible(self):
        with pytest.raises(InfeasibleMoment):
            moment_restricted_mean_interval(UNIT, MomentRestriction(2.0, 1.5))

    def test_feasibility_is_relative_to_the_image(self):
        # at scale 1e-12 and r = 3 the image is of order 1e-36: a floor of
        # 1e-9 in the data's units took a mu_r 100 image widths above it
        # for the image's edge, [8.79e-13, 8.79e-13]
        base = random_instance(np.random.default_rng(500), n=500)
        tiny = DiscreteInstance(base.lower * 1e-12, base.upper * 1e-12, base.weight)
        for inst, mu in ((base, 5e2), (tiny, 5e-34)):
            with pytest.raises(InfeasibleMoment):
                moment_restricted_mean_interval(inst, MomentRestriction(3.0, mu))

    def test_oracle_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            lo = np.abs(rng.uniform(0.0, 1.5, n))
            width = rng.uniform(0.0, 1.5, n)
            w = rng.uniform(0.2, 1.0, n)
            inst = DiscreteInstance.from_rows(list(zip(lo, lo + width, w / w.sum())))
            r = float(rng.choice([2.0, 3.0, 0.5]))
            img = power_image_interval(inst, r)
            mu = float(rng.uniform(img.lo, img.hi))
            mine = moment_restricted_mean_interval(inst, MomentRestriction(r, mu))
            ref = oracle.exact_moment_mean_bounds(inst, r, mu)
            assert mine.lo == pytest.approx(ref.lo, abs=1e-4)
            assert mine.hi == pytest.approx(ref.hi, abs=1e-4)

    def test_scale_free(self):
        # rescaling the data by s moves the interval by s, to 1e-9 of its width
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            lo, width, w = rng.uniform(0.0, 1.5, n), rng.uniform(0.0, 1.5, n), rng.uniform(0.2, 1.0, n)
            t = float(rng.uniform())

            def interval(s):
                inst = DiscreteInstance.from_rows(list(zip(s * lo, s * (lo + width), w)))
                img = power_image_interval(inst, 2.0)
                return moment_restricted_mean_interval(
                    inst, MomentRestriction(2.0, img.lo + t * img.width)
                )

            unit = interval(1.0)
            gate = 1e-9 * max(unit.width, 1e-6)
            for s in (1e-6, 1e-3, 1e3, 1e6):
                iv = interval(s)
                assert iv.lo / s == pytest.approx(unit.lo, abs=gate)
                assert iv.hi / s == pytest.approx(unit.hi, abs=gate)

    def test_inner_envelope_vs_dense_grid(self):
        # per-scenario sup of x + lam x^r against a dense value grid
        from selbounds.extensions import _scenario_envelope

        rng = np.random.default_rng(13)
        for _ in range(40):
            lo = np.array([rng.uniform(-1.5, 1.0)])
            hi = lo + rng.uniform(0.0, 2.0)
            r = float(rng.choice([3.0, 5.0]))
            lam = float(rng.uniform(-4.0, 4.0))
            got_max = _scenario_envelope(lo, hi, r, lam, True)[0]
            got_min = _scenario_envelope(lo, hi, r, lam, False)[0]
            xs = np.linspace(lo[0], hi[0], 20001)
            vals = xs + lam * np.sign(xs) * np.abs(xs) ** r
            assert got_max >= vals.max() - 1e-6
            assert got_min <= vals.min() + 1e-6
        # every order the solver takes, on nonnegative data, and lam = 0
        for r in (0.5, 1.5, 2.0, 3.0, 4.0, 5.0):
            for lam in (0.0, *rng.uniform(-4.0, 4.0, 20)):
                lo = np.array([rng.uniform(0.0, 1.5)])
                hi = lo + rng.uniform(0.0, 2.0)
                xs = np.linspace(lo[0], hi[0], 20001)
                vals = xs + lam * xs**r
                assert _scenario_envelope(lo, hi, r, lam, True)[0] >= vals.max() - 1e-6, (r, lam)
                assert _scenario_envelope(lo, hi, r, lam, False)[0] <= vals.min() + 1e-6, (r, lam)


class TestMomentSolver:
    @staticmethod
    def instance(rng, r, n):
        """Odd r across 0, r < 1 touching 0, zero widths, 0.25-grid ties."""
        odd = r in (3.0, 5.0)
        lo = rng.uniform(-1.5, 1.5, n) if odd else rng.uniform(0.0, 1.5, n)
        if r < 1.0:
            lo[0] = 0.0
        width = rng.uniform(0.0, 1.5, n) * (rng.random(n) > 0.2)
        if rng.random() < 0.3:
            lo, width = np.round(4 * lo) / 4, np.round(4 * width) / 4
        w = rng.uniform(0.2, 1.0, n)
        return DiscreteInstance(lo, lo + width, w / w.sum())

    def test_attaining_selections(self):
        # feasible, E y^r = mu_r and E y at the endpoint, each to 1e-12 relative
        from selbounds.extensions import _power

        rng = np.random.default_rng(43)
        for _ in range(120):
            r = float(rng.choice([0.5, 2.0, 2.5, 3.0, 5.0]))
            inst = self.instance(rng, r, int(rng.choice([1, 2, 5, 8, 100, 1000, 10000])))
            img = power_image_interval(inst, r)
            # the edges exactly: a few ulps inside one, the mean moves by
            # |lam*| (up to 1e7 here) per unit of moment, so no value there
            # is defined to 1e-12
            inner = [img.lo + rng.uniform() * img.width for _ in range(2)]
            mu = float(rng.choice([img.lo, img.hi, *inner]))
            restriction = MomentRestriction(r, mu)
            iv = moment_restricted_mean_interval(inst, restriction)
            moment_scale = max(abs(img.lo), abs(img.hi), 1e-300)
            mean_scale = max(abs(inst.mean_lower()), abs(inst.mean_upper()), 1e-300)
            for side, endpoint in (("max", iv.hi), ("min", iv.lo)):
                sel = moment_selection(inst, restriction, side)
                sel.validate(inst)
                moment = float(np.dot(sel.subweight, _power(sel.value, r)))
                assert abs(moment - mu) <= 1e-12 * moment_scale
                assert abs(sel.mean() - endpoint) <= 1e-12 * mean_scale

    def test_image_edges_collapse(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            r = float(rng.choice([0.5, 2.0, 2.5, 3.0, 5.0]))
            inst = self.instance(rng, r, int(rng.integers(1, 9)))
            img = power_image_interval(inst, r)
            for mu, want in ((img.lo, inst.mean_lower()), (img.hi, inst.mean_upper())):
                iv = moment_restricted_mean_interval(inst, MomentRestriction(r, mu))
                gate = 1e-12 * max(abs(want), 1e-300)
                assert abs(iv.lo - want) <= gate and abs(iv.hi - want) <= gate

    def test_side_names(self):
        with pytest.raises(InputError):
            moment_selection(UNIT, MomentRestriction(2.0, 0.25), "upper")

    @pytest.mark.parametrize("r", [3, 5, 7, 9])
    def test_tie_root_is_the_nearest_double(self, r):
        # (r-1) z^r + r z^(r-1) = 1 on (0, 1), bisected to 60 digits
        from decimal import Decimal, localcontext

        from selbounds.extensions import _tie_root

        with localcontext() as ctx:
            ctx.prec = 60
            lo, hi = Decimal(0), Decimal(1)
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if (r - 1) * mid**r + r * mid ** (r - 1) >= 1 else (mid, hi)
            assert _tie_root(r) == float(lo)
        assert _tie_root(3) == 0.5

    def test_two_objective_evaluations(self, monkeypatch):
        # the multipliers come from the sorted breakpoints; the dual
        # objective is evaluated once per side, at its multiplier
        import selbounds.extensions as ext

        calls = []
        real = ext._scenario_envelope
        monkeypatch.setattr(ext, "_scenario_envelope", lambda *a: calls.append(1) or real(*a))
        inst = self.instance(np.random.default_rng(53), 3.0, 500)
        img = power_image_interval(inst, 3.0)
        moment_restricted_mean_interval(inst, MomentRestriction(3.0, img.lo + 0.4 * img.width))
        assert len(calls) == 2


class TestMomentSearchBatches:
    """Each pass of the moment search evaluates CELLS // n segments on one
    side: every segment at once for small instances, a k-ary search for
    hundreds of scenarios, and with CELLS = 1 a bisection, one midpoint
    probe per pass.  All of them must find the same optimum."""

    @staticmethod
    def instance(rng, r, n):
        """Continuous or 0.25-grid data with zero-width and tied scenarios;
        signed for odd r, nonnegative (touching 0) otherwise."""
        odd = r in (3.0, 5.0)
        lo = rng.uniform(-1.5, 1.5, n) if odd else rng.uniform(0.0, 1.5, n)
        if not odd:
            lo[0] = 0.0
        width = rng.uniform(0.0, 1.5, n) * (rng.random(n) > 0.2)
        if rng.random() < 0.5:
            lo, width = np.round(4 * lo) / 4, np.round(4 * width) / 4
        src = np.arange(n)
        src[1:][rng.random(n - 1) < 0.15] -= 1   # a scenario tied to the one before
        lo, width = lo[src], width[src]
        w = rng.uniform(0.2, 1.0, n)
        return DiscreteInstance(lo, lo + width, w / w.sum())

    def test_one_probe_per_pass_finds_the_same_optimum(self, monkeypatch):
        import selbounds.extensions as ext
        from selbounds.cli import TOLERANCES

        rng = np.random.default_rng(59)
        for _ in range(80):
            r = float(rng.choice([0.5, 1.5, 2.0, 3.0, 4.0, 5.0]))
            inst = self.instance(rng, r, int(rng.integers(2, 301)))
            img = power_image_interval(inst, r)
            if img.width == 0.0:
                continue
            # away from the image's edges, where the mean moves by |lam*| per
            # unit of moment and no endpoint is defined to 1e-14
            mu = img.lo + float(rng.uniform(0.02, 0.98)) * img.width
            restriction = MomentRestriction(r, mu)
            batched = ext._moment_solve(inst, restriction)
            with monkeypatch.context() as patch:
                patch.setattr(ext, "CELLS", 1)
                probed = ext._moment_solve(inst, restriction)
            mean_scale = max(abs(inst.mean_lower()), abs(inst.mean_upper()), 1e-300)
            moment_scale = max(abs(img.lo), abs(img.hi), 1e-300)
            for got, want in zip(probed[0].as_tuple(), batched[0].as_tuple()):
                assert abs(got - want) <= 1e-14 * mean_scale
            for _, sides in (batched, probed):
                for dual, primal, x, theta, rest in sides:
                    assert abs(dual - primal) <= TOLERANCES["dual_gap"]
                    moment = theta * float(np.dot(inst.weight, ext._power(x, r)))
                    moment += (1.0 - theta) * float(np.dot(inst.weight, ext._power(rest, r)))
                    assert abs(moment - mu) <= 1e-12 * moment_scale

    def test_search_keeps_only_the_rows_it_reads(self, monkeypatch):
        # with one probe per pass, a pass starts with at most four mask
        # rows alive: the min side's two once it is done, and the searching
        # side's on either side of its bracket
        import weakref

        import selbounds.extensions as ext

        made, alive = [], []
        real = ext._regimes

        def regimes(b, probes, maximize, shared):
            alive.append(sum(ref() is not None for ref in made))
            out = real(b, probes, maximize, shared)
            up = out[1]
            made.append(weakref.ref(up.base if up.base is not None else up))
            return out

        monkeypatch.setattr(ext, "_regimes", regimes)
        monkeypatch.setattr(ext, "CELLS", 1)
        inst = self.instance(np.random.default_rng(67), 2.0, 2000)
        img = power_image_interval(inst, 2.0)
        moment_restricted_mean_interval(inst, MomentRestriction(2.0, img.lo + 0.37 * img.width))
        assert len(alive) > 10 and max(alive) <= 4

    def test_small_solve_shares_one_first_pass(self, monkeypatch):
        # up to 8 scenarios every segment fits one pass: its side-free
        # values are built once for both sides, each side reads them once,
        # and the dual objective is evaluated once per side
        import selbounds.extensions as ext

        built, read, evals = [], [], []
        real_free, real_regimes, real_envelope = ext._side_free, ext._regimes, ext._scenario_envelope
        monkeypatch.setattr(ext, "_side_free", lambda *a: built.append(1) or real_free(*a))
        monkeypatch.setattr(ext, "_regimes", lambda *a: read.append(a[2]) or real_regimes(*a))   # a[2]: maximize
        monkeypatch.setattr(ext, "_scenario_envelope", lambda *a: evals.append(1) or real_envelope(*a))
        rng = np.random.default_rng(61)
        for r in (0.5, 2.0, 3.0, 5.0):
            for n in (2, 5, 8):
                lo = rng.uniform(-1.0, 1.0, n) if r in (3.0, 5.0) else rng.uniform(0.0, 1.0, n)
                inst = DiscreteInstance(lo, lo + rng.uniform(0.1, 1.0, n), np.full(n, 1.0 / n))
                img = power_image_interval(inst, r)
                for calls in (built, read, evals):
                    calls.clear()
                moment_restricted_mean_interval(inst, MomentRestriction(r, img.lo + 0.4 * img.width))
                assert len(built) == 1 and read == [False, True]
                assert len(evals) == 2

    # (seed, r, n): the interval's endpoints and the min and max sides'
    # theta, as float.hex(), at mu a fraction 0.37 into the moment image
    PINNED = {
        (2, 0.5, 2): ["0x1.5e76c8b439580p-3", "0x1.d99999999999ap-2", "0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"],
        (1, 0.5, 40): ["0x1.a0a5937675431p-1", "0x1.f12f55fd358e5p-1", "0x1.0000000000000p+0", "0x1.4c176d9bc5da0p-1"],
        (1, 0.5, 300): ["0x1.b778d093bd304p-1", "0x1.07a5938590ab9p+0", "0x1.0000000000000p+0", "0x1.dbb44aeadfd71p-1"],
        (2, 2.0, 5): ["0x1.59477f8365357p-1", "0x1.b3eb394ea27bep-1", "0x1.57e18968dd249p-2", "0x1.0000000000000p+0"],
        (2, 2.0, 40): ["0x1.b57c1c411939fp-1", "0x1.fed7629b40396p-1", "0x1.dd73dd2190b18p-1", "0x1.0000000000000p+0"],
        (3, 2.0, 300): ["0x1.d4e428c02727dp-1", "0x1.12dafcddd71bep+0", "0x1.a04fcfe064d8bp-1", "0x1.0000000000000p+0"],
        (2, 3.0, 2): ["-0x1.34dd72d1814e0p-1", "-0x1.14dbf86a314ddp-2", "0x1.0000000000000p+0", "0x1.b491cdda7ed74p-2"],
        (1, 3.0, 40): ["-0x1.d946d4cd34cb2p-4", "0x1.8c93ea3fcd47fp-2", "0x1.3a305ae51f580p-3", "0x1.0000000000000p+0"],
        (1, 3.0, 300): ["0x1.40b8f73cd8897p-6", "0x1.8c46a09dcd032p-2", "0x1.fdfe842999846p-2", "0x1.0000000000000p+0"],
        (2, 5.0, 5): ["-0x1.46a81de257928p-3", "0x1.7756098959d67p-4", "0x1.0000000000000p+0", "0x1.fe2c4f2e6da66p-3"],
        (2, 5.0, 40): ["-0x1.22f95b605fb27p-5", "0x1.88585a80c1b10p-2", "0x1.304dc1edb16b2p-1", "0x1.0000000000000p+0"],
        (3, 5.0, 300): ["0x1.8284f8321bc8bp-4", "0x1.15b07b76456eap-1", "0x1.6e1bcc574b26ap-3", "0x1.0000000000000p+0"],
        # past CELLS / 2 scenarios every pass probes one segment
        (2, 2.0, 3000): ["0x1.ce51d995ba480p-1", "0x1.1568ff377cfe6p+0", "0x1.2dc0f97e1ca25p-2", "0x1.0000000000000p+0"],
        (4, 3.0, 3000): ["0x1.71d0d672329f6p-4", "0x1.f2e1daa7767abp-2", "0x1.3721882e109ddp-5", "0x1.43b9a50891210p-3"],
    }

    @pytest.mark.parametrize("r", [0.5, 2.0, 3.0, 5.0])
    def test_blocks_keep_every_bit(self, monkeypatch, r):
        # past _BLOCK scenarios the data is read unscaled and divided, and
        # the endpoint values and the dual's candidates are built a block
        # at a time: every answer and selection keeps its bits
        import selbounds.extensions as ext

        rng = np.random.default_rng(79)
        for n in (40, 300, 3000):
            inst = self.instance(rng, r, n)
            img = power_image_interval(inst, r)
            if img.width == 0.0:
                continue
            restriction = MomentRestriction(r, img.lo + float(rng.uniform(0.02, 0.98)) * img.width)
            runs = [ext._moment_solve(inst, restriction)]
            for block in (64, 1000):
                with monkeypatch.context() as patch:
                    patch.setattr(ext, "_BLOCK", block)
                    runs.append(ext._moment_solve(inst, restriction))
            for iv, sides in runs[1:]:
                assert [v.hex() for v in iv.as_tuple()] == [v.hex() for v in runs[0][0].as_tuple()]
                for (dual, primal, x, theta, rest), want in zip(sides, runs[0][1]):
                    assert [dual.hex(), primal.hex(), theta.hex()] == [v.hex() for v in (want[0], want[1], want[3])]
                    assert x.tobytes() == want[2].tobytes() and rest.tobytes() == want[4].tobytes()

    @pytest.mark.parametrize("seed, r, n", list(PINNED))
    def test_answers_keep_their_bits(self, seed, r, n):
        # random and 0.25-grid data, each case with a jump on one side or both
        import selbounds.extensions as ext

        inst = self.instance(np.random.default_rng(seed), r, n)
        img = power_image_interval(inst, r)
        iv, (low, high) = ext._moment_solve(inst, MomentRestriction(r, img.lo + 0.37 * img.width))
        assert [v.hex() for v in (*iv.as_tuple(), low[3], high[3])] == self.PINNED[seed, r, n]


class TestQuantileFeasibility:
    def test_constant_inside(self):
        assert quantile_attainability_range(UNIT, 0.3).contains(0.5)

    def test_below_range(self):
        assert not quantile_attainability_range(UNIT, 0.3).contains(-0.2)

    def test_chi2_target_median(self):
        from selbounds import ComonotoneSpec, discretize, parse_law

        inst = discretize(ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), 5001))
        assert quantile_attainability_range(inst, 0.5).contains(3.46)


class TestQuantileRestrictedInterval:
    def test_median_coincidence_exact(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 60:
            inst = random_instance(rng)
            band = quantile_attainability_range(inst, 0.5)
            q = float(rng.uniform(band.lo, band.hi))
            try:
                med = median_restricted_mean_interval(inst, q)
            except InfeasibleMedian:
                continue
            qua = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, q))
            assert qua.lo == med.lo and qua.hi == med.hi  # bit-identical
            done += 1

    def test_constant_quarter_level(self):
        iv = quantile_restricted_mean_interval(UNIT, QuantileRestriction(0.25, 0.5))
        # cap a quarter of the mass at 0.5, rest at the upper endpoint
        assert iv.hi == pytest.approx(0.875, abs=1e-12)
        ref = oracle.exact_quantile_mean_bounds(UNIT, 0.25, 0.5)
        assert iv.hi == pytest.approx(ref.hi, abs=1e-12)
        assert iv.lo == pytest.approx(ref.lo, abs=1e-12)

    def test_oracle_agreement_randoms(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            inst = random_instance(rng)
            alpha = float(rng.uniform(0.05, 0.95))
            band = quantile_attainability_range(inst, alpha)
            q = float(rng.uniform(band.lo, band.hi))
            try:
                mine = quantile_restricted_mean_interval(inst, QuantileRestriction(alpha, q))
            except InfeasibleQuantile:
                with pytest.raises(InfeasibleQuantile):
                    oracle.exact_quantile_mean_bounds(inst, alpha, q)
                continue
            ref = oracle.exact_quantile_mean_bounds(inst, alpha, q)
            assert mine.lo == pytest.approx(ref.lo, abs=1e-9)
            assert mine.hi == pytest.approx(ref.hi, abs=1e-9)

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleQuantile):
            quantile_restricted_mean_interval(UNIT, QuantileRestriction(0.5, 2.0))


def _mixture(y1, y2, theta):
    """Law-level mixture: every scenario's weight split theta / (1 - theta)."""
    return Selection(
        np.concatenate([y1.scenario, y2.scenario]),
        np.concatenate([y1.value, y2.value]),
        np.concatenate([y1.subweight * theta, y2.subweight * (1.0 - theta)]),
    )


class TestMixture:
    def _two_restricted(self, inst, alpha, q1_frac=0.3):
        band = quantile_attainability_range(inst, alpha)
        q = band.lo + q1_frac * band.width
        y1 = quantile_selection(inst, alpha, q)
        # a second restricted selection: nudge free mass toward the top
        y2 = quantile_selection(inst, alpha, q)
        return q, y1, y2

    def test_theta_endpoints(self):
        inst = two_state_instance()
        q, y1, y2 = self._two_restricted(inst, 0.5)
        mix0 = _mixture(y1, y2, 0.0)
        mix1 = _mixture(y1, y2, 1.0)
        for mix in (mix0, mix1):
            mix.validate(inst)
        assert mix0.law().values.tolist() == y2.law().values.tolist()
        assert mix1.law().values.tolist() == y1.law().values.tolist()

    def test_midpoint_mixture_preserves_quantile(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            inst = random_instance(rng)
            alpha = float(rng.uniform(0.1, 0.9))
            band = quantile_attainability_range(inst, alpha)
            q = float(rng.uniform(band.lo, band.hi))
            y1 = quantile_selection(inst, alpha, q)
            # different second selection: mix endpoints off the contact set
            iv = quantile_restricted_mean_interval(inst, QuantileRestriction(alpha, q))
            y2 = quantile_selection(inst, alpha, q)
            theta = float(rng.uniform(0.0, 1.0))
            mix = _mixture(y1, y2, theta)
            mix.validate(inst)
            assert mix.law().quantile(alpha) == q
            want = theta * y1.mean() + (1.0 - theta) * y2.mean()
            assert mix.mean() == pytest.approx(want, abs=1e-12)


class TestMeanRestrictedQuantileRange:
    def test_no_shrink_two_state(self):
        rng_q = mean_restricted_quantile_range(two_state_instance(), 0.5, 0.0)
        assert rng_q.as_tuple() == (-2.0, 0.0)

    def test_endpoint_on_upward_jump(self):
        # weights 1/4 each on [0,3], [0,3], [1,1], [2,3]; alpha = 1/2.
        # E_max(q) = 1 + q/2 on [0,1) and jumps to 2 at q = 1, where the
        # zero-width scenario supplies the capped mass at no cost; so with
        # kappa = 1.6 inside the jump the lower end is exactly 1.  E_min(q)
        # = 1/4 + q/2 on (2,3] meets 1.6 at q = 2.7.
        inst = DiscreteInstance.from_rows(
            [(0.0, 3.0, 0.25), (0.0, 3.0, 0.25), (1.0, 1.0, 0.25), (2.0, 3.0, 0.25)]
        )
        got = mean_restricted_quantile_range(inst, 0.5, 1.6)
        assert got.lo == 1.0
        assert got.hi == pytest.approx(2.7, abs=1e-12)
        at_jump = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, 1.0))
        assert at_jump.as_tuple() == (0.75, 2.0)
        below = quantile_restricted_mean_interval(inst, QuantileRestriction(0.5, 1.0 - 1e-9))
        assert below.hi < 1.6

    def test_bisection_call_count(self, monkeypatch):
        # one monotone bisection per endpoint, not a scan over every
        # breakpoint; each probe fills only the side its test reads, and a
        # crossing reads its segment's line from one partition and one fill
        # at the midpoint, so every partition gets exactly one fill
        import selbounds.extensions as ext
        import selbounds.median as med

        parts, fills = [], []
        real_partition, real_fill = med.partition, ext._pivot_fill
        counted = lambda *a: parts.append(a[1]) or real_partition(*a)
        for module in (ext, med):
            monkeypatch.setattr(module, "partition", counted)
        monkeypatch.setattr(ext, "_pivot_fill", lambda *a: fills.append(a[1].m) or real_fill(*a))
        inst = random_instance(np.random.default_rng(37), n=2000)
        box = aumann_interval(inst)
        band = quantile_attainability_range(inst, 0.5)
        ends = np.unique(np.concatenate([inst.lower, inst.upper]))
        breakpoints = int(np.count_nonzero((ends >= band.lo) & (ends <= band.hi)))
        assert breakpoints > 500
        # at 40% of the mean box both ends are band ends; at 2% the lower
        # one is a crossing inside a segment, partitioned last
        for frac, crossings in ((0.4, 0), (0.02, 1)):
            parts.clear()
            fills.clear()
            kappa = box.lo + frac * box.width
            got = mean_restricted_quantile_range(inst, 0.5, kappa)
            probes = parts[: len(parts) - crossings]
            assert len(probes) <= 2 * math.ceil(math.log2(breakpoints + 1)) + 2
            assert set(probes) <= set(ends) | {band.lo, band.hi}
            assert fills == parts
            for q in (got.lo, got.hi):
                iv = med.pivot_mean_interval(inst, q, 0.5, 0.5)
                assert iv.lo - 1e-9 <= kappa <= iv.hi + 1e-9

    def test_inside_attainability(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            inst = random_instance(rng)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            alpha = float(rng.uniform(0.1, 0.9))
            got = mean_restricted_quantile_range(inst, alpha, kappa)
            band = quantile_attainability_range(inst, alpha)
            assert band.contains_interval(got, tol=1e-9)

    def test_boundary_is_sharp(self):
        # q strictly inside the reported range is feasible with the mean
        # pin; q beyond it by a margin is not (the endpoints themselves are
        # closure points and may sit on an upward jump)
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng)
            box = aumann_interval(inst)
            kappa = float(rng.uniform(box.lo, box.hi))
            alpha = float(rng.uniform(0.1, 0.9))
            got = mean_restricted_quantile_range(inst, alpha, kappa)
            pad = 1e-7 * max(1.0, got.width)
            if got.width > 10 * pad:
                for q in np.linspace(got.lo + pad, got.hi - pad, 7):
                    iv = quantile_restricted_mean_interval(
                        inst, QuantileRestriction(alpha, float(q))
                    )
                    assert iv.lo - 1e-7 <= kappa <= iv.hi + 1e-7
            band = quantile_attainability_range(inst, alpha)
            eps = 1e-5 * max(1.0, band.width)
            if got.hi + eps < band.hi:
                iv = quantile_restricted_mean_interval(
                    inst, QuantileRestriction(alpha, got.hi + eps)
                )
                assert not (iv.lo - 1e-12 <= kappa <= iv.hi + 1e-12)
            if got.lo - eps > band.lo:
                iv = quantile_restricted_mean_interval(
                    inst, QuantileRestriction(alpha, got.lo - eps)
                )
                assert not (iv.lo - 1e-12 <= kappa <= iv.hi + 1e-12)
