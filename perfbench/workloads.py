"""The benchmark's three workloads: inputs, ops, output checks, metrics.

Each workload is a closed loop with one client in one process and no
threads: the next op starts when the previous one returns.  Its class
records why it exists, its sizes and its op list, so that a performance
change can cite them.  All inputs come from the seed; the program sees
only the generated data, through its public entry points (``cli.main``,
``cli.export_curves`` and the library functions).

Interface used by ``run.py``:

- ``prepare(seed, sizes, work)``: generate the benchmark's inputs (not timed);
- ``build(inputs)``: program-side set-up, timed as part of ``setup_s``;
- ``params(inputs, state)``: request parameters derived from the inputs
  (not timed);
- ``ops(inputs, state, params)``: one pass, as a list of (kind, callable);
- ``output(kind, value, params, first)``: turn an op's return value into
  the output that the checks see (not timed); ``first`` marks the pass
  whose outputs are checked in full, later passes are compared with it;
- ``check(ctx)``: the output checks of a run, outside the timed phase;
- ``metrics(passes)``: the workload's own end-to-end metrics.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import selbounds as sb
from selbounds import cli, oracle

TARGET = [[1.0, 2.0], [3.0, 3.5]]
TARGET_ARG = "[[1,2],[3,3.5]]"


def _median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=float)))


def _scenarios(rng, n: int):
    """lower ~ U(0,4), width ~ Exp(1), weight ~ U(0.1,1).

    Lowers are nonnegative so that even moment powers (r = 2) are valid.
    """
    lower = rng.uniform(0.0, 4.0, n)
    upper = lower + rng.exponential(1.0, n)
    weight = rng.uniform(0.1, 1.0, n)
    return lower, upper, weight


def _instance(lower, upper, weight):
    return sb.normalize(sb.DiscreteInstance(lower, upper, weight))


def _mean_pin(inst) -> float:
    """kappa at 70% of the mean box."""
    box = sb.aumann_interval(inst)
    return box.lo + 0.7 * box.width


def _tol(*xs) -> float:
    return 1e-9 * max([1.0] + [abs(x) for x in xs])


def _ordered(iv) -> bool:
    return iv["lo"] <= iv["hi"]


def _inside(inner, outer) -> bool:
    tol = _tol(outer["lo"], outer["hi"])
    return _ordered(inner) and outer["lo"] - tol <= inner["lo"] and inner["hi"] <= outer["hi"] + tol


def _intervals(node):
    """Every {lo, hi} object in a report, depth first."""
    if isinstance(node, dict):
        if "lo" in node and "hi" in node:
            yield node
        for value in node.values():
            yield from _intervals(value)
    elif isinstance(node, list):
        for value in node:
            yield from _intervals(value)


class OneshotReport:
    """An analyst running one report per data file.

    Why: dominated by CSV parsing, which happens six times per pass
    counting the ``--alpha`` rebuild, and by ``ChiSquare.ppf``, most of the
    chi-square example.  Each restriction is answered only once, so
    sort-once batching should leave this workload flat.

    Sizes: one 200,000-row CSV (lower ~ U(0,4), width ~ Exp(1),
    weight ~ U(0.1,1)) written before timing; chi-square grid 200,001.

    Ops, one pass = six in-process ``cli.main`` calls, each with ``--out``:
    ``bounds --alpha 0.25``; ``restrict-median`` with ``--m`` at the
    midpoint of the median benchmark; ``restrict-mean-prob`` with
    ``--kappa`` at 70% of the mean box and ``--target '[[1,2],[3,3.5]]'``;
    ``restrict-moment --r 2`` with ``--mu`` at 37% of the power image;
    ``restrict-quantile --alpha 0.25`` with ``--q`` at the midpoint of the
    attainability range; ``example-chi2 --grid 200001``.
    """

    name = "oneshot-report"
    sizes = {"rows": 200_000, "chi2_grid": 200_001}
    smoke_sizes = {"rows": 2_000, "chi2_grid": 20_001}
    metric_units = {
        "bounds_s": "s", "median_s": "s", "meanprob_s": "s",
        "moment_s": "s", "quantile_s": "s", "chi2_s": "s",
    }

    @staticmethod
    def half(sizes):
        return {"rows": sizes["rows"] // 2, "chi2_grid": (sizes["chi2_grid"] - 1) // 2 + 1}

    def prepare(self, seed, sizes, work: Path):
        rng = np.random.default_rng(seed)
        lower, upper, weight = _scenarios(rng, sizes["rows"])
        path = work / f"oneshot-{sizes['rows']}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lower,upper,weight\n")
            for i in range(0, lower.size, 20_000):
                rows = zip(*(a[i:i + 20_000].tolist() for a in (lower, upper, weight)))
                # repr is the shortest round-trip form: the parser sees these exact floats
                fh.write("".join(f"{l!r},{u!r},{w!r}\n" for l, u, w in rows))
        return {"csv": path, "arrays": (lower, upper, weight), "grid": sizes["chi2_grid"], "work": work}

    def build(self, inputs):
        return None

    def params(self, inputs, state):
        inst = _instance(*inputs["arrays"])
        med = sb.median_benchmark(inst)
        image = sb.power_image_interval(inst, 2.0)
        attain = sb.quantile_attainability_range(inst, 0.25)
        return {
            "m": 0.5 * (med.lo + med.hi),
            "kappa": _mean_pin(inst),
            "mu": image.lo + 0.37 * image.width,
            "q": 0.5 * (attain.lo + attain.hi),
        }

    def ops(self, inputs, state, p):
        src = ["--input", str(inputs["csv"])]
        commands = [
            ("bounds", ["bounds", *src, "--alpha", "0.25"]),
            ("median", ["restrict-median", *src, "--m", repr(p["m"])]),
            ("meanprob", ["restrict-mean-prob", *src, "--kappa", repr(p["kappa"]), "--target", TARGET_ARG]),
            ("moment", ["restrict-moment", *src, "--r", "2", "--mu", repr(p["mu"])]),
            ("quantile", ["restrict-quantile", *src, "--alpha", "0.25", "--q", repr(p["q"])]),
            ("chi2", ["example-chi2", "--grid", str(inputs["grid"])]),
        ]
        out = []
        for kind, argv in commands:
            path = inputs["work"] / f"report-{kind}.json"
            path.unlink(missing_ok=True)
            out.append((kind, lambda argv=argv, path=path: (cli.main([*argv, "--out", str(path)]), path)))
        return out

    def output(self, kind, value, p, first):
        rc, path = value
        return rc, (path.read_bytes() if path.exists() else b"")

    def check(self, ctx):
        for pass_idx, results in enumerate(ctx.passes):
            for op_idx, res in enumerate(results):
                if res.error:
                    continue
                first = ctx.passes[0][op_idx].output
                ok = res.output[0] == 0 and (pass_idx == 0 or first == res.output)
                if ok and pass_idx == 0:
                    ok = bool(ctx.check_op(res.kind, lambda r=res: self._check_report(
                        r.kind, json.loads(r.output[1]), ctx.params)))
                ctx.record(pass_idx, op_idx, ok)

    @staticmethod
    def _check_report(kind, report, p) -> bool:
        if not all(_ordered(iv) for iv in _intervals(report)):
            return False
        if kind == "chi2":
            box = report["mean_interval"]
            return (
                abs(report["median_lower"] - 1.386) <= 1e-3
                and abs(report["median_upper"] - 4.351) <= 1e-3
                and _inside(report["restricted_interval"], box)
                and _inside(report["cost_terms_discrete"]["implied"], box)
            )
        box = report["benchmark"]["mean"]
        restricted = report["restricted"] or {}
        if report["feasibility"]["status"] != "ok":
            return False
        if kind == "bounds":
            return "quantile_attainability" in report["benchmark"]
        if kind == "median":
            implied = restricted.get("marginal_cost_terms", {}).get("implied", box)
            return _inside(restricted["median_mean"], box) and _inside(implied, box)
        if kind == "meanprob":
            gap = report["provenance"]["tolerances"]["dual_gap"]
            prob, dual = restricted["probability"], restricted["probability_dual"]
            return (
                _inside(report["benchmark"]["probability"], {"lo": 0.0, "hi": 1.0})
                and _inside(prob, report["benchmark"]["probability"])
                and abs(dual["lo"] - prob["lo"]) <= gap
                and abs(dual["hi"] - prob["hi"]) <= gap
                and abs(restricted["selection_mean"] - p["kappa"]) <= _tol(p["kappa"])
            )
        if kind == "moment":
            return _inside(restricted["moment_mean"], box)
        if kind == "quantile":
            return _inside(restricted["quantile_mean"], box) and _ordered(restricted["attainability"])
        return False

    def metrics(self, passes):
        ops = [r for results in passes for r in results]
        return {f"{kind}_s": _median([r.seconds for r in ops if r.kind == kind])
                for kind in ("bounds", "median", "meanprob", "moment", "quantile", "chi2")}


class CurveSweep:
    """Many queries against one instance.

    Why: this is where one sort serving many pivots pays off and where
    quadratic paths show.  There is no parsing and no ``laws``.

    Sizes: one 50,000-scenario instance of the oneshot law, built once in
    memory as set-up; two seeded quantile-range instances of 1,000 and
    2,000 scenarios.

    Ops, one pass: ``cli.export_curves`` with a median restriction at the
    median-benchmark midpoint (a 201-point pivot curve); ``cli.export_curves``
    with a mean pin at 70% of the mean box and target ``[[1,2],[3,3.5]]``
    (a 201-point kappa curve); ``extensions.mean_restricted_quantile_range``
    at alpha 0.5 and kappa at 70% of the mean box, on the 1,000- and the
    2,000-scenario instance.
    """

    name = "curve-sweep"
    sizes = {"curve_n": 50_000, "qrange_n": (1_000, 2_000)}
    smoke_sizes = {"curve_n": 2_000, "qrange_n": (100, 200)}
    metric_units = {"median_curve_s": "s", "meanpin_curve_s": "s", "qrange_s": "s"}
    SAMPLED_ROWS = 8

    @staticmethod
    def half(sizes):
        return {"curve_n": sizes["curve_n"] // 2, "qrange_n": tuple(n // 2 for n in sizes["qrange_n"])}

    def prepare(self, seed, sizes, work: Path):
        rng = np.random.default_rng(seed)
        curve = _scenarios(rng, sizes["curve_n"])
        qrange = [_scenarios(rng, n) for n in sizes["qrange_n"]]
        rows = np.sort(rng.choice(np.arange(1, 200), self.SAMPLED_ROWS - 2, replace=False))
        return {"curve": curve, "qrange": qrange, "rows": [0, *rows.tolist(), 200], "work": work}

    def build(self, inputs):
        return {
            "curve": _instance(*inputs["curve"]),
            "qrange": [_instance(*arrays) for arrays in inputs["qrange"]],
        }

    def params(self, inputs, state):
        inst = state["curve"]
        med = sb.median_benchmark(inst)
        return {
            "m": 0.5 * (med.lo + med.hi),
            "kappa": _mean_pin(inst),
            "qrange_kappa": [_mean_pin(q) for q in state["qrange"]],
            "target": sb.TargetSet.from_pairs(TARGET),
            "work": inputs["work"],
            "rows": inputs["rows"],
        }

    def ops(self, inputs, state, p):
        inst, work = state["curve"], p["work"]
        median_req = cli.AnalysisRequest(restriction=("median", p["m"]))
        mean_req = cli.AnalysisRequest(restriction=("mean", p["kappa"]), target=p["target"])
        out = [
            ("median_curve", lambda: cli.export_curves(median_req, inst, work / "median")),
            ("meanpin_curve", lambda: cli.export_curves(mean_req, inst, work / "meanpin")),
        ]
        for q_inst, kappa in zip(state["qrange"], p["qrange_kappa"]):
            out.append(("qrange", lambda q=q_inst, k=kappa: sb.mean_restricted_quantile_range(q, 0.5, k)))
        return out

    def output(self, kind, value, p, first):
        if kind == "qrange":
            return (value.lo, value.hi)
        return tuple(Path(path).read_bytes() for path in value)

    def check(self, ctx):
        state, p = ctx.state, ctx.params
        for pass_idx, results in enumerate(ctx.passes):
            for op_idx, res in enumerate(results):
                if res.error:
                    continue
                ok = pass_idx == 0 or ctx.passes[0][op_idx].output == res.output
                if ok and pass_idx == 0:
                    if res.kind == "qrange":
                        q_idx = [r.kind for r in results[:op_idx]].count("qrange")
                        fn = lambda i=q_idx, o=res.output: self._check_qrange(
                            state["qrange"][i], p["qrange_kappa"][i], o)
                    else:
                        fn = lambda r=res: self._check_curve(r.kind, r.output, state["curve"], p)
                    ok = bool(ctx.check_op(res.kind, fn))
                ctx.record(pass_idx, op_idx, ok)

    @staticmethod
    def _check_qrange(inst, kappa, out) -> bool:
        lo, hi = out
        q_mid = 0.5 * (lo + hi)
        iv = sb.quantile_restricted_mean_interval(inst, sb.QuantileRestriction(0.5, q_mid))
        return lo <= hi and iv.lo - _tol(kappa) <= kappa <= iv.hi + _tol(kappa)

    def _check_curve(self, kind, files, inst, p) -> bool:
        bounds = next(f for f in files if f.startswith(b"# m\t") or f.startswith(b"# kappa\t"))
        table = np.loadtxt(bounds.decode().splitlines(), comments="#", delimiter="\t", ndmin=2)
        if table.shape != (201, 3):
            return False
        if kind == "median_curve":
            med = sb.median_benchmark(inst)
            grid = np.linspace(med.lo, med.hi, 201)
            fresh = lambda x: sb.median_restricted_mean_interval(inst, x)
        else:
            box = sb.aumann_interval(inst)
            grid = np.linspace(box.lo, box.hi, 201)
            fresh = lambda x: sb.mean_restricted_prob_bounds(inst, p["target"], x)
        for i in p["rows"]:
            x = float(grid[i])
            iv = fresh(x)
            # 1e-12 relative, on top of the 12-significant-digit TSV rounding
            for got, want in zip(table[i], (x, iv.lo, iv.hi)):
                if abs(got - want) > 6e-12 * max(1.0, abs(want)):
                    return False
        return True

    def metrics(self, passes):
        def per_pass(kind):
            return _median([sum(r.seconds for r in res if r.kind == kind) for res in passes])

        return {"median_curve_s": per_pass("median_curve"), "meanpin_curve_s": per_pass("meanpin_curve"),
                "qrange_s": per_pass("qrange")}


class DeskMany:
    """Simulation-style traffic over about 600 seeded small instances.

    Why: per-call overhead and the scalar searches dominate here, not
    n log n; a batched kernel with a larger constant shows up as a
    regression.  The ``median``, ``events`` and ``extensions`` layers are
    used differently from the other two workloads.

    Sizes: 600 instances of 2 to 8 scenarios; lowers on 0.25 * {0..16} and
    widths on 0.25 * {0..8}, so ties and zero-width scenarios occur;
    weights ~ U(0.1,1); one mixing weight theta ~ U(0,1) per instance.

    Ops, one op = one fixed call list on one instance: build the instance;
    median benchmark and the median interval at its midpoint; the extremal
    (max and min) and the mixed selection at theta; the quantile interval
    at alpha 0.25 and the attainability midpoint; probability bounds,
    ``calibrate_mean`` and ``dual_envelope`` for target ``[[1,2],[3,3.5]]``
    at kappa = 70% of the mean box; the moment interval with r = 2 at 37%
    of the power image.

    Checks: median, quantile and probability answers agree with ``oracle``
    to 1e-9, 1e-9 and 1e-6; the moment interval contains the mesh oracle's
    interval (whose selections are feasible) on every ``MOMENT_ORACLE_STRIDE``-th
    instance with at most 6 scenarios, a fixed sample that keeps the check
    phase short; two-sided differences above 1e-4 are counted, not failed.
    """

    name = "desk-many"
    sizes = {"instances": 600, "scenarios": (2, 8)}
    smoke_sizes = {"instances": 24, "scenarios": (2, 8)}
    metric_units = {"desk_ops_per_s": "1/s", "desk_p50_ms": "ms", "desk_p99_ms": "ms", "desk_samples": "count"}
    MOMENT_ORACLE_STRIDE = 4
    half = None  # instance sizes are the point of this workload; no scaling exponents

    def prepare(self, seed, sizes, work: Path):
        rng = np.random.default_rng(seed)
        lo_n, hi_n = sizes["scenarios"]
        out = []
        for _ in range(sizes["instances"]):
            n = int(rng.integers(lo_n, hi_n + 1))
            lower = 0.25 * rng.integers(0, 17, n)
            upper = lower + 0.25 * rng.integers(0, 9, n)
            out.append((lower, upper, rng.uniform(0.1, 1.0, n), float(rng.uniform())))
        return {"instances": out}

    def build(self, inputs):
        return None

    def params(self, inputs, state):
        return {"target": sb.TargetSet.from_pairs(TARGET)}

    @staticmethod
    def _desk_op(lower, upper, weight, theta, target):
        inst = _instance(lower, upper, weight)
        med = sb.median_benchmark(inst)
        m = 0.5 * (med.lo + med.hi)
        median_iv = sb.median_restricted_mean_interval(inst, m)
        sel_max = sb.extremal_selection(inst, m, "max")
        sel_min = sb.extremal_selection(inst, m, "min")
        mixed = sb.mixed_selection(inst, m, theta)
        attain = sb.quantile_attainability_range(inst, 0.25)
        q = 0.5 * (attain.lo + attain.hi)
        quantile_iv = sb.quantile_restricted_mean_interval(inst, sb.QuantileRestriction(0.25, q))
        kappa = _mean_pin(inst)
        prob_iv = sb.mean_restricted_prob_bounds(inst, target, kappa)
        cal = sb.calibrate_mean(inst, target, kappa)
        env = sb.dual_envelope(inst, target, kappa)
        image = sb.power_image_interval(inst, 2.0)
        mu = image.lo + 0.37 * image.width
        moment_iv = sb.moment_restricted_mean_interval(inst, sb.MomentRestriction(2.0, mu))
        return {
            "inst": inst, "m": m, "median": median_iv, "sel_max": sel_max, "sel_min": sel_min,
            "mixed": mixed, "theta": theta, "q": q, "quantile": quantile_iv, "kappa": kappa,
            "prob": prob_iv, "cal": cal, "env": env, "mu": mu, "moment": moment_iv,
        }

    def ops(self, inputs, state, p):
        return [("desk", lambda a=arrays: self._desk_op(*a, p["target"])) for arrays in inputs["instances"]]

    def output(self, kind, value, p, first):
        # only the first pass is checked against the oracle; later passes
        # keep a digest, so the harness does not set the peak memory
        digest = hashlib.sha256(np.asarray(self._fingerprint(value), dtype=float).tobytes()).digest()
        return dict(value, digest=digest) if first else {"digest": digest}

    @staticmethod
    def _fingerprint(r):
        """Every number an op returned, for the determinism check."""
        sels = [r[k] for k in ("sel_max", "sel_min", "mixed")] + [r["cal"].selection]
        return (
            [r[k].lo for k in ("median", "quantile", "prob", "moment")]
            + [r[k].hi for k in ("median", "quantile", "prob", "moment")]
            + [r["env"].lower, r["env"].upper, r["cal"].lambda_star, r["cal"].probability]
            + [x for s in sels for x in (s.scenario.tolist() + s.value.tolist() + s.subweight.tolist())]
        )

    def check(self, ctx):
        first = [None if r.error else r.output["digest"] for r in ctx.passes[0]]
        disagreements = 0
        for pass_idx, results in enumerate(ctx.passes):
            for op_idx, res in enumerate(results):
                if res.error:
                    continue
                if pass_idx > 0:
                    ctx.record(pass_idx, op_idx, res.output["digest"] == first[op_idx])
                    continue
                use_moment = op_idx % self.MOMENT_ORACLE_STRIDE == 0 and res.output["inst"].n <= 6
                verdict = ctx.check_op("desk", lambda r=res.output: self._check_op(r, ctx.params, use_moment)) or {}
                disagreements += verdict.get("disagree", 0)
                ctx.record(pass_idx, op_idx, verdict.get("ok", False))
        ctx.counters["oracle.moment_disagreements"] = disagreements

    @staticmethod
    def _check_op(r, p, use_moment) -> dict:
        inst, m, q, kappa = r["inst"], r["m"], r["q"], r["kappa"]

        def close(iv, ref, tol):
            return abs(iv.lo - ref.lo) <= tol and abs(iv.hi - ref.hi) <= tol

        tol = _tol(*r["median"].as_tuple())
        ok = close(r["median"], oracle.exact_median_mean_bounds(inst, m), tol)
        ok &= close(r["quantile"], oracle.exact_quantile_mean_bounds(inst, 0.25, q), tol)
        ok &= close(r["prob"], oracle.exact_prob_bounds(inst, p["target"], kappa), 1e-6)
        gap = cli.TOLERANCES["dual_gap"]
        ok &= abs(r["env"].lower - r["prob"].lo) <= gap and abs(r["env"].upper - r["prob"].hi) <= gap
        # attaining selections: feasible, and their means hit the endpoints
        for sel, want in ((r["sel_max"], r["median"].hi), (r["sel_min"], r["median"].lo),
                          (r["mixed"], r["theta"] * r["median"].hi + (1 - r["theta"]) * r["median"].lo),
                          (r["cal"].selection, kappa)):
            try:
                sel.validate(inst)
            except sb.SelectionMismatch:
                return {"ok": False}
            ok &= abs(sel.mean() - want) <= tol
        ok &= abs(r["cal"].probability - r["prob"].hi) <= 1e-12
        disagree = 0
        if use_moment:
            ref = oracle.exact_moment_mean_bounds(inst, 2.0, r["mu"])
            ok &= r["moment"].contains_interval(ref, tol=tol)
            disagree = int(max(abs(ref.lo - r["moment"].lo), abs(ref.hi - r["moment"].hi)) > 1e-4)
        return {"ok": bool(ok), "disagree": disagree}

    def metrics(self, passes):
        times = np.array([r.seconds for res in passes for r in res])
        return {
            "desk_ops_per_s": times.size / float(times.sum()),
            "desk_p50_ms": 1e3 * float(np.percentile(times, 50)),
            "desk_p99_ms": 1e3 * float(np.percentile(times, 99)),
            "desk_samples": int(times.size),
        }


WORKLOADS = {w.name: w for w in (OneshotReport(), CurveSweep(), DeskMany())}
