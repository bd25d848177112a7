"""selbounds benchmark: one workload per invocation, result JSON on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
passes of the workload's op list until the timed phase has lasted
``--seconds`` (and at least two passes), then checks every output outside
the timed phase.  ``--trace 1`` runs every op untraced and then, right
after, traced; then, where the workload defines one, a traced pass at
half size for the scaling exponents; and reports the per-layer metrics.
The line before the result holds the workload's own metrics by name
(``error_rate``, the per-command and per-op timings) with the run's
provenance.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and
checks that every named metric is emitted with a unit and that no op
failed.  It does not check timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# The workloads are single-threaded.  On a small shared machine OpenBLAS's
# spinning helper threads triple the wall time whenever another process
# takes a core, so BLAS is pinned to one thread before numpy is imported.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Gated end-to-end metrics: the ones every workload emits.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run; suffixes: .s time inside calls,
# .self_s that minus child spans, .calls call count, .exp log2(t(n)/t(n/2)).
LAYER_METRICS = [
    "cli.parse_csv.s", "cli.parse_csv.calls", "cli.parse_csv.exp", "cli.input_digest.s",
    "cli.run.self_s", "cli.export_curves.self_s", "cli.chi2_example.self_s",
    "laws.ppf.s", "laws.ppf.calls", "laws.ppf.exp", "laws.cdf.calls",
    "model.discretize.self_s", "model.marginal_law.s", "model.marginal_law.calls",
    "model.DiscreteInstance.s", "model.StepDistribution.cdf.s",
    "rearrange.sorted_partial_sum.s", "rearrange.sorted_partial_sum.calls",
    "rearrange.least_x_set.s", "rearrange.least_x_set.calls",
    "benchmarks.quantile_attainability_range.s", "benchmarks.quantile_attainability_range.calls",
    "median.partition.s", "median.partition.calls",
    "median.pivot_mean_interval.s", "median.pivot_mean_interval.calls", "median.pivot_mean_interval.exp",
    "median.extremal_selection.s", "median.mixed_selection.s",
    "median.marginal_cost_terms.s", "median.marginal_cost_terms_parametric.s",
    "events.gap_profile.s", "events.gap_profile.calls",
    "events.calibrate_mean.s", "events.calibrate_mean.calls",
    "events.mean_restricted_prob_bounds.s", "events.mean_restricted_prob_bounds.calls",
    "events.mean_restricted_prob_bounds.exp",
    "events.dual_envelope.s", "events.dual_envelope.exp", "events.dual_obj_evals",
    "extensions.moment_restricted_mean_interval.s", "extensions.moment_restricted_mean_interval.exp",
    "extensions.moment_obj_evals", "extensions.quantile_restricted_mean_interval.s",
    "extensions.mean_restricted_quantile_range.s", "extensions.mean_restricted_quantile_range.exp",
    "oracle.exact_median_mean_bounds.s", "oracle.exact_prob_bounds.s",
    "oracle.exact_quantile_mean_bounds.s", "oracle.exact_moment_mean_bounds.s",
    "oracle.moment_disagreements",
    "trace.overhead_s", "trace.wall_s", "trace.unaccounted_s",
]


def layer_unit(name: str) -> str:
    if name.endswith(".exp"):
        return "exponent"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


@dataclass
class OpResult:
    kind: str
    seconds: float
    cpu_s: float
    output: object
    error: str | None = None


class Runner:
    """Numbers the ops; with a tracer, runs each as a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._next = 0

    def call(self, name, fn, phase):
        op_id, self._next = self._next, self._next + 1
        return fn() if self.tracer is None else self.tracer.root(name, op_id, phase, fn)


class CheckContext:
    """What a workload's ``check`` sees, and where it records verdicts."""

    def __init__(self, passes, state, params, runner):
        self.passes, self.state, self.params, self.runner = passes, state, params, runner
        self.failed: set = set()
        self.counters: dict = {}

    def record(self, pass_idx, op_idx, ok) -> None:
        if not ok:
            self.failed.add((pass_idx, op_idx))

    def check_op(self, kind, fn):
        """Run one check; a check that raises is a failed check."""
        try:
            return self.runner.call(f"check.{kind}", fn, "check")
        except Exception:  # the op's output is wrong; keep checking the rest
            traceback.print_exc(file=sys.stderr)
            return None


def timed_op(workload, kind, fn, params, runner, first) -> OpResult:
    """Run one op, timing only the call; its output is taken afterwards."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        value, error = runner.call(f"op.{kind}", fn, "timed"), None
    except Exception as exc:  # a failed op counts toward error_rate
        value, error = None, f"{type(exc).__name__}: {exc}"
    seconds, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    if error is None:
        try:
            value = workload.output(kind, value, params, first)
        except Exception as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
    if error is not None:
        print(f"op {kind} failed: {error}", file=sys.stderr)
    return OpResult(kind, seconds, cpu_s, value, error)


def run_pass(workload, inputs, state, params, runner, first=True) -> list[OpResult]:
    """One pass of the op list; its timed phase is the sum of the op times."""
    return [timed_op(workload, kind, fn, params, runner, first)
            for kind, fn in workload.ops(inputs, state, params)]


def check(workload, passes, state, params, runner) -> tuple[int, int, dict]:
    """Check every output; returns (attempted, failed, check counters)."""
    ctx = CheckContext(passes, state, params, runner)
    workload.check(ctx)
    for p, results in enumerate(passes):
        for i, res in enumerate(results):
            if res.error is not None:
                ctx.failed.add((p, i))
    attempted = sum(len(results) for results in passes)
    return attempted, len(ctx.failed), ctx.counters


def import_seconds() -> float:
    """Time ``import selbounds`` (numpy included) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import selbounds; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(seed) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "selbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy as np

    return {
        "seed": seed, "git_sha": sha, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, sizes, work, setup_repeats=SETUP_REPEATS):
    """The untraced run: returns (result line, detail line)."""
    inputs = workload.prepare(seed, sizes, work)
    imports = [import_seconds() for _ in range(setup_repeats)]
    builds = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        state = workload.build(inputs)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)
    params = workload.params(inputs, state)

    runner = Runner()
    passes = []
    while len(passes) < 2 or sum(r.seconds for res in passes for r in res) < seconds:
        passes.append(run_pass(workload, inputs, state, params, runner, first=not passes))
    # read before the checks: the oracles build large arrays of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, _ = check(workload, passes, state, params, runner)

    # one pass's timed phase with each op at its median over the passes:
    # robust to a burst of contention that hits one pass
    wall_s = sum(statistics.median(times) for times in zip(*[[r.seconds for r in res] for res in passes]))
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(wall_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    named = dict(metrics, error_rate=_metric(failed / attempted, "ratio"))
    for name, value in workload.metrics(passes).items():
        named[name] = _metric(value, workload.metric_units[name])
    detail = {"passes": len(passes), "metrics": named,
              "pass_walls_s": [sum(r.seconds for r in res) for res in passes],
              "pass_cpu_s": [sum(r.cpu_s for r in res) for res in passes]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def measure_traced(workload, seed, sizes, work, spans_path):
    """The traced run: returns (result line, detail line)."""
    from spans import Tracer

    inputs = workload.prepare(seed, sizes, work)
    state = workload.build(inputs)
    params = workload.params(inputs, state)
    tracer = Tracer()
    runner, plain = Runner(tracer), Runner()
    with tracer:
        runner.call("setup", lambda: workload.build(inputs), "setup")
    # each op untraced and then traced right after it, so that the pairs'
    # difference is the tracing overhead and not the machine's drift
    untraced, traced = [], []
    for kind, fn in workload.ops(inputs, state, params):
        untraced.append(timed_op(workload, kind, fn, params, plain, True))
        with tracer:
            traced.append(timed_op(workload, kind, fn, params, runner, False))
    with tracer:
        attempted, failed, counters = check(workload, [untraced, traced], state, params, runner)
    tracer.write(spans_path)
    wall_u = sum(r.seconds for r in untraced)
    wall_t = sum(r.seconds for r in traced)

    half_totals = {}
    if workload.half is not None:
        h_sizes = workload.half(sizes)
        h_inputs = workload.prepare(seed, h_sizes, work)
        h_state = workload.build(h_inputs)
        h_params = workload.params(h_inputs, h_state)
        h_tracer = Tracer()
        with h_tracer:
            h_pass = run_pass(workload, h_inputs, h_state, h_params, Runner(h_tracer))
        h_attempted, h_failed, _ = check(workload, [h_pass], h_state, h_params, plain)
        attempted, failed = attempted + h_attempted, failed + h_failed
        half_totals = h_tracer.layer_totals({"timed"})

    work_totals = tracer.layer_totals({"setup", "timed"})
    timed_totals = tracer.layer_totals({"timed"})
    check_totals = tracer.layer_totals({"check"})
    accounted = sum(rec["self_s"] for rec in timed_totals.values())
    special = {
        "events.dual_obj_evals": tracer.count("events.dual_obj_evals", {"setup", "timed"}),
        "extensions.moment_obj_evals": tracer.count("extensions.moment_obj_evals", {"setup", "timed"}),
        "oracle.moment_disagreements": counters.get("oracle.moment_disagreements", 0),
        "trace.overhead_s": wall_t - wall_u,
        "trace.wall_s": wall_t,
        "trace.unaccounted_s": wall_t - accounted,
    }
    metrics = {}
    for name in LAYER_METRICS:
        if name in special:
            value = special[name]
        else:
            prefix, field = name.rsplit(".", 1)
            if field == "exp":
                full = timed_totals.get(prefix, {}).get("s", 0.0)
                half = half_totals.get(prefix, {}).get("s", 0.0)
                value = math.log2(full / half) if full > 0.0 and half > 0.0 else 0.0
            else:
                totals = check_totals if prefix.startswith("oracle.") else work_totals
                value = totals.get(prefix, {}).get(field, 0)
        metrics[name] = _metric(value, layer_unit(name))
    detail = {"untraced_wall_s": wall_u, "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "metrics": {"error_rate": _metric(failed / attempted, "ratio")}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def run_one(name, seed, seconds, trace, smoke=False):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    sizes = workload.smoke_sizes if smoke else workload.sizes
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        if trace:
            (WORK / "spans").mkdir(exist_ok=True)
            spans_path = WORK / "spans" / f"{name}-seed{seed}.jsonl"
            result, detail = measure_traced(workload, seed, sizes, work, spans_path)
        else:
            result, detail = measure(workload, seed, seconds, sizes, work, 1 if smoke else SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {"workload": name, "trace": int(trace), "sizes": sizes,
              "provenance": provenance(seed), **detail}
    return result, detail


def smoke() -> int:
    """Tiny-size run of every workload; checks metric names, units and errors."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != {n: layer_unit(n) for n in LAYER_METRICS}:
        problems.append("BENCHMARK.json per_layer differs from LAYER_METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    for name, workload in WORKLOADS.items():
        for trace, expected in ((0, END_TO_END), (1, {n: layer_unit(n) for n in LAYER_METRICS})):
            result, detail = run_one(name, 0, 0, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(expected))} differ")
            named = detail["metrics"]
            wanted = ({"error_rate"} | set(END_TO_END) | set(workload.metric_units)) if trace == 0 else {"error_rate"}
            missing = [m for m in wanted if not named.get(m, {}).get("unit")]
            if missing:
                problems.append(f"{name} trace={trace}: no value or unit for {missing}")
            if named["error_rate"]["value"] != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} of {result['attempted']} ops failed")
            values = [v["value"] for v in list(result["metrics"].values()) + list(named.values())]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                problems.append(f"{name} trace={trace}: a metric is not a finite number")
            print(f"smoke {name} trace={trace}: {result['attempted']} ops, {len(got)} metrics")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    os.environ.update(BLAS_THREADS)

    if not (SRC / "selbounds" / "__init__.py").is_file():
        print(f"error: no selbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, detail = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
