"""In-memory span tracer for the benchmark's traced run.

The tracer times selbounds layers from outside: while it is entered, the
functions named in ``SPANS`` (and the counters in ``COUNTERS``) are
replaced by wrappers, in their defining module and in every ``selbounds``
module that imported them by name.  Nothing under ``src/`` is edited.
Each span is kept in memory as (name, start, end, parent span, op id); the
op id of a root span says which benchmark op, and which phase (setup,
timed or check), the span belongs to.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute or Class.attribute).  A prefix listed
# twice wraps several callables under one name (every law family's ppf,
# or both ways of building a DiscreteInstance).
SPANS = [
    ("cli.parse_csv", "cli", "parse_csv"),
    ("cli.input_digest", "cli", "AnalysisRequest.input_digest"),
    ("cli.run", "cli", "run"),
    ("cli.export_curves", "cli", "export_curves"),
    ("cli.chi2_example", "cli", "chi2_example"),
    *[("laws.ppf", "laws", f"{law}.ppf") for law in ("Uniform", "Exponential", "Normal", "ChiSquare")],
    *[("laws.cdf", "laws", f"{law}.cdf") for law in ("Uniform", "Exponential", "Normal", "ChiSquare")],
    ("model.discretize", "model", "discretize"),
    ("model.marginal_law", "model", "marginal_law"),
    ("model.DiscreteInstance", "model", "DiscreteInstance.__init__"),
    ("model.DiscreteInstance", "model", "DiscreteInstance.from_rows"),
    ("model.StepDistribution.cdf", "model", "StepDistribution.cdf"),
    ("rearrange.sorted_partial_sum", "rearrange", "sorted_partial_sum"),
    ("rearrange.least_x_set", "rearrange", "least_x_set"),
    ("benchmarks.quantile_attainability_range", "benchmarks", "quantile_attainability_range"),
    ("median.partition", "median", "partition"),
    ("median.pivot_mean_interval", "median", "pivot_mean_interval"),
    ("median.extremal_selection", "median", "extremal_selection"),
    ("median.mixed_selection", "median", "mixed_selection"),
    ("median.marginal_cost_terms", "median", "marginal_cost_terms"),
    ("median.marginal_cost_terms_parametric", "median", "marginal_cost_terms_parametric"),
    ("events.gap_profile", "events", "gap_profile"),
    ("events.calibrate_mean", "events", "calibrate_mean"),
    ("events.mean_restricted_prob_bounds", "events", "mean_restricted_prob_bounds"),
    ("events.dual_envelope", "events", "dual_envelope"),
    ("extensions.moment_restricted_mean_interval", "extensions", "moment_restricted_mean_interval"),
    ("extensions.quantile_restricted_mean_interval", "extensions", "quantile_restricted_mean_interval"),
    ("extensions.mean_restricted_quantile_range", "extensions", "mean_restricted_quantile_range"),
    ("oracle.exact_median_mean_bounds", "oracle", "exact_median_mean_bounds"),
    ("oracle.exact_prob_bounds", "oracle", "exact_prob_bounds"),
    ("oracle.exact_quantile_mean_bounds", "oracle", "exact_quantile_mean_bounds"),
    ("oracle.exact_moment_mean_bounds", "oracle", "exact_moment_mean_bounds"),
]

# Objective evaluations of the scalar dual searches: counted, not spanned,
# because there are hundreds per call.
COUNTERS = [
    ("events.dual_obj_evals", "events", "_psi_mean"),
    ("events.dual_obj_evals", "events", "_phi_mean"),
    ("extensions.moment_obj_evals", "extensions", "_scenario_envelope"),
]


class Tracer:
    """Collects spans and counts while entered (``with tracer:``).

    The wrappers are built once, at construction, while the original
    functions are in place; entering the tracer swaps them in and leaving
    it restores the originals, so one tracer can be switched on for single
    ops.
    """

    def __init__(self):
        self.spans: list = []
        self.op_phase: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._phase = None
        self._patches: list = []   # (owner, attribute, original, replacement)
        for name, module, attr in SPANS:
            self._plan(module, attr, lambda fn, n=name: self._spanned(fn, n))
        for name, module, attr in COUNTERS:
            self._plan(module, attr, lambda fn, n=name: self._counted(fn, n))

    def __enter__(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _spanned(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)

        return traced

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name, self._phase] += 1
            return fn(*args, **kwargs)

        return counted

    def root(self, name: str, op_id: int, phase: str, fn):
        """Run ``fn`` as the root span of op ``op_id`` in ``phase``."""
        self._op, self._phase = op_id, phase
        self.op_phase[op_id] = phase
        try:
            return self._spanned(fn, name)()
        finally:
            self._op, self._phase = -1, None

    def _plan(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"selbounds.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = vars(cls)[meth]
            new = classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw)
            self._patches.append((cls, meth, raw, new))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        # rebind every alias: modules that did ``from .x import f`` hold
        # their own reference to the original function
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "selbounds" or mod_name.startswith("selbounds.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original, wrapped))

    # -- derivation -------------------------------------------------------

    def layer_totals(self, phases) -> dict:
        """Per span name: inclusive seconds, self seconds and call count,
        over spans whose root op ran in one of ``phases``.

        Inclusive time counts only the outermost span of a name, so a
        recursive or re-entrant call is not counted twice; self time is a
        span's duration minus the durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if self.op_phase.get(op) not in phases:
                continue
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                rec["s"] += end - start
        return out

    def count(self, name: str, phases) -> int:
        return sum(n for (key, phase), n in self.counts.items() if key == name and phase in phases)

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, self.op_phase.get(op)]) + "\n")
