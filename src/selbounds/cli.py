"""Command-line interface: CSV/parametric ingestion, reports, curve export.

Subcommands, one per restriction family:

  bounds              unrestricted benchmark ranges
  restrict-median     mean interval under a median restriction (--m)
  restrict-mean-prob  event-probability bounds under a mean pin (--kappa, --target)
  restrict-moment     mean interval under an r-th moment pin (--r, --mu)
  restrict-quantile   mean interval under a fixed quantile (--alpha, --q)
  verify              differential run of closed forms against the oracle
  example-chi2        the built-in chi-square comonotone worked example

Reports are JSON documents with a stable field order and a provenance
block (input hash, grid sizes, tolerances, tool version), so identical
requests produce identical bytes.  Exit code 0 on success, 2 when the
requested restriction is infeasible (the report then carries a diagnosis),
1 on any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EmptyFile,
    InfeasibleRestriction,
    InputError,
    InvertedInterval,
    IoError,
    ParseError,
    SelBoundsError,
)
from .laws import parse_law
from .model import (
    INVERSION_ATOL,
    ClosedInterval,
    ComonotoneSpec,
    DiscreteInstance,
    _marginal,
    discretize,
)
from .benchmarks import aumann_interval, median_benchmark, quantile_attainability_range
from .median import (
    _median_interval,
    extremal_selection,
    marginal_cost_terms,
    marginal_cost_terms_parametric,
    median_restricted_mean_interval,
    partition,
)
from .events import (
    TargetSet,
    _dual,
    _pin_at,
    _prob_bounds,
    _unrestricted,
    gap_profile,
)
from .extensions import (
    MomentRestriction,
    QuantileRestriction,
    _moment_solve,
    power_image_interval,
    quantile_restricted_mean_interval,
)
from . import oracle

TOLERANCES = {
    "mass": 1e-12,
    "mean_residual": 1e-10,
    "oracle_median": 1e-9,
    "oracle_prob": 1e-6,
    "dual_gap": 1e-4,
    "quadrature": 1e-8,
}

# kind -> (subcommand, help, flags); the order is verify's precedence
RESTRICTIONS = {
    "median": ("restrict-median", "mean interval under a median restriction", ("m",)),
    "mean": ("restrict-mean-prob", "event probability under a mean pin", ("kappa",)),
    "moment": ("restrict-moment", "mean interval under a moment pin", ("r", "mu")),
    "quantile": ("restrict-quantile", "mean interval under a fixed quantile", ("alpha", "q")),
}

EXPORT_GRID = 1001   # points per exported CDF curve
BOUND_GRID = 201     # points per bound curve: each one recomputes an interval


# ---------------------------------------------------------------------------
# ingestion


def load_csv(path) -> DiscreteInstance:
    """Read scenarios from a CSV with header lower,upper[,weight]."""
    return parse_csv(Path(path).read_bytes())


def parse_csv(data: str | bytes) -> DiscreteInstance:
    """Scenarios from CSV text or a CSV file's bytes; blank and ``#`` lines
    are skipped, and errors name the line as numbered in the text.

    ASCII input whose first line is the header and whose data lines hold
    only numbers is read in one bulk numpy pass over its bytes; every other
    input is decoded as UTF-8 and goes to the line parser, which alone
    raises parse errors.
    """
    if isinstance(data, str):
        if not data.isascii():
            return _parse_lines(data.splitlines())
        data = data.encode("ascii")
    instance = _parse_bulk(data)
    return instance if instance is not None else _parse_lines(_decode(data).splitlines())


def _decode(data: bytes) -> str:
    """The UTF-8 text of CSV bytes; invalid UTF-8 is a parse error on its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the sentinel counts the partial line the bad byte sits on
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line=line) from exc


def _csv_columns(header: str) -> int | None:
    """Column count of a ``lower,upper[,weight]`` header line, else None."""
    names = [h.strip().lower() for h in header.split(",")]
    if names[:2] != ["lower", "upper"] or len(names) > 3 or (
        len(names) == 3 and names[2] != "weight"
    ):
        return None
    return len(names)


# ASCII line boundaries of str.splitlines that numpy does not split at
_OTHER_BREAKS = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# a byte of some line's content: past the header, none means no data line
_CONTENT = re.compile(rb"[^\r\n]")


def _parse_bulk(data: bytes) -> DiscreteInstance | None:
    """The instance from one ``np.loadtxt`` pass over the bytes, or None
    where that pass could read them differently from :func:`_parse_lines`.

    The pass takes only ASCII whose lines end in ``\\n`` or ``\\r\\n``, so
    numpy and ``str.splitlines`` split it at the same places; both strip the
    same whitespace around cells, and numpy skips empty lines as the line
    parser does.  Everything else the line parser accepts or rejects on its
    own makes ``loadtxt`` raise, or is caught below: a comment or
    whitespace-only line, a ragged row, a cell ``float`` reads and numpy
    does not (``1_0``), a header not on the first line, no data line, an
    inverted row.
    """
    if (
        not data.isascii()
        or any(br in data for br in _OTHER_BREAKS)
        or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return None
    end = data.find(b"\n")   # a file of one line has no data line
    ncols = _csv_columns(data[:end].decode("ascii")) if end >= 0 else None
    if ncols is None or not _CONTENT.search(data, end):
        return None   # no data line: loadtxt would warn and return nothing
    try:
        cells = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError:
        return None
    if cells.shape[1] != ncols or np.any(cells[:, 0] > cells[:, 1] + INVERSION_ATOL):
        return None
    # one instance, its weights divided as normalize divides them: by the sum
    # of a contiguous copy, which is what its total_mass would sum
    weight = np.ascontiguousarray(cells[:, 2]) if ncols == 3 else np.ones(cells.shape[0])
    total = float(weight.sum())
    if total > 0.0:
        with np.errstate(invalid="ignore"):   # inf / inf: the constructor rejects the nan
            weight /= total
    return DiscreteInstance(cells[:, 0], cells[:, 1], weight)


def _parse_lines(lines: list[str]) -> DiscreteInstance:
    """Scenarios line by line, naming the offending line in every error."""
    ncols, rows = None, []
    for lineno, ln in enumerate(lines, start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ncols is None:
            ncols = _csv_columns(ln)
            if ncols is None:
                raise ParseError(f"expected header lower,upper[,weight], got {ln!r}", line=lineno)
            continue
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != ncols:
            raise ParseError(f"row has {len(cells)} cells, expected {ncols}", line=lineno)
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"non-numeric cell in row: {ln!r}", line=lineno) from exc
        if vals[0] > vals[1] + INVERSION_ATOL:
            raise InvertedInterval(f"line {lineno}: lower={vals[0]} > upper={vals[1]}")
        rows.append(vals)
    if ncols is None:
        raise EmptyFile("no rows in CSV input")
    if not rows:
        raise EmptyFile("CSV contains a header but no data rows")
    return DiscreteInstance.from_rows(rows)


def parse_target(text: str) -> TargetSet:
    try:
        pairs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"target must be JSON like [[0.8,1],[2,2]], got {text!r}") from exc
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        raise ParseError("target must be a list of [a,b] pairs")
    return TargetSet.from_pairs(pairs)


# ---------------------------------------------------------------------------
# request / report


@dataclass
class AnalysisRequest:
    """One analysis: a source, at most one restriction, optional extras."""

    csv_path: str | None = None
    csv_text: str | None = None
    spec: ComonotoneSpec | None = None
    restriction: tuple | None = None   # ("median", m) | ("mean", k) | ("moment", r, mu) | ("quantile", a, q)
    target: TargetSet | None = None
    run_oracle: bool = False
    export_path: str | None = None
    attainability_alpha: float | None = None   # bounds --alpha
    _csv_sha256: str | None = field(default=None, init=False, repr=False)

    def build_instance(self) -> DiscreteInstance:
        sources = sum(x is not None for x in (self.csv_path, self.csv_text, self.spec))
        if sources != 1:
            raise InputError("exactly one of --input / --spec must be given")
        if self.csv_path is not None:
            return parse_csv(self._read_csv())
        if self.csv_text is not None:
            return parse_csv(self.csv_text)
        return discretize(self.spec)

    def _read_csv(self) -> bytes:
        """The CSV file's bytes, hashed as read: the report names the bytes it parsed."""
        payload = Path(self.csv_path).read_bytes()
        self._csv_sha256 = hashlib.sha256(payload).hexdigest()
        return payload

    def input_digest(self) -> str:
        if self.csv_path is not None:
            if self._csv_sha256 is None:
                self._read_csv()
            return self._csv_sha256
        text = self.csv_text if self.csv_text is not None else self.spec.label()
        return hashlib.sha256(text.encode()).hexdigest()


def _interval(iv: ClosedInterval, method: str) -> dict:
    return {"lo": iv.lo, "hi": iv.hi, "method": method}


def run(request: AnalysisRequest) -> dict:
    """Execute a request and assemble the report dictionary.

    The report always carries the unrestricted benchmarks; restricted
    sections appear only when feasible, otherwise the feasibility block
    explains which inequality failed and by how much.  The instance is
    built once and also serves the attainability range of
    ``attainability_alpha`` and the curve export to ``export_path``.
    """
    instance = request.build_instance()
    report: dict = {"schema_version": 2}
    report["request"] = {
        "source": (
            request.csv_path
            or ("inline-csv" if request.csv_text is not None else request.spec.label())
        ),
        "restriction": list(request.restriction) if request.restriction else None,
        "target": request.target.as_lists() if request.target else None,
    }
    report["instance"] = {"scenarios": int(instance.n), "total_mass": instance.total_mass}

    median_range = median_benchmark(instance)
    benchmark = {
        "mean": _interval(aumann_interval(instance), "closed-form"),
        "median": _interval(median_range, "closed-form"),
    }
    # one gap profile serves the probability benchmark and the mean pin
    prof = gap_profile(instance, request.target) if request.target is not None else None
    if prof is not None:
        benchmark["probability"] = _interval(_unrestricted(instance, prof), "closed-form")
    if request.attainability_alpha:
        benchmark["quantile_attainability"] = _interval(
            quantile_attainability_range(instance, request.attainability_alpha), "closed-form"
        )
    report["benchmark"] = benchmark

    report["feasibility"] = {"status": "ok", "diagnosis": None}
    restricted: dict = {}
    try:
        _run_restriction(request, instance, median_range, prof, restricted)
    except InfeasibleRestriction as exc:
        report["feasibility"] = {"status": "infeasible", "diagnosis": str(exc)}
    report["restricted"] = restricted or None

    if request.run_oracle and request.restriction is not None:
        report["oracle_check"] = _oracle_check(request, instance, restricted)

    report["provenance"] = {
        "tool_version": __version__,
        "input_sha256": request.input_digest(),
        "grid_size": request.spec.grid_size if request.spec else None,
        "tolerances": TOLERANCES,
    }
    if request.export_path:
        report["exported"] = export_curves(request, instance, request.export_path, prof=prof)
    return report


def _run_restriction(request, instance, median_range, prof, restricted) -> None:
    kind = request.restriction[0] if request.restriction else None
    if kind == "median":
        m = request.restriction[1]
        part = partition(instance, m)
        iv = _median_interval(instance, part)
        restricted["median_mean"] = _interval(iv, "closed-form")
        restricted["partition"] = {
            "p_minus": part.p_minus,
            "p_plus": part.p_plus,
            "p0": part.p0,
            "alpha_minus": part.alpha_minus,
            "alpha_plus": part.alpha_plus,
        }
        if part.p0 == 0.0:
            restricted["note"] = (
                "contact set empty: restriction feasible but vacuous, "
                "interval equals the unrestricted mean range"
            )
        if median_range.contains(m):
            terms = marginal_cost_terms(instance, m)
            restricted["marginal_cost_terms"] = {
                "s_lower": terms.s_lower,
                "s_upper": terms.s_upper,
                "implied": _interval(terms.implied, "closed-form"),
            }
    elif kind == "mean":
        kappa = request.restriction[1]
        if prof is None:
            raise InputError("mean restriction reporting needs --target")
        # the dual's scratch is freed before the calibration's selection
        # rows are built, of which the report keeps only the mean
        env = _dual(instance, prof, kappa)
        iv, lambda_star, selection_mean = _pin_at(instance, prof, kappa)
        restricted["probability"] = _interval(iv, "closed-form")
        restricted["probability_dual"] = {
            "lo": env.lower,
            "hi": env.upper,
            "method": "dual",
        }
        restricted["lambda_star"] = lambda_star
        restricted["selection_mean"] = selection_mean
        # certificates: dual objective at the dual's multiplier minus the primal value
        restricted["duality_gap"] = {"lower": env.lower - iv.lo, "upper": env.upper - iv.hi}
    elif kind == "moment":
        r, mu = request.restriction[1], request.restriction[2]
        restricted["moment_image"] = _interval(power_image_interval(instance, r), "closed-form")
        iv, (low, high) = _moment_solve(instance, MomentRestriction(r, mu))
        restricted["moment_mean"] = _interval(iv, "dual")
        restricted["duality_gap"] = {"lower": low[0] - low[1], "upper": high[0] - high[1]}
    elif kind == "quantile":
        alpha, q = request.restriction[1], request.restriction[2]
        rng = quantile_attainability_range(instance, alpha)
        restricted["attainability"] = _interval(rng, "closed-form")
        iv = quantile_restricted_mean_interval(instance, QuantileRestriction(alpha, q))
        restricted["quantile_mean"] = _interval(iv, "closed-form")


def _oracle_check(request, instance, restricted) -> dict:
    kind = request.restriction[0]
    out = {"ran": False, "max_delta": None, "note": None}
    try:
        if kind == "median" and instance.n <= 12 and "median_mean" in restricted:
            ref = oracle.exact_median_mean_bounds(instance, request.restriction[1])
            mine = restricted["median_mean"]
        elif kind == "mean" and instance.n <= 8 and "probability" in restricted:
            ref = oracle.exact_prob_bounds(instance, request.target, request.restriction[1])
            mine = restricted["probability"]
        elif kind == "moment" and instance.n <= 6 and "moment_mean" in restricted:
            ref = oracle.exact_moment_mean_bounds(
                instance, request.restriction[1], request.restriction[2]
            )
            mine = restricted["moment_mean"]
        elif kind == "quantile" and instance.n <= 12 and "quantile_mean" in restricted:
            ref = oracle.exact_quantile_mean_bounds(
                instance, request.restriction[1], request.restriction[2]
            )
            mine = restricted["quantile_mean"]
        else:
            out["note"] = "no oracle for this restriction or instance too large"
            return out
    except SelBoundsError as exc:
        out["note"] = f"oracle raised: {exc}"
        return out
    out["ran"] = True
    out["oracle"] = {"lo": ref.lo, "hi": ref.hi}
    out["max_delta"] = max(abs(ref.lo - mine["lo"]), abs(ref.hi - mine["hi"]))
    return out


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# curve export


def export_curves(
    request: AnalysisRequest, instance: DiscreteInstance, base_path, *, prof=None
) -> list[str]:
    """Write tab-separated curve files plus a sidecar schema description.

    Always: marginal CDFs on a value grid.  With a median restriction:
    extremal selection CDFs and the mean-bound curves over a pivot grid.
    With a mean restriction and target: probability bounds over a mean grid,
    from ``prof`` when the caller already built the request's gap profile.
    """
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    schema = []

    def emit(name, header, rows, description):
        path = base.parent / f"{base.name}_{name}.tsv"
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# " + "\t".join(header) + "\n")
                for row in rows:
                    fh.write("\t".join(f"{x:.12g}" for x in row) + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
        written.append(str(path))
        schema.append(f"{path.name}: {description}; columns: {', '.join(header)}")

    lo_law = _marginal(instance, "lower")
    hi_law = _marginal(instance, "upper")
    tmin, tmax = float(instance.lower.min()), float(instance.upper.max())
    pad = 0.05 * max(tmax - tmin, 1.0)
    ts = np.linspace(tmin - pad, tmax + pad, EXPORT_GRID)
    emit(
        "cdf",
        ["t", "F_lower", "F_upper"],
        np.column_stack([ts, lo_law.cdf(ts), hi_law.cdf(ts)]),
        "marginal endpoint CDFs",
    )

    kind = request.restriction[0] if request.restriction else None
    if kind == "median":
        m = request.restriction[1]
        sel_hi = extremal_selection(instance, m, "max").law()
        sel_lo = extremal_selection(instance, m, "min").law()
        emit(
            "selection_cdf",
            ["t", "F_min_selection", "F_max_selection"],
            np.column_stack([ts, sel_lo.cdf(ts), sel_hi.cdf(ts)]),
            "CDFs of the extremal median-restricted selections",
        )
        lo_med = lo_law.quantile(0.5)
        hi_med = hi_law.quantile(0.5)
        ms = np.linspace(lo_med, hi_med, BOUND_GRID)
        rows = []
        for mm in ms:
            iv = median_restricted_mean_interval(instance, float(mm))
            rows.append((mm, iv.lo, iv.hi))
        emit(
            "bounds",
            ["m", "E_min", "E_max"],
            rows,
            "restricted mean interval endpoints over the pivot grid",
        )
    elif kind == "mean" and request.target is not None:
        box = aumann_interval(instance)
        ks = np.linspace(box.lo, box.hi, BOUND_GRID)
        if prof is None:
            prof = gap_profile(instance, request.target)
        # one profile and one sorted fill per regime serve the whole curve
        lower, upper = _prob_bounds(instance, prof, ks)
        emit(
            "bounds",
            ["kappa", "L", "U"],
            np.column_stack([ks, lower, upper]),
            "probability bounds over the mean grid",
        )

    schema_path = base.parent / f"{base.name}_schema.txt"
    schema_path.write_text("\n".join(schema) + "\n", encoding="utf-8")
    written.append(str(schema_path))
    return written


# ---------------------------------------------------------------------------
# the chi-square worked example


def chi2_example(grid_size: int = 200_001, export_path: str | None = None) -> dict:
    """End-to-end comonotone chi-square example report.

    Couples chi2(2) and chi2(5) through one uniform grid, restricts the
    median at the 30/70 blend of the marginal medians, and reports the
    restricted mean interval both from the conditional-quantile formula
    and from the marginal-CDF cost terms.  With ``export_path`` the same
    instance also serves the curve export (``example-chi2 --export``).
    """
    spec = ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), grid_size)
    instance = discretize(spec)
    low = _marginal(instance, "lower")
    high = _marginal(instance, "upper")
    m_l = low.quantile(0.5)
    m_u = high.quantile(0.5)
    m = 0.3 * m_l + 0.7 * m_u
    interval = median_restricted_mean_interval(instance, m)
    terms_discrete = marginal_cost_terms(instance, m)
    terms_param = marginal_cost_terms_parametric(spec.lower_law, spec.upper_law, m)
    report = {
        "grid_size": grid_size,
        "median_lower": m_l,
        "median_upper": m_u,
        "m": m,
        "mean_interval": _interval(aumann_interval(instance), "closed-form"),
        "restricted_interval": _interval(interval, "closed-form"),
        "cost_terms_discrete": {
            "s_lower": terms_discrete.s_lower,
            "s_upper": terms_discrete.s_upper,
            "implied": _interval(terms_discrete.implied, "closed-form"),
        },
        "cost_terms_parametric": {
            "s_lower": terms_param.s_lower,
            "s_upper": terms_param.s_upper,
            "implied": _interval(terms_param.implied, "quadrature"),
        },
    }
    if export_path:
        request = AnalysisRequest(spec=spec, restriction=("median", m))
        report["exported"] = export_curves(request, instance, export_path)
    return report


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # keep exit code 1 for usage errors; 2 is reserved for infeasibility
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _add_source_args(p):
    p.add_argument("--input", help="CSV file with header lower,upper[,weight]")
    p.add_argument("--spec", help="parametric pair like 'chi2(2)/chi2(5)'")
    p.add_argument("--grid", type=int, default=1000, help="grid size for --spec")
    p.add_argument("--target", help="target set as JSON [[a,b],...]")
    p.add_argument("--export", help="base path for curve export files")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selbounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="unrestricted benchmark ranges")
    _add_source_args(p)
    p.add_argument("--alpha", type=float, help="also report this quantile attainability range")

    for command, help_text, flags in RESTRICTIONS.values():
        p = sub.add_parser(command, help=help_text)
        _add_source_args(p)
        for flag in flags:
            p.add_argument(f"--{flag}", type=float, required=True)

    p = sub.add_parser("verify", help="differential oracle run for a restriction")
    _add_source_args(p)
    for _, _, flags in RESTRICTIONS.values():
        for flag in flags:
            p.add_argument(f"--{flag}", type=float)
    p.add_argument("--tolerance", type=float, default=1e-9, help="largest accepted oracle delta")

    p = sub.add_parser("example-chi2", help="built-in chi-square worked example")
    p.add_argument("--grid", type=int, default=200_001)
    p.add_argument("--export", help="base path for curve export files")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    return parser


def _request_from_args(args) -> AnalysisRequest:
    spec = None
    if args.spec:
        parts = args.spec.split("/")
        if len(parts) != 2:
            raise InputError("--spec must look like 'chi2(2)/chi2(5)'")
        spec = ComonotoneSpec(parse_law(parts[0]), parse_law(parts[1]), args.grid)
    target = parse_target(args.target) if getattr(args, "target", None) else None
    return AnalysisRequest(
        csv_path=args.input,
        spec=spec,
        target=target,
        run_oracle=args.command == "verify",
        export_path=getattr(args, "export", None),
        attainability_alpha=getattr(args, "alpha", None) if args.command == "bounds" else None,
        restriction=_restriction_from_args(args),
    )


def _restriction_from_args(args) -> tuple | None:
    """The request's restriction tuple; ``verify`` takes the first kind, in
    table order, whose flags are all given."""
    for kind, (command, _, flags) in RESTRICTIONS.items():
        values = [getattr(args, flag, None) for flag in flags]
        if args.command == command or (args.command == "verify" and None not in values):
            return (kind, *values)
    if args.command == "verify":
        options = " | ".join(
            "/".join(f"--{flag}" for flag in flags) for _, _, flags in RESTRICTIONS.values()
        )
        raise InputError(f"verify needs one restriction ({options})")
    return None


def _emit(report: dict, out_path) -> None:
    text = report_to_json(report)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "example-chi2":
            report = chi2_example(args.grid, export_path=args.export)
            _emit(report, args.out)
            return 0

        report = run(_request_from_args(args))
        _emit(report, getattr(args, "out", None))
        if report["feasibility"]["status"] == "infeasible":
            return 2
        if args.command == "verify":
            check = report.get("oracle_check") or {}
            if check.get("ran") and check["max_delta"] > args.tolerance:
                print(
                    f"verify: oracle delta {check['max_delta']:.3g} exceeds "
                    f"tolerance {args.tolerance:.3g}",
                    file=sys.stderr,
                )
                return 1
        return 0
    except InfeasibleRestriction as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        return _fail(str(exc) if exc.line is None else f"line {exc.line}: {exc}")
    except SelBoundsError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
