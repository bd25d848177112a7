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
import functools
import hashlib
import io
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import __version__
from .errors import (
    EmptyFile,
    InfeasibleRestriction,
    InputError,
    InvertedInterval,
    InstanceTooLarge,
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
    normalize,
)
from .benchmarks import aumann_interval, median_benchmark, quantile_attainability_range
from .median import (
    CostTerms,
    _median_curve,
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

# kind -> (the section verify checks, its oracle of (instance, target, *restriction values))
_ORACLES = {
    "median": ("median_mean", lambda inst, _, m: oracle.exact_median_mean_bounds(inst, m)),
    "mean": ("probability", oracle.exact_prob_bounds),
    "moment": ("moment_mean", lambda inst, _, r, mu: oracle.exact_moment_mean_bounds(inst, r, mu)),
    "quantile": ("quantile_mean", lambda inst, _, a, q: oracle.exact_quantile_mean_bounds(inst, a, q)),
}

EXPORT_GRID = 1001   # points per exported CDF curve
BOUND_GRID = 201     # points per bound curve: each one recomputes an interval


# ---------------------------------------------------------------------------
# ingestion


def parse_csv(data: str | bytes | BinaryIO) -> DiscreteInstance:
    """Scenarios from CSV text, a CSV file's bytes or a binary file open at
    its start; blank and ``#`` lines are skipped, and errors name the line
    as numbered in the text.

    ASCII input whose first line is the header and whose data lines hold
    only numbers is read in one bulk numpy pass, a file in chunks as numpy
    pulls them; every other input is decoded as UTF-8 (a file is read
    again from its start) and goes to the line parser, which alone raises
    parse errors.
    """
    if isinstance(data, str):
        if not data.isascii():
            return _parse_lines(data.splitlines())
        data = data.encode("ascii")
    if isinstance(data, bytes):
        data = io.BytesIO(data)
    instance = _parse_bulk(data)
    if instance is not None:
        return instance
    data.seek(0)
    return _parse_lines(_decode(data.read()).splitlines())


class _Hashed:
    """A binary file whose bytes, as read from its start, feed one sha256;
    ``seek(0)`` starts both again."""

    def __init__(self, raw):
        self.raw, self.sha256 = raw, hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        chunk = self.raw.read(size)
        self.sha256.update(chunk)
        return chunk

    def seek(self, start: int) -> None:
        self.raw.seek(start)
        self.sha256 = hashlib.sha256()


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
# bytes per read of the bulk pass
_CHUNK = 1 << 18


class _BulkReader:
    """The data lines of a binary CSV stream, a piece at a time.

    The stream is read once, in chunks, each cut after its last ``\\n`` so
    that a ``\\r\\n`` never straddles a cut.  Each piece is checked before it
    is read: ValueError, the bulk pass's decline, is raised at the first
    non-ASCII byte, ``\\r`` outside ``\\r\\n`` or other line boundary, and
    when the first line is not a header.  Iterating yields the bytes after
    the header of every piece that holds a byte other than a line end;
    ``ncols`` is the header's column count.
    """

    def __init__(self, fh):
        self.fh, self.ncols = fh, None

    def __iter__(self):
        held = []   # the bytes after the last cut
        while chunk := self.fh.read(_CHUNK):
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                held.append(chunk)
                continue
            piece = b"".join([*held, memoryview(chunk)[:cut]])   # one copy
            held = [chunk[cut:]]
            if data := self._data(piece):
                yield data
        if data := self._data(b"".join(held)):
            yield data

    def _data(self, piece: bytes) -> bytes:
        """The bytes of ``piece`` after the header, or ``b""`` when they are
        line ends only; raises ValueError unless the bulk pass may read
        ``piece``."""
        if (
            not piece.isascii()
            or any(br in piece for br in _OTHER_BREAKS)
            or (b"\r" in piece and piece.count(b"\r") != piece.count(b"\r\n"))
        ):
            raise ValueError("bytes the line parser may read differently")
        if self.ncols is None:   # the first piece: its first line is the header
            start = piece.find(b"\n")
            self.ncols = _csv_columns(piece[:start].decode("ascii")) if start >= 0 else None
            if self.ncols is None:
                raise ValueError("no header line")   # a file of one line has no data line
            piece = piece[start + 1:]
        return piece if _CONTENT.search(piece) else b""


# One-hot classes of the bytes of a plain decimal cell; any other byte is 0.
_DIGIT, _MINUS, _PLUS, _DOT, _EXP, _COMMA, _EOL = (1 << i for i in range(7))
_CLASS = bytes(
    {
        **dict.fromkeys(b"0123456789", _DIGIT), **dict.fromkeys(b"eE", _EXP),
        ord("-"): _MINUS, ord("+"): _PLUS, ord("."): _DOT, ord(","): _COMMA, ord("\n"): _EOL,
    }.get(b, 0)
    for b in range(256)
)
# the classes that may follow a byte of each class in -?digits[.digits][e[+-]digits]
_FOLLOW = {
    _DIGIT: _DIGIT | _DOT | _EXP | _COMMA | _EOL,
    _MINUS: _DIGIT | _DOT,
    _PLUS: _DIGIT,
    _DOT: _DIGIT | _EXP | _COMMA | _EOL,
    _EXP: _DIGIT | _MINUS | _PLUS,
    _COMMA: _DIGIT | _MINUS | _DOT,
    _EOL: _DIGIT | _MINUS | _DOT,
}
_FOLLOWERS = np.array([_FOLLOW.get(c, 0) for c in range(128)], np.uint8)   # by class
# the integer text of plain cells: exponent marks and line ends separate,
# and dots and signs go
_INTS = bytes.maketrans(b"eE\n", b",,,")
# significant mantissa digits and exponent characters that a uint64 always holds
_MAX_DIGITS, _MAX_EXP_CHARS = 19, 9
# a nonzero digit and _MAX_DIGITS more, a dot among them or not: a long cell
_LONG = re.compile(rb"[1-9](?:\.?[0-9]){%d}" % _MAX_DIGITS)
# the decimal exponents k of M * 10**-k with a double-double 10**-k: every
# product stays normal and finite, so Dekker's product is exact
_K_LO, _K_HI = -280, 280
_POW10 = 10.0 ** np.arange(23)   # exact doubles
_SPLIT = 134217729.0   # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _halves(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _inverse_tens():
    """Rows hi, lo and hi's halves of 10**-k = hi + lo for k in [_K_LO,
    _K_HI], hi and lo each correctly rounded (lo the remainder, from exact
    integers)."""
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        num, den = (1, 10**k) if k >= 0 else (10**-k, 1)
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    return np.stack([hi, lo, *_halves(hi)])


def _scaled(m, k):
    """M * 10**-k for uint64 mantissas M < 10**19, and where that double is
    certain to be the correctly rounded value.

    With M = mh + ml and 10**-k = th + tl (each part correctly rounded),
    the product is p + t: p + e = mh * th exactly (Dekker 1971) and t = e +
    mh * tl + ml * th.  It is off the true value by at most about 13 u^2
    |p|, u = 2**-53 (the rounding of t's three terms, the dropped ml * tl
    and the table's error, with |ml| <= 2u |mh| however M is rounded),
    less than d = 2**-100 |v| for v = p + t rounded.  With r = p + t - v,
    exact by Fast2Sum, v is certain where v + (r - d) and v + (r + d)
    round to one double, then v: rounding is monotonic.
    """
    row = np.minimum(np.maximum(k, _K_LO), _K_HI)
    inside = row == k
    row -= _K_LO
    th, tl, bh, bl = _inverse_tens()[:, row]
    del row
    mh = m.astype(float)
    ml = (m - mh.astype(np.uint64)).view(np.int64).astype(float)   # wraps to the signed rest
    p = mh * th
    ah, al = _halves(mh)
    t = ah * bh   # Dekker's error term, summed in his order
    t -= p
    t += ah * bl
    t += al * bh
    t += al * bl
    del ah, al, bh, bl
    mh *= tl
    ml *= th
    mh += ml
    t += mh
    del th, tl, mh, ml
    v = p + t
    p -= v
    t += p   # r = t - (v - p), the exact rest
    d = v * 2.0**-100
    inside &= v + (t - d) == v + (t + d)
    return v, inside


def _plain_cells(data: bytes, ncols: int) -> np.ndarray | None:
    """The (rows, ncols) cells of data lines that hold only plain decimals
    ``-?digits[.digits][e[+-]digits]`` with a mantissa digit, split by
    commas and ending in ``\\n`` or ``\\r\\n``; None for any other bytes (a
    blank line, a padded cell, a ``+`` mantissa, ``inf``) and for more
    significant mantissa digits or exponent characters than a uint64 always
    holds.

    Every value is the double ``float`` reads (Clinger 1990): one exact
    integer read of the mantissas M and exponents, then M / 10**k for M <
    2**53 and 0 <= k <= 22, else :func:`_scaled`'s double-double product.
    ``float`` reads a cell whose product is not certain.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    raw = np.frombuffer(data, np.uint8)
    # the bytes that are not digits, and their classes: a digit may follow
    # any class and precede any but a sign, so the table checks the pairs
    # with no digit between them, and a sign must be one of their right ends
    nondigit = raw - ord("0")   # past 9 for any byte but a digit
    at = np.flatnonzero(np.greater(nondigit, 9, out=nondigit.view(bool)))
    del nondigit
    kinds = np.frombuffer(raw[at].tobytes().translate(_CLASS), np.uint8)
    pairs = np.flatnonzero(np.diff(at) == 1)
    if not (
        kinds.all()
        and (_FOLLOWERS[kinds[pairs]] & kinds[pairs + 1]).all()
        and (at[0] > 0 or kinds[0] & _FOLLOWERS[_EOL])
    ):
        return None
    sign = np.flatnonzero(kinds < _DOT)
    if not (at[sign] - np.where(sign > 0, at[sign - 1], -1) == 1).all():
        return None
    marks = kinds >= _DOT
    at, kinds = at[marks], kinds[marks]
    # the marks left are dots, exponent marks and separators.  Per cell:
    # its bytes [start, end), its mantissa [start, mend) and whether it has
    # a dot (the mark before mend) and an exponent (the mark before end); a
    # cell with any other mark (a second dot) makes the count differ
    mark = np.flatnonzero(kinds >= _COMMA)
    seps, end = kinds[mark], at[mark]
    expo = kinds[mark - 1] == _EXP   # index -1 is the last line end
    mark -= expo
    mend = at[mark]
    mark -= 1
    dotted = kinds[mark] == _DOT
    if kinds.size != end.size + np.count_nonzero(dotted) + np.count_nonzero(expo):
        return None
    dot, ex = at[mark], np.flatnonzero(expo)
    # rows of ncols cells
    seps = seps.reshape(-1, ncols) if seps.size % ncols == 0 else None
    if seps is None or not ((seps[:, :-1] == _COMMA).all() and (seps[:, -1] == _EOL).all()):
        return None
    start = np.empty_like(end)
    start[0] = 0
    start[1:] = end[:-1] + 1
    digits = mend - start
    digits -= dotted
    neg = raw[start] == ord("-")
    digits -= neg
    if not (digits > 0).all() or (end[ex] - mend[ex] - 1 > _MAX_EXP_CHARS).any():
        return None
    long = np.flatnonzero(digits > _MAX_DIGITS)
    if long.size:
        # leading zeros do not count: a long cell has too many significant
        # digits where a nonzero digit comes before its 20th-last one
        lo, hi = start[long], mend[long] - _MAX_DIGITS
        hi -= dotted[long] & (dot[long] >= hi - 1)   # a dot among the last 20
        size = hi - lo
        first = np.cumsum(size) - size   # each span's first place in the list of their bytes
        if (raw[np.repeat(lo - first, size) + np.arange(size.sum())] - ord("1") < 9).any():
            return None
    k = mend - dot   # the digits after the dot
    k -= 1
    k *= dotted
    minus_e = raw[mend[ex] + 1] == ord("-")
    del at, kinds, dot, dotted, start, mend, digits
    # a cell's tokens: its mantissa, then its exponent if it has one
    m = np.fromstring(data.translate(_INTS, b".-+"), dtype=np.uint64, count=end.size + ex.size, sep=",")
    if ex.size:
        at_exp = ex + np.arange(1, ex.size + 1)
        power = m[at_exp].astype(np.int64)
        np.negative(power, out=power, where=minus_e)
        k[ex] -= power
        m = np.delete(m, at_exp)
    v = m / np.take(_POW10, k, mode="clip")
    slow = np.flatnonzero((m >= 1 << 53) | (k < 0) | (k > 22))
    v[slow], exact = _scaled(m[slow], k[slow])
    np.copysign(v, -1.0, out=v, where=neg)
    for c in slow[~exact].tolist():
        v[c] = float(data[end[c - 1] + 1 if c else 0:end[c]])
    return v.reshape(-1, ncols)


def _piece_cells(data: bytes, ncols: int) -> np.ndarray:
    """The (rows, ncols) cells of a piece's data lines: plain decimals read
    by :func:`_plain_cells`, the rest, and pieces whose first line has a
    long cell, by ``np.loadtxt``; ValueError where the line parser must decide."""
    cells = None if _LONG.search(data, 0, data.find(b"\n")) else _plain_cells(data, ncols)
    if cells is None:
        cells = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, ndmin=2)
        if cells.shape[1] != ncols:
            raise ValueError("ragged rows")
    return cells


def _parse_bulk(fh) -> DiscreteInstance | None:
    """The instance from one bulk pass over a binary stream, or None where
    that pass could read it differently from :func:`_parse_lines`.

    The pass takes only ASCII whose lines end in ``\\n`` or ``\\r\\n``, so
    it and ``str.splitlines`` split it at the same places.  Plain decimal
    pieces read exactly as ``float`` reads them; ``np.loadtxt`` reads the
    rest, and strips the same whitespace around cells and skips empty lines
    as the line parser does.  Everything else the line parser accepts or
    rejects on its own makes ``loadtxt`` or :class:`_BulkReader` raise
    ValueError, or is caught below: a comment or whitespace-only line, a
    ragged row, a cell ``float`` reads and numpy does not (``1_0``), a
    header not on the first line, no data line, an inverted row.
    """
    reader = _BulkReader(fh)
    # one array, grown in place as the pieces come: a list of pieces to
    # join would fragment the heap under the pieces' own temporaries
    cells, rows = np.empty(0), 0
    try:
        for data in reader:
            block = _piece_cells(data, reader.ncols)
            if rows + len(block) > len(cells):
                cells.resize((max(2 * len(cells), rows + len(block)), reader.ncols), refcheck=False)
            cells[rows:rows + len(block)] = block
            rows += len(block)
    except ValueError:
        return None
    if not rows:
        return None   # no data line: the line parser raises EmptyFile
    cells.resize((rows, reader.ncols), refcheck=False)
    if np.any(cells[:, 0] > cells[:, 1] + INVERSION_ATOL):
        return None
    weight = cells[:, 2] if reader.ncols == 3 else np.ones(rows)
    return normalize(DiscreteInstance(cells[:, 0], cells[:, 1], weight))


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
            # hashed as read: the report names the bytes it parsed
            with Path(self.csv_path).open("rb") as raw:
                fh = _Hashed(raw)
                instance = parse_csv(fh)
            self._csv_sha256 = fh.sha256.hexdigest()
            return instance
        if self.csv_text is not None:
            return parse_csv(self.csv_text)
        return discretize(self.spec)

    def input_digest(self) -> str:
        if self.csv_path is not None:
            if self._csv_sha256 is None:
                self._csv_sha256 = hashlib.sha256(Path(self.csv_path).read_bytes()).hexdigest()
            return self._csv_sha256
        text = self.csv_text if self.csv_text is not None else self.spec.label()
        return hashlib.sha256(text.encode()).hexdigest()


def _interval(iv: ClosedInterval, method: str) -> dict:
    return {"lo": iv.lo, "hi": iv.hi, "method": method}


def _cost_terms(terms: CostTerms, method: str) -> dict:
    implied = _interval(terms.implied, method)
    return {"s_lower": terms.s_lower, "s_upper": terms.s_upper, "implied": implied}


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
    if request.restriction and request.restriction[0] in ("mean", "moment"):
        instance._laws.clear()   # nothing else these reports answer reads the marginal laws
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
            restricted["marginal_cost_terms"] = _cost_terms(terms, "closed-form")
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
        def seen(image):   # reported also where mu lies outside it and the solve raises
            restricted["moment_image"] = _interval(image, "closed-form")
        iv, (low, high) = _moment_solve(instance, MomentRestriction(r, mu), seen)
        restricted["moment_mean"] = _interval(iv, "dual")
        restricted["duality_gap"] = {"lower": low[0] - low[1], "upper": high[0] - high[1]}
    elif kind == "quantile":
        alpha, q = request.restriction[1], request.restriction[2]
        rng = quantile_attainability_range(instance, alpha)
        restricted["attainability"] = _interval(rng, "closed-form")
        iv = quantile_restricted_mean_interval(instance, QuantileRestriction(alpha, q))
        restricted["quantile_mean"] = _interval(iv, "closed-form")


def _oracle_check(request, instance, restricted) -> dict:
    """The restricted section against its exhaustive oracle; the oracle
    itself refuses, by :class:`InstanceTooLarge`, an instance past its size
    limit, and an infeasible restriction has no section to check."""
    key, exact = _ORACLES[request.restriction[0]]
    note = "no oracle for this restriction or instance too large"
    out = {"ran": False, "max_delta": None, "note": note}
    if key not in restricted:
        return out
    try:
        ref = exact(instance, request.target, *request.restriction[1:])
    except InstanceTooLarge:
        return out
    except SelBoundsError as exc:
        return {**out, "note": f"oracle raised: {exc}"}
    mine = restricted[key]
    delta = max(abs(ref.lo - mine["lo"]), abs(ref.hi - mine["hi"]))
    return {"ran": True, "max_delta": delta, "note": None, "oracle": {"lo": ref.lo, "hi": ref.hi}}


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
        # one selection alive at a time: each holds about 22 B a scenario
        hi = extremal_selection(instance, m, "max").law().cdf(ts)
        lo = extremal_selection(instance, m, "min").law().cdf(ts)
        emit(
            "selection_cdf",
            ["t", "F_min_selection", "F_max_selection"],
            np.column_stack([ts, lo, hi]),
            "CDFs of the extremal median-restricted selections",
        )
        medians = median_benchmark(instance)
        ms = np.linspace(medians.lo, medians.hi, BOUND_GRID)
        emit(
            "bounds",
            ["m", "E_min", "E_max"],
            [(mm, iv.lo, iv.hi) for mm, iv in zip(ms, _median_curve(instance, ms))],
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
    The cost terms are read first: the median interval does not read the
    two marginal laws (about 46 B a grid point), so they are freed before
    it unless the export reads them.
    """
    spec = ComonotoneSpec(parse_law("chi2(2)"), parse_law("chi2(5)"), grid_size)
    instance = discretize(spec)
    medians = median_benchmark(instance)
    m = 0.3 * medians.lo + 0.7 * medians.hi
    terms = marginal_cost_terms(instance, m)
    if not export_path:
        instance._laws.clear()
    interval = median_restricted_mean_interval(instance, m)
    report = {
        "grid_size": grid_size,
        "median_lower": medians.lo,
        "median_upper": medians.hi,
        "m": m,
        "mean_interval": _interval(aumann_interval(instance), "closed-form"),
        "restricted_interval": _interval(interval, "closed-form"),
        "cost_terms_discrete": _cost_terms(terms, "closed-form"),
        "cost_terms_parametric": _cost_terms(
            marginal_cost_terms_parametric(spec.lower_law, spec.upper_law, m), "quadrature"
        ),
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
    except (SelBoundsError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
