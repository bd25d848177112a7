import hashlib
import io
import json
import math
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selbounds.cli as cli_module
from selbounds import (
    DiscreteInstance,
    EmptyFile,
    InvertedInterval,
    NonpositiveWeight,
    ParseError,
    TargetSet,
    aumann_interval,
    marginal_law,
    normalize,
    power_image_interval,
)
from selbounds.cli import (
    AnalysisRequest,
    _parse_bulk,
    _parse_lines,
    chi2_example,
    main,
    parse_csv,
    report_to_json,
    run,
)


def read_csv(path) -> DiscreteInstance:
    """The instance of a CSV file, parsed from the file open in binary mode."""
    with Path(path).open("rb") as fh:
        return parse_csv(fh)


class TestLoadCsv:
    def test_equal_weights_default(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n1,2\n")
        inst = read_csv(p)
        assert inst.n == 2
        assert np.allclose(inst.weight, [0.5, 0.5])

    def test_weighted_two_state(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("lower,upper,weight\n-2,0,1\n0,2,1\n")
        inst = read_csv(p)
        assert np.allclose(inst.lower, [-2, 0])
        assert np.allclose(inst.weight, [0.5, 0.5])

    def test_inverted_interval_line(self):
        with pytest.raises(InvertedInterval) as exc:
            parse_csv("lower,upper\n2,1\n")
        assert "line 2" in str(exc.value)

    def test_errors_name_the_file_line(self):
        # blank and comment lines count in the line numbers
        with pytest.raises(InvertedInterval) as exc:
            parse_csv("# note\nlower,upper\n\n2,1\n")
        assert "line 4" in str(exc.value)
        for text in ("# note\nlower,upper\n\n0,abc\n", "# note\nlower,upper\n\n0\n"):
            with pytest.raises(ParseError) as exc:
                parse_csv(text)
            assert exc.value.line == 4
        with pytest.raises(ParseError) as exc:
            parse_csv("# note\n\nx,y\n0,1\n")
        assert exc.value.line == 3

    def test_empty_and_malformed(self):
        with pytest.raises(EmptyFile):
            parse_csv("")
        with pytest.raises(EmptyFile):
            parse_csv("lower,upper\n")
        with pytest.raises(ParseError):
            parse_csv("x,y\n0,1\n")
        with pytest.raises(ParseError):
            parse_csv("lower,upper\n0,abc\n")

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text("lower,upper,weight\n0.1,0.9,0.25\n-1,2,0.75\n")
        inst = read_csv(src)
        dst = tmp_path / "dst.csv"
        # 17 significant digits carry every double exactly
        rows = [f"{l:.17g},{u:.17g},{w:.17g}" for l, u, w in zip(inst.lower, inst.upper, inst.weight)]
        dst.write_text("\n".join(["lower,upper,weight", *rows]) + "\n")
        back = read_csv(dst)
        assert np.array_equal(inst.lower, back.lower)
        assert np.array_equal(inst.upper, back.upper)
        assert np.array_equal(inst.weight, back.weight)


# Well-formed CSV text: a header, then rows of finite floats in one of
# several spellings, with whitespace around cells and, on request, blank
# lines and whole-line comments between rows.
FORMATS = ("{!r}", "{:.17g}", "{:.3g}", "{:.6e}")
SPACES = ("", " ", "\t", "  ")


@st.composite
def csv_texts(draw, comments=True):
    ncols = draw(st.sampled_from([2, 3]))
    header = ["lower", "upper", "weight"][:ncols]
    if draw(st.booleans()):
        header = [h.upper() if draw(st.booleans()) else h for h in header]
    lines = [", ".join(header) if draw(st.booleans()) else ",".join(header)]
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    for _ in range(draw(st.integers(1, 12))):
        lower = draw(finite)
        row = [lower, lower + draw(st.floats(0.0, 1e3)), draw(st.floats(1e-3, 1e3))][:ncols]
        # one spelling per row keeps the rounded lower <= upper
        fmt = draw(st.sampled_from(FORMATS))
        cells = [draw(st.sampled_from(SPACES)) + fmt.format(x) + draw(st.sampled_from(SPACES)) for x in row]
        lines.append(",".join(cells))
        if draw(st.booleans()):
            lines.append("")
        if comments and draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["# note", "  #x,1,2", "#"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _outcome(parse, text):
    """The arrays a parse returns, or the error class, line and message it raises."""
    try:
        inst = parse(text)
    except (ParseError, InvertedInterval) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return tuple(a.tobytes() for a in (inst.lower, inst.upper, inst.weight))


def _line_parse(text):
    return _parse_lines(text.splitlines())


class TestBulkParseParity:
    """The bulk pass returns the line parser's bits, and leaves it every error."""

    @given(csv_texts(comments=False))
    @settings(max_examples=150, deadline=None)
    def test_well_formed_files_take_the_bulk_path(self, text):
        assert _parse_bulk(io.BytesIO(text.encode())) is not None
        want = _outcome(_line_parse, text)
        assert _outcome(parse_csv, text) == want
        assert _outcome(parse_csv, text.encode()) == want

    @given(csv_texts())
    @settings(max_examples=150, deadline=None)
    def test_commented_files_read_identically(self, text):
        assert _outcome(parse_csv, text) == _outcome(_line_parse, text)

    @given(
        csv_texts(comments=False),
        st.sampled_from(["drop", "extra", "word", "hash", "inline_hash", "invert", "underscore", "blank_cell"]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_malformed_files_fail_as_the_line_parser_does(self, text, how, data):
        lines = text.splitlines()
        rows = [i for i, ln in enumerate(lines) if i > 0 and ln]
        i = data.draw(st.sampled_from(rows))
        cells = lines[i].split(",")
        if how == "drop":
            cells = cells[:-1]
        elif how == "extra":
            cells.append("1")
        elif how == "word":
            cells[-1] = "abc"
        elif how == "hash":
            cells[-1] += " # trailing note"
        elif how == "inline_hash":
            cells[0] = "1#2"
        elif how == "invert":
            cells[0], cells[1] = "5", "-5"
        elif how == "underscore":
            cells[0] = "1_0"   # float reads 10, numpy refuses: only the line parser takes it
        else:
            cells[1] = " "
        lines[i] = ",".join(cells)
        bad = "\n".join(lines) + "\n"
        assert _parse_bulk(io.BytesIO(bad.encode())) is None
        assert _outcome(parse_csv, bad) == _outcome(_line_parse, bad)

    @given(
        csv_texts(),
        st.sampled_from(
            ["\v", "\f", "\x1c", "\x85", "\u2028", "\r", "\r\r\n", "\n# naïve – ü\n"]
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_other_line_boundaries_read_as_the_line_parser_does(self, text, piece, data):
        # str.splitlines breaks at each of these and numpy at none (a lone
        # \r makes loadtxt raise), so the bulk pass must leave them alone
        at = data.draw(st.integers(0, len(text)))
        odd = text[:at] + piece + text[at:]
        want = _outcome(_line_parse, odd)
        assert _outcome(parse_csv, odd) == want
        assert _outcome(parse_csv, odd.encode()) == want

    @given(csv_texts())
    @settings(max_examples=50, deadline=None)
    def test_byte_order_mark_reads_as_the_line_parser_does(self, text):
        odd = "\ufeff" + text
        assert _parse_bulk(io.BytesIO(odd.encode())) is None
        assert _outcome(parse_csv, odd.encode()) == _outcome(_line_parse, odd)

    def test_invalid_utf8_is_a_parse_error_on_its_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"lower,upper\n0,1\n\xff,2\n")
        with pytest.raises(ParseError) as exc:
            read_csv(p)
        assert exc.value.line == 3
        with pytest.raises(ParseError) as exc:
            parse_csv(b"# caf\xc3\xa9\r\nlower,upper\r\n0,\xe9\n")
        assert exc.value.line == 3
        assert main(["bounds", "--input", str(p)]) == 1
        assert capsys.readouterr().err == "error: line 3: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize("ncols", [2, 3])
    def test_bulk_pass_builds_one_instance(self, monkeypatch, ncols):
        rng = np.random.default_rng(ncols)
        lower = rng.normal(size=5000)
        cols = [lower, lower + rng.exponential(1.0, lower.size), rng.uniform(0.1, 1.0, lower.size)][:ncols]
        text = ",".join(["lower", "upper", "weight"][:ncols]) + "\n"
        text += "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in cols)))
        builds, real_init = [], DiscreteInstance.__init__
        monkeypatch.setattr(DiscreteInstance, "__init__", lambda *a: builds.append(1) or real_init(*a))
        inst = parse_csv(text.encode())
        assert len(builds) == 1
        weight = cols[2] if ncols == 3 else np.ones(lower.size)
        assert inst.weight.tobytes() == normalize(DiscreteInstance(*cols[:2], weight)).weight.tobytes()

    def test_ingest_working_set(self, tmp_path):
        # the file's bytes, numpy's buffers and the instance: no decoded
        # text and no list of lines (4.6 times the file with them)
        rng = np.random.default_rng(3)
        lower = rng.uniform(0.0, 4.0, 20_000)
        upper = lower + rng.exponential(1.0, lower.size)
        rows = zip(lower.tolist(), upper.tolist(), rng.uniform(0.1, 1.0, lower.size).tolist())
        p = tmp_path / "big.csv"
        p.write_text("lower,upper,weight\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        tracemalloc.start()
        try:
            inst = AnalysisRequest(csv_path=str(p)).build_instance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n == 20_000
        assert peak <= 3 * p.stat().st_size

    def test_ingest_peak_per_row(self, tmp_path):
        # 60.0 bytes a row with numpy 2.4.6, against 67.0 while the bulk pass
        # divided a contiguous copy of the weights itself before the
        # constructor copied them again; numpy 1.23 is not measured
        n = 100_000
        p = tmp_path / "rows.csv"
        p.write_text(_rows_text(n, seed=3))
        tracemalloc.start()
        try:
            with p.open("rb") as fh:
                inst = parse_csv(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n == n
        assert peak <= 63 * n

    @pytest.mark.parametrize(
        "text",
        ["lower,upper\n", "lower,upper,weight\n\n\n", "lower,upper\n   \n", "lower,upper", ""],
    )
    def test_header_only(self, text):
        assert _parse_bulk(io.BytesIO(text.encode())) is None
        with pytest.raises(EmptyFile):
            parse_csv(text)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1,1e308\n1,2,1e308\n", "overflows"),   # finite weights, an inf sum
            ("0,1,inf\n1,2,1\n", "positive and finite"),
            ("0,1,-1\n1,2,0.5\n", "positive and finite"),
        ],
    )
    def test_bad_weights_are_refused_as_the_line_parser_refuses_them(self, rows, message):
        # both paths raise the same error and no numpy warning, which the
        # suite's warnings-as-errors filter would raise in its place
        text = "lower,upper,weight\n" + rows
        for parse in (parse_csv, _line_parse):
            with pytest.raises(NonpositiveWeight, match=message):
                parse(text)
        with pytest.raises(NonpositiveWeight, match=message):
            _parse_bulk(io.BytesIO(text.encode()))   # the bulk pass reads the file


def _rows_text(n, seed=5, eol="\n"):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(0.0, 4.0, n)
    rows = zip(lower.tolist(), (lower + rng.exponential(1.0, n)).tolist(), rng.uniform(0.1, 1.0, n).tolist())
    return "lower,upper,weight" + eol + "".join(f"{a!r},{b!r},{c!r}{eol}" for a, b, c in rows)


def _file_outcome(path):
    """A file report's instance bits, or its error class, line and message;
    the digest it reports must be the sha256 of the file."""
    request = AnalysisRequest(csv_path=str(path))
    try:
        inst = request.build_instance()
    except (ParseError, InvertedInterval) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    assert request.input_digest() == hashlib.sha256(path.read_bytes()).hexdigest()
    return tuple(a.tobytes() for a in (inst.lower, inst.upper, inst.weight))


class TestStreamedIngest:
    """A CSV file is read once, in chunks, and reads as its bytes do."""

    def check(self, tmp_path, monkeypatch, data: bytes, chunk: int, bulk: bool = False):
        """The file reads as its bytes do; with ``bulk``, without the line parser."""
        want = _outcome(parse_csv, data)
        if bulk:
            def refuse(lines):
                raise AssertionError("a well-formed file reached the line parser")

            monkeypatch.setattr(cli_module, "_parse_lines", refuse)
        monkeypatch.setattr(cli_module, "_CHUNK", chunk)
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert _file_outcome(path) == want
        assert _outcome(read_csv, path) == want

    @pytest.mark.parametrize("after", [0, 100, 5000])
    def test_crlf_split_across_a_chunk_boundary(self, tmp_path, monkeypatch, after):
        data = _rows_text(300, eol="\r\n").encode()
        chunk = data.index(b"\r\n", after) + 1   # the first read ends between \r and \n
        self.check(tmp_path, monkeypatch, data, chunk, bulk=True)
        self.check(tmp_path, monkeypatch, data, 1, bulk=True)   # every \r\n split

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    @pytest.mark.parametrize(
        "piece",
        [b"\r", b"\xc3\xa9", b"\xff", b"\n# a comment line\n", b"\n#\n", b"\x0c"],
        ids=["lone_cr", "non_ascii", "invalid_utf8", "comment", "bare_hash", "form_feed"],
    )
    def test_declined_files_read_as_their_bytes(self, tmp_path, monkeypatch, chunk, piece):
        text = _rows_text(200).encode()
        for at in (text.index(b"\n") + 1, len(text) // 2, len(text) - 3):
            self.check(tmp_path, monkeypatch, text[:at] + piece + text[at:], chunk)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 18])
    @pytest.mark.parametrize("tail", [b"\n", b"\n\n\n", b"\r\n\r\n", b"\n \n", b""])
    def test_header_with_no_data_line_is_an_empty_file(self, tmp_path, monkeypatch, chunk, tail):
        path = tmp_path / "in.csv"
        path.write_bytes(b"lower,upper,weight" + tail)
        monkeypatch.setattr(cli_module, "_CHUNK", chunk)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # loadtxt's "input contained no data" would be one
            with pytest.raises(EmptyFile):
                read_csv(path)
            with pytest.raises(EmptyFile):
                AnalysisRequest(csv_path=str(path)).build_instance()

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    def test_well_formed_files_take_the_bulk_path(self, tmp_path, monkeypatch, chunk):
        data = _rows_text(500).encode()
        self.check(tmp_path, monkeypatch, data, chunk, bulk=True)
        self.check(tmp_path, monkeypatch, data[:-1], chunk, bulk=True)   # no final line end

    def test_one_read_of_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "in.csv"
        path.write_bytes(_rows_text(20_000).encode())
        reads = []
        real_open = Path.open

        def counted(self, *args, **kw):
            fh = real_open(self, *args, **kw)
            real_read = fh.read
            fh.read = lambda *a: reads.append(a) or real_read(*a)
            return fh

        monkeypatch.setattr(Path, "open", counted)
        read_csv(path)
        # chunks of the default size, then the empty read at the end
        assert len(reads) == -(-path.stat().st_size // (1 << 18)) + 1
        assert all(a == (1 << 18,) for a in reads)


@st.composite
def plain_decimals(draw):
    """A cell of the plain-decimal grammar -?digits[.digits][e[+-]digits]
    that reads as a finite double: ``repr`` of a double, a short spelling,
    or a mantissa of up to 19 digits after any number of leading zeros,
    with or without an exponent."""
    kind = draw(st.sampled_from(["repr", "short", "composed", "composed"]))
    if kind == "repr":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "short":
        return draw(st.sampled_from(["-0.0", "-0", ".5", "5.", "-.25", "007", "0.000", "00.50", "1e0", "0e-400"]))
    whole = draw(st.text("0123456789", max_size=19))
    frac = draw(st.text("0123456789", max_size=19 - len(whole)))
    mantissa = whole + ("." + frac if draw(st.booleans()) else frac)
    if not whole + frac:
        mantissa = "0"
    cell = draw(st.sampled_from(["", "-"])) + draw(st.sampled_from(["", "0", "000000"])) + mantissa
    if draw(st.booleans()):
        exp = draw(st.integers(-330, 330))
        cell += draw(st.sampled_from("eE")) + ("+" if exp >= 0 and draw(st.booleans()) else "") + str(exp)
    return cell if math.isfinite(float(cell)) else cell.lower().partition("e")[0]


@st.composite
def plain_csv_files(draw):
    """The bytes of a CSV file of plain decimal rows, lower <= upper."""
    ncols = draw(st.sampled_from([2, 3]))
    lines = [",".join(["lower", "upper", "weight"][:ncols])]
    for _ in range(draw(st.integers(1, 20))):
        ends = sorted([draw(plain_decimals()), draw(plain_decimals())], key=float)
        weight = draw(st.integers(1, 10**6)) / 10 ** draw(st.integers(0, 8))
        lines.append(",".join([*ends, draw(st.sampled_from([repr(weight), f"{weight:.6e}"]))][:ncols]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return (eol.join(lines) + (eol if draw(st.booleans()) else "")).encode()


def _midpoint_corpus() -> list[str]:
    """Decimals at or next to the midpoint of two adjacent doubles.

    Midpoints of doubles between 2**50 and 10**18 are exact decimals of at
    most 19 digits (odd integers, or ending in .5, .25 or .125), which the
    scaled product cannot settle on either side; written with a dot or an
    exponent or neither, and plus and minus one in the last digit.
    Midpoints of doubles across the range, written to 17 to 19 digits,
    plus and minus one in the last digit, lie next to theirs.
    """
    rng = np.random.default_rng(20)
    cells = []
    for a in rng.uniform(2.0**53, 1e18, 300):
        mid = int(a) + int(np.spacing(a)) // 2
        for m in map(str, (mid - 1, mid, mid + 1)):
            cells += [m, m + ".0", f"{m[0]}.{m[1:]}e{len(m) - 1}"]
    for a in rng.uniform(2.0**50, 2.0**53, 300):
        mid = Decimal(float(a)) + Decimal(float(np.spacing(a))) / 2
        unit = Decimal(1).scaleb(mid.as_tuple().exponent)
        cells += [str(mid + d * unit) for d in (-1, 0, 1)]
    for a in rng.uniform(1.0, 2.0, 300) * 10.0 ** rng.integers(-300, 300, 300):
        mid = (Decimal(float(a)) + Decimal(float(np.nextafter(a, np.inf)))) / 2
        for digits in (17, 18, 19):
            mantissa, exp = f"{mid:.{digits - 1}e}".split("e")
            m = int(mantissa.replace(".", ""))
            cells += [f"{m + d}e{int(exp) - digits + 1}" for d in (-1, 0, 1)]
    return cells


class TestPlainDecimalReader:
    """Plain decimal cells are read from their integer mantissas and one
    exact power-of-ten scaling, to the bits ``float`` reads."""

    @given(plain_csv_files())
    @settings(max_examples=300, deadline=None)
    def test_bulk_pass_reads_the_line_parser_bits(self, data):
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("np.loadtxt was called")):
            bulk = _parse_bulk(io.BytesIO(data))
        lines = _parse_lines(data.decode().splitlines())
        for a, b in ((bulk.lower, lines.lower), (bulk.upper, lines.upper), (bulk.weight, lines.weight)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_near_halfway_decimals_read_as_float_reads_them(self, monkeypatch):
        cells = _midpoint_corpus()
        uncertain, real_scaled = [], cli_module._scaled

        def scaled(m, k):
            v, exact = real_scaled(m, k)
            uncertain.extend(m[~exact & (k >= cli_module._K_LO) & (k <= cli_module._K_HI)].tolist())
            return v, exact

        monkeypatch.setattr(cli_module, "_scaled", scaled)
        inst = parse_csv(("lower,upper\n" + "".join(f"{c},{c}\n" for c in cells)).encode())
        want = np.array([float(c) for c in cells])
        assert np.array_equal(inst.lower.view(np.int64), want.view(np.int64))
        assert uncertain   # products within the error bound of a midpoint went to float

    def test_plain_files_do_not_reach_loadtxt(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt was called")

        rng = np.random.default_rng(4)
        lower = rng.uniform(-1e-3, 1e-3, 3000)
        upper, weight = lower + rng.exponential(1.0, lower.size), rng.uniform(0.1, 1.0, lower.size)
        rows = [f"{a:.6e},{b!r},{w:.3E}" for a, b, w in zip(lower.tolist(), upper.tolist(), weight.tolist())]
        tail = [
            "-1E+2,-5.e-1,5",
            ".25,2.,1e0",
            "-0.000123456789012345678,01.234567890123456789,0000000000000000000001",   # 18 and 19 significant digits
        ]
        text = "\r\n".join(["lower,upper,weight", *rows, *tail]) + "\r\n"
        want = _outcome(_line_parse, text)
        monkeypatch.setattr(np, "loadtxt", refuse)
        assert _outcome(parse_csv, text.encode()) == want
        # a padded cell, and mantissas and exponents longer than a uint64
        # holds, are numpy's to read
        long = ["0.0012345678901234567890", "-12345678901234567890", "1.2345678901234567890e-5", "1.5e0000000001"]
        for cell in [" 0.5", *long]:
            with pytest.raises(AssertionError, match="loadtxt"):
                parse_csv(f"lower,upper\n{cell},{cell}\n".encode())

    @pytest.mark.parametrize("first", ["long", "short"])
    def test_a_long_first_line_skips_the_grammar_pass(self, monkeypatch, first):
        """Each piece whose first line has a cell of more than 19
        significant digits goes to np.loadtxt without the grammar pass; one
        with a short first line runs it and declines there.  Both read the
        bits float reads."""
        rng = np.random.default_rng(6)
        lower = rng.uniform(-4.0, 4.0, 3000)
        upper = lower + rng.exponential(1.0, lower.size)
        rows = [f"{a:.20f},{b:.20f}\n" for a, b in zip(lower.tolist(), upper.tolist())]
        if first == "short":
            rows[0] = "0.5,0.75\n"
        grammar, real = [], cli_module._plain_cells
        monkeypatch.setattr(cli_module, "_CHUNK", 1 << 14)   # about ten pieces
        monkeypatch.setattr(cli_module, "_plain_cells", lambda *a: grammar.append(a) or real(*a))
        inst = parse_csv(("lower,upper\n" + "".join(rows)).encode())
        assert len(grammar) == (first == "short")
        want = np.array([[float(c) for c in row.split(",")] for row in rows])
        assert np.array_equal(inst.lower.view(np.int64), want[:, 0].view(np.int64))
        assert np.array_equal(inst.upper.view(np.int64), want[:, 1].view(np.int64))

    def test_a_short_first_line_keeps_the_grammar_pass(self, monkeypatch):
        rows = [f"{x!r},{x + 1.0!r}\n" for x in np.random.default_rng(7).normal(0.0, 1e-5, 3000).tolist()]
        grammar, real = [], cli_module._plain_cells
        monkeypatch.setattr(cli_module, "_CHUNK", 1 << 14)
        monkeypatch.setattr(cli_module, "_plain_cells", lambda *a: grammar.append(a) or real(*a))
        monkeypatch.setattr(np, "loadtxt", mock.Mock(side_effect=AssertionError("np.loadtxt was called")))
        inst = parse_csv(("lower,upper\n" + "".join(rows)).encode())
        assert len(grammar) > 5
        want = np.array([float(row.split(",")[0]) for row in rows])
        assert np.array_equal(inst.lower.view(np.int64), want.view(np.int64))


class TestWorkingSet:
    """tracemalloc peaks at 50,000 rows in bytes per row, bounds set from
    measurement plus at most 3: 116 (mean pin), 90 (moment) and 33 (one
    marginal law), and 94 B per grid point for ``example-chi2`` at a grid
    of 50,001.  They were 135 (mean pin), 106 (moment) and 99 (chi-square)
    while the calibration's span values lived beside its selection
    blocks, the power image copied nonnegative endpoints, a moment pass
    held its endpoint values and the scaled data whole, and the example
    kept its marginal laws through the median interval; and 208-218, 169
    and 74 (law) while the file was read whole, the laws stayed alive
    through the solves and a law build copied."""

    N = 50_000

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ws") / "rows.csv"
        path.write_text(_rows_text(self.N, seed=3))
        return path

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("at", [0.05, 0.7])
    def test_mean_pin_report(self, csv_path, at):
        inst = read_csv(csv_path)
        box = aumann_interval(inst)
        request = AnalysisRequest(
            csv_path=str(csv_path),
            restriction=("mean", box.lo + at * box.width),
            target=TargetSet.from_pairs([[1.0, 2.0], [3.0, 3.5]]),
        )
        del inst
        assert self.peak(lambda: run(request)) <= 119 * self.N

    def test_moment_report(self, csv_path):
        inst = read_csv(csv_path)
        image = power_image_interval(inst, 2.0)
        request = AnalysisRequest(csv_path=str(csv_path), restriction=("moment", 2.0, image.lo + 0.37 * image.width))
        del inst
        assert self.peak(lambda: run(request)) <= 93 * self.N

    def test_chi2_example(self):
        grid = 50_001
        assert self.peak(lambda: chi2_example(grid)) <= 97 * grid

    def test_marginal_law(self, csv_path):
        inst = read_csv(csv_path)
        assert self.peak(lambda: marginal_law(inst, "upper")) <= 48 * self.N

    def test_no_marginal_law_is_alive_in_a_mean_pin_or_moment_solve(self, csv_path, monkeypatch):
        alive = []
        for name in ("_dual", "_pin_at", "_moment_solve"):
            real = getattr(cli_module, name)
            monkeypatch.setattr(
                cli_module, name, lambda inst, *a, real=real: alive.append(len(inst._laws)) or real(inst, *a)
            )
        inst = read_csv(csv_path)
        box, image = aumann_interval(inst), power_image_interval(inst, 2.0)
        target = TargetSet.from_pairs([[1.0, 2.0], [3.0, 3.5]])
        run(AnalysisRequest(csv_path=str(csv_path), restriction=("mean", box.lo + 0.7 * box.width), target=target))
        run(AnalysisRequest(csv_path=str(csv_path), restriction=("moment", 2.0, image.lo + 0.37 * image.width)))
        assert alive == [0, 0, 0]


class TestRun:
    def two_state_request(self, **kw):
        return AnalysisRequest(csv_text="lower,upper,weight\n-2,0,1\n0,2,1\n", **kw)

    def test_benchmarks_always_present(self):
        report = run(self.two_state_request())
        assert report["benchmark"]["mean"]["lo"] == -1.0
        assert report["benchmark"]["mean"]["hi"] == 1.0
        assert report["benchmark"]["median"]["lo"] == -2.0
        assert report["benchmark"]["median"]["hi"] == 0.0
        assert report["feasibility"]["status"] == "ok"

    def test_median_restriction_report(self):
        report = run(self.two_state_request(restriction=("median", -1.0)))
        iv = report["restricted"]["median_mean"]
        assert iv["method"] == "closed-form"
        assert iv["lo"] <= iv["hi"]
        bench = report["benchmark"]["mean"]
        assert bench["lo"] - 1e-12 <= iv["lo"] and iv["hi"] <= bench["hi"] + 1e-12

    def test_infeasible_diagnosis(self):
        report = run(self.two_state_request(restriction=("median", 5.0)))
        assert report["feasibility"]["status"] == "infeasible"
        assert "exceeds 1/2" in report["feasibility"]["diagnosis"]
        assert report["restricted"] is None

    def test_oracle_cross_check(self):
        req = self.two_state_request(restriction=("median", -0.5), run_oracle=True)
        report = run(req)
        check = report["oracle_check"]
        assert check["ran"] and check["max_delta"] <= 1e-9

    @staticmethod
    def thousand_row_request(**kw):
        rng = np.random.default_rng(17)
        lower = rng.uniform(0.0, 4.0, 1000)
        rows = zip(lower, lower + rng.exponential(1.0, 1000), rng.uniform(0.1, 1.0, 1000))
        text = "lower,upper,weight\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in rows)
        return AnalysisRequest(csv_text=text, **kw)

    @pytest.mark.parametrize(
        "extra",
        [
            {"restriction": ("median", 2.4)},
            {"restriction": ("quantile", 0.25, 1.6)},
            {"attainability_alpha": 0.25},
        ],
    )
    def test_report_builds_each_marginal_law_once(self, monkeypatch, extra):
        # the median benchmark, the --alpha range, the quantile restriction
        # and the cost terms all read the laws kept on the instance
        import selbounds.model as model

        calls = []
        real = model.marginal_law
        monkeypatch.setattr(model, "marginal_law", lambda inst, side: calls.append(side) or real(inst, side))
        report = run(self.thousand_row_request(**extra))
        assert report["feasibility"]["status"] == "ok"
        assert sorted(calls) == ["lower", "upper"]

    def test_median_report_builds_each_marginal_law_once(self, monkeypatch):
        # once for the median benchmark, and the cost terms read the same laws
        import selbounds.model as model

        calls = []
        real = model.marginal_law
        monkeypatch.setattr(model, "marginal_law", lambda inst, side: calls.append(side) or real(inst, side))
        report = run(self.two_state_request(restriction=("median", -1.0)))
        assert len(calls) == 2
        assert "marginal_cost_terms" in report["restricted"]

    def test_median_report_partitions_once(self, monkeypatch):
        import selbounds.cli as cli
        import selbounds.median as median

        calls = []
        real = median.partition
        counted = lambda inst, m: calls.append(m) or real(inst, m)
        for module in (cli, median):
            monkeypatch.setattr(module, "partition", counted)
        report = run(self.thousand_row_request(restriction=("median", 2.4)))
        assert "median_mean" in report["restricted"]
        assert calls == [2.4]
        calls.clear()
        report = run(self.thousand_row_request(restriction=("median", 0.5)))
        assert report["feasibility"]["status"] == "infeasible"
        assert calls == [0.5]

    def test_mean_report_builds_one_gap_profile_and_calibrates_once(self, monkeypatch):
        # the probability benchmark, both bounds, the calibration and the
        # dual all read one profile
        import selbounds.cli
        import selbounds.events as events

        builds, calibrations = [], []
        real_profile, real_calibrate = events.gap_profile, events._calibrate
        counted = lambda *a: builds.append(1) or real_profile(*a)
        for module in (selbounds.cli, events):
            monkeypatch.setattr(module, "gap_profile", counted)
        monkeypatch.setattr(events, "_calibrate", lambda *a: calibrations.append(1) or real_calibrate(*a))
        target = TargetSet.from_pairs([[0.5, 1.5]])
        report = run(self.two_state_request(restriction=("mean", 0.5), target=target))
        assert (len(builds), len(calibrations)) == (1, 1)
        assert report["restricted"]["probability"]["hi"] == pytest.approx(0.5, abs=1e-12)

    def test_duality_gap_certificates(self):
        target = TargetSet.from_pairs([[0.5, 1.5]])
        report = run(self.two_state_request(restriction=("mean", 0.5), target=target))
        assert report["schema_version"] == 2
        restricted = report["restricted"]
        gap = restricted["duality_gap"]
        assert gap == {
            "lower": restricted["probability_dual"]["lo"] - restricted["probability"]["lo"],
            "upper": restricted["probability_dual"]["hi"] - restricted["probability"]["hi"],
        }
        assert max(abs(gap["lower"]), abs(gap["upper"])) <= 1e-12
        report = run(self.two_state_request(restriction=("moment", 3.0, 1.0)))
        gap = report["restricted"]["duality_gap"]
        assert set(gap) == {"lower", "upper"}
        assert max(abs(gap["lower"]), abs(gap["upper"])) <= 1e-12

    def test_deterministic_bytes(self):
        a = report_to_json(run(self.two_state_request(restriction=("median", -1.0))))
        b = report_to_json(run(self.two_state_request(restriction=("median", -1.0))))
        assert a == b

    def test_provenance_block(self):
        report = run(self.two_state_request())
        prov = report["provenance"]
        assert len(prov["input_sha256"]) == 64
        assert prov["tool_version"]
        assert "mass" in prov["tolerances"]

    def test_csv_file_read_once(self, tmp_path, monkeypatch):
        # the report hashes the bytes it parsed instead of reading the file again
        p = tmp_path / "a.csv"
        p.write_text("lower,upper,weight\n-2,0,1\n0,2,1\n")
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        opened = []
        real_open = Path.open
        monkeypatch.setattr(
            Path, "open", lambda self, *a, **kw: opened.append(self) or real_open(self, *a, **kw)
        )
        report = run(AnalysisRequest(csv_path=str(p), restriction=("median", -1.0)))
        assert opened == [p]
        assert report["provenance"]["input_sha256"] == digest


class TestMainExitCodes:
    def test_bounds_ok(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n")
        assert main(["bounds", "--input", str(p)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["benchmark"]["mean"] == {"lo": 0.0, "hi": 1.0, "method": "closed-form"}

    def test_bounds_when_marginal_masses_round_apart(self, tmp_path, capsys):
        # the two marginal laws sum the weights below -1.25 in different
        # orders, to 0.49999999999999994 and 0.5
        p = tmp_path / "six.csv"
        p.write_text(
            "lower,upper,weight\n-1.5,-0.5,1\n0.5,1.75,1\n1.5,1.75,3\n"
            "-1.25,0.25,2\n1,2,3\n-2,-1.25,4\n"
        )
        assert main(["bounds", "--input", str(p)]) == 0
        median = json.loads(capsys.readouterr().out)["benchmark"]["median"]
        assert (median["lo"], median["hi"]) == (-1.25, 0.25)

    def test_parse_errors_name_the_line_once(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        for body, message in (
            ("lower,upper\n0,1\n0,abc\n", "line 3: non-numeric cell in row: '0,abc'"),
            ("# note\nlower,upper\n\n2,1\n", "line 4: lower=2.0 > upper=1.0"),
            ("lower,upper\n", "CSV contains a header but no data rows"),
        ):
            p.write_text(body)
            assert main(["bounds", "--input", str(p)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_exit_2(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n")
        assert main(["restrict-median", "--input", str(p), "--m", "5"]) == 2

    def test_error_exit_1(self, tmp_path, capsys):
        assert main(["bounds", "--input", str(tmp_path / "missing.csv")]) == 1
        assert main(["bounds"]) == 1  # no source at all

    def test_mean_prob_subcommand(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n")
        code = main([
            "restrict-mean-prob", "--input", str(p),
            "--kappa", "0.5", "--target", "[[0.8,1]]",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["restricted"]["probability"]["hi"] == pytest.approx(0.625, abs=1e-9)
        assert payload["restricted"]["lambda_star"] == pytest.approx(-1.25, abs=1e-6)

    def test_moment_and_quantile_subcommands(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n")
        assert main(["restrict-moment", "--input", str(p), "--r", "2", "--mu", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["restricted"]["moment_mean"]["lo"] == pytest.approx(0.25, abs=1e-4)
        assert main(["restrict-quantile", "--input", str(p), "--alpha", "0.25", "--q", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["restricted"]["quantile_mean"]["hi"] == pytest.approx(0.875, abs=1e-12)

    def test_verify_subcommand(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper,weight\n-2,0,1\n0,2,1\n")
        assert main(["verify", "--input", str(p), "--m", "-0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_check"]["ran"]

    def test_oracle_and_tolerance_belong_to_verify(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n")
        assert main(["bounds", "--input", str(p), "--oracle"]) == 1
        assert main(["restrict-median", "--input", str(p), "--m", "0.5", "--tolerance", "1"]) == 1

    def test_negative_moment_order_exit_1(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n1,4\n2,3\n")
        assert main(["restrict-moment", "--input", str(p), "--r", "-1", "--mu", "0.4"]) == 1

    def test_verify_moment_shape(self, tmp_path, capsys):
        # a shape on which a refined-mesh oracle overstated the lower endpoint by 2.2e-2
        p = tmp_path / "a.csv"
        p.write_text(
            "lower,upper,weight\n"
            "0.16779440901868237,0.6469265856418469,0.5821696144796952\n"
            "0.9032464289430996,1.86857267563935,0.4178303855203049\n"
        )
        code = main([
            "verify", "--input", str(p), "--r", "2", "--mu", "0.8550213633821406",
            "--tolerance", "1e-6",
        ])
        assert code == 0
        check = json.loads(capsys.readouterr().out)["oracle_check"]
        assert check["ran"] and check["max_delta"] <= 1e-6

    @pytest.mark.parametrize("kind, limit", [("median", 12), ("mean", 8), ("moment", 6), ("quantile", 12)])
    def test_verify_oracle_notes(self, tmp_path, capsys, kind, limit):
        # the oracle runs up to its size limit; past it, and for an infeasible
        # pin, the report says it did not run
        def verify(n, feasible):
            rng = np.random.default_rng(n)
            lower = rng.uniform(0.0, 2.0, n)
            upper = lower + rng.uniform(0.2, 1.5, n)
            p = tmp_path / f"{n}.csv"
            p.write_text("lower,upper\n" + "".join(f"{a},{b}\n" for a, b in zip(lower, upper)))
            pos = 0.5 if feasible else 10.0   # inside the admissible range, or far past it

            def blend(f):   # f of the lower endpoints moved pos of the way to f of the upper ones
                return str(f(lower) + pos * (f(upper) - f(lower)))

            pins = {
                "median": ["--m", blend(lambda x: np.quantile(x, 0.5, method="inverted_cdf"))],
                "mean": ["--kappa", blend(np.mean), "--target", "[[1,2]]"],
                "moment": ["--r", "2", "--mu", blend(lambda x: np.mean(x**2))],
                "quantile": ["--alpha", "0.3", "--q", blend(lambda x: np.quantile(x, 0.3, method="inverted_cdf"))],
            }
            code = main(["verify", "--input", str(p), "--tolerance", "1e-4", *pins[kind]])
            return code, json.loads(capsys.readouterr().out)["oracle_check"]

        none = "no oracle for this restriction or instance too large"
        code, check = verify(limit, True)
        assert (code, check["ran"], check["note"]) == (0, True, None)
        assert check["max_delta"] <= 1e-4
        assert verify(limit + 1, True) == (0, {"ran": False, "max_delta": None, "note": none})
        assert verify(limit, False) == (2, {"ran": False, "max_delta": None, "note": none})

    def test_bounds_alpha_and_export_parse_once(self, tmp_path, capsys, monkeypatch):
        import selbounds.cli as cli

        calls = []
        real_parse = cli.parse_csv
        monkeypatch.setattr(cli, "parse_csv", lambda text: calls.append(text) or real_parse(text))
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n2,3\n")
        code = main([
            "bounds", "--input", str(p), "--alpha", "0.25", "--export", str(tmp_path / "c"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert payload["benchmark"]["quantile_attainability"] == {
            "lo": 0.0, "hi": 1.0, "method": "closed-form",
        }
        assert list(payload["benchmark"]) == ["mean", "median", "quantile_attainability"]
        assert list(payload)[-2:] == ["provenance", "exported"]

    def test_spec_source(self, capsys):
        code = main(["bounds", "--spec", "uniform(0,1)/uniform(1,2)", "--grid", "100"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"]["mean"]["lo"] == pytest.approx(0.5, abs=1e-12)
        assert payload["benchmark"]["mean"]["hi"] == pytest.approx(1.5, abs=1e-12)


class TestCurveExport:
    def test_median_export_files(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper\n0,1\n")
        base = tmp_path / "curves" / "run1"
        code = main([
            "restrict-median", "--input", str(p), "--m", "0.5",
            "--export", str(base),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        files = payload["exported"]
        names = {Path(f).name for f in files}
        assert names == {"run1_cdf.tsv", "run1_selection_cdf.tsv", "run1_bounds.tsv", "run1_schema.txt"}
        # constant interval: the lower bound curve is the line m/2
        rows = [
            ln.split("\t")
            for ln in (tmp_path / "curves" / "run1_bounds.tsv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        for m_str, emin_str, emax_str in rows:
            m = float(m_str)
            assert float(emin_str) == pytest.approx(m / 2, abs=1e-10)
            assert float(emax_str) == pytest.approx((m + 1) / 2, abs=1e-10)

    def test_mean_prob_export_concave_upper(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("lower,upper,weight\n0,1,0.6\n0.2,0.9,0.4\n")
        base = tmp_path / "run2"
        code = main([
            "restrict-mean-prob", "--input", str(p), "--kappa", "0.5",
            "--target", "[[0.8,1]]", "--export", str(base),
        ])
        assert code == 0
        rows = [
            ln.split("\t")
            for ln in (tmp_path / "run2_bounds.tsv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        us = np.array([float(r[2]) for r in rows])
        ls = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(us, 2) <= 1e-8)   # U concave along the grid
        assert np.all(np.diff(ls, 2) >= -1e-8)  # L convex

    def test_mean_pin_curve_matches_point_bounds(self, tmp_path):
        # every row of a 201-point curve at n = 2000, not a sample of them
        from selbounds import aumann_interval, mean_restricted_prob_bounds
        from selbounds.cli import BOUND_GRID, export_curves

        rng = np.random.default_rng(2000)
        lower = rng.uniform(0.0, 4.0, 2000)
        rows = zip(lower, lower + rng.exponential(1.0, 2000), rng.uniform(0.1, 1.0, 2000))
        inst = DiscreteInstance.from_rows(rows)
        target = TargetSet.from_pairs([[1, 2], [3, 3.5]])
        request = AnalysisRequest(restriction=("mean", 2.0), target=target)
        export_curves(request, inst, tmp_path / "pin")
        table = np.loadtxt(tmp_path / "pin_bounds.tsv", delimiter="\t", ndmin=2)
        box = aumann_interval(inst)
        kappas = np.linspace(box.lo, box.hi, BOUND_GRID)
        assert table.shape == (BOUND_GRID, 3)
        assert np.allclose(table[:, 0], kappas, rtol=6e-12, atol=0.0)   # 12 digits
        # the file holds 12 significant digits of probabilities in [0, 1]
        for row, kappa in zip(table, kappas):
            iv = mean_restricted_prob_bounds(inst, target, float(kappa))
            assert abs(row[1] - iv.lo) <= 1e-12 and abs(row[2] - iv.hi) <= 1e-12
        assert len(np.unique(table[:, 1])) > 20 and len(np.unique(table[:, 2])) > 20

    def test_mean_pin_export_builds_one_gap_profile(self, tmp_path, monkeypatch):
        import selbounds.cli as cli
        import selbounds.events as events

        calls = []
        real = events.gap_profile
        counted = lambda inst, target: calls.append(target) or real(inst, target)
        for module in (cli, events):
            monkeypatch.setattr(module, "gap_profile", counted)
        request = AnalysisRequest(
            csv_text="lower,upper,weight\n0,1,0.6\n0.2,0.9,0.4\n",
            restriction=("mean", 0.5),
            target=TargetSet.from_pairs([[0.8, 1.0]]),
        )
        cli.export_curves(request, request.build_instance(), tmp_path / "pin")
        assert len(calls) == 1   # one profile serves all 201 points of the curve

    def test_mean_pin_report_with_export_builds_one_gap_profile(self, tmp_path, monkeypatch):
        import selbounds.cli as cli
        import selbounds.events as events

        calls = []
        real = events.gap_profile
        counted = lambda inst, target: calls.append(target) or real(inst, target)
        for module in (cli, events):
            monkeypatch.setattr(module, "gap_profile", counted)
        request = AnalysisRequest(
            csv_text="lower,upper,weight\n0,1,0.6\n0.2,0.9,0.4\n",
            restriction=("mean", 0.5),
            target=TargetSet.from_pairs([[0.8, 1.0]]),
            export_path=str(tmp_path / "pin"),
        )
        report = cli.run(request)
        assert len(calls) == 1   # the report's profile also serves the exported curve
        assert any(f.endswith("pin_bounds.tsv") for f in report["exported"])

    def test_chi2_export_discretizes_once(self, tmp_path, capsys, monkeypatch):
        import selbounds.cli as cli

        calls = []
        real = cli.discretize
        monkeypatch.setattr(cli, "discretize", lambda spec: calls.append(spec) or real(spec))
        code = main(["example-chi2", "--grid", "2001", "--export", str(tmp_path / "chi")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert list(payload)[-1] == "exported"
        assert {Path(f).name for f in payload["exported"]} == {
            "chi_cdf.tsv", "chi_selection_cdf.tsv", "chi_bounds.tsv", "chi_schema.txt",
        }

    def test_chi2_export_cdf_levels(self, tmp_path):
        # moderate grid keeps this quick; crossings land within 1e-3
        code = main([
            "example-chi2", "--grid", "20001",
            "--export", str(tmp_path / "chi"), "--out", str(tmp_path / "rep.json"),
        ])
        assert code == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["median_lower"] == pytest.approx(1.386, abs=1e-3)
        assert rep["median_upper"] == pytest.approx(4.351, abs=1e-3)
        lines = (tmp_path / "chi_cdf.tsv").read_text().splitlines()
        assert lines[0].startswith("#")
        data = np.array([[float(x) for x in ln.split("\t")] for ln in lines[1:]])
        t, fl, fu = data[:, 0], data[:, 1], data[:, 2]

        def crossing(curve):
            i = int(np.searchsorted(curve, 0.5))
            f0, f1 = curve[i - 1], curve[i]
            return t[i - 1] + (0.5 - f0) * (t[i] - t[i - 1]) / (f1 - f0)

        assert crossing(fl) == pytest.approx(1.386, abs=1e-3)
        assert crossing(fu) == pytest.approx(4.351, abs=1e-3)
