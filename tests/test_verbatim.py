"""Differential tests of the lines `label` and `split` copy verbatim.

A traffic line whose kept cells the writer would render as they stand is
labeled from its text, and a labeled line that csv would read and write
unchanged is split as its text; from the first line in another form on,
every line goes through csv.  Each
test runs the same input both ways and wants the same bytes, or the same
error, out.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowlabel import (FlowRecord, InputFormatError, LabeledFlow, LabelStats, MalformedRowError,
                       build_index, flow_io, label_flows, parse_log, read_traffic,
                       split_by_window, write_flows)
from flowlabel.flow_io import MILLISECONDS, OUTPUT_COLUMNS, SECONDS, TRAFFIC_COLUMNS

LOG_TEXT = (
    "sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label\n"
    "10.0.0.1,,10.0.0.2,80,sYNscan,20,0.5,3,anomalous\n"
    ",443,,,ntscACK,1,2.25,1,suspicious\n"
    "10.0.0.3,,,,dos,2,nan,2,anomalous\n"
    ",,::1,,ptmp HTTP,51,1e-3,4,suspicious\n"
    # labels alike but for a distance of 0 and -0, which compare equal
    ",,10.0.0.5,,dos,2,0,2,anomalous\n"
    ",,10.0.0.6,,dos,2,-0,2,anomalous\n"
)
LIMIT = csv.field_size_limit()

_IPS = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3", "::1", "10.0.0.5", "10.0.0.6",
                        "10.0.0.9"])
_PORTS = st.sampled_from([0, 53, 80, 443, 1234, -7])
_INTS = st.integers(-10**15, 10**15)
_FLAG_TEXTS = st.integers(0, 255).map(flow_io.flags_to_string)
_FREE = st.sampled_from(["", "0", "eth0", "a b", "é"])

# cells as the writer gives them
_TRAFFIC_CELLS = st.tuples(
    _IPS, _IPS, _PORTS, _PORTS, st.sampled_from([1, 6, 17]), _INTS, _INTS, _FLAG_TEXTS,
    _INTS, _INTS, _INTS, _FREE, _FREE, _FREE, _FREE, _FREE, _FREE,
    st.sampled_from(["", 0, 3, 8]), st.sampled_from(["", 0, 1]), _FLAG_TEXTS, _FLAG_TEXTS,
    _FREE, _FREE,
).map(lambda cells: [str(cell) for cell in cells])
_LABEL_CELLS = st.sampled_from([
    ["normal", "", "normal", "0", "0", "0"],
    ["anomaly", "sYNscan", "anomalous", "20", "0.5", "3"],
    ["unsure", "ntscACK", "suspicious", "1", "2.25", "1"],
    ["anomaly", "a,b", "anomalous", "2", "nan", "2"],
])

# cells a hand-edited or foreign file may hold instead: per kind of column,
# cells that read as a writer-style cell does yet are rendered otherwise;
# then cells that break any row
_INT_COLUMNS = {2, 3, 4, 5, 6, 17, 18}
_FLAG_COLUMNS = {7, 19, 20}
_TIME_COLUMNS = {8, 10}
_NEAR_INTS = st.sampled_from(["-0", "+80", " 80", "80 ", "080", "1_000", "٣", "٨٠",
                              "9" * 640, "9" * 5000])   # int() refuses over 4300 digits
_NEAR_FLAGS = st.sampled_from(["AS", "S A", "SA ", "CF", "FF"])
_NEAR_TIMES = st.sampled_from(["1530453600.123", "-0.5", "1.0", "-0", "+5", "05", " 5",
                               "-" + "9" * 5000])
_NEAR_TEXTS = st.sampled_from(['a"b', '"a"', "\x00", "\x0b", "\x1c", " a", "é"])
_BREAKING = st.sampled_from(["", " ", "x", "1e999", '"', "\r", "\n", "a\r\nb"]) | st.text(
    st.sampled_from(',"\r\n\x00 a7.-SF'), max_size=4)
_ROLLS = st.sampled_from(["big"] + ["breaking"] * 4 + ["near"] * 15)


def _odd_cell(draw, column: int) -> str:
    roll = draw(_ROLLS)
    if roll == "big":
        return "1" * (LIMIT + 1)   # past the csv field limit, which must still fail
    if roll == "breaking":
        return draw(_BREAKING)
    return draw(_NEAR_INTS if column in _INT_COLUMNS else _NEAR_FLAGS if column in _FLAG_COLUMNS
                else _NEAR_TIMES if column in _TIME_COLUMNS else _NEAR_TEXTS)

_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])


def _text(cell: str, quote: bool) -> str:
    return '"' + cell.replace('"', '""') + '"' if quote else cell


@st.composite
def _files(draw, cells, columns):
    """A CSV text: the header, then rows of writer-style cells, some of them
    replaced by odd cells, some quoted, with CR, LF or CRLF line ends,
    blank lines and maybe no line end after the last row."""
    lines = [",".join(columns) + draw(_ENDS)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["\n", "\r\n", "\r"])))
            continue
        row = draw(cells)
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
            column = draw(st.integers(0, len(row) - 1))
            row[column] = _odd_cell(draw, column)
        if draw(st.integers(0, 19)) == 0:   # a cell too many or too few
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        quoted = draw(st.integers(0, 7)) == 0
        lines.append(",".join(_text(cell, quoted and draw(st.booleans())) for cell in row)
                     + draw(_ENDS))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _write(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_examples = itertools.count()


def _fresh(tmp_path):
    """A new directory for one Hypothesis example."""
    path = tmp_path / f"example{next(_examples)}"
    path.mkdir()
    return path


def _outcome(run):
    try:
        return run()
    except InputFormatError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    log = tmp_path_factory.mktemp("log") / "log.csv"
    log.write_text(LOG_TEXT, encoding="utf-8")
    return build_index(parse_log(log))


def _label(path, out, index, unit, verbatim):
    stats = LabelStats()
    # with room for two label suffixes, the cache starts afresh once the
    # writer-form rows of a file have had three winners or more
    with mock.patch.object(flow_io, "_SUFFIXES_MAX", 2):
        rows = write_flows(label_flows(read_traffic(path, verbatim=verbatim), index, stats),
                           out, unit)
    return rows, out.read_bytes(), stats.winners


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_files(_TRAFFIC_CELLS, TRAFFIC_COLUMNS), unit=st.sampled_from([MILLISECONDS, SECONDS]))
def test_verbatim_label_equals_parsed_label(tmp_path, index, text, unit):
    tmp_path = _fresh(tmp_path)
    path = tmp_path / "flows.csv"
    _write(path, text)
    verbatim = _outcome(lambda: _label(path, tmp_path / "a.csv", index, unit, True))
    parsed = _outcome(lambda: _label(path, tmp_path / "b.csv", index, unit, False))
    assert repr(verbatim) == repr(parsed)


def _split(path, outdir, window, verbatim):
    refuse = mock.patch.object(flow_io, "_window_line", lambda line: None)
    with contextlib.nullcontext() if verbatim else refuse:
        created = split_by_window(path, window, outdir)
    return [(p.name, p.read_bytes()) for p in created]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_files(st.tuples(_TRAFFIC_CELLS, _LABEL_CELLS).map(lambda t: t[0] + t[1]),
                   OUTPUT_COLUMNS),
       window=st.sampled_from([0.001, 1.0, 1e9]))
def test_verbatim_split_equals_csv_split(tmp_path, text, window):
    tmp_path = _fresh(tmp_path)
    path = tmp_path / "labeled.csv"
    _write(path, text)
    verbatim = _outcome(lambda: _split(path, tmp_path / "a", window, True))
    parsed = _outcome(lambda: _split(path, tmp_path / "b", window, False))
    assert verbatim == parsed


CANONICAL = "10.0.0.1,10.0.0.2,1234,80,6,3,180,SA,100,9,600,0,0,0,0,,,,,S,A,,\n"


@pytest.mark.parametrize("line", [
    CANONICAL.replace(",80,", ",+80,"),        # rendered as 80
    CANONICAL.replace(",100,", ",0.1,"),       # a time in seconds
    CANONICAL.replace("\n", "\r\n"),           # ends in CRLF
    CANONICAL.replace(",SA,", ",AS,"),         # flags reordered
    CANONICAL.replace(",S,A,", ',"S",A,'),     # a quoted cell
    "\n",                                      # a blank line
])
def test_only_writer_style_lines_are_kept_as_text(tmp_path, line):
    # from the first line in another form on, every line goes through csv
    path = tmp_path / "flows.csv"
    _write(path, ",".join(TRAFFIC_COLUMNS) + "\n" + CANONICAL + line + CANONICAL
           + CANONICAL.rstrip("\n"))
    kinds = [type(flow) for flow in read_traffic(path, verbatim=True)]
    assert kinds == [flow_io._TrafficLine] + [FlowRecord] * (len(kinds) - 1)
    assert len(kinds) == (3 if line == "\n" else 4)


def test_distance_sign_is_kept(tmp_path, index):
    # the rules of 10.0.0.5 and 10.0.0.6 differ only in a distance of 0 and -0
    path = tmp_path / "flows.csv"
    _write(path, ",".join(TRAFFIC_COLUMNS) + "\n"
           + CANONICAL.replace("10.0.0.2", "10.0.0.5") + CANONICAL.replace("10.0.0.2", "10.0.0.6"))
    verbatim = _label(path, tmp_path / "a.csv", index, MILLISECONDS, True)
    assert verbatim == _label(path, tmp_path / "b.csv", index, MILLISECONDS, False)
    rows = verbatim[1].split(b"\n")
    assert rows[1].endswith(b",unsure,dos,anomalous,2,0.0,2")
    assert rows[2].endswith(b",unsure,dos,anomalous,2,-0.0,2")


def test_label_suffix_cache_eviction(tmp_path, index):
    # five winners cycled through a cache of two: each new winner finds it
    # full, so verbatim rows render their suffix after the cache is emptied
    lines = [
        CANONICAL.replace("10.0.0.1", "10.0.0.7").replace("10.0.0.2", "10.0.0.8"),   # normal
        CANONICAL.replace("10.0.0.2", "10.0.0.5"),   # distance 0
        CANONICAL.replace("10.0.0.2", "10.0.0.6"),   # distance -0
        CANONICAL,                                   # sYNscan
        CANONICAL.replace("10.0.0.1", "10.0.0.3"),   # distance nan
    ]
    path = tmp_path / "flows.csv"
    _write(path, ",".join(TRAFFIC_COLUMNS) + "\n" + "".join(lines * 3))
    assert all(type(flow) is flow_io._TrafficLine for flow in read_traffic(path, verbatim=True))
    for unit in (MILLISECONDS, SECONDS):
        verbatim = _label(path, tmp_path / "a.csv", index, unit, True)
        assert verbatim == _label(path, tmp_path / "b.csv", index, unit, False)
        suffixes = [row.split(b",", 23)[23] for row in verbatim[1].splitlines()[1:]]
        assert suffixes[:5] * 3 == suffixes
        assert suffixes[:3] == [b"normal,,normal,0,0,0", b"unsure,dos,anomalous,2,0.0,2",
                                b"unsure,dos,anomalous,2,-0.0,2"]
        assert len(set(suffixes)) == 5


def test_row_after_multiline_cell_is_numbered_by_record(tmp_path, index):
    # row 2 spans two lines, so the bad sPort of the fourth line is row 3
    path = tmp_path / "flows.csv"
    good = CANONICAL
    _write(path, ",".join(TRAFFIC_COLUMNS) + "\n"
           + good.replace(",,\n", ',"a\nb",\n') + good.replace("1234", "x"))
    for verbatim in (True, False):
        with pytest.raises(InputFormatError) as err:
            _label(path, tmp_path / "out.csv", index, MILLISECONDS, verbatim)
        assert str(err.value) == f"{path}: row 3: bad integer in sPort: 'x'"


@pytest.mark.parametrize("column", [2, 5, 8, 17])
def test_integer_past_the_int_digit_limit_fails_alike(tmp_path, index, column):
    # int() refuses a 5000-digit string, so such a row must reach the parser
    cells = CANONICAL.rstrip("\n").split(",")
    cells[column] = "9" * 5000
    path = tmp_path / "flows.csv"
    _write(path, ",".join(TRAFFIC_COLUMNS) + "\n" + ",".join(cells) + "\n")
    verbatim = _outcome(lambda: _label(path, tmp_path / "a.csv", index, MILLISECONDS, True))
    parsed = _outcome(lambda: _label(path, tmp_path / "b.csv", index, MILLISECONDS, False))
    assert verbatim == parsed and verbatim[0] is MalformedRowError


def test_cell_past_the_csv_field_limit_fails_alike(tmp_path, index):
    # csv refuses such a cell, so its line must not be kept as text
    cells = CANONICAL.rstrip("\n").split(",")
    cells[11] = "x" * (LIMIT + 1)
    path = tmp_path / "flows.csv"
    _write(path, ",".join(TRAFFIC_COLUMNS) + "\n" + ",".join(cells) + "\n")
    verbatim = _outcome(lambda: _label(path, tmp_path / "a.csv", index, MILLISECONDS, True))
    parsed = _outcome(lambda: _label(path, tmp_path / "b.csv", index, MILLISECONDS, False))
    assert verbatim == parsed and verbatim[0] is InputFormatError
    labeled = tmp_path / "labeled.csv"
    _write(labeled, ",".join(OUTPUT_COLUMNS) + "\n" + ",".join(cells)
           + ",normal,,normal,0,0,0\n")
    verbatim = _outcome(lambda: _split(labeled, tmp_path / "c", 1.0, True))
    parsed = _outcome(lambda: _split(labeled, tmp_path / "d", 1.0, False))
    assert verbatim == parsed and verbatim[0] is InputFormatError


def test_label_suffix_cache_stays_within_its_bound():
    # a log with many winning rules must not grow the cache of rendered
    # label suffixes past its bound; the rows here have more labels than it
    flow = flow_io._traffic_line(CANONICAL)
    assert flow is not None
    rows = flow_io._labeled_rows(
        (LabeledFlow(flow, "anomaly", f"rule{n}", 20, 0.5, 3, "anomalous") for n in range(600)),
        flow_io._time_renderer(MILLISECONDS))
    peak = 0
    for n, line in enumerate(rows):
        assert line.endswith(f",anomaly,rule{n},anomalous,20,0.5,3\n")
        peak = max(peak, len(rows.gi_frame.f_locals["suffixes"]))
        assert peak <= flow_io._SUFFIXES_MAX
    assert peak == flow_io._SUFFIXES_MAX < 600
