"""Every row fault a CSV reader raises, with its exact message.

A malformed row of a flow CSV, labeled CSV or log is reported as
`<file>: row <n>: <fault>`: the file as the reader was given it, then the
row, counted by record from the header as row 1.  The table below holds
one entry per fault kind and per reader that can raise it; the CLI prints
the same message after `flowlabel: ` and exits 2.  A flow header of the
wrong width, or with a wrong column, is named after the file, at the end.
"""

from __future__ import annotations

from unittest import mock

import pytest

from flowlabel import (AllNullTupleError, MalformedRowError, SchemaMismatchError,
                       flags_from_string, flow_io, parse_log, read_flows, read_traffic,
                       split_by_window)
from flowlabel.cli import main

TRAFFIC_HEADER = ["sIP", "dIP", "sPort", "dPort", "proto", "packets", "bytes", "flags",
                  "sTime", "durat", "eTime", "sen", "in", "out", "nhIP", "senClass",
                  "typeFlow", "iType", "iCode", "initialF", "sessionF", "attribut", "appli"]
LABELED_HEADER = TRAFFIC_HEADER + ["class", "taxonomy", "label", "heuristic", "distance",
                                   "nbDetectors"]

# A traffic row in the form write_traffic gives it, so the raw-line path
# copies it, and the label cells of an anomalous match.
TRAFFIC = ["10.0.0.1", "10.0.0.2", "1234", "80", "6", "3", "180", "SA",
           "1000", "500", "1500", "", "", "", "", "", "", "", "", "S", "SA", "", ""]
LABEL = ["anomaly", "ptmp", "anomalous", "20", "0.5", "3"]
LOG_HEADER = ["sip", "sport", "dip", "dport", "taxonomy", "heuristic", "distance",
              "nbDetectors", "label"]
LOG_ROW = ["10.0.0.9", "1234", "10.0.0.2", "80", "ptmp", "20", "0.5", "3", "anomalous"]

BAD_ROW = 4   # after the header and two good rows; a good row follows it


def _short(cells, width):
    return cells[:width - 1], f"{width - 1} cells, expected {width}"


# (column, bad cell, fault) of the faults any flow row can hold
FLOW_FAULTS = {
    "sPort": (2, "http", "bad integer in sPort: 'http'"),
    "dPort": (3, "", "bad integer in dPort: ''"),
    "proto": (4, "6.0", "bad integer in proto: '6.0'"),
    "packets": (5, "three", "bad integer in packets: 'three'"),
    "bytes": (6, "1e3", "bad integer in bytes: '1e3'"),
    "iType": (17, "x", "bad integer in iType: 'x'"),
    "iCode": (18, "0x3", "bad integer in iCode: '0x3'"),
    "flags": (7, "SX", "bad flag letter 'X' in 'SX'"),
    "initialF": (19, "Z", "bad flag letter 'Z' in 'Z'"),
    "sessionF": (20, "sa", "bad flag letter 's' in 'sa'"),
    "sTime": (8, "soon", "bad time value 'soon'"),
    "eTime": (10, "1.5.0", "bad time value '1.5.0'"),
}
# ... and those only a labeled row can hold
LABELED_FAULTS = {
    "class": (23, "weird", "bad class 'weird'"),
    "distance": (27, "far", "bad distance 'far'"),
    "heuristic": (26, "x", "bad integer in heuristic: 'x'"),
    "nbDetectors": (28, "-", "bad integer in nbDetectors: '-'"),
}
# the split reads only a row's width and its sTime
SPLIT_FAULTS = {"sTime": FLOW_FAULTS["sTime"]}

LOG_FAULTS = {
    "sip": (0, "10.0.0.256", MalformedRowError, "bad IP in sip: '10.0.0.256'"),
    "dip": (2, "2001:db8::g", MalformedRowError, "bad IP in dip: '2001:db8::g'"),
    "sport": (1, "http", MalformedRowError, "bad port in sport: 'http'"),
    "dport": (3, "8o", MalformedRowError, "bad port in dport: '8o'"),
    "sport-range": (1, "-1", MalformedRowError, "port out of range in sport: -1"),
    "dport-range": (3, "70000", MalformedRowError, "port out of range in dport: 70000"),
    "heuristic": (5, "x", MalformedRowError,
                  "bad numeric field: invalid literal for int() with base 10: 'x'"),
    "distance": (6, "far", MalformedRowError,
                 "bad numeric field: could not convert string to float: 'far'"),
    "nbDetectors": (7, "1.5", MalformedRowError,
                    "bad numeric field: invalid literal for int() with base 10: '1.5'"),
    "negative": (7, "-1", MalformedRowError, "negative nbDetectors"),
}


def _with(cells, col, cell):
    return cells[:col] + [cell] + cells[col + 1:]


def _write(path, header, good, bad):
    rows = [header, good, good, bad, good]
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


def _flow_cases(base, faults):
    """(id, bad row, fault): the wrong width first, then each cell fault."""
    yield ("cells", *_short(base, len(base)))
    for name, (col, cell, fault) in faults.items():
        yield name, _with(base, col, cell), fault


def _cases(base, faults):
    return [pytest.param(bad, fault, id=name) for name, bad, fault in _flow_cases(base, faults)]


TRAFFIC_CASES = _cases(TRAFFIC, FLOW_FAULTS)
LABELED_CASES = _cases(TRAFFIC + LABEL, {**FLOW_FAULTS, **LABELED_FAULTS})
SPLIT_CASES = _cases(TRAFFIC + LABEL, SPLIT_FAULTS)


def _log_cases():
    yield pytest.param(LOG_ROW[:-1], MalformedRowError, "8 cells, header has 9", id="cells")
    for name, (col, cell, error, fault) in LOG_FAULTS.items():
        yield pytest.param(_with(LOG_ROW, col, cell), error, fault, id=name)
    yield pytest.param(["null", "", "NULL", " Null "] + LOG_ROW[4:], AllNullTupleError,
                       "all four flow attributes are null", id="all-null")


LOG_CASES = list(_log_cases())


def _raises(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("verbatim", [False, True], ids=["csv", "raw-line"])
@pytest.mark.parametrize("bad, fault", TRAFFIC_CASES)
def test_read_traffic_names_file_and_row(tmp_path, bad, fault, verbatim):
    path = _write(tmp_path / "flows.csv", TRAFFIC_HEADER, TRAFFIC, bad)
    _raises(lambda: list(read_traffic(path, verbatim=verbatim)),
            MalformedRowError, f"{path}: row {BAD_ROW}: {fault}")


@pytest.mark.parametrize("bad, fault", LABELED_CASES)
def test_read_flows_names_file_and_row(tmp_path, bad, fault):
    path = _write(tmp_path / "labeled.csv", LABELED_HEADER, TRAFFIC + LABEL, bad)
    _raises(lambda: list(read_flows(path)), MalformedRowError,
            f"{path}: row {BAD_ROW}: {fault}")


@pytest.mark.parametrize("min_stime", [None, 0], ids=["scan", "given"])
@pytest.mark.parametrize("bad, fault", SPLIT_CASES)
def test_split_names_file_and_row(tmp_path, bad, fault, min_stime):
    path = _write(tmp_path / "labeled.csv", LABELED_HEADER, TRAFFIC + LABEL, bad)
    out = tmp_path / "out"
    _raises(lambda: split_by_window(path, 5, out, min_stime=min_stime), MalformedRowError,
            f"{path}: row {BAD_ROW}: {fault}")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("bad, error, fault", LOG_CASES)
def test_parse_log_names_file_and_row(tmp_path, bad, error, fault):
    path = _write(tmp_path / "log.csv", LOG_HEADER, LOG_ROW, bad)
    _raises(lambda: parse_log(path), error, f"{path}: row {BAD_ROW}: {fault}")


def _cli_fails(capsys, argv, message):
    assert main([*argv, "--quiet"]) == 2
    assert capsys.readouterr().err == f"flowlabel: {message}\n"


@pytest.mark.parametrize("bad, fault", TRAFFIC_CASES)
def test_cli_label_names_flow_file_and_row(tmp_path, capsys, bad, fault):
    flows = _write(tmp_path / "flows.csv", TRAFFIC_HEADER, TRAFFIC, bad)
    log = _write(tmp_path / "log.csv", LOG_HEADER, LOG_ROW, LOG_ROW)
    _cli_fails(capsys, ["label", "-i", str(flows), "-c", str(log),
                        "-o", str(tmp_path / "out.csv")],
               f"{flows}: row {BAD_ROW}: {fault}")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("bad, error, fault", LOG_CASES)
def test_cli_label_names_log_file_and_row(tmp_path, capsys, bad, error, fault):
    flows = _write(tmp_path / "flows.csv", TRAFFIC_HEADER, TRAFFIC, TRAFFIC)
    log = _write(tmp_path / "log.csv", LOG_HEADER, LOG_ROW, bad)
    _cli_fails(capsys, ["label", "-i", str(flows), "-c", str(log),
                        "-o", str(tmp_path / "out.csv")],
               f"{log}: row {BAD_ROW}: {fault}")


@pytest.mark.parametrize("bad, fault", SPLIT_CASES)
def test_cli_split_names_file_and_row(tmp_path, capsys, bad, fault):
    path = _write(tmp_path / "labeled.csv", LABELED_HEADER, TRAFFIC + LABEL, bad)
    _cli_fails(capsys, ["split", "-i", str(path), "-o", str(tmp_path / "out")],
               f"{path}: row {BAD_ROW}: {fault}")


def test_flag_letters_outside_a_reader_name_no_row():
    _raises(lambda: flags_from_string("SAX"), MalformedRowError, "bad flag letter 'X' in 'SAX'")


def test_good_rows_take_the_raw_line_paths(tmp_path):
    # so that the raw-line cases above meet their bad row after copied lines
    flows = _write(tmp_path / "flows.csv", TRAFFIC_HEADER, TRAFFIC, TRAFFIC)
    assert {type(flow) for flow in read_traffic(flows, verbatim=True)} == {flow_io._TrafficLine}
    labeled = _write(tmp_path / "labeled.csv", LABELED_HEADER, TRAFFIC + LABEL, TRAFFIC + LABEL)
    window_line = flow_io._window_line
    copied = []
    with mock.patch.object(flow_io, "_window_line",
                           lambda *args: copied.append(window_line(*args)) or copied[-1]):
        assert len(split_by_window(labeled, 5, tmp_path / "out")) == 1
    assert len(copied) == 8 and None not in copied   # two passes over four rows


def _header_cases(header):
    """(bad header, fault after the file name): one column short, a
    misspelled column, and a UTF-8 byte-order mark before the first."""
    width = len(header)
    return [
        pytest.param(header[:-1], f"header has {width - 1} columns, expected the "
                     f"{width}-column schema starting sIP,dIP,...", id="width"),
        pytest.param(_with(header, 2, "sport"),
                     "header column 3 is 'sport', expected 'sPort'", id="column"),
        pytest.param(_with(header, 0, "\ufeffsIP"),
                     "header column 1 is '\\ufeffsIP', expected 'sIP'", id="bom"),
    ]


@pytest.mark.parametrize("verbatim", [False, True], ids=["csv", "raw-line"])
@pytest.mark.parametrize("header, fault", _header_cases(TRAFFIC_HEADER))
def test_read_traffic_names_the_wrong_header(tmp_path, header, fault, verbatim):
    path = _write(tmp_path / "flows.csv", header, TRAFFIC, TRAFFIC)
    _raises(lambda: list(read_traffic(path, verbatim=verbatim)),
            SchemaMismatchError, f"{path}: {fault}")


@pytest.mark.parametrize("header, fault", _header_cases(LABELED_HEADER))
def test_read_flows_names_the_wrong_header(tmp_path, header, fault):
    path = _write(tmp_path / "labeled.csv", header, TRAFFIC + LABEL, TRAFFIC + LABEL)
    _raises(lambda: list(read_flows(path)), SchemaMismatchError, f"{path}: {fault}")


@pytest.mark.parametrize("min_stime", [None, 0], ids=["scan", "given"])
@pytest.mark.parametrize("header, fault", _header_cases(LABELED_HEADER))
def test_split_names_the_wrong_header(tmp_path, header, fault, min_stime):
    path = _write(tmp_path / "labeled.csv", header, TRAFFIC + LABEL, TRAFFIC + LABEL)
    out = tmp_path / "out"
    _raises(lambda: split_by_window(path, 5, out, min_stime=min_stime), SchemaMismatchError,
            f"{path}: {fault}")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("header, fault", _header_cases(TRAFFIC_HEADER))
def test_cli_label_names_the_wrong_header(tmp_path, capsys, header, fault):
    flows = _write(tmp_path / "flows.csv", header, TRAFFIC, TRAFFIC)
    log = _write(tmp_path / "log.csv", LOG_HEADER, LOG_ROW, LOG_ROW)
    _cli_fails(capsys, ["label", "-i", str(flows), "-c", str(log),
                        "-o", str(tmp_path / "out.csv")], f"{flows}: {fault}")
    assert not (tmp_path / "out.csv").exists()
