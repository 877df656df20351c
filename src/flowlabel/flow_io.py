"""Read and write the 29-column labeled flow CSV schema, plus the
23-column unlabeled (traffic-only) variant and the time-window splitter.

Times are stored internally in milliseconds; files render them either as
integer milliseconds (default) or as seconds with three decimals.  TCP
flag sets render as SiLK-style letter strings (subset of "FSRPAUEC").

Every row is written as one text line.  Cells are rendered to that line
by _line, the one csv.writer here.  A line already in the form the writer
gives (see _VERBATIM_TRAFFIC and _window_line) is copied rather than
parsed and rendered again: label keeps cells 0-7 and 11-22 of such a
traffic line, split the whole line.  From the first line in any other
form on, the rest of the file goes through csv, so the output bytes are
the same either way.
"""

from __future__ import annotations

import contextlib
import csv
import os
import re
import types
from itertools import chain
from math import copysign, isfinite
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from ._fileio import file_stem, open_text_read, open_text_write, staging_dir
from .errors import MalformedRowError, SchemaMismatchError
from .flow_builder import FlowKey, FlowRecord
from .labeler import CLASS_ANOMALY, CLASS_NORMAL, CLASS_UNSURE, LabeledFlow
from .pcap_reader import (TCP_ACK, TCP_CWR, TCP_ECE, TCP_FIN, TCP_PSH,
                          TCP_RST, TCP_SYN, TCP_URG)

if TYPE_CHECKING:
    from pathlib import Path

OUTPUT_COLUMNS = (
    "sIP", "dIP", "sPort", "dPort", "proto", "packets", "bytes", "flags",
    "sTime", "durat", "eTime", "sen", "in", "out", "nhIP", "senClass",
    "typeFlow", "iType", "iCode", "initialF", "sessionF", "attribut",
    "appli", "class", "taxonomy", "label", "heuristic", "distance",
    "nbDetectors",
)
TRAFFIC_COLUMNS = OUTPUT_COLUMNS[:23]

MILLISECONDS = "milliseconds"
SECONDS = "seconds"

_STIME_COL = OUTPUT_COLUMNS.index("sTime")

_FLAG_LETTERS = (
    (TCP_FIN, "F"), (TCP_SYN, "S"), (TCP_RST, "R"), (TCP_PSH, "P"),
    (TCP_ACK, "A"), (TCP_URG, "U"), (TCP_ECE, "E"), (TCP_CWR, "C"),
)
_LETTER_BITS = {letter: bit for bit, letter in _FLAG_LETTERS}

_CLASSES = (CLASS_NORMAL, CLASS_ANOMALY, CLASS_UNSURE)

# _line(cells) is the csv line of `cells`: writerow returns what its file's
# write returns.  Cells of str, int, float or None render without running
# Python code, so no other thread can write into the shared writer mid-row.
_line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow


# the letter string of every 8-bit flag set, indexed by the bits
_FLAG_STRINGS = tuple("".join(letter for bit, letter in _FLAG_LETTERS if bits & bit)
                      for bits in range(256))
_STRING_FLAGS = {text: bits for bits, text in enumerate(_FLAG_STRINGS)}


def flags_to_string(bits: int) -> str:
    return _FLAG_STRINGS[bits & 0xFF]


def flags_from_string(text: str) -> int:
    bits = _STRING_FLAGS.get(text)
    if bits is not None:
        return bits
    bits = 0
    for ch in text:
        if ch == " ":
            continue
        bit = _LETTER_BITS.get(ch)
        if bit is None:
            raise MalformedRowError(f"bad flag letter {ch!r} in {text!r}")
        bits |= bit
    return bits


def _seconds_text(ms: int) -> str:
    if ms >= 0:
        return "%d.%03d" % divmod(ms, 1000)
    return "-%d.%03d" % divmod(-ms, 1000)


def _time_renderer(unit: str):
    """The function that turns a millisecond count into its cell in `unit`."""
    if unit == MILLISECONDS:
        return int
    if unit == SECONDS:
        return _seconds_text
    raise ValueError(f"unknown time unit {unit!r}")


def _parse_time(cell: str) -> int:
    cell = cell.strip()
    try:
        if "." in cell:
            return round(float(cell) * 1000)
        return int(cell)
    except (ValueError, OverflowError) as exc:   # OverflowError: 1e999 is inf ms
        raise MalformedRowError(f"bad time value {cell!r}") from exc


def _int(cell: str, col: str) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise MalformedRowError(f"bad integer in {col}: {cell!r}") from exc


# ---------------------------------------------------------------------------
# row rendering / parsing

def _traffic_fields(flow: FlowRecord, time) -> tuple:
    """The 23 traffic cells of `flow`, its times rendered by `time`.  The
    cells are values, which _line renders: ints as str() does, None as ""."""
    return (*flow.key, flow.packets, flow.bytes, _FLAG_STRINGS[flow.flags],
            time(flow.stime_ms), time(flow.duration_ms), time(flow.etime_ms),
            flow.sensor, flow.input_if, flow.output_if, flow.next_hop,
            flow.sensor_class, flow.flow_type, flow.icmp_type, flow.icmp_code,
            _FLAG_STRINGS[flow.initial_flags], _FLAG_STRINGS[flow.session_flags],
            flow.attributes, flow.application)


_NORMAL_CELLS = (CLASS_NORMAL, "", CLASS_NORMAL, 0, 0, 0)
# class, taxonomy, mawilab_label, heuristic, distance, nb_detectors
_LABEL_CELLS = itemgetter(1, 2, 6, 3, 4, 5)


def _label_fields(labeled: LabeledFlow) -> tuple:
    if labeled.class_label == CLASS_NORMAL:
        return _NORMAL_CELLS
    return _LABEL_CELLS(labeled)


_INT_COLUMNS = ((2, "sPort"), (3, "dPort"), (4, "proto"), (5, "packets"), (6, "bytes"))


def _parse_traffic(row: list[str]) -> FlowRecord:
    try:
        sport, dport, proto, packets, nbytes = (
            int(row[2]), int(row[3]), int(row[4]), int(row[5]), int(row[6]))
    except ValueError:
        for col, name in _INT_COLUMNS:   # raises for the first bad column
            _int(row[col], name)
        raise
    # cells are parsed in column order, so a row with several bad cells
    # reports the first of them
    flags = flags_from_string(row[7])
    stime = _parse_time(row[8])
    # row[9] is durat, derived from sTime/eTime; not read back
    etime = _parse_time(row[10])
    icmp_type = None if row[17] == "" else _int(row[17], "iType")
    icmp_code = None if row[18] == "" else _int(row[18], "iCode")
    return FlowRecord(
        FlowKey(row[0], row[1], sport, dport, proto),
        packets, nbytes, flags,
        flags_from_string(row[19]),            # initial_flags
        flags_from_string(row[20]),            # session_flags
        stime, etime, icmp_type, icmp_code,
        *row[11:17],   # sensor, input_if, output_if, next_hop, sensor_class, flow_type
        row[21], row[22],                      # attributes, application
    )


def _parse_labeled(row: list[str]) -> LabeledFlow:
    flow = _parse_traffic(row)
    class_label = row[23]
    if class_label not in _CLASSES:
        raise MalformedRowError(f"bad class {class_label!r}")
    if class_label == CLASS_NORMAL:
        return LabeledFlow(flow=flow, class_label=CLASS_NORMAL)
    try:
        distance = float(row[27])
    except ValueError as exc:
        raise MalformedRowError(f"bad distance {row[27]!r}") from exc
    return LabeledFlow(
        flow=flow,
        class_label=class_label,
        taxonomy=row[24],
        mawilab_label=row[25],
        heuristic=_int(row[26], "heuristic"),
        distance=distance,
        nb_detectors=_int(row[28], "nbDetectors"),
    )


# ---------------------------------------------------------------------------
# lines copied verbatim

# as str(int) renders it, in at most 640 digits: int() may refuse more,
# and sys.set_int_max_str_digits() cannot set its limit any lower
_INT = "(?:0|-?[1-9][0-9]{0,639})"
_FLAGS = "F?S?R?P?A?U?E?C?"         # as _FLAG_STRINGS renders it
_TEXT = r'[^,"\r\n\x00]*'         # a cell csv reads and writes unchanged

# A traffic line that csv would read as its text split on commas and whose
# cells 0-7 and 11-22 would be rendered back as they stand: canonical
# integers and flag strings, times in milliseconds, free text with no `,`,
# `"`, CR, LF or NUL (csv refuses NUL before Python 3.11).  Groups: cells
# 0-7 as one text, sIP, dIP, sPort, dPort, proto, sTime, eTime, cells 11-22.
_VERBATIM_TRAFFIC = re.compile(
    f"(({_TEXT}),({_TEXT}),({_INT}),({_INT}),({_INT}),{_INT},{_INT},{_FLAGS}),"
    f"({_INT}),{_TEXT},({_INT}),"   # durat is derived, not read back
    f"({_TEXT}(?:,{_TEXT}){{5}},{_INT}?,{_INT}?,{_FLAGS},{_FLAGS},{_TEXT},{_TEXT})\n"
).fullmatch

_new = tuple.__new__


class _TrafficLine(NamedTuple):
    """A traffic row kept as the text of its verbatim cells; write_flows
    renders only its times and its label."""
    key: FlowKey
    head: str        # cells 0-7
    stime_ms: int
    etime_ms: int
    tail: str        # cells 11-22


def _traffic_line(line: str) -> _TrafficLine | None:
    match = _VERBATIM_TRAFFIC(line)
    if match is None:
        return None
    head, sip, dip, sport, dport, proto, stime, etime, tail = match.groups()
    key = _new(FlowKey, (sip, dip, int(sport), int(dport), int(proto)))
    return _new(_TrafficLine, (key, head, int(stime), int(etime), tail))


def _window_line(line: str):
    """(sTime, line) for a labeled line that csv would read as its text
    split on commas into 29 cells and write back unchanged; else None."""
    if ('"' in line or "\r" in line or "\x00" in line or line[-1:] != "\n"
            or line.count(",") != len(OUTPUT_COLUMNS) - 1):
        return None
    return _parse_time(line.split(",", _STIME_COL + 1)[_STIME_COL]), line


def _window_row(row: list[str]):
    return _parse_time(row[_STIME_COL]), _line(row)


# ---------------------------------------------------------------------------
# whole-file operations

def _write_csv(lines, path, columns) -> int:
    """Write the header `columns` and then `lines`, each one rendered row;
    returns the number of lines."""
    count = 0
    with open_text_write(path) as fh:
        write = fh.write
        write(_line(columns))
        for line in lines:
            write(line)
            count += 1
    return count


def _read_csv(path, columns, parse, parse_line=None):
    """parse(cells) of each data record of the CSV file at `path`, whose
    header must be `columns`; blank records are skipped.

    With `parse_line`, each line is first offered whole to
    parse_line(line), and a value other than None stands for its record.
    The first line it refuses, or that is over the csv field limit, and all
    the lines after it go through csv, as every line does without
    `parse_line`: a file not in the writer's form pays one refused line,
    and records are numbered and fail alike either way.  A row fault is
    raised again with the file and the row put before its message."""
    with open_text_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatchError(f"{path}: empty file, expected a header row")
        if len(header) != len(columns):
            raise SchemaMismatchError(
                f"{path}: header has {len(header)} columns, expected the "
                f"{len(columns)}-column schema starting {columns[0]},{columns[1]},..."
            )
        for n, (got, want) in enumerate(zip(header, columns), start=1):
            if got != want:
                raise SchemaMismatchError(
                    f"{path}: header column {n} is {got!r}, expected {want!r}")
        width = len(columns)
        row_num = 2   # of the next record
        try:
            if parse_line is not None:
                limit = csv.field_size_limit()
                for row_num, line in enumerate(fh, start=2):
                    value = parse_line(line) if len(line) <= limit else None
                    if value is None:
                        # a new reader starts at a record boundary, as this line does
                        reader = csv.reader(chain((line,), fh))
                        break
                    yield value
                else:
                    return
            for row_num, row in enumerate(reader, start=row_num):
                if not row:
                    continue
                if len(row) != width:
                    raise MalformedRowError(f"{len(row)} cells, expected {width}")
                yield parse(row)
        except MalformedRowError as exc:
            raise MalformedRowError(f"{path}: row {row_num}: {exc}") from None


# Rendered label suffixes kept at once; past that the cache starts afresh,
# which bounds its memory when a log has many rules that win
_SUFFIXES_MAX = 256


def _labeled_rows(flows, time):
    """The lines of LabeledFlows: the cells of a flow rendered by _line,
    or the text of a _TrafficLine with its times rendered by `time` and
    its label rendered once while it stays in the suffix cache.  A cache
    key holds the sign of the distance, as -0.0 == 0.0 but the two render
    apart."""
    suffixes = {}
    for lf in flows:
        flow = lf.flow
        if type(flow) is not _TrafficLine:
            yield _line(_traffic_fields(flow, time) + _label_fields(lf))
            continue
        label = (lf[1:], copysign(1.0, lf.distance))
        suffix = suffixes.get(label)
        if suffix is None:
            if len(suffixes) >= _SUFFIXES_MAX:
                suffixes.clear()
            suffix = suffixes[label] = _line(_label_fields(lf))
        stime, etime = flow.stime_ms, flow.etime_ms
        yield (f"{flow.head},{time(stime)},{time(etime - stime)},{time(etime)},"
               f"{flow.tail},{suffix}")


def write_flows(flows, path, time_unit: str = MILLISECONDS) -> int:
    """Write LabeledFlows as the 29-column schema; returns rows written."""
    return _write_csv(_labeled_rows(flows, _time_renderer(time_unit)), path, OUTPUT_COLUMNS)


def read_flows(path):
    """Yield LabeledFlows from a 29-column file (unit auto-detected)."""
    return _read_csv(path, OUTPUT_COLUMNS, _parse_labeled)


def write_traffic(flows, path, time_unit: str = MILLISECONDS) -> int:
    """Write unlabeled FlowRecords as the 23 traffic columns."""
    time = _time_renderer(time_unit)
    return _write_csv(
        (_line(_traffic_fields(flow, time)) for flow in flows),
        path, TRAFFIC_COLUMNS,
    )


def read_traffic(path, *, verbatim: bool = False):
    """Yield FlowRecords from a 23-column file (unit auto-detected).  With
    `verbatim`, a line whose kept cells write_flows would render as they
    stand comes as a private _TrafficLine instead, which label_flows and
    write_flows take like a FlowRecord."""
    return _read_csv(path, TRAFFIC_COLUMNS, _parse_traffic,
                     _traffic_line if verbatim else None)


# ---------------------------------------------------------------------------
# time-window splitter

_MAX_OPEN_WINDOWS = 64   # open window files, so any window count fits the fd limit


def window_to_ms(window_s: float) -> int:
    """A split window in whole ms; ValueError unless it is finite in ms and
    at least 1 ms once rounded."""
    window_ms = round(window_s * 1000) if isfinite(window_s * 1000) else 0
    if window_ms < 1:
        raise ValueError("window must be finite in ms and at least 0.001 seconds")
    return window_ms


def _window_file(stem: str, name: str) -> bool:
    """Whether a file named `name` has the form of the window files that
    split_by_window writes for an input whose file stem is `stem`."""
    return re.fullmatch(re.escape(stem) + r"_w[0-9]{4,}\.csv", name) is not None


def split_by_window(input_path, window_s: float, outdir, *,
                    min_stime: int | None = None) -> list[Path]:
    """Split a labeled CSV into per-window files.

    A row belongs to window floor((sTime - min sTime) / window_s); windows
    are half-open, so a flow exactly on a boundary starts the next window.
    A caller that wrote the input may pass its least sTime as `min_stime`,
    which spares a scan of the input.  Returns the created paths ordered by
    window index; a header-only input creates nothing and returns an empty
    list.
    """
    window_ms = window_to_ms(window_s)   # fails before the input is read
    if min_stime is None:
        for stime, _row in _read_csv(input_path, OUTPUT_COLUMNS, _window_row, _window_line):
            if min_stime is None or stime < min_stime:
                min_stime = stime
        if min_stime is None:
            return []
    from pathlib import Path   # loaded only where a split runs
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = file_stem(input_path)
    # window -> its file name, and window -> its open file, least recently
    # written first: past _MAX_OPEN_WINDOWS that one is closed, to reopen to append
    names, files = {}, {}
    with staging_dir(outdir / stem) as staging:
        try:
            for stime, line in _read_csv(input_path, OUTPUT_COLUMNS, _window_row, _window_line):
                window = (stime - min_stime) // window_ms
                fh = files.pop(window, None)
                if fh is None:
                    first = window not in names
                    name = names[window] = f"{stem}_w{window:04d}.csv"
                    fh = files[window] = open(os.path.join(staging, name),
                                              "w" if first else "a", encoding="utf-8", newline="")
                    if first:
                        fh.write(_line(OUTPUT_COLUMNS))
                    if len(files) > _MAX_OPEN_WINDOWS:
                        files.pop(next(iter(files))).close()
                else:
                    files[window] = fh
                fh.write(line)
            for fh in files.values():
                fh.close()
        except BaseException:
            # quietly, as their errors would hide the one that ended the split
            for fh in files.values():
                with contextlib.suppress(OSError):
                    fh.close()
            raise
        paths = [outdir / names[window] for window in sorted(names)]
        for path in paths:
            os.replace(os.path.join(staging, path.name), path)
        return paths
