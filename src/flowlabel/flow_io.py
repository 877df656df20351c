"""Read and write the 29-column labeled flow CSV schema, plus the
23-column unlabeled (traffic-only) variant and the time-window splitter.

Times are stored internally in milliseconds; files render them either as
integer milliseconds (default) or as seconds with three decimals.  TCP
flag sets render as SiLK-style letter strings (subset of "FSRPAUEC").
"""

from __future__ import annotations

import contextlib
import csv
import os
from collections import OrderedDict
from pathlib import Path

from ._fileio import file_stem, open_text_read, open_text_write, publish, temp_beside
from .errors import MalformedRowError, SchemaMismatchError
from .flow_builder import FlowKey, FlowRecord
from .labeler import CLASS_ANOMALY, CLASS_NORMAL, CLASS_UNSURE, LabeledFlow
from .pcap_reader import (TCP_ACK, TCP_CWR, TCP_ECE, TCP_FIN, TCP_PSH,
                          TCP_RST, TCP_SYN, TCP_URG)

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


# the letter string of every 8-bit flag set, indexed by the bits
_FLAG_STRINGS = tuple("".join(letter for bit, letter in _FLAG_LETTERS if bits & bit)
                      for bits in range(256))
_STRING_FLAGS = {text: bits for bits, text in enumerate(_FLAG_STRINGS)}


def flags_to_string(bits: int) -> str:
    return _FLAG_STRINGS[bits & 0xFF]


def flags_from_string(text: str, row_num: int | None = None) -> int:
    bits = _STRING_FLAGS.get(text)
    if bits is not None:
        return bits
    bits = 0
    for ch in text:
        if ch == " ":
            continue
        bit = _LETTER_BITS.get(ch)
        if bit is None:
            where = f"row {row_num}: " if row_num is not None else ""
            raise MalformedRowError(f"{where}bad flag letter {ch!r} in {text!r}")
        bits |= bit
    return bits


def _render_ms(ms: int, unit: str) -> str:
    if unit == MILLISECONDS:
        return str(ms)
    if ms < 0:
        return "-" + _render_ms(-ms, unit)
    return f"{ms // 1000}.{ms % 1000:03d}"


def _parse_time(cell: str, row_num: int) -> int:
    cell = cell.strip()
    try:
        if "." in cell:
            return round(float(cell) * 1000)
        return int(cell)
    except ValueError as exc:
        raise MalformedRowError(f"row {row_num}: bad time value {cell!r}") from exc


def _int(cell: str, row_num: int, col: str) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise MalformedRowError(f"row {row_num}: bad integer in {col}: {cell!r}") from exc


def _check_unit(unit: str):
    if unit not in (MILLISECONDS, SECONDS):
        raise ValueError(f"unknown time unit {unit!r}")


# ---------------------------------------------------------------------------
# row rendering / parsing

def _traffic_fields(flow: FlowRecord, unit: str) -> list[str]:
    key = flow.key
    return [
        key.src_ip,
        key.dst_ip,
        str(key.src_port),
        str(key.dst_port),
        str(key.proto),
        str(flow.packets),
        str(flow.bytes),
        flags_to_string(flow.flags),
        _render_ms(flow.stime_ms, unit),
        _render_ms(flow.duration_ms, unit),
        _render_ms(flow.etime_ms, unit),
        flow.sensor,
        flow.input_if,
        flow.output_if,
        flow.next_hop,
        flow.sensor_class,
        flow.flow_type,
        "" if flow.icmp_type is None else str(flow.icmp_type),
        "" if flow.icmp_code is None else str(flow.icmp_code),
        flags_to_string(flow.initial_flags),
        flags_to_string(flow.session_flags),
        flow.attributes,
        flow.application,
    ]


def _label_fields(labeled: LabeledFlow) -> list[str]:
    if labeled.class_label == CLASS_NORMAL:
        return [CLASS_NORMAL, "", CLASS_NORMAL, "0", "0", "0"]
    return [
        labeled.class_label,
        labeled.taxonomy,
        labeled.mawilab_label,
        str(labeled.heuristic),
        str(labeled.distance),
        str(labeled.nb_detectors),
    ]


_INT_COLUMNS = ((2, "sPort"), (3, "dPort"), (4, "proto"), (5, "packets"), (6, "bytes"))


def _parse_traffic(row: list[str], row_num: int) -> FlowRecord:
    try:
        sport, dport, proto, packets, nbytes = (
            int(row[2]), int(row[3]), int(row[4]), int(row[5]), int(row[6]))
    except ValueError:
        for col, name in _INT_COLUMNS:   # raises for the first bad column
            _int(row[col], row_num, name)
        raise
    # cells are parsed in column order, so a row with several bad cells
    # reports the first of them
    flags = flags_from_string(row[7], row_num)
    stime = _parse_time(row[8], row_num)
    # row[9] is durat, derived from sTime/eTime; not read back
    etime = _parse_time(row[10], row_num)
    icmp_type = None if row[17] == "" else _int(row[17], row_num, "iType")
    icmp_code = None if row[18] == "" else _int(row[18], row_num, "iCode")
    return FlowRecord(
        FlowKey(row[0], row[1], sport, dport, proto),
        packets, nbytes, flags,
        flags_from_string(row[19], row_num),   # initial_flags
        flags_from_string(row[20], row_num),   # session_flags
        stime, etime, icmp_type, icmp_code,
        *row[11:17],   # sensor, input_if, output_if, next_hop, sensor_class, flow_type
        row[21], row[22],                      # attributes, application
    )


def _parse_labeled(row: list[str], row_num: int) -> LabeledFlow:
    flow = _parse_traffic(row, row_num)
    class_label = row[23]
    if class_label not in _CLASSES:
        raise MalformedRowError(f"row {row_num}: bad class {class_label!r}")
    if class_label == CLASS_NORMAL:
        return LabeledFlow(flow=flow, class_label=CLASS_NORMAL)
    try:
        distance = float(row[27])
    except ValueError as exc:
        raise MalformedRowError(f"row {row_num}: bad distance {row[27]!r}") from exc
    return LabeledFlow(
        flow=flow,
        class_label=class_label,
        taxonomy=row[24],
        mawilab_label=row[25],
        heuristic=_int(row[26], row_num, "heuristic"),
        distance=distance,
        nb_detectors=_int(row[28], row_num, "nbDetectors"),
    )


# ---------------------------------------------------------------------------
# whole-file operations

def _write_csv(rows, path, columns) -> int:
    count = 0
    with open_text_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for fields in rows:
            writer.writerow(fields)
            count += 1
    return count


def _read_csv(path, columns):
    with open_text_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatchError(f"{path}: empty file, expected a header row")
        if header != list(columns):
            raise SchemaMismatchError(
                f"{path}: header has {len(header)} columns, expected the "
                f"{len(columns)}-column schema starting {columns[0]},{columns[1]},..."
            )
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise MalformedRowError(
                    f"row {row_num}: {len(row)} cells, expected {len(columns)}"
                )
            yield row_num, row


def write_flows(flows, path, time_unit: str = MILLISECONDS) -> int:
    """Write LabeledFlows as the 29-column schema; returns rows written."""
    _check_unit(time_unit)
    return _write_csv(
        (_traffic_fields(lf.flow, time_unit) + _label_fields(lf) for lf in flows),
        path, OUTPUT_COLUMNS,
    )


def read_flows(path):
    """Yield LabeledFlows from a 29-column file (unit auto-detected)."""
    for row_num, row in _read_csv(path, OUTPUT_COLUMNS):
        yield _parse_labeled(row, row_num)


def write_traffic(flows, path, time_unit: str = MILLISECONDS) -> int:
    """Write unlabeled FlowRecords as the 23 traffic columns."""
    _check_unit(time_unit)
    return _write_csv(
        (_traffic_fields(flow, time_unit) for flow in flows),
        path, TRAFFIC_COLUMNS,
    )


def read_traffic(path):
    for row_num, row in _read_csv(path, TRAFFIC_COLUMNS):
        yield _parse_traffic(row, row_num)


# ---------------------------------------------------------------------------
# time-window splitter

_MAX_OPEN_WINDOWS = 64


class _WindowWriters:
    """CSV writers per window, at most _MAX_OPEN_WINDOWS open at once so
    huge window counts cannot exhaust file descriptors.  Each window is
    written to a temp file beside its window file; finish() renames them
    all once the last row is in, discard() deletes them."""

    def __init__(self, outdir: Path, stem: str):
        self.outdir = outdir
        self.stem = stem
        self.temps: dict[int, str] = {}
        self.open: OrderedDict[int, tuple] = OrderedDict()

    def row(self, window: int, fields):
        entry = self.open.get(window)
        if entry is None:
            tmp = self.temps.get(window)
            first = tmp is None
            if first:
                fd, tmp = temp_beside(self._path(window))
                os.close(fd)
                self.temps[window] = tmp
            fh = open(tmp, "w" if first else "a", encoding="utf-8", newline="")
            entry = self.open[window] = (fh, csv.writer(fh, lineterminator="\n"))
            if first:
                entry[1].writerow(OUTPUT_COLUMNS)
            if len(self.open) > _MAX_OPEN_WINDOWS:
                _, (old_fh, _w) = self.open.popitem(last=False)
                old_fh.close()
        else:
            self.open.move_to_end(window)
        entry[1].writerow(fields)

    def _path(self, window: int) -> Path:
        return self.outdir / f"{self.stem}_w{window:04d}.csv"

    def finish(self) -> list[Path]:
        """Close the files and rename each over its window file; returns
        the window files in window order."""
        while self.open:
            _window, (fh, _writer) = self.open.popitem(last=False)
            fh.close()
        paths = []
        for window in sorted(self.temps):
            paths.append(self._path(window))
            publish(self.temps.pop(window), paths[-1])
        return paths

    def discard(self):
        """Close and delete every temp file not yet published.  Errors here
        are ignored: they would hide the one that made the split fail."""
        for fh, _writer in self.open.values():
            with contextlib.suppress(OSError):
                fh.close()
        self.open.clear()
        for tmp in self.temps.values():
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def split_by_window(input_path, window_s: float, outdir) -> list[Path]:
    """Split a labeled CSV into per-window files.

    A row belongs to window floor((sTime - min sTime) / window_s); windows
    are half-open, so a flow exactly on a boundary starts the next window.
    Returns the created paths ordered by window index; a header-only input
    creates nothing and returns an empty list.
    """
    _window_ms(window_s)   # a bad window fails before the input is read
    min_stime = None
    for _row_num, row in _read_csv(input_path, OUTPUT_COLUMNS):
        stime = _parse_time(row[_STIME_COL], _row_num)
        if min_stime is None or stime < min_stime:
            min_stime = stime
    return _split_from(input_path, window_s, outdir, min_stime)


def _window_ms(window_s: float) -> int:
    window_ms = round(window_s * 1000)
    if window_ms <= 0:
        raise ValueError(f"window must be positive, got {window_s}")
    return window_ms


def _split_from(input_path, window_s: float, outdir, min_stime: int | None) -> list[Path]:
    """split_by_window for a caller that already knows the least sTime of
    the input's rows (None: the input has no rows)."""
    window_ms = _window_ms(window_s)
    if min_stime is None:
        return []
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    writers = _WindowWriters(outdir, file_stem(input_path))
    try:
        for row_num, row in _read_csv(input_path, OUTPUT_COLUMNS):
            stime = _parse_time(row[_STIME_COL], row_num)
            writers.row((stime - min_stime) // window_ms, row)
        return writers.finish()
    except BaseException:
        writers.discard()
        raise
