"""Read and write the 29-column labeled flow CSV schema, plus the
23-column unlabeled (traffic-only) variant and the time-window splitter.

Times are stored internally in milliseconds; files render them either as
integer milliseconds (default) or as seconds with three decimals.  TCP
flag sets render as SiLK-style letter strings (subset of "FSRPAUEC").
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from pathlib import Path

from ._fileio import file_stem, open_text_read, open_text_write
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


def flags_to_string(bits: int) -> str:
    return "".join(letter for bit, letter in _FLAG_LETTERS if bits & bit)


def flags_from_string(text: str, row_num: int | None = None) -> int:
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


def _parse_traffic(row: list[str], row_num: int) -> FlowRecord:
    key = FlowKey(
        src_ip=row[0],
        dst_ip=row[1],
        src_port=_int(row[2], row_num, "sPort"),
        dst_port=_int(row[3], row_num, "dPort"),
        proto=_int(row[4], row_num, "proto"),
    )
    return FlowRecord(
        key=key,
        packets=_int(row[5], row_num, "packets"),
        bytes=_int(row[6], row_num, "bytes"),
        flags=flags_from_string(row[7], row_num),
        stime_ms=_parse_time(row[8], row_num),
        # row[9] is durat, derived from sTime/eTime; not read back
        etime_ms=_parse_time(row[10], row_num),
        sensor=row[11],
        input_if=row[12],
        output_if=row[13],
        next_hop=row[14],
        sensor_class=row[15],
        flow_type=row[16],
        icmp_type=None if row[17] == "" else _int(row[17], row_num, "iType"),
        icmp_code=None if row[18] == "" else _int(row[18], row_num, "iCode"),
        initial_flags=flags_from_string(row[19], row_num),
        session_flags=flags_from_string(row[20], row_num),
        attributes=row[21],
        application=row[22],
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
    """Append-mode CSV writers per window, at most _MAX_OPEN_WINDOWS open
    at once so huge window counts cannot exhaust file descriptors."""

    def __init__(self, outdir: Path, stem: str):
        self.outdir = outdir
        self.stem = stem
        self.paths: dict[int, Path] = {}
        self.open: OrderedDict[int, tuple] = OrderedDict()

    def row(self, window: int, fields):
        entry = self.open.get(window)
        if entry is None:
            path = self.paths.get(window)
            first = path is None
            if first:
                path = self.outdir / f"{self.stem}_w{window:04d}.csv"
                self.paths[window] = path
            fh = open(path, "w" if first else "a", encoding="utf-8", newline="")
            writer = csv.writer(fh, lineterminator="\n")
            if first:
                writer.writerow(OUTPUT_COLUMNS)
            entry = (fh, writer)
            self.open[window] = entry
            if len(self.open) > _MAX_OPEN_WINDOWS:
                _, (old_fh, _w) = self.open.popitem(last=False)
                old_fh.close()
        else:
            self.open.move_to_end(window)
        entry[1].writerow(fields)

    def close(self):
        for fh, _writer in self.open.values():
            fh.close()
        self.open.clear()


def split_by_window(input_path, window_s: float, outdir) -> list[Path]:
    """Split a labeled CSV into per-window files.

    A row belongs to window floor((sTime - min sTime) / window_s); windows
    are half-open, so a flow exactly on a boundary starts the next window.
    Returns the created paths ordered by window index; a header-only input
    creates nothing and returns an empty list.
    """
    window_ms = round(window_s * 1000)
    if window_ms <= 0:
        raise ValueError(f"window must be positive, got {window_s}")
    outdir = Path(outdir)

    min_stime = None
    for _row_num, row in _read_csv(input_path, OUTPUT_COLUMNS):
        stime = _parse_time(row[_STIME_COL], _row_num)
        if min_stime is None or stime < min_stime:
            min_stime = stime
    if min_stime is None:
        return []

    outdir.mkdir(parents=True, exist_ok=True)
    writers = _WindowWriters(outdir, file_stem(input_path))
    try:
        for row_num, row in _read_csv(input_path, OUTPUT_COLUMNS):
            stime = _parse_time(row[_STIME_COL], row_num)
            writers.row((stime - min_stime) // window_ms, row)
    finally:
        writers.close()
    return [writers.paths[w] for w in sorted(writers.paths)]
