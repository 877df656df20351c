"""Parse MAWILab anomaly log CSV files into validated entries.

A log row carries a nullable four-tuple (sip, sport, dip, dport) plus the
anomaly metadata (taxonomy, heuristic code, distance, detector count) and
one of the labels anomalous / suspicious / notice.  Only rows whose label
is accepted become entries; by default that means anomalous and
suspicious, matching how the published datasets were built.
"""

from __future__ import annotations

import csv
import ipaddress
import socket
from typing import NamedTuple

from ._fileio import open_text_read
from .errors import AllNullTupleError, MalformedRowError, MissingColumnError

LABEL_ANOMALOUS = "anomalous"
LABEL_SUSPICIOUS = "suspicious"
LABEL_NOTICE = "notice"

DEFAULT_ACCEPTED_LABELS = frozenset({LABEL_ANOMALOUS, LABEL_SUSPICIOUS})

_REQUIRED = ("sip", "sport", "dip", "dport", "taxonomy", "heuristic",
             "distance", "nbdetectors", "label")

# Spellings seen in the public archive's CSV exports, normalized onto the
# canonical names.
_ALIASES = {
    "srcip": "sip",
    "srcport": "sport",
    "dstip": "dip",
    "dstport": "dport",
}


class IdsLogEntry(NamedTuple):
    sip: str | None
    dip: str | None
    sport: int | None
    dport: int | None
    taxonomy: str
    heuristic: int
    distance: float
    nb_detectors: int
    mawilab_label: str
    file_order: int


def specificity(entry: IdsLogEntry) -> tuple[int, int]:
    """(L, weight) for an entry: L counts non-null four-tuple attributes;
    weight is the presence bit pattern ordered dip, sip, dport, sport so
    that plain integer comparison ranks dip > sip > dport > sport."""
    bits = (
        ((entry.dip is not None) << 3)
        | ((entry.sip is not None) << 2)
        | ((entry.dport is not None) << 1)
        | (entry.sport is not None)
    )
    return bits.bit_count(), bits


def precedence_key(entry: IdsLogEntry) -> tuple[int, int, int]:
    """Sort key realizing the total order: more attributes win, then the
    dip > sip > dport > sport weight, then earlier file position."""
    l_value, weight = specificity(entry)
    return l_value, weight, -entry.file_order


def _is_null(cell: str) -> bool:
    cell = cell.strip()
    return cell == "" or cell.lower() == "null"


def _parse_ip(cell: str, row_num: int, col: str) -> str:
    """The address as the pcap decoder prints it (inet_ntop), so that
    IPv4-mapped and IPv4-compatible IPv6 addresses come out dotted.  A cell
    inet_pton rejects, such as one with a %scope suffix, goes through
    ipaddress, which decides whether it is an address at all."""
    text = cell.strip()
    family = socket.AF_INET6 if ":" in text else socket.AF_INET
    try:
        return socket.inet_ntop(family, socket.inet_pton(family, text))
    except (OSError, ValueError):
        pass
    try:
        return str(ipaddress.ip_address(text))
    except ValueError as exc:
        raise MalformedRowError(f"row {row_num}: bad IP in {col}: {cell!r}") from exc


def _parse_port(cell: str, row_num: int, col: str) -> int:
    try:
        port = int(cell.strip())
    except ValueError as exc:
        raise MalformedRowError(f"row {row_num}: bad port in {col}: {cell!r}") from exc
    if not 0 <= port <= 65535:
        raise MalformedRowError(f"row {row_num}: port out of range in {col}: {port}")
    return port


def parse_log(path, accepted_labels=DEFAULT_ACCEPTED_LABELS, counters=None):
    """Read a log CSV and return the accepted rows as IdsLogEntry values.

    Header is order-insensitive and may carry extra columns.  Rows whose
    label is not accepted are skipped (counted under counters["skipped_label"]
    when a counters dict is given).  file_order numbers the accepted rows
    in input order, 0-based.
    """
    accepted = {lbl.strip().lower() for lbl in accepted_labels}
    entries = []
    skipped = 0
    strings = {}   # one object per distinct taxonomy and label
    with open_text_read(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(f"{path}: empty file, no header row") from None
        cols = {}
        for idx, name in enumerate(header):
            name = name.strip().lower()
            name = _ALIASES.get(name, name)
            cols.setdefault(name, idx)
        for required in _REQUIRED:
            if required not in cols:
                raise MissingColumnError(f"{path}: header lacks column {required!r}")

        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise MalformedRowError(f"row {row_num}: {len(row)} cells, header has {len(header)}")
            label = row[cols["label"]].strip().lower()
            if label not in accepted:
                skipped += 1
                continue
            sip_cell = row[cols["sip"]]
            dip_cell = row[cols["dip"]]
            sport_cell = row[cols["sport"]]
            dport_cell = row[cols["dport"]]
            sip = None if _is_null(sip_cell) else _parse_ip(sip_cell, row_num, "sip")
            dip = None if _is_null(dip_cell) else _parse_ip(dip_cell, row_num, "dip")
            sport = None if _is_null(sport_cell) else _parse_port(sport_cell, row_num, "sport")
            dport = None if _is_null(dport_cell) else _parse_port(dport_cell, row_num, "dport")
            if sip is None and dip is None and sport is None and dport is None:
                raise AllNullTupleError(f"row {row_num}: all four flow attributes are null")
            try:
                heuristic = int(row[cols["heuristic"]].strip())
                distance = float(row[cols["distance"]].strip())
                nb_detectors = int(row[cols["nbdetectors"]].strip())
            except ValueError as exc:
                raise MalformedRowError(f"row {row_num}: bad numeric field: {exc}") from exc
            if nb_detectors < 0:
                raise MalformedRowError(f"row {row_num}: negative nbDetectors")
            taxonomy = row[cols["taxonomy"]]
            entries.append(IdsLogEntry(
                sip, dip, sport, dport,
                strings.setdefault(taxonomy, taxonomy),
                heuristic, distance, nb_detectors,
                strings.setdefault(label, label),
                len(entries),
            ))
    if counters is not None:
        counters["skipped_label"] = counters.get("skipped_label", 0) + skipped
        counters["accepted"] = counters.get("accepted", 0) + len(entries)
    return entries
