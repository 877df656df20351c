"""Parse MAWILab anomaly log CSV files into validated entries; how the
entries rank and which class a match gives are decided in labeler.

A log row carries a nullable four-tuple (sip, sport, dip, dport) plus the
anomaly metadata (taxonomy, heuristic code, distance, detector count) and
one of the labels anomalous / suspicious / notice.  Only rows whose label
is accepted become entries; by default that means anomalous and
suspicious, matching how the published datasets were built.

A null attribute is an empty cell or the word null in any case, with or
without whitespace around it; "", "null", "NULL" and "Null" are
recognized as they stand, any other spelling after strip() and lower().
Within one parse_log call, entries share their address strings: each
distinct IP cell, a null spelling included, is decided once, and every
row that spells an address the same way gets the same str object.

Each accepted row is checked in one pass, in the order sip, dip, sport,
dport, the all-null test, heuristic, distance, nbDetectors, so the first
fault a row holds is the one raised.
"""

from __future__ import annotations

import csv
# socket.py only re-exports these from _socket, and importing it costs about 0.4 MB
from _socket import AF_INET, AF_INET6, inet_ntop, inet_pton
from itertools import chain
from operator import itemgetter
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


# the null spellings tested as they stand; others are found by _is_null
_NULLS = frozenset(("", "null", "NULL", "Null"))


def _is_null(cell: str) -> bool:
    cell = cell.strip()
    return cell == "" or cell.lower() == "null"


def _parse_ip(cell: str, col: str) -> str:
    """The address as the pcap decoder prints it (inet_ntop), so that
    IPv4-mapped and IPv4-compatible IPv6 addresses come out dotted.  A cell
    inet_pton rejects, such as one with a %scope suffix, goes through
    ipaddress, which decides whether it is an address at all."""
    text = cell.strip()
    family = AF_INET6 if ":" in text else AF_INET
    try:
        return inet_ntop(family, inet_pton(family, text))
    except (OSError, ValueError):
        pass
    import ipaddress   # loaded only for the rare cell inet_pton rejects
    try:
        return str(ipaddress.ip_address(text))
    except ValueError as exc:
        raise MalformedRowError(f"bad IP in {col}: {cell!r}") from exc


def _port(cell: str, col: str) -> int | None:
    """The port in a cell that is not a common null spelling, or None for
    another spelling of null."""
    try:
        port = int(cell.strip())
    except ValueError as exc:
        if _is_null(cell):
            return None
        raise MalformedRowError(f"bad port in {col}: {cell!r}") from exc
    if not 0 <= port <= 65535:
        raise MalformedRowError(f"port out of range in {col}: {port}")
    return port


def _address(cell: str, col: str, known: dict) -> str | None:
    """The address in an IP cell not yet in `known`, or None for a null;
    the answer is remembered in `known` under the cell."""
    text = known[cell] = None if _is_null(cell) else _parse_ip(cell, col)
    return text


def parse_log(path, accepted_labels=DEFAULT_ACCEPTED_LABELS, counters=None):
    """Read a log CSV and return the accepted rows as IdsLogEntry values.

    Header is order-insensitive and may carry extra columns.  Rows whose
    label is not accepted are skipped (counted under counters["skipped_label"]
    when a counters dict is given).  file_order numbers the accepted rows
    in input order, 0-based.
    """
    accepted = {lbl.strip().lower() for lbl in accepted_labels}
    entries = []
    append = entries.append
    new_entry = tuple.__new__
    nulls = _NULLS
    skipped = 0
    strings = {}   # one object per distinct taxonomy and label
    addresses = dict.fromkeys(_NULLS)   # IP cell -> its address, or None for a null
    with open_text_read(path) as fh:
        # one byte-order mark, as spreadsheet tools save a log, goes before csv sees it
        head = fh.readline().removeprefix("\ufeff")
        reader = csv.reader(chain((head,), fh) if head else fh)
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
        width = len(header)
        cells = itemgetter(*[cols[name] for name in _REQUIRED])

        try:
            for row_num, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < width:
                    raise MalformedRowError(f"{len(row)} cells, header has {width}")
                (sip_cell, sport_cell, dip_cell, dport_cell, taxonomy, heuristic_cell,
                 distance_cell, nb_detectors_cell, label) = cells(row)
                if label not in accepted:
                    label = label.strip().lower()
                    if label not in accepted:
                        skipped += 1
                        continue
                sip = (addresses[sip_cell] if sip_cell in addresses
                       else _address(sip_cell, "sip", addresses))
                dip = (addresses[dip_cell] if dip_cell in addresses
                       else _address(dip_cell, "dip", addresses))
                sport = None if sport_cell in nulls else _port(sport_cell, "sport")
                dport = None if dport_cell in nulls else _port(dport_cell, "dport")
                if sip is None and dip is None and sport is None and dport is None:
                    raise AllNullTupleError("all four flow attributes are null")
                try:
                    heuristic = int(heuristic_cell.strip())
                    distance = float(distance_cell.strip())
                    nb_detectors = int(nb_detectors_cell.strip())
                except ValueError as exc:
                    raise MalformedRowError(f"bad numeric field: {exc}") from exc
                if nb_detectors < 0:
                    raise MalformedRowError("negative nbDetectors")
                append(new_entry(IdsLogEntry, (
                    sip, dip, sport, dport,
                    strings.setdefault(taxonomy, taxonomy),
                    heuristic, distance, nb_detectors,
                    strings.setdefault(label, label),
                    len(entries),
                )))
        except (MalformedRowError, AllNullTupleError) as exc:
            raise type(exc)(f"{path}: row {row_num}: {exc}") from None
    if counters is not None:
        counters["skipped_label"] = counters.get("skipped_label", 0) + skipped
    return entries
