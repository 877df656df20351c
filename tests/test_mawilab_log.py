"""IDS log CSV parsing tests."""

from __future__ import annotations

import csv
import gzip
import ipaddress
import random
import socket

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowlabel import (AllNullTupleError, IdsLogEntry, MalformedRowError,
                       MissingColumnError, parse_log)
from flowlabel.mawilab_log import (DEFAULT_ACCEPTED_LABELS, LABEL_ANOMALOUS,
                                   LABEL_NOTICE, LABEL_SUSPICIOUS, _parse_ip)

HEADER = "sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label"


def write_log(tmp_path, rows, header=HEADER, name="log.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def test_parse_complete_row(tmp_path):
    path = write_log(tmp_path, [
        "192.168.1.10,1234,10.0.0.5,80,ptmpHTTP,20,0.4142,3,anomalous",
    ])
    (e,) = parse_log(path)
    assert e.sip == "192.168.1.10" and e.sport == 1234
    assert e.dip == "10.0.0.5" and e.dport == 80
    assert e.taxonomy == "ptmpHTTP"
    assert e.heuristic == 20
    assert e.distance == pytest.approx(0.4142)
    assert e.nb_detectors == 3
    assert e.mawilab_label == LABEL_ANOMALOUS
    assert e.file_order == 0


def test_sport_only_row(tmp_path):
    path = write_log(tmp_path, [",443,,,ntscACK,20,1.0,2,anomalous"])
    (e,) = parse_log(path)
    assert (e.sip, e.sport, e.dip, e.dport) == (None, 443, None, None)


def test_null_spellings(tmp_path):
    path = write_log(tmp_path, [
        "null,443,NULL,Null,t,1,1.0,1,anomalous",
    ])
    (e,) = parse_log(path)
    assert (e.sip, e.sport, e.dip, e.dport) == (None, 443, None, None)


def test_notice_rows_skipped_by_default(tmp_path):
    path = write_log(tmp_path, [
        "1.2.3.4,,,,t,1,1.0,1,notice",
        "5.6.7.8,,,,t,1,1.0,1,anomalous",
        "9.9.9.9,,,,t,1,1.0,1,benign",
    ])
    counters = {}
    entries = parse_log(path, counters=counters)
    assert [e.sip for e in entries] == ["5.6.7.8"]
    assert counters == {"skipped_label": 2}


def test_notice_rows_accepted_when_asked(tmp_path):
    path = write_log(tmp_path, [
        "1.2.3.4,,,,t,1,1.0,1,notice",
        "5.6.7.8,,,,t,1,1.0,1,suspicious",
    ])
    labels = DEFAULT_ACCEPTED_LABELS | {LABEL_NOTICE}
    entries = parse_log(path, accepted_labels=labels)
    assert [e.mawilab_label for e in entries] == [LABEL_NOTICE, LABEL_SUSPICIOUS]


def test_file_order_counts_accepted_rows_only(tmp_path):
    path = write_log(tmp_path, [
        "1.1.1.1,,,,t,1,1.0,1,notice",
        "2.2.2.2,,,,t,1,1.0,1,anomalous",
        "3.3.3.3,,,,t,1,1.0,1,notice",
        "4.4.4.4,,,,t,1,1.0,1,suspicious",
    ])
    entries = parse_log(path)
    assert [(e.sip, e.file_order) for e in entries] == [
        ("2.2.2.2", 0), ("4.4.4.4", 1)]


def test_header_order_insensitive(tmp_path):
    path = write_log(
        tmp_path,
        ["anomalous,80,10.0.0.5,t,1,1.0,1,,1234"],
        header="label,dport,dip,taxonomy,heuristic,distance,nbDetectors,sip,sport")
    (e,) = parse_log(path)
    assert e.sip is None and e.sport == 1234
    assert e.dip == "10.0.0.5" and e.dport == 80


def test_alias_headers_and_extra_columns(tmp_path):
    path = write_log(
        tmp_path,
        ["7,1.2.3.4,1,2.3.4.5,2,t,1,1.0,1,anomalous"],
        header="anomalyID,srcIP,srcPort,dstIP,dstPort,taxonomy,heuristic,distance,nbDetectors,label")
    (e,) = parse_log(path)
    assert (e.sip, e.sport, e.dip, e.dport) == ("1.2.3.4", 1, "2.3.4.5", 2)


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
def test_byte_order_mark_before_header(tmp_path, gz):
    # spreadsheet tools save CSV as UTF-8 with a byte-order mark, which
    # lands in the first header cell; one mark is dropped, as if absent
    rows = ["192.0.2.1,1234,,,ptmp,20,0.5,3,anomalous", ",,2001:db8::1,53,dns,1,-1.0,2,suspicious"]
    plain = write_log(tmp_path, rows)
    data = "\ufeff".encode() + plain.read_bytes()
    marked = tmp_path / ("marked.csv.gz" if gz else "marked.csv")
    marked.write_bytes(gzip.compress(data) if gz else data)
    entries = parse_log(marked)
    assert len(entries) == 2 and entries == parse_log(plain)
    # only one: a second mark is part of the column name
    twice = tmp_path / "twice.csv"
    twice.write_bytes("\ufeff".encode() + data)
    with pytest.raises(MissingColumnError) as err:
        parse_log(twice)
    assert str(err.value) == f"{twice}: header lacks column 'sip'"


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
def test_byte_order_mark_before_quoted_header(tmp_path, gz):
    # a writer that quotes every cell puts the mark before the first
    # quote; csv would read '\ufeff"sip"' as one unquoted cell
    rows = ["192.0.2.1,1234,,,ptmp,20,0.5,3,anomalous", ",,2001:db8::1,53,dns,1,-1.0,2,suspicious"]
    plain = write_log(tmp_path, rows)
    quoted = ",".join(f'"{name}"' for name in HEADER.split(","))
    data = ("\ufeff" + quoted + "\n" + "\n".join(rows) + "\n").encode()
    marked = tmp_path / ("marked.csv.gz" if gz else "marked.csv")
    marked.write_bytes(gzip.compress(data) if gz else data)
    entries = parse_log(marked)
    assert len(entries) == 2 and entries == parse_log(plain)


def test_byte_order_mark_after_header_stays(tmp_path):
    # only a mark that starts the file is dropped: one that starts a row
    # is part of its first cell
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "\n\ufeff192.0.2.1,1234,,,ptmp,20,0.5,3,anomalous\n")
    with pytest.raises(MalformedRowError) as err:
        parse_log(path)
    assert str(err.value) == f"{path}: row 2: bad IP in sip: '\\ufeff192.0.2.1'"


def test_missing_column(tmp_path):
    path = write_log(tmp_path, ["1.2.3.4,1,2.3.4.5,2,t,1,1.0,1"],
                     header="sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors")
    with pytest.raises(MissingColumnError) as err:
        parse_log(path)
    assert "label" in str(err.value)


def test_malformed_ip(tmp_path):
    path = write_log(tmp_path, ["299.1.2.3,,,,t,1,1.0,1,anomalous"])
    with pytest.raises(MalformedRowError) as err:
        parse_log(path)
    assert "row 2" in str(err.value)


def test_port_out_of_range(tmp_path):
    path = write_log(tmp_path, [
        "1.2.3.4,,,,t,1,1.0,1,anomalous",
        ",70000,,,t,1,1.0,1,anomalous",
    ])
    with pytest.raises(MalformedRowError) as err:
        parse_log(path)
    assert "row 3" in str(err.value)


def test_non_numeric_heuristic(tmp_path):
    path = write_log(tmp_path, ["1.2.3.4,,,,t,abc,1.0,1,anomalous"])
    with pytest.raises(MalformedRowError):
        parse_log(path)


def test_negative_detector_count(tmp_path):
    path = write_log(tmp_path, ["1.2.3.4,,,,t,1,1.0,-1,anomalous"])
    with pytest.raises(MalformedRowError):
        parse_log(path)


def test_negative_distance_is_fine(tmp_path):
    path = write_log(tmp_path, ["1.2.3.4,,,,t,1,-0.5,1,anomalous"])
    (e,) = parse_log(path)
    assert e.distance == pytest.approx(-0.5)


def test_all_null_tuple(tmp_path):
    path = write_log(tmp_path, ["null,,null,,t,1,1.0,1,anomalous"])
    with pytest.raises(AllNullTupleError) as err:
        parse_log(path)
    assert "row 2" in str(err.value)


def test_malformed_label_rows_never_checked(tmp_path):
    # label filtering happens before strict field validation, so junk in a
    # notice row does not abort the parse
    path = write_log(tmp_path, [
        "garbage-ip,,,,t,nan?,x,y,notice",
        "1.2.3.4,,,,t,1,1.0,1,anomalous",
    ])
    (e,) = parse_log(path)
    assert e.sip == "1.2.3.4"


def test_parse_is_idempotent(tmp_path):
    rng = random.Random(4)
    rows = []
    for _ in range(50):
        mask = rng.randrange(1, 16)
        rows.append(",".join([
            f"10.0.0.{rng.randrange(1, 9)}" if mask & 0b0100 else "",
            str(rng.randrange(1, 1000)) if mask & 0b0001 else "",
            f"10.0.1.{rng.randrange(1, 9)}" if mask & 0b1000 else "",
            str(rng.randrange(1, 1000)) if mask & 0b0010 else "",
            rng.choice(["alphflHTTP", "ntscACK", "sYNscan"]),
            str(rng.randrange(1, 100)),
            f"{rng.random():.4f}",
            str(rng.randrange(1, 9)),
            rng.choice(["anomalous", "suspicious", "notice"]),
        ]))
    path = write_log(tmp_path, rows)
    assert parse_log(path) == parse_log(path)


def test_gzip_log(tmp_path):
    body = HEADER + "\n1.2.3.4,,,,t,1,1.0,1,anomalous\n"
    path = tmp_path / "log.csv.gz"
    path.write_bytes(gzip.compress(body.encode()))
    (e,) = parse_log(path)
    assert e.sip == "1.2.3.4"


def test_label_case_and_whitespace(tmp_path):
    path = write_log(tmp_path, ["1.2.3.4,,,,ptmp ICMP,1,1.0,1, Anomalous "])
    (e,) = parse_log(path)
    assert e.mawilab_label == LABEL_ANOMALOUS
    # taxonomy text is copied through untouched
    assert e.taxonomy == "ptmp ICMP"
    # an accepted label is normalized too, and so is the label stored
    (e,) = parse_log(path, accepted_labels={" Anomalous "})
    assert e.mawilab_label == LABEL_ANOMALOUS


def test_taxonomy_and_label_strings_shared(tmp_path):
    path = write_log(tmp_path, [f"1.2.3.{i},,,,sYNscan,1,1.0,1,anomalous" for i in range(3)])
    a, b, c = parse_log(path)
    assert a.taxonomy is b.taxonomy is c.taxonomy
    assert a.mawilab_label is b.mawilab_label is c.mawilab_label


def test_address_strings_shared(tmp_path):
    path = write_log(tmp_path, ["10.0.0.1,,10.0.0.2,,t,1,1.0,1,anomalous",
                                "10.0.0.2,,10.0.0.1,,t,1,1.0,1,anomalous"])
    a, b = parse_log(path)
    assert (a.sip, a.dip) == (b.dip, b.sip) == ("10.0.0.1", "10.0.0.2")
    assert a.sip is b.dip and a.dip is b.sip


@pytest.mark.parametrize("cell, text", [
    ("::ffff:1.2.3.4", "::ffff:1.2.3.4"),
    ("::ffff:102:304", "::ffff:1.2.3.4"),
    ("::1.2.3.4", "::1.2.3.4"),
    ("0:0:0:0:0:0:102:304", "::1.2.3.4"),
    ("::1", "::1"),
    (" 2001:DB8::0:1 ", "2001:db8::1"),
    ("fe80::1%eth0", "fe80::1%eth0"),
])
def test_addresses_print_like_the_decoder(cell, text):
    assert _parse_ip(cell, "sip") == text


_V6_PREFIXES = (None, [0] * 6, [0] * 5 + [0xFFFF])   # any, ::/96, ::ffff:0:0/96


def _random_packed(rng):
    """(family, packed address); zero groups are common so that runs of
    them get compressed, and a third of IPv6 addresses lie in each range."""
    def group(top):
        return 0 if rng.random() < 0.4 else rng.randrange(top + 1)

    if rng.random() < 0.25:
        return socket.AF_INET, bytes(group(255) for _ in range(4))
    prefix = rng.choice(_V6_PREFIXES)
    groups = [group(0xFFFF) for _ in range(8)] if prefix is None else \
        prefix + [group(0xFFFF) for _ in range(2)]
    return socket.AF_INET6, b"".join(g.to_bytes(2, "big") for g in groups)


def test_parse_ip_prints_as_inet_ntop():
    rng = random.Random(5952)
    for _ in range(20_000):
        family, packed = _random_packed(rng)
        ip = ipaddress.ip_address(packed)
        text = socket.inet_ntop(family, packed)
        for spelling in (text, str(ip), ip.exploded, ip.exploded.upper(), f" {text}\t"):
            assert _parse_ip(spelling, "dip") == text


def _random_cell(rng):
    """An address spelling with a few random edits, or random text."""
    if rng.random() < 0.2:
        return "".join(rng.choice("0123456789abcdefABCDEFx.:% -\x00\u0661")
                       for _ in range(rng.randrange(40)))
    family, packed = _random_packed(rng)
    ip = ipaddress.ip_address(packed)
    chars = list(rng.choice([socket.inet_ntop(family, packed), str(ip), ip.exploded]))
    if rng.random() < 0.2:
        chars += "%" + rng.choice(["eth0", "1", ""])
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.choice("idr")
        if edit == "i":
            chars.insert(i, rng.choice("0123456789afAF.:% \x00"))
        elif chars:
            i = min(i, len(chars) - 1)
            if edit == "d":
                del chars[i]
            else:
                chars[i] = rng.choice("0g:.%1f ")
    return "".join(chars)


def test_parse_ip_accepts_what_ipaddress_accepts():
    rng = random.Random(4291)
    accepted = 0
    for _ in range(30_000):
        cell = _random_cell(rng)
        try:
            ip = ipaddress.ip_address(cell.strip())
        except ValueError:
            with pytest.raises(MalformedRowError):
                _parse_ip(cell, "sip")
            continue
        accepted += 1
        family = socket.AF_INET if ip.version == 4 else socket.AF_INET6
        scoped = getattr(ip, "scope_id", None)
        expected = str(ip) if scoped else socket.inet_ntop(family, ip.packed)
        assert _parse_ip(cell, "sip") == expected
    assert 5_000 < accepted < 25_000    # both outcomes well drawn


# ---------------------------------------------------------------------------
# differential test of parse_log against the plain per-row parser

def _reference_null(cell):
    return cell.strip() == "" or cell.strip().lower() == "null"


def _reference_port(cell, row_num, col):
    try:
        port = int(cell.strip())
    except ValueError as exc:
        raise MalformedRowError(f"row {row_num}: bad port in {col}: {cell!r}") from exc
    if not 0 <= port <= 65535:
        raise MalformedRowError(f"row {row_num}: port out of range in {col}: {port}")
    return port


def reference_parse_log(path, accepted_labels=DEFAULT_ACCEPTED_LABELS, counters=None):
    """parse_log as a plain loop: every cell looked up by column name,
    stripped, and tested and parsed on its own; a row error names the file."""
    try:
        return _reference_rows(path, accepted_labels, counters)
    except (MalformedRowError, AllNullTupleError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _reference_rows(path, accepted_labels, counters):
    accepted = {lbl.strip().lower() for lbl in accepted_labels}
    entries = []
    skipped = 0
    with open(path, encoding="utf-8-sig", newline="") as fh:   # drops one mark
        reader = csv.reader(fh)
        header = next(reader)
        aliases = {"srcip": "sip", "srcport": "sport", "dstip": "dip", "dstport": "dport"}
        cols = {}
        for idx, name in enumerate(header):
            name = name.strip().lower()
            cols.setdefault(aliases.get(name, name), idx)
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise MalformedRowError(f"row {row_num}: {len(row)} cells, header has {len(header)}")
            label = row[cols["label"]].strip().lower()
            if label not in accepted:
                skipped += 1
                continue
            tuple4 = {}
            for col in ("sip", "dip", "sport", "dport"):
                cell = row[cols[col]]
                if _reference_null(cell):
                    tuple4[col] = None
                elif col in ("sip", "dip"):
                    try:
                        tuple4[col] = _parse_ip(cell, col)
                    except MalformedRowError as exc:
                        raise MalformedRowError(f"row {row_num}: {exc}") from exc
                else:
                    tuple4[col] = _reference_port(cell, row_num, col)
            if all(v is None for v in tuple4.values()):
                raise AllNullTupleError(f"row {row_num}: all four flow attributes are null")
            try:
                heuristic = int(row[cols["heuristic"]].strip())
                distance = float(row[cols["distance"]].strip())
                nb_detectors = int(row[cols["nbdetectors"]].strip())
            except ValueError as exc:
                raise MalformedRowError(f"row {row_num}: bad numeric field: {exc}") from exc
            if nb_detectors < 0:
                raise MalformedRowError(f"row {row_num}: negative nbDetectors")
            entries.append(IdsLogEntry(
                tuple4["sip"], tuple4["dip"], tuple4["sport"], tuple4["dport"],
                row[cols["taxonomy"]], heuristic, distance, nb_detectors, label,
                len(entries)))
    if counters is not None:
        counters["skipped_label"] = counters.get("skipped_label", 0) + skipped
    return entries


def _spaced(cells):
    """Each cell as it is, or with whitespace around it, Unicode spaces
    that str.strip() removes included."""
    pads = st.sampled_from(["", "", "", " ", "\t", "  ", "\u00a0", "\x1c "])
    return st.tuples(pads, cells, pads).map("".join)


_NULL_CELLS = st.sampled_from(["", "null", "NULL", "Null", "nuLL", "nULL", "NuLl", " null ",
                               "\tNULL", "  "])
_GOOD_IPS = st.sampled_from([
    "10.0.0.1", "192.0.2.44", "2001:db8::1", "2001:DB8:0::1", "::1", "::ffff:10.0.0.1",
    "::ffff:a00:1", "::10.0.0.1", "fe80::1%eth0", "fe80::1%1"])
_GOOD_PORTS = st.sampled_from(["+80", "65535", "0", "-0", "08", "1_000", "\u0668\u0660"]) \
    | st.integers(0, 65535).map(str)
_GOOD_INTS = st.sampled_from(["+2", "1_0"]) | st.integers(0, 99).map(str)
_GOOD_FLOATS = st.sampled_from(["0.5", "-0.25", "1e-3", "nan", "-inf"]) \
    | st.floats().map(repr)
_LABEL_CELLS = _spaced(st.sampled_from(
    ["anomalous", "Anomalous", " Anomalous ", "SUSPICIOUS", "suspicious", "notice", "Notice",
     "NOTICE", "benign", "AnOmAlOuS", ""]))
_TAXONOMIES = st.sampled_from(["sYNscan", "ptmp ICMP", "", "alphflHTTP"])


def _row(ips, ports, ints, floats):
    return st.tuples(_spaced(_NULL_CELLS | ips), _spaced(_NULL_CELLS | ports),
                     _spaced(_NULL_CELLS | ips), _spaced(_NULL_CELLS | ports),
                     _TAXONOMIES, _spaced(ints), _spaced(floats), _spaced(ints), _LABEL_CELLS)


# rows that parse, unless all four attributes are null
_CLEAN_ROWS = _row(_GOOD_IPS, _GOOD_PORTS, _GOOD_INTS, _GOOD_FLOATS)
# rows whose cells may also be bad IPs, out-of-range ports or bad numbers
_WILD_ROWS = _row(
    _GOOD_IPS | st.sampled_from(["299.1.2.3", "10.0.0", "10.0.0.1.", "::g", "1.2.3.4%eth0",
                                 "host", "0x0a000001"]),
    _GOOD_PORTS | st.sampled_from(["65536", "-1", "70000", "8 0", "x", "80.0"]),
    _GOOD_INTS | st.sampled_from(["-3", "1 2", "x", "", "0x1", "3.0"]),
    _GOOD_FLOATS | st.sampled_from(["1.5 x", "", ".", "1_0.5", "1,5"]))


@st.composite
def _log_rows(draw):
    """Clean rows and empty lines, with at most one wild row among them."""
    rows = draw(st.lists(_CLEAN_ROWS | st.just(()), max_size=12))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(_WILD_ROWS))
    return rows


_COLUMNS = ["sip", "sport", "dip", "dport", "taxonomy", "heuristic", "distance",
            "nbDetectors", "label"]


def _outcome(parse, path, accepted):
    counters = {}
    try:
        entries = parse(path, accepted, counters)
    except Exception as exc:   # the class and message are compared
        return type(exc), str(exc)
    return entries, counters


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_log_rows(),
       order=st.permutations(range(len(_COLUMNS))),
       header=st.sampled_from([_COLUMNS, ["srcIP", "srcPort", "dstIP", "dstPort", *_COLUMNS[4:]],
                               [c.upper() for c in _COLUMNS]]),
       accepted=st.sampled_from([DEFAULT_ACCEPTED_LABELS,
                                 DEFAULT_ACCEPTED_LABELS | {LABEL_NOTICE},
                                 {" Anomalous "}, {"benign", "NOTICE"}]),
       bom=st.booleans())
def test_parse_log_matches_reference(tmp_path, rows, order, header, accepted, bom):
    path = tmp_path / "log.csv"
    with path.open("w", encoding="utf-8-sig" if bom else "utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([header[i] for i in order])
        for row in rows:
            writer.writerow([row[i] for i in order] if row else [])
    # repr() compares NaN distances, and tells 0.0 from -0.0
    assert repr(_outcome(parse_log, path, accepted)) == repr(
        _outcome(reference_parse_log, path, accepted))
