"""IDS log CSV parsing and rule-specificity tests."""

from __future__ import annotations

import gzip
import ipaddress
import random
import socket

import pytest

from flowlabel import (AllNullTupleError, IdsLogEntry, MalformedRowError,
                       MissingColumnError, parse_log, precedence_key,
                       specificity)
from flowlabel.mawilab_log import (DEFAULT_ACCEPTED_LABELS, LABEL_ANOMALOUS,
                                   LABEL_NOTICE, LABEL_SUSPICIOUS, _parse_ip)

HEADER = "sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label"


def write_log(tmp_path, rows, header=HEADER, name="log.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def entry(sip=None, sport=None, dip=None, dport=None, **kw):
    defaults = dict(taxonomy="t", heuristic=1, distance=1.0, nb_detectors=1,
                    mawilab_label=LABEL_ANOMALOUS, file_order=0)
    defaults.update(kw)
    return IdsLogEntry(sip=sip, sport=sport, dip=dip, dport=dport, **defaults)


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
    assert specificity(e) == (4, 0b1111)


def test_sport_only_row(tmp_path):
    path = write_log(tmp_path, [",443,,,ntscACK,20,1.0,2,anomalous"])
    (e,) = parse_log(path)
    assert (e.sip, e.sport, e.dip, e.dport) == (None, 443, None, None)
    assert specificity(e) == (1, 0b0001)


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
    assert counters["skipped_label"] == 2
    assert counters["accepted"] == 1


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


def test_specificity_pairs():
    sip_dip = entry(sip="a", dip="b")
    dip_dport = entry(dip="b", dport=80)
    assert specificity(sip_dip) == (2, 0b1100)
    assert specificity(dip_dport) == (2, 0b1010)
    assert specificity(sip_dip) > specificity(dip_dport)
    assert specificity(entry(sip="a", sport=1, dip="b", dport=2)) == (4, 0b1111)
    assert specificity(entry(dport=80)) == (1, 0b0010)
    assert specificity(entry(sport=80)) == (1, 0b0001)


def test_precedence_total_order():
    # every (mask, file_order) combination gets a distinct key, so sorting
    # candidate rules never depends on tie-breaking by identity
    entries = []
    order = 0
    for mask in range(1, 16):
        for _dup in range(2):
            entries.append(entry(
                sip="1.1.1.1" if mask & 0b0100 else None,
                sport=1 if mask & 0b0001 else None,
                dip="2.2.2.2" if mask & 0b1000 else None,
                dport=2 if mask & 0b0010 else None,
                file_order=order))
            order += 1
    keys = [precedence_key(e) for e in entries]
    assert len(set(keys)) == len(keys)
    ranked = sorted(entries, key=precedence_key, reverse=True)
    # higher attribute count always outranks lower
    counts = [specificity(e)[0] for e in ranked]
    assert counts == sorted(counts, reverse=True)
    # among equal masks, the earlier row wins
    for a, b in zip(ranked, ranked[1:]):
        if specificity(a) == specificity(b):
            assert a.file_order < b.file_order


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


def test_taxonomy_and_label_strings_shared(tmp_path):
    path = write_log(tmp_path, [f"1.2.3.{i},,,,sYNscan,1,1.0,1,anomalous" for i in range(3)])
    a, b, c = parse_log(path)
    assert a.taxonomy is b.taxonomy is c.taxonomy
    assert a.mawilab_label is b.mawilab_label is c.mawilab_label


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
    assert _parse_ip(cell, 2, "sip") == text


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
            assert _parse_ip(spelling, 2, "dip") == text


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
                _parse_ip(cell, 2, "sip")
            continue
        accepted += 1
        family = socket.AF_INET if ip.version == 4 else socket.AF_INET6
        scoped = getattr(ip, "scope_id", None)
        expected = str(ip) if scoped else socket.inet_ntop(family, ip.packed)
        assert _parse_ip(cell, 2, "sip") == expected
    assert 5_000 < accepted < 25_000    # both outcomes well drawn
