"""CSV schema, flag string, time rendering and window splitting tests."""

from __future__ import annotations

import csv
import os
import random
import stat

import pytest
from hypothesis import given, settings, strategies as st

from flowlabel import (FlowKey, FlowRecord, LabeledFlow, MalformedRowError,
                       SchemaMismatchError, flags_from_string,
                       flags_to_string, read_flows, read_traffic,
                       split_by_window, write_flows, write_traffic)
from flowlabel import flow_io
from flowlabel.flow_io import (MILLISECONDS, OUTPUT_COLUMNS, SECONDS,
                               TRAFFIC_COLUMNS)
from flowlabel.pcap_reader import (TCP_ACK, TCP_CWR, TCP_ECE, TCP_FIN,
                                   TCP_PSH, TCP_RST, TCP_SYN, TCP_URG)


def make_flow(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80, proto=6,
              packets=3, nbytes=180, flags=TCP_SYN | TCP_ACK,
              initial=TCP_SYN, session=TCP_ACK, stime=1_530_453_600_123,
              etime=1_530_453_600_223, **kw):
    return FlowRecord(key=FlowKey(src, dst, sport, dport, proto),
                      packets=packets, bytes=nbytes, flags=flags,
                      initial_flags=initial, session_flags=session,
                      stime_ms=stime, etime_ms=etime, **kw)


def labeled(flow=None, **kw):
    defaults = dict(class_label="anomaly", taxonomy="ptmpHTTP", heuristic=20,
                    distance=0.4142, nb_detectors=3, mawilab_label="anomalous")
    defaults.update(kw)
    return LabeledFlow(flow=flow or make_flow(), **defaults)


def csv_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def normal(flow=None):
    return LabeledFlow(flow=flow or make_flow(), class_label="normal")


def test_output_header_frozen():
    assert OUTPUT_COLUMNS == (
        "sIP", "dIP", "sPort", "dPort", "proto", "packets", "bytes", "flags",
        "sTime", "durat", "eTime", "sen", "in", "out", "nhIP", "senClass",
        "typeFlow", "iType", "iCode", "initialF", "sessionF", "attribut",
        "appli", "class", "taxonomy", "label", "heuristic", "distance",
        "nbDetectors")
    assert len(OUTPUT_COLUMNS) == 29
    assert TRAFFIC_COLUMNS == OUTPUT_COLUMNS[:23]
    assert len(TRAFFIC_COLUMNS) == 23


def test_header_line_written(tmp_path):
    path = tmp_path / "out.csv"
    write_flows([], path)
    first = path.read_text().splitlines()[0]
    assert first == ",".join(OUTPUT_COLUMNS)


def test_flag_letters():
    assert flags_to_string(TCP_SYN | TCP_ACK) == "SA"
    assert flags_to_string(0) == ""
    everything = (TCP_FIN | TCP_SYN | TCP_RST | TCP_PSH | TCP_ACK | TCP_URG
                  | TCP_ECE | TCP_CWR)
    assert flags_to_string(everything) == "FSRPAUEC"
    assert flags_from_string("SA") == TCP_SYN | TCP_ACK
    assert flags_from_string("S A") == TCP_SYN | TCP_ACK
    assert flags_from_string("FSRPAUEC") == everything
    assert flags_from_string("") == 0
    assert flags_from_string(flags_to_string(0xB7)) == 0xB7


_LETTERS = ((TCP_FIN, "F"), (TCP_SYN, "S"), (TCP_RST, "R"), (TCP_PSH, "P"),
            (TCP_ACK, "A"), (TCP_URG, "U"), (TCP_ECE, "E"), (TCP_CWR, "C"))


def test_flag_table_equals_letter_loop():
    def letters(bits):
        return "".join(letter for bit, letter in _LETTERS if bits & bit)

    for bits in range(256):
        text = letters(bits)
        assert flags_to_string(bits) == text
        assert flags_to_string(bits | 0x300) == text    # only the low 8 bits count
        assert flags_from_string(text) == bits
        assert flags_from_string(text[::-1]) == bits
        assert flags_from_string(" ".join(text)) == bits
        assert flags_from_string(f" {text} ") == bits
        assert flags_from_string(text + text) == bits


def test_bad_flag_letter():
    with pytest.raises(MalformedRowError):
        flags_from_string("SAX")


def test_anomalous_row_cells(tmp_path):
    path = tmp_path / "out.csv"
    write_flows([labeled()], path)
    header, row = csv_rows(path)
    assert header == list(OUTPUT_COLUMNS)
    assert row[:11] == ["10.0.0.1", "10.0.0.2", "1000", "80", "6", "3", "180",
                        "SA", "1530453600123", "100", "1530453600223"]
    assert row[11:17] == ["0", "0", "0", "0", "", ""]
    assert row[17:23] == ["", "", "S", "A", "", ""]
    assert row[23:] == ["anomaly", "ptmpHTTP", "anomalous", "20", "0.4142", "3"]


def test_normal_row_tail(tmp_path):
    path = tmp_path / "out.csv"
    write_flows([normal()], path)
    _, row = csv_rows(path)
    assert row[23:] == ["normal", "", "normal", "0", "0", "0"]


def test_seconds_rendering(tmp_path):
    path = tmp_path / "out.csv"
    write_flows([normal()], path, time_unit=SECONDS)
    _, row = csv_rows(path)
    assert row[8] == "1530453600.123"
    assert row[9] == "0.100"
    assert row[10] == "1530453600.223"


def test_millisecond_rendering_is_integer(tmp_path):
    path = tmp_path / "out.csv"
    write_flows([normal()], path, time_unit=MILLISECONDS)
    _, row = csv_rows(path)
    assert row[8] == "1530453600123"
    assert row[9] == "100"


# Seconds are read back through a float, which holds every millisecond
# count below 2**51 exactly once rounded; 2**50 ms is some 35,000 years.
@settings(max_examples=500, deadline=None)
@given(unit=st.sampled_from([MILLISECONDS, SECONDS]),
       ms=st.integers(min_value=-2**50, max_value=2**50))
def test_time_render_parse_round_trip(unit, ms):
    assert flow_io._parse_time(flow_io._render_ms(ms, unit), 2) == ms


def test_unknown_unit_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_flows([], tmp_path / "x.csv", time_unit="minutes")


def random_labeled(rng, n):
    out = []
    for i in range(n):
        proto = rng.choice([6, 17, 1])
        flags = rng.randrange(256) if proto == 6 else 0
        initial = flags & rng.randrange(256)
        flow = make_flow(
            src=f"10.0.{rng.randrange(4)}.{rng.randrange(1, 250)}",
            dst=f"10.1.{rng.randrange(4)}.{rng.randrange(1, 250)}",
            sport=rng.randrange(65536) if proto != 1 else 0,
            dport=rng.randrange(65536) if proto != 1 else 0,
            proto=proto,
            packets=rng.randrange(1, 9999),
            nbytes=rng.randrange(40, 10_000_000),
            flags=flags, initial=initial, session=flags & ~initial or 0,
            stime=1_530_453_600_000 + rng.randrange(900_000),
            etime=1_530_453_600_000 + 900_000 + rng.randrange(900_000),
            icmp_type=8 if proto == 1 else None,
            icmp_code=0 if proto == 1 else None)
        kind = rng.randrange(3)
        if kind == 0:
            out.append(normal(flow))
        elif kind == 1:
            out.append(labeled(flow, class_label="unsure", taxonomy="ntscACK",
                               heuristic=rng.randrange(100),
                               distance=round(rng.uniform(-2, 2), 4),
                               nb_detectors=rng.randrange(9),
                               mawilab_label="suspicious"))
        else:
            out.append(labeled(flow, heuristic=rng.randrange(100),
                               distance=round(rng.uniform(0, 5), 4),
                               nb_detectors=rng.randrange(1, 9)))
    return out


@pytest.mark.parametrize("unit", [MILLISECONDS, SECONDS])
def test_round_trip_equality(tmp_path, unit):
    rng = random.Random(hash(unit) & 0xFFFF)
    rows = random_labeled(rng, 300)
    path = tmp_path / "out.csv"
    assert write_flows(rows, path, time_unit=unit) == 300
    back = list(read_flows(path))
    assert back == rows


@pytest.mark.parametrize("unit", [MILLISECONDS, SECONDS])
def test_write_read_write_is_byte_stable(tmp_path, unit):
    rng = random.Random(42)
    rows = random_labeled(rng, 200)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_flows(rows, first, time_unit=unit)
    write_flows(read_flows(first), second, time_unit=unit)
    assert first.read_bytes() == second.read_bytes()


def test_traffic_round_trip(tmp_path):
    rng = random.Random(8)
    flows = [lf.flow for lf in random_labeled(rng, 150)]
    path = tmp_path / "traffic.csv"
    assert write_traffic(flows, path) == 150
    assert list(read_traffic(path)) == flows
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRAFFIC_COLUMNS)


def test_gzip_round_trip(tmp_path):
    rng = random.Random(9)
    rows = random_labeled(rng, 50)
    path = tmp_path / "out.csv.gz"
    write_flows(rows, path)
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    assert list(read_flows(path)) == rows


def test_gzip_output_deterministic(tmp_path):
    rows = random_labeled(random.Random(10), 20)
    a = tmp_path / "a.csv.gz"
    b = tmp_path / "b.csv.gz"
    write_flows(rows, a)
    write_flows(rows, b)
    assert a.read_bytes() == b.read_bytes()


def test_schema_mismatch_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(OUTPUT_COLUMNS[:28]) + "\n")
    with pytest.raises(SchemaMismatchError):
        list(read_flows(path))


def test_schema_mismatch_wrong_names(tmp_path):
    path = tmp_path / "bad.csv"
    cols = list(OUTPUT_COLUMNS)
    cols[0] = "srcIP"
    path.write_text(",".join(cols) + "\n")
    with pytest.raises(SchemaMismatchError):
        list(read_flows(path))


def test_empty_file_is_schema_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaMismatchError):
        list(read_flows(path))


def test_header_only_reads_empty(tmp_path):
    path = tmp_path / "head.csv"
    write_flows([], path)
    assert list(read_flows(path)) == []


def test_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_flows([normal(), normal()], path)
    with path.open("a") as fh:
        fh.write("only,three,cells\n")
    with pytest.raises(MalformedRowError) as err:
        list(read_flows(path))
    assert "row 4" in str(err.value)


@pytest.mark.parametrize("bad, message", [
    ({2: "x"}, "row 2: bad integer in sPort: 'x'"),
    ({6: "1.5", 3: "-"}, "row 2: bad integer in dPort: '-'"),
    ({6: "", 17: "z"}, "row 2: bad integer in bytes: ''"),
    ({8: "soon", 19: "Q"}, "row 2: bad time value 'soon'"),
    ({18: "z", 20: "Q"}, "row 2: bad integer in iCode: 'z'"),
], ids=["sport", "dport-before-bytes", "bytes-before-itype", "stime-before-flags",
        "icode-before-flags"])
def test_bad_cells_report_the_first(tmp_path, bad, message):
    path = tmp_path / "bad.csv"
    write_traffic([make_flow()], path)
    rows = csv_rows(path)
    for col, cell in bad.items():
        rows[1][col] = cell
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    with pytest.raises(MalformedRowError) as err:
        list(read_traffic(path))
    assert str(err.value) == message


def test_bad_class_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    write_flows([normal()], path)
    text = path.read_text().replace("normal,,normal", "fishy,,normal")
    path.write_text(text)
    with pytest.raises(MalformedRowError):
        list(read_flows(path))


def test_mixed_unit_read(tmp_path):
    # one file written in each unit parses to the same records
    rows = random_labeled(random.Random(13), 40)
    ms_path = tmp_path / "ms.csv"
    s_path = tmp_path / "s.csv"
    write_flows(rows, ms_path, time_unit=MILLISECONDS)
    write_flows(rows, s_path, time_unit=SECONDS)
    assert list(read_flows(ms_path)) == list(read_flows(s_path))


# ---------------------------------------------------------------------------
# splitter

def stamped(ms_offsets, base=1_530_453_600_000):
    return [normal(make_flow(stime=base + off, etime=base + off + 10))
            for off in ms_offsets]


def test_split_boundary(tmp_path):
    src = tmp_path / "labeled.csv"
    write_flows(stamped([0, 4_999, 5_000, 12_500]), src)
    outdir = tmp_path / "win"
    paths = split_by_window(src, 5.0, outdir)
    assert [p.name for p in paths] == [
        "labeled_w0000.csv", "labeled_w0001.csv", "labeled_w0002.csv"]
    counts = [sum(1 for _ in read_flows(p)) for p in paths]
    assert counts == [2, 1, 1]


def test_split_origin_is_min_stime(tmp_path):
    # windows are relative to the earliest flow, not to epoch zero
    src = tmp_path / "labeled.csv"
    write_flows(stamped([7_000, 9_000, 13_000]), src)
    paths = split_by_window(src, 5.0, tmp_path / "win")
    assert [p.name for p in paths] == ["labeled_w0000.csv", "labeled_w0001.csv"]
    assert sum(1 for _ in read_flows(paths[0])) == 2


def test_split_single_timestamp(tmp_path):
    src = tmp_path / "labeled.csv"
    write_flows(stamped([100, 100, 100]), src)
    paths = split_by_window(src, 5.0, tmp_path / "win")
    assert len(paths) == 1
    assert sum(1 for _ in read_flows(paths[0])) == 3


def test_split_partition_and_order_independence(tmp_path):
    rng = random.Random(5)
    offsets = [rng.randrange(0, 60_000) for _ in range(200)]
    rows = stamped(offsets)
    a_src = tmp_path / "a.csv"
    write_flows(rows, a_src)
    a_paths = split_by_window(a_src, 5.0, tmp_path / "wa")

    shuffled = rows[:]
    rng.shuffle(shuffled)
    b_src = tmp_path / "b.csv"
    write_flows(shuffled, b_src)
    b_paths = split_by_window(b_src, 5.0, tmp_path / "wb")

    assert sum(sum(1 for _ in read_flows(p)) for p in a_paths) == 200
    a_sets = {p.name.split("_w")[1]: sorted(repr(x) for x in read_flows(p))
              for p in a_paths}
    b_sets = {p.name.split("_w")[1]: sorted(repr(x) for x in read_flows(p))
              for p in b_paths}
    assert a_sets == b_sets


def test_split_rows_copied_verbatim(tmp_path):
    rng = random.Random(6)
    rows = random_labeled(rng, 60)
    src = tmp_path / "mix.csv"
    write_flows(rows, src, time_unit=SECONDS)
    paths = split_by_window(src, 300.0, tmp_path / "win")
    src_lines = set(src.read_text().splitlines()[1:])
    out_lines = []
    for p in paths:
        out_lines.extend(p.read_text().splitlines()[1:])
    assert set(out_lines) == src_lines
    assert len(out_lines) == 60


def test_split_header_only(tmp_path):
    src = tmp_path / "empty.csv"
    write_flows([], src)
    outdir = tmp_path / "win"
    assert split_by_window(src, 5.0, outdir) == []
    assert not outdir.exists()


def test_split_many_windows_exceeding_open_limit(tmp_path):
    # interleave rows across more windows than the writer keeps open
    offsets = []
    for rep in range(3):
        offsets.extend(w * 1000 + rep for w in range(150))
    src = tmp_path / "many.csv"
    write_flows(stamped(offsets), src)
    paths = split_by_window(src, 1.0, tmp_path / "win")
    assert len(paths) == 150
    assert all(sum(1 for _ in read_flows(p)) == 3 for p in paths)
    # the temp files are renamed away, with the mode open() gives a new file
    assert sorted((tmp_path / "win").iterdir()) == paths
    umask = os.umask(0o022)
    os.umask(umask)
    assert {stat.S_IMODE(p.stat().st_mode) for p in paths} == {0o666 & ~umask}


@pytest.mark.parametrize("fail_at", [3, 151], ids=["third", "reopen"])
def test_split_failure_removes_every_window_file(tmp_path, monkeypatch, fail_at):
    # the 151st open is the append-mode reopen of window 0
    offsets = [w * 1000 + rep for rep in range(3) for w in range(150)]
    src = tmp_path / "many.csv"
    write_flows(stamped(offsets), src)
    real_open, opened = open, []

    def failing_open(file, mode="r", *args, **kwargs):
        opened.append(mode)
        if len(opened) == fail_at:
            raise OSError(5, "Input/output error")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(flow_io, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="Input/output error"):
        split_by_window(src, 1.0, tmp_path / "win")
    assert opened[-1] == ("a" if fail_at == 151 else "w")
    assert list((tmp_path / "win").iterdir()) == []


def test_split_rejects_bad_window(tmp_path):
    src = tmp_path / "x.csv"
    write_flows(stamped([0]), src)
    with pytest.raises(ValueError):
        split_by_window(src, 0, tmp_path / "win")


def test_split_gz_stem(tmp_path):
    src = tmp_path / "trace.csv.gz"
    write_flows(stamped([0, 6000]), src)
    paths = split_by_window(src, 5.0, tmp_path / "win")
    assert [p.name for p in paths] == ["trace_w0000.csv", "trace_w0001.csv"]
