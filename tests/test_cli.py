"""End-to-end CLI tests, driving flowlabel.cli.main() in process."""

from __future__ import annotations

import csv
import gzip
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

import packetcraft as pc
from flowlabel import FlowKey, FlowRecord, cli, flow_io, read_flows, read_traffic
from flowlabel.cli import main
from flowlabel.flow_io import OUTPUT_COLUMNS, TRAFFIC_COLUMNS

LOG_HEADER = "sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label"


def run(*argv):
    return main(list(argv))


def small_pcap(tmp_path, name="trace.pcap", early_dns=False):
    """Twenty packets over four five-tuples, one of which pauses long
    enough mid-trace to be cut by the default idle timeout.  `early_dns`
    adds a packet to port 53 half a second before all of them."""
    base = 1_530_453_600_000
    frames = []

    def tcp_pkt(ts_ms, src, dst, sport, dport, flags):
        seg = pc.tcp(sport, dport, flags)
        frame = pc.ethernet(pc.ipv4(src, dst, 6, seg))
        frames.append((*pc.ms_to_sec_us(ts_ms), frame))

    for i in range(8):
        tcp_pkt(base + i * 100, "192.0.2.10", "198.51.100.5", 1234, 80,
                pc.SYN if i == 0 else pc.ACK)
    for i in range(6):
        tcp_pkt(base + i * 150, "198.51.100.5", "192.0.2.10", 80, 1234, pc.ACK)
    for i in range(3):
        tcp_pkt(base + i * 50, "192.0.2.11", "198.51.100.5", 4321, 443, pc.ACK)
    for i in range(3):
        tcp_pkt(base + i * 60_000, "192.0.2.12", "198.51.100.9", 5555, 53, pc.ACK)
    if early_dns:
        tcp_pkt(base - 500, "192.0.2.13", "198.51.100.9", 6666, 53, pc.ACK)

    frames.sort(key=lambda f: (f[0], f[1]))
    path = tmp_path / name
    path.write_bytes(pc.pcap(frames))
    return path


def write_log(tmp_path, rows, name="log.csv"):
    path = tmp_path / name
    path.write_text("\n".join([LOG_HEADER, *rows]) + "\n")
    return path


MIXED_RULE_ROWS = [
    "192.0.2.10,1234,198.51.100.5,80,alphflHTTP,20,0.4142,3,anomalous",
    "192.0.2.10,1234,,,ntscACK,21,0.5,2,anomalous",
    "192.0.2.11,,198.51.100.5,,ptmpHTTP,22,0.6,2,suspicious",
    ",,198.51.100.5,443,sYNscan,23,0.7,1,anomalous",
]


def test_extract(tmp_path, capsys):
    pcap = small_pcap(tmp_path)
    out = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(out)) == 0
    flows = list(read_traffic(out))
    # the 60-second-spaced tuple splits into three single-packet flows
    assert len(flows) == 6
    assert sum(f.packets for f in flows) == 20
    keys = {(f.key.src_ip, f.key.src_port) for f in flows}
    assert keys == {("192.0.2.10", 1234), ("198.51.100.5", 80),
                    ("192.0.2.11", 4321), ("192.0.2.12", 5555)}
    err = capsys.readouterr().err
    assert "20 packets decoded" in err


def test_extract_quiet_no_timeout(tmp_path, capsys):
    pcap = small_pcap(tmp_path)
    out = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(out),
               "--idle-timeout", "0", "--quiet") == 0
    assert len(list(read_traffic(out))) == 4
    assert capsys.readouterr().err == ""


def test_extract_per_packet(tmp_path):
    pcap = small_pcap(tmp_path)
    out = tmp_path / "pp.csv"
    assert run("extract", "-i", str(pcap), "-o", str(out),
               "--mode", "per-packet") == 0
    flows = list(read_traffic(out))
    assert len(flows) == 20
    assert all(f.packets == 1 for f in flows)


def test_extract_empty_pcap(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(pc.pcap([]))
    out = tmp_path / "flows.csv"
    assert run("extract", "-i", str(path), "-o", str(out)) == 0
    assert out.read_text().splitlines() == [",".join(TRAFFIC_COLUMNS)]


def test_extract_output_directory(tmp_path):
    pcap = small_pcap(tmp_path, name="20180701.pcap")
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    assert run("extract", "-i", str(pcap), "-o", str(outdir)) == 0
    assert (outdir / "20180701_result.data").exists()


def test_missing_input_is_usage_error(tmp_path, capsys):
    out = tmp_path / "flows.csv"
    code = run("extract", "-i", str(tmp_path / "nope.pcap"), "-o", str(out))
    assert code == 1
    assert "nope.pcap" in capsys.readouterr().err


def test_not_a_pcap_is_format_error(tmp_path, capsys):
    bad = tmp_path / "junk.pcap"
    bad.write_bytes(b"this is not a capture file at all")
    code = run("extract", "-i", str(bad), "-o", str(tmp_path / "x.csv"))
    assert code == 2
    assert "junk.pcap" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    assert run("extract", "-i", str(tmp_path / "x.pcap")) == 1
    capsys.readouterr()


def test_label_rule_precedence(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    out = tmp_path / "labeled.csv"
    assert run("label", "-i", str(flows_csv), "-c", str(log),
               "-o", str(out), "--quiet") == 0
    by_key = {}
    for lf in read_flows(out):
        by_key.setdefault((lf.flow.key.src_ip, lf.flow.key.src_port), lf)
    full = by_key[("192.0.2.10", 1234)]
    assert full.class_label == "anomaly"
    assert full.taxonomy == "alphflHTTP"       # 4 attributes beat 2
    pair = by_key[("192.0.2.11", 4321)]
    assert pair.class_label == "anomaly"
    assert pair.taxonomy == "ptmpHTTP"
    assert pair.mawilab_label == "suspicious"
    unmatched = by_key[("192.0.2.12", 5555)]
    assert unmatched.class_label == "normal"
    reverse = by_key[("198.51.100.5", 80)]     # direction matters
    assert reverse.class_label == "normal"


def test_label_log_with_byte_order_mark(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    marked = tmp_path / "marked.csv"
    marked.write_bytes("\ufeff".encode() + log.read_bytes())
    # a mark before a quoted header cell, as a writer that quotes every cell saves it
    quoted = tmp_path / "quoted.csv"
    quoted_header = ",".join(f'"{name}"' for name in LOG_HEADER.split(","))
    quoted.write_bytes(("\ufeff" + "\n".join([quoted_header, *MIXED_RULE_ROWS]) + "\n").encode())
    outs = []
    for name, path in (("plain", log), ("marked", marked), ("quoted", quoted)):
        out = tmp_path / f"{name}.labeled.csv"
        assert run("label", "-i", str(flows_csv), "-c", str(path), "-o", str(out),
                   "--quiet") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert b"alphflHTTP" in outs[1]


def test_label_empty_log_all_normal(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, [])
    out = tmp_path / "labeled.csv"
    assert run("label", "-i", str(flows_csv), "-c", str(log),
               "-o", str(out), "--quiet") == 0
    assert all(lf.class_label == "normal" for lf in read_flows(out))


def test_label_single_attribute_unsure_and_drop(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, [",,,80,ntscACK,20,1.0,2,anomalous"])
    kept = tmp_path / "kept.csv"
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(kept), "--quiet")
    classes = [lf.class_label for lf in read_flows(kept)]
    assert classes.count("unsure") == 1
    dropped = tmp_path / "dropped.csv"
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(dropped),
        "--drop-unsure", "--quiet")
    remaining = [lf.class_label for lf in read_flows(dropped)]
    assert remaining.count("unsure") == 0
    assert len(remaining) == len(classes) - 1


def test_label_accept_notice(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, [
        "192.0.2.10,1234,198.51.100.5,80,benchmark,1,1.0,1,notice"])
    out = tmp_path / "labeled.csv"
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(out), "--quiet")
    assert all(lf.class_label == "normal" for lf in read_flows(out))
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(out),
        "--accept-notice", "--quiet")
    assert any(lf.class_label == "anomaly" for lf in read_flows(out))


def test_label_output_directory_naming(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "20180701_result.data"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    assert run("label", "-i", str(flows_csv), "-c", str(log),
               "-o", str(outdir), "--quiet") == 0
    assert (outdir / "20180701_result_mawilab_flow.csv").exists()


def test_label_stats_file(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    out = tmp_path / "labeled.csv"
    stats_path = tmp_path / "stats.jsonl"
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(out),
        "--stats", str(stats_path), "--quiet")
    lines = [json.loads(line) for line in stats_path.read_text().splitlines()]
    kinds = {obj["kind"]: obj for obj in lines}
    assert set(kinds) == {"classes", "taxonomies", "l_histogram", "label"}
    classes = kinds["classes"]
    assert sum(classes["counts"].values()) == classes["rows"]
    assert classes["rows"] == len(list(read_flows(out)))
    assert kinds["label"]["rows_written"] == classes["rows"]


def test_label_stats_count_shadowed_rules(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    # a later rule with the sip and dip of the one that wins flow
    # 192.0.2.11 -> 198.51.100.5 loses its slot, and so labels nothing
    rows = [*MIXED_RULE_ROWS, "192.0.2.11,,198.51.100.5,,ptmpICMP,24,0.8,1,anomalous",
            "192.0.2.99,,,,t,1,1.0,1,notice"]
    stats_path = tmp_path / "stats.jsonl"
    outputs = []
    for name, log_rows in (("base", MIXED_RULE_ROWS), ("dup", rows)):
        out = tmp_path / f"{name}.csv"
        run("label", "-i", str(flows_csv), "-c", str(write_log(tmp_path, log_rows, f"{name}.log")),
            "-o", str(out), "--stats", str(stats_path), "--quiet")
        outputs.append(out.read_bytes())
    (label,) = [obj for obj in map(json.loads, stats_path.read_text().splitlines())
                if obj["kind"] == "label"]
    assert (label["log_entries"], label["log_rows_skipped_by_label"],
            label["log_rules_shadowed"]) == (5, 1, 1)
    assert outputs[0] == outputs[1]


def test_label_bad_log_is_format_error(tmp_path, capsys):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, ["not-an-ip,,,,t,1,1.0,1,anomalous"])
    assert run("label", "-i", str(flows_csv), "-c", str(log),
               "-o", str(tmp_path / "x.csv"), "--quiet") == 2
    capsys.readouterr()


def test_sec_rendering_via_cli(tmp_path):
    pcap = small_pcap(tmp_path)
    out = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(out), "--sec", "--quiet")
    with out.open() as fh:
        row = next(csv.reader(fh.readlines()[1:2]))
    assert "." in row[8] and row[8].split(".")[1].isdigit()
    assert len(row[8].split(".")[1]) == 3


def test_label_sec_renders_negative_duration(tmp_path):
    # a flow row whose eTime precedes its sTime keeps its sign in seconds
    flows_csv = tmp_path / "flows.csv"
    flow_io.write_traffic([FlowRecord(FlowKey("192.0.2.10", "198.51.100.5", 1234, 80, 6),
                                      1, 40, 0, 0, 0, 1000, 500)], flows_csv)
    out = tmp_path / "labeled.csv"
    assert run("label", "-i", str(flows_csv), "-c", str(write_log(tmp_path, [])),
               "-o", str(out), "--sec", "--quiet") == 0
    with out.open() as fh:
        row = list(csv.reader(fh))[1]
    assert row[8:11] == ["1.000", "-0.500", "0.500"]


def test_split_command(tmp_path, capsys):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    labeled = tmp_path / "labeled.csv"
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(labeled), "--quiet")
    outdir = tmp_path / "windows"
    assert run("split", "-i", str(labeled), "-o", str(outdir), "-n", "30") == 0
    made = sorted(outdir.iterdir())
    # flow start times sit at 0s, 60s and 120s, so windows 1 and 3 are
    # empty and get no file
    assert [p.name for p in made] == [
        "labeled_w0000.csv", "labeled_w0002.csv", "labeled_w0004.csv"]
    total = sum(sum(1 for _ in read_flows(p)) for p in made)
    assert total == len(list(read_flows(labeled)))
    assert "3 window files" in capsys.readouterr().err


def test_split_rejects_zero_window(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text(",".join(OUTPUT_COLUMNS) + "\n")
    assert run("split", "-i", str(src), "-o", str(tmp_path / "w"), "-n", "0") == 1
    capsys.readouterr()


# one rule more than MIXED_RULE_ROWS: a single-attribute (unsure) rule
PIPELINE_RULE_ROWS = [*MIXED_RULE_ROWS, ",,,53,ntscUDP,24,0.8,2,anomalous"]


@pytest.mark.parametrize("flags, name", [
    ([], "labeled.csv"),
    (["--sec"], "labeled.csv"),
    (["--mode", "per-packet"], "labeled.csv"),
    (["--drop-unsure"], "labeled.csv"),
    ([], "labeled.csv.gz"),
    (["--idle-timeout", "0.5", "--active-timeout", "3"], "labeled.csv"),
    (["-n", "0.3", "--drop-unsure", "--sec"], "labeled.csv"),
], ids=["default", "sec", "per-packet", "drop-unsure", "gz-output", "timeouts",
        "split-drop-unsure"])
def test_pipeline_matches_two_step(tmp_path, flags, name):
    window = flags[flags.index("-n") + 1] if "-n" in flags else None
    # with a split, the earliest flow is unsure: dropped, it must not set
    # the windows' origin
    pcap = small_pcap(tmp_path, early_dns=window is not None)
    log = write_log(tmp_path, PIPELINE_RULE_ROWS)
    extract_flags = [f for f in flags if f not in ("--drop-unsure", "-n", window)]
    label_flags = [f for f in flags if f in ("--sec", "--drop-unsure")]

    two, one = tmp_path / "two_step", tmp_path / "one_step"
    two.mkdir()
    one.mkdir()
    assert run("extract", "-i", str(pcap), "-o", str(two / "flows.csv"), *extract_flags,
               "--stats", str(two / "extract.jsonl"), "--quiet") == 0
    assert run("label", "-i", str(two / "flows.csv"), "-c", str(log), "-o", str(two / name),
               *label_flags, "--stats", str(two / "label.jsonl"), "--quiet") == 0
    assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(one / name), *flags,
               "--stats", str(one / "stats.jsonl"), "--quiet") == 0

    assert (one / name).read_bytes() == (two / name).read_bytes()
    assert (one / "stats.jsonl").read_text() == (
        (two / "extract.jsonl").read_text() + (two / "label.jsonl").read_text())
    windows = []
    if window is not None:
        earliest = min(read_traffic(two / "flows.csv"), key=lambda f: f.stime_ms)
        assert earliest.key.src_ip == "192.0.2.13"
        assert earliest.stime_ms < min(lf.flow.stime_ms for lf in read_flows(two / name))
        assert run("split", "-i", str(two / name), "-o", str(two / "windows"), "-n", window,
                   "--quiet") == 0
        windows = sorted(p.name for p in (two / "windows").iterdir())
        assert windows
        for w in windows:
            assert (one / w).read_bytes() == (two / "windows" / w).read_bytes()
    assert sorted(p.name for p in one.iterdir()) == sorted([name, "stats.jsonl", *windows])


@pytest.mark.parametrize("source, rule_ip", [
    ("::ffff:1.2.3.4", "::ffff:1.2.3.4"),
    ("::ffff:1.2.3.4", "::ffff:102:304"),
    ("::1.2.3.4", "::1.2.3.4"),
], ids=["mapped", "mapped-hex-rule", "compatible"])
def test_rule_naming_ipv4_in_ipv6_address_matches(tmp_path, source, rule_ip):
    frame = pc.ethernet(pc.ipv6(source, "2001:db8::53", 17, pc.udp(5000, 53)),
                        ethertype=pc.ETH_IPV6)
    pcap = tmp_path / "v6.pcap"
    pcap.write_bytes(pc.pcap([(1_530_453_600, 0, frame)]))
    log = write_log(tmp_path, [f"{rule_ip},5000,,53,ntscUDP,24,0.8,2,anomalous"])
    out = tmp_path / "labeled.csv"
    assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(out), "--quiet") == 0
    (lf,) = read_flows(out)
    assert lf.flow.key.src_ip == source
    assert (lf.class_label, lf.taxonomy) == ("anomaly", "ntscUDP")


@pytest.mark.parametrize("command", ["pipeline", "label"])
def test_non_utf8_input_is_format_error(tmp_path, capsys, command):
    pcap = _random_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    if command == "pipeline":
        # a log row whose taxonomy cell holds 0xFF
        bad = tmp_path / "log.csv"
        bad.write_bytes(bad.read_bytes() + b"192.0.2.10,,,,scan\xff,1,1.0,1,anomalous\n")
        argv = ["pipeline", "-i", str(pcap), "-c", str(bad)]
    else:
        # a flow CSV with 0xFF in its last row, after thousands of rows
        bad = tmp_path / "flows.csv"
        assert run("extract", "-i", str(pcap), "-o", str(bad), "--quiet") == 0
        data = bad.read_bytes()
        bad.write_bytes(data[:-10] + b"\xff" + data[-9:])
        argv = ["label", "-i", str(bad), "-c", str(log)]
    out = tmp_path / "out"
    out.mkdir()
    assert run(*argv, "-o", str(out / "result.csv"), "--quiet") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"flowlabel: {bad}: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def _random_pcap(tmp_path, name="trace.pcap"):
    data, _truth = pc.random_trace(random.Random(3), 3000)
    path = tmp_path / name
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("command", ["extract", "label", "pipeline"])
def test_input_cut_mid_record_leaves_no_output(tmp_path, capsys, command):
    pcap = _random_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    out = tmp_path / "out"
    out.mkdir()
    if command == "label":
        # a flow CSV whose last row is cut in the middle
        cut = tmp_path / "flows.csv"
        assert run("extract", "-i", str(pcap), "-o", str(cut), "--quiet") == 0
        text = cut.read_bytes()
        last_row = text.rstrip(b"\n").rfind(b"\n") + 1
        cut.write_bytes(text[:(last_row + len(text)) // 2])
        argv = ["label", "-i", str(cut), "-c", str(log)]
    else:
        # a capture whose last record is cut short, after thousands of
        # flows have been emitted
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(pcap.read_bytes()[:-5])
        argv = [command, "-i", str(cut)] + (["-c", str(log)] if command == "pipeline" else [])
    assert run(*argv, "-o", str(out / "result.csv"), "--quiet") == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _damage(data: bytes, how: str) -> bytes:
    if how == "header-overwritten":
        # the first deflate block, which holds the start of the file (a
        # capture's global header), gets the reserved block type
        return data[:10] + b"\xff" + data[11:]
    if how == "truncated":
        return data[:len(data) // 2]
    if how == "crc-flipped":
        crc = len(data) - 8      # the trailer is CRC32 then ISIZE
        return data[:crc] + bytes([data[crc] ^ 0xFF]) + data[crc + 1:]
    mid = len(data) // 2
    return data[:mid] + b"\xff" * 600 + data[mid + 600:]


@pytest.mark.parametrize("how", ["truncated", "crc-flipped", "deflate-overwritten",
                                 "header-overwritten"])
@pytest.mark.parametrize("command", ["extract", "label", "label-log"])
def test_damaged_gzip_input_is_format_error(tmp_path, capsys, command, how):
    # extract of a damaged capture, label of a damaged flow CSV, label
    # with a damaged log
    pcap = _random_pcap(tmp_path)
    if command == "extract":
        damaged = tmp_path / "trace.pcap.gz"
        damaged.write_bytes(_damage(gzip.compress(pcap.read_bytes(), mtime=0), how))
        argv = ["extract", "-i", str(damaged)]
    elif command == "label":
        damaged = tmp_path / "flows.csv.gz"
        assert run("extract", "-i", str(pcap), "-o", str(damaged), "--quiet") == 0
        damaged.write_bytes(_damage(damaged.read_bytes(), how))
        argv = ["label", "-i", str(damaged), "-c", str(write_log(tmp_path, MIXED_RULE_ROWS))]
    else:
        flows = tmp_path / "flows.csv"
        assert run("extract", "-i", str(pcap), "-o", str(flows), "--quiet") == 0
        damaged = tmp_path / "log.csv.gz"
        log = write_log(tmp_path, MIXED_RULE_ROWS * 50).read_bytes()
        damaged.write_bytes(_damage(gzip.compress(log, mtime=0), how))
        argv = ["label", "-i", str(flows), "-c", str(damaged)]
    out = tmp_path / "out"
    out.mkdir()
    assert run(*argv, "-o", str(out / "result.csv"), "--quiet") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"flowlabel: {damaged}: ") and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


def test_pipeline_with_split_and_stats(tmp_path):
    pcap = small_pcap(tmp_path, name="20180701.pcap")
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    outdir = tmp_path / "out"
    outdir.mkdir()
    stats_path = tmp_path / "stats.jsonl"
    assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(outdir),
               "-n", "30", "--stats", str(stats_path), "--quiet") == 0
    labeled = outdir / "20180701_mawilab_flow.csv"
    assert labeled.exists()
    windows = sorted(p.name for p in outdir.iterdir() if "_w" in p.name)
    assert windows == [f"20180701_mawilab_flow_w{i:04d}.csv" for i in (0, 2, 4)]
    lines = [json.loads(line) for line in stats_path.read_text().splitlines()]
    kinds = [obj["kind"] for obj in lines]
    assert kinds == ["extract", "classes", "taxonomies", "l_histogram", "label"]
    assert lines[0]["packets_decoded"] == 20


@pytest.mark.parametrize("every", [1, 3, 20, 21])
@pytest.mark.parametrize("command, flags", [
    ("extract", []),
    ("extract", ["--idle-timeout", "0", "--active-timeout", "0"]),   # no flow until the end
    ("pipeline", []),
    ("extract", ["--quiet"]),
    ("pipeline", ["--quiet"]),
], ids=["extract", "extract-no-timeouts", "pipeline", "extract-quiet", "pipeline-quiet"])
def test_progress_lines(tmp_path, capsys, monkeypatch, command, flags, every):
    monkeypatch.setattr(cli, "PROGRESS_EVERY", every)
    pcap = small_pcap(tmp_path)   # 20 packets; the first flow comes out after 18
    argv = [command, "-i", str(pcap), "-o", str(tmp_path / "out.csv"), *flags]
    if command == "pipeline":
        argv += ["-c", str(write_log(tmp_path, MIXED_RULE_ROWS))]
    assert run(*argv) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "packets read" in line]
    marks = [] if "--quiet" in flags else range(every, 20 + 1, every)
    assert [line.split(" (")[0] for line in lines] == [
        f"flowlabel: {m:,} packets read" for m in marks]
    for line in lines:
        assert re.fullmatch(r"flowlabel: [\d,]+ packets read \([1-9][\d,]* packets/s\)", line)


def test_extract_stats_peak_live_flows(tmp_path):
    # A, B and C overlap; C's packet 40 s on cuts it (idle 30 s) and carries
    # the clock past A's and B's timeout, so D joins a table of C and D
    base = 1_530_453_600_000
    frames = [(*pc.ms_to_sec_us(base + ms), pc.ethernet(pc.ipv4(src, "198.51.100.5", 6,
                                                                pc.tcp(1000, 80, pc.ACK))))
              for ms, src in [(0, "192.0.2.1"), (10, "192.0.2.2"), (20, "192.0.2.3"),
                              (30, "192.0.2.1"), (40_000, "192.0.2.3"),
                              (40_100, "192.0.2.4"), (40_200, "192.0.2.4")]]
    pcap = tmp_path / "overlap.pcap"
    pcap.write_bytes(pc.pcap(frames))
    for mode, peak, flows in [("aggregate", 3, 5), ("per-packet", 0, 7)]:
        stats_path = tmp_path / f"{mode}.jsonl"
        assert run("extract", "-i", str(pcap), "-o", str(tmp_path / f"{mode}.csv"),
                   "--mode", mode, "--stats", str(stats_path), "--quiet") == 0
        (summary,) = [json.loads(line) for line in stats_path.read_text().splitlines()]
        assert (summary["peak_live_flows"], summary["flows_written"]) == (peak, flows)


@pytest.mark.parametrize("command", ["split", "pipeline"])
def test_failed_split_leaves_no_window_file(tmp_path, capsys, monkeypatch, command):
    pcap = small_pcap(tmp_path, name="20180701.pcap")   # three 30 s windows
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    out = tmp_path / "out"
    out.mkdir()
    labeled = tmp_path / "labeled.csv"
    assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(labeled), "--quiet") == 0
    real_open, opened = open, []

    def open_third_fails(file, *args, **kwargs):
        opened.append(file)
        if len(opened) == 3:
            raise OSError(28, "No space left on device")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(flow_io, "open", open_third_fails, raising=False)
    if command == "split":
        argv = ["split", "-i", str(labeled), "-o", str(out)]
    else:
        argv = ["pipeline", "-i", str(pcap), "-c", str(log), "-o", str(out)]
    assert run(*argv, "-n", "30", "--quiet") == 3
    assert "No space left on device" in capsys.readouterr().err
    assert len(opened) == 3
    # nor the labeled CSV of `pipeline -n`, nor its staging directory
    assert list(out.iterdir()) == []


def test_failed_split_keeps_existing_labeled_csv(tmp_path, capsys, monkeypatch):
    pcap = small_pcap(tmp_path, name="20180701.pcap")   # three 30 s windows
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("earlier run\n")
    real_open = open

    def open_window_fails(file, *args, **kwargs):
        if re.search(r"_w\d{4}\.csv$", os.fspath(file)):   # a window file
            raise OSError(28, "No space left on device")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(flow_io, "open", open_window_fails, raising=False)
    argv = ["pipeline", "-i", str(pcap), "-c", str(log), "-o", str(labeled), "-n", "30"]
    assert run(*argv, "--quiet") == 3
    capsys.readouterr()
    assert labeled.read_text() == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [labeled.name, log.name, pcap.name])


def test_pipeline_outputs_get_new_file_mode(tmp_path, new_file_mode):
    pcap = small_pcap(tmp_path, name="20180701.pcap")   # three 30 s windows
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    out = tmp_path / "out"
    out.mkdir()
    assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(out), "-n", "30",
               "--stats", str(out / "stats.jsonl"), "--quiet") == 0
    made = list(out.iterdir())
    assert len(made) == 5   # the labeled CSV, three window files and the stats
    assert {stat.S_IMODE(p.stat().st_mode) for p in made} == {new_file_mode}


def test_each_output_is_staged_once(tmp_path, monkeypatch):
    # one staging directory per output file, and one for all window files:
    # the writer of a path staged_path() gave writes it in place
    pcap = small_pcap(tmp_path, name="20180701.pcap")   # three 30 s windows
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    real_mkdtemp, made = tempfile.mkdtemp, []

    def counting_mkdtemp(*args, **kwargs):
        made.append(real_mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", counting_mkdtemp)
    flows, labeled = tmp_path / "flows.csv", tmp_path / "labeled.csv"
    stats = ["--stats", str(tmp_path / "stats.jsonl")]
    for argv, staged in [
        (["extract", "-i", str(pcap), "-o", str(flows), *stats], 2),
        (["label", "-i", str(flows), "-c", str(log), "-o", str(labeled)], 1),
        (["split", "-i", str(labeled), "-o", str(tmp_path / "win"), "-n", "30"], 1),
        (["pipeline", "-i", str(pcap), "-c", str(log), "-o", str(tmp_path / "out.csv"),
          "-n", "5", *stats], 3),
    ]:
        made.clear()
        assert run(*argv, "--quiet") == 0
        assert len(made) == staged, argv[0]
        assert not any(os.path.exists(path) for path in made)


def test_gz_stats_path_is_gzipped(tmp_path):
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    for name in ["stats.jsonl", "stats.jsonl.gz"]:
        assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(tmp_path / "out.csv"),
                   "--stats", str(tmp_path / name), "--quiet") == 0
    plain = (tmp_path / "stats.jsonl").read_bytes()
    assert plain.count(b"\n") == 5
    assert gzip.decompress((tmp_path / "stats.jsonl.gz").read_bytes()) == plain


def test_failed_stats_write_leaves_no_stats_file(tmp_path, capsys, monkeypatch):
    # the stats are written with the data outputs, before any of them is
    # renamed into place, so a stats write failing on its last line leaves
    # no flow, labeled, window or stats file
    pcap = small_pcap(tmp_path, name="20180701.pcap")   # three 30 s windows
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    flows = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(flows), "--quiet") == 0
    dumped = []
    dumps = json.dumps

    def dumps_last_fails(obj, **kwargs):
        dumped.append(obj)
        if len(dumped) == last:
            raise OSError(28, "No space left on device")
        return dumps(obj, **kwargs)

    # the CLI imports json only when it writes --stats
    monkeypatch.setattr(json, "dumps", dumps_last_fails)
    for argv, last in [(["extract", "-i", str(pcap)], 1),
                       (["label", "-i", str(flows), "-c", str(log)], 4),
                       (["pipeline", "-i", str(pcap), "-c", str(log), "-n", "30"], 5)]:
        dumped.clear()
        out = tmp_path / argv[0]
        out.mkdir()
        assert run(*argv, "-o", str(out / "result.csv"),
                   "--stats", str(out / "stats.jsonl"), "--quiet") == 3
        assert "No space left on device" in capsys.readouterr().err
        assert len(dumped) == last
        assert list(out.iterdir()) == []


def test_pipeline_split_into_fifo_is_usage_error(tmp_path):
    # the split reads the labeled CSV back, which would block forever on a
    # FIFO, so the run is refused before any input is read; it runs in a
    # subprocess so that a hang fails at the timeout
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    fifo = tmp_path / "labeled.fifo"
    os.mkfifo(fifo)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "flowlabel", "pipeline", "-i", str(pcap), "-c", str(log),
         "-o", str(fifo), "-n", "5"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == f"flowlabel: error: -n needs a regular output file, not {fifo}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([pcap.name, log.name, fifo.name])


@pytest.mark.parametrize("how", ["same path", "output directory", "link"])
@pytest.mark.parametrize("command", ["extract", "label", "pipeline"])
def test_stats_naming_the_output_is_usage_error(tmp_path, capsys, command, how):
    # one of the two files would replace the other, so nothing is written
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    flows = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(flows), "--quiet") == 0
    source = flows if command == "label" else pcap
    inputs = ["-i", str(source)] + (["-c", str(log)] if command != "extract" else [])
    out = tmp_path / "out"
    out.mkdir()
    target = out / "result.csv"
    output, stats = target, target
    if how == "output directory":
        output = out
        target = stats = out / (source.stem + ("_result.data" if command == "extract"
                                               else "_mawilab_flow.csv"))
    elif how == "link":
        stats = out / "stats.link"
        stats.symlink_to(target)
    assert run(command, *inputs, "-o", str(output), "--stats", str(stats), "--quiet") == 1
    assert capsys.readouterr().err == f"flowlabel: error: --stats names the output file {target}\n"
    assert list(out.iterdir()) == ([stats] if how == "link" else [])


@pytest.mark.parametrize("how", ["output file", "output directory"])
def test_stats_naming_a_window_file_is_usage_error(tmp_path, capsys, how):
    # a window file of the split would replace the stats, so nothing is
    # written; a name that no window takes is left alone
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    out = tmp_path / "out"
    out.mkdir()
    if how == "output file":
        output, stem, window = out / "labeled.csv", "labeled", "0000"
    else:
        output, stem, window = out, "trace_mawilab_flow", "12345"
    stats = out / f"{stem}_w{window}.csv"
    argv = ["pipeline", "-i", str(pcap), "-c", str(log), "-o", str(output), "-n", "5", "--quiet"]
    assert run(*argv, "--stats", str(stats)) == 1
    assert capsys.readouterr().err == f"flowlabel: error: --stats names a window file {stats}\n"
    assert list(out.iterdir()) == []
    stats = out / f"{stem}_w000.csv"
    assert run(*argv, "--stats", str(stats)) == 0
    assert json.loads(stats.read_text().splitlines()[0])["kind"] == "extract"


@pytest.mark.parametrize("command, flag, named, how", [
    *(("extract", flag, "-i", how) for flag in ("-o", "--stats") for how in ("path", "link")),
    *((command, flag, named, how) for command in ("label", "pipeline")
      for flag in ("-o", "--stats") for named in ("-i", "-c") for how in ("path", "link")),
    ("pipeline", "-n", "-c", "window"),
    ("pipeline", "-n", "-i", "window"),
    ("split", "-o", "-i", "window"),
])
def test_output_replacing_an_input_is_usage_error(tmp_path, capsys, command, flag, named, how):
    # -o or --stats names an input, directly or through a link, or a window
    # file of the split would take an input's name: the run is refused
    # before anything is read or written
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    flows, labeled = tmp_path / "flows.csv", tmp_path / "labeled.csv"
    assert run("extract", "-i", str(pcap), "-o", str(flows), "--quiet") == 0
    assert run("label", "-i", str(flows), "-c", str(log), "-o", str(labeled), "--quiet") == 0
    argv = {"-i": {"extract": pcap, "pipeline": pcap, "label": flows, "split": labeled}[command],
            "-c": log, "-o": tmp_path / "out.csv"}
    if command in ("extract", "split"):
        del argv["-c"]
    if how == "path":
        argv[flag] = argv[named]
        message = f"{flag} names the input file {argv[named]}"
    elif how == "link":
        argv[flag] = tmp_path / "link"
        argv[flag].symlink_to(argv[named])
        message = f"{flag} names the input file {argv[named]}"
    elif command == "pipeline":
        argv["-n"] = "5"
        argv[named] = argv[named].rename(tmp_path / "out_w0000.csv")
        message = f"{named} names a window file {argv[named]}"
    else:
        # split's input is a link to a file that its window 0 would replace
        argv["-o"] = tmp_path / "windows"
        argv["-o"].mkdir()
        real = argv["-i"].rename(argv["-o"] / "link_w0000.csv")
        argv["-i"] = tmp_path / "link.csv"
        argv["-i"].symlink_to(real)
        message = f"-i names a window file {argv['-i']}"
    files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert run(command, *(str(a) for item in argv.items() for a in item), "--quiet") == 1
    assert capsys.readouterr().err == f"flowlabel: error: {message}\n"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files


@pytest.mark.parametrize("command", ["extract", "label", "pipeline"])
def test_output_in_a_missing_directory_is_usage_error(tmp_path, capsys, command):
    # -o names a directory, by its trailing separator, that does not exist
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    flows = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(flows), "--quiet") == 0
    inputs = {"extract": ["-i", str(pcap)], "label": ["-i", str(flows), "-c", str(log)],
              "pipeline": ["-i", str(pcap), "-c", str(log)]}[command]
    newdir = str(tmp_path / "newdir") + os.sep
    assert run(command, *inputs, "-o", newdir, "--quiet") == 1
    assert capsys.readouterr().err == f"flowlabel: error: output directory does not exist: {newdir}\n"
    assert set(tmp_path.iterdir()) == {pcap, log, flows}


@pytest.mark.parametrize("flag", ["-o", "--stats"])
@pytest.mark.parametrize("command", ["extract", "label", "pipeline"])
def test_output_file_in_a_missing_directory_is_usage_error(tmp_path, capsys, command, flag):
    # the message names the missing directory, not the hidden file the
    # output would have been staged in, and nothing is read or made
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    flows = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(flows), "--quiet") == 0
    inputs = {"extract": ["-i", str(pcap)], "label": ["-i", str(flows), "-c", str(log)],
              "pipeline": ["-i", str(pcap), "-c", str(log)]}[command]
    nodir = tmp_path / "nodir"
    outputs = {"-o": tmp_path / "out.csv", "--stats": tmp_path / "stats.jsonl", flag: nodir / "x"}
    assert run(command, *inputs, *(str(a) for item in outputs.items() for a in item),
               "--quiet") == 1
    assert capsys.readouterr().err == f"flowlabel: error: output directory does not exist: {nodir}\n"
    assert set(tmp_path.iterdir()) == {pcap, log, flows}


@pytest.mark.parametrize("kind", ["file", "dangling link", "under a file",
                                  "under a dangling link"])
def test_split_output_naming_a_file_is_usage_error(tmp_path, capsys, kind):
    # -o, or the nearest path that exists above it, is not a directory
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    labeled = tmp_path / "labeled.csv"
    assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(labeled), "--quiet") == 0
    top = log
    if kind.endswith("dangling link"):
        top = tmp_path / "link"
        top.symlink_to(tmp_path / "missing")
    out = top / "sub" if kind.startswith("under") else top
    before = log.read_bytes()
    assert run("split", "-i", str(labeled), "-o", str(out), "--quiet") == 1
    assert capsys.readouterr().err == f"flowlabel: error: -o must name a directory: {out}\n"
    assert log.read_bytes() == before
    assert set(tmp_path.iterdir()) == {pcap, log, labeled, top}


@pytest.mark.parametrize("quiet", [False, True])
def test_split_of_a_header_only_file(tmp_path, capsys, quiet):
    src = tmp_path / "empty.csv"
    src.write_text(",".join(OUTPUT_COLUMNS) + "\n")
    outdir = tmp_path / "windows"
    assert run("split", "-i", str(src), "-o", str(outdir), *(["--quiet"] if quiet else [])) == 0
    assert capsys.readouterr() == (
        "", "" if quiet else f"flowlabel: {src} has no data rows; nothing to split\n")
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["extract", "pipeline"])
def test_help_shows_timeout_defaults(capsys, command):
    assert run(command, "--help") == 0
    text = " ".join(capsys.readouterr().out.split())   # as wrapped at any width
    assert "(default 30; 0 disables)" in text
    assert "(default 1800; 0 disables)" in text


def test_stats_and_output_both_written_in_place(tmp_path):
    # /dev/stdout on a pipe takes both, the stats after the flows
    pcap = small_pcap(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "flowlabel", "extract", "-i", str(pcap), "-o", "/dev/stdout",
         "--stats", "/dev/stdout", "--quiet"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 0, proc.stderr
    *rows, stats = proc.stdout.splitlines()
    assert rows[0] == ",".join(TRAFFIC_COLUMNS)
    assert json.loads(stats)["flows_written"] == len(rows) - 1


def test_output_through_a_link_replaces_its_target(tmp_path, capsys, new_file_mode):
    # the output is staged beside the file the link names, so a failed run
    # leaves that file as it was and one that succeeds replaces it; the
    # link is kept either way
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    flows = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(flows), "--quiet") == 0
    short = tmp_path / "short.csv"
    short.write_text(flows.read_text() + "192.0.2.1,198.51.100.5\n")
    real = tmp_path / "elsewhere" / "real.csv"
    real.parent.mkdir()
    real.write_text("earlier run\n")
    real.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert run("label", "-i", str(short), "-c", str(log), "-o", str(link), "--quiet") == 2
    rows = len(flows.read_text().splitlines())
    assert capsys.readouterr().err == f"flowlabel: {short}: row {rows + 1}: 2 cells, expected 23\n"
    assert real.read_text() == "earlier run\n"
    assert run("label", "-i", str(flows), "-c", str(log), "-o", str(link), "--quiet") == 0
    assert run("label", "-i", str(flows), "-c", str(log), "-o", str(tmp_path / "plain.csv"),
               "--quiet") == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert stat.S_IMODE(real.stat().st_mode) == new_file_mode
    assert list(real.parent.iterdir()) == [real]


def test_pipeline_split_through_a_link(tmp_path):
    # the labeled CSV lands in the file the link names; the window files
    # take the link's name, in the link's directory
    pcap = small_pcap(tmp_path, name="20180701.pcap")   # three 30 s windows
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    real = tmp_path / "real.csv"
    real.write_text("")
    made = {}
    for kind in ["link", "plain"]:
        out = tmp_path / kind
        out.mkdir()
        if kind == "link":
            (out / "labeled.csv").symlink_to(real)
        assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(out / "labeled.csv"),
                   "-n", "5", "--quiet") == 0
        made[kind] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert (tmp_path / "link" / "labeled.csv").is_symlink()
    assert made["link"] == made["plain"]
    assert len(made["plain"]) > 2 and real.read_bytes() == made["plain"]["labeled.csv"]


@pytest.mark.parametrize("damaged", ["flows", "log", "labeled"])
def test_cell_over_csv_field_limit_is_format_error(tmp_path, capsys, damaged):
    # the csv module refuses a cell over its 128 KiB field limit
    pcap = small_pcap(tmp_path)
    files = {"log": write_log(tmp_path, MIXED_RULE_ROWS),
             "flows": tmp_path / "flows.csv", "labeled": tmp_path / "labeled.csv"}
    assert run("extract", "-i", str(pcap), "-o", str(files["flows"]), "--quiet") == 0
    assert run("label", "-i", str(files["flows"]), "-c", str(files["log"]),
               "-o", str(files["labeled"]), "--quiet") == 0
    path = files[damaged]
    path.write_text(path.read_text().replace(",", ",9" + "9" * 140_000 + ",", 1))
    out = tmp_path / "out"
    out.mkdir()
    if damaged == "labeled":
        argv = ["split", "-i", str(path), "-o", str(out)]
    else:
        argv = ["label", "-i", str(files["flows"]), "-c", str(files["log"]),
                "-o", str(out / "result.csv")]
    assert run(*argv, "--quiet") == 2
    err = capsys.readouterr().err
    assert err == (f"flowlabel: {path}: bad CSV: field larger than field limit (131072)\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("cell", ["1.0e999", "-1.0e999"])
@pytest.mark.parametrize("command", ["label", "split"])
def test_overflowing_time_cell_is_format_error(tmp_path, capsys, command, cell):
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    src = tmp_path / "in.csv"
    # label reads a traffic CSV, split a labeled one
    first = ["extract"] if command == "label" else ["pipeline", "-c", str(log)]
    assert run(*first, "-i", str(pcap), "-o", str(src), "--quiet") == 0
    with src.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][8] = cell
    with src.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path / "out"
    out.mkdir()
    if command == "label":
        argv = ["label", "-i", str(src), "-c", str(log), "-o", str(out / "labeled.csv")]
    else:
        argv = ["split", "-i", str(src), "-o", str(out), "-n", "30"]
    assert run(*argv, "--quiet") == 2
    assert capsys.readouterr().err == f"flowlabel: {src}: row {len(rows)}: bad time value {cell!r}\n"
    assert list(out.iterdir()) == []


def test_version_flag(capsys):
    assert run("--version") == 0
    out = capsys.readouterr().out
    assert "flowlabel" in out


def test_no_command_is_usage_error(capsys):
    assert run() == 1
    capsys.readouterr()


def test_deterministic_outputs(tmp_path):
    rng = random.Random(12)
    data, _truth = pc.random_trace(rng, 500)
    pcap = tmp_path / "rand.pcap"
    pcap.write_bytes(data)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run("extract", "-i", str(pcap), "-o", str(a), "--quiet")
    run("extract", "-i", str(pcap), "-o", str(b), "--quiet")
    assert a.read_bytes() == b.read_bytes()


def test_extract_stats_skip_reasons(tmp_path):
    rng = random.Random(5)
    data, truth = pc.random_trace(rng, 200, arp_every=10)
    frames = [(1, 0, pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 6, pc.tcp(1, 2, pc.SYN)))[:n])
              for n in (10, 20, 40)]
    pcap = tmp_path / "mixed.pcap"
    # the random trace's records, then three frames cut inside the link,
    # IP and TCP headers
    pcap.write_bytes(data + pc.pcap(frames)[24:])
    stats_path = tmp_path / "stats.jsonl"
    assert run("extract", "-i", str(pcap), "-o", str(tmp_path / "f.csv"),
               "--stats", str(stats_path), "--quiet") == 0
    (summary,) = [json.loads(line) for line in stats_path.read_text().splitlines()]
    assert summary["packets_decoded"] == len(truth)
    assert summary["packets_skipped"] == 20 + 3
    assert summary["skip_reasons"] == {"not IP": 20, "short link header": 1,
                                       "short IP header": 1, "short transport header": 1}
    assert sum(summary["skip_reasons"].values()) == summary["packets_skipped"]


@pytest.mark.parametrize("argv", [
    ["extract", "--idle-timeout", "nan"],
    ["extract", "--active-timeout", "NaN"],
    ["extract", "--idle-timeout", "soon"],
    ["pipeline", "-c", "LOG", "--idle-timeout", "nan"],
    ["split", "-n", "nan"],
    ["split", "-n", "0.0001"],
    ["split", "-n", "inf"],
    ["split", "-n", "-5"],
    ["pipeline", "-c", "LOG", "-n", "0.0004"],
    ["split", "-n", "1e306"],
    ["pipeline", "-c", "LOG", "-n", "1e306"],
    ["extract", "--idle-timeout", "0.0004"],
    ["extract", "--active-timeout", "0.0005"],
    ["pipeline", "-c", "LOG", "--idle-timeout", "1e-300"],
])
def test_degenerate_numeric_flags_rejected(tmp_path, capsys, argv):
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    argv = [str(log) if a == "LOG" else a for a in argv]
    assert run(*argv, "-i", str(pcap), "-o", str(tmp_path / "out.csv")) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (message,) = [line for line in err.splitlines() if "error:" in line]
    assert argv[-2] in message
    assert set(tmp_path.iterdir()) == {pcap, log}   # nothing written


@pytest.mark.parametrize("value", ["-1", "inf", "1e306"])
def test_negative_or_infinite_timeout_disables(tmp_path, value):
    pcap = small_pcap(tmp_path)
    out = tmp_path / "flows.csv"
    assert run("extract", "-i", str(pcap), "-o", str(out), "--quiet",
               "--idle-timeout", value, "--active-timeout", value) == 0
    # without timeouts the 60-second-spaced tuple stays one flow
    assert len(list(read_traffic(out))) == 4


def test_split_smallest_window_accepted(tmp_path):
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    labeled = tmp_path / "labeled.csv"
    assert run("pipeline", "-i", str(pcap), "-c", str(log), "-o", str(labeled), "--quiet") == 0
    assert run("split", "-i", str(labeled), "-o", str(tmp_path / "w"), "-n", "0.001",
               "--quiet") == 0
    assert len(list((tmp_path / "w").iterdir())) > 1


def test_extract_memory_does_not_grow_with_capture_length(tmp_path):
    # One capture of 200 TCP flows of 10 packets each over 9 s, and the same
    # capture repeated 4 times, each copy 60 s after the last, so past the
    # idle timeout.  extract's tracemalloc peak in this process, after a
    # warm-up run, on Python 3.11.7 / 3.12.1 / 3.13.0 (under -X dev): 238 /
    # 237 / 252 KB at 1x and 268 / 265 / 270 KB at 4x.  A build_flows that
    # kept each keyed packet in a list peaked at 334 / 342 / 344 KB at 1x
    # and 1,420 / 1,417 / 1,419 KB at 4x.  The bound lies between.
    def capture(name, copies):
        frames = []
        for copy in range(copies):
            for k in range(10):
                for f in range(200):
                    ts = 1_530_453_600_000 + copy * 60_000 + k * 1000 + f
                    seg = pc.tcp(1024 + f, 80, pc.ACK)
                    frame = pc.ethernet(pc.ipv4(f"10.0.0.{f}", "192.0.2.1", 6, seg))
                    frames.append((*pc.ms_to_sec_us(ts), frame))
        path = tmp_path / name
        path.write_bytes(pc.pcap(frames))
        return path

    def peak(path):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run("extract", "-i", str(path), "-o", str(tmp_path / "flows.csv"),
                       "--quiet") == 0
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    once, four_times = capture("once.pcap", 1), capture("four.pcap", 4)
    peak(once)    # warm-up: imports and first-use caches
    assert peak(four_times) < 1.5 * peak(once)
