"""End-to-end CLI tests, driving flowlabel.cli.main() in process."""

from __future__ import annotations

import csv
import gzip
import json
import random

import pytest

import packetcraft as pc
from flowlabel import read_flows, read_traffic
from flowlabel.cli import main
from flowlabel.flow_io import OUTPUT_COLUMNS, TRAFFIC_COLUMNS

LOG_HEADER = "sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label"


def run(*argv):
    return main(list(argv))


def small_pcap(tmp_path, name="trace.pcap"):
    """Twenty packets over four five-tuples, one of which pauses long
    enough mid-trace to be cut by the default idle timeout."""
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


def test_label_threads_match_sequential(tmp_path):
    pcap = small_pcap(tmp_path)
    flows_csv = tmp_path / "flows.csv"
    run("extract", "-i", str(pcap), "-o", str(flows_csv), "--quiet")
    log = write_log(tmp_path, MIXED_RULE_ROWS)
    seq = tmp_path / "seq.csv"
    par = tmp_path / "par.csv"
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(seq),
        "--threads", "1", "--quiet")
    run("label", "-i", str(flows_csv), "-c", str(log), "-o", str(par),
        "--threads", "4", "--quiet")
    assert seq.read_bytes() == par.read_bytes()


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
], ids=["default", "sec", "per-packet", "drop-unsure", "gz-output", "timeouts"])
def test_pipeline_matches_two_step(tmp_path, flags, name):
    pcap = small_pcap(tmp_path)
    log = write_log(tmp_path, PIPELINE_RULE_ROWS)
    extract_flags = [f for f in flags if f != "--drop-unsure"]
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
    assert sorted(p.name for p in one.iterdir()) == sorted([name, "stats.jsonl"])


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
    if how == "truncated":
        return data[:len(data) // 2]
    if how == "crc-flipped":
        crc = len(data) - 8      # the trailer is CRC32 then ISIZE
        return data[:crc] + bytes([data[crc] ^ 0xFF]) + data[crc + 1:]
    mid = len(data) // 2
    return data[:mid] + b"\xff" * 600 + data[mid + 600:]


@pytest.mark.parametrize("how", ["truncated", "crc-flipped", "deflate-overwritten"])
@pytest.mark.parametrize("command", ["extract", "label"])
def test_damaged_gzip_input_is_format_error(tmp_path, capsys, command, how):
    pcap = _random_pcap(tmp_path)
    if command == "extract":
        damaged = tmp_path / "trace.pcap.gz"
        damaged.write_bytes(_damage(gzip.compress(pcap.read_bytes(), mtime=0), how))
        argv = ["extract", "-i", str(damaged)]
    else:
        damaged = tmp_path / "flows.csv.gz"
        assert run("extract", "-i", str(pcap), "-o", str(damaged), "--quiet") == 0
        damaged.write_bytes(_damage(damaged.read_bytes(), how))
        argv = ["label", "-i", str(damaged), "-c", str(write_log(tmp_path, MIXED_RULE_ROWS))]
    out = tmp_path / "out"
    out.mkdir()
    assert run(*argv, "-o", str(out / "result.csv"), "--quiet") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("flowlabel: ")
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
