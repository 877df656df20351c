"""End-to-end CLI tests, driving flowlabel.cli.main() in process."""

from __future__ import annotations

import csv
import gzip
import json
import random

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
    assert lines == [f"flowlabel: {m:,} packets read" for m in marks]


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
    left = [] if command == "split" else ["20180701_mawilab_flow.csv"]
    assert sorted(p.name for p in out.iterdir()) == left


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
