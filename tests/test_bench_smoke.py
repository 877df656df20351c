"""The benchmark's smoke mode must keep working: it runs every workload at
a tiny size through the real CLI and checks that its output gate rejects
corrupted outputs.  Its traced mode must keep timing each layer where the
work happens."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import packetcraft as pc

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_traced_cli_layers(tmp_path):
    # a refactor that moved decoding or aggregation out of the wrapped
    # calls would read 0 here and shift its time into cli.other_s
    trace = tmp_path / "trace.pcap"
    trace.write_bytes(pc.random_trace(random.Random(3), 3000)[0])
    log = tmp_path / "log.csv"
    log.write_text("sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label\n")
    out = tmp_path / "out"
    out.mkdir()
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(report),
         "pipeline", "-i", str(trace), "-c", str(log), "-o", str(out), "-n", "5", "--quiet"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    layers = json.loads(report.read_text())
    assert layers["exit"] == 0
    decode_s = layers["seconds"]["pcap_reader.decode_s"]
    aggregate_s = layers["seconds"]["flow_builder.aggregate_s"]
    assert aggregate_s > 0
    # opening the capture alone reads its header inside the decode span;
    # the packet stream must be timed there too, and decoding it took
    # 0.87-0.96 of the aggregation time on this trace
    assert decode_s >= aggregate_s / 5
    with (out / "trace_mawilab_flow.csv").open() as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows > 0 and layers["counts"]["flow_builder.flows"] == rows
    # the split of `pipeline -n` is timed as its own layer
    assert layers["seconds"]["flow_io.split_s"] > 0
    assert layers["counts"]["flow_io.split_files"] == len(list(out.glob("*_w*.csv"))) > 0


def test_traced_cli_log_layers(tmp_path):
    # the log is parsed and indexed by the calls the tracer wraps, so its
    # entries and the index's non-empty tables are counted
    rng = random.Random(7)
    trace = tmp_path / "trace.pcap"
    trace.write_bytes(pc.random_trace(rng, 300)[0])
    rows, accepted, masks = [], 0, set()
    for _ in range(400):
        mask = rng.randrange(1, 16)
        label = rng.choice(["anomalous", "suspicious", "notice"])
        rows.append(",".join([
            f"10.0.0.{rng.randrange(256)}" if mask & 4 else "null",
            str(rng.randrange(65536)) if mask & 1 else "",
            f"10.0.1.{rng.randrange(256)}" if mask & 8 else "",
            str(rng.randrange(65536)) if mask & 2 else "NULL",
            "sYNscan", "1", "0.5", "2", label]))
        if label != "notice":
            accepted += 1
            masks.add(mask)
    log = tmp_path / "log.csv"
    log.write_text("\n".join(
        ["sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label", *rows]) + "\n")
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(report),
         "pipeline", "-i", str(trace), "-c", str(log), "-o", str(tmp_path / "out.csv"),
         "--quiet"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    layers = json.loads(report.read_text())
    assert layers["counts"]["mawilab_log.entries"] == accepted > 0
    assert layers["counts"]["labeler.masks_nonempty"] == len(masks) > 1
    assert layers["seconds"]["mawilab_log.parse_s"] > 0
    assert layers["seconds"]["labeler.index_build_s"] > 0


def test_traced_cli_label_layers(tmp_path):
    # label's read, matching and labeled write are timed as their own
    # layers, and every flow read is matched once
    trace = tmp_path / "trace.pcap"
    trace.write_bytes(pc.random_trace(random.Random(5), 2000)[0])
    log = tmp_path / "log.csv"
    log.write_text("sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label\n"
                   ",443,,,ntscACK,1,0.5,1,suspicious\n")
    flows = tmp_path / "flows.csv"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "flowlabel", "extract", "-i", str(trace), "-o", str(flows),
         "--quiet"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = tmp_path / "labeled.csv"
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(report),
         "label", "-i", str(flows), "-c", str(log), "-o", str(out), "--sec", "--quiet"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    layers = json.loads(report.read_text())
    assert layers["exit"] == 0
    for layer in ("flow_io.traffic_read_s", "labeler.match_s", "flow_io.label_write_s"):
        assert layers["seconds"][layer] > 0, layer
    with out.open() as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows > 0 and layers["counts"]["labeler.match_calls"] == rows
