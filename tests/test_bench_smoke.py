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
    assert layers["seconds"]["pcap_reader.decode_s"] > 0
    assert layers["seconds"]["flow_builder.aggregate_s"] > 0
    with (out / "trace_mawilab_flow.csv").open() as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows > 0 and layers["counts"]["flow_builder.flows"] == rows
