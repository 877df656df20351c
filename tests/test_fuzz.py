"""Structure-aware fuzzing of the CLI's input contract.

Valid pcap, log, flow and labeled CSV files are broken the ways real
files break: cut short, a record length or the magic overwritten, a cell
replaced, non-UTF-8 bytes spliced in, the whole file gzipped and the
stream damaged.  Each is run through cli.main in-process with --quiet.
Every run must end with exit 0, or with exit 2 and one stderr line that
names the damaged file and holds no traceback; a failed run must leave no
output file, and no run may leave a staging entry.
"""

from __future__ import annotations

import gzip
import itertools
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import packetcraft as pc
from flowlabel.cli import main

LOG_TEXT = "\n".join([
    "sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label",
    "10.0.0.1,,10.0.0.2,,alphflHTTP,20,0.41,3,anomalous",
    "10.0.0.3,null,NULL,443,ptmpHTTP,22,0.6,2,suspicious",
    ",,,80,sYNscan,23,0.7,1,anomalous",
    " 10.0.0.4 ,,,,ntscACK,21,0.5,2, Suspicious ",
    "::ffff:10.0.0.5,,,,unknown,24,0.25,1,notice",
]) + "\n"

# cells a broken or hand-edited CSV may hold
_CELLS = st.sampled_from([
    "", " ", "null", "x", "-1", "65536", "1e999", "-1.0e999", "nan", "inf", "1.5",
    "10.0.0.999", "::1%eth0", '"', '"a,b"', "\t", "\x00", "é", "SYN", "+80",
    "9" * 140_000,   # past the csv module's field size limit
]) | st.text(max_size=6)

# byte strings that are never valid UTF-8
_NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"])

_settings = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid capture, log, flow CSV and labeled CSV, as bytes."""
    root = tmp_path_factory.mktemp("valid")
    capture = pc.random_trace(random.Random(11), 150, max_step_ms=100)[0]
    (root / "trace.pcap").write_bytes(capture)
    (root / "log.csv").write_text(LOG_TEXT)
    assert main(["extract", "-i", str(root / "trace.pcap"), "-o", str(root / "flows.csv"),
                 "--quiet"]) == 0
    assert main(["label", "-i", str(root / "flows.csv"), "-c", str(root / "log.csv"),
                 "-o", str(root / "labeled.csv"), "--quiet"]) == 0
    return {name: (root / name).read_bytes()
            for name in ["trace.pcap", "log.csv", "flows.csv", "labeled.csv"]}


def _record_offsets(capture: bytes) -> list[int]:
    offsets, at = [], 24
    while at < len(capture):
        offsets.append(at)
        at += 16 + struct.unpack_from("<I", capture, at + 8)[0]
    return offsets


@st.composite
def _pcap_damage(draw, data: bytes) -> bytes:
    data = bytearray(data)
    if draw(st.booleans()):   # a record's incl_len or orig_len
        at = draw(st.sampled_from(_record_offsets(data))) + draw(st.sampled_from([8, 12]))
        data[at:at + 4] = struct.pack("<I", draw(
            st.integers(0, 0xFFFF) | st.integers(0, 0xFFFFFFFF)))
    if draw(st.booleans()):   # the magic: another byte order or time unit, or none
        data[:4] = draw(st.sampled_from([
            bytes.fromhex(m) for m in ["d4c3b2a1", "a1b2c3d4", "4d3cb2a1", "a1b23c4d"]])
            | st.binary(min_size=4, max_size=4))
    if draw(st.booleans()):   # the version or link type
        at = draw(st.sampled_from([4, 20]))
        data[at:at + 4] = draw(st.sampled_from([
            struct.pack("<I", t) for t in [1, 101, 113, 228, 229]])
            | st.binary(min_size=4, max_size=4))
    for _ in range(draw(st.integers(0, 8))):   # bytes of the frames
        at = draw(st.integers(24, len(data) - 1))
        data[at] = draw(st.integers(0, 255))
    return bytes(data)


@st.composite
def _csv_damage(draw, data: bytes) -> bytes:
    lines = data.split(b"\n")
    if draw(st.booleans()):   # one cell replaced, or one cell more or fewer
        row = draw(st.integers(0, len(lines) - 2))
        cells = lines[row].split(b",")
        at = draw(st.integers(0, len(cells) - 1))
        how = draw(st.sampled_from(["replace", "drop", "add"]))
        if how == "drop":
            del cells[at]
        else:
            cells[at:at + (how == "replace")] = [draw(_CELLS).encode("utf-8")]
        lines[row] = b",".join(cells)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at:at] = [draw(_NOT_UTF8) + b",1,2"]
    return b"\n".join(lines)


@st.composite
def _damaged(draw, data: bytes, structure) -> tuple[bytes, bool]:
    """`data` broken in its structure and its bytes, and maybe gzipped (and
    the stream damaged); returns the bytes and whether they are gzip."""
    data = draw(structure(data))
    if draw(st.booleans()):   # one byte overwritten
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=1)) + data[at + 1:]
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    gzipped = draw(st.booleans())
    if gzipped:
        data = gzip.compress(data, mtime=0)
        how = draw(st.sampled_from(["none", "cut", "byte"]))
        at = draw(st.integers(0, len(data) - 1))
        if how == "cut":
            data = data[:at]
        elif how == "byte":
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data, gzipped


_runs = itertools.count()


def _run_damaged(tmp_path, capsys, valid, name, damaged, argv):
    """Run the CLI on `argv`, formatted with {input}, the damaged file, and
    {root}, a new directory holding the valid files under valid/ and an
    empty out/, and check the contract."""
    data, gzipped = damaged
    root = tmp_path / f"run{next(_runs)}"
    (root / "valid").mkdir(parents=True)
    (root / "out").mkdir()
    for valid_name, valid_data in valid.items():
        (root / "valid" / valid_name).write_bytes(valid_data)
    path = root / (name + ".gz" if gzipped else name)
    path.write_bytes(data)
    code = main([arg.format(input=path, root=root) for arg in argv] + ["--quiet"])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("flowlabel: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert f"{path}: " in err, err
        assert list((root / "out").iterdir()) == []
    else:
        assert err == ""
    assert list(root.rglob(".*.tmp")) == []


@_settings
@given(data=st.data(), command=st.sampled_from(["extract", "pipeline"]))
def test_damaged_capture(tmp_path, capsys, valid, data, command):
    damaged = data.draw(_damaged(valid["trace.pcap"], _pcap_damage))
    if command == "extract":
        argv = ["extract", "-i", "{input}", "-o", "{root}/out/flows.csv"]
    else:
        argv = ["pipeline", "-i", "{input}", "-c", "{root}/valid/log.csv",
                "-o", "{root}/out/labeled.csv", "-n", "1"]
    _run_damaged(tmp_path, capsys, valid, "trace.pcap", damaged,
                 argv + ["--stats", "{root}/out/stats.jsonl"])


@_settings
@given(data=st.data())
def test_damaged_log(tmp_path, capsys, valid, data):
    damaged = data.draw(_damaged(valid["log.csv"], _csv_damage))
    _run_damaged(tmp_path, capsys, valid, "log.csv", damaged,
                 ["label", "-i", "{root}/valid/flows.csv", "-c", "{input}",
                  "-o", "{root}/out/labeled.csv", "--stats", "{root}/out/stats.jsonl"])


@_settings
@given(data=st.data())
def test_damaged_flow_csv(tmp_path, capsys, valid, data):
    damaged = data.draw(_damaged(valid["flows.csv"], _csv_damage))
    _run_damaged(tmp_path, capsys, valid, "flows.csv", damaged,
                 ["label", "-i", "{input}", "-c", "{root}/valid/log.csv",
                  "-o", "{root}/out/labeled.csv", "--sec"])


@_settings
@given(data=st.data())
def test_damaged_labeled_csv(tmp_path, capsys, valid, data):
    damaged = data.draw(_damaged(valid["labeled.csv"], _csv_damage))
    _run_damaged(tmp_path, capsys, valid, "labeled.csv", damaged,
                 ["split", "-i", "{input}", "-o", "{root}/out", "-n", "1"])
