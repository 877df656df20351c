"""File helper tests: the gzip writer that compresses on a worker thread
must give the bytes of a plain GzipFile under a TextIOWrapper, a failed
write must leave neither a file nor a thread behind, and a gzip input's
file must close with its stream."""

from __future__ import annotations

import gc
import gzip
import io
import os
import random
import stat
import sys
import threading

import pytest

import packetcraft as pc
from flowlabel import _fileio, open_capture
from flowlabel._fileio import open_binary_read, open_text_read, open_text_write
from flowlabel.errors import InputFormatError

CHUNK = 256 * 1024


def reference_gzip(pieces) -> bytes:
    """What writing `pieces` through TextIOWrapper over GzipFile gives."""
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as gz:
        with io.TextIOWrapper(gz, encoding="utf-8", newline="") as text:
            for piece in pieces:
                text.write(piece)
    return buf.getvalue()


def csv_like(rng, size: int) -> list[str]:
    """Flow-like rows of random numbers, cut so their total length is `size`."""
    rows, total = [], 0
    while total < size:
        n = rng.getrandbits(80)
        row = (f"10.{n & 255}.{n >> 8 & 255}.{n >> 16 & 255},{n >> 24 & 0xFFFF},"
               f"{n >> 40 & 0xFFFF},6,{n >> 56 & 0xFF},{1_530_453_600_000 + (n >> 64)},normal\n")
        rows.append(row[:size - total])
        total += len(rows[-1])
    return rows


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        CountingThread.started += 1
        super().start()


@pytest.fixture
def counted_threads(monkeypatch):
    CountingThread.started = 0
    monkeypatch.setattr(threading, "Thread", CountingThread)
    return CountingThread


@pytest.mark.parametrize("size", [0, None, CHUNK - 1, CHUNK, CHUNK + 1, 3 * 1024 * 1024],
                         ids=["empty", "one-row", "chunk-1", "chunk", "chunk+1", "3MiB"])
def test_gzip_writer_matches_plain_gzipfile(tmp_path, counted_threads, size):
    pieces = ["sIP,dIP,sPort\n"] if size is None else csv_like(random.Random(size), size)
    before = threading.active_count()
    path = tmp_path / "out.csv.gz"
    with open_text_write(path) as fh:
        for piece in pieces:
            fh.write(piece)
    assert path.read_bytes() == reference_gzip(pieces)
    assert gzip.decompress(path.read_bytes()).decode() == "".join(pieces)
    assert threading.active_count() == before
    if size and size > 2 * CHUNK:
        assert counted_threads.started > 1    # compressed off the calling thread


@pytest.mark.parametrize("name", ["out.csv", "out.csv.gz"])
def test_output_gets_new_file_mode(tmp_path, new_file_mode, name):
    path = tmp_path / name
    with open_text_write(path) as fh:
        fh.write("sIP,dIP,sPort\n")
    assert stat.S_IMODE(path.stat().st_mode) == new_file_mode


def test_link_to_a_fifo_is_written_in_place(tmp_path):
    # a rename would put a file where the link is; writing through it
    # reaches the FIFO's reader
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    link = tmp_path / "link.csv"
    link.symlink_to(fifo)
    assert _fileio.written_in_place(link)
    with _fileio.staged_path(link) as staged:
        assert staged == str(link)
    assert link.is_symlink()


def test_plain_output_starts_no_thread(tmp_path, counted_threads):
    path = tmp_path / "out.csv"
    with open_text_write(path) as fh:
        fh.write("".join(csv_like(random.Random(1), 3 * CHUNK)))
    assert counted_threads.started == 0


class FailingFile:
    """A binary file whose Nth write fails."""

    def __init__(self, fh, fail_at: int):
        self._fh, self._fail_at, self.writes = fh, fail_at, 0
        self.failed_in = None

    def write(self, data):
        self.writes += 1
        if self.writes == self._fail_at:
            self.failed_in = threading.current_thread()
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


# Writing these rows gzipped, writes 1-6 are the header's (calling
# thread), 7-11 the deflate output of each chunk (worker) and 12 on the
# sync flush, the end of the stream and the trailer (calling thread, at
# close).  The header is left out: the file's own buffer takes it, so a
# real file does not fail there.
@pytest.mark.parametrize("name", ["out.csv.gz", "out.csv"])
@pytest.mark.parametrize("fail_at", [7, 9, 12, 14])
def test_failed_write_leaves_no_file_and_no_thread(tmp_path, monkeypatch, name, fail_at):
    opened = []

    def failing_open(file, mode="r", *args, **kwargs):
        opened.append(FailingFile(open(file, mode, *args, **kwargs), fail_at))
        return opened[-1]

    monkeypatch.setattr(_fileio, "open", failing_open, raising=False)
    out = tmp_path / "out"
    out.mkdir()
    rows = csv_like(random.Random(12), 4 * CHUNK)
    before = threading.active_count()
    with pytest.raises(OSError, match="No space left"):
        with open_text_write(out / name) as fh:
            for row in rows:
                fh.write(row)
    (raw,) = opened
    assert raw.failed_in is not None
    if name.endswith(".gz"):
        assert (raw.failed_in is threading.main_thread()) == (fail_at >= 12)
    assert list(out.iterdir()) == []
    assert threading.active_count() == before


def test_failed_gzip_header_leaves_nothing_to_finalize(tmp_path, monkeypatch):
    # the header is the first write; the GzipFile whose construction failed
    # there must not write to the closed file once it is collected.  Its
    # finalizer reports that error only in development mode (-X dev), so
    # the write count is what shows it.
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(FailingFile(open(*args, **kwargs), 1))
        return opened[-1]

    monkeypatch.setattr(_fileio, "open", failing_open, raising=False)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(OSError, match="No space left"):
        with open_text_write(out / "out.csv.gz"):
            pass
    gc.collect()
    (raw,) = opened
    assert raw.writes == 1
    assert unraisable == []
    assert list(out.iterdir()) == []


@pytest.fixture
def opened(monkeypatch):
    """The files that _fileio opens, in order."""
    files = []

    def capturing_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(_fileio, "open", capturing_open, raising=False)
    return files


TEXT = "".join(csv_like(random.Random(3), 3 * CHUNK))


def test_gzip_input_file_closes_with_its_stream(tmp_path, opened):
    path = tmp_path / "flows.csv.gz"
    path.write_bytes(gzip.compress(TEXT.encode(), mtime=0))
    stream = open_binary_read(path)
    assert isinstance(stream, gzip.GzipFile)
    assert stream.read() == TEXT.encode()
    (raw,) = opened
    assert not raw.closed
    stream.close()
    assert raw.closed


def test_gzip_text_input_file_closes_when_its_block_ends(tmp_path, opened):
    path = tmp_path / "flows.csv.gz"
    path.write_bytes(gzip.compress(TEXT.encode(), mtime=0))
    with open_text_read(path) as fh:
        assert fh.read() == TEXT
    (raw,) = opened
    assert raw.closed


def test_damaged_gzip_text_input_file_closes(tmp_path, opened):
    packed = gzip.compress(TEXT.encode(), mtime=0)
    path = tmp_path / "flows.csv.gz"
    path.write_bytes(packed[:len(packed) // 2])   # ends early
    lines = 0
    with pytest.raises(InputFormatError, match="damaged gzip input"):
        with open_text_read(path) as fh:
            for _ in fh:
                lines += 1
    assert 0 < lines < TEXT.count("\n")
    (raw,) = opened
    assert raw.closed


def test_gzip_capture_file_closes_with_its_reader(tmp_path, opened):
    frame = pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 6, pc.tcp(1234, 80, 0x02)))
    path = tmp_path / "trace.pcap.gz"
    path.write_bytes(gzip.compress(pc.pcap([(8, 0, frame)]), mtime=0))
    with open_capture(path) as reader:
        assert len(list(reader)) == 1
        (raw,) = opened
        assert not raw.closed
    assert raw.closed
