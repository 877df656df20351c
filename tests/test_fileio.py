"""Output file helper tests: the gzip writer that compresses on a worker
thread must give the bytes of a plain GzipFile under a TextIOWrapper, and
a failed write must leave neither a file nor a thread behind."""

from __future__ import annotations

import gzip
import io
import random
import threading

import pytest

from flowlabel import _fileio
from flowlabel._fileio import open_text_write

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
