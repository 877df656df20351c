"""File open helpers with transparent gzip.

Reading sniffs the 0x1f8b prefix instead of trusting the file name;
writing compresses when the path ends in .gz, with a fixed gzip mtime so
identical inputs produce byte-identical outputs, on a worker thread so
that deflate overlaps the caller's work, and replaces the target only
once it is complete.
"""

from __future__ import annotations

import gzip
import io
import os
import stat
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

from .errors import InputFormatError

# Text bytes gathered before a chunk goes to the compressing thread.
_GZIP_CHUNK = 256 * 1024


def file_stem(path) -> str:
    """File name without its directory, a .gz suffix and one more suffix;
    output file names are built from it."""
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[:-3]
    return Path(name).stem or name


class _OwningGzipFile(gzip.GzipFile):
    """GzipFile that closes the file object it reads from."""

    def close(self):
        raw = self.fileobj
        try:
            super().close()
        finally:
            if raw is not None:
                raw.close()


def open_binary_read(path):
    """Binary stream of the file's bytes, gunzipped if it is gzip data.
    The file is opened once and sniffed with peek(), so pipes work too.
    Closing the stream closes the file."""
    raw = open(path, "rb")
    try:
        if raw.peek(2)[:2] == b"\x1f\x8b":
            return _OwningGzipFile(fileobj=raw, mode="rb")
        return raw
    except BaseException:
        raw.close()
        raise


@contextmanager
def open_text_read(path):
    """Text stream of the file, gunzipped if need be; a context manager.
    Bytes that are not UTF-8 raise InputFormatError naming the file."""
    with io.TextIOWrapper(open_binary_read(path), encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                f"({exc.reason})") from None


def _umask() -> int:
    # read by setting and restoring it: the process's only umask API
    umask = os.umask(0o022)
    os.umask(umask)
    return umask


class _GzipOnThread(io.RawIOBase):
    """Raw writer that compresses each chunk into a GzipFile on a worker
    thread, one chunk in flight at a time.  zlib releases the interpreter
    lock while it deflates, so compression overlaps the caller's work.
    A worker's error is raised in the caller by the next write, flush or
    close; no thread outlives close()."""

    def __init__(self, gz: gzip.GzipFile):
        self._gz = gz
        self._worker = None
        self._error = None

    def writable(self):
        return True

    def _compress(self, chunk: bytes):
        try:
            self._gz.write(chunk)
        except BaseException as exc:
            self._error = exc

    def _wait(self):
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        error, self._error = self._error, None
        if error is not None:
            raise error

    def write(self, b):
        self._wait()
        # the caller may reuse `b` once this returns
        self._worker = threading.Thread(target=self._compress, args=(bytes(b),),
                                        name="flowlabel-gzip")
        self._worker.start()
        return len(b)

    def flush(self):
        # the sync flush is part of the output bytes that TextIOWrapper
        # over a GzipFile has always produced
        self._wait()
        self._gz.flush()

    def close(self):
        try:
            super().close()    # flush(), which joins the worker
        finally:
            self._gz.close()


@contextmanager
def open_text_write(path):
    """Text stream writing `path`, gzipped when the name ends in .gz.  A new
    or regular file is written under a temp name beside it and renamed
    over it only on success, so a failed run leaves no partial output; a
    FIFO, device or symlink (/dev/stdout) is written in place."""
    path = os.fspath(path)
    tmp = None
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        raw = open(path, "wb")
    else:
        directory, name = os.path.split(path)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
        raw = open(fd, "wb")
    try:
        with raw:
            stream = raw
            if path.endswith(".gz"):
                gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
                stream = io.BufferedWriter(_GzipOnThread(gz), _GZIP_CHUNK)
            with io.TextIOWrapper(stream, encoding="utf-8", newline="") as text:
                yield text
        if tmp is not None:
            os.chmod(tmp, 0o666 & ~_umask())   # the mode open() would give
            os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise
