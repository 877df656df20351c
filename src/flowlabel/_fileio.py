"""File open helpers with transparent gzip.

Reading sniffs the 0x1f8b prefix instead of trusting the file name;
writing compresses when the path ends in .gz, with a fixed gzip mtime so
identical inputs produce byte-identical outputs, and replaces the target
only once it is complete.
"""

from __future__ import annotations

import gzip
import io
import os
import stat
import tempfile
from contextlib import contextmanager
from pathlib import Path


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


def open_text_read(path):
    """Text stream of the file, gunzipped if need be; a context manager."""
    return io.TextIOWrapper(open_binary_read(path), encoding="utf-8", newline="")


def _umask() -> int:
    # read by setting and restoring it: the process's only umask API
    umask = os.umask(0o022)
    os.umask(umask)
    return umask


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
            stream = (gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
                      if path.endswith(".gz") else raw)
            with io.TextIOWrapper(stream, encoding="utf-8", newline="") as text:
                yield text
        if tmp is not None:
            os.chmod(tmp, 0o666 & ~_umask())   # the mode open() would give
            os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise
