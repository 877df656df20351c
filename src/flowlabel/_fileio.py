"""File open helpers with transparent gzip.

Reading sniffs the 0x1f8b prefix instead of trusting the file name;
writing compresses when the path ends in .gz, with a fixed gzip mtime so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import gzip
import io
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


@contextmanager
def open_text_read(path):
    text = io.TextIOWrapper(open_binary_read(path), encoding="utf-8", newline="")
    try:
        yield text
    finally:
        text.close()


@contextmanager
def open_text_write(path):
    raw = open(path, "wb")
    try:
        if str(path).endswith(".gz"):
            stream = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
        else:
            stream = raw
        text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
        try:
            yield text
        finally:
            text.close()
    finally:
        raw.close()
