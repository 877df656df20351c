"""File open helpers with transparent gzip, and the staging of outputs.

Reading sniffs the 0x1f8b prefix instead of trusting the file name;
writing compresses when the path ends in .gz, with a fixed gzip mtime so
identical inputs produce byte-identical outputs.  One GzipFile subclass
does both: it closes the file it wraps, and when writing it deflates each
256 KiB chunk on a worker thread, so that deflate overlaps the caller's
work.

Every output is staged: written under its final name in a hidden
`.<name>.XXXXXXXX.tmp/` directory beside the file it names, through any
link, renamed out only once it is complete, and the directory is removed
with whatever it still holds when the write ends, so a failed run leaves
no partial output.  Files that open() creates there get the mode of any
new file (0o666 & ~umask).
"""

from __future__ import annotations

import csv
import gzip
import io
import os
import zlib
from contextlib import contextmanager

from .errors import InputFormatError

# Text bytes gathered before a chunk goes to the compressing thread.
_GZIP_CHUNK = 256 * 1024


def file_stem(path) -> str:
    """File name without its directory, a .gz suffix and one more suffix;
    output file names are built from it."""
    from pathlib import Path   # loaded only where output names are made
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[:-3]
    return Path(name).stem or name


class _GzipStream(gzip.GzipFile):
    """GzipFile that closes the file it wraps, leaves its finalizer nothing
    to write when writing its header fails, and compresses each write on
    a worker thread, one chunk in flight at a time.  zlib releases the
    interpreter lock while it deflates, so compression overlaps the
    caller's work.  A worker's error is raised in the caller by the next
    write, flush or close; no thread outlives close()."""

    _worker = _error = None

    def __init__(self, *args, **kwargs):
        try:
            super().__init__(*args, **kwargs)
        except BaseException:
            self.fileobj = None
            raise

    def _compress(self, chunk: bytes):
        try:
            super().write(chunk)
        except BaseException as exc:
            self._error = exc

    def _wait(self):
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        error, self._error = self._error, None
        if error is not None:
            raise error

    def write(self, data):
        import threading   # loaded only when writing gzip
        self._wait()
        # the caller may reuse `data` once this returns
        self._worker = threading.Thread(target=self._compress, args=(bytes(data),),
                                        name="flowlabel-gzip")
        self._worker.start()
        return len(data)

    def flush(self, zlib_mode=zlib.Z_SYNC_FLUSH):
        self._wait()
        super().flush(zlib_mode)

    def close(self):
        raw = self.fileobj
        if raw is None:
            return
        try:
            # the sync flush is part of the output bytes that TextIOWrapper
            # over a GzipFile has always produced; reading, it does nothing
            self.flush()
        finally:
            try:
                super().close()
            finally:
                raw.close()


def open_binary_read(path):
    """Binary stream of the file's bytes, gunzipped if it is gzip data.
    The file is opened once and sniffed with peek(), so pipes work too.
    Closing the stream closes the file."""
    raw = open(path, "rb")
    try:
        if raw.peek(2)[:2] == b"\x1f\x8b":
            return _GzipStream(fileobj=raw, mode="rb")
        return raw
    except BaseException:
        raw.close()
        raise


@contextmanager
def open_text_read(path):
    """Text stream of the file, gunzipped if need be; a context manager.
    A damaged gzip stream, bytes that are not UTF-8, and text that a csv
    reader of the stream refuses raise InputFormatError naming the file."""
    with io.TextIOWrapper(open_binary_read(path), encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                f"({exc.reason})") from None
        except csv.Error as exc:
            raise InputFormatError(f"{path}: bad CSV: {exc}") from None
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise InputFormatError(f"{path}: damaged gzip input: {exc}") from exc


def written_in_place(path) -> bool:
    """Whether `path` is written in place: it is, or links to, a FIFO or
    device (/dev/stdout on a tty or pipe), which a rename would replace
    rather than write."""
    return os.path.exists(path) and not os.path.isfile(path)


def staging_dir(path):
    """A new hidden directory `.<name>.XXXXXXXX.tmp` beside `path`, in which
    to write the files meant for the directory of `path`; a context
    manager, which removes it with whatever it still holds when the block
    ends."""
    import tempfile   # loaded only where outputs are written
    directory, name = os.path.split(os.fspath(path))
    return tempfile.TemporaryDirectory(suffix=".tmp", prefix=f".{name}.", dir=directory or ".",
                                       ignore_cleanup_errors=True)


class _Staged(str):
    """A path staged_path() gave: its file is in a new directory of its
    own, removed with it if the write fails, so it is written in place."""

    __slots__ = ()


@contextmanager
def staged_path(path):
    """The path at which to write the file meant for `path`: the same name
    in a staging directory beside the file `path` is or links to, renamed
    over that file when the block ends without error, so names derived
    from it hold, a link is kept, and a failed block leaves the file as it
    was.  A path written in place is given as is, and so are a path that
    staged_path() gave and no path (None or "")."""
    path = path and os.fspath(path)
    if not path or isinstance(path, _Staged) or written_in_place(path):
        yield path
        return
    target = os.path.realpath(path)
    with staging_dir(target) as tmpdir:
        staged = _Staged(os.path.join(tmpdir, os.path.basename(path)))
        yield staged
        os.replace(staged, target)


@contextmanager
def open_text_write(path):
    """Text stream writing `path` at the path staged_path() gives, gzipped
    when the name ends in .gz; a failed block leaves no partial output.  A
    path that staged_path() gave is written in place."""
    with staged_path(path) as staged, open(staged, "wb") as raw:
        stream = raw
        if staged.endswith(".gz"):
            stream = io.BufferedWriter(
                _GzipStream(filename="", mode="wb", fileobj=raw, mtime=0), _GZIP_CHUNK)
        with io.TextIOWrapper(stream, encoding="utf-8", newline="") as text:
            yield text
