"""Suite-wide checks."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_staging_left(request):
    """Fail a test that uses tmp_path if a `.<name>.XXXXXXXX.tmp` staging
    entry is left anywhere under it, after success and failure alike."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".*.tmp"))
    assert not left, f"staging entries left behind: {left}"


@pytest.fixture
def new_file_mode():
    """The mode open() gives a new file: 0o666 less the process umask."""
    umask = os.umask(0o022)   # the umask is read by setting it
    os.umask(umask)
    return 0o666 & ~umask
