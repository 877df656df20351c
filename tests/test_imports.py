"""What importing flowlabel loads: each check runs in a fresh interpreter,
so no module another test imported hides a load."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowlabel"
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]) if m.name != "__main__")


def run(code: str, *args: str, flags: tuple[str, ...] = ()):
    """Run `code` in a fresh interpreter, started with `flags`, that imports
    flowlabel from src; it signals a failed check by raising."""
    proc = subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code), *args],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule():
    run("""
        import sys
        import flowlabel
        loaded = [m for m in sys.modules if m.startswith("flowlabel.")]
        assert not loaded, loaded
        assert flowlabel.__version__
    """)


@pytest.fixture
def log(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label\n"
                   "10.0.0.1,,10.0.0.2,80,ptmp,20,0.5,3,anomalous\n"
                   "::ffff:10.0.0.3,null,,,unk,1,-1.0,2,suspicious\n")
    return log


def test_label_only_run_skips_the_packet_side(log):
    run("""
        import sys
        before = set(sys.modules)
        from flowlabel import build_index, parse_log
        assert len(build_index(parse_log(sys.argv[1]))) == 2
        new = set(sys.modules) - before
        ours = sorted(m for m in new if m.startswith("flowlabel."))
        assert ours == ["flowlabel._fileio", "flowlabel.errors", "flowlabel.labeler",
                        "flowlabel.mawilab_log"], ours
        assert not {"dataclasses", "json"} & new, new
    """, str(log))


def test_label_only_run_skips_the_output_side(log):
    # without site (-S), which may preload them, a run that only reads
    # loads none of the modules that writing outputs or socket.py need
    run("""
        import sys
        before = set(sys.modules)
        from flowlabel import build_index, parse_log
        assert len(build_index(parse_log(sys.argv[1]))) == 2
        new = set(sys.modules) - before
        unwanted = {"tempfile", "shutil", "random", "pathlib", "fnmatch", "urllib.parse",
                    "ipaddress", "threading", "socket", "selectors"}
        assert not unwanted & new, sorted(unwanted & new)
    """, str(log), flags=("-S",))


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize),
    # which every CLI run would load before its first packet
    run("""
        import sys
        import flowlabel.cli
        assert not {"dataclasses", "inspect"} & set(sys.modules)
    """)


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_cli_import_skips_socket(flags):
    # inet_ntop, inet_pton and the address families come from _socket;
    # socket.py would add its enum tables, selectors, select and array
    run("""
        import sys
        before = set(sys.modules)
        import flowlabel.cli
        assert not {"socket", "selectors"} & (set(sys.modules) - before)
    """, flags=flags)


def test_cli_import_skips_pathlib():
    # without site (-S), which may preload them: only a split and output
    # names need pathlib, which brings fnmatch, urllib.parse and ipaddress
    run("""
        import sys
        before = set(sys.modules)
        import flowlabel.cli
        new = set(sys.modules) - before
        unwanted = {"pathlib", "fnmatch", "urllib.parse", "ipaddress"}
        assert not unwanted & new, sorted(unwanted & new)
    """, flags=("-S",))


def test_addresses_render_as_socket_inet_ntop():
    # IPv4, IPv6, IPv4-mapped and IPv4-compatible text as socket.py gives it
    run("""
        import socket
        from flowlabel.mawilab_log import _parse_ip
        from flowlabel.pcap_reader import render
        for text in ("192.0.2.7", "2001:db8::7", "::ffff:192.0.2.7", "::192.0.2.7"):
            family = socket.AF_INET6 if ":" in text else socket.AF_INET
            src = socket.inet_pton(family, text)
            dst = src[::-1]
            want = socket.inet_ntop(family, src), socket.inet_ntop(family, dst)
            assert render(src + dst + bytes(5))[:2] == want, (text, want)
            assert _parse_ip(text, "sip") == want[0], (text, want)
    """)


def test_every_export_is_its_home_object():
    run("""
        from importlib import import_module
        import flowlabel
        namespace = {}
        exec("from flowlabel import *", namespace)
        assert set(flowlabel.__all__) <= set(namespace)
        exported = []
        for module, names in flowlabel._EXPORTS.items():
            home = import_module(f"flowlabel.{module}")
            for name in names:
                assert namespace[name] is getattr(home, name), name
                assert getattr(flowlabel, name) is getattr(home, name), name
                exported.append(name)
        assert sorted(exported) == sorted(flowlabel.__all__)
        assert len(set(exported)) == len(exported)
    """)


def test_dir_and_unknown_name_load_nothing():
    run("""
        import sys
        import flowlabel
        assert set(flowlabel.__all__) <= set(dir(flowlabel))
        try:
            flowlabel.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("flowlabel.no_such_name resolved")
        assert not hasattr(flowlabel, "no_such_name")
        try:
            from flowlabel import no_such_name
        except ImportError:
            pass
        else:
            raise AssertionError("from flowlabel import no_such_name worked")
        loaded = [m for m in sys.modules if m.startswith("flowlabel.")]
        assert not loaded, loaded
    """)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_import_is_the_module(name):
    run(f"""
        import sys
        from flowlabel import {name} as module
        import flowlabel
        assert module is sys.modules["flowlabel.{name}"] is flowlabel.{name}
    """)
