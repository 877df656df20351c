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


def run(code: str, *args: str):
    """Run `code` in a fresh interpreter that imports flowlabel from src;
    it signals a failed check by raising."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
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


def test_label_only_run_skips_the_packet_side(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label\n"
                   "10.0.0.1,,10.0.0.2,80,ptmp,20,0.5,3,anomalous\n"
                   "::ffff:10.0.0.3,null,,,unk,1,-1.0,2,suspicious\n")
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


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize),
    # which every CLI run would load before its first packet
    run("""
        import sys
        import flowlabel.cli
        assert not {"dataclasses", "inspect"} & set(sys.modules)
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
