"""The public surface, pinned: what `flowlabel` exports, the signature of
each exported callable, the fields of each NamedTuple, the exception
hierarchy and every command-line option.  A change here is a public
change, to be stated in CHANGES.md.

The parsers are read as structure from `cli.build_parser()`, not as
rendered `--help` text, which argparse lays out differently by version."""

from __future__ import annotations

import argparse
import inspect
import json
import re
import tomllib
from pathlib import Path

import flowlabel
from flowlabel import cli, errors

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "AllNullTupleError", "FlowLabelError", "InputFormatError", "MalformedRowError",
    "MissingColumnError", "NotPcapError", "SchemaMismatchError", "TruncatedFileError",
    "UnsupportedLinkTypeError",
    "CaptureReader", "PacketRecord", "open_capture",
    "AggregationConfig", "FlowKey", "FlowRecord", "MODE_AGGREGATE", "MODE_PER_PACKET",
    "build_flows",
    "DEFAULT_ACCEPTED_LABELS", "IdsLogEntry", "parse_log",
    "CLASS_ANOMALY", "CLASS_NORMAL", "CLASS_UNSURE", "LabelStats", "LabeledFlow",
    "MatchIndex", "assign_class", "build_index", "label_flows", "match_flow",
    "MILLISECONDS", "OUTPUT_COLUMNS", "SECONDS", "TRAFFIC_COLUMNS", "flags_from_string",
    "flags_to_string", "read_flows", "read_traffic", "split_by_window", "write_flows",
    "write_traffic",
]

# every exported callable but the exceptions, whose signatures are object's
SIGNATURES = {
    "CaptureReader": "(path)",
    "PacketRecord": "(ts_ms: int, src_ip: str, dst_ip: str, src_port: int, dst_port: int, "
                    "proto: int, ip_len: int, tcp_flags: int, icmp_type: int | None = None, "
                    "icmp_code: int | None = None)",
    "open_capture": "(path) -> 'CaptureReader'",
    "AggregationConfig": "(mode: str = 'aggregate', idle_timeout_ms: int | None = 30000, "
                         "active_timeout_ms: int | None = 1800000, "
                         "reorder_window_ms: int = 1000)",
    "FlowKey": "(src_ip: str, dst_ip: str, src_port: int, dst_port: int, proto: int)",
    "FlowRecord": "(key: FlowKey, packets: int, bytes: int, flags: int, initial_flags: int, "
                  "session_flags: int, stime_ms: int, etime_ms: int, "
                  "icmp_type: int | None = None, icmp_code: int | None = None, "
                  "sensor: str = '0', input_if: str = '0', output_if: str = '0', "
                  "next_hop: str = '0', sensor_class: str = '', flow_type: str = '', "
                  "attributes: str = '', application: str = '')",
    "build_flows": "(packets, config: 'AggregationConfig | None' = None, counters=None)",
    "IdsLogEntry": "(sip: str | None, dip: str | None, sport: int | None, dport: int | None, "
                   "taxonomy: str, heuristic: int, distance: float, nb_detectors: int, "
                   "mawilab_label: str, file_order: int)",
    "parse_log": "(path, accepted_labels=frozenset({'anomalous', 'suspicious'}), "
                 "counters=None)",
    "LabelStats": "(winners: 'Counter | None' = None)",
    "LabeledFlow": "(flow: FlowRecord, class_label: str, taxonomy: str = '', "
                   "heuristic: int = 0, distance: float = 0.0, nb_detectors: int = 0, "
                   "mawilab_label: str = 'normal')",
    "MatchIndex": "()",
    "assign_class": "(winner) -> 'str'",
    "build_index": "(entries) -> 'MatchIndex'",
    "label_flows": "(flows, index: 'MatchIndex', stats: 'LabelStats | None' = None)",
    "match_flow": "(index: 'MatchIndex', key: 'FlowKey')",
    "flags_from_string": "(text: 'str') -> 'int'",
    "flags_to_string": "(bits: 'int') -> 'str'",
    "read_flows": "(path)",
    "read_traffic": "(path, *, verbatim: 'bool' = False)",
    "split_by_window": "(input_path, window_s: 'float', outdir, *, "
                       "min_stime: 'int | None' = None) -> 'list[Path]'",
    "write_flows": "(flows, path, time_unit: 'str' = 'milliseconds') -> 'int'",
    "write_traffic": "(flows, path, time_unit: 'str' = 'milliseconds') -> 'int'",
}

NAMED_TUPLES = {
    "PacketRecord": ("ts_ms", "src_ip", "dst_ip", "src_port", "dst_port", "proto", "ip_len",
                     "tcp_flags", "icmp_type", "icmp_code"),
    "AggregationConfig": ("mode", "idle_timeout_ms", "active_timeout_ms", "reorder_window_ms"),
    "FlowKey": ("src_ip", "dst_ip", "src_port", "dst_port", "proto"),
    "FlowRecord": ("key", "packets", "bytes", "flags", "initial_flags", "session_flags",
                   "stime_ms", "etime_ms", "icmp_type", "icmp_code", "sensor", "input_if",
                   "output_if", "next_hop", "sensor_class", "flow_type", "attributes",
                   "application"),
    "IdsLogEntry": ("sip", "dip", "sport", "dport", "taxonomy", "heuristic", "distance",
                    "nb_detectors", "mawilab_label", "file_order"),
    "LabeledFlow": ("flow", "class_label", "taxonomy", "heuristic", "distance",
                    "nb_detectors", "mawilab_label"),
}

FIELD_DEFAULTS = {
    "PacketRecord": {"icmp_type": None, "icmp_code": None},
    "AggregationConfig": {"mode": "aggregate", "idle_timeout_ms": 30_000,
                          "active_timeout_ms": 1_800_000, "reorder_window_ms": 1000},
    "FlowKey": {},
    "FlowRecord": {"icmp_type": None, "icmp_code": None, "sensor": "0", "input_if": "0",
                   "output_if": "0", "next_hop": "0", "sensor_class": "", "flow_type": "",
                   "attributes": "", "application": ""},
    "IdsLogEntry": {},
    "LabeledFlow": {"taxonomy": "", "heuristic": 0, "distance": 0.0, "nb_detectors": 0,
                    "mawilab_label": "normal"},
}

# each exception class of `errors` -> its base
ERRORS = {
    "FlowLabelError": "Exception",
    "InputFormatError": "FlowLabelError",
    "NotPcapError": "InputFormatError",
    "UnsupportedLinkTypeError": "InputFormatError",
    "TruncatedFileError": "InputFormatError",
    "MissingColumnError": "InputFormatError",
    "MalformedRowError": "InputFormatError",
    "AllNullTupleError": "InputFormatError",
    "SchemaMismatchError": "InputFormatError",
}

# each parser's actions in order, rendered by _action
_HELP = "-h --help: dest=help default='==SUPPRESS=='"
_EXTRACT = [
    "--mode: dest=mode default='aggregate' choices=['aggregate', 'per-packet']",
    "--idle-timeout: dest=idle_timeout default='30' type=_timeout",
    "--active-timeout: dest=active_timeout default='1800' type=_timeout",
]
_LABEL = [
    "--drop-unsure: dest=drop_unsure default=False const=True",
    "--accept-notice: dest=accept_notice default=False const=True",
]
_COMMON = [
    "--sec: dest=unit default='milliseconds' const='seconds'",
    "--quiet: dest=quiet default=False const=True",
    "--stats: dest=stats",
]
PARSERS = {
    "flowlabel": [
        _HELP,
        "--version: dest=version default='==SUPPRESS=='",
        "command: dest=command required choices=['extract', 'label', 'split', 'pipeline']",
    ],
    "extract": [
        _HELP,
        "-i --input: dest=input required",
        "-o --output: dest=output required",
        *_EXTRACT,
        *_COMMON,
    ],
    "label": [
        _HELP,
        "-i --input: dest=input required",
        "-c --classifier: dest=classifier required",
        "-o --output: dest=output required",
        *_LABEL,
        *_COMMON,
    ],
    "split": [
        _HELP,
        "-i --input: dest=input required",
        "-o --output: dest=output required",
        "-n --window: dest=window default=5.0 type=_window_seconds",
        "--quiet: dest=quiet default=False const=True",
    ],
    "pipeline": [
        _HELP,
        "-i --input: dest=input required",
        "-c --classifier: dest=classifier required",
        "-o --output: dest=output required",
        "-n --window: dest=window type=_window_seconds",
        *_EXTRACT,
        *_LABEL,
        *_COMMON,
    ],
}


class _Text(str):
    def __repr__(self):
        return self


def _signature(obj) -> str:
    """str(inspect.signature(obj)), with a frozenset default in sorted order
    and a NamedTuple's ForwardRef('T') annotations shown as T."""
    sig = inspect.signature(obj)
    params = []
    for param in sig.parameters.values():
        if isinstance(param.default, frozenset):   # a set's repr follows the hash seed
            items = ", ".join(map(repr, sorted(param.default)))
            param = param.replace(default=_Text(f"frozenset({{{items}}})"))
        params.append(param)
    return re.sub(r"ForwardRef\('([^']*)'\)", r"\1", str(sig.replace(parameters=params)))


def _action(action: argparse.Action) -> str:
    """One option's structure; each attribute at argparse's default is left out."""
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = list(choices)
    parts = [f"{' '.join(action.option_strings) or action.dest}: dest={action.dest}"]
    if action.required:
        parts.append("required")
    for name, value in (("default", action.default), ("const", action.const),
                        ("choices", choices)):
        if value is not None:
            parts.append(f"{name}={value!r}")
    if action.type is not None:
        parts.append(f"type={action.type.__name__}")
    if action.help == argparse.SUPPRESS:
        parts.append("help=SUPPRESS")
    return " ".join(parts)


def _parsers() -> dict:
    top = cli.build_parser()
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return {"flowlabel": top, **sub.choices}


def test_exports():
    assert flowlabel.__all__ == EXPORTS


def test_signatures():
    callables = {name for name in EXPORTS if callable(getattr(flowlabel, name))}
    assert set(SIGNATURES) == callables - set(ERRORS)
    assert {name: _signature(getattr(flowlabel, name)) for name in SIGNATURES} == SIGNATURES


def test_named_tuples():
    assert {name: getattr(flowlabel, name)._fields for name in NAMED_TUPLES} == NAMED_TUPLES
    assert ({name: getattr(flowlabel, name)._field_defaults for name in FIELD_DEFAULTS}
            == FIELD_DEFAULTS)
    assert {name for name in EXPORTS
            if hasattr(getattr(flowlabel, name), "_fields")} == set(NAMED_TUPLES)


def test_error_hierarchy():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, BaseException)}
    assert {name: ", ".join(base.__name__ for base in cls.__bases__)
            for name, cls in classes.items()} == ERRORS
    assert errors.FlowLabelError.__bases__ == (Exception,)


def test_parsers():
    assert {name: [_action(a) for a in parser._actions]
            for name, parser in _parsers().items()} == PARSERS


def test_supported_pythons_agree():
    # pyproject's floor, the CI matrix and README's version line name the
    # same Pythons, and CI runs every test on each
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requires = tomllib.load(fh)["project"]["requires-python"]
    floor = re.fullmatch(r">=(3\.\d+)", requires)[1]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = json.loads(re.search(r"python-version: (\[.*\])", workflow)[1])
    first = int(floor.split(".")[1])
    assert matrix == [f"3.{minor}" for minor in range(first, first + len(matrix))]
    assert "--ignore" not in workflow
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"Python \((3\.\d+)\+\)", readme) == [floor]
