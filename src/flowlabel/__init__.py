"""flowlabel: build labeled NetFlow-style flow datasets from pcap traces
and MAWILab-style anomaly logs.

Exports load on first use: `import flowlabel` imports no submodule, and a
name in `_EXPORTS` is taken from its home module when first asked for,
then kept here.  So `from flowlabel import parse_log, build_index` never
loads the packet decoder, the aggregator or the CSV codec.
"""

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": ("AllNullTupleError", "FlowLabelError", "InputFormatError",
               "MalformedRowError", "MissingColumnError", "NotPcapError",
               "SchemaMismatchError", "TruncatedFileError", "UnsupportedLinkTypeError"),
    "pcap_reader": ("CaptureReader", "PacketRecord", "open_capture"),
    "flow_builder": ("AggregationConfig", "FlowKey", "FlowRecord", "MODE_AGGREGATE",
                     "MODE_PER_PACKET", "build_flows"),
    "mawilab_log": ("DEFAULT_ACCEPTED_LABELS", "IdsLogEntry", "parse_log"),
    "labeler": ("CLASS_ANOMALY", "CLASS_NORMAL", "CLASS_UNSURE", "LabelStats",
                "LabeledFlow", "MatchIndex", "assign_class", "build_index",
                "label_flows", "match_flow"),
    "flow_io": ("MILLISECONDS", "OUTPUT_COLUMNS", "SECONDS", "TRAFFIC_COLUMNS",
                "flags_from_string", "flags_to_string", "read_flows",
                "read_traffic", "split_by_window", "write_flows", "write_traffic"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in `python -X importtime`
    home = __import__(f"{__name__}.{_HOME[name]}", fromlist=(name,))
    value = globals()[name] = getattr(home, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
