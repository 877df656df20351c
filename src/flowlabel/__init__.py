"""flowlabel: build labeled NetFlow-style flow datasets from pcap traces
and MAWILab-style anomaly logs."""

__version__ = "0.1.0"

from .errors import (AllNullTupleError, FlowLabelError, InputFormatError,
                     MalformedRowError, MissingColumnError, NotPcapError,
                     SchemaMismatchError, TruncatedFileError,
                     UnsupportedLinkTypeError)
from .pcap_reader import CaptureReader, PacketRecord, open_capture
from .flow_builder import (AggregationConfig, FlowKey, FlowRecord,
                           MODE_AGGREGATE, MODE_PER_PACKET, build_flows)
from .mawilab_log import DEFAULT_ACCEPTED_LABELS, IdsLogEntry, parse_log
from .labeler import (CLASS_ANOMALY, CLASS_NORMAL, CLASS_UNSURE, LabelStats,
                      LabeledFlow, MatchIndex, assign_class, build_index,
                      label_flows, label_one, match_flow)
from .flow_io import (MILLISECONDS, OUTPUT_COLUMNS, SECONDS, TRAFFIC_COLUMNS,
                      flags_from_string, flags_to_string, read_flows,
                      read_traffic, split_by_window, write_flows,
                      write_traffic)

__all__ = [
    "AggregationConfig", "AllNullTupleError", "CaptureReader", "CLASS_ANOMALY",
    "CLASS_NORMAL", "CLASS_UNSURE", "DEFAULT_ACCEPTED_LABELS", "FlowKey",
    "FlowLabelError", "FlowRecord", "IdsLogEntry", "InputFormatError",
    "LabelStats", "LabeledFlow", "MalformedRowError", "MatchIndex",
    "MILLISECONDS", "MissingColumnError", "MODE_AGGREGATE", "MODE_PER_PACKET",
    "NotPcapError", "OUTPUT_COLUMNS", "PacketRecord", "SchemaMismatchError",
    "SECONDS", "TRAFFIC_COLUMNS", "TruncatedFileError",
    "UnsupportedLinkTypeError", "assign_class", "build_flows", "build_index",
    "flags_from_string", "flags_to_string", "label_flows", "label_one",
    "match_flow", "open_capture", "parse_log", "read_flows", "read_traffic",
    "split_by_window", "write_flows", "write_traffic",
]
