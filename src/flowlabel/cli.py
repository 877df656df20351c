"""Command-line interface: extract, label, split, pipeline.

extract, label and pipeline compose one generator chain pulled by the
writer: capture -> build_flows -> label_flows -> write_flows, with the
log indexed first (extract writes flows unlabeled; label reads them).

Exit codes: 0 success, 1 usage error, 2 input format error (damaged gzip
input included), 3 I/O error.  A failed run leaves no output file.
Flag spellings follow the original tools (-i input, -c classifier, -o
output, -n window seconds, --sec for seconds rendering).
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import sys
import zlib

from . import __version__
from ._fileio import file_stem
from .errors import InputFormatError
from .flow_builder import (AggregationConfig, MODE_AGGREGATE, MODE_PER_PACKET,
                           build_flows)
from .flow_io import (MILLISECONDS, SECONDS, _split_from, split_by_window,
                      write_flows, write_traffic, read_traffic)
from .labeler import CLASS_UNSURE, LabelStats, build_index, label_flows
from .mawilab_log import DEFAULT_ACCEPTED_LABELS, LABEL_NOTICE, parse_log
from .pcap_reader import open_capture

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_IO = 3

PROGRESS_EVERY = 1_000_000


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _timeout_ms(seconds: float) -> int | None:
    # a timeout too long to count in ms never fires, like inf
    if seconds <= 0 or not math.isfinite(seconds * 1000):
        return None
    return round(seconds * 1000)


def _seconds(text: str) -> float:
    """A timeout: any number but NaN (0, negative and inf disable it)."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}") from None
    if math.isnan(seconds):
        raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}")
    return seconds


def _window_seconds(text: str) -> float:
    """A split window: finite in ms, and at least 1 ms once rounded to ms."""
    seconds = _seconds(text)
    if not math.isfinite(seconds * 1000) or round(seconds * 1000) < 1:
        raise argparse.ArgumentTypeError(
            f"window must be finite in ms and at least 0.001 seconds, got {text!r}")
    return seconds


def _require_inputs(*paths):
    for p in paths:
        if not os.path.exists(p):
            raise UsageError(f"input path does not exist: {p}")


def _resolve_out(output, input_path, suffix: str) -> str:
    """-o may name a file (used as-is) or an existing directory (the file
    name is derived from the input, like the original tools did)."""
    if os.path.isdir(output):
        return os.path.join(output, file_stem(input_path) + suffix)
    return str(output)


def _progress(packets, quiet: bool):
    if quiet:
        yield from packets
        return
    n = 0
    for p in packets:
        n += 1
        if n % PROGRESS_EVERY == 0:
            print(f"flowlabel: {n:,} packets read", file=sys.stderr)
        yield p


def _say(quiet: bool, message: str):
    if not quiet:
        print(message, file=sys.stderr)


def _write_stats_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the chain: packets -> flows -> labeled flows -> rows, pulled by the writer

def _unit(args) -> str:
    return SECONDS if args.sec else MILLISECONDS


def _flows(reader, args, counters):
    cfg = AggregationConfig(
        mode=args.mode,
        idle_timeout_ms=_timeout_ms(args.idle_timeout),
        active_timeout_ms=_timeout_ms(args.active_timeout),
    )
    return build_flows(_progress(reader, args.quiet), cfg, counters)


def _extract_summary(reader, counters, flows: int, args, dest="") -> dict:
    _say(args.quiet, f"flowlabel: {reader.decoded} packets decoded "
                     f"({reader.skipped} skipped), {flows} flows{dest}")
    return {
        "kind": "extract",
        "packets_decoded": reader.decoded,
        "packets_skipped": reader.skipped,
        "flows_written": flows,
        "out_of_order_packets": counters.get("out_of_order", 0),
        "skip_reasons": dict(reader.skip_reasons),
    }


def _load_index(log_csv, args):
    """The match index of the log, and the log's part of the label record."""
    accepted = set(DEFAULT_ACCEPTED_LABELS)
    if args.accept_notice:
        accepted.add(LABEL_NOTICE)
    log_counters = {}
    entries = parse_log(log_csv, accepted, log_counters)
    return build_index(entries), {
        "log_entries": len(entries),
        "log_rows_skipped_by_label": log_counters.get("skipped_label", 0),
    }


class _Earliest:
    """The least sTime of the labeled flows passed through watch()."""

    stime_ms = None

    def watch(self, labeled):
        least = math.inf
        for lf in labeled:
            if lf.flow.stime_ms < least:
                least = lf.flow.stime_ms
            yield lf
        if least != math.inf:
            self.stime_ms = least


def _write_labeled(flows, index, log_summary, out_path, args,
                   earliest: _Earliest | None = None) -> tuple[LabelStats, list]:
    """Label the flow stream and write it; returns the stats and their lines.
    `earliest`, when given, watches the rows written."""
    stats = LabelStats()
    labeled = label_flows(flows, index, stats)
    if args.drop_unsure:
        labeled = (lf for lf in labeled if lf.class_label != CLASS_UNSURE)
    if earliest is not None:
        labeled = earliest.watch(labeled)
    rows = write_flows(labeled, out_path, _unit(args))

    counts = dict(sorted(stats.class_counts.items()))
    _say(args.quiet,
         f"flowlabel: {stats.rows} flows labeled {counts}, "
         f"{rows} rows -> {out_path}")
    return stats, [
        {"kind": "classes", "counts": dict(stats.class_counts), "rows": stats.rows},
        {"kind": "taxonomies", "counts": dict(stats.taxonomy_counts)},
        {"kind": "l_histogram",
         "counts": {str(k): v for k, v in stats.l_histogram.items()}},
        {"kind": "label", "rows_written": rows, "dropped_unsure": stats.rows - rows,
         **log_summary},
    ]


# ---------------------------------------------------------------------------
# subcommands

def cmd_extract(args) -> int:
    _require_inputs(args.input)
    out = _resolve_out(args.output, args.input, "_result.data")
    counters = {}
    with open_capture(args.input) as reader:
        rows = write_traffic(_flows(reader, args, counters), out, _unit(args))
        summary = _extract_summary(reader, counters, rows, args, f" -> {out}")
    if args.stats:
        _write_stats_lines(args.stats, [summary])
    return EXIT_OK


def cmd_label(args) -> int:
    _require_inputs(args.input, args.classifier)
    out = _resolve_out(args.output, args.input, "_mawilab_flow.csv")
    index, log_summary = _load_index(args.classifier, args)
    _, lines = _write_labeled(read_traffic(args.input), index, log_summary, out, args)
    if args.stats:
        _write_stats_lines(args.stats, lines)
    return EXIT_OK


def cmd_split(args) -> int:
    _require_inputs(args.input)
    created = split_by_window(args.input, args.window, args.output)
    if not created:
        _say(args.quiet, f"flowlabel: {args.input} has no data rows; nothing to split")
    else:
        _say(args.quiet, f"flowlabel: wrote {len(created)} window files to {args.output}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    _require_inputs(args.input, args.classifier)
    out = _resolve_out(args.output, args.input, "_mawilab_flow.csv")
    index, log_summary = _load_index(args.classifier, args)
    counters = {}
    # a split needs the least sTime written; noting it spares a read of the output
    earliest = _Earliest() if args.window is not None else None
    with open_capture(args.input) as reader:
        stats, lines = _write_labeled(_flows(reader, args, counters), index, log_summary,
                                      out, args, earliest)
        extract_summary = _extract_summary(reader, counters, stats.rows, args)

    if args.window is not None:
        split_dir = args.output if os.path.isdir(args.output) else os.path.dirname(out) or "."
        created = _split_from(out, args.window, split_dir, earliest.stime_ms)
        _say(args.quiet, f"flowlabel: wrote {len(created)} window files to {split_dir}")
    if args.stats:
        _write_stats_lines(args.stats, [extract_summary, *lines])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_extract_options(p):
    p.add_argument("--mode", choices=[MODE_AGGREGATE, MODE_PER_PACKET],
                   default=MODE_AGGREGATE,
                   help="aggregate packets into flows (default) or emit one flow per packet")
    p.add_argument("--idle-timeout", type=_seconds, default=30.0, metavar="SECONDS",
                   help="cut a flow after this long without a packet (default 30; 0 disables)")
    p.add_argument("--active-timeout", type=_seconds, default=1800.0, metavar="SECONDS",
                   help="cut a flow after this total lifetime (default 1800; 0 disables)")


def _add_label_options(p):
    p.add_argument("--drop-unsure", action="store_true",
                   help="exclude flows whose best match has only one attribute")
    p.add_argument("--accept-notice", action="store_true",
                   help="also accept log rows labeled notice")
    # accepted so older command lines still run; labeling is serial
    p.add_argument("--threads", type=int, metavar="N", help=argparse.SUPPRESS)


def _add_common(p):
    p.add_argument("--sec", action="store_true",
                   help="flow times in seconds, rather than milliseconds")
    p.add_argument("--quiet", action="store_true", help="suppress progress and summaries")
    p.add_argument("--stats", metavar="PATH", help="write run statistics as JSON lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="flowlabel",
        description="Build labeled NetFlow-style flow datasets from pcap traces "
                    "and MAWILab-style anomaly logs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("extract", help="decode a pcap into unlabeled flow records (CSV)")
    p.add_argument("-i", "--input", required=True, metavar="PCAP",
                   help="input pcap path (.gz accepted)")
    p.add_argument("-o", "--output", required=True, metavar="OUT",
                   help="output flow CSV path, or an existing directory")
    _add_extract_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("label", help="combine a flow CSV with an anomaly log")
    p.add_argument("-i", "--input", required=True, metavar="FLOWCSV",
                   help="input flow file path, e.g. *_result.data")
    p.add_argument("-c", "--classifier", required=True, metavar="LOGCSV",
                   help="input classifier file path, e.g. *_anomalous_suspicious.csv")
    p.add_argument("-o", "--output", required=True, metavar="OUT",
                   help="output labeled CSV path, or an existing directory")
    _add_label_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("split", help="split a labeled CSV into fixed time windows")
    p.add_argument("-i", "--input", required=True, metavar="FLOWCSV",
                   help="input labeled flow file path, e.g. *_mawilab_flow.csv")
    p.add_argument("-o", "--output", required=True, metavar="OUTDIR",
                   help="output directory path")
    p.add_argument("-n", "--window", type=_window_seconds, default=5.0, metavar="SPLITSEC",
                   help="time separation in seconds (default 5)")
    p.add_argument("--quiet", action="store_true", help="suppress summaries")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("pipeline", help="extract, label, and optionally split in one run")
    p.add_argument("-i", "--input", required=True, metavar="PCAP")
    p.add_argument("-c", "--classifier", required=True, metavar="LOGCSV")
    p.add_argument("-o", "--output", required=True, metavar="OUT",
                   help="labeled CSV path, or an existing directory")
    p.add_argument("-n", "--window", type=_window_seconds, default=None, metavar="SPLITSEC",
                   help="also split the labeled output with this window (seconds)")
    _add_extract_options(p)
    _add_label_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"flowlabel: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"flowlabel: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        print(f"flowlabel: damaged gzip input: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"flowlabel: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
