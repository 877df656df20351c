"""Command-line interface: extract, label, split, pipeline.

extract, label and pipeline compose one generator chain pulled by the
writer: capture -> build_flows -> label_flows -> write_flows, with the
log indexed first (extract writes flows unlabeled; label reads them).

Exit codes: 0 success, 1 usage error, 2 input format error, 3 I/O error.
Each format error names its file, a damaged gzip stream included ("PATH:
damaged gzip input: ...").  A failed run leaves no output file.
Flag spellings follow the original tools (-i input, -c classifier, -o
output, -n window seconds, --sec for seconds rendering).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from ._fileio import file_stem, open_text_write, staged_path, written_in_place
from .errors import InputFormatError
from .flow_builder import (DEFAULT_ACTIVE_TIMEOUT_MS, DEFAULT_IDLE_TIMEOUT_MS, MODE_AGGREGATE,
                           MODE_PER_PACKET, AggregationConfig, build_flows)
from .flow_io import (MILLISECONDS, SECONDS, _window_file, split_by_window, window_to_ms,
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


def _seconds(text: str) -> float:
    """Any number of seconds but NaN."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}") from None
    if math.isnan(seconds):
        raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}")
    return seconds


def _timeout(text: str) -> int | None:
    """A timeout in whole ms, or None to disable it: 0, negative and inf
    do, as does one too long to count in ms, which never fires.  Any other
    number must round to at least 1 ms, as 0 ms would cut at every gap."""
    ms = _seconds(text) * 1000
    if ms <= 0 or not math.isfinite(ms):
        return None
    if round(ms) == 0:
        raise argparse.ArgumentTypeError(
            f"timeout must be 0 to disable it or at least 1 ms once rounded, got {text!r}")
    return round(ms)


def _window_seconds(text: str) -> float:
    """A split window, checked as split_by_window checks it."""
    seconds = _seconds(text)
    try:
        window_to_ms(seconds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    return seconds


def _nearest(path):
    """The nearest path at or above `path` that exists."""
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    return path or os.curdir


def _paths(args, suffix, *inputs):
    """The output file of a run and, if it splits, the directory of its
    window files.  Each of `inputs`, (flag, path) pairs, must exist.  -o
    names a file, or an existing directory in which the file name is -i's
    stem plus `suffix`; for split (no `suffix`) -o is the window files'
    directory, made if need be.  The nearest path that exists at or above
    each directory written in must be a directory.
    No file the run writes (-o, --stats, a window file) may be another of
    its files, unless it is written in place, like /dev/stdout."""
    for _flag, path in inputs:
        if not os.path.exists(path):
            raise UsageError(f"input path does not exist: {path}")
    out, split_dir = args.output, None
    if suffix is None:
        if not os.path.isdir(_nearest(out)):
            raise UsageError(f"-o must name a directory: {out}")
        out, split_dir = None, args.output
    elif os.path.isdir(out):
        out = os.path.join(out, file_stem(args.input) + suffix)
    elif out[-1:] in (os.sep, os.altsep):
        raise UsageError(f"output directory does not exist: {out}")
    for path in (out, getattr(args, "stats", None)):
        parent = os.path.dirname(path or "")
        if parent and not os.path.isdir(parent):
            existing = _nearest(parent)
            raise UsageError(f"output directory does not exist: {parent}" if os.path.isdir(existing)
                             else f"not a directory: {existing}")
    if out and getattr(args, "window", None) is not None:
        if written_in_place(out):
            # the split reads the labeled CSV back, which a FIFO or device can't give
            raise UsageError(f"-n needs a regular output file, not {out}")
        split_dir = args.output if os.path.isdir(args.output) else os.path.dirname(out) or "."
    named = {}   # the real path of each file checked -> what it is
    for flag, path in (*inputs, ("-o", out), ("--stats", getattr(args, "stats", None))):
        if not path:
            continue
        real = os.path.realpath(path)
        if real in named and flag in ("-o", "--stats") and not written_in_place(path):
            raise UsageError(f"{flag} names {named[real]}")
        if (split_dir and os.path.dirname(real) == os.path.realpath(split_dir)
                and _window_file(file_stem(out or args.input), os.path.basename(real))):
            raise UsageError(f"{flag} names a window file {path}")
        named.setdefault(real, f"the {'output' if flag == '-o' else 'input'} file {path}")
    return out, split_dir


def _progress(flows, reader):
    """`flows`, printing a line at each multiple of PROGRESS_EVERY packets
    the reader has decoded, with the mean rate since the first flow was
    asked for.  The count is read as each flow comes out, so a line lags
    while no flow is emitted; the last line is not lost, since the flow
    holding the latest timestamp comes out only after the last packet is
    read."""
    mark = PROGRESS_EVERY
    start = time.perf_counter()
    for flow in flows:
        while reader.decoded >= mark:
            rate = mark / max(time.perf_counter() - start, 1e-9)
            print(f"flowlabel: {mark:,} packets read ({rate:,.0f} packets/s)", file=sys.stderr)
            mark += PROGRESS_EVERY
        yield flow


def _say(quiet: bool, message: str):
    if not quiet:
        print(message, file=sys.stderr)


def _write_stats_lines(path, lines):
    """Write the --stats lines to `path`, if there is one.  Callers write
    them to a staged path before any output is renamed into place, so a
    failed stats write leaves no data output."""
    if path:
        import json   # only --stats runs need it
        with open_text_write(path) as fh:
            for obj in lines:
                fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the chain: packets -> flows -> labeled flows -> rows, pulled by the writer

def _flows(reader, args, counters):
    cfg = AggregationConfig(mode=args.mode, idle_timeout_ms=args.idle_timeout,
                            active_timeout_ms=args.active_timeout)
    flows = build_flows(reader, cfg, counters)
    return flows if args.quiet else _progress(flows, reader)


def _extract_summary(reader, counters, flows: int, args, dest="") -> dict:
    _say(args.quiet, f"flowlabel: {reader.decoded} packets decoded "
                     f"({reader.skipped} skipped), {flows} flows{dest}")
    return {
        "kind": "extract",
        "packets_decoded": reader.decoded,
        "packets_skipped": reader.skipped,
        "flows_written": flows,
        "out_of_order_packets": counters.get("out_of_order", 0),
        "peak_live_flows": counters.get("peak_live_flows", 0),
        "skip_reasons": dict(reader.skip_reasons),
    }


def _load_index(log_csv, args):
    """The match index of the log, and the log's part of the label record."""
    accepted = set(DEFAULT_ACCEPTED_LABELS)
    if args.accept_notice:
        accepted.add(LABEL_NOTICE)
    log_counters = {}
    entries = parse_log(log_csv, accepted, log_counters)
    index = build_index(entries)
    return index, {
        "log_entries": len(entries),
        "log_rows_skipped_by_label": log_counters.get("skipped_label", 0),
        "log_rules_shadowed": index.shadowed,
    }


def _write_labeled(flows, index, log_summary, write_path, out_path,
                   args) -> tuple[LabelStats, list, int | None]:
    """Label the flow stream and write it to `write_path` (`out_path` is
    the name reported).  Returns the stats, their lines and the least
    sTime written (None if no row is)."""
    stats = LabelStats()
    labeled = label_flows(flows, index, stats)
    drop_unsure, least = args.drop_unsure, math.inf

    def kept():
        nonlocal least
        for lf in labeled:
            if not (drop_unsure and lf.class_label == CLASS_UNSURE):
                if lf.flow.stime_ms < least:
                    least = lf.flow.stime_ms
                yield lf

    rows = write_flows(kept(), write_path, args.unit)

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
    ], None if least == math.inf else least


# ---------------------------------------------------------------------------
# subcommands

def cmd_extract(args) -> int:
    out, _ = _paths(args, "_result.data", ("-i", args.input))
    counters = {}
    with (open_capture(args.input) as reader, staged_path(out) as staged,
          staged_path(args.stats) as stats_path):
        rows = write_traffic(_flows(reader, args, counters), staged, args.unit)
        _write_stats_lines(stats_path,
                           [_extract_summary(reader, counters, rows, args, f" -> {out}")])
    return EXIT_OK


def cmd_label(args) -> int:
    out, _ = _paths(args, "_mawilab_flow.csv", ("-i", args.input), ("-c", args.classifier))
    index, log_summary = _load_index(args.classifier, args)
    with staged_path(out) as staged, staged_path(args.stats) as stats_path:
        _, lines, _ = _write_labeled(read_traffic(args.input, verbatim=True), index,
                                     log_summary, staged, out, args)
        _write_stats_lines(stats_path, lines)
    return EXIT_OK


def _split(args, path, split_dir, name, min_stime=None):
    """Split `path` into `split_dir` and say so; `name` is how the
    input is reported."""
    created = split_by_window(path, args.window, split_dir, min_stime=min_stime)
    _say(args.quiet, f"flowlabel: wrote {len(created)} window files to {split_dir}" if created
         else f"flowlabel: {name} has no data rows; nothing to split")


def cmd_split(args) -> int:
    _paths(args, None, ("-i", args.input))
    _split(args, args.input, args.output, args.input)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    out, split_dir = _paths(args, "_mawilab_flow.csv", ("-i", args.input), ("-c", args.classifier))
    index, log_summary = _load_index(args.classifier, args)
    counters = {}
    # the labeled CSV and the stats, staged under their own names, replace
    # theirs only once the split has published the window files
    with staged_path(out) as staged, staged_path(args.stats) as stats_path:
        with open_capture(args.input) as reader:
            stats, lines, least = _write_labeled(_flows(reader, args, counters), index,
                                                 log_summary, staged, out, args)
            _write_stats_lines(stats_path, [
                _extract_summary(reader, counters, stats.rows, args), *lines])
        if args.window is not None:
            # the least sTime written spares the split a read of the output
            _split(args, staged, split_dir, out, least)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_extract_options(p):
    p.add_argument("--mode", choices=[MODE_AGGREGATE, MODE_PER_PACKET],
                   default=MODE_AGGREGATE,
                   help="aggregate packets into flows (default) or emit one flow per packet")
    # a default string goes through `type` too, and --help shows it as it stands
    p.add_argument("--idle-timeout", type=_timeout, default=str(DEFAULT_IDLE_TIMEOUT_MS // 1000),
                   metavar="SECONDS", help="cut a flow after this long without a packet "
                                           "(default %(default)s; 0 disables)")
    p.add_argument("--active-timeout", type=_timeout, metavar="SECONDS",
                   default=str(DEFAULT_ACTIVE_TIMEOUT_MS // 1000),
                   help="cut a flow after this total lifetime (default %(default)s; 0 disables)")


def _add_label_options(p):
    p.add_argument("--drop-unsure", action="store_true",
                   help="exclude flows whose best match has only one attribute")
    p.add_argument("--accept-notice", action="store_true",
                   help="also accept log rows labeled notice")


def _add_common(p):
    p.add_argument("--sec", action="store_const", const=SECONDS, default=MILLISECONDS, dest="unit",
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
    except OSError as exc:
        print(f"flowlabel: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
