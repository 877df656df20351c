"""Run the flowlabel CLI in-process with per-layer timers around the calls
into each module, then write the layer report as JSON.

    python3 bench/traced_cli.py REPORT.json CLI-ARGS...

`flowlabel` must be importable (PYTHONPATH=src).  The timers wrap the
names `flowlabel.cli` imports, plus `flowlabel.labeler.match_flow`, which
the labeler looks up at call time; no source file is changed, so this is
the CLI's own code path.  Each wrapped call or generator step is a span,
timed with the calling thread's CPU clock: under the interpreter lock a
thread waiting for another thread's work burns no CPU, so spans in the
labeling pool and in the main thread never count the same time twice.
A layer's self time is its spans' time minus the time of the spans
nested in them.  Spans under the layer name None (the labeling loop
`label_flows`) are left out and end up in the caller's `cli.other_s`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter

from flowlabel import cli, labeler


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []     # (self-seconds Counter, event Counter) per thread
        self.readers = []
        self.results = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([0.0], Counter(), Counter())
            with self._lock:
                self._per_thread.append(state[1:])
        return state

    def call(self, layer, fn, *args, **kwargs):
        stack, acc, _ = self._state()
        stack.append(0.0)
        t0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.thread_time() - t0
            acc[layer] += dt - stack.pop()
            stack[-1] += dt

    def iterate(self, layer, iterable, count=None):
        """Yield from `iterable`, timing each step as a span of `layer`."""
        it = iter(iterable)
        stack, acc, events = self._state()
        n = 0
        while True:
            stack.append(0.0)
            t0 = time.thread_time()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = time.thread_time() - t0
                acc[layer] += dt - stack.pop()
                stack[-1] += dt
            n += 1
            if count:
                events[count] = n
            yield item

    def count(self, name):
        self._state()[2][name] += 1

    def totals(self):
        seconds, events = Counter(), Counter()
        for acc, ev in self._per_thread:
            seconds.update(acc)
            events.update(ev)
        seconds.pop(None, None)
        return dict(seconds), dict(events)


class _TracedCapture:
    """The CaptureReader, with iteration timed as decode."""

    def __init__(self, tracer, reader):
        self._tracer, self._reader = tracer, reader

    def __enter__(self):
        self._reader.__enter__()
        return self

    def __exit__(self, *exc):
        return self._reader.__exit__(*exc)

    def __iter__(self):
        return self._tracer.iterate("pcap_reader.decode_s", self._reader)

    def __getattr__(self, name):
        return getattr(self._reader, name)


def install(tracer: Tracer):
    real = {name: getattr(cli, name) for name in (
        "open_capture", "build_flows", "write_traffic", "read_traffic", "parse_log",
        "build_index", "label_flows", "write_flows", "split_by_window")}
    real_match = labeler.match_flow

    def open_capture(path):
        reader = tracer.call("pcap_reader.decode_s", real["open_capture"], path)
        tracer.readers.append(reader)
        return _TracedCapture(tracer, reader)

    def parse_log(*args, **kwargs):
        entries = tracer.call("mawilab_log.parse_s", real["parse_log"], *args, **kwargs)
        tracer.results["mawilab_log.entries"] = len(entries)
        return entries

    def build_index(*args, **kwargs):
        index = tracer.call("labeler.index_build_s", real["build_index"], *args, **kwargs)
        tracer.results["labeler.masks_nonempty"] = sum(1 for t in index.maps.values() if t)
        return index

    def split_by_window(*args, **kwargs):
        paths = tracer.call("flow_io.split_s", real["split_by_window"], *args, **kwargs)
        tracer.results["flow_io.split_files"] = len(paths)
        return paths

    def match_flow(index, key):
        winner = tracer.call("labeler.match_s", real_match, index, key)
        tracer.count("labeler.match_calls")
        if winner is not None:
            tracer.count("labeler.match_hits")
        return winner

    cli.open_capture = open_capture
    cli.build_flows = lambda *a, **k: tracer.iterate(
        "flow_builder.aggregate_s", real["build_flows"](*a, **k), count="flow_builder.flows")
    cli.write_traffic = lambda *a, **k: tracer.call("flow_io.traffic_write_s", real["write_traffic"], *a, **k)
    cli.read_traffic = lambda *a, **k: tracer.iterate("flow_io.traffic_read_s", real["read_traffic"](*a, **k))
    cli.parse_log = parse_log
    cli.build_index = build_index
    cli.label_flows = lambda *a, **k: tracer.iterate(None, real["label_flows"](*a, **k))
    cli.write_flows = lambda *a, **k: tracer.call("flow_io.label_write_s", real["write_flows"], *a, **k)
    cli.split_by_window = split_by_window
    labeler.match_flow = match_flow


def main(argv) -> int:
    report_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_argv)
    seconds, events = tracer.totals()
    report = {
        "exit": code,
        "seconds": seconds,
        "counts": {
            **events,
            **tracer.results,
            "pcap_reader.packets": sum(r.decoded for r in tracer.readers),
            "pcap_reader.skipped": sum(r.skipped for r in tracer.readers),
        },
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
