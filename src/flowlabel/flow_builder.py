"""Aggregate PacketRecords into unidirectional flow records.

Two modes: `aggregate` merges packets sharing a five-tuple until an idle
or active timeout cuts the flow; `per-packet` turns every packet into its
own single-packet flow record.  Both emit flows ordered by flow end time
(ties by first-seen order) and conserve packet and byte totals exactly.

A live flow is a `_Flow`, keyed by the reader's packed 5-tuple, one bytes
object (or by the text 5-tuple of other PacketRecords), and one entry in
a heap ordered by end time.  Its FlowRecord, FlowKey text included, is built on emission.

FlowRecord and AggregationConfig are NamedTuples and `_Flow` a slotted
class, so no run imports `dataclasses` (and with it `inspect`).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .pcap_reader import CaptureReader, render

MODE_AGGREGATE = "aggregate"
MODE_PER_PACKET = "per-packet"

DEFAULT_IDLE_TIMEOUT_MS = 30_000
DEFAULT_ACTIVE_TIMEOUT_MS = 30 * 60 * 1000
DEFAULT_REORDER_WINDOW_MS = 1000


class FlowKey(NamedTuple):
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int


class FlowRecord(NamedTuple):
    key: FlowKey
    packets: int
    bytes: int
    flags: int
    initial_flags: int
    session_flags: int
    stime_ms: int
    etime_ms: int
    icmp_type: int | None = None
    icmp_code: int | None = None
    # metadata with no pcap source: flows built from packets keep these
    # defaults, flows read from a CSV carry its cells
    sensor: str = "0"
    input_if: str = "0"
    output_if: str = "0"
    next_hop: str = "0"
    sensor_class: str = ""
    flow_type: str = ""
    attributes: str = ""
    application: str = ""

    @property
    def duration_ms(self) -> int:
        return self.etime_ms - self.stime_ms


class _Flow:
    """A live flow: its key and what its packets set."""
    __slots__ = ("key", "packets", "bytes", "initial_flags", "session_flags",
                 "stime_ms", "etime_ms", "icmp_type", "icmp_code")

    def __init__(self, key, packets, nbytes, initial_flags, session_flags,
                 stime_ms, etime_ms, icmp_type, icmp_code):
        self.key = key
        self.packets = packets
        self.bytes = nbytes
        self.initial_flags = initial_flags
        self.session_flags = session_flags
        self.stime_ms = stime_ms
        self.etime_ms = etime_ms
        self.icmp_type = icmp_type
        self.icmp_code = icmp_code


class AggregationConfig(NamedTuple):
    mode: str = MODE_AGGREGATE
    idle_timeout_ms: int | None = DEFAULT_IDLE_TIMEOUT_MS      # None = never
    active_timeout_ms: int | None = DEFAULT_ACTIVE_TIMEOUT_MS  # None = never
    reorder_window_ms: int = DEFAULT_REORDER_WINDOW_MS


_new = tuple.__new__
# sensor .. application as FlowRecord defaults them: no pcap carries them
_NO_METADATA = tuple(FlowRecord._field_defaults.values())[2:]


def _due(heap: list, flows: dict, barrier: float, make_key):
    """Yield, in (etime, first-seen) order, the FlowRecord of each flow in `heap`
    that ends before `barrier`, keyed by make_key(key); each leaves `flows`."""
    while heap and heap[0][0] < barrier:
        t, seq, rec = heap[0]
        if t < rec.etime_ms:
            heapq.heapreplace(heap, (rec.etime_ms, seq, rec))
            continue
        heapq.heappop(heap)
        if flows.get(rec.key) is rec:
            del flows[rec.key]
        initial, session = rec.initial_flags, rec.session_flags
        yield _new(FlowRecord, (make_key(rec.key), rec.packets, rec.bytes, initial | session,
                                initial, session, rec.stime_ms, rec.etime_ms, rec.icmp_type,
                                rec.icmp_code) + _NO_METADATA)


def build_flows(packets, config: AggregationConfig | None = None, counters=None):
    """Yield FlowRecords for a CaptureReader or any iterable of PacketRecords.

    Emission is ordered by (etime, first-seen) whenever input reordering
    stays inside config.reorder_window_ms; packets reordered further than
    that are still processed but counted in counters["out_of_order"].
    Once the packets run out, counters["peak_live_flows"] holds the most
    flows the live-flow table held at once (0 in per-packet mode).
    """
    cfg = config or AggregationConfig()
    if cfg.mode not in (MODE_AGGREGATE, MODE_PER_PACKET):
        raise ValueError(f"unknown aggregation mode {cfg.mode!r}")
    per_packet = cfg.mode == MODE_PER_PACKET
    never = float("inf")
    idle = never if cfg.idle_timeout_ms is None else cfg.idle_timeout_ms
    active = never if cfg.active_timeout_ms is None else cfg.active_timeout_ms
    reorder = cfg.reorder_window_ms
    # No flow still active (nor any packet still to come, within tolerance)
    # can end earlier than clock - barrier_lag, so records that end before
    # that are safe to emit.  A packet more than the shorter timeout after a
    # flow's end is also that far after its start, so it cuts the flow.
    barrier_lag = reorder if per_packet else min(idle, active) + reorder

    if isinstance(packets, CaptureReader):
        stream, make_key = packets._keyed(), lambda key: FlowKey._make(render(key))
    else:
        stream, make_key = ((p[0], p[1:6], p[6], p[7], p[8], p[9]) for p in packets), FlowKey._make
    flows: dict[bytes | tuple, _Flow] = {}
    # One (etime, seq, record) entry per flow, pushed when the flow starts
    # and moved forward only when it surfaces: an entry's time is a lower
    # bound of its record's etime, so every flow that ends before the
    # barrier is still found there.
    heap: list = []
    clock = -never
    seq = 0
    peak = 0   # the most live flows held at once

    for ts, key, ip_len, flags, itype, icode in stream:
        if ts > clock:
            clock = ts
        elif counters is not None and ts < clock - reorder:
            counters["out_of_order"] = counters.get("out_of_order", 0) + 1

        rec = None if per_packet else flows.get(key)
        if rec is None or ts - rec.etime_ms > idle or ts - rec.stime_ms > active:
            # a new flow; one cut by a timeout waits in the heap for its turn
            rec = _Flow(key, 1, ip_len, flags, 0, ts, ts, itype, icode)
            heapq.heappush(heap, (ts, seq, rec))
            seq += 1
            if not per_packet:
                flows[key] = rec
                if len(flows) > peak:
                    peak = len(flows)
        else:
            rec.packets += 1
            rec.bytes += ip_len
            rec.session_flags |= flags
            if ts < rec.stime_ms:
                rec.stime_ms = ts
            elif ts > rec.etime_ms:
                rec.etime_ms = ts

        # Checked here so that a packet that ends no flow starts no
        # generator; every live flow holds an entry, so the heap is not empty.
        barrier = clock - barrier_lag
        if heap[0][0] < barrier:
            yield from _due(heap, flows, barrier, make_key)

    if counters is not None:
        counters["peak_live_flows"] = peak
    yield from _due(heap, flows, never, make_key)
