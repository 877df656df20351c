"""Aggregate PacketRecords into unidirectional flow records.

Two modes: `aggregate` merges packets sharing a five-tuple until an idle
or active timeout cuts the flow; `per-packet` turns every packet into its
own single-packet flow record.  Both emit flows ordered by flow end time
(ties by first-seen order) and conserve packet and byte totals exactly.

Each flow is one FlowRecord, built when its first packet arrives and
updated in place, and one entry in a heap ordered by end time.  With the
idle timeout disabled no flow can be known to have ended before the input
does, so every live flow keeps its entry until the end; no benchmark
workload runs that setting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(slots=True)
class FlowRecord:
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


@dataclass
class AggregationConfig:
    mode: str = MODE_AGGREGATE
    idle_timeout_ms: int | None = DEFAULT_IDLE_TIMEOUT_MS      # None = never
    active_timeout_ms: int | None = DEFAULT_ACTIVE_TIMEOUT_MS  # None = never
    reorder_window_ms: int = DEFAULT_REORDER_WINDOW_MS


def _due(heap: list, flows: dict, barrier: float):
    """Pop and yield, in (etime, first-seen) order, every record in `heap`
    that ends before `barrier`; a record still in `flows` leaves it."""
    while heap and heap[0][0] < barrier:
        t, seq, rec = heap[0]
        if t < rec.etime_ms:
            heapq.heapreplace(heap, (rec.etime_ms, seq, rec))
            continue
        heapq.heappop(heap)
        if flows.get(rec.key) is rec:
            del flows[rec.key]
        yield rec


def build_flows(packets, config: AggregationConfig | None = None, counters=None):
    """Yield FlowRecords for a stream of PacketRecords.

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
    # that are safe to emit.
    barrier_lag = reorder if per_packet else idle + reorder

    # Live flows are keyed by plain 5-tuples, which hash and compare equal
    # to the FlowKey each flow record carries.
    flows: dict[tuple, FlowRecord] = {}
    # One (etime, seq, record) entry per flow, pushed when the flow starts
    # and moved forward only when it surfaces: an entry's time is a lower
    # bound of its record's etime, so every flow that ends before the
    # barrier is still found there.
    heap: list = []
    clock = -never
    seq = 0
    peak = 0   # the most live flows held at once

    for p in packets:
        ts, src, dst, sport, dport, proto, ip_len, flags, itype, icode = p
        if ts > clock:
            clock = ts
        elif counters is not None and ts < clock - reorder:
            counters["out_of_order"] = counters.get("out_of_order", 0) + 1

        key = (src, dst, sport, dport, proto)
        rec = None if per_packet else flows.get(key)
        if rec is None or ts - rec.etime_ms > idle or ts - rec.stime_ms > active:
            # a new flow; one cut by a timeout waits in the heap for its turn
            rec = FlowRecord(FlowKey._make(key), 1, ip_len, flags, flags, 0,
                             ts, ts, itype, icode)
            heapq.heappush(heap, (ts, seq, rec))
            seq += 1
            if not per_packet:
                flows[key] = rec
                if len(flows) > peak:
                    peak = len(flows)
        else:
            rec.packets += 1
            rec.bytes += ip_len
            rec.flags |= flags
            rec.session_flags |= flags
            if ts < rec.stime_ms:
                rec.stime_ms = ts
            elif ts > rec.etime_ms:
                rec.etime_ms = ts

        # Checked here so that a packet that ends no flow starts no
        # generator; every live flow holds an entry, so the heap is not empty.
        barrier = clock - barrier_lag
        if heap[0][0] < barrier:
            yield from _due(heap, flows, barrier)

    if counters is not None:
        counters["peak_live_flows"] = peak
    yield from _due(heap, flows, never)
