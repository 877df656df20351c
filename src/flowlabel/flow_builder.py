"""Aggregate PacketRecords into unidirectional flow records.

Two modes: `aggregate` merges packets sharing a five-tuple until an idle
or active timeout cuts the flow; `per-packet` turns every packet into its
own single-packet flow record.  Both emit flows ordered by flow end time
(ties by first-seen order) and conserve packet and byte totals exactly.
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
    # metadata with no pcap source; emitted as configured constants
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
    sensor: str = "0"
    input_if: str = "0"
    output_if: str = "0"
    next_hop: str = "0"
    sensor_class: str = ""
    flow_type: str = ""
    attributes: str = ""
    application: str = ""


@dataclass(slots=True)
class _FlowState:
    key: FlowKey
    seq: int
    stime: int
    etime: int
    packets: int
    bytes: int
    flags: int
    initial_flags: int
    session_flags: int = 0
    icmp_type: int | None = None
    icmp_code: int | None = None


def _record(st: _FlowState, cfg: AggregationConfig) -> FlowRecord:
    return FlowRecord(
        key=st.key, packets=st.packets, bytes=st.bytes, flags=st.flags,
        initial_flags=st.initial_flags, session_flags=st.session_flags,
        stime_ms=st.stime, etime_ms=st.etime,
        icmp_type=st.icmp_type, icmp_code=st.icmp_code,
        sensor=cfg.sensor, input_if=cfg.input_if, output_if=cfg.output_if,
        next_hop=cfg.next_hop, sensor_class=cfg.sensor_class,
        flow_type=cfg.flow_type, attributes=cfg.attributes,
        application=cfg.application,
    )


def build_flows(packets, config: AggregationConfig | None = None, counters=None):
    """Yield FlowRecords for a stream of PacketRecords.

    Emission is ordered by (etime, first-seen) whenever input reordering
    stays inside config.reorder_window_ms; packets reordered further than
    that are still processed but counted in counters["out_of_order"].
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
    # can end earlier than clock - barrier_lag, so pending records older
    # than that are safe to emit.
    barrier_lag = reorder if per_packet else idle + reorder

    # Live flows are keyed by plain 5-tuples, which hash and compare equal
    # to the FlowKey each flow record carries.
    flows: dict[tuple, _FlowState] = {}
    # One (etime, seq, key) entry per live flow, pushed when the flow starts
    # and moved forward only when it surfaces: entries are lower bounds of
    # their flow's etime, so every flow that ends before the barrier is
    # still found there.
    active_heap: list = []
    pending: list = []       # (etime, seq, FlowRecord)
    clock = -never
    seq = 0

    for p in packets:
        ts, src, dst, sport, dport, proto, ip_len, flags, itype, icode = p
        if ts > clock:
            clock = ts
        elif counters is not None and ts < clock - reorder:
            counters["out_of_order"] = counters.get("out_of_order", 0) + 1

        if per_packet:
            st = _FlowState(FlowKey(src, dst, sport, dport, proto), seq, ts, ts, 1,
                            ip_len, flags, flags, 0, itype, icode)
            heapq.heappush(pending, (ts, seq, _record(st, cfg)))
            seq += 1
        else:
            key = (src, dst, sport, dport, proto)
            st = flows.get(key)
            if st is not None:
                if ts - st.etime > idle or ts - st.stime > active:
                    del flows[key]
                    heapq.heappush(pending, (st.etime, st.seq, _record(st, cfg)))
                    st = None
                else:
                    st.packets += 1
                    st.bytes += ip_len
                    st.flags |= flags
                    st.session_flags |= flags
                    if ts < st.stime:
                        st.stime = ts
                    elif ts > st.etime:
                        st.etime = ts
            if st is None:
                flows[key] = _FlowState(FlowKey._make(key), seq, ts, ts, 1, ip_len,
                                        flags, flags, 0, itype, icode)
                if barrier_lag != never:
                    heapq.heappush(active_heap, (ts, seq, key))
                seq += 1

        barrier = clock - barrier_lag
        while active_heap and active_heap[0][0] < barrier:
            _etime, s, key = heapq.heappop(active_heap)
            st = flows.get(key)
            if st is None or st.seq != s:
                continue   # the flow it tracked was cut by a timeout already
            if st.etime < barrier:
                del flows[key]
                heapq.heappush(pending, (st.etime, s, _record(st, cfg)))
            else:
                heapq.heappush(active_heap, (st.etime, s, key))
        while pending and pending[0][0] < barrier:
            yield heapq.heappop(pending)[2]

    for st in flows.values():
        heapq.heappush(pending, (st.etime, st.seq, _record(st, cfg)))
    while pending:
        yield heapq.heappop(pending)[2]
