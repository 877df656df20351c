"""Flow aggregation tests.

The aggregate-mode oracle used here is an independent group-by fold over
the packet list (no timeouts), written against the field definitions:
packets count, bytes sum, initial = first packet's flags, session = OR of
the rest, stime/etime = min/max timestamp.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

import packetcraft as pc
from flowlabel import AggregationConfig, FlowKey, FlowRecord, build_flows, open_capture
from flowlabel.flow_builder import MODE_PER_PACKET, _Flow
from flowlabel.pcap_reader import (PacketRecord, TCP_ACK, TCP_FIN, TCP_PSH,
                                   TCP_SYN)


def pkt(ts_ms, src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80, proto=6,
        ip_len=40, flags=0, itype=None, icode=None):
    return PacketRecord(ts_ms, src, dst, sport, dport, proto, ip_len, flags,
                        itype, icode)


def no_timeouts(mode="aggregate"):
    return AggregationConfig(mode=mode, idle_timeout_ms=None, active_timeout_ms=None)


def fold_oracle(packets):
    """Group-by-key fold; returns records as plain dicts sorted the way the
    builder must emit: by (etime, first-seen order of the flow)."""
    order = {}
    acc = {}
    for p in packets:
        key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto)
        if key not in acc:
            order[key] = len(order)
            acc[key] = {
                "packets": 1, "bytes": p.ip_len, "initial": p.tcp_flags,
                "session": 0, "flags": p.tcp_flags,
                "stime": p.ts_ms, "etime": p.ts_ms,
            }
        else:
            a = acc[key]
            a["packets"] += 1
            a["bytes"] += p.ip_len
            a["session"] |= p.tcp_flags
            a["flags"] |= p.tcp_flags
            a["stime"] = min(a["stime"], p.ts_ms)
            a["etime"] = max(a["etime"], p.ts_ms)
    rows = [(a["etime"], order[k], k, a) for k, a in acc.items()]
    rows.sort(key=lambda r: (r[0], r[1]))
    return [(k, a) for _e, _o, k, a in rows]


def test_per_packet_mode_is_identity():
    packets = [pkt(0, flags=TCP_SYN), pkt(10, flags=TCP_ACK), pkt(20, flags=TCP_ACK)]
    out = list(build_flows(packets, AggregationConfig(mode=MODE_PER_PACKET)))
    assert len(out) == 3
    for rec, p in zip(out, packets):
        assert rec.packets == 1
        assert rec.bytes == p.ip_len
        assert rec.flags == rec.initial_flags == p.tcp_flags
        assert rec.session_flags == 0
        assert rec.stime_ms == rec.etime_ms == p.ts_ms


def test_aggregate_flag_fold():
    packets = [
        pkt(0, flags=TCP_SYN),
        pkt(10, flags=TCP_ACK),
        pkt(20, flags=TCP_ACK | TCP_PSH),
        pkt(100, flags=TCP_FIN | TCP_ACK),
    ]
    (rec,) = list(build_flows(packets))
    assert rec.packets == 4
    assert rec.bytes == 160
    assert rec.initial_flags == TCP_SYN
    assert rec.session_flags == TCP_ACK | TCP_PSH | TCP_FIN
    assert rec.flags == TCP_SYN | TCP_ACK | TCP_PSH | TCP_FIN
    assert rec.duration_ms == 100
    assert rec.key == FlowKey("10.0.0.1", "10.0.0.2", 1000, 80, 6)


def test_idle_timeout_cuts_flow():
    packets = [pkt(0, flags=TCP_SYN), pkt(31_000, flags=TCP_ACK)]
    out = list(build_flows(packets))
    assert len(out) == 2
    assert [r.packets for r in out] == [1, 1]
    assert out[0].initial_flags == TCP_SYN
    assert out[1].initial_flags == TCP_ACK


def test_idle_timeout_boundary_joins():
    # a gap of exactly the idle timeout does not cut
    packets = [pkt(0), pkt(30_000)]
    out = list(build_flows(packets))
    assert len(out) == 1
    assert out[0].packets == 2


def test_active_timeout_cuts_flow():
    cfg = AggregationConfig(idle_timeout_ms=None, active_timeout_ms=1_800_000)
    times = [0, 600_000, 1_200_000, 1_800_000, 2_400_000]
    out = list(build_flows([pkt(t) for t in times], cfg))
    assert [r.packets for r in out] == [4, 1]
    assert out[0].stime_ms == 0 and out[0].etime_ms == 1_800_000
    assert out[1].stime_ms == 2_400_000


def test_non_tcp_flows_have_zero_flags():
    packets = [pkt(0, proto=17, flags=0), pkt(5, proto=17, flags=0)]
    (rec,) = list(build_flows(packets))
    assert rec.flags == rec.initial_flags == rec.session_flags == 0


def test_icmp_fields_from_first_packet():
    packets = [pkt(0, proto=1, sport=0, dport=0, itype=8, icode=0),
               pkt(3, proto=1, sport=0, dport=0, itype=8, icode=0)]
    (rec,) = list(build_flows(packets))
    assert rec.icmp_type == 8 and rec.icmp_code == 0


def test_metadata_defaults():
    (rec,) = list(build_flows([pkt(0)]))
    assert (rec.sensor, rec.input_if, rec.output_if, rec.next_hop) == ("0", "0", "0", "0")
    assert (rec.sensor_class, rec.flow_type, rec.attributes, rec.application) == ("", "", "", "")


def test_empty_input():
    assert list(build_flows([])) == []


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        list(build_flows([], AggregationConfig(mode="bulk")))


def random_packets(rng, n, *, hosts=4, ports=3, max_step=200):
    addrs = [f"10.0.0.{i + 1}" for i in range(hosts)]
    port_pool = [80, 443, 5353][:ports]
    ts = 1_000_000
    out = []
    for _ in range(n):
        ts += rng.randrange(0, max_step)
        proto = rng.choice([6, 6, 17, 1])
        src, dst = rng.sample(addrs, 2)
        sport = rng.choice(port_pool) if proto != 1 else 0
        dport = rng.choice(port_pool) if proto != 1 else 0
        flags = rng.randrange(256) if proto == 6 else 0
        out.append(pkt(ts, src, dst, sport, dport, proto,
                       ip_len=rng.randrange(40, 1500), flags=flags,
                       itype=8 if proto == 1 else None,
                       icode=0 if proto == 1 else None))
    return out


def test_conservation_and_flag_invariant_both_modes():
    rng = random.Random(2018)
    packets = random_packets(rng, 3000)
    total_bytes = sum(p.ip_len for p in packets)
    for cfg in (AggregationConfig(),
                AggregationConfig(mode=MODE_PER_PACKET),
                AggregationConfig(idle_timeout_ms=2000, active_timeout_ms=10_000)):
        out = list(build_flows(packets, cfg))
        assert sum(r.packets for r in out) == len(packets)
        assert sum(r.bytes for r in out) == total_bytes
        for rec in out:
            assert rec.flags == rec.initial_flags | rec.session_flags
            assert rec.etime_ms >= rec.stime_ms
            if rec.key.proto != 6:
                assert rec.flags == rec.initial_flags == rec.session_flags == 0


def test_aggregate_no_timeouts_equals_group_by_fold():
    rng = random.Random(555)
    for round_no in range(10):
        packets = random_packets(rng, rng.randrange(50, 400))
        out = list(build_flows(packets, no_timeouts()))
        expect = fold_oracle(packets)
        assert len(out) == len(expect)
        for rec, (key, a) in zip(out, expect):
            assert (rec.key.src_ip, rec.key.dst_ip, rec.key.src_port,
                    rec.key.dst_port, rec.key.proto) == key
            assert rec.packets == a["packets"]
            assert rec.bytes == a["bytes"]
            assert rec.initial_flags == a["initial"]
            assert rec.session_flags == a["session"]
            assert rec.flags == a["flags"]
            assert rec.stime_ms == a["stime"]
            assert rec.etime_ms == a["etime"]


def test_per_packet_then_group_by_matches_aggregate_totals():
    rng = random.Random(77)
    packets = random_packets(rng, 800)
    per_key_pp = {}
    for rec in build_flows(packets, no_timeouts(mode=MODE_PER_PACKET)):
        tot = per_key_pp.setdefault(rec.key, [0, 0])
        tot[0] += rec.packets
        tot[1] += rec.bytes
    per_key_agg = {}
    for rec in build_flows(packets, no_timeouts()):
        tot = per_key_agg.setdefault(rec.key, [0, 0])
        tot[0] += rec.packets
        tot[1] += rec.bytes
    assert per_key_pp == per_key_agg


def test_emission_sorted_by_end_time_with_timeouts():
    rng = random.Random(31337)
    packets = random_packets(rng, 2500, max_step=400)
    cfg = AggregationConfig(idle_timeout_ms=1500, active_timeout_ms=8000)
    out = list(build_flows(packets, cfg))
    etimes = [r.etime_ms for r in out]
    assert etimes == sorted(etimes)


def test_emission_tie_broken_by_first_seen():
    # two flows end at the same instant; the first-created one comes first
    packets = [
        pkt(0, src="10.0.0.1", flags=TCP_SYN),
        pkt(1, src="10.0.0.3", flags=TCP_SYN),
        pkt(500, src="10.0.0.3"),
        pkt(500, src="10.0.0.1"),
    ]
    out = list(build_flows(packets))
    assert [r.key.src_ip for r in out] == ["10.0.0.1", "10.0.0.3"]
    assert out[0].etime_ms == out[1].etime_ms == 500


def test_reorder_within_window_joins_silently():
    counters = {}
    packets = [pkt(1000), pkt(400)]   # 600 ms backwards, inside the window
    out = list(build_flows(packets, AggregationConfig(), counters))
    assert len(out) == 1
    assert out[0].stime_ms == 400 and out[0].etime_ms == 1000
    assert counters.get("out_of_order", 0) == 0


def test_reorder_beyond_window_counts_warning():
    counters = {}
    packets = [pkt(10_000), pkt(2_000)]   # 8 s backwards
    out = list(build_flows(packets, AggregationConfig(), counters))
    assert counters["out_of_order"] == 1
    assert sum(r.packets for r in out) == 2   # still processed


def test_streaming_emission_before_end():
    # with a finite idle timeout, early flows must be yielded while the
    # input is still being consumed
    def gen():
        yield pkt(0)
        yield pkt(100)
        for i in range(200):
            yield pkt(200_000 + i * 10, src="10.0.0.5")

    it = build_flows(gen(), AggregationConfig(idle_timeout_ms=30_000))
    first = next(it)
    assert first.packets == 2 and first.etime_ms == 100
    rest = list(it)
    assert sum(r.packets for r in rest) == 200


def test_active_timeout_alone_emits_before_end():
    # with only the active timeout set, a flow that can gain no packet must
    # still be yielded while the input is being consumed
    def gen():
        yield pkt(0)
        yield pkt(100)
        for i in range(200):
            yield pkt(200_000 + i * 10, src="10.0.0.5")
        raise AssertionError("input read to the end before the first flow")

    it = build_flows(gen(), AggregationConfig(idle_timeout_ms=None, active_timeout_ms=3000))
    first = next(it)
    assert first.packets == 2 and first.etime_ms == 100


# ---------------------------------------------------------------------------
# differential test against a naive reference aggregator

def reference_flows(packets, cfg):
    """Restate the aggregation rules on plain packet lists: each 5-tuple
    keeps the list of its open flow's packets, in arrival order.  A packet
    more than the idle timeout after the flow's latest packet, or more
    than the active timeout after its earliest, closes the flow and starts
    a new one; once the latest timestamp seen passes a flow's end by the
    shorter timeout + reorder window, the flow is closed too.  Returns the
    records as tuples ordered by (etime, first-seen), the out-of-order
    count and the most flows open right after a flow was opened (0 in
    per-packet mode)."""
    idle, active, reorder = cfg.idle_timeout_ms, cfg.active_timeout_ms, cfg.reorder_window_ms
    per_packet = cfg.mode == MODE_PER_PACKET
    open_flows = {}      # key -> (first-seen number, [packets])
    closed = []
    clock = None
    out_of_order = 0
    peak = 0
    horizon = min((t for t in (idle, active) if t is not None), default=None)
    for p in packets:
        if clock is not None and p.ts_ms < clock - reorder:
            out_of_order += 1
        clock = p.ts_ms if clock is None else max(clock, p.ts_ms)
        if per_packet:
            closed.append((len(closed), [p]))
            continue
        key = (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto)
        flow = open_flows.get(key)
        if flow is not None:
            times = [q.ts_ms for q in flow[1]]
            if ((idle is not None and p.ts_ms - max(times) > idle)
                    or (active is not None and p.ts_ms - min(times) > active)):
                closed.append(open_flows.pop(key))
                flow = None
        if flow is None:
            flow = open_flows[key] = (len(closed) + len(open_flows), [])
            peak = max(peak, len(open_flows))
        flow[1].append(p)
        if horizon is not None:
            for k in [k for k, (_n, ps) in open_flows.items()
                      if max(q.ts_ms for q in ps) < clock - horizon - reorder]:
                closed.append(open_flows.pop(k))
    closed.extend(open_flows.values())
    records = []
    for first_seen, ps in closed:
        p0 = ps[0]
        session = 0
        for q in ps[1:]:
            session |= q.tcp_flags
        times = [q.ts_ms for q in ps]
        records.append((max(times), first_seen, (
            (p0.src_ip, p0.dst_ip, p0.src_port, p0.dst_port, p0.proto),
            len(ps), sum(q.ip_len for q in ps), p0.tcp_flags | session,
            p0.tcp_flags, session, min(times), max(times), p0.icmp_type, p0.icmp_code)))
    records.sort(key=lambda r: (r[0], r[1]))
    return [r[2] for r in records], out_of_order, peak


def as_tuple(rec):
    k = rec.key
    return ((k.src_ip, k.dst_ip, k.src_port, k.dst_port, k.proto), rec.packets, rec.bytes, rec.flags, rec.initial_flags,
            rec.session_flags, rec.stime_ms, rec.etime_ms, rec.icmp_type, rec.icmp_code)


def reordered(rng, packets, max_lag_ms):
    """Arrival order in which no packet comes more than max_lag_ms behind
    a packet with a later timestamp."""
    return sorted(packets, key=lambda p: p.ts_ms + rng.randrange(max_lag_ms + 1))


@pytest.mark.parametrize("mode", ["aggregate", MODE_PER_PACKET])
def test_build_flows_matches_reference_aggregator(mode):
    rng = random.Random(f"reference-{mode}")
    timeouts = [(300, 2000), (1500, 8000), (None, 3000), (800, None), (None, None)]
    for round_no in range(40):
        idle, active = timeouts[round_no % len(timeouts)]
        reorder = rng.choice([0, 100, 1000])
        cfg = AggregationConfig(mode=mode, idle_timeout_ms=idle, active_timeout_ms=active,
                                reorder_window_ms=reorder)
        packets = random_packets(rng, rng.randrange(100, 600), max_step=rng.choice([50, 400]))
        # lags inside the reorder window keep the emission order; longer
        # ones are counted out of order
        max_lag = rng.choice([0, reorder, 3 * reorder + 500])
        arrival = reordered(rng, packets, max_lag)
        counters = {}
        got = [as_tuple(rec) for rec in build_flows(arrival, cfg, counters)]
        want, out_of_order, peak = reference_flows(arrival, cfg)
        assert counters.get("out_of_order", 0) == out_of_order
        assert counters["peak_live_flows"] == peak
        if max_lag <= reorder:
            assert out_of_order == 0
            assert got == want
        else:
            assert sorted(got) == sorted(want)


# ---------------------------------------------------------------------------
# memory held per live flow

def test_bytes_per_live_flow(tmp_path):
    # 4,000 distinct single-packet TCP and UDP flows with both timeouts off,
    # so every flow is live when the first one is emitted.  A live flow held
    # 566-574 B when it was a FlowRecord keyed by a text FlowKey (with the
    # reader's address cache), 345-348 B as a 9-slot live record keyed by a
    # (proto, packed addresses and ports) tuple, and holds 293.5 B on Python
    # 3.11.7 to 3.13.0 keyed by one bytes object.  The bound is 7 % below
    # the lower of the tuple-keyed figures.
    n = 4000
    frames = []
    for i in range(n):
        src = f"10.{i >> 8}.{i & 255}.1"
        seg = pc.tcp(1024 + i, 80, TCP_SYN) if i % 2 else pc.udp(1024 + i, 53)
        frames.append((*pc.ms_to_sec_us(1_530_453_600_000 + i),
                       pc.ethernet(pc.ipv4(src, "192.0.2.1", 6 if i % 2 else 17, seg))))
    path = tmp_path / "flows.pcap"
    path.write_bytes(pc.pcap(frames))
    del frames
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        with open_capture(path) as reader:
            counters = {}
            base = tracemalloc.get_traced_memory()[0]
            flows = build_flows(reader, no_timeouts(), counters)
            next(flows)
            held = tracemalloc.get_traced_memory()[0] - base
            flows.close()
    finally:
        if started:
            tracemalloc.stop()
    assert counters["peak_live_flows"] == n
    assert held / n < 320


# ---------------------------------------------------------------------------
# value semantics of the flow types

def test_flow_record_value_semantics():
    key = FlowKey("10.0.0.1", "10.0.0.2", 1000, 80, 6)
    rec = FlowRecord(key, 3, 120, 0x12, 0x02, 0x10, 5, 9)
    assert rec == FlowRecord(key=key, packets=3, bytes=120, flags=0x12, initial_flags=0x02,
                             session_flags=0x10, stime_ms=5, etime_ms=9)
    assert (rec.icmp_type, rec.icmp_code) == (None, None)
    assert (rec.sensor, rec.input_if, rec.output_if, rec.next_hop) == ("0",) * 4
    assert (rec.sensor_class, rec.flow_type, rec.attributes, rec.application) == ("",) * 4
    assert rec.duration_ms == 4
    assert repr(rec) == (
        "FlowRecord(key=FlowKey(src_ip='10.0.0.1', dst_ip='10.0.0.2', src_port=1000, "
        "dst_port=80, proto=6), packets=3, bytes=120, flags=18, initial_flags=2, "
        "session_flags=16, stime_ms=5, etime_ms=9, icmp_type=None, icmp_code=None, "
        "sensor='0', input_if='0', output_if='0', next_hop='0', sensor_class='', "
        "flow_type='', attributes='', application='')")
    # an immutable tuple: equal to the plain tuple of its values, hashable,
    # and changed only into a new record
    assert rec == tuple(rec) and hash(rec) == hash(tuple(rec))
    with pytest.raises(AttributeError):
        rec.packets = 4
    later = rec._replace(etime_ms=15, sensor="s1")
    assert (later.duration_ms, later.sensor, rec.etime_ms) == (10, "s1", 9)
    assert list(rec._asdict())[:3] == ["key", "packets", "bytes"]
    assert len(rec) == 18


def test_aggregation_config_value_semantics():
    cfg = AggregationConfig()
    assert cfg == AggregationConfig("aggregate", 30_000, 1_800_000, 1000)
    assert AggregationConfig(MODE_PER_PACKET, None) == AggregationConfig(
        mode=MODE_PER_PACKET, idle_timeout_ms=None)
    assert repr(cfg) == ("AggregationConfig(mode='aggregate', idle_timeout_ms=30000, "
                         "active_timeout_ms=1800000, reorder_window_ms=1000)")
    assert cfg._replace(reorder_window_ms=0).reorder_window_ms == 0
    assert cfg.reorder_window_ms == 1000
    assert hash(cfg) == hash(AggregationConfig())


def test_emitted_records_are_flow_records_with_default_metadata():
    packets = [pkt(10, flags=TCP_SYN), pkt(20, flags=TCP_ACK), pkt(15, sport=9, proto=1,
                                                                   itype=8, icode=0)]
    out = list(build_flows(packets, no_timeouts()))
    assert [type(rec) for rec in out] == [FlowRecord, FlowRecord]
    assert out == [
        FlowRecord(FlowKey("10.0.0.1", "10.0.0.2", 9, 80, 1), 1, 40, 0, 0, 0, 15, 15, 8, 0),
        FlowRecord(FlowKey("10.0.0.1", "10.0.0.2", 1000, 80, 6), 2, 80, TCP_SYN | TCP_ACK,
                   TCP_SYN, TCP_ACK, 10, 20),
    ]


def test_live_flow_has_no_dict():
    rec = _Flow(("k",), 1, 40, 0, 0, 5, 5, None, None)
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.label = "x"
    assert (rec.key, rec.packets, rec.bytes, rec.etime_ms) == (("k",), 1, 40, 5)
