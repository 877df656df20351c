"""Flow labeling tests.

The oracle here is a from-scratch linear scan: for each flow it rechecks
every log entry attribute by attribute and ranks matches by recomputing
(attribute count, dip/sip/dport/sport presence bits, earlier file order)
without calling the library's specificity helpers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from flowlabel import (CLASS_ANOMALY, CLASS_NORMAL, CLASS_UNSURE, FlowKey,
                       FlowRecord, IdsLogEntry, LabelStats, assign_class,
                       build_index, label_flows, label_one, match_flow)
from flowlabel.labeler import _MASKS


def make_entry(sip=None, sport=None, dip=None, dport=None, taxonomy="t",
               heuristic=1, distance=1.0, nb_detectors=1,
               mawilab_label="anomalous", file_order=0):
    return IdsLogEntry(sip=sip, dip=dip, sport=sport, dport=dport,
                       taxonomy=taxonomy, heuristic=heuristic,
                       distance=distance, nb_detectors=nb_detectors,
                       mawilab_label=mawilab_label, file_order=file_order)


def make_flow(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80, proto=6):
    key = FlowKey(src, dst, sport, dport, proto)
    return FlowRecord(key=key, packets=1, bytes=40, flags=0, initial_flags=0,
                      session_flags=0, stime_ms=0, etime_ms=0)


def scan_oracle(entries, key):
    """Independent reference: linear scan + explicit ranking."""
    best = None
    best_rank = None
    for e in entries:
        if e.sip is not None and e.sip != key.src_ip:
            continue
        if e.dip is not None and e.dip != key.dst_ip:
            continue
        if e.sport is not None and e.sport != key.src_port:
            continue
        if e.dport is not None and e.dport != key.dst_port:
            continue
        count = sum(x is not None for x in (e.sip, e.dip, e.sport, e.dport))
        bits = (8 if e.dip is not None else 0) | (4 if e.sip is not None else 0) \
            | (2 if e.dport is not None else 0) | (1 if e.sport is not None else 0)
        rank = (count, bits, -e.file_order)
        if best is None or rank > best_rank:
            best, best_rank = e, rank
    return best


# Worked example, first variant: two rules, one fully specified and one
# with source attributes only; the flow carries the full tuple of rule 1.
R1 = make_entry(sip="192.0.2.10", sport=1234, dip="198.51.100.5", dport=80,
                taxonomy="alphflHTTP", file_order=0)
R2 = make_entry(sip="192.0.2.10", sport=1234, taxonomy="ntscACK", file_order=1)
F1 = make_flow(src="192.0.2.10", dst="198.51.100.5", sport=1234, dport=80)

# Second variant: rule with both IPs against rule with destination pair;
# the IP-pair rule must win on weight despite equal attribute count.
R3 = make_entry(sip="192.0.2.10", dip="198.51.100.5", taxonomy="ptmpHTTP",
                file_order=2)
R4 = make_entry(dip="198.51.100.5", dport=80, taxonomy="sYNscan", file_order=3)
F2 = make_flow(src="192.0.2.10", dst="198.51.100.5", sport=4321, dport=80)


def test_most_specific_rule_wins():
    index = build_index([R1, R2])
    winner = match_flow(index, F1.key)
    assert winner is R1
    assert assign_class(winner) == CLASS_ANOMALY
    assert scan_oracle([R1, R2], F1.key) is R1


def test_ip_attributes_outweigh_ports():
    index = build_index([R1, R2, R3, R4])
    winner = match_flow(index, F2.key)
    assert winner is R3
    assert assign_class(winner) == CLASS_ANOMALY
    assert scan_oracle([R1, R2, R3, R4], F2.key) is R3


def test_index_placement():
    index = build_index([R1, R2, R3, R4])
    assert len(index) == 4
    # R1 fills all four attributes: mask 0b1111, projection (dip, sip, dport, sport)
    assert index.maps[0b1111][("198.51.100.5", "192.0.2.10", 80, 1234)] is R1
    # R2 has sip and sport only: mask 0b0101
    assert index.maps[0b0101][("192.0.2.10", 1234)] is R2
    # R3 has both IPs: mask 0b1100
    assert index.maps[0b1100][("198.51.100.5", "192.0.2.10")] is R3
    # R4 has dip and dport: mask 0b1010
    assert index.maps[0b1010][("198.51.100.5", 80)] is R4


def test_duplicate_slot_keeps_earlier_row():
    a = make_entry(sport=443, taxonomy="first", file_order=0)
    b = make_entry(sport=443, taxonomy="second", file_order=1)
    index = build_index([a, b])
    assert index.maps[0b0001][(443,)] is a
    # insertion order does not matter
    index2 = build_index([b, a])
    assert index2.maps[0b0001][(443,)] is a


def test_empty_index_gives_normal():
    index = build_index([])
    flow = make_flow()
    assert match_flow(index, flow.key) is None
    labeled = label_one(flow, index)
    assert labeled.class_label == CLASS_NORMAL
    assert labeled.mawilab_label == "normal"
    assert labeled.taxonomy == ""
    assert labeled.heuristic == 0
    assert labeled.distance == 0.0
    assert labeled.nb_detectors == 0


def test_single_attribute_match_is_unsure():
    index = build_index([make_entry(sport=443, taxonomy="ntscACK")])
    flow = make_flow(sport=443)
    labeled = label_one(flow, index)
    assert labeled.class_label == CLASS_UNSURE
    assert labeled.taxonomy == "ntscACK"
    assert labeled.mawilab_label == "anomalous"


def test_two_attribute_match_is_anomaly():
    index = build_index([make_entry(sip="10.0.0.1", dport=80)])
    labeled = label_one(make_flow(), index)
    assert labeled.class_label == CLASS_ANOMALY


def test_assign_class_rules():
    assert assign_class(None) == CLASS_NORMAL
    assert assign_class(make_entry(sport=1)) == CLASS_UNSURE
    assert assign_class(make_entry(dip="1.2.3.4")) == CLASS_UNSURE
    assert assign_class(make_entry(sip="1.2.3.4", sport=1)) == CLASS_ANOMALY
    assert assign_class(
        make_entry(sip="1.2.3.4", sport=1, dip="5.6.7.8", dport=2)) == CLASS_ANOMALY


def test_protocol_ignored():
    index = build_index([make_entry(sip="10.0.0.1", dport=80)])
    for proto in (1, 6, 17, 47):
        labeled = label_one(make_flow(proto=proto), index)
        assert labeled.class_label == CLASS_ANOMALY


def test_metadata_copied_from_winner():
    e = make_entry(sip="10.0.0.1", dip="10.0.0.2", taxonomy="ptmpHTTP",
                   heuristic=20, distance=0.4142, nb_detectors=3,
                   mawilab_label="suspicious")
    labeled = label_one(make_flow(), build_index([e]))
    assert labeled.taxonomy == "ptmpHTTP"
    assert labeled.heuristic == 20
    assert labeled.distance == pytest.approx(0.4142)
    assert labeled.nb_detectors == 3
    assert labeled.mawilab_label == "suspicious"


def test_label_flows_preserves_order_and_flows():
    index = build_index([make_entry(sport=443)])
    flows = [make_flow(sport=443), make_flow(sport=80), make_flow(sport=443)]
    out = list(label_flows(iter(flows), index))
    assert [lf.flow is f for lf, f in zip(out, flows)] == [True, True, True]
    assert [lf.class_label for lf in out] == [CLASS_UNSURE, CLASS_NORMAL, CLASS_UNSURE]


def test_label_stats():
    index = build_index([
        make_entry(sport=443, taxonomy="ntscACK"),
        make_entry(sip="10.0.0.1", dip="10.0.0.9", taxonomy="ptmpHTTP"),
    ])
    flows = [
        make_flow(sport=443, src="10.9.9.9"),        # unsure, L=1
        make_flow(src="10.0.0.1", dst="10.0.0.9"),   # anomaly, L=2
        make_flow(src="10.8.8.8", sport=5),          # normal
        make_flow(sport=443, src="10.7.7.7"),        # unsure, L=1
    ]
    stats = LabelStats()
    list(label_flows(iter(flows), index, stats=stats))
    assert stats.rows == 4
    assert stats.class_counts == {"unsure": 2, "anomaly": 1, "normal": 1}
    assert stats.taxonomy_counts == {"ntscACK": 2, "ptmpHTTP": 1}
    assert stats.l_histogram == {1: 2, 2: 1, 0: 1}


def random_entries(rng, n, ips, ports):
    entries = []
    for _ in range(n):
        mask = rng.randrange(1, 16)
        entries.append(make_entry(
            dip=rng.choice(ips) if mask & 8 else None,
            sip=rng.choice(ips) if mask & 4 else None,
            dport=rng.choice(ports) if mask & 2 else None,
            sport=rng.choice(ports) if mask & 1 else None,
            taxonomy=rng.choice(["a", "b", "c"]),
            heuristic=rng.randrange(100),
            mawilab_label=rng.choice(["anomalous", "suspicious"]),
            file_order=len(entries)))
    return entries


def test_indexed_matches_scan_on_random_inputs():
    rng = random.Random(20180701)
    ips = [f"10.1.0.{i}" for i in range(6)]
    ports = [80, 443, 53, 5353]
    for _round in range(20):
        entries = random_entries(rng, rng.randrange(5, 40), ips, ports)
        index = build_index(entries)
        for _ in range(200):
            key = FlowKey(rng.choice(ips), rng.choice(ips),
                          rng.choice(ports), rng.choice(ports), 6)
            assert match_flow(index, key) is scan_oracle(entries, key)


def test_adding_entries_never_weakens_winner():
    rng = random.Random(99)
    ips = [f"10.2.0.{i}" for i in range(4)]
    ports = [80, 443]
    entries = random_entries(rng, 30, ips, ports)
    keys = [FlowKey(rng.choice(ips), rng.choice(ips),
                    rng.choice(ports), rng.choice(ports), 6)
            for _ in range(100)]

    def rank(e):
        if e is None:
            return (0, 0)
        count = sum(x is not None for x in (e.sip, e.dip, e.sport, e.dport))
        bits = (8 if e.dip is not None else 0) | (4 if e.sip is not None else 0) \
            | (2 if e.dport is not None else 0) | (1 if e.sport is not None else 0)
        return (count, bits)

    ranks_by_stage = []
    for n in range(0, 31, 10):
        index = build_index(entries[:n])
        ranks_by_stage.append([rank(match_flow(index, k)) for k in keys])
    for earlier, later in zip(ranks_by_stage, ranks_by_stage[1:]):
        for a, b in zip(earlier, later):
            assert b >= a


def presence_pattern(entries, key):
    """The attributes of `key` whose value some entry uses, as dip/sip/
    dport/sport bits 8/4/2/1."""
    used = [{getattr(e, name) for e in entries} - {None}
            for name in ("dip", "sip", "dport", "sport")]
    values = (key.dst_ip, key.src_ip, key.dst_port, key.src_port)
    return sum(bit for bit, u, v in zip((8, 4, 2, 1), used, values) if v in u)


def test_presence_filter_probes_only_tables_it_can_hit():
    rng = random.Random(1999)
    ips = [f"10.5.0.{i}" for i in range(6)]
    ports = [22, 80, 443, 8080]
    for _round in range(20):
        entries = random_entries(rng, rng.randrange(1, 12), ips[:4], ports[:3])
        index = build_index(entries)
        for pattern in range(16):
            expected = [index.maps[m] for m in _MASKS if index.maps[m] and m & ~pattern == 0]
            assert [table for _project, table in index.probes[pattern]] == expected
        keys = [FlowKey(rng.choice(ips), rng.choice(ips), rng.choice(ports),
                        rng.choice(ports), 6) for _ in range(50)]
        # a probe list per pattern whose only table answers with the pattern
        index.probes = tuple(((lambda key: "any", {"any": p}),) for p in range(16))
        for key in keys:
            assert match_flow(index, key) == presence_pattern(entries, key)


def test_label_flows_pulls_one_flow_per_row():
    rng = random.Random(7)
    ips = [f"10.3.0.{i}" for i in range(5)]
    ports = [80, 443, 53]
    index = build_index(random_entries(rng, 25, ips, ports))
    flows = [make_flow(src=rng.choice(ips), dst=rng.choice(ips),
                       sport=rng.choice(ports), dport=rng.choice(ports))
             for _ in range(500)]
    pulled = 0

    def source():
        nonlocal pulled
        for flow in flows:
            pulled += 1
            yield flow

    stats = LabelStats()
    out = []
    for n, labeled in enumerate(label_flows(source(), index, stats=stats), start=1):
        assert pulled == n     # nothing read ahead of the row being yielded
        out.append(labeled)
    assert out == [label_one(f, index) for f in flows]

    expected = LabelStats()
    for labeled in out:
        w = match_flow(index, labeled.flow.key)
        expected.add(labeled, sum(x is not None for x in (w.sip, w.dip, w.sport, w.dport))
                     if w else 0)
    assert stats == expected


def _optional(values):
    return st.none() | st.sampled_from(values)


_IPS = ["10.4.0.1", "10.4.0.2", "10.4.0.3"]
_PORTS = [53, 80, 443]


@st.composite
def _logs(draw):
    """Entries with random non-empty attribute subsets, drawn from a small
    value pool so that many collide, numbered in a random file order."""
    rows = draw(st.lists(
        st.tuples(_optional(_IPS), _optional(_PORTS), _optional(_IPS), _optional(_PORTS))
        .filter(lambda row: any(v is not None for v in row)),
        max_size=30))
    orders = draw(st.permutations(range(len(rows))))
    return [make_entry(sip=sip, sport=sport, dip=dip, dport=dport,
                       taxonomy=f"t{order}", file_order=order)
            for (sip, sport, dip, dport), order in zip(rows, orders)]


# one address and one port that no rule uses, so flows draw attributes
# the presence filter finds absent from the log
_KEY_IPS = [*_IPS, "10.4.0.99"]
_KEY_PORTS = [*_PORTS, 8080]
_KEYS = st.builds(FlowKey, st.sampled_from(_KEY_IPS), st.sampled_from(_KEY_IPS),
                  st.sampled_from(_KEY_PORTS), st.sampled_from(_KEY_PORTS), st.just(6))


@settings(max_examples=300, deadline=None)
@given(entries=_logs(), keys=st.lists(_KEYS, min_size=1, max_size=20))
def test_first_hit_equals_scan_oracle(entries, keys):
    index = build_index(entries)
    for key in keys:
        assert match_flow(index, key) is scan_oracle(entries, key)
