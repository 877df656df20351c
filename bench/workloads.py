"""Seeded inputs for the three benchmark workloads.

Every byte the program reads is built here from the wire layouts (libpcap
file format, Ethernet with optional 802.1Q tag, IPv4, IPv6, TCP, UDP,
ICMP) and from the CSV layouts the README documents.  Nothing is imported
from `flowlabel`, so the inputs and the ground truth cannot share a bug
with the code under test.

The same (workload, seed, scale) always gives byte-identical files.
"""

from __future__ import annotations

import gzip
import random
import socket
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

START_MS = 1_530_453_600_000   # 2018-07-01 14:00 UTC, the MAWI sample day

TCP, UDP, ICMP, ICMP6 = 6, 17, 1, 58
F, S, R, P, A = 0x01, 0x02, 0x04, 0x08, 0x10
FLAG_LETTERS = ((0x01, "F"), (0x02, "S"), (0x04, "R"), (0x08, "P"),
                (0x10, "A"), (0x20, "U"), (0x40, "E"), (0x80, "C"))

# Attribute-subset bits, ordered like the labeler's precedence weight.
DIP, SIP, DPORT, SPORT = 8, 4, 2, 1
ALL_MASKS = tuple(range(1, 16))

LOG_HEADER = ("sip", "sport", "dip", "dport", "taxonomy", "heuristic",
              "distance", "nbDetectors", "label")
TRAFFIC_HEADER = ("sIP", "dIP", "sPort", "dPort", "proto", "packets", "bytes",
                  "flags", "sTime", "durat", "eTime", "sen", "in", "out",
                  "nhIP", "senClass", "typeFlow", "iType", "iCode",
                  "initialF", "sessionF", "attribut", "appli")
TAXONOMIES = ("sYNscan", "ntscACK", "alphflHTTP", "ptmpHTTP", "dos",
              "netscanUDP", "ntscICMP", "unknown")
HEURISTICS = (1, 2, 10, 20, 51, 52, 53, 100, 101, 200)
SCAN_PORTS = (22, 23, 80, 443, 445, 3389, 8080)

# The one measured figure about real traffic in this repository: on the
# MAWI trace of 2018-07-01 14:00, the flows from source port 443 that the
# log's lone source-port-443 rule classes unsure are 23.5 % of the labeled
# dataset (README, "MAWI sample day").  short-flows and relabel draw this
# share of their flows as replies from port 443, and their logs carry that
# rule, so about this share of rows comes out unsure through it.
SPORT_443_SHARE = 0.235

# Every other share and size below is an unverified assumption, chosen so
# that each code path runs, not measured on real traffic: the scan, port-80
# reply and background shares, the protocol, IPv6, VLAN and non-IP shares,
# packets per flow, IP lengths, the log's subset weights, notice share and
# match shares.

# Sizes per workload; "smoke" is the tiny variant used by --smoke.
SIZES = {
    "short-flows": {"full": {"flows": 24_000, "log_rows": 3_000},
                    "smoke": {"flows": 600, "log_rows": 150}},
    "long-flows": {"full": {"flows": 2_000, "log_rows": 20},
                   "smoke": {"flows": 40, "log_rows": 10}},
    "relabel": {"full": {"flows": 40_000, "log_rows": 30_000},
                "smoke": {"flows": 1_000, "log_rows": 1_500}},
}
WORKLOADS = tuple(SIZES)


def mask_name(mask: int) -> str:
    names = [n for bit, n in ((DIP, "dip"), (SIP, "sip"), (DPORT, "dport"),
                              (SPORT, "sport")) if mask & bit]
    return "+".join(names)


def flags_text(bits: int) -> str:
    return "".join(letter for bit, letter in FLAG_LETTERS if bits & bit)


@dataclass
class Flow:
    """One generated unidirectional flow and its packets
    (ts_ms, tcp_flags, ip_len, icmp_type, icmp_code), in time order."""
    sip: str
    dip: str
    sport: int
    dport: int
    proto: int
    v6: bool
    vlan: bool
    packets: list = field(default_factory=list)
    cut: bool = False   # one idle gap long enough to split it in two


@dataclass
class Prepared:
    """A workload ready to run: the CLI arguments, where its outputs land,
    and what the generator knows must come out."""
    name: str
    argv: list
    out_dir: Path           # holds every output and nothing else
    log_path: Path
    gz_inputs: list
    truth: dict             # records_in, packets, bytes, flows
    properties: dict


# ---------------------------------------------------------------------------
# traffic models

class _AddressPool:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def v4(self, net: int, count: int) -> list[str]:
        base = 0x0A000000 | (net << 16)   # 10.<net>.x.y
        picks = self.rng.sample(range(1, 65_000), count)
        return [socket.inet_ntop(socket.AF_INET, struct.pack("!I", base + p))
                for p in picks]

    def v6(self, net: int, count: int) -> list[str]:
        picks = self.rng.sample(range(1, 1 << 20), count)
        return [socket.inet_ntop(socket.AF_INET6,
                                 struct.pack("!HHHHQ", 0x2001, 0x0db8, net, 0, p))
                for p in picks]


def _short_flows(rng: random.Random, n_flows: int, span_ms: int) -> list[Flow]:
    """Backbone-style mix: HTTPS servers answering from port 443 with one to
    three packets (SPORT_443_SHARE of the flows), scanners sending one SYN
    per target (30 %), HTTP servers answering from port 80 (5 %), and
    background TCP, UDP and ICMP with one or two packets per flow.  About
    5 % of flows are IPv6 and 5 % VLAN-tagged.  The 443 replies come from
    many servers, so the few log rows built on one of them take few flows
    from the lone port-443 rule.  Five-tuples are unique and no flow lasts
    longer than 2 s, so no timeout splits a flow."""
    pool = _AddressPool(rng)
    scanners = pool.v4(1, 32)
    servers = pool.v4(2, 5_000)
    clients = pool.v4(3, 20_000)
    targets = pool.v4(4, 20_000)
    v6_hosts = pool.v6(5, 4_000)
    seen = set()
    flows = []
    while len(flows) < n_flows:
        kind = rng.random()
        v6 = rng.random() < 0.05
        if kind < SPORT_443_SHARE + 0.05:    # server reply from 443, or 80
            sip = rng.choice(v6_hosts if v6 else servers)
            dip = rng.choice(v6_hosts if v6 else clients)
            proto, dport = TCP, rng.randrange(1024, 65536)
            sport = 443 if kind < SPORT_443_SHARE else 80
            shape = [S | A] + [A] * rng.choice((0, 0, 1, 2))
        elif kind < SPORT_443_SHARE + 0.35:  # scan: one SYN
            sip = rng.choice(v6_hosts[:20] if v6 else scanners)
            dip = rng.choice(v6_hosts if v6 else targets)
            proto, sport, dport = TCP, rng.randrange(1024, 65536), rng.choice(SCAN_PORTS)
            shape = [S]
        else:                                # background
            sip = rng.choice(v6_hosts if v6 else clients)
            dip = rng.choice(v6_hosts if v6 else targets)
            r = rng.random()
            if r < 0.55:
                proto, sport, dport = TCP, rng.randrange(1024, 65536), rng.choice((80, 443, 25, 8080, rng.randrange(1, 65536)))
                shape = [rng.choice((S, A, P | A, F | A, R, R | A))] + [A] * rng.choice((0, 0, 1))
            elif r < 0.85:
                proto, sport, dport = UDP, rng.randrange(1024, 65536), rng.choice((53, 123, 443, rng.randrange(1, 65536)))
                shape = [0] * rng.choice((1, 1, 2))
            else:
                proto, sport, dport = (ICMP6 if v6 else ICMP), 0, 0
                shape = [0] * rng.choice((1, 1, 2))
        if sip == dip or (sip, dip, sport, dport, proto) in seen:
            continue
        seen.add((sip, dip, sport, dport, proto))
        flow = Flow(sip, dip, sport, dport, proto, v6, rng.random() < 0.05)
        ts = START_MS + rng.randrange(span_ms)
        for flags in shape:
            flow.packets.append(_packet(rng, flow, ts, flags))
            ts += rng.randrange(0, 1_000)
        flows.append(flow)
    return flows


def _long_flows(rng: random.Random, n_flows: int, span_ms: int) -> list[Flow]:
    """Concurrent bulk transfers of 80 to 120 packets each, spread over the
    whole trace.  One flow in ten pauses for 35 to 45 s, longer than the
    default 30 s idle timeout, so the aggregator cuts it in two."""
    pool = _AddressPool(rng)
    hosts = pool.v4(6, 400)
    seen = set()
    flows = []
    while len(flows) < n_flows:
        sip, dip = rng.sample(hosts, 2)
        proto = TCP if rng.random() < 0.8 else UDP
        sport = rng.randrange(1024, 65536)
        dport = rng.choice((80, 443, 22, 873, rng.randrange(1024, 65536)))
        if (sip, dip, sport, dport, proto) in seen:
            continue
        seen.add((sip, dip, sport, dport, proto))
        flow = Flow(sip, dip, sport, dport, proto, False, rng.random() < 0.05)
        n = rng.randrange(80, 121)
        flow.cut = rng.random() < 0.10
        gap_at = rng.randrange(20, n - 20) if flow.cut else -1
        step = (span_ms - 50_000) // n
        ts = START_MS + rng.randrange(0, 10_000)
        for i in range(n):
            flags = (S if i == 0 else F | A if i == n - 1 else A) if proto == TCP else 0
            flow.packets.append(_packet(rng, flow, ts, flags))
            ts += 35_000 + rng.randrange(10_000) if i == gap_at else rng.randrange(1, 2 * step)
        flows.append(flow)
    return flows


def _packet(rng: random.Random, flow: Flow, ts: int, flags: int) -> tuple:
    floor = (40 if flow.v6 else 20) + (20 if flow.proto == TCP else 8)
    ip_len = floor + rng.choice((0, 0, 12, 40, 512, 1420))
    if flow.proto in (ICMP, ICMP6):
        itype, icode = rng.choice(((8, 0), (3, 3), (11, 0))) if flow.proto == ICMP else (128, 0)
        return ts, 0, ip_len, itype, icode
    return ts, flags, ip_len, None, None


def _truth(flows: list[Flow]) -> dict:
    return {
        "packets": sum(len(f.packets) for f in flows),
        "bytes": sum(p[2] for f in flows for p in f.packets),
        "flows": sum(2 if f.cut else 1 for f in flows),
    }


def _traffic_properties(flows: list[Flow], non_ip: int) -> dict:
    truth = _truth(flows)
    protos = Counter({TCP: "tcp", UDP: "udp", ICMP: "icmp", ICMP6: "icmp"}[f.proto]
                     for f in flows)
    n = len(flows)
    return {
        "packets": truth["packets"],
        "non_ip_frames": non_ip,
        "flows": truth["flows"],
        "pkts_per_flow": round(truth["packets"] / truth["flows"], 3),
        "single_packet_flow_share": round(sum(len(f.packets) == 1 for f in flows) / n, 4),
        "ipv6_flow_share": round(sum(f.v6 for f in flows) / n, 4),
        "vlan_flow_share": round(sum(f.vlan for f in flows) / n, 4),
        "idle_cut_flow_share": round(sum(f.cut for f in flows) / n, 4),
        "proto_flow_share": {k: round(v / n, 4) for k, v in sorted(protos.items())},
    }


# ---------------------------------------------------------------------------
# capture bytes

_MAC = b"\x02\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x02"
_ARP = struct.pack("!HHBBH", 1, 0x0800, 6, 4, 1) + bytes(20)


def _frame(flow: Flow, src: bytes, dst: bytes, pkt: tuple) -> tuple[bytes, int]:
    """Ethernet frame truncated after the transport header, like a
    snaplen-limited backbone capture; the IP length field carries the
    real size.  Returns (captured bytes, original frame length)."""
    _ts, flags, ip_len, itype, icode = pkt
    if flow.proto == TCP:
        l4 = struct.pack("!HHIIBBHHH", flow.sport, flow.dport, 1, 0, 0x50, flags, 8192, 0, 0)
    elif flow.proto == UDP:
        l4 = struct.pack("!HHHH", flow.sport, flow.dport, ip_len - (40 if flow.v6 else 20), 0)
    else:
        l4 = struct.pack("!BBHI", itype, icode, 0, 0)
    if flow.v6:
        ip = struct.pack("!IHBB16s16s", 6 << 28, ip_len - 40, flow.proto, 64, src, dst)
        ethertype = 0x86DD
    else:
        ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, ip_len, 0, 0, 64, flow.proto, 0, src, dst)
        ethertype = 0x0800
    link = _MAC + (struct.pack("!HH", 0x8100, 7) if flow.vlan else b"") + struct.pack("!H", ethertype)
    return link + ip + l4, len(link) + ip_len


def _pcap_bytes(rng: random.Random, flows: list[Flow], non_ip_share: float) -> tuple[bytes, int]:
    """Classic little-endian microsecond pcap of every packet in time
    order, with ARP frames (not IP, so skipped by a decoder) sprinkled in.
    Returns the file bytes and the number of ARP frames."""
    events = []
    for order, flow in enumerate(flows):
        family = socket.AF_INET6 if flow.v6 else socket.AF_INET
        src, dst = socket.inet_pton(family, flow.sip), socket.inet_pton(family, flow.dip)
        for pkt in flow.packets:
            events.append((pkt[0], order, flow, src, dst, pkt))
    events.sort(key=lambda e: (e[0], e[1]))
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 96, 1)]
    record = struct.Struct("<IIII")
    non_ip = 0
    for ts, _order, flow, src, dst, pkt in events:
        if rng.random() < non_ip_share:
            arp = _MAC + b"\x08\x06" + _ARP
            out.append(record.pack(ts // 1000, (ts % 1000) * 1000, len(arp), len(arp)))
            out.append(arp)
            non_ip += 1
        data, orig = _frame(flow, src, dst, pkt)
        out.append(record.pack(ts // 1000, (ts % 1000) * 1000, len(data), orig))
        out.append(data)
    return b"".join(out), non_ip


def _traffic_csv(flows: list[Flow]) -> str:
    """The 23-column unlabeled flow file `extract` writes (times in ms),
    ordered by end time like the aggregator emits it."""
    rows = [",".join(TRAFFIC_HEADER)]
    for f in sorted(flows, key=lambda f: (f.packets[-1][0], f.packets[0][0])):
        first, last = f.packets[0], f.packets[-1]
        union = rest = 0
        for p in f.packets:
            union |= p[1]
        for p in f.packets[1:]:
            rest |= p[1]
        icmp = first[3] is not None
        rows.append(",".join(map(str, (
            f.sip, f.dip, f.sport, f.dport, f.proto, len(f.packets),
            sum(p[2] for p in f.packets), flags_text(union), first[0],
            last[0] - first[0], last[0], 0, 0, 0, 0, "", "",
            first[3] if icmp else "", first[4] if icmp else "",
            flags_text(first[1]), flags_text(rest), "", ""))))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# anomaly logs

# Rows drawn per attribute subset.  Single-port subsets get few rows: one
# popular port alone would class most of the trace as unsure.
_MASK_WEIGHT = {m: 10 for m in ALL_MASKS}
_MASK_WEIGHT.update({SPORT: 1, DPORT: 1, SIP: 14, DIP: 14, SIP | DPORT: 16, DIP | DPORT: 14})


def _log_csv(rng: random.Random, flows: list[Flow], n_rows: int,
             match_share: float) -> tuple[str, dict]:
    """MAWILab-style log over all 15 attribute subsets.  A `match_share`
    of the rows project a real flow onto the subset; the rest, and every
    single-port row, carry addresses and ports drawn at random.  One row in
    ten is labeled notice (ignored by default), and one row is the single
    source-port-443 rule that makes every otherwise unmatched flow from
    port 443 unsure.  Rows are not projected from flows with source port
    443, so that rule keeps close to SPORT_443_SHARE of the flows.  Empty
    cells and `null` both mean "not specified"."""
    sources = [f for f in flows if f.sport != 443]
    masks = list(_MASK_WEIGHT)
    weights = [_MASK_WEIGHT[m] for m in masks]
    filler_v4 = _AddressPool(rng).v4(200, 4_000)
    filler_v6 = _AddressPool(rng).v6(0xFFFF, 400)
    rows = [",".join(LOG_HEADER)]
    per_mask = Counter()
    labels = Counter()
    rule_443_at = n_rows // 2
    for i in range(n_rows):
        if i == rule_443_at:
            mask, values = SPORT, (None, 443, None, None)
            label = "anomalous"
        else:
            mask = rng.choices(masks, weights)[0]
            if mask not in (SPORT, DPORT) and rng.random() < match_share:
                f = rng.choice(sources)
                sip, sport, dip, dport = f.sip, f.sport, f.dip, f.dport
            else:
                pool = filler_v6 if rng.random() < 0.05 else filler_v4
                sip, dip = rng.choice(pool), rng.choice(pool)
                sport, dport = rng.randrange(1, 65536), rng.randrange(1, 65536)
            values = (sip if mask & SIP else None, sport if mask & SPORT else None,
                      dip if mask & DIP else None, dport if mask & DPORT else None)
            label = "notice" if rng.random() < 0.10 else rng.choice(("anomalous", "suspicious"))
        labels[label] += 1
        if label != "notice":
            per_mask[mask_name(mask)] += 1
        cells = ["null" if v is None and rng.random() < 0.5 else "" if v is None else str(v)
                 for v in values]
        cells += [rng.choice(TAXONOMIES), str(rng.choice(HEURISTICS)),
                  repr(round(rng.uniform(0.0, 10.0), 3)), str(rng.randrange(1, 5)), label]
        rows.append(",".join(cells))
    props = {
        "log_rows": n_rows,
        "log_rows_by_label": dict(sorted(labels.items())),
        "log_rules_per_subset": {mask_name(m): per_mask[mask_name(m)] for m in ALL_MASKS},
        "log_match_share": match_share,
    }
    return "\n".join(rows) + "\n", props


# ---------------------------------------------------------------------------
# workloads

def prepare(name: str, seed: int, root: Path, scale: str = "full") -> Prepared:
    """Write the inputs of workload `name` under `root` and describe how
    to run it.  CLI paths are absolute so the child's working directory
    does not matter."""
    size = SIZES[name][scale]
    rng = random.Random(f"{name}:{seed}:{scale}")
    inputs = root / "in"
    out_dir = root / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)

    if name == "short-flows":
        flows = _short_flows(rng, size["flows"], span_ms=60_000)
        pcap, non_ip = _pcap_bytes(rng, flows, non_ip_share=0.01)
        trace = inputs / "trace.pcap.gz"
        trace.write_bytes(gzip.compress(pcap, compresslevel=6, mtime=0))
        log_text, log_props = _log_csv(rng, flows, size["log_rows"], match_share=0.6)
        log = inputs / "log.csv"
        argv = ["pipeline", "-i", str(trace), "-c", str(log), "-o", str(out_dir), "-n", "5"]
        gz = [trace]
        truth = _truth(flows)
        truth["records_in"] = truth["packets"]
        props = {**_traffic_properties(flows, non_ip), "input": "pcap", "gzip": True}
    elif name == "long-flows":
        flows = _long_flows(rng, size["flows"], span_ms=180_000)
        pcap, non_ip = _pcap_bytes(rng, flows, non_ip_share=0.0)
        trace = inputs / "trace.pcap"
        trace.write_bytes(pcap)
        log_text, log_props = _log_csv(rng, flows, size["log_rows"], match_share=0.5)
        log = inputs / "small_log.csv"
        argv = ["pipeline", "-i", str(trace), "-c", str(log), "-o", str(out_dir / "out.csv")]
        gz = []
        truth = _truth(flows)
        truth["records_in"] = truth["packets"]
        props = {**_traffic_properties(flows, non_ip), "input": "pcap", "gzip": False}
    elif name == "relabel":
        flows = _short_flows(rng, size["flows"], span_ms=60_000)
        flow_file = inputs / "flows.csv.gz"
        flow_file.write_bytes(gzip.compress(_traffic_csv(flows).encode(), compresslevel=6, mtime=0))
        # ten times the short-flows log, with about as many matching rows
        log_text, log_props = _log_csv(rng, flows, size["log_rows"], match_share=0.06)
        log = inputs / "big_log.csv"
        argv = ["label", "-i", str(flow_file), "-c", str(log),
                "-o", str(out_dir / "out.csv.gz"), "--sec"]
        gz = [flow_file]
        truth = _truth(flows)
        truth["records_in"] = truth["flows"]
        props = {**_traffic_properties(flows, 0), "input": "flow csv", "gzip": True}
        del props["non_ip_frames"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    log.write_text(log_text, encoding="utf-8")
    return Prepared(name, argv, out_dir, log, gz, truth, {**props, **log_props})

