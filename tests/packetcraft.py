"""Hand-built packet and capture bytes for tests.

Everything in this module is written straight from the on-wire header
layouts (libpcap file format, Ethernet, Linux cooked, IPv4/IPv6, TCP, UDP,
ICMP).  It deliberately shares no code with the package under test, so a
decoder bug cannot cancel out against an encoder bug.
"""

from __future__ import annotations

import random
import socket
import struct

ETH_IPV4 = 0x0800
ETH_ARP = 0x0806
ETH_VLAN = 0x8100
ETH_QINQ = 0x88A8
ETH_IPV6 = 0x86DD

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20
ECE = 0x40
CWR = 0x80

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D


# ---------------------------------------------------------------------------
# link layer

def ethernet(payload: bytes, ethertype: int = ETH_IPV4, vlan: int | None = None,
             outer_vlan: int | None = None) -> bytes:
    """Ethernet II frame; `vlan` adds an 802.1Q tag, `outer_vlan` an
    802.1ad (QinQ) tag in front of it."""
    hdr = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02"
    if outer_vlan is not None:
        hdr += struct.pack("!HH", ETH_QINQ, outer_vlan & 0x0FFF)
    if vlan is not None:
        hdr += struct.pack("!HH", ETH_VLAN, vlan & 0x0FFF)
    return hdr + struct.pack("!H", ethertype) + payload


def linux_cooked(payload: bytes, ethertype: int = ETH_IPV4) -> bytes:
    # SLL v1: packet type(2) ARPHRD(2) addr len(2) addr(8) protocol(2)
    return struct.pack("!HHH8sH", 0, 1, 6, b"\x02\x00\x00\x00\x00\x01\x00\x00", ethertype) + payload


def arp_request() -> bytes:
    return struct.pack("!HHBBH", 1, ETH_IPV4, 6, 4, 1) + b"\x00" * 20


# ---------------------------------------------------------------------------
# network layer

def ipv4(src: str, dst: str, proto: int, payload: bytes, *,
         total_length: int | None = None, frag_offset8: int = 0,
         more_fragments: bool = False, ttl: int = 64, options: bytes = b"") -> bytes:
    """IPv4 header per RFC 791.  frag_offset8 is the offset field value
    (units of 8 bytes).  total_length defaults to the real byte length but
    can be forced higher to model payload-stripped captures.  `options`
    (a multiple of 4 bytes) raises the header length above 20."""
    if len(options) % 4:
        raise ValueError("IPv4 options must be padded to 4-byte words")
    ihl_bytes = 20 + len(options)
    if total_length is None:
        total_length = ihl_bytes + len(payload)
    flags_frag = (0x2000 if more_fragments else 0) | (frag_offset8 & 0x1FFF)
    hdr = struct.pack(
        "!BBHHHBBH4s4s",
        (4 << 4) | (ihl_bytes // 4), 0, total_length, 0x1234, flags_frag, ttl, proto, 0,
        socket.inet_aton(src), socket.inet_aton(dst),
    )
    return hdr + options + payload


def ipv6(src: str, dst: str, next_header: int, payload: bytes, *,
         ext: bytes = b"", payload_length: int | None = None,
         hop_limit: int = 64) -> bytes:
    """IPv6 fixed header per RFC 8200; `ext` holds pre-built extension
    headers and `next_header` names the first header after the fixed one."""
    if payload_length is None:
        payload_length = len(ext) + len(payload)
    hdr = struct.pack(
        "!IHBB16s16s",
        6 << 28, payload_length, next_header, hop_limit,
        socket.inet_pton(socket.AF_INET6, src),
        socket.inet_pton(socket.AF_INET6, dst),
    )
    return hdr + ext + payload


def ipv6_ext(next_header: int, length_units: int = 0) -> bytes:
    """Generic hop-by-hop/routing/destination-options header: the length
    field counts 8-byte units beyond the first."""
    size = (length_units + 1) * 8
    return struct.pack("!BB", next_header, length_units) + b"\x00" * (size - 2)


def ipv6_frag(next_header: int, frag_offset: int, more: bool = False, ident: int = 7) -> bytes:
    field = ((frag_offset & 0x1FFF) << 3) | (1 if more else 0)
    return struct.pack("!BBHI", next_header, 0, field, ident)


# ---------------------------------------------------------------------------
# transport layer

def tcp(sport: int, dport: int, flags: int, *, seq: int = 1, window: int = 8192) -> bytes:
    return struct.pack("!HHIIBBHHH", sport, dport, seq, 0, 5 << 4, flags, window, 0, 0)


def udp(sport: int, dport: int, payload: bytes = b"") -> bytes:
    return struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload


def icmp(itype: int, code: int, rest: bytes = b"\x00\x00\x00\x00") -> bytes:
    return struct.pack("!BBH", itype, code, 0) + rest


# ---------------------------------------------------------------------------
# capture files

def pcap(packets, linktype: int = 1, *, endian: str = "<", nanos: bool = False,
         snaplen: int = 65535) -> bytes:
    """Serialize (ts_sec, ts_frac, frame_bytes[, orig_len]) tuples into a
    classic libpcap byte string."""
    magic = MAGIC_NANOS if nanos else MAGIC_MICROS
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)]
    for rec in packets:
        ts_sec, frac, data = rec[0], rec[1], rec[2]
        orig = rec[3] if len(rec) > 3 else len(data)
        out.append(struct.pack(endian + "IIII", ts_sec, frac, len(data), orig))
        out.append(data)
    return b"".join(out)


def ms_to_sec_us(ts_ms: int) -> tuple[int, int]:
    return ts_ms // 1000, (ts_ms % 1000) * 1000


def random_trace(rng: random.Random, n_packets: int, *, n_hosts: int = 8,
                 n_ports: int = 6, start_ms: int = 1_530_453_600_000,
                 max_step_ms: int = 50, arp_every: int = 0):
    """Build a pcap byte string of random TCP/UDP/ICMP traffic plus the
    ground truth the generator knows: a list of per-packet fact dicts for
    every decodable (non-ARP) frame, in file order."""
    hosts = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(n_hosts)]
    ports = [rng.randrange(1024, 65535) for _ in range(n_ports)] + [80, 443]
    frames = []
    truth = []
    ts = start_ms
    for i in range(n_packets):
        ts += rng.randrange(0, max_step_ms + 1)
        if arp_every and i % arp_every == arp_every - 1:
            frames.append((*ms_to_sec_us(ts), ethernet(arp_request(), ETH_ARP)))
            continue
        src, dst = rng.sample(hosts, 2)
        kind = rng.randrange(3)
        if kind == 0:
            sport, dport = rng.choice(ports), rng.choice(ports)
            flags = rng.randrange(256)
            seg = tcp(sport, dport, flags)
            proto = 6
        elif kind == 1:
            sport, dport = rng.choice(ports), rng.choice(ports)
            flags = 0
            seg = udp(sport, dport, b"\x00" * rng.randrange(0, 64))
            proto = 17
        else:
            sport = dport = 0
            flags = 0
            seg = icmp(8, 0)
            proto = 1
        pkt = ipv4(src, dst, proto, seg)
        frames.append((*ms_to_sec_us(ts), ethernet(pkt)))
        truth.append({
            "ts_ms": ts, "src_ip": src, "dst_ip": dst, "src_port": sport,
            "dst_port": dport, "proto": proto, "ip_len": len(pkt),
            "tcp_flags": flags if proto == 6 else 0,
        })
    return pcap(frames), truth
