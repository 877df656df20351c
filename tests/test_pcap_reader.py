"""pcap reader tests against hand-crafted capture bytes (see packetcraft)."""

from __future__ import annotations

import gzip
import os
import random
import struct
import threading
import tracemalloc
import zlib

import pytest

import packetcraft as pc
from flowlabel import (AggregationConfig, FlowKey, NotPcapError, TruncatedFileError,
                       UnsupportedLinkTypeError, build_flows, open_capture)
from flowlabel import pcap_reader
from flowlabel.errors import InputFormatError
from flowlabel.flow_builder import MODE_PER_PACKET
from flowlabel.pcap_reader import TCP_ACK, TCP_FIN, TCP_PSH, TCP_SYN, PacketRecord
from test_flow_builder import as_tuple, reference_flows


def write(tmp_path, data: bytes, name="trace.pcap"):
    p = tmp_path / name
    p.write_bytes(data)
    return p


def tcp_frame(flags=TCP_SYN, src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=80, **ip_kw):
    return pc.ethernet(pc.ipv4(src, dst, 6, pc.tcp(sport, dport, flags), **ip_kw))


def test_open_little_endian_ethernet(tmp_path):
    path = write(tmp_path, pc.pcap([(1, 0, tcp_frame())]))
    with open_capture(path) as reader:
        assert reader.linktype == 1
        assert not reader.nanosecond
        assert len(list(reader)) == 1


def test_random_bytes_not_pcap(tmp_path):
    path = write(tmp_path, b"\x8f\x3a\x01\xee\x52\x07\x99\xb0\x11\x42")
    with pytest.raises(NotPcapError):
        open_capture(path)


def test_truncated_global_header_not_pcap(tmp_path):
    path = write(tmp_path, pc.pcap([])[:17])
    with pytest.raises(NotPcapError):
        open_capture(path)


def test_short_global_header_names_the_file(tmp_path):
    path = write(tmp_path, pc.pcap([])[:17])
    with pytest.raises(NotPcapError) as err:
        open_capture(path)
    assert str(err.value) == f"{path}: file too short for a pcap global header (17 bytes)"


def test_unreadable_gzip_header_names_the_file(tmp_path):
    # a gzip magic with a bad compression method byte after it
    path = write(tmp_path, b"\x1f\x8b\x07" + bytes(40), "bad.pcap.gz")
    with pytest.raises(NotPcapError) as err:
        open_capture(path)
    assert str(err.value).startswith(f"{path}: unreadable gzip stream: ")


def test_nanosecond_magic_timestamp(tmp_path):
    # 2018-07-01 14:00:00 UTC plus 123456789 ns = ...123 in milliseconds
    path = write(tmp_path, pc.pcap([(1530453600, 123456789, tcp_frame())], nanos=True))
    with open_capture(path) as reader:
        assert reader.nanosecond
        (rec,) = list(reader)
    assert rec.ts_ms == 1530453600123


def test_microsecond_timestamp(tmp_path):
    path = write(tmp_path, pc.pcap([(1530453600, 123456, tcp_frame())]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.ts_ms == 1530453600123


def test_big_endian_decodes_identically(tmp_path):
    frame = tcp_frame(flags=TCP_SYN | TCP_ACK)
    little = write(tmp_path, pc.pcap([(7, 5000, frame)], endian="<"), "le.pcap")
    big = write(tmp_path, pc.pcap([(7, 5000, frame)], endian=">"), "be.pcap")
    with open_capture(little) as r1, open_capture(big) as r2:
        assert list(r1) == list(r2)


def test_ethernet_ipv4_tcp_syn_fields(tmp_path):
    # IP header claims 60 bytes total; the capture carries only the 40
    # header bytes (payload-stripped), and ip_len must still read 60.
    frame = tcp_frame(total_length=60)
    path = write(tmp_path, pc.pcap([(1530453600, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.src_ip == "10.0.0.1"
    assert rec.dst_ip == "10.0.0.2"
    assert rec.src_port == 1234
    assert rec.dst_port == 80
    assert rec.proto == 6
    assert rec.tcp_flags == TCP_SYN
    assert rec.ip_len == 60
    assert rec.icmp_type is None and rec.icmp_code is None


def test_arp_frame_skipped(tmp_path):
    path = write(tmp_path, pc.pcap([(1, 0, pc.ethernet(pc.arp_request(), pc.ETH_ARP))]))
    with open_capture(path) as reader:
        assert list(reader) == []
        assert reader.skipped == 1
        assert reader.decoded == 0
        assert reader.records_read == 1


_V6 = ("2001:db8::1", "2001:db8::2")


@pytest.mark.parametrize("linktype, frame, reason", [
    (1, pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 17, pc.udp(1, 2)), vlan=7)[:16],
     "short link header"),
    (113, pc.linux_cooked(b"")[:15], "short link header"),
    (101, b"", "short link header"),
    (101, b"\x55" + pc.ipv4("10.0.0.1", "10.0.0.2", 17, pc.udp(1, 2))[1:], "not IP"),
    (229, pc.ipv6(*_V6, 17, pc.udp(1, 2))[:39], "short IP header"),
    (229, pc.ipv6(*_V6, 0, b"\x06"), "short IP header"),
    (229, pc.ipv6(*_V6, 44, pc.ipv6_frag(17, 0)[:7]), "short IP header"),
    (229, pc.ipv6(*_V6, 0, pc.ipv6_ext(6, 1)[:8]), "short IP header"),
    (1, pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 1, pc.icmp(8, 0)[:3])),
     "short transport header"),
    (229, pc.ipv6(*_V6, 58, pc.icmp(128, 0)[:3]), "short transport header"),
    # ethertypes and link types are told apart: an 802.3 length field of
    # 228 is not IPv4, and a raw link's type overrides the version nibble
    (1, pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 17, pc.udp(1, 2)), 228), "not IP"),
    (228, pc.ipv6(*_V6, 17, pc.udp(1, 2)), "not IP"),
    (229, pc.ipv4("10.0.0.1", "10.0.0.2", 6, pc.tcp(1, 2, TCP_SYN)), "not IP"),
    # only Ethernet walks VLAN tags
    (113, pc.linux_cooked(struct.pack("!HH", 7, pc.ETH_IPV4)
                          + pc.ipv4("10.0.0.1", "10.0.0.2", 17, pc.udp(1, 2)), pc.ETH_VLAN),
     "not IP"),
], ids=["vlan-tag-cut", "sll-under-16", "raw-empty", "raw-version-5", "ipv6-under-40",
        "ipv6-ext-cut", "ipv6-frag-cut", "ipv6-ext-past-end", "icmp-under-4",
        "icmpv6-under-4", "ethertype-228", "linktype-228-ipv6", "linktype-229-ipv4",
        "sll-vlan"])
def test_each_skip_reason_branch(tmp_path, linktype, frame, reason):
    path = write(tmp_path, pc.pcap([(1, 0, frame)], linktype=linktype))
    with open_capture(path) as reader:
        assert list(reader) == []
        assert dict(reader.skip_reasons) == {reason: 1}
        assert reader.decoded == 0
        assert reader.decoded + reader.skipped == reader.records_read == 1


def test_icmp_echo_request(tmp_path):
    frame = pc.ethernet(pc.ipv4("192.0.2.9", "192.0.2.10", 1, pc.icmp(8, 0)))
    path = write(tmp_path, pc.pcap([(2, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 1
    assert rec.icmp_type == 8
    assert rec.icmp_code == 0
    assert rec.src_port == 0 and rec.dst_port == 0
    assert rec.tcp_flags == 0


def test_icmpv6_type_code(tmp_path):
    frame = pc.ethernet(pc.ipv6("2001:db8::1", "2001:db8::2", 58, pc.icmp(135, 0)), pc.ETH_IPV6)
    path = write(tmp_path, pc.pcap([(3, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 58
    assert rec.icmp_type == 135
    assert rec.src_ip == "2001:db8::1"


def test_udp_ports(tmp_path):
    frame = pc.ethernet(pc.ipv4("10.1.1.1", "10.1.1.2", 17, pc.udp(53, 5353)))
    path = write(tmp_path, pc.pcap([(4, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert (rec.src_port, rec.dst_port, rec.proto) == (53, 5353, 17)
    assert rec.tcp_flags == 0
    assert rec.icmp_type is None


def test_vlan_tag_unwrapped(tmp_path):
    frame = pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 6, pc.tcp(1, 2, TCP_SYN)), vlan=42)
    path = write(tmp_path, pc.pcap([(5, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 6 and rec.src_port == 1


def test_linux_cooked_link(tmp_path):
    frame = pc.linux_cooked(pc.ipv4("10.0.0.3", "10.0.0.4", 17, pc.udp(9, 10)))
    path = write(tmp_path, pc.pcap([(6, 0, frame)], linktype=113))
    with open_capture(path) as reader:
        assert reader.linktype == 113
        (rec,) = list(reader)
    assert rec.src_ip == "10.0.0.3" and rec.proto == 17


def test_raw_ip_linktypes(tmp_path):
    v4 = pc.ipv4("10.9.0.1", "10.9.0.2", 6, pc.tcp(5, 6, TCP_ACK))
    v6 = pc.ipv6("2001:db8::5", "2001:db8::6", 17, pc.udp(7, 8))
    for linktype, frame, src in ((101, v4, "10.9.0.1"), (228, v4, "10.9.0.1"),
                                 (101, v6, "2001:db8::5"), (229, v6, "2001:db8::5")):
        path = write(tmp_path, pc.pcap([(7, 0, frame)], linktype=linktype),
                     f"raw{linktype}_{src[:2]}.pcap")
        with open_capture(path) as reader:
            (rec,) = list(reader)
        assert rec.src_ip == src


def test_unsupported_linktype(tmp_path):
    path = write(tmp_path, pc.pcap([], linktype=105))
    with pytest.raises(UnsupportedLinkTypeError):
        open_capture(path)


def test_gzip_input(tmp_path):
    data = pc.pcap([(8, 0, tcp_frame())])
    path = write(tmp_path, gzip.compress(data), "trace.pcap.gz")
    with open_capture(path) as reader:
        assert len(list(reader)) == 1


def test_record_claims_more_than_remains(tmp_path):
    data = pc.pcap([]) + struct.pack("<IIII", 1, 0, 100, 100) + b"\x00" * 40
    path = write(tmp_path, data)
    with open_capture(path) as reader:
        with pytest.raises(TruncatedFileError):
            list(reader)


@pytest.mark.parametrize("name", ["trace.pcap", "trace.pcap.gz"])
def test_record_over_the_largest_snaplen_refused_unbuffered(tmp_path, monkeypatch, name):
    first = pc.pcap([(1, 0, tcp_frame())])
    data = first + struct.pack("<IIII", 2, 0, 0xFFFFFFF0, 0xFFFFFFF0) + bytes(1 << 20)
    path = write(tmp_path, gzip.compress(data, mtime=0) if name.endswith(".gz") else data, name)
    needs = []
    fill = pcap_reader.CaptureReader._fill

    def recording_fill(self, rest, need):
        needs.append(need)
        return fill(self, rest, need)

    monkeypatch.setattr(pcap_reader.CaptureReader, "_fill", recording_fill)
    with open_capture(path) as reader:
        with pytest.raises(InputFormatError) as err:
            list(reader)
    assert str(err.value) == (f"{path}: record 2 at byte {len(first)}: claims 4294967280 "
                              "bytes, more than the 262144 a record may hold")
    assert not isinstance(err.value, TruncatedFileError)
    assert needs and max(needs) <= 262144


def test_record_of_the_largest_snaplen_read(tmp_path):
    frame = tcp_frame() + bytes(262144 - len(tcp_frame()))
    path = write(tmp_path, pc.pcap([(1, 0, frame), (2, 0, tcp_frame())]))
    with open_capture(path) as reader:
        assert len(list(reader)) == 2


def test_record_one_byte_over_the_largest_snaplen_refused(tmp_path):
    frame = tcp_frame() + bytes(262145 - len(tcp_frame()))
    path = write(tmp_path, pc.pcap([(1, 0, tcp_frame()), (2, 0, frame)]))
    first = pc.pcap([(1, 0, tcp_frame())])
    with open_capture(path) as reader:
        with pytest.raises(InputFormatError) as err:
            list(reader)
    assert str(err.value) == (f"{path}: record 2 at byte {len(first)}: claims 262145 "
                              "bytes, more than the 262144 a record may hold")


def test_file_ends_inside_record_header(tmp_path):
    data = pc.pcap([(1, 0, tcp_frame())]) + b"\x01\x02\x03"
    path = write(tmp_path, data)
    with open_capture(path) as reader:
        with pytest.raises(TruncatedFileError):
            list(reader)


def test_short_capture_is_skipped_not_fatal(tmp_path):
    # honest incl_len, but only 14 bytes of frame: IP header is missing
    frame = tcp_frame()[:14]
    good = tcp_frame()
    path = write(tmp_path, pc.pcap([(1, 0, frame), (2, 0, good)]))
    with open_capture(path) as reader:
        recs = list(reader)
        assert len(recs) == 1
        assert reader.skipped == 1
        assert reader.records_read == 2


def test_ipv6_extension_header_walk(tmp_path):
    # hop-by-hop then routing, then TCP
    ext = pc.ipv6_ext(43, 0)          # hop-by-hop says next=routing
    ext2 = pc.ipv6_ext(6, 1)          # routing says next=TCP, 16 bytes long
    frame = pc.ethernet(pc.ipv6("2001:db8::a", "2001:db8::b", 0,
                                pc.tcp(1000, 2000, TCP_SYN), ext=ext + ext2), pc.ETH_IPV6)
    path = write(tmp_path, pc.pcap([(9, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 6
    assert (rec.src_port, rec.dst_port) == (1000, 2000)
    assert rec.ip_len == 40 + 8 + 16 + 20


def test_ipv6_first_fragment_has_ports(tmp_path):
    ext = pc.ipv6_frag(6, 0, more=True)
    frame = pc.ethernet(pc.ipv6("2001:db8::a", "2001:db8::b", 44,
                                pc.tcp(1000, 2000, TCP_SYN), ext=ext), pc.ETH_IPV6)
    path = write(tmp_path, pc.pcap([(10, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert (rec.src_port, rec.dst_port) == (1000, 2000)


def test_ipv6_later_fragment_ports_zero(tmp_path):
    ext = pc.ipv6_frag(6, 100, more=True)
    frame = pc.ethernet(pc.ipv6("2001:db8::a", "2001:db8::b", 44, b"\x00" * 32, ext=ext),
                        pc.ETH_IPV6)
    path = write(tmp_path, pc.pcap([(11, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 6
    assert (rec.src_port, rec.dst_port) == (0, 0)
    assert rec.tcp_flags == 0


def test_ipv6_fragment_at_offset_eight_bytes_ports_zero(tmp_path):
    # offset field 1, the least a later fragment holds; its payload would
    # read as ports 1000 -> 2000 with SYN if it were taken for a first one
    ext = pc.ipv6_frag(6, 1, more=True)
    frame = pc.ethernet(pc.ipv6("2001:db8::a", "2001:db8::b", 44,
                                pc.tcp(1000, 2000, TCP_SYN), ext=ext), pc.ETH_IPV6)
    path = write(tmp_path, pc.pcap([(12, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 6
    assert (rec.src_port, rec.dst_port) == (0, 0)
    assert rec.tcp_flags == 0


def test_ipv4_later_fragment_ports_zero(tmp_path):
    frame = pc.ethernet(pc.ipv4("10.2.0.1", "10.2.0.2", 17, b"\x00" * 24, frag_offset8=10))
    path = write(tmp_path, pc.pcap([(12, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 17
    assert (rec.src_port, rec.dst_port) == (0, 0)


def test_ipv4_first_fragment_has_ports(tmp_path):
    frame = pc.ethernet(pc.ipv4("10.2.0.1", "10.2.0.2", 17, pc.udp(60, 61),
                                more_fragments=True))
    path = write(tmp_path, pc.pcap([(13, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert (rec.src_port, rec.dst_port) == (60, 61)


def test_icmp_later_fragment_type_zero(tmp_path):
    frame = pc.ethernet(pc.ipv4("10.2.0.1", "10.2.0.2", 1, b"\x00" * 8, frag_offset8=3))
    path = write(tmp_path, pc.pcap([(14, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 1
    assert rec.icmp_type == 0 and rec.icmp_code == 0


def test_other_protocol_ports_zero(tmp_path):
    frame = pc.ethernet(pc.ipv4("10.3.0.1", "10.3.0.2", 47, b"\x00" * 16))
    path = write(tmp_path, pc.pcap([(15, 0, frame)]))
    with open_capture(path) as reader:
        (rec,) = list(reader)
    assert rec.proto == 47
    assert (rec.src_port, rec.dst_port) == (0, 0)
    assert rec.icmp_type is None


def test_empty_pcap_yields_nothing(tmp_path):
    path = write(tmp_path, pc.pcap([]))
    with open_capture(path) as reader:
        assert list(reader) == []
        assert reader.records_read == 0


def test_decoded_plus_skipped_equals_records(tmp_path):
    rng = random.Random(20180701)
    data, truth = pc.random_trace(rng, 600, arp_every=7)
    path = write(tmp_path, data)
    with open_capture(path) as reader:
        recs = list(reader)
    assert reader.records_read == 600
    assert reader.decoded + reader.skipped == reader.records_read
    assert len(recs) == len(truth)


def test_decode_matches_generator_ground_truth(tmp_path):
    rng = random.Random(42)
    data, truth = pc.random_trace(rng, 400)
    path = write(tmp_path, data)
    with open_capture(path) as reader:
        recs = list(reader)
    assert len(recs) == len(truth)
    for rec, want in zip(recs, truth):
        assert rec.ts_ms == want["ts_ms"]
        assert rec.src_ip == want["src_ip"]
        assert rec.dst_ip == want["dst_ip"]
        assert rec.src_port == want["src_port"]
        assert rec.dst_port == want["dst_port"]
        assert rec.proto == want["proto"]
        assert rec.ip_len == want["ip_len"]
        assert rec.tcp_flags == want["tcp_flags"]


def test_general_decoder_matches_generator_ground_truth(tmp_path, monkeypatch):
    # every frame through _decode_frame, whose ports, flags and ip_len the
    # fast-path differentials check only against the fast path
    monkeypatch.setattr(pcap_reader, "_FAST_MIN_LEN", float("inf"))
    test_decode_matches_generator_ground_truth(tmp_path)


def test_reading_twice_is_identical(tmp_path):
    rng = random.Random(7)
    data, _ = pc.random_trace(rng, 100)
    path = write(tmp_path, data)
    with open_capture(path) as r1, open_capture(path) as r2:
        assert list(r1) == list(r2)


def test_truncation_fuzz_never_panics(tmp_path):
    rng = random.Random(1234)
    data, _ = pc.random_trace(rng, 50, arp_every=9)
    cuts = sorted(rng.sample(range(1, len(data)), 120))
    for i, cut in enumerate(cuts):
        path = write(tmp_path, data[:cut], f"cut{i}.pcap")
        try:
            with open_capture(path) as reader:
                list(reader)
        except InputFormatError:
            pass   # clean, typed failure is the accepted outcome


def test_payload_truncation_fuzz_skips_cleanly(tmp_path):
    # honest incl_len but frames sliced short at every possible length:
    # decoder must skip or decode, never raise, with consistent counters
    frames = []
    base = tcp_frame()
    for cut in range(1, len(base)):
        frames.append((cut, 0, base[:cut]))
    frames.append((len(base), 0, base))
    path = write(tmp_path, pc.pcap(frames))
    with open_capture(path) as reader:
        recs = list(reader)
        assert reader.decoded + reader.skipped == reader.records_read == len(frames)
    assert len(recs) == reader.decoded


# ---------------------------------------------------------------------------
# the Ethernet/IPv4/TCP/UDP fast path against the general frame decoder

def differential_frames():
    v4 = lambda proto, seg, **kw: pc.ipv4("10.4.0.1", "10.4.0.2", proto, seg, **kw)
    tcp = pc.tcp(4000, 443, TCP_SYN | TCP_ACK)
    udp = pc.udp(53, 5353, b"\x00" * 12)
    frames = [
        pc.ethernet(v4(6, tcp)),
        pc.ethernet(v4(17, udp)),
        pc.ethernet(v4(6, tcp, total_length=1500)),
        pc.ethernet(v4(6, tcp, options=b"\x01\x01\x01\x00")),          # IHL 6
        pc.ethernet(v4(17, udp, options=b"\x01" * 40)),                # IHL 15
        pc.ethernet(v4(6, b"\x00" * 24, frag_offset8=10)),             # later fragments
        pc.ethernet(v4(17, b"\x12\x34" * 12, frag_offset8=0x1000)),
        pc.ethernet(v4(17, udp, more_fragments=True)),                 # first fragment
        pc.ethernet(v4(1, pc.icmp(8, 0))),
        pc.ethernet(v4(1, b"\x00" * 8, frag_offset8=3)),
        pc.ethernet(v4(47, b"\x00" * 16)),
        pc.ethernet(v4(6, tcp), vlan=7),
        pc.ethernet(v4(17, udp), vlan=7, outer_vlan=100),              # QinQ
        pc.ethernet(pc.ipv6("2001:db8::1", "2001:db8::2", 0, tcp,
                            ext=pc.ipv6_ext(60, 0) + pc.ipv6_ext(6, 1)), pc.ETH_IPV6),
        pc.ethernet(pc.ipv6("2001:db8::1", "2001:db8::2", 44, b"\x00" * 16,
                            ext=pc.ipv6_frag(17, 40)), pc.ETH_IPV6),
        pc.ethernet(pc.ipv6("2001:db8::1", "2001:db8::2", 58, pc.icmp(128, 0)), pc.ETH_IPV6),
        pc.ethernet(pc.arp_request(), pc.ETH_ARP),
    ]
    ihl4 = bytearray(pc.ethernet(v4(6, tcp)))
    ihl4[14] = 0x44                                                    # IHL < 5
    frames.append(bytes(ihl4))
    version6 = bytearray(pc.ethernet(v4(6, tcp)))
    version6[14] = 0x65                                                # IPv4 ethertype, version 6
    frames.append(bytes(version6))
    # every capture length through the link, IP and transport headers
    for whole in (pc.ethernet(v4(6, tcp)), pc.ethernet(v4(17, udp)),
                  pc.ethernet(v4(6, tcp, options=b"\x00" * 8))):
        frames.extend(whole[:cut] for cut in range(len(whole)))
    return frames


def frames_of(capture: bytes) -> list[bytes]:
    """The frame bytes of each record of a little-endian pcap."""
    frames = []
    off = 24
    while off < len(capture):
        incl_len = struct.unpack_from("<I", capture, off + 8)[0]
        frames.append(capture[off + 16:off + 16 + incl_len])
        off += 16 + incl_len
    return frames


@pytest.mark.parametrize("block", [None, 2], ids=["default-cap", "cap-2"])
def test_fast_path_matches_frame_decoder(tmp_path, monkeypatch, block):
    # with refills capped at 2 bytes nearly every record is cut by a refill
    # and carried over into the next buffer
    if block is not None:
        monkeypatch.setattr(pcap_reader, "_BLOCK", block)
    random_trace, _ = pc.random_trace(random.Random(99), 3000, arp_every=11)
    frames = differential_frames() + frames_of(random_trace)
    path = write(tmp_path, pc.pcap([(i, 250, f) for i, f in enumerate(frames)]))
    with open_capture(path) as fast, open_capture(path) as ref, open_capture(path) as text:
        keyed = fast._keyed()
        want = []
        for i, frame in enumerate(frames):
            item = ref._decode_frame(i * 1000, frame)
            if item is not None:
                # frame by frame: the keyed stream yields it from this record
                assert next(keyed) == item
                assert fast.records_read == i + 1
                assert fast.skip_reasons == ref.skip_reasons
                want.append(item)
        assert next(keyed, None) is None
        got = list(text)
        assert got == [PacketRecord(ts, *pcap_reader.render(key), *rest)
                       for ts, key, *rest in want]
        assert all(type(rec) is PacketRecord for rec in got)
        for reader in (fast, text):
            assert reader.records_read == len(frames)
            assert reader.decoded == len(want)
            assert reader.skipped == len(frames) - len(want)
            assert reader.skip_reasons == ref.skip_reasons
        assert set(ref.skip_reasons) == {"short link header", "not IP", "short IP header",
                                         "short transport header"}


def test_one_flow_whichever_decoder_path(tmp_path, monkeypatch):
    # one TCP 5-tuple: the fast path takes the untagged option-less packet,
    # the general decoder the VLAN, QinQ and IPv4-options ones; likewise
    # one ICMP flow (general decoder only) and one fragmented UDP flow,
    # whose first fragment takes the fast path and whose later ones carry
    # zero ports
    ip = [pc.ipv4("10.0.0.1", "10.0.0.2", 6, pc.tcp(1234, 80, flags), **kw)
          for flags, kw in [(TCP_SYN, {}), (TCP_ACK, {}), (TCP_PSH | TCP_ACK, {}),
                            (TCP_FIN | TCP_ACK, {"options": b"\x01" * 8})]]
    frames = [pc.ethernet(ip[0]), pc.ethernet(ip[1], vlan=7),
              pc.ethernet(ip[2], vlan=7, outer_vlan=100), pc.ethernet(ip[3])]
    icmp = [pc.ipv4("10.0.0.3", "10.0.0.4", 1, pc.icmp(8, 0)),
            pc.ipv4("10.0.0.3", "10.0.0.4", 1, pc.icmp(8, 0), options=b"\x01" * 4)]
    udp = [pc.ipv4("10.0.0.5", "10.0.0.6", 17, pc.udp(53, 5353, b"\x00" * 16),
                   more_fragments=True),
           pc.ipv4("10.0.0.5", "10.0.0.6", 17, b"\x00" * 16, frag_offset8=3, more_fragments=True),
           pc.ipv4("10.0.0.5", "10.0.0.6", 17, b"\x00" * 8, frag_offset8=5)]
    frames += [pc.ethernet(icmp[0]), pc.ethernet(icmp[1], vlan=7)]
    frames += [pc.ethernet(udp[0]), pc.ethernet(udp[1]), pc.ethernet(udp[2], vlan=7)]
    path = write(tmp_path, pc.pcap([(1, i * 1000, f) for i, f in enumerate(frames)]))
    general = []
    with open_capture(path) as reader:
        decode = reader._decode_frame
        monkeypatch.setattr(reader, "_decode_frame",
                            lambda ts_ms, data: general.append(data) or decode(ts_ms, data))
        tcp_flow, icmp_flow, first, later = build_flows(reader)
    assert general == frames[1:6] + frames[7:]
    assert tcp_flow.key == FlowKey("10.0.0.1", "10.0.0.2", 1234, 80, 6)
    assert tcp_flow.packets == 4
    assert tcp_flow.bytes == sum(map(len, ip))
    assert tcp_flow.flags == TCP_SYN | TCP_ACK | TCP_PSH | TCP_FIN
    assert (tcp_flow.stime_ms, tcp_flow.etime_ms) == (1000, 1003)
    assert icmp_flow.key == FlowKey("10.0.0.3", "10.0.0.4", 0, 0, 1)
    assert (icmp_flow.packets, icmp_flow.bytes) == (2, sum(map(len, icmp)))
    assert (icmp_flow.icmp_type, icmp_flow.icmp_code, icmp_flow.flags) == (8, 0, 0)
    assert first.key == FlowKey("10.0.0.5", "10.0.0.6", 53, 5353, 17)
    assert (first.packets, first.bytes) == (1, len(udp[0]))
    assert later.key == FlowKey("10.0.0.5", "10.0.0.6", 0, 0, 17)
    assert (later.packets, later.bytes) == (2, len(udp[1]) + len(udp[2]))
    assert (later.icmp_type, later.icmp_code) == (None, None)


@pytest.mark.parametrize("forced", [False, True], ids=["either-path", "general-decoder"])
def test_protocol_alone_tells_flows_apart(tmp_path, monkeypatch, forced):
    # between the same two hosts: TCP and UDP with equal ports, a later
    # fragment of each (zero ports) and an ICMP packet (zero ports), so
    # only the protocol tells the last three apart
    v4, v6, zeros = ("10.0.0.1", "10.0.0.2"), ("2001:db8::1", "2001:db8::2"), b"\x00" * 16
    packets = [
        (pc.ipv4(*v4, 6, pc.tcp(1234, 80, TCP_SYN)), FlowKey(*v4, 1234, 80, 6)),
        (pc.ipv4(*v4, 17, pc.udp(1234, 80)), FlowKey(*v4, 1234, 80, 17)),
        (pc.ipv4(*v4, 6, zeros, frag_offset8=3), FlowKey(*v4, 0, 0, 6)),
        (pc.ipv4(*v4, 17, zeros, frag_offset8=3), FlowKey(*v4, 0, 0, 17)),
        (pc.ipv4(*v4, 1, pc.icmp(8, 0)), FlowKey(*v4, 0, 0, 1)),
        (pc.ipv6(*v6, 6, pc.tcp(1234, 80, TCP_SYN)), FlowKey(*v6, 1234, 80, 6)),
        (pc.ipv6(*v6, 17, pc.udp(1234, 80)), FlowKey(*v6, 1234, 80, 17)),
        (pc.ipv6(*v6, 44, zeros, ext=pc.ipv6_frag(6, 3)), FlowKey(*v6, 0, 0, 6)),
        (pc.ipv6(*v6, 44, zeros, ext=pc.ipv6_frag(17, 3)), FlowKey(*v6, 0, 0, 17)),
        (pc.ipv6(*v6, 58, pc.icmp(128, 0)), FlowKey(*v6, 0, 0, 58)),
    ]
    frames = [pc.ethernet(ip, pc.ETH_IPV4 if ip[0] >> 4 == 4 else pc.ETH_IPV6)
              for ip, _ in packets]
    if forced:
        monkeypatch.setattr(pcap_reader, "_FAST_MIN_LEN", float("inf"))
    path = write(tmp_path, pc.pcap([(1, i * 1000, f) for i, f in enumerate(frames)]))
    general = []
    with open_capture(path) as reader:
        decode = reader._decode_frame
        monkeypatch.setattr(reader, "_decode_frame",
                            lambda ts_ms, data: general.append(data) or decode(ts_ms, data))
        flows = list(build_flows(reader))
    assert general == (frames if forced else frames[2:])
    assert [flow.key for flow in flows] == [key for _, key in packets]
    assert all(flow.packets == 1 for flow in flows)
    assert [(flow.icmp_type, flow.icmp_code) for flow in flows if flow.key.proto in (1, 58)] == [
        (8, 0), (128, 0)]


def test_mapped_and_dotted_addresses_stay_two_flows(tmp_path):
    frames = [pc.ethernet(pc.ipv6("::ffff:10.0.0.1", "::ffff:10.0.0.2", 6,
                                  pc.tcp(1234, 80, TCP_SYN)), pc.ETH_IPV6),
              tcp_frame(flags=TCP_ACK, src="10.0.0.1", dst="10.0.0.2"),
              pc.ethernet(pc.ipv6("::ffff:10.0.0.1", "::ffff:10.0.0.2", 6,
                                  pc.tcp(1234, 80, TCP_ACK)), pc.ETH_IPV6)]
    path = write(tmp_path, pc.pcap([(1, i * 1000, f) for i, f in enumerate(frames)]))
    with open_capture(path) as reader:
        dotted, mapped = build_flows(reader)
    assert dotted.key == FlowKey("10.0.0.1", "10.0.0.2", 1234, 80, 6)
    assert mapped.key == FlowKey("::ffff:10.0.0.1", "::ffff:10.0.0.2", 1234, 80, 6)
    assert (dotted.packets, mapped.packets) == (1, 2)
    assert (dotted.flags, mapped.flags) == (TCP_ACK, TCP_SYN | TCP_ACK)


@pytest.mark.parametrize("timeouts", [(300, 2000), (None, None)], ids=["finite", "disabled"])
@pytest.mark.parametrize("mode", ["aggregate", MODE_PER_PACKET])
def test_keyed_stream_flows_match_packet_record_flows(tmp_path, mode, timeouts):
    # build_flows over a reader aggregates its keyed stream, over a list of
    # PacketRecords their text 5-tuples; both must give the reference's flows
    rng = random.Random(f"keyed-{mode}-{timeouts}")
    random_trace, _ = pc.random_trace(rng, 2000, n_hosts=4, n_ports=2, arp_every=13)
    frames = differential_frames() + frames_of(random_trace)
    rng.shuffle(frames)
    ts = 1_530_453_600_000
    records = []
    for frame in frames:
        ts += rng.randrange(0, 200)
        records.append((*pc.ms_to_sec_us(ts), frame))
    path = write(tmp_path, pc.pcap(records))
    idle, active = timeouts
    cfg = AggregationConfig(mode=mode, idle_timeout_ms=idle, active_timeout_ms=active)
    with open_capture(path) as reader:
        packets = list(reader)
    want, out_of_order, peak = reference_flows(packets, cfg)
    assert out_of_order == 0
    for source in (lambda reader: reader, list):
        counters = {}
        with open_capture(path) as reader:
            got = [as_tuple(flow) for flow in build_flows(source(reader), cfg, counters)]
        assert got == want
        assert counters["peak_live_flows"] == peak
        assert "out_of_order" not in counters


# ---------------------------------------------------------------------------
# truncated captures: error class, message, and the packets yielded first

def complete_prefix(data: bytes) -> bytes:
    """The pcap global header plus every whole record at the start of data."""
    off = 24
    while off + 16 <= len(data):
        incl_len = struct.unpack_from("<I", data, off + 8)[0]
        if off + 16 + incl_len > len(data):
            break
        off += 16 + incl_len
    return data[:off]


def read_until_error(path):
    got = []
    with open_capture(path) as reader:
        try:
            for rec in reader:
                got.append(rec)
        except TruncatedFileError as exc:
            return got, str(exc), reader
    return got, None, reader


def test_plain_truncation_keeps_whole_records(tmp_path):
    rng = random.Random(4321)
    data, _ = pc.random_trace(rng, 400, arp_every=9)
    whole = write(tmp_path, data, "whole.pcap")
    with open_capture(whole) as reader:
        everything = list(reader)
    cuts = sorted(rng.sample(range(24, len(data)), 150))
    for i, cut in enumerate(cuts):
        cut_data = data[:cut]
        path = write(tmp_path, cut_data, f"cut{i}.pcap")
        got, message, _ = read_until_error(path)
        prefix = complete_prefix(cut_data)
        with open_capture(write(tmp_path, prefix, f"prefix{i}.pcap")) as reader:
            want = list(reader)
        assert got == want == everything[:len(want)]
        rest = len(cut_data) - len(prefix)
        where = f"{path}: record {reader.records_read + 1} at byte {len(prefix)}"
        if rest == 0:
            assert message is None
        elif rest < 16:
            assert message == f"{where}: file ends inside a packet record header"
        else:
            incl_len = struct.unpack_from("<I", cut_data, len(prefix) + 8)[0]
            assert message == f"{where}: claims {incl_len} bytes, only {rest - 16} remain"


@pytest.mark.parametrize("name", ["cut.pcap", "cut.pcap.gz"])
def test_truncation_names_record_and_stream_offset(tmp_path, name):
    # over two of the decoder's read blocks, so the offset spans refills;
    # a gzipped capture counts decompressed bytes
    data, _ = pc.random_trace(random.Random(1357), 8000)
    assert len(data) > 2 * 256 * 1024
    last = len(complete_prefix(data[:-1]))   # where the last record starts
    with open_capture(write(tmp_path, data[:last], "prefix.pcap")) as reader:
        list(reader)
    for cut in (last + 8, last + 20):        # inside its header, inside its frame
        packed = gzip.compress(data[:cut], mtime=0) if name.endswith(".gz") else data[:cut]
        path = write(tmp_path, packed, name)
        _, message, _ = read_until_error(path)
        assert message.startswith(f"{path}: record {reader.records_read + 1} at byte {last}: ")


def test_gzip_truncation_keeps_every_recoverable_record(tmp_path):
    # over two of the decoder's read blocks, so it refills mid-record
    rng = random.Random(2468)
    data, _ = pc.random_trace(rng, 8000, arp_every=13)
    assert len(data) > 2 * 256 * 1024
    packed = gzip.compress(data, mtime=0)
    cuts = sorted(rng.sample(range(10, len(packed)), 24)) + [len(packed) - 4, len(packed) - 1]
    for i, cut in enumerate(cuts):
        path = write(tmp_path, packed[:cut], f"cut{i}.pcap.gz")
        recovered = zlib.decompressobj(16 + zlib.MAX_WBITS).decompress(packed[:cut])
        if len(recovered) < 24:
            with pytest.raises(NotPcapError):
                open_capture(path)
            continue
        got, message, reader = read_until_error(path)
        prefix = complete_prefix(recovered)
        with open_capture(write(tmp_path, prefix, f"prefix{i}.pcap")) as ref:
            want = list(ref)
            assert (reader.records_read, reader.skipped) == (ref.records_read, ref.skipped)
        assert message == (f"{path}: record {ref.records_read + 1} at byte {len(prefix)}: "
                           "compressed stream ends early")
        assert got == want


@pytest.mark.parametrize("name", ["big.pcap", "big.pcap.gz"])
def test_keyed_stream_buffers_a_bounded_amount(tmp_path, name):
    # a refill holds the carried-over tail, the new chunks and their join,
    # not the spent block as well, so what the walk buffers does not grow
    # with the capture; IPv6 frames take the general decoder
    rng = random.Random(4096)
    frames = []
    for i in range(1600):
        udp = pc.udp(1024 + i, 53, rng.randbytes(1400))
        frames.append(pc.ethernet(pc.ipv6(*_V6, 17, udp), pc.ETH_IPV6) if i % 10 == 0 else
                      pc.ethernet(pc.ipv4("10.0.0.1", "10.0.0.2", 17, udp)))
    data = pc.pcap([(i, 0, frame) for i, frame in enumerate(frames)])
    assert len(data) > 2 * 1024 * 1024
    path = write(tmp_path, gzip.compress(data, mtime=0) if name.endswith(".gz") else data, name)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        with open_capture(path) as reader:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in reader._keyed():
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert reader.decoded == len(frames)
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("damage", ["crc", "trailing garbage"])
def test_gzip_bad_ending_raises_after_every_record(tmp_path, damage):
    data, _ = pc.random_trace(random.Random(11), 6000)
    packed = bytearray(gzip.compress(data, mtime=0))
    if damage == "crc":
        packed[-8] ^= 0xFF
    else:
        packed += b"not gzip"
    path = write(tmp_path, bytes(packed), "bad.pcap.gz")
    with open_capture(write(tmp_path, data, "good.pcap")) as reader:
        everything = list(reader)
    got = []
    with open_capture(path) as reader:
        with pytest.raises(InputFormatError) as info:
            for rec in reader:
                got.append(rec)
    assert str(info.value).startswith(f"{path}: record ")
    assert type(info.value.__cause__) is gzip.BadGzipFile
    assert got == everything


class _FailingStream:
    """A stream whose reads past the first `good` chunks raise EIO."""

    def __init__(self, fh, good):
        self._fh = fh
        self._good = good

    def peek(self, n):
        return self._fh.peek(n)

    def read1(self, n):
        if self._good == 0:
            raise OSError(5, "Input/output error")
        self._good -= 1
        return self._fh.read1(n)

    def close(self):
        self._fh.close()


def test_read_error_stays_an_os_error(tmp_path):
    # a device error is I/O trouble, not a damaged input
    data, _ = pc.random_trace(random.Random(11), 6000)
    with open_capture(write(tmp_path, data)) as reader:
        reader._fh = _FailingStream(reader._fh, 1)
        with pytest.raises(OSError) as info:
            list(reader)
    assert type(info.value) is OSError and info.value.errno == 5


def test_iteration_resumes_where_it_stopped(tmp_path):
    data, _ = pc.random_trace(random.Random(3), 50)
    path = write(tmp_path, data)
    with open_capture(path) as reader:
        everything = list(reader)
    with open_capture(path) as reader:
        head = [next(iter(reader)) for _ in range(5)]
        assert head + list(reader) == everything
        assert list(reader) == []


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
def test_capture_read_from_a_pipe(tmp_path, packed):
    # the gzip sniff must not consume bytes a pipe cannot give back
    data, _ = pc.random_trace(random.Random(5), 300)
    with open_capture(write(tmp_path, data)) as reader:
        everything = list(reader)
    payload = gzip.compress(data, mtime=0) if packed else data
    read_fd, write_fd = os.pipe()

    def feed():
        with open(write_fd, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with open_capture(f"/dev/fd/{read_fd}") as reader:
            assert list(reader) == everything
    finally:
        os.close(read_fd)   # a writer still blocked on a full pipe fails
        writer.join(timeout=10)


def record_by_record(path):
    """Reference reader: pull the global header, then each record header
    and body, from the gzip stream with its own read() call.  Returns the
    bytes read before the first error and the type of that error."""
    chunks = []
    with gzip.open(path, "rb") as fh:
        try:
            chunks.append(fh.read(24))
            while True:
                rec_head = fh.read(16)
                if len(rec_head) < 16:
                    return b"".join(chunks), None
                body = fh.read(struct.unpack_from("<I", rec_head, 8)[0])
                chunks.append(rec_head + body)
        except (EOFError, OSError, zlib.error) as exc:
            return b"".join(chunks), type(exc)


def test_gzip_corruption_fails_after_the_same_records(tmp_path):
    rng = random.Random(77)
    data, _ = pc.random_trace(rng, 8000)
    packed = gzip.compress(data, mtime=0)
    for i, at in enumerate(sorted(rng.sample(range(100, len(packed) - 600), 12))):
        bad = bytearray(packed)
        bad[at:at + 512] = b"\xff" * 512
        path = write(tmp_path, bytes(bad), f"bad{i}.pcap.gz")
        prefix, error = record_by_record(path)
        assert error is not None
        if not prefix:   # the damage is inflated with the global header
            with pytest.raises(NotPcapError) as info:
                open_capture(path)
            assert type(info.value.__cause__) is error
            continue
        with open_capture(write(tmp_path, prefix, f"prefix{i}.pcap")) as ref:
            want = list(ref)
        got = []
        with open_capture(path) as reader:
            with pytest.raises(Exception) as info:
                for rec in reader:
                    got.append(rec)
        assert got == want
        expected = TruncatedFileError if error is EOFError else InputFormatError
        assert type(info.value) is expected
        assert type(info.value.__cause__) is error
