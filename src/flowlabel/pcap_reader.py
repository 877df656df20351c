"""Stream-decode classic libpcap files into PacketRecord values.

Supports both file endiannesses, microsecond and nanosecond timestamp
magics, and transparent gzip input.  Link layers: Ethernet (including
802.1Q tags), Linux cooked capture, and raw IP.  Frames that are not
IPv4/IPv6, or whose captured bytes truncate a header we need, are skipped
and counted rather than treated as fatal.

Records are parsed out of blocks of 64 KiB (more when one record needs
it).  The spent block is let go before a refill, which holds only the
bytes it carries over, the new chunks and their join.  A record that claims
more than _MAX_RECORD bytes is refused unbuffered.  The common frame,
untagged Ethernet carrying an option-less IPv4 first fragment with its
whole TCP or UDP header, is decoded inline; every other frame goes through
the general decoder `_decode_frame`, which gives the same result for the
common frame.  It walks the frame by offsets, as BPF does: the link layer
gives the IP header's offset (14 plus 4 per tag, 16 for Linux cooked, 0
for raw IP) and version, the IP header the transport header's, and only
the key's bytes are copied out.
Both paths yield the items of `CaptureReader._keyed`, `(ts_ms, key, ip_len,
tcp_flags, icmp_type, icmp_code)`.  `key` is the packed 5-tuple as one
bytes object, `src + dst + sport + dport + proto`: 13 bytes for IPv4, 37
for IPv6, zero ports for ICMP and non-first fragments.  Only `render`
turns it into text.
"""

from __future__ import annotations

import gzip
import struct
import zlib
# socket.py only re-exports these from _socket, and importing it costs about 0.4 MB
from _socket import AF_INET, AF_INET6, inet_ntop
from collections import Counter
from typing import NamedTuple

from ._fileio import open_binary_read
from .errors import (InputFormatError, NotPcapError, TruncatedFileError,
                     UnsupportedLinkTypeError)

# TCP flag bits (RFC 793 + ECN), low bit first.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20
TCP_ECE = 0x40
TCP_CWR = 0x80

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
LINKTYPE_LINUX_SLL = 113
LINKTYPE_IPV4 = 228
LINKTYPE_IPV6 = 229

SUPPORTED_LINKTYPES = (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    LINKTYPE_LINUX_SLL,
    LINKTYPE_IPV4,
    LINKTYPE_IPV6,
)

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP6 = 58

_ETH_IPV4 = 0x0800
_ETH_IPV6 = 0x86DD
_ETH_VLAN = 0x8100
_ETH_QINQ = 0x88A8

# first 4 bytes of the file -> (struct byte order, nanosecond resolution)
_MAGICS = {
    b"\xd4\xc3\xb2\xa1": ("<", False),
    b"\xa1\xb2\xc3\xd4": (">", False),
    b"\x4d\x3c\xb2\xa1": ("<", True),
    b"\xa1\xb2\x3c\x4d": (">", True),
}

# IPv6 extension headers we walk through to reach the transport header.
_IPV6_EXT = (0, 43, 60)   # hop-by-hop, routing, destination options
_IPV6_FRAGMENT = 44

# The fast path's view of an untagged Ethernet frame from the ethertype on:
# ethertype, version/IHL, total length, flags/fragment offset, protocol.
# Source and destination address and the two ports that follow an IPv4
# header without options are frame bytes 26-37, its packed key but for
# the protocol byte.
_IPV4_OVER_ETH = struct.Struct("!HBxHxxHxB")
_FAST_MIN_LEN = 14 + 20 + 8   # Ethernet + IPv4 without options + UDP header
_FAST_TCP_LEN = 14 + 20 + 20   # the same with a TCP header
_NO_PORTS = bytes(4)
_PROTO_BYTE = [bytes((proto,)) for proto in range(256)]   # a key's last byte
# the shortest transport header decoded, by protocol
_TRANSPORT_MIN = {PROTO_TCP: 20, PROTO_UDP: 8, PROTO_ICMP: 4, PROTO_ICMP6: 4}
_KEY_LAYOUTS = {13: (AF_INET, struct.Struct("!4s4sHHB").unpack),
                37: (AF_INET6, struct.Struct("!16s16sHHB").unpack)}

# Bytes buffered per refill; a record cut by a refill is carried over.
_BLOCK = 64 * 1024
# The most bytes a record may claim (libpcap's MAXIMUM_SNAPLEN).
_MAX_RECORD = 262144


class PacketRecord(NamedTuple):
    ts_ms: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: int
    ip_len: int
    tcp_flags: int
    icmp_type: int | None = None
    icmp_code: int | None = None


class CaptureReader:
    """Iterator over the decodable packets of one pcap file.

    Counters: `decoded`, `skipped` (with per-reason detail in
    `skip_reasons`), and `records_read` for the raw record count;
    decoded + skipped == records_read at all times.
    """

    def __init__(self, path):
        self._fh = open_binary_read(path)
        try:
            head = self._read_header(path, 24)
            magic = _MAGICS.get(head[:4])
            if magic is None:
                raise NotPcapError(f"{path}: bad magic {head[:4].hex()}, not a pcap file")
            self._order, self.nanosecond = magic
            _, _, _, _, self.snaplen, self.linktype = struct.unpack(
                self._order + "HHiIII", head[4:])
            if self.linktype not in SUPPORTED_LINKTYPES:
                raise UnsupportedLinkTypeError(
                    f"{path}: link type {self.linktype} not supported "
                    f"(supported: {', '.join(str(t) for t in SUPPORTED_LINKTYPES)})")
        except Exception:
            self._fh.close()
            raise
        self.path = path
        self.records_read = 0
        self.skipped = 0
        self.skip_reasons = Counter()
        self._read_error = None   # a failed stream read, held back (see _fill)
        self._stream = None    # the keyed packet stream

    @property
    def decoded(self) -> int:
        return self.records_read - self.skipped

    def _read_header(self, path, n):
        try:
            data = self._fh.read(n)
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise NotPcapError(f"{path}: unreadable gzip stream: {exc}") from exc
        if len(data) < n:
            raise NotPcapError(
                f"{path}: file too short for a pcap global header ({len(data)} bytes)")
        return data

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _fill(self, rest, need):
        """`rest` plus further stream bytes, up to at least `need` (and one
        block) or the end of the stream.

        Each chunk is what the stream's own buffer holds after peek()
        refills it, so gzip data is inflated in the steps that buffered
        record-by-record reads take, whatever buffer size the Python
        version gives GzipFile, and a corrupt stream yields the same bytes
        before its error.  A read that fails (a gzip stream that ends early
        or is corrupt) loses nothing read before it: the error is held in
        `_read_error` and raised only once the buffered records run out,
        where reading record by record would have met it."""
        parts = [rest]
        have = len(rest)
        want = max(need, _BLOCK)
        while have < want and self._read_error is None:
            try:
                self._fh.peek(1)
                chunk = self._fh.read1(_BLOCK)
            except (EOFError, OSError, zlib.error) as exc:
                self._read_error = exc
                break
            if not chunk:
                break
            parts.append(chunk)
            have += len(chunk)
        return b"".join(parts)

    def _short_read(self, offset, detail, error=TruncatedFileError):
        """The error for the record at byte `offset` that cannot be read: an
        `error` naming the record and saying `detail`, or a TruncatedFileError
        that the compressed stream ends early, or an InputFormatError for a
        damaged gzip stream, or else the held-back read error (an OSError)."""
        exc = self._read_error
        where = f"{self.path}: record {self.records_read + 1} at byte {offset}"
        if exc is None:
            return error(f"{where}: {detail}")
        if isinstance(exc, EOFError):
            err = TruncatedFileError(f"{where}: compressed stream ends early")
        elif isinstance(exc, (gzip.BadGzipFile, zlib.error)):
            err = InputFormatError(f"{where}: damaged gzip input: {exc}")
        else:
            return exc
        err.__cause__ = exc
        return err

    def _refuse(self, offset, incl_len, unread):
        """The error for the record at byte `offset` that claims more than
        _MAX_RECORD bytes.  A gzip stream may show its damage only in its
        end check, so its `unread` claimed bytes are inflated first, a block
        at a time and dropped; a stream that fails there reports that, as
        reading the record would."""
        while unread > 0 and isinstance(self._fh, gzip.GzipFile) and (
                chunk := self._fill(b"", 0)):
            unread -= len(chunk)
        return self._short_read(
            offset, f"claims {incl_len} bytes, more than the {_MAX_RECORD} a record may hold",
            InputFormatError)

    def __iter__(self):
        """PacketRecords, addresses rendered to text (two inet_ntop calls a
        packet); the CLI and build_flows(reader) read the packed keyed stream.
        Each iterator draws on that one stream, so a second iter() resumes it."""
        return (PacketRecord(ts_ms, *render(key), *rest) for ts_ms, key, *rest in self._keyed())

    def _keyed(self):
        """The keyed packet stream (see the module docstring)."""
        if self._stream is None:
            self._stream = self._decode_records()
        return self._stream

    def _decode_records(self):
        unpack_hdr = struct.Struct(self._order + "IIII").unpack_from
        unpack_ip = _IPV4_OVER_ETH.unpack_from
        decode = self._decode_frame
        fast = self.linktype == LINKTYPE_ETHERNET
        div = 1_000_000 if self.nanosecond else 1000
        buf = b""
        pos = size = 0
        base = 24   # the stream offset of buf[0]
        while True:
            if size - pos < 16:
                base += pos
                rest, buf = buf[pos:], b""   # the spent block goes before the refill
                buf = self._fill(rest, 16)
                pos, size = 0, len(buf)
                if size < 16:
                    if size == 0 and self._read_error is None:
                        return
                    raise self._short_read(base, "file ends inside a packet record header")
            ts_sec, frac, incl_len, _orig = unpack_hdr(buf, pos)
            if incl_len > _MAX_RECORD:
                raise self._refuse(base + pos, incl_len, incl_len - (size - pos - 16))
            start = pos + 16
            pos = start + incl_len
            if pos > size:
                base += start
                rest, buf = buf[start:], b""
                buf = self._fill(rest, incl_len)
                start, pos, size = 0, incl_len, len(buf)
                if size < incl_len:
                    raise self._short_read(
                        base - 16, f"claims {incl_len} bytes, only {size} remain")
            self.records_read += 1
            ts_ms = ts_sec * 1000 + frac // div
            if fast and incl_len >= _FAST_MIN_LEN:
                # untagged Ethernet, option-less IPv4 first fragment, TCP/UDP
                etype, vihl, ip_len, frag, proto = unpack_ip(buf, start + 12)
                if etype == _ETH_IPV4 and vihl == 0x45 and not frag & 0x1FFF and (
                        proto == PROTO_UDP or proto == PROTO_TCP and incl_len >= _FAST_TCP_LEN):
                    yield (ts_ms, buf[start + 26:start + 38] + _PROTO_BYTE[proto], ip_len,
                           buf[start + 47] if proto == PROTO_TCP else 0, None, None)
                    continue
            item = decode(ts_ms, buf[start:pos])
            if item is None:
                self.skipped += 1
            else:
                yield item

    # -- decoding ----------------------------------------------------------

    def _skip(self, reason):
        self.skip_reasons[reason] += 1
        return None

    def _decode_frame(self, ts_ms, data):
        """The keyed item of one frame, or None once its skip reason is counted."""
        lt = self.linktype
        size = len(data)
        if lt == LINKTYPE_ETHERNET or lt == LINKTYPE_LINUX_SLL:
            ip = 14 if lt == LINKTYPE_ETHERNET else 16   # the ethertype's end
            if size < ip:
                return self._skip("short link header")
            ethertype = data[ip - 2] << 8 | data[ip - 1]
            while lt == LINKTYPE_ETHERNET and (ethertype == _ETH_VLAN or ethertype == _ETH_QINQ):
                if size < ip + 4:
                    return self._skip("short link header")
                ethertype = data[ip + 2] << 8 | data[ip + 3]
                ip += 4
            version = 4 if ethertype == _ETH_IPV4 else 6 if ethertype == _ETH_IPV6 else None
        else:   # raw IP variants
            if not size:
                return self._skip("short link header")
            ip = 0
            version = 4 if lt == LINKTYPE_IPV4 else 6 if lt == LINKTYPE_IPV6 else data[0] >> 4

        if version == 4:
            if size < ip + 20:
                return self._skip("short IP header")
            if data[ip] >> 4 != 4:
                return self._skip("not IP")
            t = ip + (data[ip] & 0x0F) * 4
            if t < ip + 20 or size < t:
                return self._skip("short IP header")
            first_fragment = not (data[ip + 6] & 0x1F or data[ip + 7])
            proto = data[ip + 9]
            ip_len = data[ip + 2] << 8 | data[ip + 3]
            addrs = data[ip + 12:ip + 20]
        elif version == 6:
            if size < ip + 40:
                return self._skip("short IP header")
            if data[ip] >> 4 != 6:
                return self._skip("not IP")
            proto = data[ip + 6]
            t = ip + 40
            first_fragment = True
            while True:
                if proto in _IPV6_EXT:
                    if size < t + 2:
                        return self._skip("short IP header")
                    proto, t = data[t], t + (data[t + 1] + 1) * 8
                elif proto == _IPV6_FRAGMENT:
                    if size < t + 8:
                        return self._skip("short IP header")
                    proto = data[t]
                    if (data[t + 2] << 8 | data[t + 3]) >> 3:
                        first_fragment = False
                    t += 8
                else:
                    break
            if size < t:
                return self._skip("short IP header")
            ip_len = 40 + (data[ip + 4] << 8 | data[ip + 5])
            addrs = data[ip + 8:ip + 40]
        else:
            return self._skip("not IP")

        ports, flags, itype, icode = _NO_PORTS, 0, None, None
        icmp = proto == PROTO_ICMP or proto == PROTO_ICMP6
        if not first_fragment:
            # ports (and the ICMP header) live in the first fragment only
            if icmp:
                itype = icode = 0
        elif size - t < _TRANSPORT_MIN.get(proto, 0):
            return self._skip("short transport header")
        elif icmp:
            itype, icode = data[t], data[t + 1]
        elif proto in _TRANSPORT_MIN:   # TCP or UDP
            ports = data[t:t + 4]
            flags = data[t + 13] if proto == PROTO_TCP else 0
        return (ts_ms, addrs + ports + _PROTO_BYTE[proto], ip_len, flags, itype, icode)


def render(key) -> tuple:
    """The text 5-tuple (src_ip, dst_ip, src_port, dst_port, proto) of a
    packed flow key."""
    family, unpack = _KEY_LAYOUTS[len(key)]
    src, dst, sport, dport, proto = unpack(key)
    return (inet_ntop(family, src), inet_ntop(family, dst), sport, dport, proto)


def open_capture(path) -> CaptureReader:
    return CaptureReader(path)
