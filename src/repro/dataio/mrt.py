"""Binary MRT encoding of RIB snapshots and update streams.

RouteViews and RIPE RIS publish RIBs and updates in the MRT format
(RFC 6396); the paper's analyses start from those files.  This module
implements the subset needed to round-trip this library's data as real
MRT bytes:

- ``TABLE_DUMP_V2`` (type 13): ``PEER_INDEX_TABLE`` (subtype 1) and
  ``RIB_IPV4_UNICAST`` (subtype 2) records for RIB snapshots;
- ``BGP4MP`` (type 16): ``BGP4MP_MESSAGE_AS4`` (subtype 4) records
  wrapping real BGP UPDATE messages (withdrawn routes, ORIGIN /
  AS_PATH / NEXT_HOP path attributes, NLRI) for update streams.

AS numbers are 4-byte throughout (AS4), addresses IPv4.  The encoder
is exact enough that third-party MRT tooling can parse the output; the
decoder accepts exactly what the encoder produces plus tolerated
unknown path attributes.  A malformed record raises
:class:`~repro.errors.DataIOError` naming the record's byte offset.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..bgp.attributes import ASPath
from ..bgp.engine import UpdateEvent
from ..errors import DataIOError, ReproError
from ..netutil import Prefix

MRT_TABLE_DUMP_V2 = 13
MRT_BGP4MP = 16

TDV2_PEER_INDEX_TABLE = 1
TDV2_RIB_IPV4_UNICAST = 2

BGP4MP_MESSAGE_AS4 = 4

BGP_UPDATE = 2

ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3

AS_PATH_SEQUENCE = 2

_FLAG_TRANSITIVE = 0x40
_FLAG_EXTENDED = 0x10


def _encode_prefix(prefix: Prefix) -> bytes:
    """NLRI encoding: length byte + minimal network octets."""
    octets = (prefix.length + 7) // 8
    return bytes([prefix.length]) + prefix.network.to_bytes(4, "big")[:octets]


def _decode_prefix(data: bytes, offset: int) -> Tuple[Prefix, int]:
    if offset >= len(data):
        raise DataIOError("truncated prefix encoding")
    length = data[offset]
    if length > 32:
        raise DataIOError("bad prefix length %d" % length)
    octets = (length + 7) // 8
    raw = data[offset + 1: offset + 1 + octets]
    if len(raw) != octets:
        raise DataIOError("truncated prefix body")
    network = int.from_bytes(raw + b"\x00" * (4 - octets), "big")
    return Prefix(network, length), offset + 1 + octets


def _encode_as_path(path: ASPath) -> bytes:
    """AS_PATH attribute body: one AS_SEQUENCE segment, 4-byte ASNs."""
    body = b""
    asns = path.asns
    # Segments carry at most 255 ASNs.
    for start in range(0, len(asns), 255):
        chunk = asns[start: start + 255]
        body += struct.pack("!BB", AS_PATH_SEQUENCE, len(chunk))
        body += b"".join(struct.pack("!I", asn) for asn in chunk)
    return body


def _decode_as_path(body: bytes) -> ASPath:
    asns: List[int] = []
    offset = 0
    while offset < len(body):
        if offset + 2 > len(body):
            raise DataIOError("truncated AS_PATH segment header")
        segment_type, count = struct.unpack_from("!BB", body, offset)
        offset += 2
        if segment_type != AS_PATH_SEQUENCE:
            raise DataIOError(
                "unsupported AS_PATH segment type %d" % segment_type
            )
        need = 4 * count
        if offset + need > len(body):
            raise DataIOError("truncated AS_PATH segment")
        asns.extend(
            struct.unpack_from("!%dI" % count, body, offset)
        )
        offset += need
    return ASPath(tuple(asns))


def _encode_attribute(type_code: int, body: bytes) -> bytes:
    flags = _FLAG_TRANSITIVE
    if len(body) > 255:
        flags |= _FLAG_EXTENDED
        return struct.pack("!BBH", flags, type_code, len(body)) + body
    return struct.pack("!BBB", flags, type_code, len(body)) + body


def _encode_path_attributes(path: ASPath, next_hop: int = 0) -> bytes:
    attributes = _encode_attribute(ATTR_ORIGIN, b"\x00")  # IGP
    attributes += _encode_attribute(ATTR_AS_PATH, _encode_as_path(path))
    attributes += _encode_attribute(
        ATTR_NEXT_HOP, next_hop.to_bytes(4, "big")
    )
    return attributes


def _decode_path_attributes(data: bytes) -> Optional[ASPath]:
    offset = 0
    path: Optional[ASPath] = None
    while offset < len(data):
        if offset + 2 > len(data):
            raise DataIOError("truncated path attribute header")
        flags, type_code = struct.unpack_from("!BB", data, offset)
        offset += 2
        if flags & _FLAG_EXTENDED:
            (length,) = struct.unpack_from("!H", data, offset)
            offset += 2
        else:
            length = data[offset]
            offset += 1
        body = data[offset: offset + length]
        if len(body) != length:
            raise DataIOError("truncated path attribute body")
        offset += length
        if type_code == ATTR_AS_PATH:
            path = _decode_as_path(body)
        # Other attributes (ORIGIN, NEXT_HOP, unknown transitive) are
        # tolerated and skipped.
    return path


def _mrt_record(
    timestamp: float, mrt_type: int, subtype: int, body: bytes
) -> bytes:
    return struct.pack(
        "!IHHI", int(timestamp), mrt_type, subtype, len(body)
    ) + body


@dataclass(frozen=True)
class MRTRecord:
    """One decoded MRT record."""

    timestamp: int
    mrt_type: int
    subtype: int
    body: bytes
    #: Byte offset of the record's header in the input.
    offset: int = 0


def iter_mrt_records(data: bytes) -> Iterator[MRTRecord]:
    """Split a byte string into MRT records."""
    offset = 0
    while offset < len(data):
        if offset + 12 > len(data):
            raise DataIOError("truncated MRT header at offset %d" % offset)
        timestamp, mrt_type, subtype, length = struct.unpack_from(
            "!IHHI", data, offset
        )
        body = data[offset + 12: offset + 12 + length]
        if len(body) != length:
            raise DataIOError("truncated MRT body at offset %d" % offset)
        yield MRTRecord(timestamp, mrt_type, subtype, body, offset)
        offset += 12 + length


def _decode_body(record: MRTRecord, decode, *args):
    """``decode(record.body, *args)``, with any failure on malformed
    bytes — a short read, a bad index, an invalid prefix — raised as
    :class:`DataIOError` naming the record's offset."""
    try:
        return decode(record.body, *args)
    except (ReproError, struct.error, IndexError, ValueError) as error:
        raise DataIOError(
            "malformed MRT record at offset %d: %s" % (record.offset, error)
        ) from None


# ----- TABLE_DUMP_V2 RIB snapshots ------------------------------------------


@dataclass
class RIBSnapshot:
    """A collector RIB: per prefix, (peer_asn, as_path) entries."""

    peers: List[int] = field(default_factory=list)
    entries: Dict[Prefix, List[Tuple[int, ASPath]]] = field(
        default_factory=dict
    )


def encode_rib_snapshot(
    snapshot: RIBSnapshot, timestamp: float = 0.0,
    collector_id: int = 0,
) -> bytes:
    """Encode a RIB snapshot as PEER_INDEX_TABLE + RIB_IPV4_UNICAST
    records."""
    peer_index = {asn: index for index, asn in enumerate(snapshot.peers)}
    # PEER_INDEX_TABLE: collector BGP ID, view name (empty), peer count,
    # then per peer: type(2 = AS4, IPv4), BGP ID, IPv4 address, AS4.
    body = struct.pack("!IHH", collector_id, 0, len(snapshot.peers))
    for asn in snapshot.peers:
        # peer type 0x02: IPv4 address, 4-byte ASN.
        body += struct.pack("!BIII", 0x02, 0, 0, asn)
    out = _mrt_record(timestamp, MRT_TABLE_DUMP_V2,
                      TDV2_PEER_INDEX_TABLE, body)

    sequence = 0
    for prefix in sorted(snapshot.entries,
                         key=lambda p: (p.network, p.length)):
        entries = snapshot.entries[prefix]
        body = struct.pack("!I", sequence) + _encode_prefix(prefix)
        body += struct.pack("!H", len(entries))
        for peer_asn, path in entries:
            attributes = _encode_path_attributes(path)
            body += struct.pack(
                "!HIH", peer_index[peer_asn], int(timestamp),
                len(attributes),
            )
            body += attributes
        out += _mrt_record(timestamp, MRT_TABLE_DUMP_V2,
                           TDV2_RIB_IPV4_UNICAST, body)
        sequence += 1
    return out


def _decode_peer_index(body: bytes) -> List[int]:
    """A PEER_INDEX_TABLE body's peer ASNs, in index order."""
    _, name_len, count = struct.unpack_from("!IHH", body, 0)
    offset = 8 + name_len
    peers: List[int] = []
    for _ in range(count):
        peer_type = body[offset]
        offset += 1 + 4  # BGP ID
        offset += 16 if peer_type & 0x01 else 4
        if peer_type & 0x02:
            (asn,) = struct.unpack_from("!I", body, offset)
            offset += 4
        else:
            (asn,) = struct.unpack_from("!H", body, offset)
            offset += 2
        peers.append(asn)
    return peers


def _decode_rib_entries(
    body: bytes, peers: List[int]
) -> Tuple[Prefix, List[Tuple[int, ASPath]]]:
    """A RIB_IPV4_UNICAST body's prefix and (peer ASN, path) entries."""
    offset = 4  # sequence number
    prefix, offset = _decode_prefix(body, offset)
    (count,) = struct.unpack_from("!H", body, offset)
    offset += 2
    entries: List[Tuple[int, ASPath]] = []
    for _ in range(count):
        peer_index, _, attr_len = struct.unpack_from("!HIH", body, offset)
        offset += 8
        attributes = body[offset: offset + attr_len]
        if len(attributes) != attr_len:
            raise DataIOError("truncated RIB entry attributes")
        offset += attr_len
        path = _decode_path_attributes(attributes)
        if path is None:
            raise DataIOError("RIB entry missing AS_PATH")
        if peer_index >= len(peers):
            raise DataIOError("peer index %d out of range" % peer_index)
        entries.append((peers[peer_index], path))
    return prefix, entries


def decode_rib_snapshot(data: bytes) -> RIBSnapshot:
    """Decode PEER_INDEX_TABLE + RIB records back into a snapshot."""
    snapshot = RIBSnapshot()
    for record in iter_mrt_records(data):
        if record.mrt_type != MRT_TABLE_DUMP_V2:
            raise DataIOError(
                "unexpected MRT type %d in RIB file" % record.mrt_type
            )
        if record.subtype == TDV2_PEER_INDEX_TABLE:
            snapshot.peers.extend(_decode_body(record, _decode_peer_index))
        elif record.subtype == TDV2_RIB_IPV4_UNICAST:
            prefix, entries = _decode_body(
                record, _decode_rib_entries, snapshot.peers
            )
            snapshot.entries[prefix] = entries
        else:
            raise DataIOError(
                "unsupported TABLE_DUMP_V2 subtype %d" % record.subtype
            )
    return snapshot


# ----- BGP4MP update streams ---------------------------------------------------


def _bgp_update_message(
    withdrawn: Sequence[Prefix],
    path: Optional[ASPath],
    nlri: Sequence[Prefix],
) -> bytes:
    withdrawn_bytes = b"".join(_encode_prefix(p) for p in withdrawn)
    attributes = (
        _encode_path_attributes(path) if path is not None else b""
    )
    nlri_bytes = b"".join(_encode_prefix(p) for p in nlri)
    body = struct.pack("!H", len(withdrawn_bytes)) + withdrawn_bytes
    body += struct.pack("!H", len(attributes)) + attributes
    body += nlri_bytes
    header = b"\xff" * 16 + struct.pack("!HB", 19 + len(body), BGP_UPDATE)
    return header + body


def encode_update_events(
    events: Sequence[UpdateEvent], local_asn: int = 0
) -> bytes:
    """Encode engine update events as BGP4MP_MESSAGE_AS4 records."""
    out = b""
    for event in events:
        if event.route is None:
            message = _bgp_update_message([event.prefix], None, [])
        else:
            message = _bgp_update_message(
                [], event.route.path, [event.prefix]
            )
        body = struct.pack(
            "!IIHH", event.asn, local_asn, 0, 1
        )  # peer AS, local AS, ifindex, AFI=IPv4
        body += struct.pack("!II", 0, 0)  # peer / local IP (unset)
        body += message
        out += _mrt_record(event.time, MRT_BGP4MP, BGP4MP_MESSAGE_AS4,
                           body)
    return out


@dataclass(frozen=True)
class DecodedUpdate:
    """One decoded BGP4MP update."""

    timestamp: int
    peer_asn: int
    withdrawn: Tuple[Prefix, ...]
    path: Optional[ASPath]
    announced: Tuple[Prefix, ...]


def _decode_update(body: bytes, timestamp: int) -> DecodedUpdate:
    """One BGP4MP_MESSAGE_AS4 body's UPDATE message."""
    peer_asn, _, _, afi = struct.unpack_from("!IIHH", body, 0)
    if afi != 1:
        raise DataIOError("only IPv4 updates supported")
    offset = 12 + 8  # header + two IPv4 addresses
    marker = body[offset: offset + 16]
    if marker != b"\xff" * 16:
        raise DataIOError("bad BGP message marker")
    length, msg_type = struct.unpack_from("!HB", body, offset + 16)
    if msg_type != BGP_UPDATE:
        raise DataIOError("unsupported BGP message type %d" % msg_type)
    message = body[offset + 19: offset + length]
    (withdrawn_len,) = struct.unpack_from("!H", message, 0)
    cursor = 2
    withdrawn: List[Prefix] = []
    end = cursor + withdrawn_len
    while cursor < end:
        prefix, cursor = _decode_prefix(message, cursor)
        withdrawn.append(prefix)
    (attr_len,) = struct.unpack_from("!H", message, cursor)
    cursor += 2
    attributes = message[cursor: cursor + attr_len]
    if len(attributes) != attr_len:
        raise DataIOError("truncated UPDATE path attributes")
    cursor += attr_len
    path = _decode_path_attributes(attributes) if attr_len else None
    announced: List[Prefix] = []
    while cursor < len(message):
        prefix, cursor = _decode_prefix(message, cursor)
        announced.append(prefix)
    return DecodedUpdate(
        timestamp=timestamp,
        peer_asn=peer_asn,
        withdrawn=tuple(withdrawn),
        path=path,
        announced=tuple(announced),
    )


def decode_update_events(data: bytes) -> List[DecodedUpdate]:
    """Decode BGP4MP_MESSAGE_AS4 records."""
    out: List[DecodedUpdate] = []
    for record in iter_mrt_records(data):
        if record.mrt_type != MRT_BGP4MP:
            raise DataIOError(
                "unexpected MRT type %d in update file" % record.mrt_type
            )
        if record.subtype != BGP4MP_MESSAGE_AS4:
            raise DataIOError(
                "unsupported BGP4MP subtype %d" % record.subtype
            )
        out.append(_decode_body(record, _decode_update, record.timestamp))
    return out


def snapshot_from_collector_rib(rib, observer: int) -> RIBSnapshot:
    """Build an MRT-encodable snapshot from a
    :class:`repro.collectors.rib.CollectorRIB` observer view."""
    snapshot = RIBSnapshot(peers=[observer])
    for prefix, entry in rib.routes_of(observer).items():
        snapshot.entries[prefix] = [(observer, ASPath(entry.path))]
    return snapshot
