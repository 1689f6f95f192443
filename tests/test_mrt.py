"""Tests for the binary MRT encoder/decoder."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import ASPath, Route
from repro.bgp.engine import UpdateEvent
from repro.dataio.mrt import (
    MRT_BGP4MP,
    MRT_TABLE_DUMP_V2,
    RIBSnapshot,
    decode_rib_snapshot,
    decode_update_events,
    encode_rib_snapshot,
    encode_update_events,
    iter_mrt_records,
    snapshot_from_collector_rib,
    _decode_as_path,
    _decode_prefix,
    _encode_as_path,
    _encode_prefix,
)
from repro.errors import DataIOError
from repro.netutil import Prefix

PFX = Prefix.parse("163.253.63.0/24")


class TestPrefixEncoding:
    @pytest.mark.parametrize(
        "text", ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24",
                 "128.1.2.0/23", "192.0.2.128/25"]
    )
    def test_roundtrip(self, text):
        prefix = Prefix.parse(text)
        encoded = _encode_prefix(prefix)
        decoded, offset = _decode_prefix(encoded, 0)
        assert decoded == prefix
        assert offset == len(encoded)

    def test_minimal_octets(self):
        assert len(_encode_prefix(Prefix.parse("10.0.0.0/8"))) == 2
        assert len(_encode_prefix(Prefix.parse("192.0.2.0/24"))) == 4

    def test_truncated_rejected(self):
        with pytest.raises(DataIOError):
            _decode_prefix(b"\x18\x0a", 0)  # /24 needs 3 octets

    def test_bad_length_rejected(self):
        with pytest.raises(DataIOError):
            _decode_prefix(b"\x40", 0)

    prefixes = st.builds(
        lambda addr, length: Prefix(
            addr & ((((1 << 32) - 1) << (32 - length)) & ((1 << 32) - 1))
            if length else 0,
            length,
        ),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )

    @given(prefixes)
    def test_roundtrip_property(self, prefix):
        decoded, _ = _decode_prefix(_encode_prefix(prefix), 0)
        assert decoded == prefix


class TestASPathEncoding:
    def test_roundtrip_simple(self):
        path = ASPath((3754, 11537, 2152, 7377))
        assert _decode_as_path(_encode_as_path(path)) == path

    def test_roundtrip_with_prepends(self):
        path = ASPath.origin_path(396955, 4)
        assert _decode_as_path(_encode_as_path(path)) == path

    def test_long_path_multiple_segments(self):
        path = ASPath(tuple(range(1, 300)))
        assert _decode_as_path(_encode_as_path(path)) == path

    def test_four_byte_asns(self):
        path = ASPath((396955, 4200000000))
        assert _decode_as_path(_encode_as_path(path)) == path

    @given(st.lists(st.integers(min_value=1, max_value=(1 << 32) - 1),
                    min_size=1, max_size=40))
    def test_roundtrip_property(self, asns):
        path = ASPath(tuple(asns))
        assert _decode_as_path(_encode_as_path(path)) == path


class TestRIBSnapshot:
    def _snapshot(self):
        snapshot = RIBSnapshot(peers=[3356, 20965])
        snapshot.entries[PFX] = [
            (3356, ASPath((3356, 396955))),
            (20965, ASPath((20965, 11537))),
        ]
        snapshot.entries[Prefix.parse("128.0.0.0/16")] = [
            (3356, ASPath((3356, 100001))),
        ]
        return snapshot

    def test_roundtrip(self):
        snapshot = self._snapshot()
        decoded = decode_rib_snapshot(encode_rib_snapshot(snapshot))
        assert decoded.peers == snapshot.peers
        assert set(decoded.entries) == set(snapshot.entries)
        for prefix in snapshot.entries:
            assert decoded.entries[prefix] == snapshot.entries[prefix]

    def test_record_types(self):
        data = encode_rib_snapshot(self._snapshot(), timestamp=1749100000)
        records = list(iter_mrt_records(data))
        assert records[0].mrt_type == MRT_TABLE_DUMP_V2
        assert records[0].subtype == 1
        assert all(r.subtype == 2 for r in records[1:])
        assert records[0].timestamp == 1749100000

    def test_from_collector_rib(self, ecosystem):
        from repro.collectors import build_collector_rib

        plans = ecosystem.studied_prefixes()[:20]
        rib = build_collector_rib(
            ecosystem, [ecosystem.ripe_asn],
            prefixes=[p.prefix for p in plans],
        )
        snapshot = snapshot_from_collector_rib(rib, ecosystem.ripe_asn)
        decoded = decode_rib_snapshot(encode_rib_snapshot(snapshot))
        assert set(decoded.entries) == set(snapshot.entries)

    def test_rejects_wrong_type(self):
        events = [
            UpdateEvent(time=0.0, asn=1, prefix=PFX, route=None)
        ]
        data = encode_update_events(events)
        with pytest.raises(DataIOError):
            decode_rib_snapshot(data)


class TestUpdateStream:
    def _events(self):
        route = Route(
            prefix=PFX,
            path=ASPath((3356, 396955, 396955)),
            learned_from=3356,
            localpref=100,
            tag="commodity",
        )
        return [
            UpdateEvent(time=100.5, asn=3356, prefix=PFX, route=route),
            UpdateEvent(time=101.0, asn=20965, prefix=PFX, route=None),
        ]

    def test_roundtrip(self):
        decoded = decode_update_events(encode_update_events(self._events()))
        assert len(decoded) == 2
        announce, withdraw = decoded
        assert announce.peer_asn == 3356
        assert announce.announced == (PFX,)
        assert announce.path.asns == (3356, 396955, 396955)
        assert announce.timestamp == 100
        assert withdraw.withdrawn == (PFX,)
        assert withdraw.path is None

    def test_record_types(self):
        data = encode_update_events(self._events())
        for record in iter_mrt_records(data):
            assert record.mrt_type == MRT_BGP4MP
            assert record.subtype == 4

    def test_truncated_rejected(self):
        data = encode_update_events(self._events())
        with pytest.raises(DataIOError):
            list(iter_mrt_records(data[:-3]))

    def test_experiment_log_roundtrip(self, internet2_result):
        events = [
            e for e in internet2_result.update_log if e.route is not None
        ][:200]
        decoded = decode_update_events(encode_update_events(events))
        assert len(decoded) == len(events)
        for original, parsed in zip(events, decoded):
            assert parsed.peer_asn == original.asn
            assert parsed.path.asns == original.route.path.asns
            assert parsed.announced == (original.prefix,)

    def test_bad_marker_rejected(self):
        data = bytearray(encode_update_events(self._events()[:1]))
        # Corrupt the BGP marker inside the first record body.
        data[12 + 20] = 0x00
        with pytest.raises(DataIOError):
            decode_update_events(bytes(data))


class TestMalformedRecords:
    """Every malformed record body fails as a DataIOError naming the
    record's offset, never a raw struct/index error."""

    # A PEER_INDEX_TABLE record whose body is shorter than its 8-byte
    # header, and one claiming 2 peers in an 8-byte body.
    SHORT_PEER_INDEX = bytes.fromhex("00000000000d0001000000030000")
    MISSING_PEERS = (
        struct.pack("!IHHI", 0, MRT_TABLE_DUMP_V2, 1, 8)
        + struct.pack("!IHH", 0, 0, 2)
    )

    @pytest.mark.parametrize(
        "data", [SHORT_PEER_INDEX, MISSING_PEERS],
        ids=["short-header", "missing-peers"],
    )
    def test_fixed_peer_index_cases(self, data):
        with pytest.raises(DataIOError, match="offset 0"):
            decode_rib_snapshot(data)

    def test_offset_names_the_bad_record(self):
        good = encode_rib_snapshot(TestRIBSnapshot()._snapshot())
        with pytest.raises(DataIOError, match="offset %d" % len(good)):
            decode_rib_snapshot(good + self.MISSING_PEERS)

    @staticmethod
    def _valid_encodings():
        rib = encode_rib_snapshot(TestRIBSnapshot()._snapshot())
        updates = encode_update_events(TestUpdateStream()._events())
        return [rib, updates]

    @staticmethod
    def _decode_all(data):
        for decode in (decode_rib_snapshot, decode_update_events):
            try:
                decode(data)
            except DataIOError:
                pass

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_truncations_and_flips_raise_only_dataioerror(self, data):
        encoded = data.draw(st.sampled_from(self._valid_encodings()))
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded)))
        mutated = bytearray(encoded[:cut])
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            if not mutated:
                break
            index = data.draw(
                st.integers(min_value=0, max_value=len(mutated) - 1)
            )
            mutated[index] ^= data.draw(st.integers(1, 255))
        self._decode_all(bytes(mutated))

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.sampled_from([MRT_TABLE_DUMP_V2, MRT_BGP4MP]),
        st.integers(min_value=0, max_value=5),
        st.binary(max_size=80),
    )
    def test_arbitrary_bodies_raise_only_dataioerror(
        self, mrt_type, subtype, body
    ):
        header = struct.pack("!IHHI", 0, mrt_type, subtype, len(body))
        self._decode_all(header + body)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes_raise_only_dataioerror(self, raw):
        self._decode_all(raw)
