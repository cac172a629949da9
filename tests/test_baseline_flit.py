"""Tests for flits, packets and packetisation of the baseline router."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.baseline.flit import (
    FLIT_CONTROL_BITS,
    FLIT_PAYLOAD_BITS,
    Flit,
    FlitType,
    Packet,
    VC_MASK,
    depacketize,
    pack,
    pack_packet,
    packetize,
    split_words,
    unpack,
)


class TestFlitType:
    def test_head_and_tail_classification(self):
        assert FlitType.HEAD.is_head and not FlitType.HEAD.is_tail
        assert FlitType.TAIL.is_tail and not FlitType.TAIL.is_head
        assert FlitType.SINGLE.is_head and FlitType.SINGLE.is_tail
        assert not FlitType.BODY.is_head and not FlitType.BODY.is_tail


class TestFlit:
    def test_payload_range_checked(self):
        with pytest.raises(ValueError):
            Flit(FlitType.BODY, 1 << 16, (0, 0), (1, 1), 0, 1, 1)

    def test_storage_bits(self):
        flit = Flit(FlitType.BODY, 0xABCD, (0, 0), (1, 1), 0, 1, 1)
        assert flit.storage_bits == FLIT_PAYLOAD_BITS + FLIT_CONTROL_BITS

    def test_with_vc_preserves_everything_else(self):
        """A VC change on a packed flit is a mask-and-or: the other fields stay."""
        flit = Flit(FlitType.HEAD, 0x1, (2, 3), (0, 0), 0, 7, 0)
        moved = unpack(pack(flit) & ~VC_MASK | 3)
        assert moved.vc == 3
        assert (moved.flit_type, moved.payload, moved.dest, moved.packet_id) == (FlitType.HEAD, 0x1, (2, 3), 7)

    def test_with_vc_checks_only_the_new_channel(self, monkeypatch):
        """Fields are checked once, when a flit is packed: the rewrite checks
        nothing, and packing a channel wider than its field is refused."""
        flit = Flit(FlitType.BODY, 0xBEEF, (2, 3), (0, 1), 0, 7, 4)
        expected = pack(Flit(FlitType.BODY, 0xBEEF, (2, 3), (0, 1), 3, 7, 4))
        word = pack(flit)
        monkeypatch.setattr("repro.baseline.flit.check_field", pytest.fail)
        assert word & ~VC_MASK | 3 == expected
        monkeypatch.undo()
        with pytest.raises(ValueError):
            pack(Flit(FlitType.BODY, 0, (0, 0), (0, 0), VC_MASK + 1, 1, 0))

    def test_negative_vc_rejected(self):
        with pytest.raises(ValueError):
            Flit(FlitType.BODY, 0, (0, 0), (0, 0), -1, 1, 0)


class TestPacketize:
    def test_structure_head_body_tail(self):
        packet = Packet(src=(0, 0), dest=(1, 0), words=[1, 2, 3])
        flits = packetize(packet, vc=2)
        assert [f.flit_type for f in flits] == [
            FlitType.HEAD,
            FlitType.BODY,
            FlitType.BODY,
            FlitType.TAIL,
        ]
        assert all(f.vc == 2 for f in flits)
        assert [f.payload for f in flits[1:]] == [1, 2, 3]
        assert packet.flit_count == len(flits)

    def test_empty_packet_is_single_flit(self):
        flits = packetize(Packet(src=(0, 0), dest=(1, 1), words=[]))
        assert len(flits) == 1
        assert flits[0].flit_type == FlitType.SINGLE

    def test_roundtrip(self):
        packet = Packet(src=(2, 1), dest=(0, 3), words=[10, 20, 30, 40])
        rebuilt = depacketize(packetize(packet))
        assert rebuilt.words == packet.words
        assert rebuilt.dest == packet.dest
        assert rebuilt.src == packet.src
        assert rebuilt.packet_id == packet.packet_id

    def test_depacketize_requires_head(self):
        packet = Packet(src=(0, 0), dest=(1, 0), words=[1, 2])
        flits = packetize(packet)
        with pytest.raises(ValueError):
            depacketize(flits[1:])
        with pytest.raises(ValueError):
            depacketize([])

    def test_packet_ids_are_unique(self):
        a = Packet(src=(0, 0), dest=(1, 0), words=[1])
        b = Packet(src=(0, 0), dest=(1, 0), words=[1])
        assert a.packet_id != b.packet_id

    def test_payload_bits(self):
        assert Packet(src=(0, 0), dest=(0, 1), words=[1, 2]).payload_bits == 32

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=40))
    def test_roundtrip_property(self, words):
        packet = Packet(src=(0, 0), dest=(3, 3), words=list(words))
        assert depacketize(packetize(packet)).words == list(words)


class TestPackedFlits:
    @given(
        words=st.lists(st.integers(0, 0xFFFF), max_size=20),
        src=st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        dest=st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        vc=st.integers(0, VC_MASK),
        packet_id=st.integers(0, 2**64),
    )
    def test_pack_packet_equals_packing_the_reference_flits(self, words, src, dest, vc, packet_id):
        packet = Packet(src=src, dest=dest, words=words, packet_id=packet_id)
        flits = packetize(packet, vc)
        packed = pack_packet(packet, vc)
        assert packed == [pack(flit) for flit in flits]
        assert [unpack(word) for word in packed] == flits

    def test_fields_are_checked_when_packed(self):
        for bad in (
            Packet(src=(0, 0), dest=(1, 0), words=[1 << 16]),
            Packet(src=(-1, 0), dest=(1, 0), words=[1]),
            Packet(src=(0, 0), dest=(1 << 16, 0), words=[1]),
            Packet(src=(0, 0), dest=(1, 0), words=[1], packet_id=-1),
        ):
            with pytest.raises(ValueError):
                pack_packet(bad)
        with pytest.raises(ValueError):
            pack_packet(Packet(src=(0, 0), dest=(1, 0), words=[1]), vc=VC_MASK + 1)


class TestSplitWords:
    def test_chunks_of_requested_size(self):
        chunks = split_words(range(10), 4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_exact_multiple(self):
        assert [len(c) for c in split_words(range(8), 4)] == [4, 4]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            split_words([1], 0)
