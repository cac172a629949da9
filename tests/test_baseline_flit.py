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
    depacketize,
    packetize,
    split_words,
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
        flit = Flit(FlitType.HEAD, 0x1, (2, 3), (0, 0), 0, 7, 0)
        moved = flit.with_vc(3)
        assert moved.vc == 3
        assert (moved.payload, moved.dest, moved.packet_id) == (0x1, (2, 3), 7)

    def test_with_vc_checks_only_the_new_channel(self, monkeypatch):
        """A hop that changes VC copies the validated flit: a distinct, equal
        object (the shard codec tells wire changes by identity), the payload
        not checked again, the new channel still checked."""
        flit = Flit(FlitType.BODY, 0xBEEF, (2, 3), (0, 1), 0, 7, 4)
        expected = Flit(FlitType.BODY, 0xBEEF, (2, 3), (0, 1), 3, 7, 4)
        assert flit.with_vc(0) is flit
        monkeypatch.setattr("repro.baseline.flit.check_field", pytest.fail)
        moved = flit.with_vc(3)
        assert moved == expected and hash(moved) == hash(expected)
        assert moved is not flit and moved is not flit.with_vc(3)
        with pytest.raises(ValueError):
            flit.with_vc(-1)

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


class TestSplitWords:
    def test_chunks_of_requested_size(self):
        chunks = split_words(range(10), 4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_exact_multiple(self):
        assert [len(c) for c in split_words(range(8), 4)] == [4, 4]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            split_words([1], 0)
