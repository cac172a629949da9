"""Tests for the data converter (serialiser, deserialiser, tile interface)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import CapacityError
from repro.core.data_converter import DataConverter, LaneDeserializer, LaneSerializer
from repro.core.flow_control import FlowControlConfig
from repro.core.header import LaneHeader, LanePacket


class TestLaneSerializer:
    def test_word_is_serialised_into_five_phits(self):
        serializer = LaneSerializer(0)
        serializer.submit(LanePacket(0xABCD))
        phits = []
        for _ in range(6):
            serializer.tick(ack_pulse=False)
            phits.append(serializer.output_phit)
        # One idle cycle may precede the packet depending on load phase; strip
        # leading idle nibbles then check the packet.
        while phits and phits[0] == 0:
            phits.pop(0)
        packet = LanePacket.from_phits(phits[:5])
        assert packet.data == 0xABCD

    def test_queue_capacity_enforced(self):
        serializer = LaneSerializer(0, tx_queue_depth=1)
        serializer.submit(LanePacket(1))
        assert not serializer.can_accept()
        with pytest.raises(CapacityError):
            serializer.submit(LanePacket(2))

    def test_window_counter_blocks_without_acks(self):
        serializer = LaneSerializer(0, flow=FlowControlConfig(window_size=1), tx_queue_depth=4)
        serializer.submit(LanePacket(0x1111))
        serializer.submit(LanePacket(0x2222))
        for _ in range(20):
            serializer.tick(ack_pulse=False)
        assert serializer.words_loaded == 1  # second word is stuck behind the window
        serializer.tick(ack_pulse=True)
        for _ in range(6):
            serializer.tick(ack_pulse=False)
        assert serializer.words_loaded == 2

    def test_idle_output_is_zero(self):
        serializer = LaneSerializer(0)
        for _ in range(3):
            serializer.tick(ack_pulse=False)
            assert serializer.output_phit == 0

    def test_reset(self):
        serializer = LaneSerializer(0)
        serializer.submit(LanePacket(0xFFFF))
        serializer.tick(False)
        serializer.reset()
        assert serializer.output_phit == 0
        assert serializer.pending == 0
        assert serializer.words_loaded == 0


class TestPackedShiftRegisters:
    """The packed-integer shift registers against the phit-list reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        lane_width=st.integers(4, 16),
        data_width=st.integers(1, 40),
        flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        data=st.data(),
    )
    def test_wire_order_and_reassembly_match_to_phits(self, lane_width, data_width, flags, data):
        sob, eob, user = flags
        words = [
            data.draw(st.integers(0, (1 << data_width) - 1), label="word") for _ in range(2)
        ]
        packets = [
            LanePacket(word, LaneHeader(True, sob, eob, user), data_width) for word in words
        ]
        serializer = LaneSerializer(0, lane_width, data_width)
        deserializer = LaneDeserializer(0, lane_width, data_width)
        for packet in packets:
            serializer.submit(packet)
        expected = [phit for packet in packets for phit in packet.to_phits(lane_width)]
        for cycle, phit in enumerate(expected + [0, 0]):
            serializer.tick(ack_pulse=False)
            assert serializer.output_phit == phit  # back to back, then idle
            deserializer.tick(serializer.output_phit, cycle)
        assert serializer.quiescent and not deserializer.collecting
        for word in words:
            received = deserializer.receive()
            assert (received.data, received.sob, received.eob, received.user) == (
                word, sob, eob, user
            )


class TestLaneDeserializer:
    def _shift_packet(self, deserializer: LaneDeserializer, packet: LanePacket, start_cycle: int = 0):
        for offset, phit in enumerate(packet.to_phits()):
            deserializer.tick(phit, cycle=start_cycle + offset)

    def test_packet_reassembly(self):
        deserializer = LaneDeserializer(0)
        packet = LanePacket(0xBEEF, LaneHeader(valid=True, sob=True))
        self._shift_packet(deserializer, packet)
        assert deserializer.available() == 1
        word = deserializer.receive()
        assert word.data == 0xBEEF
        assert word.sob and not word.eob

    def test_idle_cycles_between_packets_are_ignored(self):
        deserializer = LaneDeserializer(0)
        deserializer.tick(0, cycle=0)
        deserializer.tick(0, cycle=1)
        self._shift_packet(deserializer, LanePacket(0x1234), start_cycle=2)
        assert deserializer.receive().data == 0x1234

    def test_back_to_back_packets(self):
        deserializer = LaneDeserializer(0)
        self._shift_packet(deserializer, LanePacket(0x1111), 0)
        self._shift_packet(deserializer, LanePacket(0x2222), 5)
        assert deserializer.words_received == 2
        assert deserializer.receive().data == 0x1111
        assert deserializer.receive().data == 0x2222

    def test_receive_from_empty_returns_none(self):
        assert LaneDeserializer(0).receive() is None

    def test_ack_pulse_after_consumption(self):
        deserializer = LaneDeserializer(0, flow=FlowControlConfig(window_size=4, credit_per_ack=1))
        self._shift_packet(deserializer, LanePacket(0xAAAA))
        assert deserializer.ack_pulse is False
        deserializer.receive()
        deserializer.tick(0, cycle=10)
        assert deserializer.ack_pulse is True
        deserializer.tick(0, cycle=11)
        assert deserializer.ack_pulse is False

    def test_buffer_overflow_detected(self):
        deserializer = LaneDeserializer(0, flow=FlowControlConfig(window_size=1))
        self._shift_packet(deserializer, LanePacket(0x1), 0)
        with pytest.raises(CapacityError):
            self._shift_packet(deserializer, LanePacket(0x2), 5)

    def test_reset(self):
        deserializer = LaneDeserializer(0)
        self._shift_packet(deserializer, LanePacket(0x1))
        deserializer.reset()
        assert deserializer.available() == 0
        assert deserializer.words_received == 0


class TestConverterAndTileInterface:
    def test_direct_loopback_through_converter(self):
        """Wire serialiser lane 0 straight into deserialiser lane 0 and check
        that tile-interface words survive the 4-bit serialisation round trip."""
        converter = DataConverter()
        interface = converter.interface
        words = [0x0000, 0xFFFF, 0x1234, 0xA5A5]
        for word in words:
            assert interface.can_send(0)
            assert interface.send(0, word)
        for cycle in range(40):
            rx_phits = [converter.tx_phit(lane) for lane in range(4)]
            tx_acks = [converter.rx_ack_pulse(lane) for lane in range(4)]
            converter.tick(rx_phits, tx_acks, cycle)
        received = []
        while interface.rx_available(0):
            received.append(interface.receive(0).data)
        assert received == words
        assert interface.words_sent == len(words)
        assert interface.words_received == len(words)

    def test_send_fails_when_queue_full(self):
        converter = DataConverter(tx_queue_depth=1)
        interface = converter.interface
        assert interface.send(0, 1)
        assert not interface.send(0, 2)
        assert interface.tx_pending(0) == 1

    def test_interface_lane_count(self):
        assert DataConverter(lanes_per_port=2).interface.lanes == 2

    def test_flow_configuration_is_per_lane(self):
        converter = DataConverter()
        converter.interface.configure_tx(1, FlowControlConfig(window_size=2))
        assert converter.serializers[1].window.config.window_size == 2
        converter.interface.configure_rx(2, FlowControlConfig(window_size=3))
        assert converter.deserializers[2].flow.window_size == 3

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=12))
    def test_loopback_preserves_arbitrary_word_sequences(self, words):
        converter = DataConverter(tx_queue_depth=len(words))
        interface = converter.interface
        for word in words:
            interface.send(0, word)
        received = []
        for cycle in range(10 * len(words) + 20):
            rx_phits = [converter.tx_phit(lane) for lane in range(4)]
            tx_acks = [converter.rx_ack_pulse(lane) for lane in range(4)]
            converter.tick(rx_phits, tx_acks, cycle)
            # Drain continuously so the acknowledge pulses keep the window open.
            while interface.rx_available(0):
                received.append(interface.receive(0).data)
        assert received == words
