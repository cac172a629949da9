"""Tests for the baseline router's building blocks: the reference buffers,
arbiter and VC allocation (:mod:`test_baseline_router` keeps them as the
oracle's parts), links, routing and the Æthereal reference."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st
from test_baseline_router import OutputVcAllocator, RoundRobinArbiter, VirtualChannelBuffer

from repro.baseline.aethereal import AETHEREAL, AetherealReference
from repro.baseline.flit import Flit, FlitType, pack
from repro.baseline.link import PacketLink
from repro.baseline.routing import path_ports, route_distance, xy_route
from repro.common import CapacityError, Port
from repro.energy.activity import ActivityCounters, ActivityKeys


def _flit(payload: int = 0, flit_type: FlitType = FlitType.BODY, vc: int = 0) -> Flit:
    return Flit(flit_type, payload, (1, 1), (0, 0), vc, 1, 0)


class TestVirtualChannelBuffer:
    def test_push_pop_fifo_order(self):
        buffer = VirtualChannelBuffer("b", depth=4)
        buffer.push(_flit(1))
        buffer.push(_flit(2))
        assert buffer.pop().payload == 1
        assert buffer.pop().payload == 2

    def test_overflow_and_underflow_detected(self):
        buffer = VirtualChannelBuffer("b", depth=1)
        buffer.push(_flit())
        with pytest.raises(CapacityError):
            buffer.push(_flit())
        buffer.pop()
        with pytest.raises(CapacityError):
            buffer.pop()

    def test_occupancy_tracking(self):
        buffer = VirtualChannelBuffer("b", depth=4)
        assert buffer.is_empty() and not buffer.is_full()
        buffer.push(_flit())
        assert buffer.occupancy == 1
        assert buffer.free_slots == 3
        assert buffer.front().payload == 0
        assert buffer.max_occupancy == 1

    def test_activity_counts_bits(self):
        activity = ActivityCounters()
        buffer = VirtualChannelBuffer("b", depth=2, activity=activity)
        flit = _flit(0xFFFF)
        buffer.push(flit)
        buffer.pop()
        assert activity.get(ActivityKeys.BUFFER_WRITE_BITS) == flit.storage_bits
        assert activity.get(ActivityKeys.BUFFER_READ_BITS) == flit.storage_bits

    def test_reset(self):
        buffer = VirtualChannelBuffer("b", depth=2)
        buffer.push(_flit())
        buffer.reset()
        assert buffer.is_empty()
        assert buffer.total_writes == 0


class TestRoundRobinArbiter:
    """Requests are a bit mask: bit ``i`` set means requester ``i`` requests."""

    def test_no_request_no_grant(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.grant(0) is None
        assert arbiter.decisions == 0

    def test_single_persistent_requester_keeps_grant(self):
        arbiter = RoundRobinArbiter(4)
        for _ in range(10):
            assert arbiter.grant(0b0010) == 1
        assert arbiter.grant_changes == 0
        assert arbiter.decisions == 10

    def test_two_requesters_alternate(self):
        arbiter = RoundRobinArbiter(4)
        grants = [arbiter.grant(0b0101) for _ in range(6)]
        assert grants == [0, 2, 0, 2, 0, 2]
        assert arbiter.grant_changes == 5

    def test_wrap_around_at_the_pointer(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.grant(0b1000) == 3  # pointer wraps to 0
        assert arbiter.grant(0b1010) == 1
        # Pointer at 2: requester 2 itself has the highest priority, 1 the lowest.
        assert arbiter.grant(0b0110) == 2
        assert arbiter.grant(0b0110) == 1  # nothing at or above 3: wrap to the lowest bit
        assert arbiter.last_grant == 1

    def test_request_length_checked(self):
        """A mask wider than the arbiter (or negative) is rejected, not truncated."""
        arbiter = RoundRobinArbiter(4)
        for mask in (0b10000, 0b10001, -1):
            with pytest.raises(ValueError):
                arbiter.grant(mask)
        assert arbiter.decisions == 0
        assert arbiter.grant(0b1111) == 0

    def test_reset(self):
        arbiter = RoundRobinArbiter(2)
        arbiter.grant(0b11)
        arbiter.reset()
        assert arbiter.decisions == 0
        assert arbiter.last_grant is None
        assert arbiter.grant(0b11) == 0  # the pointer is back at 0

    @given(st.lists(st.integers(0, 2**5 - 1), min_size=1, max_size=60))
    def test_fairness_property(self, request_schedule):
        """Every persistently requesting input is eventually granted: over any
        window, grant counts of always-requesting inputs differ by at most one
        from each other when they request in every cycle."""
        arbiter = RoundRobinArbiter(5)
        always = [all(requests >> i & 1 for requests in request_schedule) for i in range(5)]
        counts = [0] * 5
        for requests in request_schedule:
            winner = arbiter.grant(requests)
            assert (winner is None) == (requests == 0)
            if winner is not None:
                assert requests >> winner & 1, "arbiter granted a non-requesting input"
                counts[winner] += 1
        always_counts = [counts[i] for i in range(5) if always[i]]
        if len(always_counts) > 1 and len(request_schedule) >= 5:
            assert max(always_counts) - min(always_counts) <= max(
                1, len(request_schedule) - sum(always_counts)
            )

    @given(st.integers(1, 24), st.lists(st.integers(0), min_size=1, max_size=40))
    def test_grants_equal_the_rotating_scan(self, width, request_schedule):
        """The mask arithmetic picks what a scan from the pointer would pick."""
        arbiter = RoundRobinArbiter(width)
        pointer = 0
        for requests in request_schedule:
            requests &= (1 << width) - 1
            scan = [(pointer + offset) % width for offset in range(width)]
            expected = next((i for i in scan if requests >> i & 1), None)
            assert arbiter.grant(requests) == expected
            if expected is not None:
                pointer = (expected + 1) % width


class TestOutputVcAllocator:
    def test_allocate_and_release(self):
        allocator = OutputVcAllocator(Port.EAST, num_vcs=2, downstream_buffer_depth=4)
        first = allocator.try_allocate((Port.TILE, 0))
        second = allocator.try_allocate((Port.WEST, 1))
        assert {first, second} == {0, 1}
        assert allocator.try_allocate((Port.NORTH, 0)) is None
        allocator.release(first)
        assert allocator.try_allocate((Port.NORTH, 0)) == first

    def test_holder_tracking(self):
        allocator = OutputVcAllocator(Port.EAST, 2, 4)
        vc = allocator.try_allocate((Port.TILE, 3))
        assert allocator.holder(vc) == (Port.TILE, 3)

    def test_credit_accounting(self):
        allocator = OutputVcAllocator(Port.EAST, 1, downstream_buffer_depth=2)
        assert allocator.credits(0) == 2
        allocator.consume_credit(0)
        allocator.consume_credit(0)
        with pytest.raises(ValueError):
            allocator.consume_credit(0)
        allocator.add_credits(0, 1)
        assert allocator.credits(0) == 1

    def test_reset(self):
        allocator = OutputVcAllocator(Port.EAST, 2, 4)
        allocator.try_allocate((Port.TILE, 0))
        allocator.consume_credit(0)
        allocator.reset(8)
        assert allocator.credits(0) == 8
        assert allocator.holder(0) is None

    def test_vc_range_checked(self):
        allocator = OutputVcAllocator(Port.EAST, 2, 4)
        with pytest.raises(IndexError):
            allocator.credits(2)


class TestXyRouting:
    def test_local_delivery(self):
        assert xy_route((1, 1), (1, 1)) == Port.TILE

    def test_x_first(self):
        assert xy_route((0, 0), (2, 2)) == Port.EAST
        assert xy_route((2, 2), (0, 0)) == Port.WEST
        assert xy_route((1, 0), (1, 3)) == Port.NORTH
        assert xy_route((1, 3), (1, 0)) == Port.SOUTH

    def test_route_distance(self):
        assert route_distance((0, 0), (3, 2)) == 5

    def test_path_ports_ends_at_tile(self):
        path = path_ports((0, 0), (2, 1))
        assert path[-1] == Port.TILE
        assert path[:-1] == [Port.EAST, Port.EAST, Port.NORTH]
        assert len(path) - 1 == route_distance((0, 0), (2, 1))

    @given(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
    )
    def test_path_length_equals_manhattan_distance(self, src, dst):
        assert len(path_ports(src, dst)) - 1 == route_distance(src, dst)


class TestPacketLink:
    def test_drive_and_read(self):
        link = PacketLink("l")
        assert link.read() is None
        flit = pack(_flit(5))
        link.drive(flit)
        assert link.read() == flit and link.drives == 1
        link.drive(flit)  # the same flit again is another drive
        assert link.drives == 2

    def test_credit_return_and_take(self):
        link = PacketLink("l", num_vcs=2)
        link.return_credit(1)
        link.return_credit(1)
        assert link.take_credits(1) == 2
        assert link.take_credits(1) == 0

    def test_vc_range_checked(self):
        link = PacketLink("l", num_vcs=2)
        with pytest.raises(IndexError):
            link.return_credit(2)

    def test_reset(self):
        link = PacketLink("l")
        link.drive(pack(_flit()))
        link.return_credit(0)
        link.reset()
        assert link.read() is None
        assert link.take_credits(0) == 0


class TestAethereal:
    def test_published_figures(self):
        assert AETHEREAL.total_area_mm2 == pytest.approx(0.175)
        assert AETHEREAL.link_bandwidth_gbps == pytest.approx(16.0)

    def test_slot_bandwidth_arithmetic(self):
        reference = AetherealReference()
        full = reference.guaranteed_bandwidth_mbps(reference.slot_table_size)
        assert full == pytest.approx(reference.link_bandwidth_gbps * 1e3)
        half = reference.guaranteed_bandwidth_mbps(reference.slot_table_size // 2)
        assert half == pytest.approx(full / 2)

    def test_slots_needed_roundtrip(self):
        reference = AetherealReference()
        slots = reference.slots_needed_mbps(640.0)
        assert reference.guaranteed_bandwidth_mbps(slots) >= 640.0
        assert reference.guaranteed_bandwidth_mbps(max(slots - 1, 0)) < 640.0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            AetherealReference().guaranteed_bandwidth_mbps(10_000)
        with pytest.raises(ValueError):
            AetherealReference().slots_needed_mbps(-1)
