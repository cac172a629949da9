"""Shared-memory boundary transport for the sharded simulator.

The pipe transport of :mod:`repro.sim.shard` routes every boundary frame
through the parent process: two pickles and two pipe hops per window, with
the parent on the critical path of every exchange.  This module provides
the data plane that removes all of that:

* **One shared-memory segment** (``multiprocessing.shared_memory``),
  created by the parent before the fork, laid out as a control block plus
  one **double-buffered ring** per ordered pair of adjacent shards.  A
  ring has two fixed-width slots sized for the worst-case frame payload
  of its boundary links, so a writer never waits for buffer space and a
  publish is a bounded ``memcpy`` — no allocation, no pickling.
* **A compact binary frame codec**: every cut link of the boundary plan
  gets a stable entry index, and each frame becomes a few struct-packed
  bytes (changed lanes, one flit, credit returns, one slot word) instead
  of a pickled tuple of Python objects.  The decoder reproduces exactly
  the ``(direction, key, payload)`` frames the pipe transport ships, so
  both transports drive the identical apply path — bit-identity between
  them is structural, not coincidental.
* **Seqlock-style publication**: each ring slot and each control-block
  vote carries a sequence counter written last.  A reader spins until the
  counter reaches the window it needs; the conservative vote barrier of
  the window loop bounds the writer's lead to one window, so two slots
  are provably enough and a published slot is immutable until its reader
  has voted again.

The layout is computed from the topology and the network kind's wire
geometry alone (:func:`build_plan`), before any worker exists, so parent
and workers agree on every offset without negotiation.  Kinds whose wire
values exceed the fixed-width records (:func:`shm_unsupported_reason`)
fall back to the pipe transport.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.common import ConfigurationError, SimulationError

__all__ = [
    "BoundaryCodec",
    "BoundaryRing",
    "ControlBlock",
    "SpinWait",
    "build_plan",
    "shm_unsupported_reason",
]

#: Hard cap of the control block's per-shard vote and destination-bitmask
#: layout (one ``u64`` of destination bits).
MAX_SHM_SHARDS = 64

# Frame record tags.
_TAG_LANE_FWD = 0
_TAG_LANE_REV = 1
_TAG_PKT_FLIT = 2
_TAG_PKT_IDLE = 3
_TAG_PKT_CREDITS = 4
_TAG_TDMA_WORD = 5

_REC_HDR = struct.Struct("<HB")  # entry index, tag
_U8 = struct.Struct("<B")
_LANE_VAL = struct.Struct("<BI")  # lane, value
_LANE_ACK = struct.Struct("<BB")  # lane, ack
_CREDIT = struct.Struct("<BI")  # vc, amount
_FLIT_BYTES = 22  # a packed flit (repro.baseline.flit), packet ids below 2**70
_TDMA = struct.Struct("<BQ")  # presence flag, word


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


class BoundaryCodec:
    """Binary codec for the frames of one ordered shard pair.

    ``entries`` lists the pair's boundary frames as ``(direction, key)``
    in the canonical order (sorted forward keys, then sorted reverse
    keys) — identical on both sides by construction, so a two-byte entry
    index replaces the link key on the wire.  Each entry produces at most
    one record per window, which bounds the payload and therefore the
    ring slot size (:attr:`capacity`).
    """

    __slots__ = ("entries", "index", "capacity")

    def __init__(self, entries: List[Tuple[str, Any]], geometry: Dict[str, int]) -> None:
        if len(entries) > 0xFFFF:
            raise ConfigurationError("boundary pair exceeds 65535 cut links")
        self.entries = entries
        self.index = {entry: position for position, entry in enumerate(entries)}
        fwd_max, rev_max = _record_bounds(geometry)
        self.capacity = sum(
            fwd_max if direction == "fwd" else rev_max for direction, _key in entries
        )

    def encode(self, frames: List[Tuple[str, Any, Any]]) -> bytes:
        """Pack ``(direction, key, payload)`` frames into record bytes."""
        out = bytearray()
        index = self.index
        for direction, key, payload in frames:
            position = index[(direction, key)]
            if direction == "fwd":
                _encode_fwd(out, position, payload)
            else:
                _encode_rev(out, position, payload)
        return bytes(out)

    def decode(self, data: memoryview) -> List[Tuple[str, Any, Any]]:
        """Unpack record bytes back into pipe-identical frame tuples."""
        frames: List[Tuple[str, Any, Any]] = []
        entries = self.entries
        offset = 0
        end = len(data)
        while offset < end:
            position, tag = _REC_HDR.unpack_from(data, offset)
            offset += _REC_HDR.size
            direction, key = entries[position]
            payload, offset = _decode_payload(tag, data, offset)
            frames.append((direction, key, payload))
        return frames


def _record_bounds(geometry: Dict[str, int]) -> Tuple[int, int]:
    """Worst-case record bytes (forward, reverse) for one boundary link."""
    kind = geometry["link_kind"]
    if kind == "lane":
        lanes = geometry["num_lanes"]
        return (
            _REC_HDR.size + _U8.size + lanes * _LANE_VAL.size,
            _REC_HDR.size + _U8.size + lanes * _LANE_ACK.size,
        )
    if kind == "packet":
        vcs = geometry["num_vcs"]
        return (
            _REC_HDR.size + _FLIT_BYTES,
            _REC_HDR.size + _U8.size + vcs * _CREDIT.size,
        )
    if kind == "tdma":
        return (_REC_HDR.size + _TDMA.size, 0)
    raise ConfigurationError(f"unknown boundary link kind {kind!r}")


def _encode_fwd(out: bytearray, position: int, payload: Any) -> None:
    if isinstance(payload, list):  # LaneLink: changed (lane, value) pairs
        out += _REC_HDR.pack(position, _TAG_LANE_FWD)
        out += _U8.pack(len(payload))
        for lane, value in payload:
            out += _LANE_VAL.pack(lane, value)
        return
    tag = payload[0]
    if tag == "flit":
        out += _REC_HDR.pack(position, _TAG_PKT_FLIT)
        out += payload[1].to_bytes(_FLIT_BYTES, "little")
        return
    if tag == "idle":
        out += _REC_HDR.pack(position, _TAG_PKT_IDLE)
        return
    # TdmaLink word (``None`` = the wire went idle).
    word = payload[1]
    out += _REC_HDR.pack(position, _TAG_TDMA_WORD)
    out += _TDMA.pack(0 if word is None else 1, 0 if word is None else word)


def _encode_rev(out: bytearray, position: int, payload: Any) -> None:
    first = payload[0]
    if isinstance(first[1], bool):  # LaneLink acks
        out += _REC_HDR.pack(position, _TAG_LANE_REV)
        out += _U8.pack(len(payload))
        for lane, value in payload:
            out += _LANE_ACK.pack(lane, 1 if value else 0)
        return
    out += _REC_HDR.pack(position, _TAG_PKT_CREDITS)
    out += _U8.pack(len(payload))
    for vc, amount in payload:
        out += _CREDIT.pack(vc, amount)


def _decode_payload(tag: int, data: memoryview, offset: int) -> Tuple[Any, int]:
    if tag == _TAG_LANE_FWD:
        (count,) = _U8.unpack_from(data, offset)
        offset += _U8.size
        payload = []
        for _ in range(count):
            payload.append(_LANE_VAL.unpack_from(data, offset))
            offset += _LANE_VAL.size
        return payload, offset
    if tag == _TAG_LANE_REV:
        (count,) = _U8.unpack_from(data, offset)
        offset += _U8.size
        payload = []
        for _ in range(count):
            lane, value = _LANE_ACK.unpack_from(data, offset)
            payload.append((lane, bool(value)))
            offset += _LANE_ACK.size
        return payload, offset
    if tag == _TAG_PKT_FLIT:
        flit = int.from_bytes(data[offset : offset + _FLIT_BYTES], "little")
        return ("flit", flit), offset + _FLIT_BYTES
    if tag == _TAG_PKT_IDLE:
        return ("idle",), offset
    if tag == _TAG_PKT_CREDITS:
        (count,) = _U8.unpack_from(data, offset)
        offset += _U8.size
        payload = []
        for _ in range(count):
            payload.append(_CREDIT.unpack_from(data, offset))
            offset += _CREDIT.size
        return payload, offset
    if tag == _TAG_TDMA_WORD:
        present, word = _TDMA.unpack_from(data, offset)
        offset += _TDMA.size
        return ("word", word if present else None), offset
    raise SimulationError(f"corrupt boundary frame: unknown tag {tag}")


# ---------------------------------------------------------------------------
# Seqlock primitives over one shared buffer
# ---------------------------------------------------------------------------


def _sleep_zero() -> None:
    time.sleep(0)


#: Give the CPU to a runnable peer without arming a timer.  ``time.sleep(0)``
#: is a timer sleep on Linux (tens of microseconds per call under the default
#: timer slack); ``sched_yield`` returns as soon as the scheduler has looked.
_yield_cpu = getattr(os, "sched_yield", _sleep_zero)


class SpinWait:
    """Escalating-backoff spin with abort and deadline checks.

    The first iterations yield the GIL only (cheap when the peer runs on
    another core); after that the wait escalates to yielding the CPU and
    then to short real sleeps — essential on machines with fewer cores than
    shards, where the peer needs the CPU to make progress at all.
    """

    __slots__ = ("_control", "_deadline", "_spins", "spun")

    def __init__(self, control: "ControlBlock", deadline_s: float = 600.0) -> None:
        self._control = control
        self._deadline = time.monotonic() + deadline_s
        self._spins = 0
        #: True once :meth:`pause` has run — the value was not immediately
        #: available (the overlap-hit counters count the complement).
        self.spun = False

    def pause(self) -> None:
        self.spun = True
        if self._control.aborted():
            raise SimulationError("sharded run aborted by a peer failure")
        spins = self._spins
        self._spins = spins + 1
        if spins < 64:
            return
        if spins < 4096:
            _yield_cpu()
            return
        if time.monotonic() > self._deadline:
            raise SimulationError("shared-memory boundary exchange timed out")
        time.sleep(50e-6)


_SLOT_HDR = struct.Struct("<QI4x")  # sequence, payload bytes, pad to 16
_SEQ = struct.Struct("<Q")
_RING_SLOTS = 2


class BoundaryRing:
    """One double-buffered frame ring inside the shared segment.

    Window *w* publishes into slot ``w % 2`` with sequence ``w + 1``
    written after the payload; the reader of window *w* spins until the
    slot's sequence reaches ``w + 1``.  The window loop's vote barrier
    guarantees the writer cannot start window ``w + 2`` before the reader
    has consumed window *w*, so a slot observed at its sequence is stable.
    """

    __slots__ = ("_buf", "_offset", "_stride", "capacity")

    def __init__(self, buf: memoryview, offset: int, capacity: int) -> None:
        self._buf = buf
        self._offset = offset
        self.capacity = capacity
        self._stride = _ring_stride(capacity)

    def publish(self, window: int, data: bytes) -> None:
        if len(data) > self.capacity:
            raise SimulationError(
                f"boundary frame overflow: {len(data)} > {self.capacity} bytes"
            )
        base = self._offset + (window % _RING_SLOTS) * self._stride
        start = base + _SLOT_HDR.size
        self._buf[start : start + len(data)] = data
        struct.pack_into("<I", self._buf, base + _SEQ.size, len(data))
        # Sequence written last, as its own store: publication barrier.
        _SEQ.pack_into(self._buf, base, window + 1)

    def read(self, window: int, spin: SpinWait) -> memoryview:
        base = self._offset + (window % _RING_SLOTS) * self._stride
        want = window + 1
        while True:
            sequence, nbytes = _SLOT_HDR.unpack_from(self._buf, base)
            if sequence >= want:
                break
            spin.pause()
        start = base + _SLOT_HDR.size
        return self._buf[start : start + nbytes]


def _ring_stride(capacity: int) -> int:
    return (_SLOT_HDR.size + capacity + 7) & ~7


_VOTE = struct.Struct("<QQQQ")  # sequence, horizon, cycle, destination mask
_VOTE_SLOTS = 2
_ABORT_OFFSET = 0
_VOTES_OFFSET = 8


class ControlBlock:
    """Abort flag plus the per-shard horizon-vote slots.

    Votes rotate through two slots per shard (``sequence % 2``); the
    barrier structure of the window loop — every shard consumes vote *v*
    of every other shard before publishing vote ``v + 1`` — bounds any
    writer's lead, so vote *v* is immutable until every reader is done
    with it.
    """

    __slots__ = ("_buf", "_offset", "shards")

    def __init__(self, buf: memoryview, offset: int, shards: int) -> None:
        self._buf = buf
        self._offset = offset
        self.shards = shards

    @staticmethod
    def size(shards: int) -> int:
        return _VOTES_OFFSET + shards * _VOTE_SLOTS * _VOTE.size

    def _slot(self, shard: int, sequence: int) -> int:
        return (
            self._offset
            + _VOTES_OFFSET
            + (shard * _VOTE_SLOTS + sequence % _VOTE_SLOTS) * _VOTE.size
        )

    def publish_vote(
        self, shard: int, sequence: int, horizon: int, cycle: int, dest_mask: int
    ) -> None:
        base = self._slot(shard, sequence)
        struct.pack_into("<QQQ", self._buf, base + _SEQ.size, horizon, cycle, dest_mask)
        # Sequence written last, as its own store: a reader that observes
        # it also observes the horizon / cycle / mask stores that precede
        # it in program order.
        _SEQ.pack_into(self._buf, base, sequence)

    def read_vote(
        self, shard: int, sequence: int, spin: SpinWait
    ) -> Tuple[int, int, int]:
        base = self._slot(shard, sequence)
        while True:
            got, horizon, cycle, dest_mask = _VOTE.unpack_from(self._buf, base)
            if got == sequence:
                return horizon, cycle, dest_mask
            if got > sequence:
                raise SimulationError(
                    f"shard {shard} vote {sequence} overwritten (found {got}):"
                    " window protocol out of sync"
                )
            spin.pause()

    def abort(self) -> None:
        struct.pack_into("<Q", self._buf, self._offset + _ABORT_OFFSET, 1)

    def aborted(self) -> bool:
        return struct.unpack_from("<Q", self._buf, self._offset + _ABORT_OFFSET)[0] != 0


# ---------------------------------------------------------------------------
# Boundary plan
# ---------------------------------------------------------------------------


def _link_geometry(kind: str, params: Dict[str, Any]) -> Dict[str, int]:
    """Wire geometry of one boundary link, from the network kind's params."""
    if kind == "circuit_switched":
        return {
            "link_kind": "lane",
            "num_lanes": int(params.get("lanes_per_port", 4)),
            "lane_width": int(params.get("lane_width", 4)),
        }
    if kind == "packet_switched":
        return {"link_kind": "packet", "num_vcs": int(params.get("num_vcs", 4))}
    if kind == "time_division_gt":
        return {"link_kind": "tdma", "data_width": int(params.get("data_width", 16))}
    raise ConfigurationError(f"unknown network kind {kind!r}")


def shm_unsupported_reason(
    kind: str, params: Dict[str, Any], topology: Any, shards: int
) -> Optional[str]:
    """Why the shared-memory transport cannot carry this network (or ``None``).

    The binary codec uses fixed-width records; exotic geometries that
    overflow them (and shard counts beyond the vote bitmask) take the
    pipe transport instead, which has no width limits.
    """
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return "multiprocessing.shared_memory is unavailable"
    if shards > MAX_SHM_SHARDS:
        return f"more than {MAX_SHM_SHARDS} shards"
    geometry = _link_geometry(kind, params)
    if geometry["link_kind"] == "lane":
        if geometry["num_lanes"] > 255:
            return "more than 255 lanes per link"
        if geometry["lane_width"] > 32:
            return "lane values wider than 32 bits"
    if geometry["link_kind"] == "packet" and geometry["num_vcs"] > 255:
        return "more than 255 virtual channels"
    if geometry["link_kind"] == "tdma" and geometry["data_width"] > 64:
        return "slot words wider than 64 bits"
    for x, y in topology.positions():
        if not (0 <= x <= 0xFFFF and 0 <= y <= 0xFFFF):
            return "router coordinates outside the 16-bit frame header"
    return None


def build_plan(
    kind: str,
    params: Dict[str, Any],
    topology: Any,
    shard_of: Dict[Any, int],
    shards: int,
) -> Dict[str, Any]:
    """Compute the shared segment's layout before any worker exists.

    For every ordered pair of shards ``(i, j)`` with boundary traffic, the
    plan lists the frames shard *i* may ship to shard *j* — forward frames
    of cut links driven from *i*, reverse (ack / credit) frames of cut
    links read in *i* — in sorted-key order, plus the pair's ring offset
    inside the segment.  Workers rebuild codecs and rings from the plan
    alone, so parent and children agree on every byte without negotiation.
    """
    geometry = _link_geometry(kind, params)
    has_reverse = geometry["link_kind"] != "tdma"
    fwd: Dict[Tuple[int, int], List[Tuple[str, Any]]] = {}
    rev: Dict[Tuple[int, int], List[Tuple[str, Any]]] = {}
    for key in sorted(topology.directed_links()):
        src, dst = key
        src_shard = shard_of[src]
        dst_shard = shard_of[dst]
        if src_shard == dst_shard:
            continue
        fwd.setdefault((src_shard, dst_shard), []).append(("fwd", key))
        if has_reverse:
            rev.setdefault((dst_shard, src_shard), []).append(("rev", key))
    pairs: Dict[Tuple[int, int], Dict[str, Any]] = {}
    offset = ControlBlock.size(shards)
    for pair in sorted(set(fwd) | set(rev)):
        entries = fwd.get(pair, []) + rev.get(pair, [])
        codec = BoundaryCodec(entries, geometry)
        pairs[pair] = {"entries": entries, "offset": offset, "capacity": codec.capacity}
        offset += _ring_stride(codec.capacity) * _RING_SLOTS
    return {
        "geometry": geometry,
        "pairs": pairs,
        "size": max(offset, ControlBlock.size(shards) + 1),
        "shards": shards,
    }
