"""Flits and packets of the packet-switched baseline router.

The packet-switched equivalent the paper compares against (Kavaldjiev's
virtual-channel router [6]) uses 16-bit links; a network packet is a head
flit carrying the destination, a number of 16-bit payload flits and a tail
flit.  The default payload size of 16 data words per packet keeps the header
overhead near 6 %, comparable to the 4-bit-per-word header of the
circuit-switched lane packet (25 % on the wire but at 4× narrower lanes).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, List, Sequence, Tuple

from repro.common import check_field

__all__ = ["FlitType", "Flit", "Packet", "packetize", "depacketize"]

#: Payload width of one flit in bits (the link width of the baseline router).
FLIT_PAYLOAD_BITS = 16
#: Control bits stored alongside each flit in the buffers (type encoding).
FLIT_CONTROL_BITS = 2

_packet_ids = itertools.count(1)


class FlitType(enum.Enum):
    """Position of a flit within its packet."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    SINGLE = "single"  # head and tail in one flit (single-word packet)

    def __init__(self, label: str) -> None:
        #: True for flits that open a packet (carry routing information).
        self.is_head = label in ("head", "single")
        #: True for flits that close a packet (release the virtual channel).
        self.is_tail = label in ("tail", "single")


@dataclass(frozen=True, slots=True)
class Flit:
    """One 16-bit flit travelling through the packet-switched network.

    The destination is carried explicitly on every flit for the convenience
    of the model; in hardware only the head flit encodes it (the payload of a
    head flit here is exactly that encoding, so toggle statistics are
    faithful).
    """

    flit_type: FlitType
    payload: int
    dest: Tuple[int, int]
    src: Tuple[int, int]
    vc: int
    packet_id: int
    sequence: int
    #: Bits occupied in a VC buffer (payload plus control).
    storage_bits: ClassVar[int] = FLIT_PAYLOAD_BITS + FLIT_CONTROL_BITS

    def __post_init__(self) -> None:
        check_field(self.payload, FLIT_PAYLOAD_BITS, "flit payload")
        if self.vc < 0:
            raise ValueError("virtual channel id must be non-negative")
        if self.sequence < 0:
            raise ValueError("sequence number must be non-negative")

    def with_vc(self, vc: int) -> "Flit":
        """This flit on virtual channel *vc*: itself, or a copy with only *vc* checked."""
        if vc == self.vc:
            return self
        if vc < 0:
            raise ValueError("virtual channel id must be non-negative")
        clone = object.__new__(Flit)
        write = object.__setattr__  # a frozen dataclass is written past its own __setattr__
        write(clone, "flit_type", self.flit_type)
        write(clone, "payload", self.payload)
        write(clone, "dest", self.dest)
        write(clone, "src", self.src)
        write(clone, "vc", vc)
        write(clone, "packet_id", self.packet_id)
        write(clone, "sequence", self.sequence)
        return clone


@dataclass
class Packet:
    """A whole network packet: destination plus a list of 16-bit data words."""

    src: Tuple[int, int]
    dest: Tuple[int, int]
    words: List[int] = field(default_factory=list)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def payload_bits(self) -> int:
        """Number of payload bits carried by the packet."""
        return len(self.words) * FLIT_PAYLOAD_BITS

    @property
    def flit_count(self) -> int:
        """Number of flits the packet occupies on a link (head + words)."""
        return 1 + len(self.words) if self.words else 1


def _encode_destination(dest: Tuple[int, int], src: Tuple[int, int], length: int) -> int:
    """Head-flit payload: destination / source coordinates and packet length."""
    dx, dy = dest
    sx, sy = src
    return (
        ((dx & 0xF) << 12)
        | ((dy & 0xF) << 8)
        | ((sx & 0x3) << 6)
        | ((sy & 0x3) << 4)
        | (length & 0xF)
    )


def packetize(packet: Packet, vc: int = 0) -> List[Flit]:
    """Split a :class:`Packet` into its flits (head, body…, tail)."""
    words = packet.words
    if not words:
        head_payload = _encode_destination(packet.dest, packet.src, 0)
        return [
            Flit(FlitType.SINGLE, head_payload, packet.dest, packet.src, vc, packet.packet_id, 0)
        ]
    flits: List[Flit] = [
        Flit(
            FlitType.HEAD,
            _encode_destination(packet.dest, packet.src, len(words)),
            packet.dest,
            packet.src,
            vc,
            packet.packet_id,
            0,
        )
    ]
    for index, word in enumerate(words):
        last = index == len(words) - 1
        flits.append(
            Flit(
                FlitType.TAIL if last else FlitType.BODY,
                word,
                packet.dest,
                packet.src,
                vc,
                packet.packet_id,
                index + 1,
            )
        )
    return flits


def depacketize(flits: Sequence[Flit]) -> Packet:
    """Reassemble a packet from its flits (inverse of :func:`packetize`)."""
    if not flits:
        raise ValueError("cannot reassemble a packet from zero flits")
    head = flits[0]
    if not head.flit_type.is_head:
        raise ValueError("first flit is not a head flit")
    words = [flit.payload for flit in flits[1:]]
    return Packet(src=head.src, dest=head.dest, words=words, packet_id=head.packet_id)


def split_words(words: Iterable[int], words_per_packet: int) -> List[List[int]]:
    """Chunk a word stream into packet payloads of at most *words_per_packet*."""
    if words_per_packet < 1:
        raise ValueError("words_per_packet must be positive")
    chunks: List[List[int]] = []
    current: List[int] = []
    for word in words:
        current.append(word)
        if len(current) == words_per_packet:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks
