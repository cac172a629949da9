"""Flits and packets of the packet-switched baseline router.

The packet-switched equivalent the paper compares against (Kavaldjiev's
virtual-channel router [6]) uses 16-bit links; a network packet is a head
flit carrying the destination, a number of 16-bit payload flits and a tail
flit.  The default payload size of 16 data words per packet keeps the header
overhead near 6 %, comparable to the 4-bit-per-word header of the
circuit-switched lane packet (25 % on the wire but at 4× narrower lanes).

Inside the simulator a flit is one ``int`` (:func:`pack_packet` at the tile
or stream driver, :func:`unpack` to read one back), fields from the least
significant bit up: virtual channel, head and tail bits, payload, sequence,
destination x / y, source x / y, packet id.  A VC change is a mask-and-or,
and everything above :data:`SRC_SHIFT` names the packet a flit belongs to.
The frozen :class:`Flit` is the public value type and the encode/decode
reference.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, List, Sequence, Tuple

from repro.common import check_field

__all__ = ["FlitType", "Flit", "Packet", "packetize", "depacketize", "pack", "pack_packet", "unpack"]

#: Payload width of one flit in bits (the link width of the baseline router).
FLIT_PAYLOAD_BITS = 16
#: Control bits stored alongside each flit in the buffers (type encoding).
FLIT_CONTROL_BITS = 2

_packet_ids = itertools.count(1)

#: Bit layout of a packed flit (see the module docstring).
VC_BITS = 8
VC_MASK = (1 << VC_BITS) - 1
HEAD_BIT = 1 << VC_BITS
TAIL_BIT = HEAD_BIT << 1
PAYLOAD_SHIFT = VC_BITS + 2
PAYLOAD_MASK = (1 << FLIT_PAYLOAD_BITS) - 1
SEQUENCE_SHIFT = PAYLOAD_SHIFT + FLIT_PAYLOAD_BITS
SEQUENCE_BITS = 16
COORD_BITS = 16
COORD_MASK = (1 << COORD_BITS) - 1
DEST_SHIFT = SEQUENCE_SHIFT + SEQUENCE_BITS
SRC_SHIFT = DEST_SHIFT + 2 * COORD_BITS
ID_SHIFT = SRC_SHIFT + 2 * COORD_BITS
#: Buffer bits of one flit (payload plus the type encoding).
STORAGE_BITS = FLIT_PAYLOAD_BITS + FLIT_CONTROL_BITS


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


_TYPE_BITS = {
    FlitType.HEAD: HEAD_BIT, FlitType.BODY: 0, FlitType.TAIL: TAIL_BIT, FlitType.SINGLE: HEAD_BIT | TAIL_BIT,
}
_TYPES = {bits: flit_type for flit_type, bits in _TYPE_BITS.items()}


def _packet_bits(dest: Tuple[int, int], src: Tuple[int, int], packet_id: int, vc: int) -> int:
    """The fields every flit of a packet shares, checked and packed."""
    check_field(vc, VC_BITS, "virtual channel")
    for coordinate in (*dest, *src):
        check_field(coordinate, COORD_BITS, "flit coordinate")
    if packet_id < 0:
        raise ValueError("packet id must be non-negative")
    return (
        packet_id << ID_SHIFT
        | src[1] << SRC_SHIFT + COORD_BITS | src[0] << SRC_SHIFT
        | dest[1] << DEST_SHIFT + COORD_BITS | dest[0] << DEST_SHIFT
        | vc
    )


def pack(flit: Flit) -> int:
    """*flit* as the simulator's packed ``int``."""
    check_field(flit.sequence, SEQUENCE_BITS, "flit sequence")
    return (
        _packet_bits(flit.dest, flit.src, flit.packet_id, flit.vc)
        | flit.sequence << SEQUENCE_SHIFT | flit.payload << PAYLOAD_SHIFT | _TYPE_BITS[flit.flit_type]
    )


def unpack(word: int) -> Flit:
    """The :class:`Flit` a packed ``int`` encodes (inverse of :func:`pack`)."""
    return Flit(
        _TYPES[word & (HEAD_BIT | TAIL_BIT)],
        word >> PAYLOAD_SHIFT & PAYLOAD_MASK,
        (word >> DEST_SHIFT & COORD_MASK, word >> DEST_SHIFT + COORD_BITS & COORD_MASK),
        (word >> SRC_SHIFT & COORD_MASK, word >> SRC_SHIFT + COORD_BITS & COORD_MASK),
        word & VC_MASK,
        word >> ID_SHIFT,
        word >> SEQUENCE_SHIFT & (1 << SEQUENCE_BITS) - 1,
    )


def pack_packet(packet: Packet, vc: int = 0) -> List[int]:
    """``[pack(f) for f in packetize(packet, vc)]``, every field checked once."""
    words = packet.words
    check_field(len(words), SEQUENCE_BITS, "packet length")
    base = _packet_bits(packet.dest, packet.src, packet.packet_id, vc)
    head = base | _encode_destination(packet.dest, packet.src, len(words)) << PAYLOAD_SHIFT
    if not words:
        return [head | HEAD_BIT | TAIL_BIT]
    flits = [head | HEAD_BIT]
    for sequence, word in enumerate(words, 1):
        check_field(word, FLIT_PAYLOAD_BITS, "flit payload")
        flits.append(base | sequence << SEQUENCE_SHIFT | word << PAYLOAD_SHIFT)
    flits[-1] |= TAIL_BIT
    return flits
