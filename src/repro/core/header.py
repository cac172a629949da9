"""Lane packet format: 4-bit header + 16-bit data word (Section 5.2, Fig. 6).

The circuit-switched network transports a small four-bit header with every
16-bit data word of the tile interface, giving a 20-bit *lane packet* that is
serialised into five 4-bit phits over a single lane.  The exact bit layout of
Fig. 6 is not legible in the source material; DESIGN.md §5 documents the
reconstruction used here:

* the header nibble is transmitted first, followed by the data word MSB-first,
* header bit 3 = ``VALID`` (distinguishes a packet from an idle lane),
* header bit 2 = ``SOB`` start-of-block (first word of an OFDM symbol / burst),
* header bit 1 = ``EOB`` end-of-block,
* header bit 0 = ``USER`` (free for the application, e.g. parity).

Idle lanes carry the all-zero nibble, so a deserialiser acquires frame
synchronisation on the first nibble with ``VALID`` set and then simply counts
five phits per packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.common import ProtocolError, bit_mask, check_field, join_bits, split_bits

__all__ = ["LaneHeader", "LanePacket", "phits_per_packet"]

#: Width of the header in bits; it occupies exactly one phit of the default lane.
HEADER_WIDTH = 4

#: The four flag bits of the header nibble.  The per-phit converter paths test
#: these masks directly instead of decoding a :class:`LaneHeader`.
VALID_MASK = 1 << 3
SOB_MASK = 1 << 2
EOB_MASK = 1 << 1
USER_MASK = 1 << 0


def phits_per_packet(data_width: int = 16, lane_width: int = 4) -> int:
    """Number of phits needed for one lane packet (paper: 5).

    The header always occupies a full phit; the data word occupies
    ``ceil(data_width / lane_width)`` phits.
    """
    if data_width < 1 or lane_width < 1:
        raise ValueError("data_width and lane_width must be positive")
    if lane_width < HEADER_WIDTH:
        raise ValueError(
            f"lane_width must be at least {HEADER_WIDTH} bits to carry the header nibble"
        )
    return 1 + math.ceil(data_width / lane_width)


@dataclass(frozen=True)
class LaneHeader:
    """The four header flags carried with every data word."""

    valid: bool = True
    sob: bool = False
    eob: bool = False
    user: bool = False

    def encode(self) -> int:
        """Encode the header as a 4-bit nibble."""
        return (
            (VALID_MASK if self.valid else 0)
            | (SOB_MASK if self.sob else 0)
            | (EOB_MASK if self.eob else 0)
            | (USER_MASK if self.user else 0)
        )

    @classmethod
    def decode(cls, nibble: int) -> "LaneHeader":
        """Decode a 4-bit nibble into a header."""
        check_field(nibble, HEADER_WIDTH, "header nibble")
        return cls(
            valid=bool(nibble & VALID_MASK),
            sob=bool(nibble & SOB_MASK),
            eob=bool(nibble & EOB_MASK),
            user=bool(nibble & USER_MASK),
        )

    @classmethod
    def idle(cls) -> "LaneHeader":
        """The header value carried by an idle lane (all zeros, not valid)."""
        return cls(valid=False, sob=False, eob=False, user=False)


@dataclass(frozen=True)
class LanePacket:
    """A header plus data word: the unit transported over one lane.

    Parameters
    ----------
    data:
        The data word from the tile interface (``data_width`` bits).
    header:
        The four flag bits; defaults to a plain valid word.
    data_width:
        Width of the data word in bits (16 in the paper).
    """

    data: int
    header: LaneHeader = LaneHeader()
    data_width: int = 16

    def __post_init__(self) -> None:
        check_field(self.data, self.data_width, "lane packet data")

    @property
    def total_bits(self) -> int:
        """Bits on the wire for this packet (paper: 20)."""
        return HEADER_WIDTH + self.data_width

    def encode(self) -> int:
        """The packet as a single integer, header in the most significant bits."""
        return (self.header.encode() << self.data_width) | self.data

    def to_phits(self, lane_width: int = 4) -> List[int]:
        """Serialise into phits, header phit first, data MSB-first."""
        count = phits_per_packet(self.data_width, lane_width)
        header_phit = self.header.encode()
        data_phits = split_bits(
            self.data,
            lane_width,
            count - 1,
            msb_first=True,
        )
        return [header_phit] + data_phits

    @classmethod
    def from_phits(
        cls,
        phits: Sequence[int],
        lane_width: int = 4,
        data_width: int = 16,
    ) -> "LanePacket":
        """Reassemble a packet from its phits (inverse of :meth:`to_phits`)."""
        expected = phits_per_packet(data_width, lane_width)
        if len(phits) != expected:
            raise ProtocolError(
                f"expected {expected} phits for a {data_width}-bit word over "
                f"{lane_width}-bit lanes, got {len(phits)}"
            )
        mask = bit_mask(lane_width)
        for phit in phits:
            if phit < 0 or phit > mask:
                raise ProtocolError(f"phit {phit:#x} does not fit in {lane_width} bits")
        header = LaneHeader.decode(phits[0] & bit_mask(HEADER_WIDTH))
        if not header.valid:
            raise ProtocolError("first phit does not carry a valid header")
        data = join_bits(phits[1:], lane_width, msb_first=True) & bit_mask(data_width)
        return cls(data=data, header=header, data_width=data_width)
