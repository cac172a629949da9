"""Shared definitions used throughout the reproduction.

This module collects the handful of concepts that every subsystem refers to:

* the five router ports of the paper's routers (one tile port plus the four
  mesh neighbours, Section 5.1 of the paper),
* small bit-manipulation helpers used by the bit-accurate router models,
* the exception hierarchy of the library.

Everything here is deliberately dependency-free so that any subpackage can
import it without creating cycles.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Port",
    "NEIGHBOR_PORTS",
    "ALL_PORTS",
    "opposite_port",
    "port_offset",
    "bit_mask",
    "popcount",
    "hamming_distance",
    "toggle_count",
    "split_bits",
    "join_bits",
    "check_field",
    "ReproError",
    "ConfigurationError",
    "AllocationError",
    "CapacityError",
    "MappingError",
    "ProtocolError",
    "SimulationError",
    "FaultError",
]


class Port(enum.IntEnum):
    """The five bidirectional ports of a router.

    The paper's router (Fig. 4) has one port towards the local processing
    tile and four ports towards the neighbouring routers of the 2-D mesh.
    The integer values are used as array indices throughout the router
    models, so they must stay dense and start at zero.
    """

    TILE = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4

    @property
    def is_tile(self) -> bool:
        """True for the processing-tile port."""
        return self is Port.TILE

    @property
    def is_neighbor(self) -> bool:
        """True for the four mesh-neighbour ports."""
        return self is not Port.TILE

    @property
    def short_name(self) -> str:
        """Single-letter name used in traces and reports (``T/N/E/S/W``)."""
        return self.name[0]


#: The four mesh-neighbour ports in clockwise order starting at north.
NEIGHBOR_PORTS: tuple[Port, ...] = (Port.NORTH, Port.EAST, Port.SOUTH, Port.WEST)

#: All five ports, tile first (index order).
ALL_PORTS: tuple[Port, ...] = (
    Port.TILE,
    Port.NORTH,
    Port.EAST,
    Port.SOUTH,
    Port.WEST,
)

_OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}

_OFFSETS = {
    Port.NORTH: (0, 1),
    Port.SOUTH: (0, -1),
    Port.EAST: (1, 0),
    Port.WEST: (-1, 0),
}


def opposite_port(port: Port) -> Port:
    """Return the port on the neighbouring router facing back at *port*.

    The tile port has no opposite; asking for it is a programming error.
    """
    try:
        return _OPPOSITE[Port(port)]
    except KeyError:
        raise ValueError(f"port {port!r} has no opposite (tile port?)") from None


def port_offset(port: Port) -> tuple[int, int]:
    """Return the ``(dx, dy)`` mesh offset of the neighbour behind *port*.

    The mesh uses a mathematical orientation: ``x`` grows towards the east,
    ``y`` grows towards the north.
    """
    try:
        return _OFFSETS[Port(port)]
    except KeyError:
        raise ValueError(f"port {port!r} is not a neighbour port") from None


# ---------------------------------------------------------------------------
# Bit utilities
# ---------------------------------------------------------------------------


def bit_mask(width: int) -> int:
    """Return an all-ones mask of *width* bits (``width`` may be zero)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is only defined for non-negative integers")
    return value.bit_count()


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two non-negative integers."""
    value = a ^ b
    if value < 0:
        raise ValueError("hamming_distance is only defined for non-negative integers")
    return value.bit_count()


def toggle_count(previous: int, current: int, width: int | None = None) -> int:
    """Number of signal transitions when a bus changes from *previous* to *current*.

    If *width* is given the comparison is restricted to that many LSBs; this
    is what the activity counters of the power model use.  The hot router
    loops spell the masked form out, ``((previous ^ current) & mask)
    .bit_count()`` with the mask hoisted; this is the same for cold callers.
    """
    if width is not None:
        m = (1 << width) - 1
        return ((previous & m) ^ (current & m)).bit_count()
    value = previous ^ current
    if value < 0:
        raise ValueError("toggle_count is only defined for non-negative integers")
    return value.bit_count()


def split_bits(value: int, chunk_width: int, count: int, *, msb_first: bool = True) -> list[int]:
    """Split *value* into *count* chunks of *chunk_width* bits.

    The circuit-switched data converter uses this to serialise a 20-bit lane
    packet into five 4-bit phits (Section 5.2 of the paper).  With
    ``msb_first=True`` the first element of the result is the most
    significant chunk, which is also the first phit on the wire.
    """
    if chunk_width <= 0:
        raise ValueError("chunk_width must be positive")
    if count <= 0:
        raise ValueError("count must be positive")
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> (chunk_width * count):
        raise ValueError(
            f"value {value:#x} does not fit in {count} chunks of {chunk_width} bits"
        )
    m = bit_mask(chunk_width)
    chunks = [(value >> (i * chunk_width)) & m for i in range(count)]
    chunks.reverse()  # now MSB first
    if not msb_first:
        chunks.reverse()
    return chunks


def join_bits(chunks: Sequence[int], chunk_width: int, *, msb_first: bool = True) -> int:
    """Inverse of :func:`split_bits`."""
    if chunk_width <= 0:
        raise ValueError("chunk_width must be positive")
    m = bit_mask(chunk_width)
    value = 0
    ordered: Iterable[int] = chunks if msb_first else reversed(list(chunks))
    for chunk in ordered:
        if chunk < 0 or chunk > m:
            raise ValueError(f"chunk {chunk:#x} does not fit in {chunk_width} bits")
        value = (value << chunk_width) | chunk
    return value


def check_field(value: int, width: int, name: str) -> int:
    """Validate that *value* fits in *width* bits and return it.

    Used by packet/flit constructors so that malformed values are rejected
    where they are created rather than corrupting a simulation later.
    """
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0 or value > bit_mask(width):
        raise ValueError(f"{name}={value} does not fit in {width} bits")
    return value


def iter_bits(value: int, width: int) -> Iterator[int]:
    """Yield the bits of *value*, LSB first, exactly *width* of them."""
    for i in range(width):
        yield (value >> i) & 1


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigurationError(ReproError):
    """An invalid crossbar / router configuration was requested."""


class AllocationError(ReproError):
    """The lane allocator could not find resources for a channel."""


class CapacityError(ReproError):
    """A bandwidth or buffer capacity constraint was violated."""


class MappingError(ReproError):
    """The spatial mapper could not place an application on the mesh."""


class ProtocolError(ReproError):
    """A wire-level protocol invariant was violated (framing, credits, ...)."""


class SimulationError(ReproError):
    """The simulation kernel detected an inconsistency."""


class FaultError(ReproError):
    """A run-time fault injection was rejected or failed.

    Raised instead of the topology layer's generic ``ValueError`` when a
    requested link/router kill would disconnect the surviving fabric (the
    message names the cut), targets a resource that does not exist or is
    already dead, or would take out the CCN's own router.
    """
