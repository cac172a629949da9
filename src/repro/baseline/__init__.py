"""The packet-switched baseline the paper compares against.

This package implements a Kavaldjiev-style virtual-channel wormhole router
(5 ports, 16-bit links, 4 VCs, credit flow control, XY routing) plus the
literature reference constants of the Philips Æthereal router.  Together with
:mod:`repro.core` it provides both columns of the paper's comparison.

A flit is one packed ``int`` from the tile or stream driver to the tile or
consumer (:func:`pack_packet`, :func:`unpack`; :class:`Flit` is the value
type and reference), the routers keep flat per-VC lists, and one
:class:`PacketDatapath` clocks every router of a fabric or bench.
"""

from repro.baseline.flit import (
    FLIT_CONTROL_BITS,
    FLIT_PAYLOAD_BITS,
    Flit,
    FlitType,
    Packet,
    depacketize,
    pack,
    pack_packet,
    packetize,
    split_words,
    unpack,
)
from repro.baseline.link import PacketLink
from repro.baseline.routing import RouteFunction, path_ports, route_distance, xy_route
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter, PacketTileInterface
from repro.baseline.aethereal import AETHEREAL, AetherealReference
from repro.baseline.testbench import (
    PacketLinkDriver,
    PacketLinkSink,
    PacketTileDriver,
)

__all__ = [
    "FLIT_CONTROL_BITS",
    "FLIT_PAYLOAD_BITS",
    "Flit",
    "FlitType",
    "Packet",
    "depacketize",
    "pack",
    "pack_packet",
    "packetize",
    "split_words",
    "unpack",
    "PacketLink",
    "RouteFunction",
    "path_ports",
    "route_distance",
    "xy_route",
    "PacketDatapath",
    "PacketSwitchedRouter",
    "PacketTileInterface",
    "AETHEREAL",
    "AetherealReference",
    "PacketLinkDriver",
    "PacketLinkSink",
    "PacketTileDriver",
]
