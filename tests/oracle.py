"""The differential oracle: every variant of a run leaves the same snapshot.

A variant is a schedule or a shard layout; what must come out alike is
:meth:`repro.noc.fabric.NocBase.snapshot` (cycle, per-router activity,
stream statistics, fault drops, energy per bit), plus whatever
*extra_state* a test reads beyond it (converter lanes, wires, heap
statistics), plus what a scenario recorded at every stop of its run
(:func:`materialised`): a scenario run in drawn windows stops mid-word and
mid-acknowledge, where the default schedule's pipe writes back the state the
``strict`` walk holds.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Mapping, Optional

from repro.baseline.flit import COORD_BITS, ID_SHIFT, SRC_SHIFT
from repro.baseline.router import PacketDatapath
from repro.core.router import LaneDatapath
from repro.noc.gt_network import TdmaDatapath

#: The reference schedule, and what a user gets without naming one.
SCHEDULES = {"strict": {"schedule": "strict"}, "default": {}}

ExtraState = Optional[Callable[[Any], Any]]


def ran(network: Any, cycles: int) -> Any:
    """*network* after ``run(cycles)``: the last line of most scenarios."""
    network.run(cycles)
    return network


def _unit_state(unit: Any) -> Dict[str, Any]:
    """A lane unit's whole state, its flow-control objects by value."""
    state = {}
    for key, value in vars(unit).items():
        if key in ("activity", "on_deliver"):
            continue
        if key in ("window", "ack_generator"):
            value = vars(value)
        elif isinstance(value, deque):
            value = list(value)
        state[key] = value
    return state


#: A packed flit without its packet id, which a process-wide counter hands out.
_NO_ID = (1 << ID_SHIFT) - 1


def _packet_state(datapath: PacketDatapath, network: Any) -> Any:
    """Every router's buffers, VC and arbiter state and tile, every wire, and
    the walk's visit set and wire records, the lines' included (as sets:
    their order moves nothing)."""
    routers = {}
    for position, router in network.routers.items():
        tile = router.tile
        routers[position] = (
            [[flit & _NO_ID for flit in fifo] for fifo in router._fifos], router._occupied,
            list(router._route), list(router._out_vc), list(router._credits), list(router._free),
            list(router._vc_last), list(router._grant_last), list(router._prev_payload),
            [flit & _NO_ID for flit in tile._injection_queue],
            sorted((key & (1 << 2 * COORD_BITS) - 1, words) for key, words in tile._partial.items()),
            [(packet.src, packet.dest, packet.words) for packet in tile.received_packets],
            list(tile.received_words), dict(tile.words_from),
        )
    wires = {key: (link.forward and link.forward & _NO_ID, list(link.credits), link.dropped)
             for key, link in network.links.items()}
    # The lines keep theirs apart from the walk's until they hand them back.
    moved, arrivals, returns = datapath._lines[0].records if datapath.piping else ({}, [], [])
    walk = (
        sorted(router.name for router in {**datapath._next, **moved}),
        sorted(record[0].name for record in [*datapath._arrivals, *arrivals]),
        sorted({(record[4].name, record[3]) for record in [*datapath._returns, *returns]}),
    )
    return routers, wires, walk


def materialised(network: Any) -> Any:
    """The snapshot and, on a single-process circuit fabric, every crossbar
    register, wire and converter lane unit; on a GT one every output
    register, tile queue and delivered word, and every wire; on a packet one
    every buffer, VC, credit, arbiter and tile state, every wire and the
    walk's visit set and wire records."""
    lanes = None
    if isinstance(getattr(network, "datapath", None), PacketDatapath):
        lanes = _packet_state(network.datapath, network)
    if isinstance(getattr(network, "datapath", None), TdmaDatapath):
        lanes = (
            {
                position: (
                    list(router._out_reg),
                    list(router._out_prev),
                    {connection: list(queue) for connection, queue in router.tile._tx.items()},
                    router.tile.received,
                )
                for position, router in network.routers.items()
            },
            {key: (link.forward, link.dropped) for key, link in network.links.items()},
        )
    if isinstance(getattr(network, "datapath", None), LaneDatapath):
        lanes = (
            {
                position: (
                    list(router.crossbar.committed_data),
                    list(router.crossbar.committed_acks),
                    [_unit_state(u) for u in (*router.converter.serializers, *router.converter.deserializers)],
                )
                for position, router in network.routers.items()
            },
            {key: (list(link.forward), list(link.ack), link.dropped) for key, link in network.links.items()},
        )
    return network.snapshot(), lanes


def state(network: Any, extra_state: ExtraState = None, lanes: bool = True) -> Any:
    """What is compared: the snapshot, ``extra_state(network)`` if given and
    what the scenario recorded at its stops (``network.oracle_stops``; the
    snapshots alone unless *lanes*)."""
    stops = getattr(network, "oracle_stops", None)
    if stops is not None and not lanes:
        stops = [snapshot for snapshot, _lanes in stops]
    return network.snapshot(), extra_state(network) if extra_state else None, stops


def assert_states(states: Mapping[str, Any], where: str = "") -> None:
    """Every state equals the first one."""
    (reference_name, expected), *others = states.items()
    for name, got in others:
        assert got == expected, f"{name} diverged from {reference_name} {where}"


def assert_same(networks: Mapping[str, Any], extra_state: ExtraState = None, where: str = "") -> None:
    """Every network's :func:`state` equals the first one's."""
    assert_states({name: state(network, extra_state) for name, network in networks.items()}, where)


def assert_identical(
    scenario: Callable[..., Any],
    variants: Mapping[str, Dict[str, Any]] = SCHEDULES,
    extra_state: ExtraState = None,
) -> Dict[str, Any]:
    """Run ``scenario(**params)`` once per variant; every state must equal the first's.

    *scenario* builds a fabric with *params* as extra build arguments, runs
    it and returns it (a :class:`conftest.FabricScenario` is one).  A
    sharded network is closed once its state is taken, so no idle worker
    fleet competes with the next variant; where one runs, the stops compare
    snapshots only.  Returns the networks by variant.
    """
    networks, states = {}, {}
    lanes = not any(params.get("shards") for params in variants.values())
    for name, params in variants.items():
        network = networks[name] = scenario(**params)
        try:
            states[name] = state(network, extra_state, lanes)
        finally:
            if hasattr(network, "close"):
                network.close()
    assert_states(states)
    return networks


def assert_schedules_identical(scenario: Callable[..., Any]) -> Dict[str, Any]:
    """:func:`assert_identical` over :data:`SCHEDULES`; strict never skips a cycle."""
    networks = assert_identical(scenario)
    assert networks["strict"].kernel.scheduler_stats.skipped == 0
    return networks
