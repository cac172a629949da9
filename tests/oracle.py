"""The differential oracle: every variant of a run leaves the same snapshot.

A variant is a schedule, a side of the vector plane's live-route gate or a
shard layout; what must come out alike is
:meth:`repro.noc.fabric.NocBase.snapshot` (cycle, per-router activity,
stream statistics, fault drops, energy per bit), plus whatever
*extra_state* a test reads beyond it (converter lanes, wires, heap
statistics).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Mapping, Optional

from repro.sim import vector

#: The plane's live-route gate as shipped.
SHIPPED_GATE = vector.MIN_BATCH_ROUTES

#: The reference schedule, and what a user gets without naming one.
SCHEDULES = {"strict": {"schedule": "strict"}, "default": {}}

ExtraState = Optional[Callable[[Any], Any]]


@contextlib.contextmanager
def gate_at(routes: Optional[int]):
    """Run with the plane's live-route gate at *routes* (``None``: leave it)."""
    saved = vector.MIN_BATCH_ROUTES
    if routes is not None:
        vector.MIN_BATCH_ROUTES = routes
    try:
        yield
    finally:
        vector.MIN_BATCH_ROUTES = saved


def ran(network: Any, cycles: int) -> Any:
    """*network* after ``run(cycles)``: the last line of most scenarios."""
    network.run(cycles)
    return network


def state(network: Any, extra_state: ExtraState = None) -> Any:
    """What is compared: the snapshot, and ``extra_state(network)`` if given."""
    return network.snapshot(), extra_state(network) if extra_state else None


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
    variant's ``gate`` entry is the live-route gate while it runs.  A
    sharded network is closed once its state is taken, so no idle worker
    fleet competes with the next variant.  Returns the networks by variant.
    """
    networks, states = {}, {}
    for name, params in variants.items():
        params = dict(params)
        with gate_at(params.pop("gate", None)):
            network = networks[name] = scenario(**params)
        try:
            states[name] = state(network, extra_state)
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
