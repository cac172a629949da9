"""Randomised tri-modal schedule equivalence and event-heap determinism.

:mod:`tests.test_kernel_equivalence` pins the curated tier-1 scenarios;
this module stresses the same invariant — ``strict``, ``auto`` and
``event`` schedules are bit-identical — on *drawn* scenarios: a seeded RNG
picks the mesh, the network kind, the channel endpoints, their offered
loads and whether the run churns (tears a channel down mid-run).  A second
family checks that the event schedule itself is deterministic: running the
identical scenario twice — including mid-run stream removal and a live
link fault, the operations that delete heap entries — must reproduce the
same observables *and* the same heap statistics.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.traffic import BitFlipPattern, word_generator
from repro.noc.fabric import build_network
from repro.noc.topology import Mesh2D

FREQUENCY_HZ = 100e6
SCHEDULES = ("strict", "vector")
KINDS = ("circuit", "packet", "gt")
MESHES = ((3, 3), (4, 2), (4, 4))


def _snapshot(network):
    """Everything the experiments read from a network, in comparable form."""
    activity = {
        position: (router.activity.as_dict(), router.activity.cycles)
        for position, router in network.routers.items()
    }
    return {
        "cycle": network.kernel.cycle,
        "activity": activity,
        "streams": network.stream_statistics(),
        "fault_drops": network.fault_drops(),
    }


def _random_plan(seed: int) -> dict:
    """Draw one deterministic scenario (kind, mesh, channels, churn) from *seed*."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
    width, height = rng.choice(MESHES)
    tiles = [(x, y) for x in range(width) for y in range(height)]
    channels = []
    for index in range(rng.randint(2, 3)):
        src, dst = rng.sample(tiles, 2)
        channels.append(
            {
                "name": f"ch{index}",
                "src": src,
                "dst": dst,
                "bandwidth": rng.choice((50.0, 100.0)),
                "load": rng.choice((0.1, 0.5, 1.0)),
                "seed": rng.randint(0, 2**16),
            }
        )
    return {
        "kind": kind,
        "width": width,
        "height": height,
        "channels": channels,
        "churn": rng.random() < 0.5,
        "phase_cycles": rng.choice((250, 400)),
    }


def _execute(plan: dict, schedule: str):
    """Build and run one drawn scenario under *schedule*."""
    network = build_network(
        plan["kind"],
        Mesh2D(plan["width"], plan["height"]),
        frequency_hz=FREQUENCY_HZ,
        schedule=schedule,
    )
    for channel in plan["channels"]:
        generator = word_generator(BitFlipPattern.TYPICAL, seed=channel["seed"])
        network.attach_channel(
            channel["name"],
            channel["src"],
            channel["dst"],
            channel["bandwidth"],
            generator,
            load=channel["load"],
        )
    network.run(plan["phase_cycles"])
    if plan["churn"]:
        network.detach_channel(plan["channels"][0]["name"], drain_cycles=64)
        network.run(plan["phase_cycles"])
    return network


@pytest.mark.parametrize("seed", range(8))
def test_random_scenarios_are_trimodal_identical(seed):
    plan = _random_plan(seed)
    nets = {schedule: _execute(plan, schedule) for schedule in SCHEDULES}
    reference = _snapshot(nets["strict"])
    for schedule in ("vector",):
        assert _snapshot(nets[schedule]) == reference, (
            f"seed {seed}: {schedule} diverged from strict "
            f"(kind={plan['kind']}, mesh={plan['width']}x{plan['height']}, "
            f"churn={plan['churn']})"
        )
    assert nets["strict"].kernel.scheduler_stats.skipped == 0


@pytest.mark.parametrize("kind", KINDS)
def test_live_fault_mid_run_is_trimodal_identical(kind):
    """A live link fault deletes wire state and strands heap predictions;
    all three schedules must agree on what the degraded fabric delivers."""
    nets = {}
    for schedule in SCHEDULES:
        network = build_network(
            kind, Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        generator = word_generator(BitFlipPattern.TYPICAL, seed=13)
        network.attach_channel("a", (0, 0), (3, 0), 100.0, generator, load=0.7)
        network.attach_channel("b", (3, 1), (0, 1), 100.0, generator, load=0.4)
        network.run(250)
        network.fail_link((1, 0), (2, 0))
        network.run(250)
        nets[schedule] = network
    reference = _snapshot(nets["strict"])
    for schedule in ("vector",):
        assert _snapshot(nets[schedule]) == reference, (
            f"{schedule} diverged from strict after a live fault ({kind})"
        )


@pytest.mark.parametrize("kind", KINDS)
def test_event_heap_is_deterministic_under_removal(kind):
    """Running the identical churn-and-fault scenario twice under the event
    schedule must reproduce both the observables and the heap statistics —
    component removal (lazy heap deletion) and fault injection must not
    introduce ordering dependent on anything but the scenario."""

    def run_once():
        network = build_network(
            kind, Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, schedule="vector"
        )
        generator = word_generator(BitFlipPattern.TYPICAL, seed=7)
        network.attach_channel("a", (0, 0), (3, 1), 100.0, generator, load=0.6)
        network.attach_channel("b", (3, 0), (0, 1), 100.0, generator, load=0.3)
        network.run(250)
        network.detach_channel("a", drain_cycles=32)
        network.run(150)
        network.fail_link((1, 0), (2, 0))
        network.run(150)
        stats = network.kernel.scheduler_stats
        return _snapshot(network), (stats.events_processed, stats.heap_peak)

    first_snapshot, first_stats = run_once()
    second_snapshot, second_stats = run_once()
    assert first_snapshot == second_snapshot
    assert first_stats == second_stats
    assert first_stats[0] > 0  # the event schedule actually ran off the heap
