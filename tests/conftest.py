"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import strategies as st

from repro.common import NEIGHBOR_PORTS, AllocationError, Port
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.noc import IrregularMesh, Mesh2D, TdmaDatapath, Torus2D
from repro.sim.engine import ClockedComponent, SimulationKernel


@pytest.fixture
def rng() -> random.Random:
    """Deterministic random generator for tests that need arbitrary words."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def cs_router_with_links():
    """A circuit-switched router with lane links attached on all four sides."""
    router = CircuitSwitchedRouter("dut")
    links = {}
    for port in NEIGHBOR_PORTS:
        rx = LaneLink(f"rx_{port.short_name}")
        tx = LaneLink(f"tx_{port.short_name}")
        router.attach_link(port, rx, tx)
        links[port] = (rx, tx)
    return router, links


@pytest.fixture
def ps_router_with_links():
    """A packet-switched router (at (1, 1)) with packet links on all four sides."""
    router = PacketSwitchedRouter("dut", position=(1, 1))
    links = {}
    for port in NEIGHBOR_PORTS:
        rx = PacketLink(f"rx_{port.short_name}", router.num_vcs)
        tx = PacketLink(f"tx_{port.short_name}", router.num_vcs)
        router.attach_link(port, rx, tx)
        links[port] = (rx, tx)
    return router, links


@pytest.fixture
def kernel_25mhz() -> SimulationKernel:
    """A simulation kernel at the paper's 25 MHz power-experiment clock."""
    return SimulationKernel(25e6)


def neighbor_of(position: tuple[int, int], port: Port) -> tuple[int, int]:
    """Mesh coordinate behind *port* of *position* (helper for routing tests)."""
    from repro.common import port_offset

    dx, dy = port_offset(port)
    return (position[0] + dx, position[1] + dy)


# ---------------------------------------------------------------------------
# Drawn fabrics for the differential router tests (packet and GT)
# ---------------------------------------------------------------------------


@dataclass
class FabricScenario:
    """A small fabric, random channels over it, and one link that dies mid-run."""

    topology: object
    #: ``(src, dst, bandwidth_mbps, load)`` per channel.
    channels: List[Tuple[tuple, tuple, float, float]]
    cycles: int
    #: ``(cycle, a, b, reroute)``: the link *a*-*b* fails before that cycle.
    fault: Tuple[int, tuple, tuple, bool]
    schedule: Optional[str]

    def build(self, factory: Callable):
        """``factory(topology, **schedule)`` with this scenario's channels attached."""
        network = factory(self.topology, **({"schedule": self.schedule} if self.schedule else {}))
        for index, (src, dst, mbps, load) in enumerate(self.channels):
            rng = random.Random(index)
            try:
                network.attach_channel(
                    f"ch{index}", src, dst, mbps, lambda rng=rng: rng.getrandbits(16), load=load
                )
            except AllocationError:
                pass  # GT admission may refuse; it refuses every twin alike
        return network

    def steps(self, networks):
        """Step *networks* together through the scenario, fault included; yields each cycle run."""
        fault_cycle, a, b, reroute = self.fault
        for cycle in range(self.cycles):
            if cycle == fault_cycle:
                for network in networks:
                    network.fail_link(a, b)
                    if reroute:
                        network.refresh_routing(IrregularMesh(self.topology, [(a, b)]))
            for network in networks:
                network.kernel.step()
            yield cycle

    def run_in_lockstep(self, build: Callable, reference_build: Callable, snapshot: Callable,
                        same_components: bool = True) -> None:
        """Step a network and its reference twin, comparing *snapshot* every cycle."""
        networks = [self.build(factory) for factory in (build, reference_build)]
        for cycle in self.steps(networks):
            assert snapshot(networks[0]) == snapshot(networks[1]), f"diverged in cycle {cycle}"
        stats = [
            (n.kernel.scheduler_stats.as_dict() if same_components else None, n.stream_statistics(), n.fault_drops())
            for n in networks
        ]
        assert stats[0] == stats[1]


@st.composite
def topologies(draw, irregular=None, min_side=1):
    """A mesh, a torus, or either with random links and routers broken.

    Breaks are tried one at a time in a drawn order and kept only while the
    topology stays connected, so every drawn value constructs.
    """
    if draw(st.booleans()):
        base = Mesh2D(draw(st.integers(min_side, 5)), draw(st.integers(min_side, 5)))
    else:
        base = Torus2D(draw(st.integers(max(3, min_side), 5)), draw(st.integers(max(3, min_side), 5)))
    if irregular is None:
        irregular = draw(st.booleans())
    if not irregular:
        return base
    links = sorted({(a, b) if a <= b else (b, a) for a, b in base.directed_links()})
    candidates = draw(st.permutations([("link", l) for l in links] + [("router", p) for p in base.positions()]))
    wanted = draw(st.integers(0, min(6, len(candidates))))
    broken_links, broken_routers = [], []
    for what, victim in candidates:
        if len(broken_links) + len(broken_routers) == wanted:
            break
        trial_links = broken_links + [victim] if what == "link" else broken_links
        trial_routers = broken_routers + [victim] if what == "router" else broken_routers
        try:
            IrregularMesh(base, trial_links, trial_routers)
        except ValueError:
            continue
        broken_links, broken_routers = trial_links, trial_routers
    return IrregularMesh(base, broken_links, broken_routers)


@st.composite
def fabric_scenarios(draw, max_cycles: int = 220):
    """Mesh, torus or either with a link already broken; 1-8 channels; one fault."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 4))
        base = Mesh2D(width, draw(st.integers(2 if width == 1 else 1, 3)))
    else:
        base = Torus2D(draw(st.integers(3, 4)), 3)
    topology = base
    links = sorted({(a, b) if a <= b else (b, a) for a, b in base.directed_links()})
    if draw(st.booleans()):
        try:
            topology = IrregularMesh(base, [draw(st.sampled_from(links))])
        except ValueError:
            pass  # the break would disconnect the fabric: keep the base
    positions = sorted(topology.positions())
    endpoints = st.tuples(st.sampled_from(positions), st.sampled_from(positions))
    channels = draw(
        st.lists(
            st.tuples(
                endpoints.filter(lambda pair: pair[0] != pair[1]),
                st.sampled_from([20.0, 80.0, 200.0]),
                st.sampled_from([0.3, 1.0, 1.0]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    cycles = draw(st.integers(80, max_cycles))
    a, b = draw(st.sampled_from(topology.directed_links()))
    reroute = draw(st.booleans())
    if reroute:
        try:
            IrregularMesh(topology, [(a, b)])
        except ValueError:
            reroute = False
    return FabricScenario(
        topology,
        [(src, dst, mbps, load) for (src, dst), mbps, load in channels],
        cycles,
        (draw(st.integers(5, cycles - 5)), a, b, reroute),
        draw(st.sampled_from([None, "strict"])),
    )


def clock_of(router):
    """What the kernel clocks for *router*: itself, or a one-router datapath
    when it is no kernel component (a packet or slot-table router)."""
    if isinstance(router, ClockedComponent):
        return router
    datapath = PacketDatapath if isinstance(router, PacketSwitchedRouter) else TdmaDatapath
    return datapath("dut_datapath", [router])


def twin_benches(router_classes, make_link, setup, **router_kwargs):
    """One single-router bench per class (links on all four sides, own kernel),
    populated alike by ``setup(router, links)``, which returns the extra
    components to clock (or ``None``), clocked by :func:`clock_of`."""
    benches = []
    for router_class in router_classes:
        router = router_class("dut", position=(1, 1), **router_kwargs)
        links = {}
        for port in NEIGHBOR_PORTS:
            links[port] = (make_link(f"rx_{port.short_name}", router), make_link(f"tx_{port.short_name}", router))
            router.attach_link(port, *links[port])
        kernel = SimulationKernel(25e6)
        kernel.add_all([*(setup(router, links) or ()), clock_of(router)])
        benches.append((router, links, kernel))
    return benches


def step_twins(benches, cycles: int, state: Callable) -> None:
    """Step the benches together; ``state(router, links, kernel)`` must stay equal."""
    for _ in range(cycles):
        for _router, _links, kernel in benches:
            kernel.step()
        states = [state(*bench) for bench in benches]
        assert all(s == states[0] for s in states), f"diverged in cycle {benches[0][2].cycle - 1}"
