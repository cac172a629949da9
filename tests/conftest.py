"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle as repeat_windows
from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import Phase, given, seed, settings, strategies as st

from repro.common import NEIGHBOR_PORTS, AllocationError, Port
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.baseline.link import PacketLink
from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.noc import IrregularMesh, Mesh2D, TdmaDatapath, Torus2D
from repro.noc.fabric import build_network
from repro.sim.engine import ClockedComponent, SimulationKernel

from oracle import materialised
from two_phase import TwoPhase

#: The three network kinds, in the order the differential tests draw them.
KINDS = ("circuit", "packet", "gt")


def words(seed: int = 0) -> Callable[[], int]:
    """A seeded source of random 16-bit stream words."""
    rng = random.Random(seed)
    return lambda: rng.getrandbits(16)


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
    """A small fabric, random channels over it, one link that dies mid-run,
    and for the differential oracle a kind, a mid-run teardown and the
    windows its run stops after."""

    topology: object
    #: ``(src, dst, bandwidth_mbps, load)`` per channel.
    channels: List[Tuple[tuple, tuple, float, float]]
    cycles: int
    #: ``(cycle, a, b, reroute)``: the link *a*-*b* fails before that cycle.
    fault: Tuple[int, tuple, tuple, bool]
    schedule: Optional[str]
    kind: str = "circuit"
    #: ``(cycle, drain_cycles)``: the first admitted channel is detached then.
    churn: Optional[Tuple[int, int]] = None
    #: Cycles per ``run()`` call, repeated; the state after each one is
    #: recorded (``()``: one call per span between the fault and the churn).
    windows: Tuple[int, ...] = ()

    def build(self, factory: Callable):
        """``factory(topology, **schedule)`` with this scenario's channels attached."""
        network = factory(self.topology, **({"schedule": self.schedule} if self.schedule else {}))
        self._attach(network)
        return network

    def _attach(self, network) -> List[str]:
        """Attach every channel admission takes; returns their names."""
        attached = []
        for index, (src, dst, mbps, load) in enumerate(self.channels):
            rng = random.Random(index)
            try:
                network.attach_channel(
                    f"ch{index}", src, dst, mbps, lambda rng=rng: rng.getrandbits(16), load=load
                )
            except AllocationError:
                continue  # GT admission may refuse; it refuses every twin alike
            attached.append(f"ch{index}")
        return attached

    def __call__(self, **params):
        """``build_network(kind, topology, **params)`` run through, the fault
        and the churn included, in ``run()`` calls of the drawn :attr:`windows`
        (the state after each recorded in ``network.oracle_stops``); returns
        the network."""
        network = build_network(self.kind, self.topology, **params)
        attached = self._attach(network)
        windows = repeat_windows(self.windows or (None,))
        network.oracle_stops = stops = []

        def run_to(end):
            while network.kernel.cycle < end:
                window = next(windows)
                network.run(end - network.kernel.cycle if window is None else min(window, end - network.kernel.cycle))
                if self.windows:
                    stops.append(materialised(network))

        fault_cycle, a, b, reroute = self.fault
        events = [(fault_cycle, None)] + ([self.churn] if self.churn and attached else [])
        for cycle, drain in sorted(events, key=lambda event: event[0]):
            run_to(cycle)
            if drain is not None:
                network.detach_channel(attached[0], drain_cycles=drain)
                continue
            network.fail_link(a, b)
            if reroute:
                network.refresh_routing(network.degraded_topology())
        run_to(self.cycles)
        return network

    def _fail(self, network) -> None:
        """The scenario's fault on *network*, re-routed around if drawn so."""
        _cycle, a, b, reroute = self.fault
        network.fail_link(a, b)
        if reroute:
            network.refresh_routing(IrregularMesh(self.topology, [(a, b)]))

    def steps(self, networks):
        """Step *networks* together through the scenario, fault included; yields each cycle run."""
        for cycle in range(self.cycles):
            if cycle == self.fault[0]:
                for network in networks:
                    self._fail(network)
            for network in networks:
                network.kernel.step()
            yield cycle

    def run_in_lockstep(
        self, build: Callable, reference_build: Callable, snapshot: Callable, windows: Tuple[int, ...] = (1,)
    ) -> None:
        """Run a network in ``run()`` calls of *windows* cycles, repeated (every
        cycle by default; a window ends at the fault), step its reference twin
        cycle by cycle, and compare *snapshot* at every stop."""
        networks = [self.build(factory) for factory in (build, reference_build)]
        network, reference = networks
        fault_cycle, sizes = self.fault[0], repeat_windows(windows)
        while network.kernel.cycle < self.cycles:
            cycle = network.kernel.cycle
            if cycle == fault_cycle:
                for twin in networks:
                    self._fail(twin)
            end = min(cycle + next(sizes), self.cycles, fault_cycle if cycle < fault_cycle else self.cycles)
            network.run(end - cycle)
            while reference.kernel.cycle < end:
                reference.kernel.step()
            assert snapshot(network) == snapshot(reference), f"diverged in cycle {end - 1}"
        stats = [(n.stream_statistics(), n.fault_drops()) for n in networks]
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
    """Mesh, torus or either with a link already broken; 1-8 channels; one
    fault; a kind, a channel torn down mid-run or not, and the windows the run
    stops after (a sync mid-word, mid-acknowledge, around the fault)."""
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
        kind=draw(st.sampled_from(KINDS)),
        churn=draw(st.none() | st.tuples(st.integers(5, cycles - 5), st.sampled_from([0, 32]))),
        windows=tuple(draw(st.lists(st.integers(1, 61), max_size=3))),
    )


def drawn(strategy, number: int):
    """The example *strategy* draws under hypothesis seed *number*: the same
    on every run, so a seeded test id always names the same scenario."""
    examples = []

    @seed(number)
    @settings(max_examples=1, database=None, phases=[Phase.generate], deadline=None)
    @given(strategy)
    def pick(example):
        examples.append(example)

    pick()
    return examples[0]


def clock_of(router, *endpoints):
    """What the kernel clocks for *router*: a reference router in a two-phase
    group behind its reference components *endpoints*, or a one-router
    datapath that adopts the stream endpoint records *endpoints*."""
    if isinstance(router, ClockedComponent):
        return TwoPhase("reference_clock", [*endpoints, router])
    if isinstance(router, CircuitSwitchedRouter):
        clock = LaneDatapath("dut_datapath", [router])
    else:
        datapath = PacketDatapath if isinstance(router, PacketSwitchedRouter) else TdmaDatapath
        clock = datapath("dut_datapath", [router])
    for endpoint in endpoints:
        clock.adopt(endpoint)
    return clock


def twin_benches(router_classes, make_link, setup, *, schedule=None, **router_kwargs):
    """One single-router bench per class (links on all four sides, own kernel,
    under *schedule* or the default, or under the class's ``bench_schedule``
    where it names one), populated alike by ``setup(router, links)``, which
    returns the stream endpoints (or ``None``), clocked by :func:`clock_of`."""
    benches = []
    for router_class in router_classes:
        router = router_class("dut", position=(1, 1), **router_kwargs)
        links = {}
        for port in NEIGHBOR_PORTS:
            links[port] = (make_link(f"rx_{port.short_name}", router), make_link(f"tx_{port.short_name}", router))
            router.attach_link(port, *links[port])
        bench_schedule = getattr(router_class, "bench_schedule", None) or schedule
        kernel = SimulationKernel(25e6, **({"schedule": bench_schedule} if bench_schedule else {}))
        if isinstance(router, ClockedComponent):  # a reference router: one two-phase group
            kernel.add(clock_of(router, *(setup(router, links) or ())))
        else:  # the datapath exists before setup writes the router, joins the kernel after
            clock = clock_of(router)
            for record in setup(router, links) or ():
                clock.adopt(record)
            kernel.add(clock)
        benches.append((router, links, kernel))
    return benches


def step_twins(benches, cycles: int, state: Callable) -> None:
    """Step the benches together; ``state(router, links, kernel, ...)`` (what
    else a bench carries after its kernel too) must stay equal."""
    for _ in range(cycles):
        for _router, _links, kernel, *_ in benches:
            kernel.step()
        states = [state(*bench) for bench in benches]
        assert all(s == states[0] for s in states), f"diverged in cycle {benches[0][2].cycle - 1}"
