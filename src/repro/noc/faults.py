"""Run-time fault injection: links and routers that die while traffic flows.

The static fault story — an :class:`~repro.noc.topology.IrregularMesh` frozen
before the kernel starts — only shows that the allocators route *around*
holes.  The paper's run-time reconfiguration claim needs the other half: a
resource that dies **mid-run**, under live traffic, with the Central
Coordination Node detecting the loss and re-admitting the displaced
applications on whatever fabric survives.  This module is that half:

* :class:`FaultSpec` — a declarative "kill this link/router" (either a fixed
  target or a deterministic *chooser* resolved against the live network at
  injection time, so storm schedules can target whatever the traffic is
  actually using),
* :class:`FaultInjector` — validates the kill (a cut that would disconnect
  the survivors raises :class:`~repro.common.FaultError` naming the cut,
  atomically, before any wire is touched), snapshots which admissions are
  affected *under the pre-fault routing*, kills the wires (in-flight words /
  flits / phits are dropped and counted on the links), derives the degraded
  :class:`~repro.noc.topology.IrregularMesh` view, rebuilds the network's
  routing state, invalidates the :class:`~repro.noc.selection.FabricSelector`
  probe cache (stale probes would score the pre-fault topology), and hands
  the degraded view to :meth:`~repro.noc.ccn.CentralCoordinationNode
  .handle_fault` for recovery,
* deterministic victim choosers (:func:`random_link_chooser`,
  :func:`random_router_chooser`, :func:`loaded_link_chooser`) used by the
  failure-storm campaigns of :mod:`repro.experiments.storm`,
* **correlated** fault models: :func:`row_cut_chooser` severs every
  surviving horizontal link of one mesh row in a single atomic kill (a
  cut trace through the die), :func:`region_chooser` takes down every
  router inside a rectangular window at once (a power-domain failure).
  A group kill validates cumulatively — the whole set must leave the
  survivors connected *together*, not merely one at a time — executes as
  one fault event (one routing rebuild, one CCN recovery pass) and
  produces one :class:`FaultReport`.

Faults are injected *between* cycles (the kernel is in its idle phase), so a
storm schedule replayed under ``schedule="strict"`` and under the default
stays bit-identical — the repo-wide equivalence discipline extends to every
storm scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common import FaultError
from repro.noc.ccn import CentralCoordinationNode, FaultRecovery
from repro.noc.fabric import NocBase
from repro.noc.topology import IrregularMesh, Position, Topology

__all__ = [
    "FaultSpec",
    "FaultReport",
    "FaultInjector",
    "random_link_chooser",
    "random_router_chooser",
    "loaded_link_chooser",
    "row_cut_chooser",
    "region_chooser",
]

Link = Tuple[Position, Position]
#: A chooser resolves a fault target against the live system at injection
#: time; it must be deterministic for the strict-vs-auto discipline to hold.
Chooser = Callable[[NocBase, Optional[CentralCoordinationNode]], Any]


def _undirected(link: Link) -> Link:
    a, b = link
    return (a, b) if a <= b else (b, a)


@lru_cache(maxsize=1)
def _degraded(
    base: Topology, broken_links: Tuple[Link, ...], broken_routers: Tuple[Position, ...]
) -> IrregularMesh:
    """The degraded view of one validated kill, built once.

    A chooser's last ``survives`` and the ``kill_*`` that follows ask for the
    same candidate, and a topology is an immutable value: the build (graph
    filter plus connectivity search) of the first serves the second.  A
    candidate that disconnects raises and is not kept.
    """
    return IrregularMesh(base, broken_links, broken_routers)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled kill: a link or a router, fixed or chosen at run time.

    A chooser (or fixed target) may also yield a *list* of links/routers —
    a correlated kill (row cut, power-domain loss) executed as one atomic
    fault event with a single recovery pass.
    """

    kind: str  # "link" | "router"
    target: Optional[Any] = None
    chooser: Optional[Chooser] = None

    def __post_init__(self) -> None:
        if self.kind not in ("link", "router"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if (self.target is None) == (self.chooser is None):
            raise ValueError("exactly one of target/chooser must be given")


@dataclass
class FaultReport:
    """What one injected fault did to the network and its applications."""

    cycle: int
    kind: str
    target: Any
    #: In-flight wire-level units lost at the kill itself.
    wire_drops: int
    #: What one dropped unit is for this network kind (phit/flit/word).
    drop_unit: str
    #: The CCN's recovery outcome (``None`` when no CCN is attached).
    recovery: Optional[FaultRecovery] = None
    #: Affected applications, snapshotted under the pre-fault routing.
    affected: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line human-readable summary used by the epoch telemetry."""
        if self.kind == "link":
            (a, b) = self.target
            what = f"link {a}-{b}"
        elif self.kind == "link_group":
            what = f"{len(self.target)} links " + ", ".join(
                f"{a}-{b}" for a, b in self.target
            )
        elif self.kind == "router_group":
            what = f"{len(self.target)} routers " + ", ".join(
                str(p) for p in self.target
            )
        else:
            what = f"router {self.target}"
        suffix = ""
        if self.recovery is not None:
            suffix = (
                f" (displaced {len(self.recovery.displaced)},"
                f" readmitted {len(self.recovery.readmitted)},"
                f" rejected {len(self.recovery.rejected)})"
            )
        return f"kill {what}{suffix}"


class FaultInjector:
    """Kills links/routers on a running network and drives CCN recovery.

    Construct once per network; every :meth:`kill_link` / :meth:`kill_router`
    call accumulates into the degraded topology view.  With a *ccn* the
    injector runs the full recovery pipeline; with a *selector* the fabric
    probe cache is re-anchored on the degraded topology (invalidating every
    cached probe) before any post-fault recommendation is scored.
    """

    def __init__(
        self,
        network: NocBase,
        ccn: Optional[CentralCoordinationNode] = None,
        selector: Optional[Any] = None,
        drain_chunk_cycles: int = 64,
        max_drain_cycles: int = 4096,
    ) -> None:
        self.network = network
        self.ccn = ccn
        self.selector = selector
        self.drain_chunk_cycles = drain_chunk_cycles
        self.max_drain_cycles = max_drain_cycles
        #: Every report produced so far, in injection order.
        self.reports: List[FaultReport] = []

    # -- validation -------------------------------------------------------------------

    @property
    def degraded_topology(self) -> Topology:
        """Current surviving-topology view (construction topology minus kills)."""
        return self.network.degraded_topology()

    def _candidate(
        self,
        add_link: Optional[Link] = None,
        add_router: Optional[Position] = None,
        add_links: Tuple[Link, ...] = (),
        add_routers: Tuple[Position, ...] = (),
    ) -> Topology:
        """The degraded view *if* the given kill(s) happened — or a FaultError.

        Validation is atomic: raised before a single wire is touched, so a
        rejected kill leaves network, CCN and allocator untouched.  A group
        kill validates *cumulatively* — every member lands in the candidate
        topology together.
        """
        links = list(add_links)
        routers = list(add_routers)
        if add_link is not None:
            links.append(add_link)
        if add_router is not None:
            routers.append(add_router)
        base = self.network.topology
        broken_links = set(self.network.dead_links)
        broken_routers = set(self.network.dead_routers)
        if isinstance(base, IrregularMesh):
            broken_links |= set(base.broken_links)
            broken_routers |= set(base.broken_routers)
            base = base.base
        parts = [f"link {a}-{b}" for a, b in links] + [f"router {p}" for p in routers]
        cut = ", ".join(parts)
        broken_links |= {_undirected(link) for link in links}
        broken_routers |= set(routers)
        try:
            return _degraded(
                base, tuple(sorted(broken_links)), tuple(sorted(broken_routers))
            )
        except ValueError as error:
            raise FaultError(f"cannot kill {cut}: {error}") from None

    def survives(
        self,
        link: Optional[Link] = None,
        router: Optional[Position] = None,
        links: Tuple[Link, ...] = (),
        routers: Tuple[Position, ...] = (),
    ) -> bool:
        """True when the given kill(s) would leave the fabric connected."""
        try:
            self._candidate(
                add_link=link, add_router=router, add_links=links, add_routers=routers
            )
        except FaultError:
            return False
        return True

    # -- injection --------------------------------------------------------------------

    def kill_link(self, a: Position, b: Position) -> FaultReport:
        """Kill the bidirectional link between *a* and *b* and recover."""
        link = _undirected((a, b))
        if link in self.network.dead_links:
            raise FaultError(f"link {link[0]}-{link[1]} is already dead")
        if (a, b) not in self.network.links and (b, a) not in self.network.links:
            raise FaultError(f"no link between {a} and {b} to kill")
        degraded = self._candidate(add_link=link)
        return self._kill("link", link, degraded, [link], [])

    def kill_router(self, position: Position) -> FaultReport:
        """Kill the router at *position* (and every incident link) and recover."""
        if position in self.network.dead_routers:
            raise FaultError(f"router {position} is already dead")
        if position not in self.network.routers:
            raise FaultError(f"no router at {position} to kill")
        if self.ccn is not None and position == self.ccn.be_network.ccn_position:
            raise FaultError(
                f"cannot kill the CCN's own router at {position} — "
                "system coordination would be lost"
            )
        degraded = self._candidate(add_router=position)
        return self._kill("router", position, degraded, [], [position])

    def kill_link_group(self, links: List[Link]) -> FaultReport:
        """Kill several links as *one* correlated fault event.

        Connectivity is validated cumulatively and atomically; the routing
        rebuild, selector re-anchoring and CCN recovery all run once, over
        the whole group — exactly what a physical row cut does.
        """
        group: List[Link] = []
        for a, b in links:
            link = _undirected((a, b))
            if link in self.network.dead_links:
                raise FaultError(f"link {link[0]}-{link[1]} is already dead")
            if (a, b) not in self.network.links and (b, a) not in self.network.links:
                raise FaultError(f"no link between {a} and {b} to kill")
            if link not in group:
                group.append(link)
        if not group:
            raise FaultError("a correlated link kill needs at least one link")
        degraded = self._candidate(add_links=tuple(group))
        return self._kill("link_group", tuple(group), degraded, group, [])

    def kill_router_group(self, positions: List[Position]) -> FaultReport:
        """Kill several routers as *one* correlated fault event (power domain)."""
        group: List[Position] = []
        for position in positions:
            if position in self.network.dead_routers:
                raise FaultError(f"router {position} is already dead")
            if position not in self.network.routers:
                raise FaultError(f"no router at {position} to kill")
            if self.ccn is not None and position == self.ccn.be_network.ccn_position:
                raise FaultError(
                    f"cannot kill the CCN's own router at {position} — "
                    "system coordination would be lost"
                )
            if position not in group:
                group.append(position)
        if not group:
            raise FaultError("a correlated router kill needs at least one router")
        degraded = self._candidate(add_routers=tuple(group))
        return self._kill("router_group", tuple(group), degraded, [], group)

    def inject(self, spec: FaultSpec) -> FaultReport:
        """Resolve and execute one :class:`FaultSpec`.

        A resolved target that is a list (or a tuple of more than one
        victim) executes as a correlated group kill.
        """
        target = spec.target
        if target is None:
            target = spec.chooser(self.network, self.ccn)
        if spec.kind == "link":
            # A single link is a pair of positions; anything else is a group.
            if (
                isinstance(target, tuple)
                and len(target) == 2
                and isinstance(target[0], tuple)
                and target[0]
                and isinstance(target[0][0], int)
            ):
                a, b = target
                return self.kill_link(a, b)
            return self.kill_link_group(list(target))
        if isinstance(target, tuple) and target and isinstance(target[0], int):
            return self.kill_router(target)
        return self.kill_router_group(list(target))

    def _kill(
        self,
        kind: str,
        target: Any,
        degraded: Topology,
        dead_links: List[Link],
        dead_routers: List[Position],
    ) -> FaultReport:
        network = self.network
        ccn = self.ccn

        # Affected admissions must be snapshotted under the *pre-fault*
        # routing: for the packet fabric the displaced streams are the ones
        # whose old paths crossed the dead resource, which the rebuilt table
        # no longer knows.
        affected: List[str] = []
        if ccn is not None:
            affected = ccn.affected_admissions(dead_links, dead_routers, network)

        wire_drops = 0
        for link in dead_links:
            wire_drops += network.fail_link(*link)
        for position in dead_routers:
            wire_drops += network.fail_router(position)
        network.refresh_routing(degraded)

        # A mid-run fault changes the effective topology without anyone
        # assigning selector.topology — re-anchor it here so every cached
        # probe (keyed per application and kind) is dropped and post-fault
        # recommendations are scored on the surviving fabric.
        if self.selector is not None:
            self.selector.topology = degraded

        report = FaultReport(
            cycle=network.kernel.cycle,
            kind=kind,
            target=target,
            wire_drops=wire_drops,
            drop_unit=network.fault_drop_unit,
            affected=affected,
        )
        if ccn is not None:
            report.recovery = ccn.handle_fault(
                degraded,
                dead_links=dead_links,
                dead_routers=dead_routers,
                affected=affected,
                selector=self.selector,
                network=network,
                drain_chunk_cycles=self.drain_chunk_cycles,
                max_drain_cycles=self.max_drain_cycles,
            )
        self.reports.append(report)
        return report


# ---------------------------------------------------------------------------
# Deterministic victim choosers for storm schedules
# ---------------------------------------------------------------------------


def _surviving_links(network: NocBase) -> List[Link]:
    """Undirected surviving links, sorted (the chooser candidate pool)."""
    dead = set(network.dead_links)
    links = {
        _undirected(link)
        for link in network.links
        if _undirected(link) not in dead
    }
    return sorted(links)


def _connectivity_filter(
    network: NocBase, ccn: Optional[CentralCoordinationNode]
) -> FaultInjector:
    # A throwaway injector reuses the candidate validation; it never touches
    # wires, so building one inside a chooser is free of side effects.
    return FaultInjector(network, ccn=None, selector=None)


def random_link_chooser(seed: int = 0) -> Chooser:
    """A chooser killing a pseudo-random surviving, non-disconnecting link.

    Deterministic: the chooser owns a :class:`random.Random` seeded once, so
    repeated injections (one storm schedule) and repeated runs (strict vs.
    auto) walk the identical victim sequence.
    """
    rng = random.Random(seed)

    def choose(network: NocBase, ccn: Optional[CentralCoordinationNode]) -> Link:
        probe = _connectivity_filter(network, ccn)
        candidates = _surviving_links(network)
        rng.shuffle(candidates)
        for link in candidates:
            if probe.survives(link=link):
                return link
        raise FaultError("no surviving link can be killed without a disconnect")

    return choose


def random_router_chooser(seed: int = 0) -> Chooser:
    """A chooser killing a pseudo-random surviving, non-disconnecting router.

    Never picks the CCN's own router (killing the coordinator is game over,
    not a recoverable fault).
    """
    rng = random.Random(seed)

    def choose(network: NocBase, ccn: Optional[CentralCoordinationNode]) -> Position:
        probe = _connectivity_filter(network, ccn)
        forbidden = set(network.dead_routers)
        if ccn is not None:
            forbidden.add(ccn.be_network.ccn_position)
        candidates = sorted(p for p in network.routers if p not in forbidden)
        rng.shuffle(candidates)
        for position in candidates:
            if probe.survives(router=position):
                return position
        raise FaultError("no surviving router can be killed without a disconnect")

    return choose


def loaded_link_chooser(seed: int = 0) -> Chooser:
    """A chooser that prefers links currently carrying admitted traffic.

    Builds a usage count per undirected link from the CCN's allocations
    (lane circuits / slot trains) or, for the packet fabric, from the
    routing paths of every admitted GT channel — then kills the busiest
    killable link (ties and the no-traffic fallback resolved by the seeded
    order of :func:`random_link_chooser`).  Storm campaigns use this to
    guarantee that a fault actually displaces somebody.
    """
    fallback = random_link_chooser(seed)

    def choose(network: NocBase, ccn: Optional[CentralCoordinationNode]) -> Link:
        usage: Dict[Link, int] = {}
        if ccn is not None:
            if ccn.allocator is not None:
                for allocation in ccn.allocator.allocations:
                    for circuit in allocation.circuits:
                        for a, b in zip(circuit.route, circuit.route[1:]):
                            link = _undirected((a, b))
                            usage[link] = usage.get(link, 0) + 1
            else:
                routing = getattr(network, "routing", None)
                for name in ccn.admitted_applications:
                    admission = ccn.admission(name)
                    graph = admission.graph
                    if routing is None or graph is None:
                        continue
                    for channel in graph.channels:
                        src = admission.mapping.position_of(channel.src)
                        dst = admission.mapping.position_of(channel.dst)
                        if src == dst:
                            continue
                        path = routing.path_positions(src, dst)
                        for a, b in zip(path, path[1:]):
                            link = _undirected((a, b))
                            usage[link] = usage.get(link, 0) + 1
        if usage:
            probe = _connectivity_filter(network, ccn)
            dead = {_undirected(link) for link in network.dead_links}
            ranked = sorted(usage.items(), key=lambda item: (-item[1], item[0]))
            for link, _ in ranked:
                if link not in dead and probe.survives(link=link):
                    return link
        return fallback(network, ccn)

    return choose


# ---------------------------------------------------------------------------
# Correlated fault models (row cuts, power domains)
# ---------------------------------------------------------------------------


def row_cut_chooser(seed: int = 0, row: Optional[int] = None) -> Chooser:
    """A chooser severing every surviving horizontal link of one mesh row.

    Models a physical cut trace through the die: all east–west wires of the
    chosen row die in the *same* fault event.  The row is drawn from the
    seeded RNG among rows that still have horizontal links (or pinned with
    *row*); links whose loss would disconnect the survivors — even jointly
    with the rest of the group — are left out, and a row whose whole cut
    set validates to empty is skipped.  Deterministic like every chooser
    here, so strict/auto/event/vector replays stay bit-identical.
    """
    rng = random.Random(seed)

    def choose(
        network: NocBase, ccn: Optional[CentralCoordinationNode]
    ) -> List[Link]:
        probe = _connectivity_filter(network, ccn)
        surviving = set(_surviving_links(network))
        by_row: Dict[int, List[Link]] = {}
        for (a, b) in surviving:
            if a[1] == b[1]:  # horizontal: same y at both ends
                by_row.setdefault(a[1], []).append((a, b))
        if row is not None:
            candidate_rows = [row] if row in by_row else []
        else:
            candidate_rows = sorted(by_row)
            rng.shuffle(candidate_rows)
        for y in candidate_rows:
            cut: List[Link] = []
            for link in sorted(by_row[y]):
                if probe.survives(links=tuple(cut + [link])):
                    cut.append(link)
            if cut:
                return cut
        raise FaultError("no row has a killable set of horizontal links left")

    return choose


def region_chooser(
    seed: int = 0,
    width: int = 2,
    height: int = 2,
    region: Optional[Position] = None,
) -> Chooser:
    """A chooser killing every surviving router in a *width*×*height* window.

    Models a power-domain failure: one supply rail browns out and takes a
    rectangular block of routers (and all their incident links) down
    together.  The window origin is drawn from the seeded RNG among origins
    whose cumulative kill keeps the survivors connected (or pinned with
    *region*); the CCN's own router is never included, and routers whose
    loss would jointly disconnect the fabric are left out of the group.
    """
    rng = random.Random(seed)

    def choose(
        network: NocBase, ccn: Optional[CentralCoordinationNode]
    ) -> List[Position]:
        probe = _connectivity_filter(network, ccn)
        forbidden = set(network.dead_routers)
        if ccn is not None:
            forbidden.add(ccn.be_network.ccn_position)
        alive = sorted(p for p in network.routers if p not in forbidden)
        if not alive:
            raise FaultError("no surviving router left for a region kill")
        if region is not None:
            origins = [region]
        else:
            origins = sorted({(x, y) for x, y in alive})
            rng.shuffle(origins)
        for x0, y0 in origins:
            window = [
                p
                for p in alive
                if x0 <= p[0] < x0 + width and y0 <= p[1] < y0 + height
            ]
            group: List[Position] = []
            for position in window:
                if probe.survives(routers=tuple(group + [position])):
                    group.append(position)
            if group:
                return group
        raise FaultError("no region window has a killable router set left")

    return choose
