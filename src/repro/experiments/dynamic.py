"""Dynamic multi-application workloads: CCN-driven churn on live networks.

The CCN exists because applications of a multi-mode terminal *come and go at
run time* (Section 1: "the CCN performs the feasibility analysis, spatial
mapping, process allocation and configuration … before the start of an
application").  The static experiments admit one application and run it to
completion; this module drives the full lifecycle instead: a deterministic
schedule of arrival/departure events (UMTS + HiperLAN/2 + DRM churn) is
replayed against a *live* network of any registered kind, with the
:class:`~repro.noc.ccn.CentralCoordinationNode` admitting, programming,
attaching, and transactionally releasing every application mid-simulation.

Per epoch (the interval between consecutive event times) the engine reports
delivered words, energy per delivered payload bit, link utilization, tile
occupancy, the accumulated reconfiguration time and the admissions the CCN
had to reject — the quantities on which the three fabrics differ under churn
(Section 4: cheap 10-bit lane commands vs. aligned slot-table writes vs. no
configuration at all but higher per-bit energy).

Provenance note: delivered words, switching activity and thus energy/bit are
*simulated*; the reconfiguration times are the *analytic* best-effort-network
transport model of :mod:`repro.noc.be_network` applied to the simulated
allocations' command counts (the paper's "<1 ms over the BE network" budget),
not a cycle-accurate BE simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.apps import drm, hiperlan2, umts
from repro.apps.kpn import ProcessGraph
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.common import AllocationError, MappingError, ReproError
from repro.noc.ccn import CentralCoordinationNode
from repro.noc.fabric import build_network
from repro.noc.faults import FaultInjector, FaultSpec
from repro.noc.selection import FabricSelector
from repro.noc.topology import Mesh2D, Topology
from repro.sim.engine import DEFAULT_SCHEDULE

__all__ = [
    "WorkloadEvent",
    "EpochReport",
    "DynamicWorkloadResult",
    "paper_churn_events",
    "run_dynamic_workload",
]


@dataclass(frozen=True)
class WorkloadEvent:
    """One application arriving/departing — or a resource dying mid-run."""

    cycle: int
    action: str  # "arrive" | "depart" | "fault"
    application: str = ""
    graph_factory: Optional[Callable[[], ProcessGraph]] = None
    #: For ``action="fault"``: what to kill (see :class:`repro.noc.faults`).
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("event cycle must be non-negative")
        if self.action not in ("arrive", "depart", "fault"):
            raise ValueError(f"unknown workload action {self.action!r}")
        if self.action == "arrive" and self.graph_factory is None:
            raise ValueError("arrival events need a graph_factory")
        if self.action == "fault" and self.fault is None:
            raise ValueError("fault events need a FaultSpec")
        if self.action != "fault" and self.fault is not None:
            raise ValueError("only fault events carry a FaultSpec")
        if self.action in ("arrive", "depart") and not self.application:
            raise ValueError("arrive/depart events need an application label")


@dataclass
class EpochReport:
    """Observables of one inter-event interval of the simulation."""

    start_cycle: int
    end_cycle: int
    #: Human-readable event descriptions applied at *start_cycle*.
    events: List[str] = field(default_factory=list)
    #: Applications admitted during this epoch (after the events applied).
    admitted: List[str] = field(default_factory=list)
    words_delivered: int = 0
    energy_pj: float = 0.0
    energy_pj_per_bit: float = float("inf")
    link_utilization: float = 0.0
    tile_occupancy: float = 0.0
    #: BE-network transport time of the configuration shipped at this epoch's
    #: start (arrivals admitted at *start_cycle*).
    reconfiguration_time_s: float = 0.0
    rejections: int = 0
    #: One-line descriptions of the faults injected at this epoch's start.
    faults: List[str] = field(default_factory=list)
    #: Applications displaced by this epoch's faults…
    displaced: List[str] = field(default_factory=list)
    #: …of which these were re-admitted on the degraded fabric…
    readmitted: List[str] = field(default_factory=list)
    #: …and these could no longer be carried and were cleanly rejected.
    displaced_rejected: List[str] = field(default_factory=list)
    #: Network cycles the fault-recovery drains of this epoch consumed.
    recovery_cycles: int = 0
    #: Wire-level units (phits/flits/words) lost to dead links this epoch.
    words_dropped: int = 0

    @property
    def cycles(self) -> int:
        """Length of the epoch in network cycles."""
        return self.end_cycle - self.start_cycle


@dataclass
class DynamicWorkloadResult:
    """Outcome of one churn schedule on one network kind."""

    kind: str
    frequency_hz: float
    total_cycles: int
    load: float
    data_width: int = 16
    epochs: List[EpochReport] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)
    #: Per-arrival fabric recommendation (application -> chosen kind) when a
    #: :class:`~repro.noc.selection.FabricSelector` was consulted.
    fabric_choices: Dict[str, Optional[str]] = field(default_factory=dict)
    #: What one dropped wire unit is for this network kind (phit/flit/word).
    drop_unit: str = "word"
    #: Post-fault fabric recommendation per displaced-and-rejected
    #: application, when a selector was available during recovery.
    fallback_kinds: Dict[str, Optional[str]] = field(default_factory=dict)
    #: CCN leak check evaluated after the final epoch (``None`` until run).
    end_leak_free: Optional[bool] = None

    @property
    def words_delivered(self) -> int:
        """Payload words delivered across the whole schedule."""
        return sum(e.words_delivered for e in self.epochs)

    @property
    def energy_pj_per_bit(self) -> float:
        """Network energy per delivered payload bit over the whole schedule."""
        energy = sum(e.energy_pj for e in self.epochs)
        bits = self.words_delivered * self.data_width
        return energy / bits if bits else float("inf")

    @property
    def reconfiguration_time_s(self) -> float:
        """Total BE-network configuration transport time of all admissions."""
        return sum(e.reconfiguration_time_s for e in self.epochs)

    @property
    def rejections(self) -> int:
        """Arrivals the CCN had to turn away."""
        return sum(e.rejections for e in self.epochs)

    @property
    def peak_tile_occupancy(self) -> float:
        """Highest tile occupancy any epoch reached."""
        return max((e.tile_occupancy for e in self.epochs), default=0.0)

    @property
    def fault_count(self) -> int:
        """Faults injected across the whole schedule."""
        return sum(len(e.faults) for e in self.epochs)

    @property
    def displaced(self) -> List[str]:
        """Applications displaced by faults, in injection order."""
        return [name for e in self.epochs for name in e.displaced]

    @property
    def readmitted(self) -> List[str]:
        """Displaced applications re-admitted on the degraded fabric."""
        return [name for e in self.epochs for name in e.readmitted]

    @property
    def displaced_rejected(self) -> List[str]:
        """Displaced applications the degraded fabric could not re-admit."""
        return [name for e in self.epochs for name in e.displaced_rejected]

    @property
    def recovery_cycles(self) -> int:
        """Network cycles all fault-recovery sequences consumed."""
        return sum(e.recovery_cycles for e in self.epochs)

    @property
    def words_dropped(self) -> int:
        """Wire-level units lost to dead links over the whole schedule."""
        return sum(e.words_dropped for e in self.epochs)


def paper_churn_events() -> List[WorkloadEvent]:
    """The reference churn schedule: UMTS + HiperLAN/2 + DRM on one terminal.

    Deterministic and deliberately over-subscribed once: the HiperLAN/2
    re-arrival at cycle 1700 finds UMTS and DRM holding 17 of the 25 tiles
    and no DSP/DSRH/FPGA slack left for its filters, so the CCN rejects it;
    after UMTS departs, the retry at cycle 2300 succeeds.  Designed for the
    default 5×5 grid.
    """
    return [
        WorkloadEvent(0, "arrive", "hiperlan2", hiperlan2.build_process_graph),
        WorkloadEvent(500, "arrive", "umts", umts.build_process_graph),
        WorkloadEvent(1100, "depart", "hiperlan2"),
        WorkloadEvent(1400, "arrive", "drm", drm.build_process_graph),
        WorkloadEvent(1700, "arrive", "hiperlan2", hiperlan2.build_process_graph),
        WorkloadEvent(2000, "depart", "umts"),
        WorkloadEvent(2300, "arrive", "hiperlan2", hiperlan2.build_process_graph),
    ]


def _total_energy_pj(network) -> float:
    """Cumulative network energy since construction (router power × time)."""
    duration_s = network.kernel.cycle / network.frequency_hz
    if duration_s == 0.0:
        return 0.0
    return network.total_power().total_uw * duration_s * 1e6


def run_dynamic_workload(
    kind: str,
    topology: Optional[Topology] = None,
    events: Optional[Sequence[WorkloadEvent]] = None,
    frequency_hz: float = 100e6,
    total_cycles: int = 3000,
    load: float = 0.5,
    seed: int = 0,
    schedule: str = DEFAULT_SCHEDULE,
    selector: Optional[FabricSelector] = None,
    **params,
) -> DynamicWorkloadResult:
    """Replay a churn schedule against a live network of *kind*.

    Events are applied in cycle order; between events the network simulates
    normally.  Arrivals run the full CCN pipeline (admit + program + attach
    traffic); infeasible arrivals are counted as rejections and skipped.
    Departures detach the application's streams and release every resource.

    With a *selector* every arrival is first scored across the candidate
    fabrics and the recommendation recorded in
    :attr:`DynamicWorkloadResult.fabric_choices` (the engine still runs on
    *kind* — the selection is the resource manager's advisory view).  The
    selector's probe cache makes repeat arrivals of the same application
    effectively free, which is what makes per-arrival selection viable.
    """
    topology = topology if topology is not None else Mesh2D(5, 5)
    events = list(events) if events is not None else paper_churn_events()
    events.sort(key=lambda e: e.cycle)
    if events and events[-1].cycle >= total_cycles:
        raise ReproError("every event must happen before total_cycles")

    network = build_network(
        kind, topology, frequency_hz=frequency_hz, schedule=schedule, **params
    )
    ccn = CentralCoordinationNode(network=network)
    generator = word_generator(BitFlipPattern.TYPICAL, seed=seed)

    result = DynamicWorkloadResult(
        kind=network.kind,
        frequency_hz=frequency_hz,
        total_cycles=total_cycles,
        load=load,
        data_width=network.data_width,
        drop_unit=network.fault_drop_unit,
    )
    #: Lazily constructed on the first fault event.
    injector: Optional[FaultInjector] = None
    #: Labels whose application was displaced-and-rejected by a fault; their
    #: scheduled departure events become tolerated no-ops.
    vanished: set = set()
    #: graph.name of every application label currently admitted.
    live: Dict[str, str] = {}
    #: Delivered-word baseline per live stream, recorded at attach time (the
    #: packet fabric counts deliveries per tile pair, so a re-admitted
    #: application must not re-count an earlier admission's words).  Caveat:
    #: two *concurrently* live packet streams sharing one (src, dst) tile
    #: pair would still each report the combined pair count — none of the
    #: shipped application graphs map two GT channels onto the same pair.
    baselines: Dict[str, int] = {}
    #: Words delivered by already-detached streams (finalised at departure).
    finalized_words = 0
    prev_words = 0
    prev_energy = 0.0
    prev_drops = 0

    # Group events by cycle so one epoch boundary applies all of them.
    boundaries: List[int] = sorted({e.cycle for e in events})
    if not boundaries or boundaries[0] != 0:
        boundaries.insert(0, 0)

    def delivered_words() -> int:
        stats = network.stream_statistics()
        return finalized_words + sum(
            stats[name]["received"] - baseline for name, baseline in baselines.items()
        )

    for index, start in enumerate(boundaries):
        end = boundaries[index + 1] if index + 1 < len(boundaries) else total_cycles
        epoch = EpochReport(start_cycle=start, end_cycle=end)

        for event in (e for e in events if e.cycle == start):
            if event.action == "arrive":
                graph = event.graph_factory()
                if selector is not None:
                    decision = selector.select(graph)
                    result.fabric_choices[event.application] = decision.chosen_kind
                    epoch.events.append(
                        f"select {decision.chosen_kind} for {event.application}"
                    )
                try:
                    admission = ccn.admit(graph)
                    ccn.attach_traffic(graph.name, generator, load=load)
                except (MappingError, AllocationError) as error:
                    epoch.rejections += 1
                    result.rejected.append(event.application)
                    epoch.events.append(
                        f"reject {event.application} ({type(error).__name__})"
                    )
                else:
                    live[event.application] = graph.name
                    stats = network.stream_statistics()
                    for name in admission.stream_names:
                        baselines[name] = stats[name]["received"]
                    epoch.reconfiguration_time_s += admission.reconfiguration_time_s
                    epoch.events.append(f"arrive {event.application}")
            elif event.action == "depart":
                try:
                    graph_name = live.pop(event.application)
                except KeyError:
                    if event.application in vanished:
                        # The application was displaced by a fault and could
                        # not be re-admitted; its scheduled departure finds
                        # nothing to release — by design, not by accident.
                        vanished.discard(event.application)
                        epoch.events.append(
                            f"depart {event.application} (already displaced)"
                        )
                        continue
                    raise ReproError(
                        f"departure of {event.application!r} without a live admission"
                    ) from None
                # release() halts, drains and detaches; its return value is
                # the post-drain count, so words delivered while draining are
                # credited rather than lost with the detached streams.
                final_counts = ccn.release(graph_name)
                for name, count in final_counts.items():
                    finalized_words += count - baselines.pop(name)
                epoch.events.append(f"depart {event.application}")
            else:  # fault
                if injector is None:
                    injector = FaultInjector(network, ccn=ccn, selector=selector)
                report = injector.inject(event.fault)
                epoch.faults.append(report.describe())
                epoch.events.append(report.describe())
                recovery = report.recovery
                if recovery is not None:
                    epoch.recovery_cycles += recovery.recovery_cycles
                    epoch.reconfiguration_time_s += recovery.reconfiguration_time_s
                    epoch.displaced.extend(recovery.displaced)
                    epoch.readmitted.extend(recovery.readmitted)
                    epoch.displaced_rejected.extend(recovery.rejected)
                    result.fallback_kinds.update(recovery.fallback_kinds)
                    # Every displaced stream was detached post-drain; credit
                    # its words like a departure would.  Re-admitted
                    # applications got fresh streams — re-baseline them.
                    for name, count in recovery.final_stream_counts.items():
                        if name in baselines:
                            finalized_words += count - baselines.pop(name)
                    stats = network.stream_statistics()
                    for app_name in recovery.readmitted:
                        for name in ccn.admission(app_name).stream_names:
                            baselines[name] = stats[name]["received"]
                    for app_name in recovery.rejected:
                        for label, graph_name in list(live.items()):
                            if graph_name == app_name:
                                live.pop(label)
                                vanished.add(label)

        # A departure's drain phase may already have run past the epoch
        # boundary; later epochs re-synchronise at their own end cycles.
        network.run(max(0, end - network.kernel.cycle))

        words = delivered_words()
        energy = _total_energy_pj(network)
        epoch.admitted = ccn.admitted_applications
        epoch.words_delivered = words - prev_words
        epoch.energy_pj = energy - prev_energy
        bits = epoch.words_delivered * network.data_width
        epoch.energy_pj_per_bit = epoch.energy_pj / bits if bits else float("inf")
        epoch.link_utilization = (
            ccn.allocator.link_utilization() if ccn.allocator is not None else 0.0
        )
        epoch.tile_occupancy = ccn.grid.occupancy()
        drops = network.fault_drops()
        epoch.words_dropped = drops - prev_drops
        prev_words, prev_energy, prev_drops = words, energy, drops
        result.epochs.append(epoch)

    result.end_leak_free = ccn.leak_free(network)
    return result
