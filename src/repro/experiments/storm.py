"""Failure-storm campaigns: seeded fault schedules and survivability telemetry.

A *storm* is a deterministic churn schedule with faults embedded in it: the
multi-application workload arrives as usual, and then — mid-traffic — a
seeded sequence of links and routers dies, one fault per epoch boundary.
Every fault runs the full recovery pipeline of :mod:`repro.noc.faults`
(wire kill → degraded topology → routing rebuild → CCN displacement,
release, re-mapping and re-admission), so the campaign measures what the
paper's run-time reconfiguration story costs when the reconfiguration is
*forced* rather than requested: recovery cycles, words lost on the wires,
energy per bit before and after the storm, and whether every displaced
application found a new home on the surviving fabric.

The module provides

* :func:`storm_schedule` — a seeded arrival/fault/departure event list
  (link faults target the busiest allocated link, so a storm always hits
  somebody; router faults are seeded-random among the killable routers),
* :func:`run_storm` — one campaign on one network kind, returning a
  :class:`StormOutcome` wrapping the
  :class:`~repro.experiments.dynamic.DynamicWorkloadResult` with the
  survivability invariants as properties,
* :func:`telemetry_columns` — the per-epoch observables as compact columnar
  arrays (one list per quantity, JSON-ready) for plotting and regression
  baselines,
* :func:`sweep_storms` — the storm size × kind × topology campaign grid.

Determinism: every victim chooser owns its own seeded RNG and faults are
injected between cycles, so a campaign replayed under ``schedule="strict"``
and under the default schedule is bit-identical — checked by ``identical_results``
in ``examples/failure_storm.py`` and CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import drm, hiperlan2, umts
from repro.apps.kpn import ProcessGraph
from repro.experiments.dynamic import (
    DynamicWorkloadResult,
    WorkloadEvent,
    run_dynamic_workload,
)
from repro.noc.faults import (
    FaultSpec,
    loaded_link_chooser,
    random_router_chooser,
    region_chooser,
    row_cut_chooser,
)
from repro.noc.topology import Mesh2D, Topology
from repro.sim.engine import DEFAULT_SCHEDULE

__all__ = [
    "DEFAULT_STORM_APPS",
    "StormOutcome",
    "storm_schedule",
    "run_storm",
    "telemetry_columns",
    "sweep_storms",
]

AppSpec = Tuple[str, Callable[[], ProcessGraph]]

#: The multi-mode terminal's three applications, in arrival order.
DEFAULT_STORM_APPS: List[AppSpec] = [
    ("hiperlan2", hiperlan2.build_process_graph),
    ("umts", umts.build_process_graph),
    ("drm", drm.build_process_graph),
]

#: Per-epoch observables exported by :func:`telemetry_columns`.
TELEMETRY_COLUMNS = (
    "start_cycle",
    "end_cycle",
    "words_delivered",
    "energy_pj",
    "energy_pj_per_bit",
    "link_utilization",
    "tile_occupancy",
    "reconfiguration_time_s",
    "rejections",
    "faults",
    "displaced",
    "readmitted",
    "displaced_rejected",
    "recovery_cycles",
    "words_dropped",
)


@dataclass
class StormOutcome:
    """One storm campaign on one fabric, with its survivability verdicts."""

    kind: str
    topology_name: str
    storm_size: int
    seed: int
    schedule: str
    result: DynamicWorkloadResult

    @property
    def recovered_or_rejected(self) -> bool:
        """True when every displaced application was re-admitted or cleanly
        rejected — nobody silently lost."""
        accounted = set(self.result.readmitted) | set(self.result.displaced_rejected)
        return all(name in accounted for name in self.result.displaced)

    @property
    def leak_free(self) -> bool:
        """True when the CCN held no resources after the final departure."""
        return bool(self.result.end_leak_free)

    @property
    def telemetry(self) -> Dict[str, List]:
        """The campaign's per-epoch observables, columnar."""
        return telemetry_columns(self.result)


def storm_schedule(
    storm_size: int,
    seed: int = 0,
    apps: Optional[Sequence[AppSpec]] = None,
    arrival_spacing: int = 300,
    fault_start: Optional[int] = None,
    fault_spacing: int = 250,
    router_fault_every: int = 3,
    row_cut_every: int = 0,
    region_every: int = 0,
    region_extent: Tuple[int, int] = (2, 2),
    cooldown: int = 300,
) -> Tuple[List[WorkloadEvent], int]:
    """A seeded storm: arrivals, *storm_size* faults mid-traffic, departures.

    Returns ``(events, total_cycles)``.  Link faults use
    :func:`~repro.noc.faults.loaded_link_chooser` (the busiest allocated
    link — a storm that misses all traffic measures nothing); every
    *router_fault_every*-th fault kills a whole router via
    :func:`~repro.noc.faults.random_router_chooser` instead.  Correlated
    faults are opt-in: with ``row_cut_every=N`` every N-th fault severs a
    whole mesh row's horizontal links atomically
    (:func:`~repro.noc.faults.row_cut_chooser`), and with
    ``region_every=N`` every N-th fault browns out a
    *region_extent*-sized power domain of routers
    (:func:`~repro.noc.faults.region_chooser`); row cuts take precedence
    when both land on the same index.  Each fault gets its own chooser
    seeded from *seed* and the fault index, so the victim sequence is a
    pure function of the schedule parameters.
    """
    if storm_size < 1:
        raise ValueError("storm_size must be positive")
    apps = list(apps) if apps is not None else list(DEFAULT_STORM_APPS)
    events: List[WorkloadEvent] = []
    for index, (label, factory) in enumerate(apps):
        events.append(WorkloadEvent(index * arrival_spacing, "arrive", label, factory))
    if fault_start is None:
        fault_start = len(apps) * arrival_spacing + arrival_spacing
    for index in range(storm_size):
        cycle = fault_start + index * fault_spacing
        if row_cut_every and (index + 1) % row_cut_every == 0:
            spec = FaultSpec("link", chooser=row_cut_chooser(seed + index))
        elif region_every and (index + 1) % region_every == 0:
            width, height = region_extent
            spec = FaultSpec(
                "router",
                chooser=region_chooser(seed + index, width=width, height=height),
            )
        elif router_fault_every and (index + 1) % router_fault_every == 0:
            spec = FaultSpec("router", chooser=random_router_chooser(seed + index))
        else:
            spec = FaultSpec("link", chooser=loaded_link_chooser(seed + index))
        events.append(WorkloadEvent(cycle, "fault", fault=spec))
    depart_start = fault_start + storm_size * fault_spacing + cooldown
    for index, (label, _) in enumerate(apps):
        events.append(WorkloadEvent(depart_start + index * 150, "depart", label))
    total_cycles = depart_start + len(apps) * 150 + cooldown
    return events, total_cycles


def run_storm(
    kind: str,
    topology: Optional[Topology] = None,
    storm_size: int = 2,
    seed: int = 0,
    schedule: str = DEFAULT_SCHEDULE,
    frequency_hz: float = 100e6,
    load: float = 0.5,
    apps: Optional[Sequence[AppSpec]] = None,
    **schedule_params,
) -> StormOutcome:
    """Run one seeded storm campaign against a live network of *kind*."""
    topology = topology if topology is not None else Mesh2D(8, 8)
    events, total_cycles = storm_schedule(
        storm_size, seed=seed, apps=apps, **schedule_params
    )
    result = run_dynamic_workload(
        kind,
        topology=topology,
        events=events,
        frequency_hz=frequency_hz,
        total_cycles=total_cycles,
        load=load,
        seed=seed,
        schedule=schedule,
    )
    return StormOutcome(
        kind=result.kind,
        topology_name=type(topology).__name__,
        storm_size=storm_size,
        seed=seed,
        schedule=schedule,
        result=result,
    )


def telemetry_columns(result: DynamicWorkloadResult) -> Dict[str, List]:
    """Per-epoch survivability observables as columnar arrays.

    One list per :data:`TELEMETRY_COLUMNS` entry, all of equal length (one
    entry per epoch).  Application lists become counts and ``inf`` energy
    (an epoch that delivered nothing) becomes ``None``, so the structure
    round-trips through JSON unchanged.
    """
    columns: Dict[str, List] = {name: [] for name in TELEMETRY_COLUMNS}
    for epoch in result.epochs:
        columns["start_cycle"].append(epoch.start_cycle)
        columns["end_cycle"].append(epoch.end_cycle)
        columns["words_delivered"].append(epoch.words_delivered)
        columns["energy_pj"].append(epoch.energy_pj)
        columns["energy_pj_per_bit"].append(
            None
            if epoch.energy_pj_per_bit == float("inf")
            else epoch.energy_pj_per_bit
        )
        columns["link_utilization"].append(epoch.link_utilization)
        columns["tile_occupancy"].append(epoch.tile_occupancy)
        columns["reconfiguration_time_s"].append(epoch.reconfiguration_time_s)
        columns["rejections"].append(epoch.rejections)
        columns["faults"].append(len(epoch.faults))
        columns["displaced"].append(len(epoch.displaced))
        columns["readmitted"].append(len(epoch.readmitted))
        columns["displaced_rejected"].append(len(epoch.displaced_rejected))
        columns["recovery_cycles"].append(epoch.recovery_cycles)
        columns["words_dropped"].append(epoch.words_dropped)
    return columns


def _storm_task(task: Tuple[str, Topology, int, int, Dict]) -> StormOutcome:
    """One campaign cell, module-level so it can cross a process boundary."""
    kind, topology, storm_size, seed, storm_params = task
    return run_storm(
        kind, topology=topology, storm_size=storm_size, seed=seed, **storm_params
    )


def sweep_storms(
    kinds: Sequence[str] = ("circuit", "packet", "gt"),
    storm_sizes: Sequence[int] = (1, 2),
    topologies: Optional[Sequence[Topology]] = None,
    seed: int = 0,
    jobs: int = 1,
    **storm_params,
) -> List[StormOutcome]:
    """The campaign grid: every kind × storm size × topology, one seed.

    ``jobs > 1`` fans the independent cells over the scenario farm
    (:func:`repro.experiments.farm.run_tasks`); results come back in task
    order, so the outcome list is bit-identical to the serial run.
    """
    from repro.experiments.farm import run_tasks

    topologies = list(topologies) if topologies is not None else [Mesh2D(8, 8)]
    tasks = [
        (kind, topology, storm_size, seed, storm_params)
        for topology in topologies
        for kind in kinds
        for storm_size in storm_sizes
    ]
    return run_tasks(_storm_task, tasks, jobs=jobs)
