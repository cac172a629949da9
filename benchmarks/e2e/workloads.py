"""The five workloads, written against the simulator's public functions only.

Every function takes a :class:`harness.Pass` and performs one pass: set-up,
timed windows or calls, report extraction, teardown, and the correctness
operations that ride along.  ``CHECKS`` holds, per workload, the untimed
cross-check of a short prefix against ``schedule="strict"`` — the only check
that applies to a non-default seed.  Closed loop, one process, one thread;
the sharded probe of ``saturated_vector`` adds exactly :data:`spec.SHARDS`
worker processes.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterator, List, Optional

import spec
from harness import Pass, Steady, digest_of, snapshot
from repro.apps import drm, hiperlan2, umts
from repro.apps.traffic import SCENARIOS, BitFlipPattern, word_generator
from repro.energy.synthesis import area_ratio
from repro.experiments import ablations, dynamic, figure9, figure10, paper_data, table1, table2, table4
from repro.experiments.dynamic import DynamicWorkloadResult, run_dynamic_workload
from repro.experiments.harness import run_scenario
from repro.experiments.report import max_absolute_error_pct
from repro.experiments.scenarios import DELIVERY_TOLERANCE_WORDS
from repro.experiments.storm import DEFAULT_STORM_APPS, run_storm, telemetry_columns
from repro.noc.ccn import CentralCoordinationNode
from repro.noc.fabric import build_network
from repro.noc.faults import FaultInjector
from repro.noc.selection import FabricSelector
from repro.noc.topology import Mesh2D

#: Words a paced or saturated stream may still hold in flight at the end.
IN_FLIGHT_WORDS = 64


def _words(seed: int) -> Callable[[], int]:
    return word_generator(BitFlipPattern.TYPICAL, seed=seed)


def _schedule(schedule: Optional[str]) -> Dict[str, Any]:
    """``schedule`` is passed only when a workload names one."""
    return {} if schedule is None else {"schedule": schedule}


def _replays(p: Pass) -> Iterator[int]:
    """A pass replays its workload several times (once under ``--quick``):
    same cycles, fresh samples."""
    return p.replays(1 if p.quick else spec.REPLAYS[p.workload])


# ---------------------------------------------------------------------------
# Fabric builders (shared by the timed passes and the strict cross-checks)
# ---------------------------------------------------------------------------


def build_app_fabric(p: Pass, kind: str, schedule: Optional[str] = None):
    """HiperLAN/2 + UMTS admitted by one CCN on a 6x6 mesh of *kind*."""
    network = p.overhead(
        "build", build_network,
        kind, Mesh2D(spec.APP_TRAFFIC_MESH, spec.APP_TRAFFIC_MESH),
        frequency_hz=spec.FREQUENCY_HZ, **_schedule(schedule),
    )
    ccn = CentralCoordinationNode(network=network)
    source = _words(spec.APP_TRAFFIC_SEED + p.seed)
    for graph in (hiperlan2.build_process_graph(), umts.build_process_graph()):
        p.overhead("admit", ccn.admit, graph)
        p.overhead("attach", ccn.attach_traffic, graph.name, source, load=spec.APP_TRAFFIC_LOAD)
        p.count("admits")
    return network, ccn


def build_row_fabric(p: Pass, kind: str, size: int, schedule: Optional[str] = None, **extra: Any):
    """A size x size mesh with one full-load west-to-east channel per row."""
    network = p.overhead(
        "build", build_network,
        kind, Mesh2D(size, size), frequency_hz=spec.FREQUENCY_HZ, **_schedule(schedule), **extra,
    )
    for row in range(size):
        p.overhead(
            "attach", network.attach_channel,
            f"row{row}", (0, row), (size - 1, row), 100.0, _words(row + p.seed), load=1.0,
        )
    return network


# ---------------------------------------------------------------------------
# paper_repro
# ---------------------------------------------------------------------------


def paper_repro(p: Pass) -> None:
    cycles = spec.PAPER_CYCLES
    with p.span("warmup"):
        for kind in spec.KINDS:
            run_scenario(kind, spec.PAPER_SCENARIO, cycles=cycles)
    #: phase -> (scenario runs inside one call, the public function)
    figures = {
        "figure9": (2 * len(SCENARIOS), figure9.reproduce_figure9),
        "figure10": (2 * len(SCENARIOS) * len(figure10.FLIP_PERCENTAGES), figure10.reproduce_figure10),
        "ablation": (2 * len(SCENARIOS), ablations.clock_gating_ablation),
    }
    made: Dict[str, Any] = {}
    for _ in _replays(p):
        for phase, (runs, function) in figures.items():
            made[phase] = p.step(phase, None, "call", runs * cycles, function, cycles=cycles)
        for kind in spec.KINDS:
            made[kind] = p.step(
                f"scenario:{kind}", kind, "call", cycles,
                run_scenario, kind, spec.PAPER_SCENARIO, cycles=cycles, seed=p.seed,
            )
            p.phases[f"scenario:{kind}"]["words"] += sum(made[kind].words_received.values())

    fig9, fig10 = made["figure9"], made["figure10"]
    with p.phase("report"), p.span("report"):
        tables = (table1.measured_values(), table2.measured_values(), table4.measured_values())
        errors = {
            "table1": max_absolute_error_pct(tables[0], paper_data.TABLE1_PAPER_MBPS),
            "table2": max_absolute_error_pct(tables[1], paper_data.TABLE2_PAPER_MBPS),
            "table4": max(
                max_absolute_error_pct(tables[2].get(router, {}), reference)
                for router, reference in paper_data.TABLE4_PAPER.items()
            ),
        }
        ratios = {"area_ratio": area_ratio(), "power_ratio": fig9.mean_power_ratio}
        errors["area_ratio"] = abs(ratios["area_ratio"] / paper_data.PAPER_AREA_RATIO - 1) * 100
        errors["power_ratio"] = abs(ratios["power_ratio"] / paper_data.PAPER_POWER_RATIO - 1) * 100
    runs = {kind: made[kind] for kind in spec.KINDS}
    payload = {
        "tables": tables,
        "figure9": fig9.rows,
        "figure10": {f"{r}/{s}": v for (r, s), v in sorted(fig10.series.items())},
        "gating": made["ablation"],
        "scenarios": {
            kind: [run.activity.as_dict(), run.words_sent, run.words_received]
            for kind, run in runs.items()
        },
    }
    p.record_digest("paper", payload)
    for name, error in errors.items():
        p.check(f"paper:{name}", error <= spec.PAPER_TOLERANCE_PCT, f"{error:.2f} % off the paper")
    for name, passed in {**fig9.checks, **fig10.checks}.items():
        p.check(f"paper:{name}", passed, "qualitative expectation of Section 7.3 not met")
    for kind, run in runs.items():
        tolerance = DELIVERY_TOLERANCE_WORDS[run.router_kind]
        p.check(f"delivery:scenario:{kind}", run.delivery_ok(tolerance), "words lost in the test bench")
        p.count("words_sent", sum(run.words_sent.values()))
        p.count("words_received", sum(run.words_received.values()))
    p.counters["paper.max_rel_err_pct"] = max(errors.values())
    p.counters["paper.power_ratio"] = ratios["power_ratio"]
    p.counters["paper.area_ratio"] = ratios["area_ratio"]


# ---------------------------------------------------------------------------
# app_traffic, saturated_default, saturated_vector
# ---------------------------------------------------------------------------


def app_traffic(p: Pass) -> None:
    for _ in _replays(p):
        phases: List[Steady] = []
        ccns = {}
        for kind, (window, windows) in spec.APP_TRAFFIC.items():
            network, ccns[kind] = build_app_fabric(p, kind)
            phases.append(Steady(kind, kind, network, window, windows))
        p.steady(phases)
        energy = {ph.kind: p.report(ph, IN_FLIGHT_WORDS)["energy_pj_per_bit"] for ph in phases}
        p.check(
            "energy_order",
            energy["circuit"] < energy["gt"] < energy["packet"],
            f"expected circuit < gt < packet energy per bit, got {energy}",
        )
        for kind, ccn in ccns.items():
            for name in ccn.admitted_applications:
                p.overhead("release", ccn.release, name)
                p.count("releases")
            p.check(f"leak_free:{kind}", ccn.leak_free(), "resources held after release")


def saturated_default(p: Pass) -> None:
    for _ in _replays(p):
        phases = [
            Steady(
                kind, kind, build_row_fabric(p, kind, spec.SATURATED_DEFAULT_MESH),
                window, windows,
            )
            for kind, (window, windows) in spec.SATURATED_DEFAULT.items()
        ]
        p.steady(phases)
        for phase in phases:
            p.report(phase, IN_FLIGHT_WORDS)


def saturated_vector(p: Pass) -> None:
    window, windows = spec.SATURATED_VECTOR
    for _ in _replays(p):
        network = build_row_fabric(p, "circuit", spec.SATURATED_VECTOR_MESH, schedule="vector")
        phase = Steady("vector", "circuit", network, window, windows)
        p.steady([phase])
        p.report(phase, IN_FLIGHT_WORDS)
        p.count("vector_cycles", network.kernel.cycle)
    if p.traced:
        _sharded_probe(p)


def _build_sharded(p: Pass, transport: str):
    return build_row_fabric(
        p, "circuit", spec.SATURATED_VECTOR_MESH, schedule="vector",
        shards=spec.SHARDS, partition_mode="cols", transport=transport,
    )


def _sharded_probe(p: Pass) -> None:
    """The same fabric split over two worker processes, every row circuit
    crossing the cut: the only place ``sim.shard`` runs.

    Traced run only, for the per-layer metrics: the workers wait for each
    other in ``time.sleep(0)``, a timer sleep whose latency on this host
    moves 2x within the hour, so a sharded rate cannot hold an end-to-end
    bound (README, "Controls").  The strict cross-check of every run still
    compares the sharded statistics with the single process.
    """
    window, windows = spec.SHARDED
    network = _build_sharded(p, "auto")
    phase = Steady("sharded", None, network, window, windows, rated=False)
    try:
        p.steady([phase])  # the warm-up window forks the workers and creates the rings
        p.counters["shard.start_ms"] = p.tracer.durations("warmup")[-1] * 1e3
        sharded = snapshot(network)
        p.scheduler.append(network.kernel.scheduler_stats)
        stats = network.stats
        p.count("vector_cycles", network.kernel.cycle * spec.SHARDS)
    finally:
        p.overhead("close", network.close)
    # The single-process fabric over the same windows: the base of speedup_vs_single.
    single = build_row_fabric(p, "circuit", spec.SATURATED_VECTOR_MESH, schedule="vector")
    p.steady([Steady("single", None, single, window, windows, rated=False)])
    p.check(
        "sharded_equals_single",
        digest_of(snapshot(single)) == digest_of(sharded),
        "sharded statistics differ from the single process at the same cycle",
    )
    fleet_windows = stats.exchange_windows / spec.SHARDS
    p.counters["shard.bytes_per_window"] = stats.frame_bytes / fleet_windows
    p.counters["shard.overlap_hit_ratio"] = stats.overlap_hits / stats.exchange_windows
    p.counters["shard.host_cpus"] = os.cpu_count() or 0

    pipe = _build_sharded(p, "pipe")  # for its byte counter only
    try:
        p.overhead("pipe", pipe.run, p.scaled(spec.SHARDED_PIPE_CYCLES))
        pipe_stats = pipe.stats
    finally:
        p.overhead("close", pipe.close)
    p.counters["shard.pipe_bytes_per_window"] = pipe_stats.frame_bytes / (
        pipe_stats.exchange_windows / spec.SHARDS
    )


# ---------------------------------------------------------------------------
# churn_storm
# ---------------------------------------------------------------------------


class _Lifecycles:
    """admit + attach_traffic + run(50) + release of HiperLAN/2, over and over."""

    def __init__(self, p: Pass, kind: str, schedule: Optional[str] = None) -> None:
        mesh = Mesh2D(spec.LIFECYCLE_MESH, spec.LIFECYCLE_MESH)
        self.network = p.overhead(
            "build", build_network, kind, mesh, frequency_hz=spec.FREQUENCY_HZ, **_schedule(schedule)
        )
        self.p = p
        self.kind = kind
        self.ccn = CentralCoordinationNode(network=self.network)
        self.graph = hiperlan2.build_process_graph()
        self.source = _words(5 + p.seed)
        self.leaks = 0

    def one(self, timed: bool = True) -> None:
        """One lifecycle; when *timed*, each of its four calls is a step."""
        p, ccn, graph = self.p, self.ccn, self.graph
        phase = f"lifecycle:{self.kind}"

        def call(name: str, sim_cycles: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
            with p.span(name):
                if timed:
                    p.step(phase, self.kind, name, sim_cycles, fn, *args, **kwargs)
                else:
                    fn(*args, **kwargs)

        call("admit", 0, ccn.admit, graph)
        call("attach", 0, ccn.attach_traffic, graph.name, self.source, load=0.5)
        call("window", spec.LIFECYCLE_BURST, self.network.run, spec.LIFECYCLE_BURST)
        call("release", 0, ccn.release, graph.name)
        p.count("admits")
        p.count("releases")
        self.leaks += not ccn.leak_free()


def _outcome(result: DynamicWorkloadResult) -> Dict[str, Any]:
    """The outcome fields of a churn or storm run that every schedule must share."""
    return {
        "telemetry": telemetry_columns(result),
        "rejected": result.rejected,
        "fabric_choices": result.fabric_choices,
        "fallback_kinds": result.fallback_kinds,
        "leak_free": result.end_leak_free,
    }


def _count_outcome(p: Pass, phase: str, result: DynamicWorkloadResult) -> None:
    """Simulated cycles, delivered words and control-plane counts of one
    experiment call, read off its epoch reports."""
    events = [event for epoch in result.epochs for event in epoch.events]
    p.count("admits", sum(e.startswith("arrive ") for e in events) + len(result.readmitted))
    p.count("releases", sum(e.startswith("depart ") and not e.endswith(")") for e in events))
    p.count("releases", len(result.displaced))
    p.count("rejects", result.rejections + len(result.displaced_rejected))
    p.count("faults", result.fault_count)
    p.count("displaced", len(result.displaced))
    p.count("readmitted", len(result.readmitted))
    p.count("recovery_cycles", result.recovery_cycles)
    p.phases[phase]["cycles"] += result.total_cycles
    p.phases[phase]["words"] += result.words_delivered


def _storm(kind: str, mesh: int, schedule: Optional[str], **params: Any):
    return run_storm(kind, Mesh2D(mesh, mesh), seed=spec.STORM_SEED, **_schedule(schedule), **params)


#: phase -> (kind, schedule) of the storms: the three kinds under the default
#: schedule, and circuit again with the vector plane recompiling at every fault.
STORMS = {
    **{f"storm:{kind}": (kind, None) for kind in spec.KINDS},
    "storm:circuit:vector": ("circuit", "vector"),
}


def churn_storm(p: Pass) -> None:
    # Fabric selection, probe-cache miss then hit.  Set-up, not part of the
    # rate: the churn runs below consult the warm selector at every arrival.
    selector = FabricSelector(
        Mesh2D(spec.CHURN_MESH, spec.CHURN_MESH), seed=spec.APP_TRAFFIC_SEED + p.seed
    )
    graph = hiperlan2.build_process_graph()
    with p.span("select_first"):
        selector.select(graph)
    with p.span("select_repeat"):
        selector.select(graph)
    for application in (umts, drm):
        selector.select(application.build_process_graph())

    # The experiments build their fabrics and inject their faults themselves;
    # the traced run watches those calls from outside for spans and counters.
    fabrics: List[Any] = []
    if p.traced:
        p.tracer.watch(dynamic, "build_network", "build", results=fabrics)
        p.tracer.watch(FaultInjector, "inject", "inject")
        p.tracer.watch(CentralCoordinationNode, "handle_fault", "handle_fault")

    lifecycles = [_Lifecycles(p, kind) for kind in spec.KINDS]
    for cycle in lifecycles:
        cycle.one(timed=False)  # warm-up, part of set-up
    calls = 0
    results: Dict[str, DynamicWorkloadResult] = {}
    for _ in _replays(p):
        # (a) lifecycles, the three kinds interleaved.
        for _ in range(p.scaled(spec.LIFECYCLES)):
            for cycle in lifecycles:
                cycle.one()
        # (b) the paper churn schedule, selecting a fabric at every arrival.
        for kind in spec.KINDS:
            results[f"churn:{kind}"] = p.step(
                f"churn:{kind}", kind, "call", 0,
                run_dynamic_workload, kind, seed=spec.APP_TRAFFIC_SEED + p.seed, selector=selector,
            )
        # (c) a seeded fault storm.
        for phase, (kind, schedule) in STORMS.items():
            outcome = p.step(
                phase, kind, "call", 0, _storm, kind, spec.STORM_MESH, schedule, **spec.STORM_PARAMS
            )
            results[phase] = outcome.result
            p.check(f"recovered_or_rejected:{phase}", outcome.recovered_or_rejected,
                    "application silently lost")
            p.check(f"leak_free:{phase}", outcome.leak_free, "resources held after the storm")
        for phase, result in results.items():
            calls += 1
            _count_outcome(p, phase, result)
    for cycle in lifecycles:
        p.check(
            f"leak_free:lifecycle:{cycle.kind}", cycle.leaks == 0,
            f"{cycle.leaks} lifecycles leaked resources",
        )
        p.scheduler.append(cycle.network.kernel.scheduler_stats)
    p.record_digest("churn_storm", {phase: _outcome(result) for phase, result in results.items()})
    if p.traced:
        p.check("watch:fabrics", len(fabrics) == calls, "an experiment built its fabric unseen")
        for network in fabrics:
            p.scheduler.append(network.kernel.scheduler_stats)
            if network.kernel.schedule == "vector":
                p.count("vector_cycles", network.kernel.cycle)


# ---------------------------------------------------------------------------
# Strict cross-checks (untimed; a separate process)
# ---------------------------------------------------------------------------


def _cross_check(p: Pass, name: str, build: Callable[[Optional[str]], Any], cycles: int) -> None:
    """A short prefix under the workload's schedule must equal ``strict``."""
    digests = []
    for schedule in (None, "strict"):
        network = build(schedule)
        try:
            network.run(cycles)
            digests.append(digest_of(snapshot(network)))
        finally:
            if hasattr(network, "close"):
                network.close()
    p.check(f"strict:{name}", digests[0] == digests[1], f"diverged from strict within {cycles} cycles")


def check_app_traffic(p: Pass) -> None:
    for kind, (window, _) in spec.APP_TRAFFIC.items():
        _cross_check(p, kind, lambda s, k=kind: build_app_fabric(p, k, s)[0], 2 * window)


def check_saturated_default(p: Pass) -> None:
    for kind, (window, _) in spec.SATURATED_DEFAULT.items():
        _cross_check(
            p, kind,
            lambda s, k=kind: build_row_fabric(p, k, spec.SATURATED_DEFAULT_MESH, s), 2 * window,
        )


def check_saturated_vector(p: Pass) -> None:
    size = spec.SATURATED_VECTOR_MESH
    _cross_check(p, "vector", lambda s: build_row_fabric(p, "circuit", size, s or "vector"), 60)
    _cross_check(
        p, "sharded",
        lambda s: build_row_fabric(p, "circuit", size, s) if s else _build_sharded(p, "auto"), 60,
    )


def _few_lifecycles(p: Pass, kind: str, schedule: Optional[str]) -> Any:
    cycle = _Lifecycles(p, kind, schedule)
    for _ in range(2):
        cycle.one(timed=False)
    return cycle.network


def check_churn_storm(p: Pass) -> None:
    for kind in spec.KINDS:
        _cross_check(p, f"lifecycle:{kind}", lambda s, k=kind: _few_lifecycles(p, k, s), 50)
    # The churn schedule takes seconds under strict; a small storm through the
    # same event loop (two applications, two faults, 5x5) keeps it affordable.
    small = {**spec.STORM_PARAMS, "storm_size": 2, "apps": DEFAULT_STORM_APPS[:2]}
    for phase, (kind, schedule) in STORMS.items():
        storm = [digest_of(_outcome(_storm(kind, 5, s, **small).result)) for s in (schedule, "strict")]
        p.check(f"strict:{phase}", storm[0] == storm[1], "storm diverged from strict")


WORKLOADS: Dict[str, Callable[[Pass], None]] = {
    "paper_repro": paper_repro,
    "app_traffic": app_traffic,
    "saturated_default": saturated_default,
    "saturated_vector": saturated_vector,
    "churn_storm": churn_storm,
}

#: Workloads with a fabric scenario to cross-check; paper_repro's single-router
#: benches build their own kernel and take no schedule.
CHECKS: Dict[str, Callable[[Pass], None]] = {
    "app_traffic": check_app_traffic,
    "saturated_default": check_saturated_default,
    "saturated_vector": check_saturated_vector,
    "churn_storm": check_churn_storm,
}
