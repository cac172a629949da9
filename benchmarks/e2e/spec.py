"""Names and constants of the end-to-end benchmark (standard library only).

Everything a later issue may cite lives here: the five workload names, the
end-to-end and per-layer metric names with unit and direction, the source
file → layer map, and the frozen cycle counts.  ``BENCHMARK.json`` at the
repository root repeats the names for the pipeline; ``test_e2e_smoke.py``
checks the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: name -> why the workload exists (one line; the README has a paragraph each).
WORKLOADS: Dict[str, str] = {
    "paper_repro": (
        "The paper's own artefacts (Figures 9/10, clock-gating ablation, Tables 1/2/4) through "
        "their public functions: single-router benches, so router, converter and energy models do the work."
    ),
    "app_traffic": (
        "HiperLAN/2 + UMTS as paced GT streams on a 6x6 mesh, three kinds, default schedule: "
        "the timed tier and leaping carry the kernel; the slow circuit rows live here."
    ),
    "saturated_default": (
        "Full-load row channels on an 8x8 mesh, three kinds, default schedule: sleeping cannot "
        "help, per-router work dominates, plane bypassed - the control for any sim.vector change."
    ),
    "saturated_vector": (
        "Full-load 16x16 circuit mesh under schedule=vector: NumPy batches the routers and the "
        "scalar data converter becomes the largest slice; its traced run also splits it over 2 shard workers."
    ),
    "churn_storm": (
        "CCN lifecycles, the paper churn schedule and seeded fault storms: the control plane "
        "(routing, admission, faults) does the work in many short run() epochs with recompiles."
    ),
}

#: How long one run of the pipeline measures (``run_seconds`` of BENCHMARK.json).
RUN_SECONDS = 24

#: (name, unit, better, regression bound as a share of the parent's median).
#: The time bounds are as wide as the pipeline allows: on the shared reference
#: host whole runs fall into slow spells of 1.4x (README, "Noise").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_cycles_per_s", "cycles/s", "higher", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

KINDS = ("circuit", "packet", "gt")

#: Layers are this repository's modules; a path prefix relative to
#: ``src/repro`` maps to a layer.  First match wins, so specific files come
#: before their package.
LAYER_FILES: List[Tuple[str, str]] = [
    ("sim/vector.py", "sim.vector"),
    ("sim/shard.py", "sim.shard"),
    ("sim/shard_transport.py", "sim.shard"),
    ("noc/word_proxy.py", "sim.shard"),
    ("sim/", "sim.engine"),
    ("core/data_converter.py", "core.data_converter"),
    ("core/testbench.py", "endpoints"),
    ("core/", "core.router"),
    ("baseline/testbench.py", "endpoints"),
    ("baseline/", "baseline.router"),
    ("noc/gt_network.py", "noc.gt_network"),
    ("noc/tile.py", "endpoints"),
    ("apps/traffic.py", "endpoints"),
    ("noc/fabric.py", "noc.fabric"),
    ("noc/network.py", "noc.fabric"),
    ("noc/packet_network.py", "noc.fabric"),
    ("noc/ccn.py", "noc.ccn"),
    ("noc/selection.py", "noc.ccn"),
    ("noc/be_network.py", "noc.ccn"),
    ("noc/admission.py", "noc.admission"),
    ("noc/path_allocation.py", "noc.admission"),
    ("noc/slot_table.py", "noc.admission"),
    ("noc/mapping.py", "noc.admission"),
    ("noc/faults.py", "noc.faults"),
    ("noc/routing.py", "noc.routing"),
    ("noc/topology.py", "noc.routing"),
    ("energy/", "energy"),
    ("experiments/", "experiments"),
    ("apps/", "experiments"),
]

LAYERS: List[str] = [
    "sim.engine",
    "sim.vector",
    "sim.shard",
    "core.router",
    "core.data_converter",
    "baseline.router",
    "noc.gt_network",
    "endpoints",
    "noc.fabric",
    "noc.ccn",
    "noc.admission",
    "noc.faults",
    "noc.routing",
    "energy",
    "experiments",
]

def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` for helper code.

    Helper code (``repro/common.py``, numpy, networkx, the standard library)
    is charged to the layer that called it; see ``spans.attribute``.
    """
    path = filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index >= 0:
        relative = path[index + len(marker) :]
        for prefix, layer in LAYER_FILES:
            if relative.startswith(prefix):
                return layer
        return None
    if "/benchmarks/e2e/" in path:
        return "bench"
    return None


def _per_layer() -> List[Tuple[str, str, str]]:
    names: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s", "lower"))
        names.append((f"{layer}.calls", "count", "lower"))
    names += [
        ("sim.engine.evaluated", "count", "lower"),
        ("sim.engine.skipped", "count", "higher"),
        ("sim.engine.occupancy", "ratio", "lower"),
        ("sim.engine.leaps", "count", "higher"),
        ("sim.engine.leaped_cycles", "cycles", "higher"),
        ("sim.engine.events_processed", "count", "lower"),
        ("sim.engine.heap_peak", "count", "lower"),
        ("sim.engine.window_ms_p50", "ms", "lower"),
        ("sim.engine.window_ms_p95", "ms", "lower"),
        ("sim.vector.batches", "count", "higher"),
        ("sim.vector.components", "count", "higher"),
        ("sim.vector.batch_coverage", "ratio", "higher"),
    ]
    for kind in KINDS:
        names.append((f"kind.{kind}.cycles_per_s", "cycles/s", "higher"))
        names.append((f"kind.{kind}.us_per_word", "us", "lower"))
    names += [
        ("endpoints.words_sent", "count", "higher"),
        ("endpoints.words_received", "count", "higher"),
        ("endpoints.delivery_ratio", "ratio", "higher"),
        ("noc.fabric.build_ms", "ms", "lower"),
        ("noc.fabric.attach_ms_p50", "ms", "lower"),
        ("energy.report_ms", "ms", "lower"),
        ("noc.ccn.admit_ms_p50", "ms", "lower"),
        ("noc.ccn.release_ms_p50", "ms", "lower"),
        ("noc.ccn.handle_fault_ms_p50", "ms", "lower"),
        ("noc.ccn.admits", "count", "higher"),
        ("noc.ccn.rejects", "count", "lower"),
        ("noc.ccn.releases", "count", "higher"),
        ("noc.ccn.ops_per_s", "1/s", "higher"),
        ("noc.ccn.select_first_ms", "ms", "lower"),
        ("noc.ccn.select_repeat_ms", "ms", "lower"),
        ("noc.faults.inject_ms_p50", "ms", "lower"),
        ("noc.faults.faults", "count", "higher"),
        ("noc.faults.displaced", "count", "higher"),
        ("noc.faults.readmitted", "count", "higher"),
        ("noc.faults.readmit_ratio", "ratio", "higher"),
        ("noc.faults.recovery_cycles", "cycles", "lower"),
        ("sim.shard.start_ms", "ms", "lower"),
        ("sim.shard.close_ms", "ms", "lower"),
        ("sim.shard.parent_run_s", "s", "lower"),
        ("sim.shard.worker_cpu_s", "s", "lower"),
        ("sim.shard.frames_sent", "count", "lower"),
        ("sim.shard.frame_bytes", "bytes", "lower"),
        ("sim.shard.exchange_windows", "count", "lower"),
        ("sim.shard.bytes_per_window", "bytes", "lower"),
        ("sim.shard.pipe_bytes_per_window", "bytes", "lower"),
        ("sim.shard.overlap_hit_ratio", "ratio", "higher"),
        ("sim.shard.speedup_vs_single", "x", "higher"),
        ("sim.shard.host_cpus", "count", "higher"),
        ("paper.max_rel_err_pct", "%", "lower"),
        ("paper.power_ratio", "x", "higher"),
        ("paper.area_ratio", "x", "higher"),
        ("trace.overhead_x", "x", "lower"),
    ]
    return names


#: (name, unit, better) of every per-layer metric; every workload reports all
#: of them, reading 0 where the layer does not run.
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

#: Written before measuring: per-layer metric prefix -> (the end-to-end metrics
#: it should move, the workloads on which, the workloads predicted unchanged).
MOVES: Dict[str, Tuple[str, str, str]] = {
    "core.data_converter.": ("sim_cycles_per_s", "saturated_vector app_traffic saturated_default", "churn_storm"),
    "sim.vector.": ("sim_cycles_per_s", "saturated_vector churn_storm", "saturated_default app_traffic paper_repro"),
    "sim.engine.": ("sim_cycles_per_s", "app_traffic saturated_default", "churn_storm"),
    "core.router.": ("sim_cycles_per_s", "saturated_default app_traffic paper_repro", "saturated_vector"),
    "baseline.router.": ("sim_cycles_per_s", "saturated_default app_traffic paper_repro", "saturated_vector"),
    "noc.gt_network.": ("sim_cycles_per_s", "saturated_default app_traffic", "saturated_vector"),
    "endpoints.": ("sim_cycles_per_s", "app_traffic saturated_default paper_repro", "churn_storm"),
    "noc.routing.": ("sim_cycles_per_s total_s setup_s", "churn_storm", "saturated_default saturated_vector"),
    "noc.faults.": ("sim_cycles_per_s total_s", "churn_storm", "saturated_default saturated_vector"),
    "noc.ccn.": ("sim_cycles_per_s total_s setup_s", "churn_storm app_traffic", "saturated_default saturated_vector"),
    "noc.admission.": ("sim_cycles_per_s total_s setup_s", "churn_storm app_traffic", "saturated_default saturated_vector"),
    "noc.fabric.": ("setup_s total_s", "saturated_vector", "paper_repro"),
    "sim.shard.": ("-", "traced run of saturated_vector only, never rated", "every end-to-end metric"),
    "energy.": ("total_s sim_cycles_per_s", "paper_repro", "saturated_vector"),
    "experiments.": ("total_s", "paper_repro", "saturated_default saturated_vector"),
    "kind.": ("sim_cycles_per_s", "app_traffic saturated_default churn_storm paper_repro", "-"),
    "paper.": ("-", "checked on paper_repro, never ranked", "every other workload"),
    "trace.": ("-", "overhead of the traced pass only", "every end-to-end metric"),
}

#: Per-layer metrics that must repeat exactly between two runs of one commit
#: (simulated counts and traced call counts); ``compare.py`` checks equality.
EXACT_NAMES = frozenset(
    {
        "sim.engine.evaluated",
        "sim.engine.skipped",
        "sim.engine.occupancy",
        "sim.engine.leaps",
        "sim.engine.leaped_cycles",
        "sim.engine.events_processed",
        "sim.engine.heap_peak",
        "sim.vector.batches",
        "sim.vector.components",
        "sim.vector.batch_coverage",
        "endpoints.words_sent",
        "endpoints.words_received",
        "endpoints.delivery_ratio",
        "noc.ccn.admits",
        "noc.ccn.rejects",
        "noc.ccn.releases",
        "noc.faults.faults",
        "noc.faults.displaced",
        "noc.faults.readmitted",
        "noc.faults.readmit_ratio",
        "noc.faults.recovery_cycles",
        "sim.shard.frames_sent",
        "sim.shard.exchange_windows",
        "paper.max_rel_err_pct",
        "paper.power_ratio",
        "paper.area_ratio",
    }
)


def is_exact(name: str) -> bool:
    """True for per-layer metrics that are counts and must repeat exactly.

    ``sim.shard.calls`` is the exception among the call counts: how often the
    parent polls its worker processes depends on when they exit.
    """
    return name in EXACT_NAMES or (name.endswith(".calls") and name != "sim.shard.calls")


# ---------------------------------------------------------------------------
# Frozen sizes.  One *pass* is one fresh subprocess doing set-up, the cycles
# below, report extraction and teardown; a run repeats passes until
# ``--seconds`` is used up.  Window lengths are the ISSUE's (30-70 ms of host
# time each, 30 to 800 cycles a call); the window and replay counts are sized
# so that a pass takes 4-5 s, each kind about a third of it, and a run of 20 s
# samples every step 12-16 times.
# ---------------------------------------------------------------------------

FREQUENCY_HZ = 100e6

#: kind -> (window cycles, windows per replay); HiperLAN/2 + UMTS on Mesh2D(6, 6).
APP_TRAFFIC = {"circuit": (100, 10), "packet": (350, 10), "gt": (800, 10)}
APP_TRAFFIC_MESH = 6
APP_TRAFFIC_LOAD = 0.5
APP_TRAFFIC_SEED = 11

#: kind -> (window cycles, windows per replay); one full-load row channel per row.
SATURATED_DEFAULT = {"circuit": (30, 10), "packet": (250, 10), "gt": (600, 10)}
SATURATED_DEFAULT_MESH = 8

#: (window cycles, windows per replay) of the 16x16 vector fabric.
SATURATED_VECTOR = (250, 30)
SATURATED_VECTOR_MESH = 16

#: Traced run only: (window cycles, windows) of the same fabric split over
#: SHARDS workers, and the cycles of the pipe-transport counter run.
SHARDED = (80, 8)
SHARDED_PIPE_CYCLES = 400
SHARDS = 2

#: A pass builds and runs the fabrics of its workload this many times over.
#: Step i (a window, or a whole experiment call) simulates the same cycles in
#: every replay, so its fastest sample over all replays of all passes is its
#: cost on an undisturbed host.
REPLAYS = {
    "paper_repro": 3,
    "app_traffic": 4,
    "saturated_default": 4,
    "saturated_vector": 4,
    "churn_storm": 1,
}

#: churn_storm (a): lifecycles per kind and replay, each running LIFECYCLE_BURST cycles.
LIFECYCLES = 10
LIFECYCLE_BURST = 50
LIFECYCLE_MESH = 4
#: (b) is ``run_dynamic_workload`` at its defaults (the paper churn schedule,
#: Mesh2D(5, 5), 3000 cycles); the selector probes this mesh.
CHURN_MESH = 5
#: (c) ``run_storm`` on Mesh2D(STORM_MESH, STORM_MESH).  The storm seed picks
#: the victims, which changes the control-plane work by up to 2x, so it is
#: part of the workload and ``--seed`` does not reach it.
STORM_MESH = 8
STORM_SEED = 7
STORM_PARAMS = {
    "storm_size": 8,
    "arrival_spacing": 60,
    "fault_spacing": 40,
    "cooldown": 60,
}

#: paper_repro: the figure and ablation functions at PAPER_CYCLES per scenario
#: run instead of the default 5000 (host time is linear in it: README,
#: "Controls"), so a whole call is 0.2-0.5 s and a pass can repeat it; the
#: seeded runs of PAPER_SCENARIO on all three kinds make ``--seed`` reach the
#: workload.
PAPER_CYCLES = 1000
PAPER_SCENARIO = "IV"
PAPER_TOLERANCE_PCT = 5.0

#: Workloads with a fabric scenario to cross-check against ``schedule="strict"``;
#: paper_repro's single-router benches build their own kernel and take no schedule.
STRICT_CHECKED = ("app_traffic", "saturated_default", "saturated_vector", "churn_storm")
