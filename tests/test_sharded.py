"""Sharded-vs-single bit-identity, partitioner geometry, horizon and parking.

The sharded kernel (:mod:`repro.sim.shard`) promises that a fabric
partitioned over worker processes is *bit-identical* to the single-process
network: activity counters, delivered word counts, energy figures and drop
totals.  Mirroring :mod:`tests.test_event_scheduling`, a seeded RNG draws
scenarios — kind × mesh/torus × shard count × load, with mid-run channel
churn and live link faults — and every observable is diffed against the
unsharded reference.  A second family pins the boundary-frame exchange
itself: running the identical sharded scenario twice must reproduce the
same observables and the same cross-shard scheduler statistics.

Also here: unit coverage for the deterministic partitioner
(:func:`repro.noc.topology.partition_topology`), the kernel's
``activity_horizon`` primitive the window loop is built on, and the packet
router's credit-event prediction (a back-pressured worm with a full tile
buffer parks instead of reporting an injection event every cycle).
"""

from __future__ import annotations

import os
import pickle
import random
import signal

import pytest

from repro.apps.traffic import BitFlipPattern, word_generator
from repro.baseline.flit import VC_MASK, Packet
from repro.noc import fabric
from repro.noc.fabric import build_network
from repro.noc.packet_network import PacketSwitchedNoC
from repro.noc.topology import IrregularMesh, Mesh2D, Torus2D, partition_topology

FREQUENCY_HZ = 100e6
KINDS = ("circuit", "packet", "gt")
FABRICS = (("mesh", (3, 3)), ("mesh", (4, 2)), ("mesh", (4, 4)), ("torus", (4, 3)))


def _build_topology(family: str, extent: tuple) -> object:
    width, height = extent
    return Mesh2D(width, height) if family == "mesh" else Torus2D(width, height)


def _snapshot(network) -> dict:
    """Everything the experiments read, identical in form for both builds."""
    return {
        "cycle": network.kernel.cycle,
        "activity": network.activity_snapshot(),
        "streams": network.stream_statistics(),
        "fault_drops": network.fault_drops(),
        "energy": network.energy_per_delivered_bit_pj(),
    }


def _random_plan(seed: int) -> dict:
    """Draw one deterministic scenario (kind, fabric, channels, churn, fault)."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
    family, extent = rng.choice(FABRICS)
    width, height = extent
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
        "family": family,
        "extent": extent,
        "channels": channels,
        "churn": rng.random() < 0.5,
        "fault": rng.random() < 0.5,
        "shards": rng.choice((2, 3, 4)),
        "phase_cycles": rng.choice((250, 400)),
    }


def _execute(plan: dict, shards: int | None = None, transport: str | None = None):
    """Build and run one drawn scenario, sharded or single-process."""
    params = {"frequency_hz": FREQUENCY_HZ, "schedule": "vector"}
    if shards is not None:
        params["shards"] = shards
    if transport is not None:
        params["transport"] = transport
    network = build_network(
        plan["kind"], _build_topology(plan["family"], plan["extent"]), **params
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
    if plan["fault"]:
        network.fail_link((1, 0), (2, 0))
        network.refresh_routing(network.degraded_topology())
        network.run(plan["phase_cycles"])
    if plan["churn"]:
        network.detach_channel(plan["channels"][0]["name"], drain_cycles=64)
        network.run(plan["phase_cycles"])
    return network


# ---------------------------------------------------------------------------
# Shard-vs-single bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_random_scenarios_are_shard_identical(seed):
    plan = _random_plan(seed)
    single = _execute(plan)
    sharded = _execute(plan, shards=plan["shards"])
    try:
        assert _snapshot(sharded) == _snapshot(single), (
            f"seed {seed}: sharded diverged from single "
            f"(kind={plan['kind']}, fabric={plan['family']}{plan['extent']}, "
            f"shards={plan['shards']}, churn={plan['churn']}, "
            f"fault={plan['fault']})"
        )
    finally:
        sharded.close()


@pytest.mark.parametrize("kind", KINDS)
def test_live_fault_mid_run_is_shard_identical(kind):
    """The fault broadcast must drop exactly the in-flight boundary payload
    the single network drops — mirror-copy drops must not double-count."""

    def run_once(shards=None):
        params = {"frequency_hz": FREQUENCY_HZ, "schedule": "vector"}
        if shards is not None:
            params["shards"] = shards
        network = build_network(kind, Mesh2D(4, 2), **params)
        network.attach_channel(
            "a", (0, 0), (3, 0), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=13), load=0.7,
        )
        network.attach_channel(
            "b", (3, 1), (0, 1), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=14), load=0.4,
        )
        network.run(250)
        # The failed link is a *boundary* link of the 2-column partition.
        dropped = network.fail_link((1, 0), (2, 0))
        network.run(250)
        snapshot = (_snapshot(network), dropped)
        if shards is not None:
            network.close()
        return snapshot

    assert run_once(shards=2) == run_once()


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_frame_exchange_is_deterministic(kind):
    """The identical sharded scenario twice: same observables, same merged
    scheduler statistics — frame ordering must depend on nothing but the
    scenario (worker replies are folded in shard-index order, frames in
    sorted link order)."""

    def run_once():
        network = build_network(
            kind,
            Mesh2D(4, 4),
            frequency_hz=FREQUENCY_HZ,
            schedule="vector",
            shards=4,
        )
        generator = word_generator(BitFlipPattern.TYPICAL, seed=7)
        network.attach_channel("a", (0, 0), (3, 3), 100.0, generator, load=0.6)
        network.attach_channel("b", (3, 0), (0, 3), 100.0, generator, load=0.3)
        network.run(250)
        network.detach_channel("a", drain_cycles=32)
        network.run(150)
        stats = network.stats
        snapshot = _snapshot(network)
        network.close()
        return snapshot, (stats.evaluated, stats.wakes, stats.events_processed)

    assert run_once() == run_once()


def test_sharded_scheduler_stats_merge_across_shards():
    network = build_network(
        "circuit", Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, shards=2
    )
    generator = word_generator(BitFlipPattern.TYPICAL, seed=3)
    network.attach_channel("a", (0, 0), (3, 1), 100.0, generator, load=0.5)
    network.run(200)
    merged = network.stats
    assert merged.evaluated > 0
    assert network.kernel.cycle == 200
    # Each 4×1 region holds a few hops of the one circuit: both planes stay
    # below their gate, and the merged report says so.
    report = network.schedule_report()
    assert (report["requested"], report["effective"]) == ("vector", "event")
    assert "live-route gate" in report["reason"]
    assert report["batched_cycles"] == 0 < report["scalar_cycles"]
    assert report["live_routes"] == 5  # the circuit's hops, summed over both regions
    network.close()


def test_post_start_attach_crosses_the_pipe():
    """Channels attached after the workers fork ship their word source by
    pickle — the traffic generators must survive the round trip with state."""
    generator = word_generator(BitFlipPattern.TYPICAL, seed=11)
    clone = pickle.loads(pickle.dumps(generator))
    assert [generator() for _ in range(8)] == [clone() for _ in range(8)]

    network = build_network("circuit", Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, shards=2)
    network.run(50)  # workers are live now
    network.attach_channel(
        "late", (0, 0), (3, 1), 100.0, word_generator(BitFlipPattern.TYPICAL, seed=4)
    )
    network.run(200)
    stats = network.stream_statistics()
    delivered = sum(
        entry["received"] for name, entry in stats.items() if name.startswith("late")
    )
    assert delivered > 0
    network.close()


# ---------------------------------------------------------------------------
# Transport equivalence: shm vs pipe vs single process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_random_scenarios_are_transport_identical(seed):
    """Every observable must agree across single-process, pipe-sharded and
    shm-sharded builds of the same drawn scenario — the binary frame codec
    and the seqlock window protocol must be invisible."""
    plan = _random_plan(seed)
    reference = _snapshot(_execute(plan))
    for transport in ("pipe", "shm"):
        sharded = _execute(plan, shards=plan["shards"], transport=transport)
        try:
            assert sharded.transport == transport
            assert _snapshot(sharded) == reference, (
                f"seed {seed}: {transport} diverged from single "
                f"(kind={plan['kind']}, fabric={plan['family']}{plan['extent']}, "
                f"shards={plan['shards']})"
            )
        finally:
            sharded.close()


@pytest.mark.parametrize("kind", KINDS)
def test_mincut_transport_identity_with_live_fault(kind):
    """Min-cut partitions and the shm transport compose with live boundary
    faults and routing refreshes without losing bit-identity."""
    plan = {
        "kind": kind,
        "family": "mesh",
        "extent": (4, 4),
        "channels": [
            {"name": "c0", "src": (0, 0), "dst": (3, 3), "bandwidth": 100.0,
             "load": 0.8, "seed": 21},
            {"name": "c1", "src": (3, 0), "dst": (0, 3), "bandwidth": 50.0,
             "load": 0.4, "seed": 22},
        ],
        "churn": True,
        "fault": True,
        "phase_cycles": 300,
    }
    reference = _snapshot(_execute(plan))
    for transport in ("pipe", "shm"):
        params = {
            "frequency_hz": FREQUENCY_HZ,
            "schedule": "vector",
            "shards": 2,
            "transport": transport,
            "partition_mode": "mincut",
        }
        sharded = build_network(kind, Mesh2D(4, 4), **params)
        try:
            for channel in plan["channels"]:
                sharded.attach_channel(
                    channel["name"], channel["src"], channel["dst"],
                    channel["bandwidth"],
                    word_generator(BitFlipPattern.TYPICAL, seed=channel["seed"]),
                    load=channel["load"],
                )
            sharded.run(300)
            sharded.fail_link((1, 0), (2, 0))
            sharded.refresh_routing(sharded.degraded_topology())
            sharded.run(300)
            sharded.detach_channel("c0", drain_cycles=64)
            sharded.run(300)
            assert _snapshot(sharded) == reference
        finally:
            sharded.close()


@pytest.mark.parametrize("kind", KINDS)
def test_irregular_mesh_transport_identity_with_live_fault(kind):
    """Both transports stay bit-identical on an irregular fabric whose
    min-cut seam funnels all cross-region traffic through one link, with a
    mid-run fault and churn on top."""
    channels = [
        {"name": "c0", "src": (0, 0), "dst": (7, 7), "bandwidth": 50.0,
         "load": 0.6, "seed": 31},
        {"name": "c1", "src": (7, 0), "dst": (0, 6), "bandwidth": 50.0,
         "load": 0.3, "seed": 32},
    ]

    def execute(extra=None):
        params = {"frequency_hz": FREQUENCY_HZ, "schedule": "vector"}
        params.update(extra or {})
        network = build_network(kind, _mincut_fixture(), **params)
        for channel in channels:
            network.attach_channel(
                channel["name"], channel["src"], channel["dst"],
                channel["bandwidth"],
                word_generator(BitFlipPattern.TYPICAL, seed=channel["seed"]),
                load=channel["load"],
            )
        network.run(250)
        network.fail_link((1, 0), (2, 0))
        network.refresh_routing(network.degraded_topology())
        network.run(250)
        network.detach_channel("c1", drain_cycles=64)
        network.run(250)
        return network

    reference = _snapshot(execute())
    for transport in ("pipe", "shm"):
        sharded = execute(
            {"shards": 2, "transport": transport, "partition_mode": "mincut"}
        )
        try:
            assert _snapshot(sharded) == reference, (
                f"{kind} over {transport} diverged on the irregular mesh"
            )
        finally:
            sharded.close()


def test_shm_frames_are_smaller_than_pipe_frames():
    """The struct-packed codec must beat pickled tuples on the same traffic."""
    per_transport = {}
    for transport in ("pipe", "shm"):
        network = build_network(
            "circuit", Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ,
            schedule="vector", shards=2, transport=transport,
        )
        network.attach_channel(
            "a", (0, 0), (3, 1), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=5), load=1.0,
        )
        network.run(400)
        stats = network.stats
        per_transport[transport] = stats
        network.close()
    pipe, shm = per_transport["pipe"], per_transport["shm"]
    assert shm.frames_sent == pipe.frames_sent  # identical boundary deltas
    assert shm.exchange_windows == pipe.exchange_windows
    assert 0 < shm.frame_bytes < pipe.frame_bytes
    assert pipe.overlap_hits == 0 and shm.overlap_hits > 0


def test_explicit_shm_on_unsupported_geometry_is_rejected():
    from repro.common import ConfigurationError

    with pytest.raises(ConfigurationError):
        build_network(
            "gt", Mesh2D(4, 2), shards=2, transport="shm", data_width=80
        )
    # auto quietly falls back to the pipe transport instead.
    network = build_network("gt", Mesh2D(4, 2), shards=2, data_width=80)
    assert network.transport == "pipe"
    network.close()


# ---------------------------------------------------------------------------
# Shared word sources across shard cuts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_shared_word_source_across_cut_is_shard_identical(kind):
    """One stateful generator feeding channels whose sources live in
    *different* shards: the word-source registry must replay the remote
    channels' pull schedules so word contents — and with them the toggle
    statistics inside the activity snapshot — match the single process."""

    def run_once(shards=None, transport=None):
        params = {"frequency_hz": FREQUENCY_HZ, "schedule": "vector"}
        if shards is not None:
            params.update(shards=shards, transport=transport)
        network = build_network(kind, Mesh2D(4, 2), **params)
        shared = word_generator(BitFlipPattern.TYPICAL, seed=11)
        # Source tiles (0, 0) and (3, 0) land in different column shards.
        network.attach_channel("left", (0, 0), (2, 1), 100.0, shared, load=0.7)
        network.attach_channel("right", (3, 0), (1, 1), 100.0, shared, load=0.9)
        network.run(400)
        # A third sharer attached after the workers forked exercises the
        # attach-token path that keeps the replicas unified per worker.
        network.attach_channel("late", (0, 1), (3, 1), 50.0, shared, load=0.5)
        network.run(300)
        # Churn: the halted sharer's pulls must stop in the remote models
        # exactly when its driver leaves the kernel.
        network.detach_channel("right", drain_cycles=64)
        network.run(200)
        return network

    reference = _snapshot(run_once())
    for transport in ("pipe", "shm"):
        sharded = run_once(shards=2, transport=transport)
        try:
            assert _snapshot(sharded) == reference, (
                f"{kind}/{transport}: shared cross-cut source diverged"
            )
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Worker teardown and segment lifecycle
# ---------------------------------------------------------------------------


def test_worker_crash_mid_run_releases_shared_segment():
    """SIGKILL one worker, then run: the parent must notice the death,
    stop the fleet and unlink the shared segment — no orphans in /dev/shm,
    no zombie workers."""
    network = build_network(
        "circuit", Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ,
        schedule="vector", shards=2, transport="shm",
    )
    network.attach_channel(
        "a", (0, 0), (3, 1), 100.0,
        word_generator(BitFlipPattern.TYPICAL, seed=3), load=1.0,
    )
    network.run(50)
    workers = network._workers
    segment = f"/dev/shm/{network._shm.name}"
    assert os.path.exists(segment)
    os.kill(workers[1][0].pid, signal.SIGKILL)
    workers[1][0].join(timeout=10)
    with pytest.raises(Exception):
        network.run(10_000)
    assert network._workers is None  # torn down, not wedged
    assert not os.path.exists(segment)
    for process, _conn in workers:
        process.join(timeout=10)
        assert not process.is_alive()
    network.close()  # idempotent after the failure path


def test_close_unlinks_segment_on_clean_shutdown():
    network = build_network(
        "circuit", Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ,
        schedule="vector", shards=2, transport="shm",
    )
    network.run(20)
    segment = f"/dev/shm/{network._shm.name}"
    assert os.path.exists(segment)
    network.close()
    assert not os.path.exists(segment)


def test_spin_wait_yields_the_cpu_between_spinning_and_sleeping(monkeypatch):
    """The middle back-off tier hands the CPU to a runnable peer without a
    timer sleep; the fast tier, the escalation and the abort check stay."""
    from repro.common import SimulationError
    from repro.sim import shard_transport

    class Control:
        failed = False

        def aborted(self):
            return self.failed

    if hasattr(os, "sched_yield"):
        assert shard_transport._yield_cpu is os.sched_yield
    yields, sleeps = [], []
    monkeypatch.setattr(shard_transport, "_yield_cpu", lambda: yields.append(1))
    monkeypatch.setattr(shard_transport.time, "sleep", sleeps.append)
    control = Control()
    spin = shard_transport.SpinWait(control)
    for _ in range(64):
        spin.pause()
    assert spin.spun and not yields and not sleeps
    for _ in range(4096 - 64):
        spin.pause()
    assert len(yields) == 4096 - 64 and not sleeps
    spin.pause()
    assert sleeps == [50e-6]
    control.failed = True
    with pytest.raises(SimulationError, match="aborted"):
        spin.pause()


# ---------------------------------------------------------------------------
# Partitioner geometry
# ---------------------------------------------------------------------------


def test_partition_rows_are_contiguous_and_exhaustive():
    topology = Mesh2D(4, 4)
    regions = partition_topology(topology, 2, mode="rows")
    assert len(regions) == 2
    assert regions[0] == frozenset((x, y) for x in range(4) for y in range(2))
    assert regions[1] == frozenset((x, y) for x in range(4) for y in range(2, 4))


def test_partition_cols_split_width():
    regions = partition_topology(Mesh2D(4, 2), 2, mode="cols")
    assert regions[0] == frozenset((x, y) for x in range(2) for y in range(2))
    assert regions[1] == frozenset((x, y) for x in range(2, 4) for y in range(2))


def test_partition_grid_minimises_cut():
    # 4 shards on a square mesh: the 2x2 grid cut beats 4 rows.
    regions = partition_topology(Mesh2D(16, 16), 4, mode="auto")
    assert len(regions) == 4
    assert all(len(region) == 64 for region in regions)


def test_partition_is_deterministic():
    first = partition_topology(Mesh2D(8, 8), 4)
    second = partition_topology(Mesh2D(8, 8), 4)
    assert first == second


def test_partition_rejects_impossible_counts():
    with pytest.raises(ValueError):
        partition_topology(Mesh2D(2, 2), 0)
    with pytest.raises(ValueError):
        partition_topology(Mesh2D(2, 2), 5)


def _cut_size(topology, regions) -> int:
    assign = {
        position: index
        for index, region in enumerate(regions)
        for position in region
    }
    return sum(
        1
        for src, dst in topology.directed_links()
        if src < dst and assign[src] != assign[dst]
    )


def _mincut_fixture() -> IrregularMesh:
    """An 8×8 mesh whose dead links leave a near-separating seam.

    Rows of broken links at staggered heights make both the straight row
    cut (5 surviving cut links) and the column cut (7) poor; the actual
    minimum cut follows the seam and severs a single link."""
    broken = (
        tuple((((x, 3), (x, 4))) for x in (1, 2, 3))
        + tuple((((x, 2), (x, 3))) for x in (4, 5, 6, 7))
        + ((((3, 3), (4, 3))),)
    )
    return IrregularMesh(Mesh2D(8, 8), broken)


def test_mincut_beats_geometric_cuts_on_irregular_mesh():
    topology = _mincut_fixture()
    rows = _cut_size(topology, partition_topology(topology, 2, mode="rows"))
    cols = _cut_size(topology, partition_topology(topology, 2, mode="cols"))
    mincut = _cut_size(
        topology, partition_topology(topology, 2, strategy="mincut")
    )
    assert mincut < min(rows, cols)
    assert mincut == 1


def test_mincut_is_deterministic_and_balanced():
    topology = _mincut_fixture()
    first = partition_topology(topology, 2, strategy="mincut")
    second = partition_topology(topology, 2, mode="mincut")
    assert first == second
    total = len(list(topology.positions()))
    sizes = sorted(len(region) for region in first)
    assert sum(sizes) == total
    # Balance bound: no shard below 3/4 or above 5/4 of the even share.
    assert sizes[0] >= (3 * total) // (4 * 2)
    assert sizes[-1] <= -(-5 * total // (4 * 2))


def test_mincut_on_regular_meshes_matches_geometric_optimum():
    """On an intact mesh the geometric cuts are already optimal; mincut
    must never do worse (the seeds include them) and must stay exhaustive."""
    for shards in (2, 3, 4):
        topology = Mesh2D(8, 8)
        regions = partition_topology(topology, shards, strategy="mincut")
        assert len(regions) == shards
        covered = [position for region in regions for position in region]
        assert sorted(covered) == sorted(topology.positions())
        geometric = _cut_size(topology, partition_topology(topology, shards))
        assert _cut_size(topology, regions) <= geometric


# ---------------------------------------------------------------------------
# The window loop's kernel primitive
# ---------------------------------------------------------------------------


def test_activity_horizon_reports_idle_gap():
    """An idle fabric's horizon is the query limit; attaching traffic pins
    it back to the present (awake components)."""
    network = build_network("circuit", Mesh2D(2, 2), frequency_hz=FREQUENCY_HZ)
    network.run(10)
    assert network.kernel.activity_horizon(1000) == 1000
    generator = word_generator(BitFlipPattern.TYPICAL, seed=1)
    network.attach_channel("a", (0, 0), (1, 1), 100.0, generator, load=0.5)
    assert network.kernel.activity_horizon(1000) == network.kernel.cycle


def test_activity_horizon_is_clamped_and_monotonic():
    network = build_network(
        "gt", Mesh2D(2, 2), frequency_hz=FREQUENCY_HZ
    )
    generator = word_generator(BitFlipPattern.TYPICAL, seed=2)
    network.attach_channel("a", (0, 0), (1, 1), 50.0, generator, load=0.1)
    network.run(100)
    cycle = network.kernel.cycle
    horizon = network.kernel.activity_horizon(2**62)
    assert horizon >= cycle
    assert network.kernel.activity_horizon(cycle) == cycle
    # Querying must not advance or perturb the simulation.
    assert network.kernel.cycle == cycle
    assert network.kernel.activity_horizon(2**62) == horizon


# ---------------------------------------------------------------------------
# Packet-router credit-event prediction (satellite fix)
# ---------------------------------------------------------------------------


def test_backpressured_worm_parks_until_credits():
    """A hotspot fabric: sources whose tile VC buffer is full and whose
    head-of-line worm is credit-starved drop out of the datapath's visits
    instead of claiming an injection every cycle; a source left out while
    its injection queue is backlogged always has that buffer full."""
    network = build_network(
        "packet", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule="strict"
    )
    # Every surrounding tile floods the centre: the shared ejection port is
    # oversubscribed, so back-pressure reaches all the way into the source
    # tile buffers.
    sources = [p for p in network.topology.positions() if p != (1, 1)]
    for index, src in enumerate(sources):
        network.attach_channel(
            f"hot{index}",
            src,
            (1, 1),
            2000.0,
            word_generator(BitFlipPattern.TYPICAL, seed=index),
            load=1.0,
        )
    parked_with_backlog = []

    def probe(cycle):
        for src in sources:
            router = network.router_at(src)
            queue = router.tile._injection_queue
            if not queue:
                continue
            if router not in network.datapath._next:
                assert len(router._fifos[queue[0] & VC_MASK]) == router.fifo_depth
                parked_with_backlog.append(cycle)

    network.kernel.add_pre_cycle_hook(probe, every=5)
    network.run(600)
    assert parked_with_backlog, "no source ever parked while back-pressured"


def test_packet_hotspot_stays_trimodal_identical():
    """The parking refinement must not change what the fabric delivers."""

    def run_once(schedule):
        network = build_network(
            "packet", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, schedule=schedule
        )
        sources = [p for p in network.topology.positions() if p != (1, 1)]
        for index, src in enumerate(sources):
            network.attach_channel(
                f"hot{index}",
                src,
                (1, 1),
                2000.0,
                word_generator(BitFlipPattern.TYPICAL, seed=index),
                load=1.0,
            )
        network.run(600)
        return _snapshot(network)

    reference = run_once("strict")
    assert run_once("vector") == reference


# ---------------------------------------------------------------------------
# Packed flits at the boundary
# ---------------------------------------------------------------------------


class _ExplicitIdPacketNoC(PacketSwitchedNoC):
    """A packet fabric whose tiles queue packets with a chosen id (the
    sharded runner replays the call in every shard; the source's shard sends)."""

    def send_empty_packets(self, src, dst, packet_id, count):
        if self.is_local(src):
            for _ in range(count):
                self.router_at(src).tile.send_packet(Packet(src, dst, [], packet_id), vc=0)


@pytest.mark.parametrize("transport", ["pipe", "shm"])
def test_bit_identical_back_to_back_flits_cross_the_cut(monkeypatch, transport):
    """Three single-flit packets with one reused id on one VC are the same
    integer on consecutive cycles of the cut wire: the boundary tells them
    apart by the link's drive stamp, so every one arrives, as in one process."""
    monkeypatch.setitem(fabric._NETWORK_KINDS, "packet_explicit_ids", _ExplicitIdPacketNoC)
    topology, params = Mesh2D(4, 1), dict(frequency_hz=FREQUENCY_HZ, num_vcs=1)
    single = _ExplicitIdPacketNoC(topology, **params)
    sharded = build_network(
        "packet_explicit_ids", topology, shards=2, partition_mode="cols", transport=transport, **params
    )
    try:
        assert sharded.transport == transport
        cut = single.link((1, 0), (2, 0))
        seen = []
        single.kernel.add_post_cycle_hook(lambda cycle: seen.append(cut.forward))
        single.send_empty_packets((0, 0), (3, 0), 7, 3)
        sharded._call("send_empty_packets", (0, 0), (3, 0), 7, 3)
        single.run(40)
        sharded.run(40)
        flits = [flit for flit in seen if flit is not None]
        assert len(flits) == 3 and len(set(flits)) == 1
        assert seen.index(flits[0]) + 2 == len(seen) - 1 - seen[::-1].index(flits[0])  # back to back
        assert len(single.router_at((3, 0)).tile.received_packets) == 3
        assert _snapshot(sharded) == _snapshot(single)
    finally:
        sharded.close()
