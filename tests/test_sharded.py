"""Sharded-vs-single bit-identity, partitioner geometry, horizon and parking.

The sharded kernel (:mod:`repro.sim.shard`) promises that a fabric
partitioned over worker processes is *bit-identical* to the single-process
network: ``network.snapshot()`` (activity counters, delivered word counts,
energy figures, drop totals) comes out alike.  Seeded draws of
:func:`conftest.fabric_scenarios` — kind × mesh / torus / irregular ×
shard count × channels × load, with mid-run channel churn and live link
faults — are diffed by :func:`oracle.assert_identical` against the
unsharded run, over either transport.  A second family pins the
boundary-frame exchange itself: running the identical sharded scenario
twice must reproduce the same observables and the same cross-shard
scheduler statistics.

Also here: unit coverage for the deterministic partitioner
(:func:`repro.noc.topology.partition_topology`), the kernel's
``activity_horizon`` primitive the window loop is built on, and the packet
router's credit-event prediction (a back-pressured worm with a full tile
buffer parks instead of reporting an injection event every cycle).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import signal

import pytest

from conftest import KINDS, FabricScenario, drawn, fabric_scenarios
from oracle import assert_identical, assert_same, ran
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.baseline.flit import VC_MASK, Packet
from repro.noc import fabric
from repro.noc.fabric import build_network
from repro.noc.packet_network import PacketSwitchedNoC
from repro.noc.topology import IrregularMesh, Mesh2D, partition_topology

FREQUENCY_HZ = 100e6


def _sharded(shards=2, **params):
    """The single process, then *shards* workers over each transport."""
    return {"single": {}, **{
        transport: {"shards": shards, "transport": transport, **params} for transport in ("pipe", "shm")
    }}


# ---------------------------------------------------------------------------
# Shard-vs-single bit-identity
# ---------------------------------------------------------------------------


def _shardable(seed):
    """Seeded draw *seed* of :func:`conftest.fabric_scenarios` less the
    channels the single process refuses (a sharded fabric admits in its
    workers, once the first run() has started them), and a shard count
    its topology partitions into."""
    scenario = drawn(fabric_scenarios(max_cycles=400), seed)
    admitted = scenario._attach(build_network(scenario.kind, scenario.topology))
    scenario = dataclasses.replace(
        scenario, channels=[c for i, c in enumerate(scenario.channels) if f"ch{i}" in admitted]
    )
    counts = []
    for count in (2, 3, 4):
        try:
            partition_topology(scenario.topology, count)
        except ValueError:
            continue
        counts.append(count)
    return scenario, random.Random(seed).choice(counts)


@pytest.mark.parametrize("seed", range(8))
def test_random_scenarios_are_shard_identical(seed):
    """The sharded twin of a drawn scenario equals the single process: the
    fault broadcast and the replicated configuration are invisible."""
    scenario, shards = _shardable(seed)
    assert_identical(scenario, {"single": {}, "sharded": {"shards": shards}})


@pytest.mark.parametrize("kind", KINDS)
def test_live_fault_mid_run_is_shard_identical(kind):
    """The fault broadcast must drop exactly the in-flight boundary payload
    the single network drops — mirror-copy drops must not double-count."""

    dropped = []

    def scenario(**params):
        network = build_network(kind, Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, **params)
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
        dropped.append(network.fail_link((1, 0), (2, 0)))
        return ran(network, 250)

    assert_identical(scenario, {"single": {}, "sharded": {"shards": 2}})
    assert dropped[0] == dropped[1]


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_frame_exchange_is_deterministic(kind):
    """The identical sharded scenario twice: same observables, same merged
    scheduler statistics — frame ordering must depend on nothing but the
    scenario (worker replies are folded in shard-index order, frames in
    sorted link order)."""

    def scenario(**params):
        network = build_network(kind, Mesh2D(4, 4), frequency_hz=FREQUENCY_HZ, shards=4, **params)
        generator = word_generator(BitFlipPattern.TYPICAL, seed=7)
        network.attach_channel("a", (0, 0), (3, 3), 100.0, generator, load=0.6)
        network.attach_channel("b", (3, 0), (0, 3), 100.0, generator, load=0.3)
        network.run(250)
        network.detach_channel("a", drain_cycles=32)
        return ran(network, 150)

    def stats(network):
        return network.stats.evaluated, network.stats.leaps, network.stats.leaped_cycles

    assert_identical(scenario, {"first": {}, "second": {}}, extra_state=stats)


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
    # Each 2×2 region holds a few hops of the one circuit, which crosses the
    # boundary: in both regions the routers on it walk beside the piped rest
    # from the second cycle on, and the merged report says why.
    report = network.schedule_report()
    assert report["requested"] == "vector" and "no adopted driver" in report["reason"]
    assert "3 of 4 routers walk" in report["reason"] and "2 of 4 routers walk" in report["reason"]
    assert report["batched_cycles"] == 398 and report["scalar_cycles"] == 2
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
    """Single-process, pipe-sharded and shm-sharded builds of one drawn
    scenario agree: the binary frame codec and the seqlock window protocol
    are invisible."""
    scenario, shards = _shardable(8 + seed)
    networks = assert_identical(scenario, _sharded(shards))
    assert [networks[transport].transport for transport in ("pipe", "shm")] == ["pipe", "shm"]


@pytest.mark.parametrize("kind", KINDS)
def test_mincut_transport_identity_with_live_fault(kind):
    """Min-cut partitions and the shm transport compose with live boundary
    faults and routing refreshes without losing bit-identity."""
    channels = [((0, 0), (3, 3), 100.0, 0.8), ((3, 0), (0, 3), 50.0, 0.4)]
    scenario = FabricScenario(Mesh2D(4, 4), channels, 964, (300, (1, 0), (2, 0), True), None,
                              kind=kind, churn=(600, 64))
    assert_identical(scenario, _sharded(partition_mode="mincut"))


@pytest.mark.parametrize("kind", KINDS)
def test_irregular_mesh_transport_identity_with_live_fault(kind):
    """Both transports stay bit-identical on an irregular fabric whose
    min-cut seam funnels all cross-region traffic through one link, with a
    mid-run fault and churn on top."""
    channels = [((7, 0), (0, 6), 50.0, 0.3), ((0, 0), (7, 7), 50.0, 0.6)]  # the first is torn down
    scenario = FabricScenario(_mincut_fixture(), channels, 814, (250, (1, 0), (2, 0), True), None,
                              kind=kind, churn=(500, 64))
    assert_identical(scenario, _sharded(partition_mode="mincut"))


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
    statistics inside the snapshot — match the single process."""

    def scenario(**params):
        network = build_network(kind, Mesh2D(4, 2), frequency_hz=FREQUENCY_HZ, **params)
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
        return ran(network, 200)

    assert_identical(scenario, _sharded())


@pytest.mark.parametrize("seed", range(4))
def test_pull_models_equal_a_per_cycle_driver(seed):
    """The remote pull models advance in closed form between emissions; a
    driver simulated one cycle at a time - pacer call, bounded push, then the
    slot-table pops of that cycle - pulls at the same cycles, halt included,
    also while the injection queue is full."""
    from pacing import CyclePacer
    from repro.noc.word_proxy import GtPullModel, PacedPullModel

    rng = random.Random(seed)
    for _ in range(200):
        load, cpw, slots = rng.choice([0.0, 0.3, 0.7, 1.0, rng.random()]), rng.randint(1, 5), rng.choice([2, 4, 8])
        pops, limit, start = rng.sample(range(slots), rng.randint(0, slots)), rng.randint(1, 3), rng.randint(0, 20)
        bounded = rng.random() < 0.7
        model = (GtPullModel(load, cpw, slots, pops, limit, start) if bounded
                 else PacedPullModel(load, cpw, start))
        pacer, backlog, halt, pulled, replayed = CyclePacer(load, cpw), 0, None, 0, [0]
        cycle = start
        for _ in range(40):
            target, inclusive = cycle + rng.randint(0, 6), rng.random() < 0.5
            if rng.random() < 0.05:
                halt = target + rng.randint(0, 4) if halt is None else halt
                model.halt(halt)
            stop = min(target + inclusive, halt if halt is not None else target + inclusive)
            while cycle < stop:
                if pacer.should_emit() and (not bounded or backlog < limit):
                    pulled, backlog = pulled + 1, backlog + 1
                backlog -= min(backlog, sum(cycle % slots == pop for pop in pops))
                cycle += 1
            model.burn(lambda: replayed.__setitem__(0, replayed[0] + 1), target, inclusive)
            assert replayed[0] == pulled


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

    for _ in range(120):
        probe(network.kernel.cycle)
        network.run(5)
    assert parked_with_backlog, "no source ever parked while back-pressured"


def test_packet_hotspot_stays_trimodal_identical():
    """The parking refinement must not change what the fabric delivers."""

    def scenario(**params):
        network = build_network("packet", Mesh2D(3, 3), frequency_hz=FREQUENCY_HZ, **params)
        sources = [p for p in network.topology.positions() if p != (1, 1)]
        for index, src in enumerate(sources):
            network.attach_channel(
                f"hot{index}", src, (1, 1), 2000.0,
                word_generator(BitFlipPattern.TYPICAL, seed=index), load=1.0,
            )
        return ran(network, 600)

    assert_identical(scenario)


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
        single.send_empty_packets((0, 0), (3, 0), 7, 3)
        sharded._call("send_empty_packets", (0, 0), (3, 0), 7, 3)
        for _ in range(40):
            single.run(1)
            seen.append(cut.forward)
        sharded.run(40)
        flits = [flit for flit in seen if flit is not None]
        assert len(flits) == 3 and len(set(flits)) == 1
        assert seen.index(flits[0]) + 2 == len(seen) - 1 - seen[::-1].index(flits[0])  # back to back
        assert len(single.router_at((3, 0)).tile.received_packets) == 3
        assert_same({"single": single, "sharded": sharded})
    finally:
        sharded.close()
