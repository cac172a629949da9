"""Sharded parallel simulation: the fabric partitioned across worker processes.

The synchronous two-phase kernel gives every wire exactly one cycle of
latency: values are written only during ``commit`` and read only during the
next cycle's ``evaluate``.  That hop *is* a conservative lookahead of one
cycle — a shard that knows the committed state of its boundary wires at
cycle *c* can simulate cycle *c* without hearing anything else from its
neighbours.  This module exploits that:

* :func:`repro.noc.topology.partition_topology` cuts the topology into
  contiguous regions (row / column / grid cuts, deterministic).
* One region network per worker process
  (``resolve_network_kind(kind)(topology, region=region, **params)``).  A
  region network materialises every link with at least one local endpoint,
  so each cut link exists as a **boundary-proxy pair**: the shard of the
  driving router owns the forward wires, the shard of the reading router
  owns the reverse (ack / credit) wires, and each side's mirror copy of the
  other direction is kept coherent by exchanging *frames* — the per-cycle
  deltas of the committed wire state (changed lanes, flits, slot words,
  credit returns) plus the dirty-bit marks the reading datapath listens to.
* A parent-side window loop advances all shards in lockstep.  The
  synchronisation window is one cycle whenever any shard is active; when
  every shard reports an idle horizon (:meth:`SimulationKernel.
  activity_horizon`) the whole fleet leaps the idle gap in a single
  exchange — batched boundary windows, cost proportional to events.

Configuration is **replicated deterministically** instead of partitioned:
every worker holds the full topology, its own admission controller and the
complete stream registry, and replays the identical command sequence, so
allocation decisions (lane picks, slot alignments, packet VC assignment
from the registry size) come out bit-identical in every shard.  Only the
physical construction — routers, links, drivers, sinks — is region-local.

Workers are forked lazily at the first ``run()``: commands issued before
the start (channel attachments with closure word sources included) are
recorded in a log the forked children inherit by memory, so nothing has to
pickle; commands issued after the start cross the pipe and must be
picklable.

Two boundary transports carry the frames (``transport=`` of
:class:`ShardedNetwork` / ``build_network``):

* ``"pipe"`` — every window the parent collects each shard's frames over
  its command pipe and routes them to the destination shards: simple,
  width-unlimited, but two pickles and two hops per window with the
  parent on the critical path.
* ``"shm"`` — the fast path (:mod:`repro.sim.shard_transport`): workers
  exchange struct-packed frames directly through double-buffered
  shared-memory rings and synchronise through seqlock horizon votes; the
  parent is demoted to a control plane (start/stop, configuration
  commands, queries, faults).  A worker publishes its window-*t* deltas
  at commit and its peers typically find them already in the ring when
  they arrive (the ``overlap_hits`` scheduler counter), so the per-window
  exchange cost collapses to a few hundred bytes of shared memory.

``transport="auto"`` (the default) picks ``"shm"`` whenever the platform
and the network's wire geometry support it.  Both transports apply the
identical decoded frames through the identical code path, so the
bit-identity contract is transport-independent.

:class:`ShardedNetwork` mirrors the :class:`~repro.noc.fabric.NocBase`
reporting surface (stream statistics, merged activity, power, energy per
bit, fault drops) by aggregating across shards, and
:class:`ShardedSimulation` mirrors ``SimulationKernel.run / run_until`` —
``build_network(kind, topology, shards=N)`` is the only entry point most
callers need.  Bit-identity with the single-process network (activity
counters, delivered words, energy, drop totals) is asserted by
``tests/test_sharded.py`` and the CI shard-equivalence smoke.
"""

from __future__ import annotations

import dataclasses
import inspect
import multiprocessing
import pickle
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.baseline.link import PacketLink
from repro.common import ConfigurationError, SimulationError
from repro.core.lane import LaneLink
from repro.energy.activity import ActivityCounters
from repro.energy.power import PowerBreakdown
from repro.noc.fabric import NocBase, resolve_network_kind
from repro.noc.gt_network import TdmaLink
from repro.noc.topology import IrregularMesh, Position, Topology, partition_topology
from repro.sim.shard_transport import (
    BoundaryCodec,
    BoundaryRing,
    ControlBlock,
    SpinWait,
    build_plan,
    shm_unsupported_reason,
)
from repro.sim.stats import SchedulerStats

__all__ = ["ShardedNetwork", "ShardedSimulation"]

#: Horizon query limit — far beyond any simulated cycle count.
_FAR = 2**62

#: ``("call", method, ...)`` methods whose return value is shipped back to
#: the parent (everything else replies ``None`` — endpoint records hold live
#: components and must not cross the pipe).
_VALUE_METHODS = frozenset({"fail_link", "fail_router"})


# ---------------------------------------------------------------------------
# Boundary frame codecs
# ---------------------------------------------------------------------------
#
# A frame is ``(direction, link_key, payload)`` with direction ``"fwd"``
# (payload wires, collected in the driving router's shard) or ``"rev"``
# (ack / credit wires, collected in the reading router's shard).  Frames
# carry only *changes* relative to a per-link shadow of the last shipped
# state, so an idle boundary ships nothing.  Dead links are never framed:
# in-flight payload was already dropped-and-counted by ``fail()`` on the
# driving shard's mirror copy, and applying a stale frame would resurrect
# it on the receiving side.


def _collect_fwd(link: Any, shadow: List[Any]) -> Optional[Any]:
    """Delta of the forward wires since the last frame (``None`` = no change)."""
    if link.dead:
        return None
    if type(link) is LaneLink:
        forward = link.forward
        changed = [
            (lane, value)
            for lane, value in enumerate(forward)
            if value != shadow[lane]
        ]
        if not changed:
            return None
        for lane, value in changed:
            shadow[lane] = value
        return changed
    if type(link) is PacketLink:
        flit = link.forward
        if flit is None:
            if shadow[0] is None:
                return None
            shadow[0] = None
            return ("idle",)
        # The drive stamp, not the value: two flits on consecutive cycles
        # may be equal integers (a reused packet id), each one a new drive.
        if link.drives == shadow[1]:
            return None
        shadow[0], shadow[1] = flit, link.drives
        return ("flit", flit)
    # TdmaLink: drive() itself is equality-filtered, so value equality is
    # exactly the wire's change predicate.
    word = link.forward
    if word == shadow[0]:
        return None
    shadow[0] = word
    return ("word", word)


def _apply_fwd(link: Any, payload: Any) -> None:
    """Apply a forward frame to the receiving shard's mirror copy."""
    if link.dead:
        # The fault broadcast beat this frame: the single-process network
        # dropped (and counted) the in-flight payload in fail(), on the
        # wires the driving shard's mirror still held.  Discard silently.
        return
    if type(link) is LaneLink:
        forward = link.forward
        for lane, value in payload:
            forward[lane] = value
        link.forward_dirty.mark()
        return
    if type(link) is PacketLink:
        if payload[0] == "idle":
            link.forward = None
        else:
            link.forward = payload[1]
            link.flit_dirty.mark()
        return
    word = payload[1]
    link.forward = word
    if word is not None:
        # Mirrors TdmaLink.drive: only a word marks the receiver — it
        # cannot have been at rest while one sat on its rx wire.
        link.forward_dirty.mark()


def _collect_rev(link: Any, shadow: Optional[List[Any]]) -> Optional[Any]:
    """Delta of the reverse (ack / credit) wires since the last frame."""
    if link.dead:
        return None
    if type(link) is LaneLink:
        ack = link.ack
        changed = [
            (lane, value) for lane, value in enumerate(ack) if value != shadow[lane]
        ]
        if not changed:
            return None
        for lane, value in changed:
            shadow[lane] = value
        return changed
    # PacketLink: credit returns accumulate on the reading shard's mirror
    # copy (nobody consumes them locally — the sender is remote), so the
    # frame collects-and-zeroes; only new returns ship each window.
    credits = link.credits
    changed = [(vc, amount) for vc, amount in enumerate(credits) if amount]
    if not changed:
        return None
    for vc, _amount in changed:
        credits[vc] = 0
    return changed


def _apply_rev(link: Any, payload: Any) -> None:
    """Apply a reverse frame to the driving shard's mirror copy."""
    if type(link) is LaneLink:
        if link.dead:
            # fail() reset the acks on every mirror; the sender reads the
            # dead wire's idle state, exactly as in the single network.
            return
        ack = link.ack
        for lane, value in payload:
            ack[lane] = value
        link.ack_dirty.mark()
        return
    # PacketLink credits survive a link fault in the single network (fail()
    # never clears them and the sender may still collect), so they are
    # applied even to a dead mirror.
    for vc, amount in payload:
        link.credits[vc] += amount
    link.credit_dirty.mark()


def _has_reverse(link: Any) -> bool:
    return type(link) is not TdmaLink


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _ShardHarness:
    """One worker's region network plus its boundary bookkeeping."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.index: int = spec["index"]
        self.shard_of: Dict[Position, int] = spec["shard_of"]
        cls = resolve_network_kind(spec["kind"])
        self.network = cls(
            spec["topology"], region=spec["regions"][self.index], **spec["params"]
        )
        # Boundary tables: every mirror copy of a cut link, split by which
        # direction this shard *owns* (collects) — the other direction is
        # kept coherent by applying the neighbour's frames.
        self.out_fwd: List[Tuple[Any, Any, List[Any]]] = []
        self.out_rev: List[Tuple[Any, Any, Optional[List[Any]]]] = []
        for key in sorted(self.network.links):
            src, dst = key
            src_shard = self.shard_of[src]
            dst_shard = self.shard_of[dst]
            if src_shard == dst_shard:
                continue
            link = self.network.links[key]
            if src_shard == self.index:
                self.out_fwd.append((key, link, _fwd_shadow(link)))
            elif _has_reverse(link):
                self.out_rev.append((key, link, _rev_shadow(link)))
        # Transport counters, merged into the scheduler statistics.
        self.frames_sent = 0
        self.frame_bytes = 0
        self.exchange_windows = 0
        self.overlap_hits = 0
        #: Post-start ``word_source`` replicas by attach token, so channels
        #: sharing one source in the parent resolve the same replica here.
        self._source_cache: Dict[int, Any] = {}
        #: A state-changing command ran since the last horizon vote; the
        #: next shm run must re-derive its horizon conservatively.
        self._dirty = False
        self.transport: str = spec.get("transport", "pipe")
        if self.transport == "shm":
            self._init_shm(spec)
        for command in spec["log"]:
            self.handle(command)

    def _init_shm(self, spec: Dict[str, Any]) -> None:
        """Map the fork-inherited segment into codecs, rings and votes."""
        plan = spec["plan"]
        buf = spec["shm"].buf
        self.control = ControlBlock(buf, 0, plan["shards"])
        self.shards: int = plan["shards"]
        #: Frames this shard ships, grouped by destination shard.
        self.out_channels: Dict[int, Tuple[BoundaryCodec, BoundaryRing]] = {}
        self.in_channels: Dict[int, Tuple[BoundaryCodec, BoundaryRing]] = {}
        for (src_shard, dst_shard), pair in plan["pairs"].items():
            codec = BoundaryCodec(pair["entries"], plan["geometry"])
            ring = BoundaryRing(buf, pair["offset"], pair["capacity"])
            if src_shard == self.index:
                self.out_channels[dst_shard] = (codec, ring)
            elif dst_shard == self.index:
                self.in_channels[src_shard] = (codec, ring)
        self.out_by_dest: Dict[int, List[Tuple[str, Any, Any, Any]]] = {
            dest: [] for dest in self.out_channels
        }
        for key, link, shadow in self.out_fwd:
            self.out_by_dest[self.shard_of[key[1]]].append(("fwd", key, link, shadow))
        for key, link, shadow in self.out_rev:
            self.out_by_dest[self.shard_of[key[0]]].append(("rev", key, link, shadow))
        #: Published-but-unapplied inbound window per source shard.
        self.inbox: Dict[int, Optional[int]] = {src: None for src in self.in_channels}
        #: Global counters, identical on every shard (same command stream):
        #: votes published (windows + one per run command) and windows run.
        self.vote_seq = 0
        self.harvested_seq = 0
        self.window = 0

    # -- command dispatch ------------------------------------------------------

    def handle(self, message: Tuple[Any, ...]) -> Any:
        op = message[0]
        if op == "step":
            return self._step(message[1], message[2])
        if op == "run":
            return self._run_shm(message[1])
        if op == "call":
            _op, method, args, kwargs = message
            self._dirty = True
            result = getattr(self.network, method)(*args, **kwargs)
            return result if method in _VALUE_METHODS else None
        if op == "attach":
            _op, name, src, dst, bandwidth, word_source, token, kwargs = message
            self._dirty = True
            word_source = self._source_cache.setdefault(token, word_source)
            self.network.attach_channel(name, src, dst, bandwidth, word_source, **kwargs)
            return None
        if op == "refresh":
            self._dirty = True
            self.network.refresh_routing(self.network.degraded_topology())
            return None
        if op == "query":
            return self._query(message[1])
        raise ConfigurationError(f"unknown shard command {op!r}")

    def horizon(self) -> int:
        return self.network.kernel.activity_horizon(_FAR)

    def _apply_frames(self, frames: List[Tuple[str, Any, Any]]) -> None:
        links = self.network.links
        for direction, key, payload in frames:
            if direction == "fwd":
                _apply_fwd(links[key], payload)
            else:
                _apply_rev(links[key], payload)

    def _step(self, target: int, frames: List[Tuple[str, Any, Any]]) -> Any:
        self._apply_frames(frames)
        kernel = self.network.kernel
        if target > kernel.cycle:
            kernel.run(target - kernel.cycle)
        out: List[Tuple[str, Any, Any]] = []
        for key, link, shadow in self.out_fwd:
            payload = _collect_fwd(link, shadow)
            if payload is not None:
                out.append(("fwd", key, payload))
        for key, link, shadow in self.out_rev:
            payload = _collect_rev(link, shadow)
            if payload is not None:
                out.append(("rev", key, payload))
        # The worker pickles its own frames so the exchange cost is
        # measured where it is paid; the parent routes the blob onward.
        blob = None
        if out:
            blob = pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
            self.frames_sent += len(out)
            self.frame_bytes += len(blob)
        self.exchange_windows += 1
        return (self.horizon(), blob)

    # -- shared-memory window loop ---------------------------------------------

    def _publish_vote(self, horizon: int, dest_mask: int) -> None:
        self.vote_seq += 1
        self.control.publish_vote(
            self.index, self.vote_seq, horizon, self.network.kernel.cycle, dest_mask
        )

    def _harvest(self) -> Tuple[List[int], int]:
        """Read every shard's current vote; note which shards got frames.

        Returns the per-shard horizons and the union of destination masks
        — every shard computes the identical values from the identical
        votes, which is what keeps the window targets in lockstep without
        a coordinator.
        """
        horizons: List[int] = []
        pending_mask = 0
        for shard in range(self.shards):
            spin = SpinWait(self.control)
            horizon, _cycle, mask = self.control.read_vote(shard, self.vote_seq, spin)
            horizons.append(horizon)
            pending_mask |= mask
            if shard != self.index and (mask >> self.index) & 1:
                if self.inbox[shard] is not None:  # pragma: no cover - protocol guard
                    raise SimulationError(
                        f"shard {shard} published twice before shard {self.index}"
                        " consumed: window protocol out of sync"
                    )
                self.inbox[shard] = self.window - 1
        self.harvested_seq = self.vote_seq
        return horizons, pending_mask

    def _run_shm(self, cycles: int) -> int:
        """Advance ``cycles`` through the shared-memory window protocol.

        Replicates the pipe parent's conservative window formula locally:
        all shards read the same votes, so all compute the same target.
        Frames published at a window's commit are consumed by the peer at
        its next window start — the double-buffered rings make the publish
        overlap the peer's previous-window work.
        """
        kernel = self.network.kernel
        end = kernel.cycle + cycles
        # A vote may be left unread from the previous run's final window
        # (or from another run command): harvest its destination masks
        # before voting again.
        if self.vote_seq > self.harvested_seq:
            self._harvest()
        # Run-start re-vote: configuration commands since the last vote may
        # have scheduled new events, and unapplied inbound frames pin this
        # shard to the next cycle exactly like the parent's pending queue.
        pinned = self._dirty or any(w is not None for w in self.inbox.values())
        self._publish_vote(
            kernel.cycle if pinned else kernel.activity_horizon(_FAR), 0
        )
        self._dirty = False
        while kernel.cycle < end:
            horizons, pending_mask = self._harvest()
            cycle = kernel.cycle
            horizon = min(
                cycle if (pending_mask >> shard) & 1 else max(horizons[shard], cycle)
                for shard in range(self.shards)
            )
            target = end if horizon >= end else min(horizon + 1, end)
            for src_shard in sorted(self.inbox):
                window = self.inbox[src_shard]
                if window is None:
                    continue
                codec, ring = self.in_channels[src_shard]
                spin = SpinWait(self.control)
                self._apply_frames(codec.decode(ring.read(window, spin)))
                if not spin.spun:
                    self.overlap_hits += 1
                self.inbox[src_shard] = None
            if target > kernel.cycle:
                kernel.run(target - kernel.cycle)
            dest_mask = 0
            for dest in sorted(self.out_channels):
                out: List[Tuple[str, Any, Any]] = []
                for direction, key, link, shadow in self.out_by_dest[dest]:
                    collect = _collect_fwd if direction == "fwd" else _collect_rev
                    payload = collect(link, shadow)
                    if payload is not None:
                        out.append((direction, key, payload))
                if out:
                    codec, ring = self.out_channels[dest]
                    blob = codec.encode(out)
                    ring.publish(self.window, blob)
                    dest_mask |= 1 << dest
                    self.frames_sent += len(out)
                    self.frame_bytes += len(blob)
            self.exchange_windows += 1
            self.window += 1
            self._publish_vote(kernel.activity_horizon(_FAR), dest_mask)
        return kernel.cycle

    def _query(self, what: Any) -> Any:
        network = self.network
        if what == "stats":
            return network.stream_statistics()
        if what == "activity":
            return dict(network._router_activity())
        if what == "areas":
            return {
                position: router.total_area_mm2
                for position, router in network.routers.items()
            }
        if what == "fault_drops":
            return network.fault_drops()
        if what == "schedule":
            return network.schedule_report()
        if what == "sched":
            return dataclasses.replace(
                network.kernel.scheduler_stats,
                frames_sent=self.frames_sent,
                frame_bytes=self.frame_bytes,
                exchange_windows=self.exchange_windows,
                overlap_hits=self.overlap_hits,
            )
        if isinstance(what, tuple) and what[0] == "powers":
            return {
                position: router.power(what[1])
                for position, router in network.routers.items()
            }
        if isinstance(what, tuple) and what[0] == "streams_matching":
            name = what[1]
            return [
                n for n in network.streams if n == name or n.startswith(f"{name}#")
            ]
        raise ConfigurationError(f"unknown shard query {what!r}")


def _fwd_shadow(link: Any) -> List[Any]:
    if type(link) is LaneLink:
        return list(link.forward)
    if type(link) is PacketLink:
        return [link.forward, link.drives]
    return [link.forward]


def _rev_shadow(link: Any) -> Optional[List[Any]]:
    if type(link) is LaneLink:
        return list(link.ack)
    return None  # PacketLink credits collect-and-zero, no shadow needed


def _shard_worker_main(conn: Any, spec: Dict[str, Any]) -> None:
    """Worker process entry: build the region network, then serve commands."""
    try:
        try:
            harness = _ShardHarness(spec)
        except BaseException:  # noqa: BLE001 - ship the traceback to the parent
            conn.send(("err", traceback.format_exc()))
            return
        conn.send(("ok", harness.horizon()))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] == "stop":
                try:
                    conn.send(("ok", None))
                except (OSError, ValueError):  # pragma: no cover - parent gone
                    pass
                break
            try:
                result = harness.handle(message)
            except BaseException:  # noqa: BLE001
                conn.send(("err", traceback.format_exc()))
            else:
                conn.send(("ok", result))
        conn.close()
    finally:
        # Drop this worker's mapping of the shared segment on every exit
        # path; only the parent ever unlinks it.
        segment = spec.get("shm")
        if segment is not None:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class ShardedSimulation:
    """Kernel-look-alike front-end of a :class:`ShardedNetwork`.

    Mirrors the :class:`~repro.sim.engine.SimulationKernel` execution surface
    (``run`` / ``run_for_time`` / ``run_until`` / ``cycle`` /
    ``scheduler_stats``) while driving the conservative window loop across
    every worker underneath — network code written against ``self.kernel``
    runs unchanged on a sharded fabric.
    """

    def __init__(self, network: "ShardedNetwork") -> None:
        self._network = network

    @property
    def cycle(self) -> int:
        return self._network._cycle

    @property
    def frequency_hz(self) -> float:
        return self._network.frequency_hz

    @property
    def scheduler_stats(self) -> SchedulerStats:
        """Cross-shard merge of every worker kernel's scheduler counters."""
        return SchedulerStats.merged(self._network._query_all("sched"))

    def run(self, cycles: int) -> int:
        return self._network._run_windows(cycles)

    def run_for_time(self, seconds: float) -> int:
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return self.run(int(round(seconds * self.frequency_hz)))

    def run_until(
        self,
        predicate: Callable[[int], bool],
        max_cycles: int = 1_000_000,
        check_every: int = 1,
    ) -> int:
        """Stride-checked ``run_until`` with SimulationKernel semantics."""
        if check_every < 1:
            raise ValueError("check_every must be positive")
        start = self.cycle
        while not predicate(self.cycle):
            if self.cycle - start >= max_cycles:
                raise SimulationError(
                    f"run_until exceeded {max_cycles} cycles without satisfying"
                    " the predicate"
                )
            stride = min(check_every, start + max_cycles - self.cycle)
            self.run(stride)
        return self.cycle


class ShardedNetwork:
    """A network of any kind, partitioned over worker processes.

    Drop-in for the :class:`~repro.noc.fabric.NocBase` surface the
    experiments use (``attach_channel`` / ``run`` / ``fail_link`` /
    reporting), producing bit-identical activity counters, delivered word
    counts, energy figures and drop totals.  Build through
    ``build_network(kind, topology, shards=N, partition_mode=...)``.
    """

    def __init__(
        self,
        kind: str,
        topology: Topology,
        shards: int,
        partition_mode: str = "auto",
        transport: str = "auto",
        **params: Any,
    ) -> None:
        cls = resolve_network_kind(kind)
        self.kind = cls.kind
        self.activity_name = cls.activity_name
        self.fault_drop_unit = cls.fault_drop_unit
        self.performs_admission = cls.performs_admission
        self.topology = topology
        self.mesh = topology
        self.regions = partition_topology(topology, shards, mode=partition_mode)
        self.shards = len(self.regions)
        self.shard_of: Dict[Position, int] = {
            position: index
            for index, region in enumerate(self.regions)
            for position in region
        }
        defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(cls.__init__).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }
        self.frequency_hz = params.get("frequency_hz", defaults.get("frequency_hz", 25e6))
        self.data_width = params.get("data_width", defaults.get("data_width", 16))
        self._spec_base = {
            "kind": kind,
            "topology": topology,
            "params": dict(params),
            "regions": self.regions,
            "shard_of": self.shard_of,
        }
        if transport not in ("auto", "pipe", "shm"):
            raise ConfigurationError(
                f"unknown transport {transport!r} (auto, pipe or shm)"
            )
        reason = shm_unsupported_reason(self.kind, params, topology, self.shards)
        if transport == "shm" and reason is not None:
            raise ConfigurationError(f"shm transport unavailable: {reason}")
        if transport == "auto":
            transport = "pipe" if (reason is not None or self.shards < 2) else "shm"
        #: Resolved boundary transport, ``"pipe"`` or ``"shm"``.
        self.transport = transport
        self._shm: Any = None
        self._control: Optional[ControlBlock] = None
        #: Configuration commands recorded before the fork; the children
        #: inherit this by process memory, so closure word sources need no
        #: pickling.
        self._log: List[Tuple[Any, ...]] = []
        #: Attach tokens: one per distinct word-source object, so channels
        #: sharing a source keep sharing its replica inside every worker
        #: even when post-start commands pickle the source per command.
        self._source_tokens: Dict[int, int] = {}
        self._source_refs: List[Any] = []  # keeps id() keys alive and stable
        self._workers: Optional[List[Tuple[Any, Any]]] = None
        self._closed = False
        self._cycle = 0
        self._horizons: List[int] = [0] * self.shards
        self._pending: List[List[Tuple[str, Any, Any]]] = [
            [] for _ in range(self.shards)
        ]
        self.dead_links: set = set()
        self.dead_routers: set = set()
        self.kernel = ShardedSimulation(self)

    # -- worker plumbing -------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._closed:
            raise ConfigurationError("sharded network is closed")
        if self._workers is not None:
            return
        extra: Dict[str, Any] = {"transport": self.transport}
        if self.transport == "shm":
            from multiprocessing import shared_memory

            plan = build_plan(
                self.kind,
                self._spec_base["params"],
                self.topology,
                self.shard_of,
                self.shards,
            )
            # Created before the fork: the children inherit the mapped
            # object by memory, and only the parent ever unlinks it.
            self._shm = shared_memory.SharedMemory(create=True, size=plan["size"])
            self._control = ControlBlock(self._shm.buf, 0, self.shards)
            extra["plan"] = plan
            extra["shm"] = self._shm
        context = multiprocessing.get_context("fork")
        workers: List[Tuple[Any, Any]] = []
        for index in range(self.shards):
            parent_conn, child_conn = context.Pipe()
            spec = dict(self._spec_base, index=index, log=list(self._log), **extra)
            process = context.Process(
                target=_shard_worker_main, args=(child_conn, spec), daemon=True
            )
            process.start()
            child_conn.close()
            workers.append((process, parent_conn))
        self._workers = workers
        try:
            for index, (_process, conn) in enumerate(workers):
                self._horizons[index] = self._recv(conn)
        except BaseException:
            # A worker failed to build its region network: stop the rest
            # and unlink the segment before the error propagates.
            self.close()
            raise

    @staticmethod
    def _recv(conn: Any) -> Any:
        status, value = conn.recv()
        if status != "ok":
            raise SimulationError(f"shard worker failed:\n{value}")
        return value

    def _broadcast(self, message: Tuple[Any, ...]) -> List[Any]:
        """Send *message* to every worker (or log it pre-start) and collect replies.

        Every reply is gathered before any worker error is raised, so a
        deterministic configuration error (raised identically by every
        worker) leaves the pipes aligned and the network usable; a dead
        transport (EOF / broken pipe) tears the whole fleet down instead.
        """
        if self._workers is None:
            if self._closed:
                raise ConfigurationError("sharded network is closed")
            self._log.append(message)
            return [None] * self.shards
        try:
            for _process, conn in self._workers:
                conn.send(message)
            replies = [conn.recv() for _process, conn in self._workers]
        except (EOFError, OSError) as exc:
            self.close()
            raise SimulationError(f"shard worker connection lost: {exc!r}") from exc
        errors = [value for status, value in replies if status != "ok"]
        if errors:
            raise SimulationError(f"shard worker failed:\n{errors[0]}")
        return [value for _status, value in replies]

    def _call(self, method: str, *args: Any, **kwargs: Any) -> List[Any]:
        results = self._broadcast(("call", method, args, kwargs))
        self._invalidate_horizons()
        return results

    def _invalidate_horizons(self) -> None:
        """Forget cached idle horizons after a state-changing command.

        A post-start call (channel attach, fault, routing refresh) may
        schedule new events inside the workers; a stale far horizon would
        let the next window leap straight over them.  Pinning every horizon
        to the current cycle makes the next window one conservative cycle,
        after which the step replies restore the real horizons.
        """
        if self._workers is not None:
            for index in range(self.shards):
                self._horizons[index] = self._cycle

    def _query_all(self, what: Any) -> List[Any]:
        self._ensure_started()
        return self._broadcast(("query", what))

    def _query_one(self, what: Any) -> Any:
        self._ensure_started()
        assert self._workers is not None
        _process, conn = self._workers[0]
        conn.send(("query", what))
        return self._recv(conn)

    # -- execution -------------------------------------------------------------

    def _run_windows(self, cycles: int) -> int:
        """Advance the fleet by *cycles*, tearing everything down on failure.

        Any exception escaping a run — a worker traceback, a lost pipe, a
        crashed process — leaves the shards out of lockstep, so the only
        safe continuation is none: workers are stopped and the shared
        segment is unlinked before the error propagates.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._ensure_started()
        if cycles == 0:
            return self._cycle
        try:
            if self.transport == "shm":
                self._run_shm_windows(cycles)
            else:
                self._run_pipe_windows(cycles)
        except BaseException:
            self.close()
            raise
        return self._cycle

    def _run_shm_windows(self, cycles: int) -> None:
        """Control-plane side of a shm run: one command, workers sync themselves."""
        assert self._workers is not None
        for _process, conn in self._workers:
            conn.send(("run", cycles))
        self._gather_run()
        self._cycle += cycles

    def _gather_run(self) -> List[Any]:
        """Collect run replies round-robin, watching worker liveness.

        A worker that dies mid-run (crash, kill) leaves its peers spinning
        on its votes; polling all pipes instead of blocking on one lets
        the parent notice the death and abort the fleet promptly.
        """
        assert self._workers is not None
        remaining = dict(enumerate(self._workers))
        results: Dict[int, Any] = {}
        deadline = time.monotonic() + 900.0
        while remaining:
            for index in list(remaining):
                process, conn = remaining[index]
                try:
                    ready = conn.poll(0.05)
                    if ready:
                        status, value = conn.recv()
                    elif not process.is_alive():
                        raise SimulationError(
                            f"shard worker {index} died during a sharded run"
                        )
                    else:
                        continue
                except (EOFError, OSError) as exc:
                    raise SimulationError(
                        f"shard worker {index} connection lost: {exc!r}"
                    ) from exc
                if status != "ok":
                    raise SimulationError(f"shard worker failed:\n{value}")
                results[index] = value
                del remaining[index]
            if remaining and time.monotonic() > deadline:
                raise SimulationError("sharded run timed out")
        return [results[index] for index in sorted(results)]

    def _run_pipe_windows(self, cycles: int) -> None:
        """The conservative window loop: lockstep frames, batched idle gaps."""
        assert self._workers is not None
        end = self._cycle + cycles
        shard_of = self.shard_of
        while self._cycle < end:
            cycle = self._cycle
            # A shard with undelivered frames must evaluate the very next
            # cycle — its boundary inputs changed at this window edge.
            horizon = min(
                cycle if self._pending[index] else max(self._horizons[index], cycle)
                for index in range(self.shards)
            )
            if horizon >= end:
                # Every shard is idle past the run's end: one collective
                # leap, no frames possible (nothing executes, no wire can
                # change) — the batched idle window.
                target = end
            else:
                target = min(horizon + 1, end)
            for index, (_process, conn) in enumerate(self._workers):
                conn.send(("step", target, self._pending[index]))
                self._pending[index] = []
            for index, (_process, conn) in enumerate(self._workers):
                try:
                    reported, blob = self._recv(conn)
                except EOFError as exc:
                    raise SimulationError(
                        f"shard worker {index} died during a sharded run"
                    ) from exc
                self._horizons[index] = reported
                if blob is None:
                    continue
                for frame in pickle.loads(blob):
                    direction, key, _payload = frame
                    destination = shard_of[key[1] if direction == "fwd" else key[0]]
                    self._pending[destination].append(frame)
            self._cycle = target
        return

    def run(self, cycles: int) -> int:
        """Advance the whole sharded network by *cycles* clock cycles."""
        return self.kernel.run(cycles)

    def run_for_time(self, seconds: float) -> int:
        """Advance the whole sharded network by *seconds* of simulated time."""
        return self.kernel.run_for_time(seconds)

    # -- configuration and traffic ---------------------------------------------

    def attach_channel(
        self,
        name: str,
        src: Position,
        dst: Position,
        bandwidth_mbps: float,
        word_source: Callable[[], int],
        load: float = 1.0,
        allocation: Any = None,
    ) -> None:
        """Admit a channel on every shard (replicated deterministic config).

        Before the workers start this is recorded in the fork-inherited
        command log, so *word_source* may be any callable; afterwards the
        command crosses the worker pipes and *word_source* must be
        picklable (the generators of :mod:`repro.apps.traffic` are).

        Word sources may be freely *shared* between channels, including
        channels whose drivers land in different shards: every region
        network keeps a :class:`~repro.noc.word_proxy.WordSourceRegistry`
        that replays the remote channels' pull schedules against the local
        replica, so the global pull interleaving — and with it word
        contents, toggle statistics and switching energy — matches the
        single process exactly.  Sharing is keyed by object identity in
        this parent (an attach token keeps the identity stable across the
        per-command pickling of post-start attachments).
        """
        kwargs: Dict[str, Any] = {"load": load}
        if allocation is not None:
            kwargs["allocation"] = allocation
        token = self._source_tokens.get(id(word_source))
        if token is None:
            token = len(self._source_refs)
            self._source_tokens[id(word_source)] = token
            self._source_refs.append(word_source)
        self._broadcast(
            ("attach", name, src, dst, bandwidth_mbps, word_source, token, kwargs)
        )
        self._invalidate_horizons()

    def halt_stream(self, name: str) -> None:
        """Stop one stream's injection on whichever shard drives it."""
        self._call("halt_stream", name)

    def detach_stream(self, name: str) -> None:
        """Remove one stream's endpoints from every shard."""
        self._call("detach_stream", name)

    def detach_channel(self, name: str, drain_cycles: int = 0) -> None:
        """Tear a channel down, draining through the lockstep window loop.

        The workers must never run on their own (shards would free-run past
        the frame exchange), so the drain runs here — halt every matching
        stream, advance the *sharded* network, then detach without a drain
        on each worker.
        """
        self._ensure_started()
        names = self._query_one(("streams_matching", name))
        if not names:
            raise ConfigurationError(f"no stream named {name!r}")
        if drain_cycles:
            for stream_name in names:
                self._call("halt_stream", stream_name)
            self.run(drain_cycles)
        self._call("detach_channel", name, 0)

    def drain_streams(
        self,
        names: List[str],
        check_every: int = 64,
        max_cycles: int = 4096,
    ) -> None:
        """Cross-shard replica of :meth:`NocBase.drain_streams`.

        Same stride, same three-stage predicate — deadline, exact
        conservation (every kind's ``_stream_drained`` is
        ``received == sent``, observable here from the summed per-shard
        statistics), delivery-stability — so a sharded teardown settles on
        the same cycle as the single-process one.
        """
        if not names:
            return
        self._ensure_started()
        start = self._cycle
        previous: Optional[List[int]] = None

        def settled(cycle: int) -> bool:
            nonlocal previous
            if cycle - start >= max_cycles:
                return True
            stats = self.stream_statistics()
            if all(
                name in stats and stats[name]["received"] == stats[name]["sent"]
                for name in names
            ):
                return True
            current = [stats[name]["received"] for name in names]
            if current == previous:
                return True
            previous = current
            return False

        self.kernel.run_until(
            settled, max_cycles=max_cycles + check_every, check_every=check_every
        )

    # -- faults ----------------------------------------------------------------

    def fail_link(self, a: Position, b: Position) -> int:
        """Kill a link on every shard holding a mirror copy; return total drops."""
        if b not in self.topology.neighbors(a).values():
            raise ConfigurationError(f"no link between {a} and {b}")
        self._ensure_started()
        self._discard_dead_frames(a, b)
        dropped = sum(self._call("fail_link", a, b))
        self.dead_links.add((a, b) if a <= b else (b, a))
        return dropped

    def fail_router(self, position: Position) -> int:
        """Kill a router (and its incident links) on every shard; return drops."""
        if not self.topology.contains(position):
            raise ConfigurationError(f"no router at position {position}")
        self._ensure_started()
        for neighbor in self.topology.neighbors(position).values():
            self._discard_dead_frames(position, neighbor)
            self.dead_links.add(
                (position, neighbor) if position <= neighbor else (neighbor, position)
            )
        dropped = sum(self._call("fail_router", position))
        self.dead_routers.add(position)
        return dropped

    def _discard_dead_frames(self, a: Position, b: Position) -> None:
        """Drop pending *forward* frames of a link that is about to die.

        Their payload was on the wire at the fault boundary: the driving
        shard's ``fail()`` drops and counts it, and the single-process
        receiver never sees it.  Reverse frames (credit returns) survive a
        fault in the single network and stay queued.
        """
        dead_keys = {(a, b), (b, a)}
        for index in range((self.shards)):
            self._pending[index] = [
                frame
                for frame in self._pending[index]
                if not (frame[0] == "fwd" and frame[1] in dead_keys)
            ]

    def degraded_topology(self) -> Topology:
        """The construction topology minus every run-time-killed resource."""
        if not self.dead_links and not self.dead_routers:
            return self.topology
        base = self.topology
        broken_links = set(self.dead_links)
        broken_routers = set(self.dead_routers)
        if isinstance(base, IrregularMesh):
            broken_links |= set(base.broken_links)
            broken_routers |= set(base.broken_routers)
            base = base.base
        return IrregularMesh(
            base, tuple(sorted(broken_links)), tuple(sorted(broken_routers))
        )

    def refresh_routing(self, degraded: Optional[Topology] = None) -> None:
        """Rebuild routing state on every shard from its own degraded view.

        Each worker recomputes the identical degraded topology (fault
        broadcasts reach every shard), so the *degraded* argument of the
        single-network signature is accepted for compatibility but unused.
        """
        del degraded
        self._broadcast(("refresh",))
        self._invalidate_horizons()

    def fault_drops(self) -> int:
        """Wire-level units swallowed by dead links, summed across shards."""
        return sum(self._query_all("fault_drops"))

    # -- reporting -------------------------------------------------------------

    def stream_statistics(self) -> Dict[str, Dict[str, int]]:
        """Words sent / received per stream, summed across every shard."""
        merged: Dict[str, Dict[str, int]] = {}
        for stats in self._query_all("stats"):
            for name, entry in stats.items():
                into = merged.setdefault(name, {"sent": 0, "received": 0})
                into["sent"] += entry["sent"]
                into["received"] += entry["received"]
        return merged

    snapshot = NocBase.snapshot

    def _router_activity(self) -> Iterable[Tuple[Position, List[Any]]]:
        """Every shard's routers, for :meth:`snapshot`."""
        return (item for part in self._query_all("activity") for item in part.items())

    def _by_position(self, parts: List[Dict[Position, Any]]) -> List[Any]:
        """Per-router values from every shard, in global topology order.

        Floating-point aggregates must associate exactly as the
        single-process network's (which folds ``routers.values()`` in
        topology-position order) — a two-level per-shard reduction would
        drift in the last ULP.
        """
        merged: Dict[Position, Any] = {}
        for part in parts:
            merged.update(part)
        return [merged[position] for position in self.topology.positions()]

    def merged_activity(self) -> ActivityCounters:
        """Activity counters of every router in every shard, folded together."""
        parts = [
            ActivityCounters(name="", cycles=cycles, counts=dict(counts))
            for counts, cycles in self._by_position(self._query_all("activity"))
        ]
        return ActivityCounters.merged(parts, name=self.activity_name)

    def total_power(self, frequency_hz: Optional[float] = None) -> PowerBreakdown:
        """Aggregate router power across every shard."""
        frequency = frequency_hz if frequency_hz is not None else self.frequency_hz
        return PowerBreakdown.total_of(
            self._by_position(self._query_all(("powers", frequency)))
        )

    def total_area_mm2(self) -> float:
        """Total router area across every shard."""
        return sum(self._by_position(self._query_all("areas")))

    def energy_per_delivered_bit_pj(
        self, frequency_hz: Optional[float] = None
    ) -> float:
        """Average network energy per delivered payload bit, network-wide."""
        frequency = frequency_hz if frequency_hz is not None else self.frequency_hz
        delivered_bits = (
            sum(entry["received"] for entry in self.stream_statistics().values())
            * self.data_width
        )
        if delivered_bits == 0:
            return float("inf")
        duration_s = self._cycle / frequency
        power = self.total_power(frequency)
        return power.total_uw * duration_s * 1e6 / delivered_bits

    @property
    def stats(self) -> SchedulerStats:
        """Cross-shard merged scheduler statistics (alias of the kernel's)."""
        return self.kernel.scheduler_stats

    def schedule_report(self) -> Dict[str, Any]:
        """The shards' :meth:`~repro.noc.fabric.NocBase.schedule_report` as one.

        Every shard is built with the same parameters, so ``requested``
        agrees; each region gates its own plane on its own live routes, so
        ``effective`` reads ``"mixed"`` when the shards differ, the distinct
        reasons are joined and the cycle counts and live routes add up
        (``live_routes`` over the shards that have counted theirs).
        """
        reports = self._query_all("schedule")
        merged = dict(reports[0])
        effective = {report["effective"] for report in reports}
        merged["effective"] = effective.pop() if len(effective) == 1 else "mixed"
        reasons = sorted({report["reason"] for report in reports} - {None})
        merged["reason"] = "; ".join(reasons) or None
        for key in ("batched_cycles", "scalar_cycles"):
            merged[key] = sum(report[key] for report in reports)
        counted = [r["live_routes"] for r in reports if r["live_routes"] is not None]
        merged["live_routes"] = sum(counted) if counted else None
        return merged

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and release the shared segment (idempotent).

        Safe on every path — normal teardown, a worker traceback mid-run,
        a crashed worker process: the abort flag breaks any peer still
        spinning on shared-memory votes, stragglers are terminated after a
        bounded join, and the segment is unlinked exactly once.
        """
        workers, self._workers = self._workers, None
        self._closed = True
        if self._control is not None:
            # First thing: release workers spinning on a vote or a ring —
            # they exit their window loop before the stop command lands.
            try:
                self._control.abort()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
            self._control = None
        if workers:
            for process, conn in workers:
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            for process, conn in workers:
                try:
                    # Bounded: a worker wedged mid-run never replies, and
                    # the join/terminate below deals with it.
                    if conn.poll(5):
                        conn.recv()
                except (EOFError, OSError):
                    pass
                conn.close()
                process.join(timeout=5)
                if process.is_alive():  # pragma: no cover - defensive cleanup
                    process.terminate()
                    process.join(timeout=5)
        if self._shm is not None:
            segment, self._shm = self._shm, None
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ShardedNetwork":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedNetwork({self.kind!r}, shards={self.shards}, "
            f"cycle={self._cycle})"
        )
