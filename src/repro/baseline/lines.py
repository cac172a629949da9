"""The packet pipe: uncontended packet streams as delay lines (``schedule="vector"``).

A stream whose route shares no output port with any other stream, and whose
source tile feeds no other, never contends: every output VC on its ports is
free when its head flit arrives, so the round-robin allocator hands out
``(vc_last + 1) mod num_vcs``, and with at least two flits of buffer per VC
each credit is home (two cycles after its flit left) before it is needed.
Its packets then move at pipeline latency — flit *j* of a packet queued in
cycle *c* crosses hop *i* in cycle ``c + j + i``, later only while an earlier
packet still holds the tile queue — and no flit waits in a FIFO between two
cycles.  :func:`plan` splits the streams of a
:class:`~repro.baseline.router.PacketDatapath` into groups — the streams
that share an output port (a destination's ejection port included) or a
source tile, and each refused route alone — and lays one line per stream
alone in its group (its :class:`Line` built at the stream's first packet);
the other groups' streams walk beside the lines, through ports no line
uses.  :class:`PacketLines` runs them: a cycle only fires the drivers due
(or, beside the walk, the walk's ``commit`` does), a queued packet is noted
with its cycle (:meth:`Line.inject`), and at every ``sync`` (and every
:data:`~repro.sim.datapath.BOOK_EVERY` cycles of a long run) each line books
its flits once per hop from prefix sums over its flit sequence and writes
back what the walk would hold after the latch of the last cycle.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.baseline.flit import (
    COORD_BITS, DEST_SHIFT, HEAD_BIT, PAYLOAD_MASK, PAYLOAD_SHIFT, STORAGE_BITS, TAIL_BIT, VC_MASK,
)
from repro.common import ConfigurationError, Port
from repro.energy.activity import (
    ARBITER_DECISIONS, ARBITER_GRANT_CHANGES, BUFFER_READ_BITS, BUFFER_WRITE_BITS, FLITS_ROUTED, LINK_TOGGLE_BITS,
    PACKETS_ROUTED, REG_TOGGLE_BITS, VC_ALLOCATIONS, WORDS_DELIVERED,
)
from repro.sim.datapath import BOOK_EVERY

__all__ = ["Line", "PacketLines", "plan"]

_DEST_MASK = (1 << 2 * COORD_BITS) - 1


def _key(dest: Tuple[int, int]) -> int:
    """*dest* as a flit carries it (``flit >> DEST_SHIFT & _DEST_MASK``)."""
    return dest[1] << COORD_BITS | dest[0]


class Hop:
    """One router a line crosses: the flit enters at ``in_port`` and leaves
    at ``out_port`` (the tile port at the last hop) onto ``link`` (``None``
    at the last hop), whose arrival record is ``arrival``.  ``prev`` /
    ``grant`` are the port's last payload and switch grant, ``vc_last`` its
    last VC grant when the line was laid, and ``done`` the flits (numbered
    from the lay) that have crossed it."""

    __slots__ = ("router", "in_port", "out_port", "counts", "link", "arrival", "prev", "grant", "vc_last", "done")

    def __init__(self, router: Any, in_port: int, out_port: int) -> None:
        self.router, self.in_port, self.out_port = router, in_port, out_port
        self.counts = router.activity.slots
        send = router._state[9][out_port]
        self.link, self.arrival = (send[1], send[2]) if out_port else (None, None)
        self.prev = router._prev_payload[out_port]
        self.grant = router._grant_last[out_port]
        self.vc_last = router._vc_last[out_port]
        self.done = 0


class Line:
    """One stream's route from its source tile to its destination tile.

    The flits its tile queue gave up are :attr:`flits`, flit ``base + n``
    injected in cycle ``times[n]``; per flit the prefix sums ``heads``,
    ``tails``, ``toggles`` (payload bits that differ from the flit before)
    and ``changes`` (a head on another tile VC than the flit before) hold
    their totals over the flits before it, so a hop books any run of flits
    in constant time.  :attr:`pending` holds ``[queue cycle, flits]`` per
    packet still in the tile queue.  The output VC a hop grants packet *K*
    (numbered from the lay) is ``(vc_last + 1 + K) mod num_vcs``.
    """

    __slots__ = ("hops", "queue", "dest", "num_vcs", "idle", "pending", "queued", "injected",
                 "base", "times", "flits", "heads", "tails", "toggles", "changes", "payload", "vc")

    def __init__(self, path: List[Tuple[Any, int, int]], dest: Tuple[int, int]) -> None:
        self.hops = [Hop(*hop) for hop in path]
        source = path[0][0]
        self.queue = source.tile._injection_queue
        self.dest = _key(dest)
        self.num_vcs = source.num_vcs
        #: A port's VC routes (and out-VCs) and wire credits with no worm on it.
        self.idle = [None] * self.num_vcs, [0] * self.num_vcs
        self.pending: Deque[list] = deque()
        self.queued = 0
        #: The cycle the last flit was injected in.
        self.injected = -2
        self.base = 0
        self.times: List[int] = []
        self.flits: List[int] = []
        self.heads, self.tails, self.toggles, self.changes = [0], [0], [0], [0]
        #: The payload and tile VC of the last flit injected (``None``: none yet).
        self.payload: Optional[int] = None
        self.vc = 0

    def inject(self, cycle: int) -> bool:
        """The packet just queued at the source tile, injected from *cycle* on;
        False if it heads elsewhere."""
        queue = self.queue
        if queue[-1] >> DEST_SHIFT & _DEST_MASK != self.dest:
            return False
        self.pending.append([cycle, len(queue) - self.queued])
        self.queued = len(queue)
        return True

    def _pop(self, cycle: int) -> None:
        """Take the flits injected before *cycle* off the tile queue."""
        pending = self.pending
        if not pending:
            return
        queue, times, flits = self.queue, self.times, self.flits
        heads, tails, toggles, changes = self.heads, self.tails, self.toggles, self.changes
        h, t, g, c = heads[-1], tails[-1], toggles[-1], changes[-1]
        s, payload, vc = self.injected, self.payload, self.vc
        popped = 0
        while pending:
            entry = pending[0]
            due = s + 1 if s >= entry[0] else entry[0]
            if due >= cycle:
                break
            s = due
            flit = queue.popleft()
            popped += 1
            entry[1] -= 1
            if not entry[1]:
                pending.popleft()
            word = flit >> PAYLOAD_SHIFT & PAYLOAD_MASK
            if flit & HEAD_BIT:
                h += 1
                c += flit & VC_MASK != vc
            if flit & TAIL_BIT:
                t += 1
            if payload is not None:
                g += (payload ^ word).bit_count()
            payload, vc = word, flit & VC_MASK
            times.append(s)
            flits.append(flit)
            heads.append(h)
            tails.append(t)
            toggles.append(g)
            changes.append(c)
        self.injected, self.payload, self.vc = s, payload, vc
        self.queued -= popped

    def book(self, cycle: int) -> None:
        """Book every crossing before *cycle* not booked yet, hop by hop, and
        deliver what reached the destination tile."""
        self._pop(cycle)
        times, flits, base, last, nv = self.times, self.flits, self.base, cycle - 1, self.num_vcs
        hops, heads, tails, toggles = self.hops, self.heads, self.tails, self.toggles
        for i, hop in enumerate(hops):
            a, b = hop.done - base, bisect_right(times, last - i)
            if b <= a:
                continue
            counts, n = hop.counts, b - a
            counts[BUFFER_WRITE_BITS] += STORAGE_BITS * n
            counts[BUFFER_READ_BITS] += STORAGE_BITS * n
            counts[FLITS_ROUTED] += n
            counts[ARBITER_DECISIONS] += n
            packets = heads[b] - heads[a]
            if packets:
                counts[VC_ALLOCATIONS] += packets
            if tails[b] != tails[a]:
                counts[PACKETS_ROUTED] += tails[b] - tails[a]
            bits = (hop.prev ^ flits[a] >> PAYLOAD_SHIFT & PAYLOAD_MASK).bit_count() + toggles[b] - toggles[a + 1]
            if bits:
                counts[REG_TOGGLE_BITS] += bits
                if hop.link is not None:  # an outgoing wire toggles with its register
                    counts[LINK_TOGGLE_BITS] += bits
            # A switch grant changes at a head whose input VC differs from the
            # flit before: the tile VC at the source, further on the output VC
            # upstream, (vc_last + K + 1) mod nv for packet K, new per packet.
            if i:
                changes = heads[b] - heads[a + 1] if nv > 1 else 0
                upstream = hops[i - 1].vc_last
                first = hop.in_port * nv + (upstream + heads[a + 1]) % nv
                grant = hop.in_port * nv + (upstream + heads[b]) % nv
            else:
                changes = self.changes[b] - self.changes[a + 1]
                first, grant = flits[a] & VC_MASK, flits[b - 1] & VC_MASK
            if hop.grant >= 0 and first != hop.grant:
                changes += 1
            if changes:
                counts[ARBITER_GRANT_CHANGES] += changes
            hop.grant = grant
            hop.prev = flits[b - 1] >> PAYLOAD_SHIFT & PAYLOAD_MASK
            hop.done = base + b
            if hop.link is None:
                deliver = hop.router.tile._deliver
                for flit in flits[a:b]:
                    deliver(flit)
                # A head flit creates the counter and adds nothing to it.
                counts[WORDS_DELIVERED] += n - packets
        # Forget the flits every hop is done with, but the two a write-back reads.
        cut = self.hops[-1].done - 2 - base
        if cut > 0:
            del times[:cut], flits[:cut], heads[:cut], tails[:cut], toggles[:cut], self.changes[:cut]
            self.base = base + cut

    def materialise(self, cycle: int, moved: Dict[Any, None], arrivals: list, returns: list) -> None:
        """Write back every router and wire on the line as the walk holds them
        after the latch of ``cycle - 1`` (booked up to *cycle*), adding to the
        walk's visit set and wire records."""
        times, flits, heads, base, last, nv = self.times, self.flits, self.heads, self.base, cycle - 1, self.num_vcs
        nones, zeros = self.idle
        hops = self.hops
        for i, hop in enumerate(hops):
            router, out_port, d, vc_last = hop.router, hop.out_port, hop.done - base, hop.vc_last
            # Packet K (from the lay) gets output VC (vc_last + K + 1) mod nv.
            crossed = heads[d]
            router._vc_last[out_port] = (vc_last + crossed) % nv if crossed else vc_last
            router._grant_last[out_port] = hop.grant
            router._prev_payload[out_port] = hop.prev
            first = hop.in_port * nv
            router._route[first:first + nv] = nones
            router._out_vc[first:first + nv] = nones
            free = (1 << nv) - 1
            if d and not flits[d - 1] & TAIL_BIT:  # a worm holds its VCs until its tail has crossed
                vc = (vc_last + crossed) % nv
                index = first + (hops[i - 1].vc_last + crossed) % nv if i else flits[d - 1] & VC_MASK
                router._route[index], router._out_vc[index] = out_port, vc
                free ^= 1 << vc
            router._free[out_port] = free
            now = d and times[d - 1] + i == last
            if now:
                moved[router] = None
            link = hop.link
            if link is None:
                continue
            # A credit is out from the cycle its flit leaves until two cycles on.
            credits, first = router._credits, out_port * nv
            credits[first:first + nv] = [router.fifo_depth] * nv
            for n in (d - 1, d - 2):
                if n >= 0 and times[n] + i >= last - 1:
                    credits[first + (vc_last + heads[n + 1]) % nv] -= 1
            if link.dead:  # a fault took the flit and gave its credit back
                continue
            link.forward = flits[d - 1] & ~VC_MASK | (vc_last + crossed) % nv if now else None
            if now:
                arrivals.append(hop.arrival)
            # The credit the next router returned for the flit it sent on this cycle.
            wire, n = link.credits, hops[i + 1].done - base - 1
            wire[:] = zeros
            if n >= 0 and times[n] + i + 1 == last:
                vc = (vc_last + heads[n + 1]) % nv
                wire[vc] = 1
                returns.append((wire, credits, first + vc, vc, router))
        if self.pending:
            moved[self.hops[0].router] = None


class PacketLines:
    """The lines laid over one datapath: a cycle fires the drivers due, and
    the lines book and write back at :meth:`materialise`.  A stream's
    :class:`Line` is built at its first packet (:attr:`paths` holds the
    routes by source router until then): nothing moves its routers before.
    :attr:`walked` maps each hop ``(router, in port, destination)`` of a
    stream that walks beside the lines to its output port (empty while
    every stream is a line)."""

    def __init__(self, datapath: Any, paths: Dict[Any, tuple], walked: Dict[tuple, int], cycle: int) -> None:
        self.datapath, self.drivers, self.paths, self.walked = datapath, datapath.drivers, paths, walked
        self.lines: List[Line] = []
        self.by_router: Dict[Any, Line] = {}
        #: The cycle booked up to, and the one written back at (``None``: a
        #: packet was queued since).
        self.booked, self.written = cycle, None
        #: The walk's visit set and wire records of the lines as of the last
        #: write-back: the walk's own from :meth:`hand_back` on, never before.
        self.records: Tuple[Dict[Any, None], list, list] = ({}, [], [])

    def commit(self, cycle: int) -> None:
        """A cycle under the lines: the drivers due fire (a packet one completes
        is noted by :meth:`inject`)."""
        drivers = self.drivers
        if drivers.next_due == cycle:
            if cycle - self.booked > BOOK_EVERY:
                self.book(cycle)
            drivers.fire(cycle)

    def inject(self, router: Any) -> None:
        """*router*'s tile queued a packet: its line injects it from this
        cycle on, and the walk takes a walked stream's; any other hands the
        routers back to the walk.  A stream driver's packet always has its
        line or its walk, so only a hand-written ``send_packet`` releases."""
        line = self.by_router.get(router)
        if line is None and router in self.paths:
            line = self.by_router[router] = Line(*self.paths[router])
            self.lines.append(line)
        datapath = self.datapath
        if line is not None:
            if line.inject(datapath._cycle()):
                self.written = None
                return
        elif (router, 0, router.tile._injection_queue[-1] >> DEST_SHIFT & _DEST_MASK) in self.walked:
            datapath._next[router] = None
            return
        datapath._relay()
        datapath._next[router] = None

    def book(self, cycle: int) -> None:
        """Book every line up to *cycle*."""
        for line in self.lines:
            line.book(cycle)
        self.booked = cycle

    def materialise(self, cycle: int) -> None:
        """Book up to *cycle* and write back what the walk holds after the
        latch of ``cycle - 1``: routers, wires and the lines' :attr:`records`
        (once per cycle and packet queued)."""
        if cycle == self.written:
            return
        self.book(cycle)
        self.written = cycle
        self.records = moved, arrivals, returns = {}, [], []
        for line in self.lines:
            line.materialise(cycle, moved, arrivals, returns)

    def hand_back(self) -> None:
        """The walk takes the lines' tile queues and :attr:`records` over (at a
        release, after the last write-back)."""
        datapath = self.datapath
        if self.walked:  # the walk injects from the lines' tiles again
            for router in self.paths:
                datapath._inject_from(router, router.tile._injection_queue)
        moved, arrivals, returns = self.records
        datapath._next.update(moved)
        datapath._arrivals += arrivals
        datapath._returns += returns


def _path(datapath: Any, router: Any, dest: Tuple[int, int]):
    """The hops ``(router, in port, out port)`` from *router*'s tile towards
    *dest*'s and why the walk must run them (``None``: a line may); a
    refused route's hops end where its flits stop."""
    path: List[Tuple[Any, int, int]] = []
    in_port, shallow = 0, None
    while len(path) <= len(datapath.routers):
        try:
            out_port = int(router.route(router.position, dest))
        except ConfigurationError as error:
            return path, f"router {router.name!r} has no route to {dest}: {error}"
        path.append((router, in_port, out_port))
        if router.fifo_depth < 2:
            shallow = shallow or f"router {router.name!r} buffers fewer than two flits per virtual channel"
        if not out_port:
            return path, shallow
        link = router._tx_by_port[out_port]
        if link is None:
            return path, f"router {router.name!r} routes towards {dest} onto no wire"
        if link.dead:
            return path, f"a route at router {router.name!r} crosses the dead wire {link.name!r}"
        router, in_port = datapath._reader[link]
    return path, f"the route towards {dest} loops"


def _shape(datapath: Any):
    """The paths of the streams that run as lines, the hops of those that
    walk and why they do — or ``None``, ``None`` and why every router walks;
    an answer for a set of streams is kept with their paths.

    Streams that share a source tile or an output port join one group; a
    group of one stream whose route is not refused is a line, every other
    group walks."""
    for record in datapath._outside_rx:
        return None, None, f"router {record[1].name!r} reads {record[0].name!r} from outside the datapath"
    for link, router, _credits, _base in datapath._outside_tx:
        return None, None, f"router {router.name!r} drives {link.name!r} out of the datapath"
    for unit in datapath._units:
        return None, None, f"the link stream {unit.name!r} steps at the clock edge"
    cache = datapath._paths
    drivers = list(datapath.drivers._adopted)
    streams = tuple([(driver.router, driver.dest) for driver in drivers])
    shape = cache.get(streams)
    if shape is not None:
        return shape
    group = list(range(len(drivers)))  # a union-find forest over the streams

    def root(i: int) -> int:
        while group[i] != i:
            i = group[i]
        return i

    owners: Dict[tuple, int] = {}
    routes, walk, reason = [], set(), None
    for i, driver in enumerate(drivers):
        found = cache.get(streams[i])
        if found is None:
            found = cache[streams[i]] = _path(datapath, *streams[i])
        path, refusal = found
        routes.append(path)
        if refusal is not None:
            walk.add(i)
            reason = reason or refusal
        claims = [(driver.router, "tile")] + [(router, out_port) for router, _in_port, out_port in path]
        for claim in claims:
            other = owners.setdefault(claim, i)
            if other != i and root(other) != root(i):
                group[root(i)] = root(other)
                router, port = claim
                reason = reason or (
                    f"streams {drivers[other].name!r} and {driver.name!r} share the source tile of {router.name!r}"
                    if port == "tile" else f"streams {drivers[other].name!r} and {driver.name!r} share output "
                    f"port {Port(port).short_name} of router {router.name!r}")
    roots = [root(i) for i in range(len(drivers))]
    walk = {roots[i] for i in walk} | {r for r in roots if roots.count(r) > 1}
    lines, walked = [], {}
    for i, path in enumerate(routes):
        dest = drivers[i].dest
        if roots[i] not in walk:
            lines.append((path, dest))
            continue
        for router, in_port, out_port in path:
            walked[router, in_port, _key(dest)] = out_port
    shape = cache[streams] = lines, walked, reason
    return shape


def _in_flight(datapath: Any, walked: Dict[tuple, int], lines: list) -> Optional[str]:
    """Why a line cannot be laid yet: a flit in flight off the walked hops (a
    line's own, or one of no stream) or a credit on a line's wire; ``None``
    if none is.  A flit on a walked hop stays on its stream's route, but for
    one a reroute left routed into a line's port: its VC there is taken,
    which :func:`_held` sees."""
    for router in datapath.routers:
        queue = router.tile._injection_queue
        if queue and any((router, 0, flit >> DEST_SHIFT & _DEST_MASK) not in walked for flit in queue):
            return f"the tile of router {router.name!r} queues a flit off the walked routes"
        if router._occupied:
            nv = router.num_vcs
            for index, fifo in enumerate(router._fifos):
                if any((router, index // nv, flit >> DEST_SHIFT & _DEST_MASK) not in walked for flit in fifo):
                    return f"a FIFO of router {router.name!r} holds a flit off the walked routes"
    for link, reader, _fifos, _counts, base, _depth in datapath._arrivals:
        flit = link.forward
        if flit is not None and (reader, base // reader.num_vcs, flit >> DEST_SHIFT & _DEST_MASK) not in walked:
            return "flits are in flight"
    for path, _dest in lines:
        for router, _in_port, out_port in path:
            if out_port and any(router._tx_by_port[out_port].credits):
                return "flits are in flight"
    return None


def _held(path: List[Tuple[Any, int, int]]) -> Optional[str]:
    """Why *path* cannot be a line: a virtual channel on it held or a credit
    of it out while no flit of it is in flight (a worm a fault cut)."""
    for router, in_port, out_port in path:
        nv = router.num_vcs
        routes = router._route[in_port * nv:in_port * nv + nv].count(None)
        credits = router._credits[out_port * nv:out_port * nv + nv].count(router.fifo_depth)
        if router._free[out_port] != (1 << nv) - 1 or routes < nv or credits < nv:
            return f"a virtual channel of router {router.name!r} is held"
    return None


def plan(datapath: Any, cycle: int) -> Tuple[Optional[PacketLines], Optional[str], bool]:
    """One line per stream alone in its group of *datapath* (a
    :class:`~repro.baseline.router.PacketDatapath`) from the state after the
    latch of ``cycle - 1``, and why the other streams' routers walk beside
    them (``None`` if none do) — or ``None``, why every router walks and
    whether to look again after the next cycle (while flits are in flight).

    Beside a walk the lines' own hops, wires and tile queues must be idle;
    with no walk beside them every router and wire must be."""
    lines, walked, reason = _shape(datapath)
    if not lines and reason is not None:
        return None, reason, False
    if walked:
        waiting = _in_flight(datapath, walked, lines)
        if waiting is not None:
            return None, waiting, True
    else:
        if datapath._next or datapath._arrivals or datapath._returns:
            return None, "flits are in flight", True
        for router in datapath.routers:
            if router._occupied:
                return None, f"a FIFO of router {router.name!r} holds a flit", True
    laid = []
    for path, dest in lines:
        held = _held(path)
        if held is None:
            laid.append((path, dest))
            continue
        reason = reason or held  # the stream walks alone
        walked = dict(walked)
        for router, in_port, out_port in path:
            walked[router, in_port, _key(dest)] = out_port
    if reason is not None:
        if not laid:
            return None, reason, False
        walkers = {hop[0] for hop in walked}
        reason = f"{len(walkers)} of {len(datapath.routers)} routers walk: {reason}"
    datapath.live_routes = sum(len(path) for path, _dest in laid)
    return PacketLines(datapath, {path[0][0]: (path, dest) for path, dest in laid}, walked, cycle), reason, False
