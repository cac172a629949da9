"""The GT pipe: a TDMA fabric's slot trains as delay lines (``schedule="vector"``).

A slot train has no arbitration, no flow control and no reverse path
(Æthereal's guaranteed throughput: Goossens, Dielissen & Rădulescu,
"Æthereal network on chip", IEEE D&T 2005), so it is a fixed-latency delay
line: a word popped from its tile queue in an owned slot sits in the output
register ``k`` hops on ``k`` cycles later and reaches the destination tile
when the last hop latches it.  :func:`plan` lays one :class:`Line` per
connection and route over a :class:`~repro.noc.gt_network.TdmaDatapath`'s
compiled feeds, and :class:`GtLines` runs them: a word is booked once, when
its slot pops it — worked out when the queue's driver next fires or at
``sync`` (:class:`Source`), since nothing else moves a queue — and the
toggles every register on a line saw, the words delivered and the registers
and wires the compiled cycle would hold are booked and written back at every
``sync`` and before the datapath hands the fabric back to its compiled
cycle.  A register sees an isolated word as ``2·popcount(w)`` toggles; where
two lines own adjacent slots of one register a pair of words makes
``popcount(a ⊕ b)`` between them instead.  A cycle then only fires the
drivers due, and the kernel leaps to the next one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapreplace
from typing import Any, Dict, List, Optional, Tuple

from repro.energy.activity import LINK_TOGGLE_BITS, REG_TOGGLE_BITS, WORDS_DELIVERED, WORDS_INJECTED
from repro.sim.datapath import BOOK_EVERY

__all__ = ["GtLines", "plan"]

#: What a register's new word does besides latching (``action`` of a
#: datapath register record): set a live wire a member reads, deliver at the
#: tile, ``drive`` a wire read outside the set or a dead one (which counts it
#: dropped), or nothing.
TO_MEMBER, TO_TILE, TO_WIRE, TO_NOTHING = range(4)


class Line:
    """The slot trains of one connection that share a route.

    Its registers — *observers* ``(k, register)``, the output register ``k``
    hops from the tile that injects — hold, ``k`` cycles late, the one word
    sequence the line keeps: the word its tile queue gave up at a pop cycle
    (:attr:`times`, :attr:`words`), idle between.  A word is booked once,
    when it is popped; :attr:`cum` sums the toggles the sequence makes up to
    each word, each word booked as isolated (``2·popcount(w)``) until one
    follows it in the next cycle, whose pair books ``popcount(a ⊕ b)`` in
    their place.  A *delivery* ``(k, register, connection)`` hands the word
    to the tile behind that register ``k`` hops on.  Pops cycle through the
    slots the trains own (:attr:`slots`).
    """

    __slots__ = ("slots", "observers", "deliveries", "depth", "times", "words", "cum")

    def __init__(self, observers: tuple, deliveries: tuple) -> None:
        self.slots: set = set()
        self.observers, self.deliveries = observers, deliveries
        self.depth = observers[-1][0]
        self.times: List[int] = []
        self.words: List[int] = []
        self.cum = [0]

    def add(self, t: int, word: int) -> None:
        """Book *word*, popped at cycle *t*."""
        times, cum = self.times, self.cum
        if times and times[-1] == t - 1:
            previous = self.words[-1]
            pair = cum[-1] - previous.bit_count()
            cum[-1] = pair
            cum.append(pair + (previous ^ word).bit_count() + word.bit_count())
        else:
            cum.append(cum[-1] + 2 * word.bit_count())
        times.append(t)
        self.words.append(word)

    def toggles(self, t: int) -> int:
        """The toggle bits the sequence makes up to and including cycle *t*."""
        times = self.times
        j = bisect_right(times, t)
        bits = self.cum[j]
        if j and times[j - 1] == t and (j == len(times) or times[j] != t + 1):
            bits -= self.words[j - 1].bit_count()  # its fall to idle comes later
        return bits

    def word_at(self, t: int) -> Optional[int]:
        """The word popped at cycle *t*, if any."""
        j = bisect_left(self.times, t)
        return self.words[j] if j < len(self.times) and self.times[j] == t else None

    def trim(self, cycle: int) -> None:
        """Forget the words no register holds from *cycle* on."""
        cut = bisect_left(self.times, cycle - 1 - self.depth)
        if cut:
            del self.times[:cut], self.words[:cut], self.cum[:cut]


class Source:
    """A tile queue the lines pop: the pops of the cycles before :attr:`done`
    are booked.  :attr:`schedule` holds, per owned slot in pop order, the
    slot and the line it feeds."""

    __slots__ = ("tile", "connection", "counts", "slots", "schedule", "done")

    def __init__(self, tile: Any, connection: str, counts: list, slots: int, done: int) -> None:
        self.tile, self.connection, self.counts, self.slots, self.done = tile, connection, counts, slots, done
        self.schedule: List[Tuple[int, Line]] = []

    def catch_up(self, cycle: int) -> None:
        """Book the pops of the owned slots before *cycle*, while the queue lasts."""
        start = self.done
        if cycle <= start:
            return
        self.done = cycle
        tile = self.tile
        queue = tile._tx.get(self.connection)
        if not queue:
            return
        queued, schedule, slots = len(queue), self.schedule, self.slots
        base = start - start % slots
        index, end = bisect_left(schedule, (start - base,)), len(schedule)
        while queue:
            if index == end:
                index, base = 0, base + slots
            slot, line = schedule[index]
            if base + slot >= cycle:
                break
            line.add(base + slot, queue.popleft())
            index += 1
        popped = queued - len(queue)
        if popped:
            tile._queued -= popped
            self.counts[WORDS_INJECTED] += popped


class GtLines:
    """The lines laid over one datapath and what they book and write back:
    the tile queues they pop (:attr:`sources`, keyed by tile and
    connection) and each adopted driver's (:attr:`fed`),
    ``(register, first, k1, second, k2, residue)`` per pair of lines in
    adjacent slots of one register, the tiles they deliver to ``(tile,
    connection, counts, ((line, k), ...))``, the registers holding a word at
    the last write-back (:attr:`written`, an insertion-ordered set) and the
    cycle up to which they are booked."""

    def __init__(self, datapath: Any, lines: List[Line], sources: Dict[tuple, Source], pairs: list,
                 sinks: list, cycle: int) -> None:
        self.drivers, self.slots, self.registers = datapath.drivers, datapath.slots, datapath._registers
        self.lines, self.sources, self.pairs, self.sinks = lines, sources, pairs, sinks
        self.fed: Dict[Any, Source] = {}
        for driver in datapath.drivers._adopted:
            self.join(driver)
        self.written: Dict[int, None] = dict.fromkeys(datapath._held)
        self.booked = cycle

    def join(self, driver: Any) -> None:
        """*driver* feeds a queue: pop it before the driver fires, if a line pops it."""
        source = self.sources.get((id(driver._tile), driver.connection))
        if source is not None:
            self.fed[driver] = source

    def commit(self, cycle: int) -> None:
        """A cycle under the lines: each driver due fires, the pops its queue
        owes before this cycle booked first (the drivers' own
        :meth:`~repro.sim.datapath.DriverSchedule.fire`, with that step)."""
        drivers = self.drivers
        if drivers.next_due != cycle:
            return
        heap, fed = drivers._heap, self.fed
        entry = heap[0]
        while entry[0] == cycle:
            _, number, driver, emit_from = entry
            source = fed.get(driver)
            if source is not None:
                source.catch_up(cycle)
            driver.emit(cycle)
            heapreplace(heap, (emit_from(cycle + 1), number, driver, emit_from))
            entry = heap[0]
        drivers.next_due = entry[0]
        if cycle - self.booked > BOOK_EVERY:
            self.book(cycle)

    def book(self, cycle: int) -> List[Line]:
        """Book the pops before *cycle* and the toggles every register saw and
        the words delivered since the last booking, forget the words no
        register holds from *cycle* on, and return the lines holding any."""
        for source in self.sources.values():
            source.catch_up(cycle)
        start, last, registers = self.booked, cycle - 1, self.registers
        busy = [line for line in self.lines if line.times]
        if cycle > start:
            bits: Dict[int, int] = {}
            for line in busy:
                toggles = line.toggles
                for k, register in line.observers:
                    toggled = toggles(last - k) - toggles(start - 1 - k)
                    if toggled:
                        bits[register] = bits.get(register, 0) + toggled
            for register, first, k1, second, k2, residue in self.pairs:
                # A word of *first* in *residue*, one of *second* in the next
                # slot: one transition between them, not two through idle.
                times, words, slots = first.times, first.words, self.slots
                for i in range(bisect_left(times, start - 1 - k1), bisect_right(times, last - 1 - k1)):
                    if (times[i] + k1) % slots == residue:
                        after = second.word_at(times[i] + k1 + 1 - k2)
                        if after is not None:
                            word = words[i]
                            bits[register] = bits.get(register, 0) + (
                                (word ^ after).bit_count() - word.bit_count() - after.bit_count())
            for register, toggled in bits.items():
                if toggled:
                    port, counts = registers[register][0], registers[register][3]
                    counts[REG_TOGGLE_BITS] += toggled
                    if port:  # an outgoing wire toggles with its register
                        counts[LINK_TOGGLE_BITS] += toggled
            for tile, connection, counts, fed in self.sinks:
                arrivals = []
                for line, k in fed:
                    times = line.times
                    i, j = bisect_left(times, start - k), bisect_right(times, last - k)
                    arrivals += zip([t + k for t in times[i:j]], line.words[i:j])
                if arrivals:
                    arrivals.sort()
                    tile.received.setdefault(connection, []).extend([word for _, word in arrivals])
                    counts[WORDS_DELIVERED] += len(arrivals)
            self.booked = cycle
        for line in busy:
            line.trim(cycle)
        return busy

    def materialise(self, cycle: int) -> None:
        """Book up to *cycle* and write back the registers and wires after the
        latch of ``cycle - 1``."""
        registers, last = self.registers, cycle - 1
        held: Dict[int, Optional[int]] = {}
        for line in self.book(cycle):
            for k, register in line.observers:
                word = line.word_at(last - k)
                if word is not None:
                    held[register] = word
        for register in self.written:
            held.setdefault(register, None)
        for register, word in held.items():
            port, out_reg, out_prev, _, _, action, target = registers[register]
            out_reg[port], out_prev[port] = word, word or 0
            if action == TO_MEMBER and not target.dead:
                target.forward = word
        self.written = {register: None for register, word in held.items() if word is not None}


def plan(datapath: Any, cycle: int) -> Tuple[Optional[GtLines], Optional[str], bool]:
    """One line per connection and route of *datapath* (a
    :class:`~repro.noc.gt_network.TdmaDatapath`), from its compiled feeds and
    the registers after the latch of ``cycle - 1`` — or ``None`` and why the
    compiled cycle runs: a wire to the outside, a slot train across a dead
    wire, or (looked at again after the next cycle, the third answer) a
    registered word no line holds."""
    for wire in datapath._outside_rx:
        return None, f"router {datapath._reader[wire][0].name!r} reads {wire.name!r} from outside the datapath", False
    for wire in datapath._outside_tx:
        return None, f"router {datapath._writer[wire][0].name!r} drives {wire.name!r} out of the datapath", False
    for unit in datapath._units:
        return None, f"the link stream {unit.name!r} steps at the clock edge", False
    slots, registers, feeds = datapath.slots, datapath._registers, datapath._feeds

    def router(register: int) -> str:
        return datapath.routers[register // len(registers[register][1])].name  # one out_reg entry per port

    # Per slot, the registers each register feeds then; the tile feeds.
    first = {id(out_reg): register - port for register, (port, out_reg, *_) in enumerate(registers)}
    children: List[Dict[int, List[int]]] = [{} for _ in range(slots)]
    roots = []
    for slot, (from_registers, from_tiles, _, _) in enumerate(datapath._groups):
        below = children[slot]
        for register, out_reg, port, _ in from_registers:
            below.setdefault(first[id(out_reg)] + port, []).append(register)
        roots += [(slot, feed) for feed in from_tiles]
    lines: Dict[tuple, Line] = {}
    sources: Dict[tuple, Source] = {}
    # The registers that latched last cycle: each one's line and hop.
    last, latched, hops = (cycle - 1) % slots, {}, 0
    for slot, (root, tile, counts, connection) in roots:
        observers, deliveries, level, k = [], [], [root], 0
        while level:
            at, below = (slot + k) % slots, []
            for register in level:
                _, _, _, _, _, action, target = registers[register]
                if action == TO_WIRE:
                    return None, f"a slot train at router {router(register)!r} crosses the dead wire {target.name!r}", False
                observers.append((k, register))
                if action == TO_TILE:
                    deliveries.append((k, register, feeds[at][register][1][3]))
                below += children[(at + 1) % slots].get(register, ())
            level, k = below, k + 1
        key = (id(tile), connection, tuple(observers), tuple(deliveries))
        line = lines.get(key) or lines.setdefault(key, Line(key[2], key[3]))
        line.slots.add(slot)
        for k, register in observers:
            if (slot + k) % slots == last:
                latched[register] = (line, k)
        hops += len(observers)
        source = sources.get(key[:2]) or sources.setdefault(key[:2], Source(tile, connection, counts, slots, cycle))
        source.schedule.append((slot, line))
    # The words in flight, read off those registers.
    in_flight: Dict[Tuple[Line, int], Optional[int]] = {}
    for register in datapath._held:
        if register not in latched:
            return None, f"a word registered at router {router(register)!r} is on no line", True
    for register, (line, k) in latched.items():
        port, out_reg = registers[register][:2]
        if in_flight.setdefault((line, cycle - 1 - k), out_reg[port]) != out_reg[port]:
            return None, f"a word registered at router {router(register)!r} is on no line", True
    for (line, t), word in sorted(in_flight.items(), key=lambda item: item[0][1]):
        if word is not None:
            line.add(t, word)
    observed: Dict[int, list] = {}
    sinks: Dict[tuple, list] = {}
    for line in lines.values():
        for k, register in line.observers:
            observed.setdefault(register, []).append((line, k))
        for k, register, connection in line.deliveries:
            sinks.setdefault((register, connection), []).append((line, k))
    pairs = []
    for register, seen in observed.items():
        if len(seen) > 1:
            residues = [(line, k, {(s + k) % slots for s in line.slots}) for line, k in seen]
            pairs += [
                (register, first, k1, second, k2, residue)
                for first, k1, ahead in residues for second, k2, behind in residues if first is not second or k1 != k2
                for residue in ahead if (residue + 1) % slots in behind
            ]
    sinks = [(registers[register][6], connection, registers[register][3], tuple(fed))
             for (register, connection), fed in sinks.items()]
    datapath.live_routes = hops
    return GtLines(datapath, list(lines.values()), sources, pairs, sinks, cycle), None, False
