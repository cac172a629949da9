"""Cross-shard word-source proxy: exact global pull order for shared sources.

A word source shared between channels is pulled in a global interleaving
determined by the drivers' adoption order: at each cycle, every firing
driver pulls in the order the drivers were added.  A single process gets
this for free.  A sharded run (:mod:`repro.sim.shard`) replicates the
source per shard, but each shard only hosts the drivers whose source tile
is local — the *other* channels' pulls are missing from its replica's
sequence, so word contents (and with them toggle statistics and switching
energy) would diverge from the single process even though counts match.

This module restores the global interleaving without shipping a single
word across shards.  Each region network keeps a :class:`WordSourceRegistry`:
every ``add_stream`` call registers its channel as one *user* of its word
source, in replicated registration order (identical in every shard).  Local
users pull through a wrapper; remote users are represented by an exact
**pull model** of their driver — the same integer-credit
:class:`~repro.sim.datapath.LoadPacer` arithmetic, plus for the TDMA kind
the driver's bounded injection queue and the slot-table drain schedule
derived from the replicated allocation.  Before a local pull at cycle *t*
by the user registered *k*-th, the registry burns every remote user's
pulls up to ``(t, k)`` in registration order; the models advance in closed
form (pacer leaps and per-revolution slot counting), so a mostly-idle
source costs O(pulls), not O(cycles).

The models never touch the simulation kernel: they are pure functions of
the replicated configuration (load, pacing interval, slot table, queue
bound), which is exactly why every shard can replay the identical global
pull sequence independently.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.datapath import LoadPacer

__all__ = ["PacedPullModel", "GtPullModel", "WordSourceRegistry"]


class PacedPullModel:
    """Pull times of a remote circuit/packet tile driver.

    Both :class:`~repro.core.testbench.CircuitTileDriver` and
    :class:`~repro.baseline.testbench.PacketTileDriver` pull one word from
    their source on every pacer emission, unconditionally — the pull
    schedule *is* the pacer schedule, one :meth:`LoadPacer.emit_from` per
    pull from the cycle the stream was attached.
    """

    def __init__(self, load: float, cycles_per_word: int, start_cycle: int) -> None:
        self._pacer = LoadPacer(load, cycles_per_word)
        #: The cycle of the next pull (``None``: never).
        self._due = self._pacer.emit_from(start_cycle)
        self._halt: Optional[int] = None

    def halt(self, cycle: int) -> None:
        """The remote driver left the kernel before *cycle* ran."""
        self._halt = cycle if self._halt is None else min(self._halt, cycle)

    def _stop(self, cycle: int, include_current: bool) -> int:
        stop = cycle + 1 if include_current else cycle
        return stop if self._halt is None else min(stop, self._halt)

    def burn(self, replica: Callable[[], int], cycle: int, include_current: bool) -> None:
        """Replay this user's pulls up to *cycle* (inclusive iff *include_current*)."""
        stop, due = self._stop(cycle, include_current), self._due
        while due is not None and due < stop:
            replica()
            due = self._pacer.emit_from(due + 1)
        self._due = due


class GtPullModel(PacedPullModel):
    """Pull times of a remote :class:`~repro.noc.gt_network.GtTileDriver`.

    The TDMA driver pulls *conditionally*: a pacer emission only pulls a
    word while the connection's injection backlog is below the queue bound
    (a full queue drops the offer without touching the source).  The
    backlog drains through the source router's slot table — one word per
    programmed injection slot per revolution, after that cycle's emission —
    so the model tracks it exactly: pacer fires push (bounded), slot hits
    pop, counted in closed form between emissions.
    """

    def __init__(
        self,
        load: float,
        cycles_per_word: int,
        slots: int,
        pop_slots: List[int],
        queue_limit: int,
        start_cycle: int,
    ) -> None:
        super().__init__(load, cycles_per_word, start_cycle)
        self._slots = slots
        self._pop_residues = sorted(slot % slots for slot in pop_slots)
        self._queue_limit = queue_limit
        self._backlog = 0
        #: The first cycle whose pops the backlog does not reflect yet.
        self._popped_to = start_cycle

    def _pops_in(self, start: int, stop: int) -> int:
        """Slot-table pop opportunities in the cycle window [start, stop)."""
        revolutions, remainder = divmod(stop - start, self._slots)
        count = revolutions * len(self._pop_residues)
        for residue in self._pop_residues:
            if (residue - start) % self._slots < remainder:
                count += 1
        return count

    def burn(self, replica: Callable[[], int], cycle: int, include_current: bool) -> None:
        """Replay this user's pulls up to *cycle* (inclusive iff *include_current*)."""
        stop, due = self._stop(cycle, include_current), self._due
        while due is not None and due < stop:
            self._backlog -= min(self._backlog, self._pops_in(self._popped_to, due))
            self._popped_to = due
            if self._backlog < self._queue_limit:
                replica()
                self._backlog += 1
            due = self._pacer.emit_from(due + 1)
        self._due = due


class _SharedSource:
    """One word source and its registered users, in global attachment order."""

    __slots__ = ("replica", "remote")

    def __init__(self, replica: Callable[[], int]) -> None:
        self.replica = replica
        #: ``(registration_index, model)`` of every *remote* user, sorted.
        self.remote: List[Tuple[int, Any]] = []


class _LocalPull:
    """The wrapper a local driver pulls through: burn remote users, then pull."""

    __slots__ = ("_entry", "_reg", "_kernel")

    def __init__(self, entry: _SharedSource, reg: int, kernel: Any) -> None:
        self._entry = entry
        self._reg = reg
        self._kernel = kernel

    def __call__(self) -> int:
        entry = self._entry
        remote = entry.remote
        if remote:
            cycle = self._kernel.cycle
            reg = self._reg
            for other_reg, model in remote:
                model.burn(entry.replica, cycle, include_current=other_reg < reg)
        return entry.replica()


class WordSourceRegistry:
    """Per-shard bookkeeping that makes shared word sources shard-exact.

    Created by region networks only (:class:`~repro.noc.fabric.NocBase`
    with ``region`` set); single-process networks bypass it entirely, so
    the hot pull path stays a direct call there.
    """

    def __init__(self, kernel: Any) -> None:
        self._kernel = kernel
        self._sources: Dict[int, _SharedSource] = {}
        self._refs: List[Any] = []  # id() stability: keep every source alive
        self._streams: Dict[str, Tuple[_SharedSource, Optional[Any]]] = {}
        self._count = 0

    def register(
        self,
        stream_name: str,
        source: Callable[[], int],
        local: bool,
        model: Optional[Any],
    ) -> Callable[[], int]:
        """Register one stream as the next user of *source*.

        Returns the callable the local driver must pull through; for a
        remote user the original source is returned (nothing local pulls
        it — the model replays its schedule).  Must be called once per
        stream in the replicated configuration order, on every shard.
        """
        reg = self._count
        self._count += 1
        entry = self._sources.get(id(source))
        if entry is None:
            entry = _SharedSource(source)
            self._sources[id(source)] = entry
            self._refs.append(source)
        if local:
            self._streams[stream_name] = (entry, None)
            return _LocalPull(entry, reg, self._kernel)
        entry.remote.append((reg, model))
        entry.remote.sort(key=lambda item: item[0])
        self._streams[stream_name] = (entry, model)
        return source

    def deactivate(self, stream_name: str, cycle: int) -> None:
        """The named stream's driver left the kernel before *cycle* ran.

        Replicated on every shard: where the driver was remote, the pull
        model stops emitting from *cycle* on (idempotent, keeps the
        earliest halt).  Unknown names are ignored — not every stream
        has a registered source (tile-local channels register nothing).
        """
        record = self._streams.get(stream_name)
        if record is None:
            return
        _entry, model = record
        if model is not None:
            model.halt(cycle)
