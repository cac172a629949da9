"""Simulation statistics: counters, histograms and a collector.

The experiment harness (``repro.experiments``) aggregates throughput,
latency and occupancy figures from these objects; the energy model has its
own, more specialised, :class:`repro.energy.activity.ActivityCounters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

__all__ = ["Counter", "Histogram", "StatsCollector", "SchedulerStats"]


@dataclass
class SchedulerStats:
    """Scheduling counters of the quiescence-aware simulation kernel.

    ``evaluated`` counts component-cycles that actually ran evaluate/commit;
    ``skipped`` counts component-cycles covered by deferred idle accounting —
    both cycles slept through by quiescent components and cycles the kernel
    leapt over for timed components.  Together they measure how well the
    kernel exploits fabric idleness: the :attr:`occupancy` of a fully loaded
    mesh is 1.0, of an idle mesh near 0.  ``leaps`` counts event-horizon
    jumps and ``leaped_cycles`` the clock cycles they covered — cycles on
    which the kernel did no per-cycle work at all.

    Under ``schedule="event"`` two further counters describe the event
    queue: ``events_processed`` counts heap entries popped and executed
    (components scheduled at a predicted due-cycle), and ``heap_peak`` is
    the largest number of pending entries the queue ever held.  Both stay 0
    under the ``strict`` and ``auto`` schedules; ``vector`` runs on the same
    queue.

    Under ``schedule="vector"`` the columnar fast path
    (:mod:`repro.sim.vector`) adds two counters: ``vector_batches`` counts
    fabric-wide batched cycles executed through the NumPy plane (one per
    committed cycle on the fast path; cycles the routers run themselves,
    below the plane's live-route gate or after a reconfiguration, do not
    count), and ``vector_components`` the member component-cycles those
    batches covered.  Both stay 0 under every other schedule.  The routers
    of a batching plane are parked in the kernel, so their cycles also
    count as ``skipped``.

    Sharded runs (:mod:`repro.sim.shard`) add four transport counters,
    all 0 on a single-process kernel: ``frames_sent`` counts boundary
    frame records shipped to neighbouring shards, ``frame_bytes`` the
    encoded payload bytes they occupied (pickle bytes on the pipe
    transport, struct-packed bytes on the shared-memory transport),
    ``exchange_windows`` the synchronisation windows each worker executed
    (the merge *sums* workers, so divide by the shard count for the
    fleet-wide window count), and ``overlap_hits`` the inbound frame
    slots that were already published when the worker first looked —
    exchange latency fully hidden behind the neighbour's local execution
    (shared-memory transport only).
    """

    evaluated: int = 0
    skipped: int = 0
    wakes: int = 0
    sleeps: int = 0
    leaps: int = 0
    leaped_cycles: int = 0
    events_processed: int = 0
    heap_peak: int = 0
    vector_batches: int = 0
    vector_components: int = 0
    frames_sent: int = 0
    frame_bytes: int = 0
    exchange_windows: int = 0
    overlap_hits: int = 0

    @property
    def total(self) -> int:
        """Total component-cycles the schedule covered."""
        return self.evaluated + self.skipped

    @property
    def occupancy(self) -> float:
        """Fraction of component-cycles that required real work (1.0 when idle-skipping never engaged)."""
        total = self.total
        return self.evaluated / total if total else 1.0

    @classmethod
    def merged(cls, parts: Iterable["SchedulerStats"]) -> "SchedulerStats":
        """Fold several kernels' stats into one (sharded runs).

        Work counters add up across the shard kernels; ``heap_peak`` is a
        high-water mark per heap, so the merge keeps the largest.
        """
        result = cls()
        for part in parts:
            result.evaluated += part.evaluated
            result.skipped += part.skipped
            result.wakes += part.wakes
            result.sleeps += part.sleeps
            result.leaps += part.leaps
            result.leaped_cycles += part.leaped_cycles
            result.events_processed += part.events_processed
            result.heap_peak = max(result.heap_peak, part.heap_peak)
            result.vector_batches += part.vector_batches
            result.vector_components += part.vector_components
            result.frames_sent += part.frames_sent
            result.frame_bytes += part.frame_bytes
            result.exchange_windows += part.exchange_windows
            result.overlap_hits += part.overlap_hits
        return result

    def as_dict(self) -> Dict[str, float]:
        """Summary suitable for report tables."""
        return {
            "evaluated": float(self.evaluated),
            "skipped": float(self.skipped),
            "wakes": float(self.wakes),
            "sleeps": float(self.sleeps),
            "leaps": float(self.leaps),
            "leaped_cycles": float(self.leaped_cycles),
            "events_processed": float(self.events_processed),
            "heap_peak": float(self.heap_peak),
            "vector_batches": float(self.vector_batches),
            "vector_components": float(self.vector_components),
            "frames_sent": float(self.frames_sent),
            "frame_bytes": float(self.frame_bytes),
            "exchange_windows": float(self.exchange_windows),
            "overlap_hits": float(self.overlap_hits),
            "occupancy": self.occupancy,
        }


@dataclass
class Counter:
    """A simple named accumulator."""

    name: str
    value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter by *amount* (may be fractional)."""
        self.value += amount

    def reset(self) -> None:
        """Set the counter back to zero."""
        self.value = 0.0


class Histogram:
    """A streaming histogram that also tracks mean / min / max.

    Used for per-word network latencies in the end-to-end mesh experiments.
    Values are binned with a fixed bin width; the exact mean and extrema are
    maintained separately so reports never suffer from binning error.
    """

    def __init__(self, name: str, bin_width: float = 1.0) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.name = name
        self.bin_width = bin_width
        self._bins: Dict[int, int] = {}
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Record one observation."""
        index = int(value // self.bin_width)
        self._bins[index] = self._bins.get(index, 0) + 1
        self._count += 1
        self._total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return self._count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def percentile(self, fraction: float) -> float:
        """Approximate percentile (bin-resolution) of the observations."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self._count == 0:
            return 0.0
        target = fraction * self._count
        seen = 0
        for index in sorted(self._bins):
            seen += self._bins[index]
            if seen >= target:
                return (index + 1) * self.bin_width
        return self._max

    def as_dict(self) -> Dict[str, float]:
        """Summary suitable for report tables."""
        return {
            "count": float(self._count),
            "mean": self.mean,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
        }


@dataclass
class StatsCollector:
    """A namespaced bag of counters and histograms.

    Components create their counters lazily via :meth:`counter` /
    :meth:`histogram`; the experiment harness walks :attr:`counters` to build
    its report tables.
    """

    name: str = "stats"
    counters: Dict[str, Counter] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def counter(self, key: str) -> Counter:
        """Return (creating if necessary) the counter called *key*."""
        if key not in self.counters:
            self.counters[key] = Counter(key)
        return self.counters[key]

    def histogram(self, key: str, bin_width: float = 1.0) -> Histogram:
        """Return (creating if necessary) the histogram called *key*."""
        if key not in self.histograms:
            self.histograms[key] = Histogram(key, bin_width)
        return self.histograms[key]

    def add(self, key: str, amount: float = 1.0) -> None:
        """Shorthand for ``self.counter(key).add(amount)``."""
        self.counter(key).add(amount)

    def value(self, key: str, default: float = 0.0) -> float:
        """Current value of counter *key*, or *default* if it never existed."""
        counter = self.counters.get(key)
        return counter.value if counter is not None else default

    def merge(self, other: "StatsCollector") -> None:
        """Fold another collector's counters into this one (histograms excluded)."""
        for key, counter in other.counters.items():
            self.counter(key).add(counter.value)

    def as_dict(self) -> Dict[str, float]:
        """Flat mapping of counter name to value."""
        return {key: counter.value for key, counter in sorted(self.counters.items())}

    def reset(self) -> None:
        """Reset all counters and drop all histograms."""
        for counter in self.counters.values():
            counter.reset()
        self.histograms.clear()


def merge_stats(collectors: Iterable[StatsCollector], name: str = "merged") -> StatsCollector:
    """Combine several collectors into a fresh one (helper for network reports)."""
    merged = StatsCollector(name)
    for collector in collectors:
        merged.merge(collector)
    return merged


def as_table(stats: Mapping[str, float]) -> str:
    """Render a counter mapping as a two-column ASCII table."""
    if not stats:
        return "(no statistics)"
    width = max(len(key) for key in stats)
    lines = [f"{key.ljust(width)}  {value:,.3f}" for key, value in sorted(stats.items())]
    return "\n".join(lines)
