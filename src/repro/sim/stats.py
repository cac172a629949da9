"""Scheduling counters of the simulation kernel.

The energy model has its own, more specialised,
:class:`repro.energy.activity.ActivityCounters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = ["SchedulerStats"]


@dataclass
class SchedulerStats:
    """Scheduling counters of the simulation kernel.

    ``evaluated`` counts component-cycles that actually ran evaluate/commit;
    ``skipped`` counts component-cycles covered by deferred idle accounting —
    cycles parked components slept through and cycles heap-scheduled ones
    waited out.  Together they measure how well the kernel exploits fabric
    idleness: the :attr:`occupancy` of a fully loaded mesh is 1.0, of an
    idle mesh near 0.  ``leaps`` counts clock jumps between event batches
    and ``leaped_cycles`` the clock cycles they covered — cycles on which the
    kernel did no per-cycle work at all.

    Two further counters describe the event queue: ``events_processed``
    counts heap entries popped and executed (components scheduled at a
    predicted due-cycle), and ``heap_peak`` is the largest number of pending
    entries the queue ever held.  Under ``schedule="strict"``, which skips
    nothing, every counter but ``evaluated`` stays 0.

    The columnar fast path (:mod:`repro.sim.vector`) adds two counters:
    ``vector_batches`` counts fabric-wide batched cycles executed through the
    NumPy plane (one per committed cycle on the fast path; cycles the routers
    run themselves, below the plane's live-route gate or after a
    reconfiguration, do not count), and ``vector_components`` the member
    component-cycles those batches covered.  Both stay 0 where no plane
    batches.  The routers of a batching plane are parked in the kernel, so
    their cycles also count as ``skipped``.

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
