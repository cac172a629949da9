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
    ``skipped`` counts the component-cycles the clock leaped (leaped cycles
    × registered components).  Together they measure how well the kernel
    exploits fabric idleness: the :attr:`occupancy` of a fully loaded mesh
    is 1.0, of an idle mesh near 0.  ``leaps`` counts clock jumps and
    ``leaped_cycles`` the clock cycles they covered — cycles on which the
    kernel did no per-cycle work at all.  Under ``schedule="strict"``, which
    never leaps, every counter but ``evaluated`` stays 0.

    The columnar fast path (:mod:`repro.sim.vector`) adds two counters:
    ``vector_batches`` counts fabric-wide batched cycles executed through the
    NumPy plane (one per committed cycle on the fast path; cycles the routers
    run themselves, below the plane's live-route gate or after a
    reconfiguration, do not count), and ``vector_components`` the member
    component-cycles those batches covered.  Both stay 0 where no plane
    batches.

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
    leaps: int = 0
    leaped_cycles: int = 0
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

        Every counter adds up across the shard kernels.
        """
        result = cls()
        for part in parts:
            result.evaluated += part.evaluated
            result.skipped += part.skipped
            result.leaps += part.leaps
            result.leaped_cycles += part.leaped_cycles
            result.vector_batches += part.vector_batches
            result.vector_components += part.vector_components
            result.frames_sent += part.frames_sent
            result.frame_bytes += part.frame_bytes
            result.exchange_windows += part.exchange_windows
            result.overlap_hits += part.overlap_hits
        return result

    def as_dict(self) -> Dict[str, float]:
        """Summary suitable for report tables.

        ``events_processed`` and ``heap_peak`` described an event queue the
        kernel no longer has; they stay in the summary, always 0, only
        because the end-to-end benchmark's aggregation reads those keys,
        until its next re-record drops them.
        """
        return {
            "evaluated": float(self.evaluated),
            "skipped": float(self.skipped),
            "leaps": float(self.leaps),
            "leaped_cycles": float(self.leaped_cycles),
            "events_processed": 0.0,
            "heap_peak": 0.0,
            "vector_batches": float(self.vector_batches),
            "vector_components": float(self.vector_components),
            "frames_sent": float(self.frames_sent),
            "frame_bytes": float(self.frame_bytes),
            "exchange_windows": float(self.exchange_windows),
            "overlap_hits": float(self.overlap_hits),
            "occupancy": self.occupancy,
        }
