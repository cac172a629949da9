"""Switching-activity counters filled in by the bit-accurate router models.

Synopsys Power Compiler derives power from gate-level switching activity; our
substitute derives it from architectural event counts recorded while the
Python router models move actual bit patterns.  Every router owns one
:class:`ActivityCounters` instance; the components of the router add to the
well-known counter keys defined here, and :class:`repro.energy.power.PowerModel`
turns the totals into static / internal / switching power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

__all__ = ["ActivityCounters", "ActivityKeys"]


class ActivityKeys:
    """Canonical counter keys understood by the power model."""

    # register activity (both routers)
    REG_TOGGLE_BITS = "reg.toggle_bits"
    REG_CLOCKED_BITS = "reg.clocked_bits"
    REG_GATED_BITS = "reg.gated_bits"

    # circuit-switched data path
    XBAR_TOGGLE_BITS = "crossbar.toggle_bits"
    CONFIG_WRITES = "config.writes"

    # link wires (both routers)
    LINK_TOGGLE_BITS = "link.toggle_bits"

    # packet-switched data path
    BUFFER_WRITE_BITS = "buffer.write_bits"
    BUFFER_READ_BITS = "buffer.read_bits"
    ARBITER_DECISIONS = "arbiter.decisions"
    ARBITER_GRANT_CHANGES = "arbiter.grant_changes"
    VC_ALLOCATIONS = "vc.allocations"

    # traffic accounting (not used for power, used for reports)
    WORDS_INJECTED = "traffic.words_injected"
    WORDS_DELIVERED = "traffic.words_delivered"
    FLITS_ROUTED = "traffic.flits_routed"
    PACKETS_ROUTED = "traffic.packets_routed"
    ACKS_DELIVERED = "traffic.acks_delivered"

    POWER_KEYS = (
        REG_TOGGLE_BITS,
        REG_CLOCKED_BITS,
        REG_GATED_BITS,
        XBAR_TOGGLE_BITS,
        CONFIG_WRITES,
        LINK_TOGGLE_BITS,
        BUFFER_WRITE_BITS,
        BUFFER_READ_BITS,
        ARBITER_DECISIONS,
        ARBITER_GRANT_CHANGES,
        VC_ALLOCATIONS,
    )


_REG_TOGGLE_BITS = ActivityKeys.REG_TOGGLE_BITS
_LINK_TOGGLE_BITS = ActivityKeys.LINK_TOGGLE_BITS


@dataclass
class ActivityCounters:
    """Accumulates event counts over a simulation run.

    Attributes
    ----------
    name:
        Identifier of the owning router (used when merging network-level
        reports).
    cycles:
        Number of simulated cycles the counts cover; the experiment harness
        sets this after a run so per-cycle averages can be computed.
    """

    name: str = "activity"
    cycles: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Add *amount* events to counter *key*."""
        if amount < 0:
            raise ValueError("activity amounts must be non-negative")
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def add_commit(
        self, reg_toggles: float, link_toggles: float, events: Iterable[Tuple[str, float]] = ()
    ) -> None:
        """Book what one router commit summed up, in one call.

        *reg_toggles* and *link_toggles* are the register and link bits the
        commit toggled; a zero books nothing and creates no key, like the
        ``if toggles:`` in front of the :meth:`add` it stands for.  Every
        ``(key, amount)`` pair of *events* is one :meth:`add`: a zero amount
        still creates its key.
        """
        if reg_toggles < 0 or link_toggles < 0:
            raise ValueError("activity amounts must be non-negative")
        counts = self.counts
        for key, amount in events:
            if amount < 0:
                raise ValueError("activity amounts must be non-negative")
            counts[key] = counts.get(key, 0.0) + amount
        # Unrolled over module-level names: a loop over the two, or an
        # attribute lookup each, costs a router visit more than the adds did.
        if reg_toggles:
            counts[_REG_TOGGLE_BITS] = counts.get(_REG_TOGGLE_BITS, 0.0) + reg_toggles
        if link_toggles:
            counts[_LINK_TOGGLE_BITS] = counts.get(_LINK_TOGGLE_BITS, 0.0) + link_toggles

    def get(self, key: str, default: float = 0.0) -> float:
        """Current value of counter *key*."""
        return self.counts.get(key, default)

    def per_cycle(self, key: str) -> float:
        """Average events per cycle for counter *key* (0.0 if no cycles ran)."""
        if self.cycles <= 0:
            return 0.0
        return self.get(key) / self.cycles

    def merge(self, other: "ActivityCounters") -> None:
        """Fold another router's counters into this one (cycles are maxed)."""
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + value
        self.cycles = max(self.cycles, other.cycles)

    @classmethod
    def merged(cls, counters: Iterable["ActivityCounters"], name: str = "merged") -> "ActivityCounters":
        """Combine several counter sets into a new one."""
        result = cls(name)
        for item in counters:
            result.merge(item)
        return result

    def clock_gating_factor(self) -> float:
        """Fraction of gateable register bits that were actually clocked.

        Returns 1.0 when the router did not report any gating information
        (i.e. clock gating disabled), matching the paper's baseline router.
        """
        clocked = self.get(ActivityKeys.REG_CLOCKED_BITS)
        gated = self.get(ActivityKeys.REG_GATED_BITS)
        total = clocked + gated
        if total <= 0:
            return 1.0
        return clocked / total

    def as_dict(self) -> Dict[str, float]:
        """Copy of all counters (sorted by key)."""
        return dict(sorted(self.counts.items()))

    def reset(self) -> None:
        """Clear all counters and the cycle count."""
        self.counts.clear()
        self.cycles = 0

    def update_from(self, mapping: Mapping[str, float]) -> None:
        """Add every entry of *mapping* to the counters (used by tests)."""
        for key, value in mapping.items():
            self.add(key, value)
