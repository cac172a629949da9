"""Switching-activity counters filled in by the bit-accurate router models.

Synopsys Power Compiler derives power from gate-level switching activity; our
substitute derives it from architectural event counts recorded while the
Python router models move actual bit patterns.  Every router owns one
:class:`ActivityCounters`; :class:`repro.energy.power.PowerModel` turns the
totals into static / internal / switching power.

**Slots.**  Every datapath books on every visit, so a counter is one flat
list, :attr:`ActivityCounters.slots`: a float per :class:`ActivityKeys` name,
at the module-level index of the same name (``SLOT_KEYS[REG_TOGGLE_BITS] ==
ActivityKeys.REG_TOGGLE_BITS``).  A hot site does ``slots[REG_TOGGLE_BITS] +=
n`` with no call - 45 ns on the host of ROADMAP.md, against 78 ns for the
dictionary update it replaces (plus the call around it) and 152 ns for a NumPy
element.  Names outside the sixteen, which only tests use, go to an overflow
dictionary behind the by-name API; that API stays for every cold caller.

**Presence.**  ``as_dict()``, which the golden digests hash, lists a key from
its first add on, zero amounts included; an ``if toggles:`` guard creates
none.  So an untouched slot holds ``-0.0``: ``-0.0 + amount`` is ``+amount``
for every amount >= 0, zero included, hence the sign bit is set on exactly
the slots never added to, element-wise :meth:`~ActivityCounters.merge` keeps
it, and the hot path pays nothing.  The alternative, a presence mask OR-ed
once per commit, cost the 8x8 GT row fabric of ``tests/test_visit_cost.py``
162 bytecodes per cycle (+5 %) and is a second field every site must know.
A reader that wants the number adds ``0.0`` (``-0.0 + 0.0`` is ``+0.0``).

**Which amounts may skip the check.**  The by-name entry points (``add``,
``update_from``, the constructor's ``counts=``) reject a negative amount,
which would also break the presence rule.  A slot site skips that check, so it
adds only what cannot be negative: an ``int.bit_count()`` result, a ``len()``,
a literal or a register-bit constant.  Anything multiplied by elapsed cycles
(every ``settle``) goes through :meth:`~ActivityCounters.add`.
"""

from __future__ import annotations

from math import copysign
from typing import Dict, Iterable, Mapping, Optional

__all__ = ["ActivityCounters", "ActivityKeys", "SLOT_KEYS"]


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


#: Counter name of every slot (declaration order), then the slot of every name.
SLOT_KEYS = tuple(value for name, value in vars(ActivityKeys).items() if name.isupper())
(REG_TOGGLE_BITS, REG_CLOCKED_BITS, REG_GATED_BITS, XBAR_TOGGLE_BITS, CONFIG_WRITES, LINK_TOGGLE_BITS,
 BUFFER_WRITE_BITS, BUFFER_READ_BITS, ARBITER_DECISIONS, ARBITER_GRANT_CHANGES, VC_ALLOCATIONS,
 WORDS_INJECTED, WORDS_DELIVERED, FLITS_ROUTED, PACKETS_ROUTED, ACKS_DELIVERED) = range(len(SLOT_KEYS))
_SLOT_OF = {key: slot for slot, key in enumerate(SLOT_KEYS)}


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
    slots:
        One float per :data:`SLOT_KEYS` entry, ``-0.0`` until first added to
        (see the module docstring for who may add to it directly).
    """

    __slots__ = ("name", "cycles", "slots", "_extra")

    def __init__(
        self, name: str = "activity", cycles: int = 0, counts: Optional[Mapping[str, float]] = None
    ) -> None:
        self.name = name
        self.cycles = cycles
        self.slots = [-0.0] * len(SLOT_KEYS)
        self._extra: Dict[str, float] = {}  # names outside SLOT_KEYS
        if counts:
            self.update_from(counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivityCounters):
            return NotImplemented
        return (self.name, self.cycles, self.as_dict()) == (other.name, other.cycles, other.as_dict())

    def __repr__(self) -> str:
        return f"ActivityCounters(name={self.name!r}, cycles={self.cycles}, counts={self.as_dict()})"

    def add(self, key: str, amount: float = 1.0) -> None:
        """Add *amount* events to counter *key*."""
        if amount < 0:
            raise ValueError("activity amounts must be non-negative")
        slot = _SLOT_OF.get(key)
        if slot is None:
            self._extra[key] = self._extra.get(key, 0.0) + amount
        else:
            self.slots[slot] += amount + 0.0  # a float -0.0 passes the check and must still mark the slot

    def get(self, key: str, default: float = 0.0) -> float:
        """Current value of counter *key*."""
        slot = _SLOT_OF.get(key)
        if slot is None:
            return self._extra.get(key, default)
        value = self.slots[slot]
        return value if copysign(1.0, value) > 0 else default

    def per_cycle(self, key: str) -> float:
        """Average events per cycle for counter *key* (0.0 if no cycles ran)."""
        if self.cycles <= 0:
            return 0.0
        return self.get(key) / self.cycles

    def merge(self, other: "ActivityCounters") -> None:
        """Fold another router's counters into this one (cycles are maxed)."""
        self.slots[:] = [mine + theirs for mine, theirs in zip(self.slots, other.slots)]
        for key, value in other._extra.items():
            self._extra[key] = self._extra.get(key, 0.0) + value
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
        clocked = self.slots[REG_CLOCKED_BITS] + 0.0
        total = clocked + self.slots[REG_GATED_BITS]
        if total <= 0:
            return 1.0
        return clocked / total

    def as_dict(self) -> Dict[str, float]:
        """Copy of all counters that were ever added to (sorted by key)."""
        present = [(key, value) for key, value in zip(SLOT_KEYS, self.slots) if copysign(1.0, value) > 0]
        return dict(sorted(present + list(self._extra.items())))

    def reset(self) -> None:
        """Clear all counters and the cycle count."""
        self.slots[:] = [-0.0] * len(SLOT_KEYS)
        self._extra.clear()
        self.cycles = 0

    def update_from(self, mapping: Mapping[str, float]) -> None:
        """Add every entry of *mapping* to the counters (used by tests)."""
        for key, value in mapping.items():
            self.add(key, value)
