"""A load pacer consulted once per cycle.

:class:`repro.sim.datapath.LoadPacer` only leaps from one emission to the
next (``emit_from``).  The reference components of the tests keep the
per-cycle interface the stream endpoints had as kernel components: one
:meth:`CyclePacer.should_emit` per evaluate and the next emission as their
``next_event_cycle``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.datapath import LoadPacer


def emissions(pacer: LoadPacer, cycles: int) -> List[int]:
    """The cycles below *cycles* at which *pacer* emits, leaping with ``emit_from``."""
    emitted, due = [], pacer.emit_from(0)
    while due is not None and due < cycles:
        emitted.append(due)
        due = pacer.emit_from(due + 1)
    return emitted


class CyclePacer(LoadPacer):
    """A :class:`LoadPacer` advanced one cycle per :meth:`should_emit` call."""

    def should_emit(self) -> bool:
        """Advance one cycle and report whether a word should be offered now."""
        credit = self._credit + self._step
        if credit >= self._threshold:
            self._credit = credit - self._threshold
            return True
        self._credit = credit
        return False

    def cycles_until_emit(self) -> Optional[int]:
        """Number of :meth:`should_emit` calls until the next ``True``
        (``None``: zero load, never), without advancing."""
        if self._step == 0:
            return None
        deficit = self._threshold - self._credit
        return -(-deficit // self._step) if deficit > 0 else 1

    def next_emit_cycle(self, cycle: int) -> Optional[int]:
        """The cycle of the next emission, for one call per cycle from *cycle*."""
        gap = self.cycles_until_emit()
        return None if gap is None else cycle + gap - 1
