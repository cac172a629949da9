"""The two-phase clock the reference models of the tests keep.

The kernel commits each component once per cycle, and every production
datapath samples and latches inside that one call.  The ``_Reference*``
routers and stream endpoints (the parent code verbatim) split a cycle across
components instead, so one :class:`TwoPhase` component clocks them: every
member evaluates from what all of them latched before the edge, then every
member commits, in member order.
"""

from __future__ import annotations

from repro.sim.engine import ClockedComponent


class TwoPhase(ClockedComponent):
    """Clocks *members* (components with ``evaluate`` and ``commit``) as one.
    The group's kernel is every member's, so their between-cycle guards hold."""

    def __init__(self, name, members=()):
        self.members = list(members)
        super().__init__(name)

    @property
    def _scheduler(self):
        return self._kernel

    @_scheduler.setter
    def _scheduler(self, kernel):
        self._kernel = kernel
        for member in self.members:
            member._scheduler = kernel

    def add(self, member):
        """Clock *member* after the others from the current cycle on (between cycles)."""
        self.refuse_inside_cycle(f"{member.name!r} added")
        self._kernel.sync()
        self.members.append(member)
        member._scheduler = self._kernel
        return member

    def remove(self, member):
        """Stop clocking *member*, settled up to now (between cycles)."""
        self.refuse_inside_cycle(f"{member.name!r} removed")
        self._kernel.sync()
        self.members.remove(member)
        member._scheduler = None

    def commit(self, cycle):
        for member in self.members:
            member.evaluate(cycle)
        for member in self.members:
            member.commit(cycle)

    def next_event_cycle(self, cycle):
        return min((due for due in (m.next_event_cycle(cycle) for m in self.members) if due is not None), default=None)

    def settle(self, start_cycle, cycles):
        for member in self.members:
            member.settle(start_cycle, cycles)

    def reset(self):
        for member in self.members:
            member.reset()
