"""Round-robin arbitration for the packet-switched baseline router.

Each output port of the router has a switch allocator that picks one of the
requesting input virtual channels per cycle.  Arbitration is the "extra
control in the crossbar" the paper blames for part of the packet-switched
router's energy overhead; the grant *changes* (which toggle the crossbar
select lines) are recorded separately because they are the mechanism behind
the non-linearity observed when two streams collide on the same output port
(Section 7.3).
"""

from __future__ import annotations

from typing import Optional

from repro.common import bit_mask

__all__ = ["RoundRobinArbiter"]


class RoundRobinArbiter:
    """A classic rotating-priority arbiter.

    The arbiter remembers the last granted requester; the search for the next
    grant starts just after it, which guarantees that every persistent
    requester is eventually served (fairness) and that a single persistent
    requester keeps its grant (no spurious switching).
    """

    def __init__(self, num_requesters: int) -> None:
        if num_requesters < 1:
            raise ValueError("an arbiter needs at least one requester")
        self.num_requesters = num_requesters
        self._all = bit_mask(num_requesters)
        self._pointer = 0
        self._last_grant: Optional[int] = None
        self.decisions = 0
        self.grant_changes = 0

    @property
    def last_grant(self) -> Optional[int]:
        """The requester granted on the most recent decision (``None`` initially)."""
        return self._last_grant

    def grant(self, requests: int) -> Optional[int]:
        """Pick one requester from the bit mask *requests*; ``None`` when it is 0.

        Bit ``i`` set means requester ``i`` requests.  Statistics (number of
        decisions, number of grant changes) are updated as a side effect; the
        router copies them into its activity counters.
        """
        if not 0 <= requests <= self._all:
            raise ValueError(
                f"request mask {requests:#x} does not fit {self.num_requesters} request lines"
            )
        if not requests:
            return None
        self.decisions += 1
        # Rotating priority: the lowest set bit at or above the pointer,
        # else (wrap-around) the lowest set bit.
        ahead = requests >> self._pointer
        if ahead:
            candidate = self._pointer + (ahead & -ahead).bit_length() - 1
        else:
            candidate = (requests & -requests).bit_length() - 1
        if self._last_grant is not None and candidate != self._last_grant:
            self.grant_changes += 1
        self._last_grant = candidate
        self._pointer = (candidate + 1) % self.num_requesters
        return candidate

    def reset(self) -> None:
        """Forget all arbitration history."""
        self._pointer = 0
        self._last_grant = None
        self.decisions = 0
        self.grant_changes = 0
