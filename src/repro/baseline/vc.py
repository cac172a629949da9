"""Virtual-channel state tracking and output-VC allocation.

A wormhole packet holds one virtual channel on every link of its path from
head flit to tail flit.  The input side of the router keeps per-VC state
(current route, allocated output VC); the output side keeps, per output port,
which output VCs are free and how much downstream buffer credit each has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baseline.arbiter import RoundRobinArbiter
from repro.common import Port, bit_mask

__all__ = ["InputVcState", "OutputVcAllocator"]


@dataclass(slots=True)
class InputVcState:
    """Book-keeping of one input virtual channel of the router."""

    port: Port
    vc: int
    #: Output port chosen by route computation for the packet currently
    #: occupying this VC (``None`` when idle or not yet routed).
    out_port: Optional[Port] = None
    #: Output VC allocated on that port (``None`` until VC allocation wins).
    out_vc: Optional[int] = None

    @property
    def routed(self) -> bool:
        """True once route computation has run for the current packet."""
        return self.out_port is not None

    @property
    def allocated(self) -> bool:
        """True once an output VC has been granted to the current packet."""
        return self.out_vc is not None

    def release(self) -> None:
        """Forget all per-packet state (called after the tail flit leaves)."""
        self.out_port = None
        self.out_vc = None


class OutputVcAllocator:
    """Per-output-port allocator of output virtual channels and credits."""

    def __init__(self, port: Port, num_vcs: int, downstream_buffer_depth: int) -> None:
        if num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if downstream_buffer_depth < 1:
            raise ValueError("downstream buffer depth must be positive")
        self.port = port
        self.num_vcs = num_vcs
        #: Remaining downstream buffer credit per output VC.
        self._credits: List[int] = [downstream_buffer_depth] * num_vcs
        #: Input ``(port, vc)`` holding each output VC (``None`` = free) and
        #: the same as a bit mask of the free ones, kept by allocate/release.
        self._holders: List[Optional[tuple[Port, int]]] = [None] * num_vcs
        self._free = bit_mask(num_vcs)
        self._arbiter = RoundRobinArbiter(num_vcs)
        self.allocations = 0

    # -- allocation ----------------------------------------------------------------

    def try_allocate(self, requester: tuple[Port, int]) -> Optional[int]:
        """Grant a free output VC to *requester* (an input ``(port, vc)``)."""
        choice = self._arbiter.grant(self._free)
        if choice is not None:
            self._holders[choice] = requester
            self._free &= ~(1 << choice)
            self.allocations += 1
        return choice

    def has_free_vc(self) -> bool:
        """True when :meth:`try_allocate` would currently succeed.

        Pure inspection (the round-robin pointer does not move) — used by
        the router's event-schedule stall prediction.
        """
        return self._free != 0

    def release(self, vc: int) -> None:
        """Free an output VC after the packet's tail flit has left."""
        self._check_vc(vc)
        self._holders[vc] = None
        self._free |= 1 << vc

    def holder(self, vc: int) -> Optional[tuple[Port, int]]:
        """The input (port, vc) currently holding output VC *vc*."""
        self._check_vc(vc)
        return self._holders[vc]

    # -- credits ----------------------------------------------------------------------

    def credits(self, vc: int) -> int:
        """Remaining downstream buffer credit of output VC *vc*."""
        self._check_vc(vc)
        return self._credits[vc]

    def consume_credit(self, vc: int) -> None:
        """Spend one credit when a flit is sent on output VC *vc*."""
        self._check_vc(vc)
        if self._credits[vc] <= 0:
            raise ValueError(f"no credit left on {self.port.name} VC {vc}")
        self._credits[vc] -= 1

    def add_credits(self, vc: int, amount: int) -> None:
        """Return *amount* credits (downstream freed buffer slots)."""
        self._check_vc(vc)
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        self._credits[vc] += amount

    def reset(self, downstream_buffer_depth: int) -> None:
        """Return to the power-on state with fresh credit counters."""
        for vc in range(self.num_vcs):
            self._credits[vc] = downstream_buffer_depth
            self._holders[vc] = None
        self._free = bit_mask(self.num_vcs)
        self._arbiter.reset()
        self.allocations = 0

    def _check_vc(self, vc: int) -> None:
        if not 0 <= vc < self.num_vcs:
            raise IndexError(f"virtual channel {vc} out of range 0..{self.num_vcs - 1}")


def vc_state_table(ports: List[Port], num_vcs: int) -> Dict[tuple[Port, int], InputVcState]:
    """Build the input-VC state table for a router with the given ports."""
    return {
        (port, vc): InputVcState(port=port, vc=vc)
        for port in ports
        for vc in range(num_vcs)
    }
