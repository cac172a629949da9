"""A cost floor that does not depend on the host's clock.

The packet and GT phases are what the three-kind workloads of
``benchmarks/e2e`` spend their time in, and this host's wall clock moves
1.2-1.9x within minutes, so the floor is a count: interpreted bytecodes
(``sys.settrace`` with ``f_trace_opcodes``) per simulated cycle of the warmed
8x8 row fabrics of ``saturated_default`` - one full-load west-to-east channel
per row - under the default schedule.  The count repeats exactly on one
interpreter version, hence the CPython 3.11 gate.  The packet fabric is
bursty (every row sends one 17-flit packet per 256 cycles, all rows at
once): the counted window, cycles 200-360, holds exactly one burst.

At the commit before a router visit became one pass (sampling ``evaluate``,
constants booked in every ``commit``, ``quiescent()`` asked before
``next_event_cycle()``, one ``ActivityCounters.add`` per counter) the same
window cost 4 281 bytecodes per cycle on the GT fabric and 8 426 on the
packet fabric; with it, 3 500 and 7 454.
"""

from __future__ import annotations

import sys

import pytest

from repro.apps.traffic import BitFlipPattern, word_generator
from repro.noc import Mesh2D, build_network

SIZE = 8
WARMUP_CYCLES = 200
COUNTED_CYCLES = 160

#: Bytecodes per simulated cycle the warmed row fabric may cost.
CEILINGS = {"gt": 3650, "packet": 7600}


def _row_fabric(kind):
    network = build_network(kind, Mesh2D(SIZE, SIZE), frequency_hz=100e6)
    for row in range(SIZE):
        network.attach_channel(
            f"row{row}", (0, row), (SIZE - 1, row), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=row), load=1.0,
        )
    return network


def bytecodes_per_cycle(kind):
    """Interpreted bytecodes of ``run(COUNTED_CYCLES)`` on the warmed fabric, per cycle."""
    network = _row_fabric(kind)
    network.run(WARMUP_CYCLES)
    executed = 0

    def count(frame, event, arg):
        nonlocal executed
        if event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        elif event == "opcode":
            executed += 1
        return count

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        network.run(COUNTED_CYCLES)
    finally:
        sys.settrace(previous)
    return executed / COUNTED_CYCLES


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are those of CPython 3.11",
)
@pytest.mark.parametrize("kind", sorted(CEILINGS))
def test_row_fabric_cycle_stays_under_its_bytecode_ceiling(kind):
    assert bytecodes_per_cycle(kind) <= CEILINGS[kind]


if __name__ == "__main__":
    for kind in sorted(CEILINGS):
        print(f"{kind}: {bytecodes_per_cycle(kind):.0f} bytecodes per cycle (ceiling {CEILINGS[kind]})")
