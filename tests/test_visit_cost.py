"""A cost floor that does not depend on the host's clock.

The packet and GT phases are what the three-kind workloads of
``benchmarks/e2e`` spend their time in, and this host's wall clock moves
1.2-1.9x within minutes, so the floor is a count: interpreted bytecodes
(``sys.settrace`` with ``f_trace_opcodes``) per simulated cycle, which repeats
exactly on one interpreter version, hence the CPython 3.11 gate.  Six rows:

* ``gt`` / ``packet`` / ``circuit`` - the warmed 8x8 row fabrics of
  ``saturated_default`` (one full-load west-to-east channel per row) under
  the default schedule, cycles 200-360.  The packet fabric is bursty (every
  row sends one 17-flit packet per 256 cycles, all rows at once): that
  window holds exactly one burst.  The circuit fabric batches in NumPy; its
  row is there so the plane's fold and the word edges cannot regress unseen.
* ``gt paced`` - the GT fabric of ``app_traffic``: HiperLAN/2 and UMTS
  admitted by a CCN on a 6x6 mesh at half load, cycles 800-2400.
* ``circuit bench`` / ``packet bench`` - the paper's own single-router
  bench, ``run_scenario(kind, "IV", cycles=1000)`` after one untimed call.

==============  ===========================  ========  ================  ===============  ===================
row             before a visit was one pass  one pass  counters by slot  one GT datapath  one packet datapath
==============  ===========================  ========  ================  ===============  ===================
gt              4 281                        3 500     3 118             1 220            1 219
gt paced        -                            -         2 022             1 294            1 293
packet          8 426                        7 454     6 653             6 645            3 534
packet bench    -                            -         -                 1 113            979
circuit         -                            1 477     1 428             1 420            1 416
circuit bench   -                            3 587     3 093             3 085            3 084
==============  ===========================  ========  ================  ===============  ===================

"One pass" replaced a sampling ``evaluate``, constants booked in every
``commit`` and one ``ActivityCounters.add`` per counter; "by slot" replaced
the dictionary update behind a call with ``slots[SLOT] += n`` at the site and
``toggle_count`` with its masked ``bit_count`` inline; "one GT datapath"
replaced a visit per slot-table router with one compiled gather and scatter
per cycle (the other rows moved by the kernel's sort key); "one packet
datapath" replaced a visit per packet router, flit objects and per-VC
buffer, allocator and arbiter objects with packed-integer flits, flat lists
and wires between routers the datapath itself reads and clears.
"""

from __future__ import annotations

import sys

import pytest

from repro.apps import hiperlan2, umts
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.experiments.harness import run_scenario
from repro.noc import CentralCoordinationNode, Mesh2D, build_network

SIZE = 8
WARMUP_CYCLES = 200
COUNTED_CYCLES = 160
BENCH_CYCLES = 1000

#: Bytecodes per simulated cycle each row may cost.
CEILINGS = {
    "gt": 1700, "gt paced": 1500, "packet": 3820, "packet bench": 1200, "circuit": 1500, "circuit bench": 3250,
}


def _row_fabric(kind):
    network = build_network(kind, Mesh2D(SIZE, SIZE), frequency_hz=100e6)
    for row in range(SIZE):
        network.attach_channel(
            f"row{row}", (0, row), (SIZE - 1, row), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=row), load=1.0,
        )
    return network


def _paced_gt_fabric():
    network = build_network("gt", Mesh2D(6, 6), frequency_hz=100e6)
    ccn, source = CentralCoordinationNode(network=network), word_generator(BitFlipPattern.TYPICAL, seed=11)
    for graph in (hiperlan2.build_process_graph(), umts.build_process_graph()):
        ccn.admit(graph)
        ccn.attach_traffic(graph.name, source, load=0.5)
    return network


def _bytecodes(run):
    """Interpreted bytecodes of one ``run()`` call."""
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
        run()
    finally:
        sys.settrace(previous)
    return executed


def bytecodes_per_cycle(row):
    """Bytecodes per simulated cycle of *row* (a key of :data:`CEILINGS`)."""
    if row.endswith(" bench"):
        def bench():
            run_scenario(row.split()[0], "IV", cycles=BENCH_CYCLES)

        bench()  # imports, caches
        return _bytecodes(bench) / BENCH_CYCLES
    network = _paced_gt_fabric() if row == "gt paced" else _row_fabric(row)
    warmup, counted = (800, 1600) if row == "gt paced" else (WARMUP_CYCLES, COUNTED_CYCLES)
    network.run(warmup)
    return _bytecodes(lambda: network.run(counted)) / counted


cpython_3_11 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are those of CPython 3.11",
)


@cpython_3_11
@pytest.mark.parametrize("kind", ["circuit", "gt", "packet", "gt paced"])
def test_row_fabric_cycle_stays_under_its_bytecode_ceiling(kind):
    assert bytecodes_per_cycle(kind) <= CEILINGS[kind]


@cpython_3_11
def test_circuit_bench_cycle_stays_under_its_bytecode_ceiling():
    assert bytecodes_per_cycle("circuit bench") <= CEILINGS["circuit bench"]


@cpython_3_11
def test_packet_bench_cycle_stays_under_its_bytecode_ceiling():
    assert bytecodes_per_cycle("packet bench") <= CEILINGS["packet bench"]


if __name__ == "__main__":
    for row in sorted(CEILINGS):
        print(f"{row}: {bytecodes_per_cycle(row):.0f} bytecodes per cycle (ceiling {CEILINGS[row]})")
