"""A cost floor that does not depend on the host's clock.

The packet and GT phases are what the three-kind workloads of
``benchmarks/e2e`` spend their time in, and this host's wall clock moves
1.2-1.9x within minutes, so the floor is a count: interpreted bytecodes
(``sys.settrace`` with ``f_trace_opcodes``) per simulated cycle, which repeats
exactly on one interpreter version, hence the CPython 3.11 gate.  Ten rows:

* ``gt`` / ``packet`` / ``circuit`` - the warmed 8x8 row fabrics of
  ``saturated_default`` (one full-load west-to-east channel per row) under
  the default schedule, cycles 200-360.  The packet fabric is bursty (every
  row sends one 17-flit packet per 256 cycles, all rows at once): that
  window holds exactly one burst.  The circuit fabric batches in NumPy; its
  row is there so the plane's fold and the word edges cannot regress unseen.
* ``gt paced`` / ``packet paced`` / ``circuit paced`` - the three fabrics of
  ``app_traffic``: HiperLAN/2 and UMTS admitted by a CCN on a 6x6 mesh at
  half load, cycles 800-2400.
* ``circuit bench`` / ``packet bench`` / ``gt bench`` - the paper's own
  single-router bench, ``run_scenario(kind, "IV", cycles=1000)`` after one
  untimed call; ``circuit bench gated`` the same with ``clock_gating=True``
  (Section 7.3).

===================  ===========================  ========  ================  ===============  ===================  =================  =======================  ================  =================  ==============  ==============
row                  before a visit was one pass  one pass  counters by slot  one GT datapath  one packet datapath  one route program  drivers in the datapath  circuit datapath  circuit endpoints  link endpoints  one clock loop
===================  ===========================  ========  ================  ===============  ===================  =================  =======================  ================  =================  ==============  ==============
gt                   4 281                        3 500     3 118             1 220            1 219                1 219              1 084                    1 077             1 069              1 072           1 024
gt paced             -                            -         2 022             1 294            1 293                1 293              964                      958               952                958             881
gt bench             -                            -         -                 -                -                    -                  -                        -                 593                592             525
packet               8 426                        7 454     6 653             6 645            3 534                3 534              3 440                    3 438             3 437              3 443           3 419
packet paced         -                            -         -                 -                -                    1 859              1 663                    1 654             1 645              1 659           1 590
packet bench         -                            -         -                 1 113            979                  978                977                      963               949                863             798
circuit              -                            1 477     1 428             1 420            1 416                1 412              1 406                    1 377             1 206              1 191           1 132
circuit paced        -                            -         -                 -                -                    -                  -                        2 205             1 828              1 810           1 746
circuit bench        -                            3 587     3 093             3 085            3 084                2 469              2 463                    2 455             2 324              2 323           2 267
circuit bench gated  -                            -         -                 -                2 606                1 821              1 812                    1 802             1 718              1 716           1 655
===================  ===========================  ========  ================  ===============  ===================  =================  =======================  ================  =================  ==============  ==============

"One pass" replaced a sampling ``evaluate``, constants booked in every
``commit`` and one ``ActivityCounters.add`` per counter; "by slot" replaced
the dictionary update behind a call with ``slots[SLOT] += n`` at the site and
``toggle_count`` with its masked ``bit_count`` inline; "one GT datapath"
replaced a visit per slot-table router with one compiled gather and scatter
per cycle (the other rows moved by the kernel's sort key); "one packet
datapath" replaced a visit per packet router, flit objects and per-VC
buffer, allocator and arbiter objects with packed-integer flits, flat lists
and wires between routers the datapath itself reads and clears; "one route
program" replaced the circuit router's sampling, crossbar, drive and
converter passes with one compiled record walk per phase, a converter that
ticks only its live lanes and stream endpoints that read their wire lists;
"drivers in the datapath" replaced the GT and packet tile stream drivers'
kernel components with records each datapath fires from its own due-ordered
heap, and the kernel's per-component protocol flag with one question;
"circuit datapath" replaced a kernel component per circuit router with one
datapath walking their route programs from per-router tuples, and the
kernel's compaction of its awake list after every cycle with a rebuild only
when a component slept; "circuit endpoints" replaced the circuit stream
endpoints' kernel components with records their lane datapath runs (drivers
from its heap, link-side lane units walked while they move, tile consumers
drained after a delivery) and deleted the kernel's commit-phase replay;
"link endpoints" did the same for the GT and packet link stream endpoints
of the benches (one adoption and unit protocol in the datapath skeleton,
every driver rescheduled through its pacer's ``emit_from``); "one clock
loop" replaced the kernel's event heap, wake network and cycle hooks with
one ``next_event_cycle`` question per cycle and a leap to the earliest
answer, and dropped the unread flag every wire mark stored.  The bench and paced ceilings are the "one clock loop" value + 8 %.
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
    "gt": 1700, "gt paced": 951, "gt bench": 567, "packet": 3820, "packet paced": 1717, "packet bench": 861,
    "circuit": 1500, "circuit paced": 1885, "circuit bench": 2448, "circuit bench gated": 1787,
}


def _row_fabric(kind):
    network = build_network(kind, Mesh2D(SIZE, SIZE), frequency_hz=100e6)
    for row in range(SIZE):
        network.attach_channel(
            f"row{row}", (0, row), (SIZE - 1, row), 100.0,
            word_generator(BitFlipPattern.TYPICAL, seed=row), load=1.0,
        )
    return network


def _paced_fabric(kind):
    network = build_network(kind, Mesh2D(6, 6), frequency_hz=100e6)
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
    if " bench" in row:
        kind, _, gated = row.partition(" bench")
        options = {"clock_gating": True} if gated else {}

        def bench():
            run_scenario(kind, "IV", cycles=BENCH_CYCLES, **options)

        bench()  # imports, caches
        return _bytecodes(bench) / BENCH_CYCLES
    kind, paced, _ = row.partition(" paced")
    network = _paced_fabric(kind) if paced else _row_fabric(kind)
    warmup, counted = (800, 1600) if paced else (WARMUP_CYCLES, COUNTED_CYCLES)
    network.run(warmup)
    return _bytecodes(lambda: network.run(counted)) / counted


cpython_3_11 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are those of CPython 3.11",
)


@cpython_3_11
@pytest.mark.parametrize("kind", ["circuit", "gt", "packet", "gt paced", "packet paced", "circuit paced"])
def test_row_fabric_cycle_stays_under_its_bytecode_ceiling(kind):
    assert bytecodes_per_cycle(kind) <= CEILINGS[kind]


@cpython_3_11
def test_circuit_bench_cycle_stays_under_its_bytecode_ceiling():
    assert bytecodes_per_cycle("circuit bench") <= CEILINGS["circuit bench"]


@cpython_3_11
def test_gated_circuit_bench_cycle_stays_under_its_bytecode_ceiling():
    assert bytecodes_per_cycle("circuit bench gated") <= CEILINGS["circuit bench gated"]


@cpython_3_11
def test_packet_bench_cycle_stays_under_its_bytecode_ceiling():
    assert bytecodes_per_cycle("packet bench") <= CEILINGS["packet bench"]


@cpython_3_11
def test_gt_bench_cycle_stays_under_its_bytecode_ceiling():
    assert bytecodes_per_cycle("gt bench") <= CEILINGS["gt bench"]


if __name__ == "__main__":
    for row in sorted(CEILINGS):
        print(f"{row}: {bytecodes_per_cycle(row):.0f} bytecodes per cycle (ceiling {CEILINGS[row]})")
