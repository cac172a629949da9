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
  window holds exactly one burst.  The circuit and GT datapaths run their
  fabrics as the pipe; their rows are there so the word edges and the
  leaps between them cannot regress unseen.
* ``gt paced`` / ``packet paced`` / ``circuit paced`` - the three fabrics of
  ``app_traffic``: HiperLAN/2 and UMTS admitted by a CCN on a 6x6 mesh at
  half load, cycles 800-2400.
* ``circuit bench`` / ``packet bench`` / ``gt bench`` - the paper's own
  single-router bench, ``run_scenario(kind, "IV", cycles=1000)`` after one
  untimed call; ``circuit bench gated`` the same with ``clock_gating=True``
  (Section 7.3).

===================  ===========================  ========  ================  ===============  ===================  =================  =======================  ================  =================  ==============  ==============  =========  ========  =================  ========  ============  =============
row                  before a visit was one pass  one pass  counters by slot  one GT datapath  one packet datapath  one route program  drivers in the datapath  circuit datapath  circuit endpoints  link endpoints  one clock loop  one phase  one pipe  one stream record  GT lines  packet lines  packet groups
===================  ===========================  ========  ================  ===============  ===================  =================  =======================  ================  =================  ==============  ==============  =========  ========  =================  ========  ============  =============
gt                   4 281                        3 500     3 118             1 220            1 219                1 219              1 084                    1 077             1 069              1 072           1 024           1 007      1 009     1 009              283       283           283
gt paced             -                            -         2 022             1 294            1 293                1 293              964                      958               952                958             881             861        863       863                501       501           501
gt bench             -                            -         -                 -                -                    -                  -                        -                 593                592             525             512        514       511                507       507           507
packet               8 426                        7 454     6 653             6 645            3 534                3 534              3 440                    3 438             3 437              3 443           3 419           3 415      3 416     3 416              3 416     509           508
packet paced         -                            -         -                 -                -                    1 859              1 663                    1 654             1 645              1 659           1 590           1 577      1 580     1 579              1 579     1 579         932
packet bench         -                            -         -                 1 113            979                  978                977                      963               949                863             798             785        787       787                787       787           788
circuit              -                            1 477     1 428             1 420            1 416                1 412              1 406                    1 377             1 206              1 191           1 132           1 124      822       827                828       828           828
circuit paced        -                            -         -                 -                -                    -                  -                        2 205             1 828              1 810           1 746           1 738      1 436     1 450              1 453     1 453         1 453
circuit bench        -                            3 587     3 093             3 085            3 084                2 469              2 463                    2 455             2 324              2 323           2 267           2 255      812       824                828       828           828
circuit bench gated  -                            -         -                 -                2 606                1 821              1 812                    1 802             1 718              1 716           1 655           1 644      1 651     1 653              1 653     1 653         1 653
===================  ===========================  ========  ================  ===============  ===================  =================  =======================  ================  =================  ==============  ==============  =========  ========  =================  ========  ============  =============

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
answer, and dropped the unread flag every wire mark stored; "one phase"
deleted the kernel's evaluate phase: each datapath samples at the top of
its one ``commit``; "one pipe" replaced the circuit datapath's per-cycle
walk of a configured route (and the NumPy plane) with a delay line per
route that books each word once, when it loads, and runs only the cycles
with a word edge (the other rows moved by the kernel's ``try``/``finally``
around a cycle); "one stream record" folded the ten stream endpoint classes
into one driver and one sink record; "GT lines" replaced the GT datapath's
per-cycle gather and scatter under ``vector`` with a delay line per
connection and route that books each word once, when its slot pops it
(worked out when its queue's driver next fires), and its toggles and
delivery at ``sync``, so a cycle only fires the drivers due (the circuit
rows moved by one shared call for the pipe's ``next_event_cycle`` answer,
the GT bench by a slot's feeds read in one tuple); "packet lines" replaced
the packet datapath's per-cycle walk of an uncontended stream under
``vector`` with a delay line per stream that books each flit once per hop
from prefix sums at ``sync``, so a cycle only fires the drivers due (the
paced and bench fabrics, whose streams share ports or use outside wires,
still walk); "packet groups" walked only the streams that share an output
port or a source tile and ran every other stream as a line beside them, so
the paced fabric walks 13 of its 36 routers (the packet bench moved by the
walk's test for lines beside it when a driver is due).  The ``packet`` ceiling is the "packet lines"
value + 8 %, ``packet paced`` the "packet groups" value + 8 %, the ``gt``
and ``gt paced`` ceilings the "GT lines" value + 8 %; the GT and packet
bench ceilings and ``circuit bench gated`` the "one phase" value + 8 %; the
other three rows the "one pipe" value + 8 %.
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
    "gt": 306, "gt paced": 541, "gt bench": 552, "packet": 550, "packet paced": 1007, "packet bench": 847,
    "circuit": 887, "circuit paced": 1550, "circuit bench": 876, "circuit bench gated": 1775,
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
