"""Mutation check: every listed source edit must make its tier-1 tests fail.

Each mutant is one exact-text edit of a file under ``src/``.  For every
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary tree, applies the edit there and runs ``pytest -x`` on the tests
named for it.  A mutant is killed when pytest reports a failing test; it
survives when they all pass.  The script exits non-zero if any mutant
survives, or if its text is not found exactly once (an edit that no longer
applies must be updated, not skipped).

    python benchmarks/mutants.py            # every mutant
    python benchmarks/mutants.py NAME ...   # the named ones
    python benchmarks/mutants.py --list     # names and files

A change that deletes a test, a reference or a mechanism keeps every mutant
here dead.  A survivor is a test gap, fixed in the same change, or an
equivalent mutant, removed from the list with the reason recorded.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    #: The edited file, relative to the repository root.
    path: str
    old: str
    new: str
    #: The pytest node ids or modules that must fail, relative to the root.
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "gt-outside-wire",  # a word on an outside wire no longer keeps the GT datapath running
        "src/repro/noc/gt_network.py",
        "        for wire in self._outside_rx:\n"
        "            if wire.forward is not None:\n"
        "                return cycle\n",
        "",
        ("tests/test_gt_network.py::TestScheduleChangesBetweenCycles::test_boundary_frame_word_then_program_after_clear",),
    ),
    Mutant(
        "packet-outside-credit",  # a credit returned on an outside wire no longer keeps the packet datapath running
        "src/repro/baseline/router.py",
        "        for link, _router, _credits, _base in self._outside_tx:\n"
        "            if any(link.credits):\n"
        "                return cycle\n",
        "",
        ("tests/test_baseline_router.py::TestDirectedSwitchAllocation::test_zero_credit_stall_parks_and_resumes_on_the_credit_wake",),
    ),
    Mutant(
        "driver-reschedule",  # a driver that emitted is due again one cycle late
        "src/repro/sim/datapath.py",
        "heapreplace(heap, (emit_from(cycle + 1), number, driver, emit_from))",
        "heapreplace(heap, (emit_from(cycle + 2), number, driver, emit_from))",
        ("tests/test_fabric_datapath.py",),
    ),
    Mutant(
        "unit-owed-from",  # a unit that rests owes its idle cycles from the cycle it stepped
        "src/repro/sim/datapath.py",
        "                    owed[unit] = cycle + 1\n",
        "                    owed[unit] = cycle\n",
        ("tests/test_circuit_reference.py::TestBenchesEqualTheReference",),
    ),
    Mutant(
        "settle-clocked-bits",  # sync books one cycle of clocked register bits too few
        "src/repro/sim/datapath.py",
        "activity.add(_CLOCKED_BITS, bits * cycles)",
        "activity.add(_CLOCKED_BITS, bits * (cycles - 1))",
        ("tests/test_gt_network.py::TestCommitEqualsReference::test_table3_benches_on_external_wires",),
    ),
    Mutant(
        "mark-at-clock-edge",  # a router marked from the latch on books its idle bits one cycle short
        "src/repro/core/router.py",
        "self._book(router, self._parked.pop(router), max(cycle, self._edge))",
        "self._book(router, self._parked.pop(router), cycle)",
        ("tests/test_circuit_reference.py::TestBenchesEqualTheReference",),
    ),
    Mutant(
        "circuit-join-late",  # a mark between the walk and the latch waits for the next cycle
        "src/repro/core/router.py",
        "        if walk is not _NOT_WALKING:\n",
        "        if False:\n",
        ("tests/test_circuit_reference.py::TestFabricsEqualTheReference::test_full_load_rows_with_a_fault",),
    ),
    Mutant(
        "gt-sample-late",  # the GT outside wires are sampled after the drivers fire and the units turn
        "src/repro/noc/gt_network.py",
        "        if from_wires:  # the external wires, sampled before anything drives them\n"
        "            sampled = [wire.forward for _, wire, _, _ in from_wires]\n"
        "        if self.drivers.next_due == cycle:\n"
        "            self.drivers.fire(cycle)\n"
        "        if self._units:  # a bench's link streams: ahead of the scatter, whenever adopted\n"
        "            self._turn(self._units, cycle)\n",
        "        if self.drivers.next_due == cycle:\n"
        "            self.drivers.fire(cycle)\n"
        "        if self._units:\n"
        "            self._turn(self._units, cycle)\n"
        "        if from_wires:\n"
        "            sampled = [wire.forward for _, wire, _, _ in from_wires]\n",
        ("tests/test_gt_network.py::TestCommitEqualsReference::test_table3_benches_on_external_wires",),
    ),
    Mutant(
        "packet-sample-late",  # the packet outside wires are sampled after the units turn
        "src/repro/baseline/router.py",
        "        sampled_flits, sampled_credits = [], []\n"
        "        for record in self._outside_rx:\n"
        "            flit = record[0].forward\n"
        "            if flit is not None:\n"
        "                sampled_flits.append((record, flit))\n"
        "        for link, router, credits, base in self._outside_tx:\n"
        "            wire = link.credits\n"
        "            if any(wire):\n"
        "                sampled_credits.append((router, credits, base, wire[:]))\n"
        "                wire[:] = [0] * len(wire)\n"
        "        if self.drivers.next_due == cycle:\n"
        "            if self._piping:  # lines run beside the walk: they book on the way\n"
        "                self._lines[0].commit(cycle)\n"
        "            else:\n"
        "                self.drivers.fire(cycle)\n"
        "        if self._units:  # a bench's link streams: ahead of the ingest, whenever adopted\n"
        "            self._turn(self._units, cycle)\n",
        "        if self.drivers.next_due == cycle:\n"
        "            if self._piping:  # lines run beside the walk: they book on the way\n"
        "                self._lines[0].commit(cycle)\n"
        "            else:\n"
        "                self.drivers.fire(cycle)\n"
        "        if self._units:\n"
        "            self._turn(self._units, cycle)\n"
        "        sampled_flits, sampled_credits = [], []\n"
        "        for record in self._outside_rx:\n"
        "            flit = record[0].forward\n"
        "            if flit is not None:\n"
        "                sampled_flits.append((record, flit))\n"
        "        for link, router, credits, base in self._outside_tx:\n"
        "            wire = link.credits\n"
        "            if any(wire):\n"
        "                sampled_credits.append((router, credits, base, wire[:]))\n"
        "                wire[:] = [0] * len(wire)\n",
        ("tests/test_baseline_router.py::TestDirectedSwitchAllocation",),
    ),
    Mutant(
        "adopt-inside-cycle",  # a stream endpoint adopted inside a cycle is no longer refused
        "src/repro/sim/datapath.py",
        '        self.refuse_inside_cycle(f"{record.name!r} adopted")\n',
        "",
        ("tests/test_fabric_datapath.py::test_a_driver_adopted_inside_a_cycle_is_refused",),
    ),
    Mutant(
        "drain-before",  # a bench's tile consumer with words waiting no longer keeps the circuit datapath running
        "src/repro/core/router.py",
        "        if self._next or self._drain_before or self._pipe_dirty:\n",
        "        if self._next or self._pipe_dirty:\n",
        ("tests/test_fabric_datapath.py::test_a_bench_tile_consumer_drains_the_cycle_after_a_delivery",),
    ),
    Mutant(
        "pipe-delivery-late",  # the pipe delivers a word one cycle after the walk would
        "src/repro/core/router.py",
        "            arrival = end - 1 + self.d_off\n",
        "            arrival = end + self.d_off\n",
        ("tests/test_vector_plane.py::test_window_stall_and_resume_matches_strict",),
    ),
    Mutant(
        "pipe-toggles-hop-short",  # the pipe books the toggles of one hop too few
        "src/repro/core/router.py",
        "            self.observers.append((k, slots, out_link is not None))\n",
        "            if k > 1:\n"
        "                self.observers.append((k, slots, out_link is not None))\n",
        ("tests/test_vector_plane.py::test_vector_plane_batches_busy_cycles",),
    ),
    Mutant(
        "pipe-ack-early",  # an acknowledge reaches the pipe's source one hop early
        "src/repro/core/router.py",
        "        self.s_off = depth + s_late\n",
        "        self.s_off = depth - 1 + s_late\n",
        ("tests/test_vector_plane.py::test_window_stall_and_resume_matches_strict",),
    ),
    Mutant(
        "pipe-sync-skips-link-wire",  # materialising a line leaves the forward wires behind its registers stale
        "src/repro/core/router.py",
        "                if not out_link.dead:\n"
        "                    out_link.forward[out_lane] = value\n",
        "",
        ("tests/test_vector_plane.py::test_sync_flush_makes_scalar_state_observable",),
    ),
    Mutant(
        "pipe-walkers-skip-events",  # lines laid beside walking routers never load, deliver or acknowledge
        "src/repro/core/router.py",
        "        if self._piping:  # beside the walkers\n"
        "            self._pipe_events(cycle)\n",
        "",
        ("tests/test_vector_plane.py::test_walkers_beside_the_pipe_match_strict_at_every_stop",),
    ),
    Mutant(
        "pipe-walkers-rest",  # the endpoints on a walking route rest when the pipe is laid beside it
        "src/repro/core/router.py",
        "            if unit not in resting and unit not in walk_units:\n",
        "            if unit not in resting:\n",
        ("tests/test_vector_plane.py::test_bench_endpoints_on_walking_routes_step_beside_the_pipe",),
    ),
    Mutant(
        "gt-line-deliver-late",  # a GT line delivers each word one cycle after the compiled cycle would
        "src/repro/noc/gt_lines.py",
        "                    i, j = bisect_left(times, start - k), bisect_right(times, last - k)\n",
        "                    i, j = bisect_left(times, start - k - 1), bisect_right(times, last - k - 1)\n",
        ("tests/test_gt_network.py::TestLinesEqualStrict::test_connections_in_adjacent_slots_of_one_register",),
    ),
    Mutant(
        "gt-line-pair-as-idles",  # two GT lines in adjacent slots of one register book their words as isolated
        "src/repro/noc/gt_lines.py",
        "                                (word ^ after).bit_count() - word.bit_count() - after.bit_count())\n",
        "                                0)\n",
        ("tests/test_gt_network.py::TestLinesEqualStrict::test_connections_in_adjacent_slots_of_one_register",),
    ),
    Mutant(
        "packet-line-deliver-late",  # a packet line books and delivers each flit at the tile one cycle late
        "src/repro/baseline/lines.py",
        "            a, b = hop.done - base, bisect_right(times, last - i)\n",
        "            a, b = hop.done - base, bisect_right(times, last - i - (hop.link is None))\n",
        ("tests/test_baseline_router.py::TestLinesEqualStrict::test_reset_then_rerun",),
    ),
    Mutant(
        "packet-line-first-grant-change",  # a packet line counts a grant change on a port's first grant
        "src/repro/baseline/lines.py",
        "            if hop.grant >= 0 and first != hop.grant:\n",
        "            if first != hop.grant:\n",
        ("tests/test_baseline_router.py::TestLinesEqualStrict::test_reset_then_rerun",),
    ),
    Mutant(
        "packet-line-credit-off-wire",  # a packet line writes back no credit on its wires
        "src/repro/baseline/lines.py",
        "                wire[vc] = 1\n"
        "                returns.append((wire, credits, first + vc, vc, router))\n",
        "                pass\n",
        ("tests/test_baseline_router.py::TestLinesEqualStrict::test_reset_then_rerun",),
    ),
    Mutant(
        "packet-group-steals-queue",  # the walk injects from the tile queue of a line's source router
        "src/repro/baseline/router.py",
        "                self._inject_from(router, _NO_QUEUE)\n",
        "                pass\n",
        ("tests/test_baseline_router.py::TestLinesBesideTheWalk::test_lined_routers_on_a_walked_path",),
    ),
    Mutant(
        "packet-group-ingests-writeback",  # a write-back hands the lines' arrival records to the running walk
        "src/repro/baseline/lines.py",
        "        self.records = moved, arrivals, returns = {}, [], []\n",
        "        self.records = moved, arrivals, returns = {}, self.datapath._arrivals, []\n",
        ("tests/test_baseline_router.py::TestLinesBesideTheWalk::test_the_application_fabric",),
    ),
    Mutant(
        "packet-group-ejection-shared",  # streams into one tile are not grouped by its ejection port
        "src/repro/baseline/lines.py",
        "for router, _in_port, out_port in path]\n",
        "for router, _in_port, out_port in path if out_port]\n",
        ("tests/test_baseline_router.py::TestLinesBesideTheWalk::test_lined_routers_on_a_walked_path",),
    ),
    Mutant(
        "pacer-due-late",  # every paced emission lands one cycle after its credit reaches a packet's worth
        "src/repro/sim/datapath.py",
        "        return cycle + gap - 1\n",
        "        return cycle + gap\n",
        ("tests/test_testbench_drivers.py::TestLoadPacer::test_full_load_emits_every_five_cycles",),
    ),
    Mutant(
        "gt-link-slot-owner",  # a GT link sink credits each word to the stream owning the slot after its own
        "src/repro/noc/gt_network.py",
        "self.received.append(self.slot_owner[(cycle - 1) % self.slots])",
        "self.received.append(self.slot_owner[cycle % self.slots])",
        ("tests/test_gt_network.py::TestSingleRouterScenarios::test_table3_scenarios_deliver_on_the_gt_router",),
    ),
)


def _tree(mutant: Mutant, into: Path) -> None:
    """Copy what the tests need into *into* and apply *mutant* there."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    target = into / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: its text occurs {count} times in {mutant.path}, not once")
    target.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str | None:
    """The first test that fails with the mutant applied (``None``: it survived)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as scratch:
        tree = Path(scratch)
        _tree(mutant, tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        result = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # collection error, usage error, nothing collected
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout[-2000:]}{result.stderr[-2000:]}")
    if result.returncode == 0:
        return None
    failed = [line.split()[1] for line in result.stdout.splitlines() if line.startswith("FAILED ")]
    return failed[0] if failed else "a test"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name:24} {mutant.path}")
        return 0
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        raise SystemExit(f"unknown mutant(s): {', '.join(unknown)}; --list names them")
    survivors = []
    for mutant in [known[name] for name in argv] or MUTANTS:
        start = time.perf_counter()
        killer = run(mutant)
        verdict = f"killed by {killer}" if killer else "SURVIVED"
        print(f"{mutant.name:24} {verdict} ({time.perf_counter() - start:.1f} s)")
        if killer is None:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
