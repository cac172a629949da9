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
        "mark-at-clock-edge",  # a router marked at a clock edge books its idle bits one cycle short
        "src/repro/core/router.py",
        'self._book(router, self._parked.pop(router), cycle + (phase == "commit"))',
        "self._book(router, self._parked.pop(router), cycle)",
        ("tests/test_circuit_reference.py::TestBenchesEqualTheReference",),
    ),
    Mutant(
        "drain-before",  # a bench's tile consumer with words waiting no longer keeps the circuit datapath running
        "src/repro/core/router.py",
        "        if self._next or self._drain_before or self._units and len(self._resting) < len(self._units):\n",
        "        if self._next or self._units and len(self._resting) < len(self._units):\n",
        ("tests/test_fabric_datapath.py::test_a_bench_tile_consumer_drains_the_cycle_after_a_delivery",),
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
