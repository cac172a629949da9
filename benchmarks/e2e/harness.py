"""One pass of one workload: stopwatch, phases, correctness operations.

A pass runs inside a fresh subprocess (``run.py --role pass …``): set-up,
one untimed warm-up window, the timed steps, report extraction and
teardown.  :class:`Pass` is what the workload functions in
:mod:`workloads` talk to; its :meth:`Pass.result` is the JSON object the
parent process aggregates.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from spans import LayerProfiler, Tracer


def digest_of(payload: Any) -> str:
    """SHA-256 over the canonical JSON of simulated statistics.

    ``json`` writes floats with ``repr`` (shortest round-trip), so two runs
    agree on the digest exactly when every counter and every float agrees
    to the last bit.
    """
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot(network: Any) -> Dict[str, Any]:
    """The simulated statistics of one fabric that every schedule must share."""
    return {
        "activity": network.merged_activity().as_dict(),
        "streams": network.stream_statistics(),
        "energy_pj_per_bit": network.energy_per_delivered_bit_pj(),
        "cycle": network.kernel.cycle,
    }


def words_received(network: Any) -> int:
    return sum(stats["received"] for stats in network.stream_statistics().values())


@dataclass
class Steady:
    """A steady phase: *windows* public ``run(window)`` calls on one fabric."""

    name: str
    kind: Optional[str]
    network: Any
    window: int
    windows: int
    #: False for a reference phase that is timed but not part of the workload's rate.
    rated: bool = True
    #: Delivered words when the first timed window started.
    received_before: int = 0


class Pass:
    """Stopwatch, phase bookkeeping and correctness operations of one pass."""

    def __init__(
        self,
        workload: str,
        seed: int,
        quick: bool,
        traced: bool,
        profiled: bool,
        started_at: float,
        golden: Optional[Dict[str, str]],
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        #: True in the traced run: workloads may ``tracer.watch`` the simulator.
        self.traced = traced
        self.started_at = started_at
        self.golden = golden
        self.tracer = Tracer(f"{workload}/seed{seed}")
        self.profiler = LayerProfiler() if profiled else None
        self.setup_s: Optional[float] = None
        #: Ids of the overhead steps that ran before the first rated step.
        self.setup_steps: List[str] = []
        #: phase -> {"kind", "rated", "cycles", "seconds": {step id: [samples]}, "words"}
        self.phases: Dict[str, Dict[str, Any]] = {}
        self.checks: List[List[Any]] = []
        self.digests: Dict[str, str] = {}
        #: Simulated counts and facts the per-layer metrics are built from.
        self.counters: Dict[str, float] = {}
        self.scheduler: List[Any] = []
        self.error: Optional[str] = None
        #: name -> how many overhead calls of that name the current replay has made.
        self._overheads: Dict[str, int] = {}
        if self.profiler is not None:
            self.profiler.switch("setup")

    # -- sizes ------------------------------------------------------------------

    def scaled(self, count: int) -> int:
        """*count* repetitions at full size, a tenth (at least 2) under ``--quick``."""
        return max(2, count // 10) if self.quick else count

    # -- stopwatch ----------------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Charge the traced run's profile to *name* while the block runs."""
        if self.profiler is None:
            yield
            return
        previous = self.profiler.switch(name)
        try:
            yield
        finally:
            self.profiler.switch(previous)

    def first_window(self) -> None:
        """Set-up ends here: everything before the first timed window."""
        if self.setup_s is None:
            self.setup_s = time.time() - self.started_at
            self.setup_steps = list(self.phases.get("overhead", {}).get("seconds", ()))

    def step(
        self,
        phase: str,
        kind: Optional[str],
        step_id: str,
        sim_cycles: int,
        fn: Callable[..., Any],
        *args: Any,
        rated: bool = True,
        **kwargs: Any,
    ) -> Any:
        """Time one public call as step *step_id* of *phase*.

        A phase repeats identical steps (same id, same simulated content),
        so the fastest sample of a step is its time on an undisturbed host.
        The first rated step ends set-up.
        """
        if rated:
            self.first_window()
        record = self.phases.setdefault(
            phase, {"kind": kind, "rated": rated, "cycles": 0, "seconds": {}, "words": 0}
        )
        with self.phase(phase), self.span(f"step:{phase}") as span:
            result = fn(*args, **kwargs)
        record["seconds"].setdefault(step_id, []).append(span.seconds)
        record["cycles"] += sim_cycles
        return result

    def replays(self, count: int) -> Iterator[int]:
        """The replays of a pass: each repeats the same calls in the same order."""
        for replay in range(count):
            self._overheads.clear()
            yield replay

    def overhead(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Time a set-up, report or teardown call: a span called *name*, and an
        unrated step (the n-th *name* of the replay) so ``total_s`` gets its floor."""
        index = self._overheads[name] = self._overheads.get(name, 0) + 1
        with self.span(name):
            return self.step("overhead", None, f"{name}#{index}", 0, fn, *args, rated=False, **kwargs)

    def steady(self, phases: List[Steady]) -> None:
        """Warm each fabric up (untimed), then time its windows.

        The phases are interleaved round-robin, one window each in turn, so
        a slow spell of the host is spread over all of them.  A window's step
        id is its index: a workload replays the same fabric several times,
        and window *i* simulates the same cycles in every replay.
        """
        for phase in phases:
            self.overhead("warmup", phase.network.run, phase.window)
            phase.received_before = words_received(phase.network)
        for index in range(max(phase.windows for phase in phases)):
            for phase in phases:
                if index < phase.windows:
                    self.step(
                        phase.name, phase.kind, f"window{index}", phase.window,
                        phase.network.run, phase.window, rated=phase.rated,
                    )

    # -- counters -----------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_streams(self, streams: Dict[str, Dict[str, int]]) -> None:
        self.count("words_sent", sum(s["sent"] for s in streams.values()))
        self.count("words_received", sum(s["received"] for s in streams.values()))

    # -- correctness operations ---------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """One attempted correctness operation."""
        self.checks.append([name, bool(ok), "" if ok else detail])
        return bool(ok)

    def record_digest(self, scenario: str, payload: Any) -> str:
        """Digest *payload*; at the default seed compare it with the golden file."""
        digest = digest_of(payload)
        self.digests[scenario] = digest
        if self.golden is not None:
            want = self.golden.get(scenario)
            self.check(
                f"golden:{scenario}",
                digest == want,
                f"digest {digest[:12]} differs from golden {str(want)[:12]}",
            )
        return digest

    def check_delivery(self, scenario: str, streams: Dict[str, Dict[str, int]], tolerance: int) -> None:
        """Every stream delivered (almost) all it sent; the rest is in flight."""
        late = {
            name: (s["sent"], s["received"])
            for name, s in streams.items()
            if s["sent"] - s["received"] > tolerance or (s["sent"] > 0 and s["received"] == 0)
        }
        self.check(f"delivery:{scenario}", not late, f"undelivered beyond {tolerance} words: {late}")

    def report(self, phase: Steady, tolerance: int) -> Dict[str, Any]:
        """Extract the user-visible report of one fabric and check it."""
        network = phase.network
        self.overhead("report", network.total_power)
        snap = self.overhead("report", snapshot, network)
        self.record_digest(phase.name, snap)
        self.check_delivery(phase.name, snap["streams"], tolerance)
        self.count_streams(snap["streams"])
        self.scheduler.append(network.kernel.scheduler_stats)
        received = sum(stream["received"] for stream in snap["streams"].values())
        self.phases[phase.name]["words"] += received - phase.received_before
        return snap

    # -- result ---------------------------------------------------------------------

    def run(self, body: Callable[["Pass"], None]) -> None:
        """Run the workload; an exception fails the operations it never reached."""
        try:
            body(self)
        except Exception:  # boundary: the run must go on to report the failure
            self.error = traceback.format_exc()

    def result(self) -> Dict[str, Any]:
        from repro.sim.stats import SchedulerStats

        layers = self.profiler.table() if self.profiler is not None else None
        merged = SchedulerStats.merged(self.scheduler)
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        spans: Dict[str, List[float]] = {}
        for name, start, end, _ in self.tracer.spans:
            if not name.startswith("step:"):
                spans.setdefault(name, []).append(end - start)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "quick": self.quick,
            "traced": self.traced,
            "setup_s": self.setup_s,
            "setup_steps": self.setup_steps,
            "phases": self.phases,
            "spans_s": spans,
            "scheduler": merged.as_dict(),
            "counters": self.counters,
            "checks": self.checks,
            "digests": self.digests,
            "error": self.error,
            "layers": layers,
            "rss_self_kib": own.ru_maxrss,
            "rss_children_kib": children.ru_maxrss,
            "children_cpu_s": children.ru_utime + children.ru_stime,
        }
