"""Outside-in tracing: spans around the runner's calls, and a layer profiler.

Nothing here touches ``src/``.  :class:`Tracer` is the runner's stopwatch —
one span per public call it makes into the simulator (name, start, end,
parent, workload id), kept in memory and written out when the pass ends.
In a traced run :meth:`Tracer.watch` also puts a span around public calls
the packaged experiments make themselves (``run_storm`` builds its own
fabric and injects its own faults).  :class:`LayerProfiler` is the traced
run's collector: the interpreter's profiler hook gives per-function self
time and call counts, which :func:`attribute` buckets by source file into
the layers of :mod:`spec`.
"""

from __future__ import annotations

import cProfile
import functools
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from spec import layer_of


class _Span:
    __slots__ = ("tracer", "name", "index", "seconds")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else -1
        tracer._open.append(self.index)
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent])
        return self

    def __exit__(self, *_exc) -> None:
        tracer = self.tracer
        record = tracer.spans[self.index]
        record[2] = time.perf_counter()
        self.seconds = record[2] - record[1]
        tracer._open.pop()


class Tracer:
    """In-memory span list: ``[name, start, end, parent index]`` per span."""

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.spans: List[list] = []
        self._open: List[int] = []

    def span(self, name: str) -> _Span:
        """Context manager timing one call into the simulator (``.seconds`` after exit)."""
        return _Span(self, name)

    def watch(self, owner: Any, attribute: str, name: str, results: Optional[list] = None) -> None:
        """Record a span called *name* around every call of ``owner.attribute``
        from now on, whoever makes it; the return values go to *results*.

        For the traced run only: it replaces the attribute of a class or
        module of the simulator for the rest of the process.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def watched(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if results is not None:
                results.append(result)
            return result

        setattr(owner, attribute, watched)

    def durations(self, name: str) -> List[float]:
        """Seconds of every closed span called *name*, in call order."""
        return [end - start for n, start, end, _ in self.spans if n == name and end]

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def write(self, path: Path) -> None:
        """Dump the spans as JSON (called once, when the pass has ended)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload_id": self.workload_id,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "self_s": self.self_times(),
        }
        path.write_text(json.dumps(payload) + "\n")


class LayerProfiler:
    """Per-phase profiler whose function statistics are bucketed by layer.

    One ``cProfile.Profile`` per phase name; :meth:`switch` makes exactly
    one of them the active profiler hook.
    """

    def __init__(self) -> None:
        self._profiles: Dict[str, cProfile.Profile] = {}
        self._active: Optional[str] = None

    def switch(self, phase: Optional[str]) -> Optional[str]:
        """Activate *phase*'s profile (``None`` = off); returns the previous one."""
        previous = self._active
        if previous is not None:
            self._profiles[previous].disable()
        if phase is not None:
            self._profiles.setdefault(phase, cProfile.Profile()).enable()
        self._active = phase
        return previous

    def table(self) -> Dict[str, Dict[str, List[float]]]:
        """``{phase: {layer: [self seconds, calls]}}`` of everything profiled."""
        self.switch(None)
        return {phase: attribute(profile.getstats()) for phase, profile in self._profiles.items()}


def _layer_of_code(code) -> Optional[str]:
    if isinstance(code, str):  # a C built-in: belongs to whoever called it
        return None
    return layer_of(code.co_filename)


def attribute(stats: list) -> Dict[str, List[float]]:
    """``{layer: [self seconds, calls]}`` of one profile.

    A function in a layer's files is charged to that layer.  Helper code — C
    built-ins, ``repro/common.py``, numpy, networkx, the standard library —
    is charged to the layer it was working for: the profiler reports a
    helper's self time per calling function, so a helper called from a layer
    is exact, and a helper called from helpers inherits their callers'
    layers in proportion to the time spent on each call edge.  What no
    layer called is ``other``.  ``calls`` counts a layer's own functions and
    the helpers they call directly: whole numbers that repeat exactly.
    """
    layer = {entry.code: _layer_of_code(entry.code) for entry in stats}
    #: function -> {layer: share}; a layer's own functions are all theirs.
    shares: Dict[Any, Dict[str, float]] = {
        code: {own: 1.0} for code, own in layer.items() if own is not None
    }
    for _ in range(8):  # helper chains are shallow; each round reaches one level deeper
        inherited: Dict[Any, Dict[str, float]] = {}
        for entry in stats:
            mine = shares.get(entry.code)
            for sub in (entry.calls or ()) if mine else ():
                if layer.get(sub.code) is None:
                    blend = inherited.setdefault(sub.code, {})
                    for name, share in mine.items():
                        blend[name] = blend.get(name, 0.0) + share * sub.totaltime
        for code, blend in inherited.items():
            total = sum(blend.values())
            if total > 0:
                shares[code] = {name: weight / total for name, weight in blend.items()}

    rows: Dict[str, List[float]] = {}

    def charge(name: str, seconds: float, calls: int) -> None:
        row = rows.setdefault(name, [0.0, 0])
        row[0] += seconds
        row[1] += calls

    for entry in stats:
        own = layer[entry.code]
        if own is not None:
            charge(own, entry.inlinetime, entry.callcount)
        mine = shares.get(entry.code, {"other": 1.0})
        for sub in entry.calls or ():
            if layer.get(sub.code) is None:
                for name, share in mine.items():
                    charge(name, sub.inlinetime * share, 0)
                charge(own or "other", 0.0, sub.callcount)
    return rows


def fold_layers(table: Dict[str, Dict[str, List[float]]]) -> Dict[str, List[float]]:
    """Sum a per-phase layer table into one ``{layer: [self seconds, calls]}``."""
    total: Dict[str, List[float]] = {}
    for layers in table.values():
        for layer, (seconds, calls) in layers.items():
            row = total.setdefault(layer, [0.0, 0])
            row[0] += seconds
            row[1] += calls
    return total
