"""Turn pass results into named metrics (standard library only).

A pass result is the JSON object of :meth:`harness.Pass.result` plus the
``total_s`` the parent measured around the subprocess.  End-to-end times
are floors over the untraced passes of a run (see :func:`robust_seconds`);
per-layer metrics come from the traced run: stopwatch spans and simulated
counters from its first pass, self time and call counts per layer from its
second, profiled pass.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional

import spec
from spans import fold_layers

Metric = Dict[str, Any]
Phase = Dict[str, Any]


def robust_seconds(phase: Phase, floors: Optional[Phase] = None) -> float:
    """Host seconds of one pass of *phase* on an undisturbed host.

    A phase repeats identical steps, and interference from other tenants of
    the host only ever adds time, so a step costs its fastest sample (taken
    from *floors*, the samples of every pass, when given); the phase costs
    that times the number of times the pass ran the step.
    """
    samples = (floors or phase)["seconds"]
    return sum(len(own) * min(samples[step]) for step, own in phase["seconds"].items())


def raw_seconds(result: Dict[str, Any]) -> float:
    """Wall clock the pass spent inside timed steps."""
    return sum(sum(s) for ph in result["phases"].values() for s in ph["seconds"].values())


def pool(passes: List[Dict[str, Any]]) -> Dict[str, Phase]:
    """Per phase, the step samples of every pass together."""
    pooled: Dict[str, Phase] = {}
    for result in passes:
        for name, phase in result["phases"].items():
            steps = pooled.setdefault(name, {"seconds": {}})["seconds"]
            for step, samples in phase["seconds"].items():
                steps.setdefault(step, []).extend(samples)
    return pooled


def pass_values(result: Dict[str, Any], floors: Dict[str, Phase]) -> Dict[str, float]:
    """The end-to-end metrics of one pass, every step at its floor in *floors*.

    What is not a step (interpreter start, imports, bookkeeping, exit) stays
    as measured; of set-up, the steps the first replay ran before its first
    rated step are at their floors too.
    """
    phases = result["phases"]
    seconds = {name: robust_seconds(phase, floors[name]) for name, phase in phases.items()}
    rated = [name for name, phase in phases.items() if phase["rated"]]
    setup_s = result["setup_s"]
    for step in result["setup_steps"]:
        setup_s += min(floors["overhead"]["seconds"][step]) - phases["overhead"]["seconds"][step][0]
    return {
        "setup_s": setup_s,
        "sim_cycles_per_s": sum(phases[n]["cycles"] for n in rated) / sum(seconds[n] for n in rated),
        "total_s": result["total_s"] - raw_seconds(result) + sum(seconds.values()),
        "peak_rss_mb": (result["rss_self_kib"] + result["rss_children_kib"]) / 1024.0,
    }


def best(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Rows of passes that share their floors differ only in what is not a
    step: take the smallest such remainder.  Memory is the median."""
    return {
        "setup_s": min(row["setup_s"] for row in rows),
        "sim_cycles_per_s": max(row["sim_cycles_per_s"] for row in rows),
        "total_s": min(row["total_s"] for row in rows),
        "peak_rss_mb": statistics.median(row["peak_rss_mb"] for row in rows),
    }


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]``; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, Metric]:
    """Every end-to-end metric of a run.

    ``value`` is the run's estimate: each step at its fastest sample over all
    the passes.  ``passes`` holds one independent estimate per pass, each
    from that pass's own floors alone, and ``q1``/``q3`` are their quartiles:
    the run-to-run spread ``compare.py`` judges by.
    """
    pooled = pool(passes)
    value = best([pass_values(result, pooled) for result in passes])
    alone = [pass_values(result, result["phases"]) for result in passes]
    metrics: Dict[str, Metric] = {}
    for name, unit, better, bound in spec.END_TO_END:
        own = [row[name] for row in alone]
        q1, _, q3 = quartiles(own)
        metrics[name] = {
            "value": value[name], "unit": unit, "better": better, "bound": bound,
            "q1": q1, "q3": q3, "passes": own,
        }
    return metrics


def _p50_ms(spans: Dict[str, List[float]], name: str) -> float:
    values = spans.get(name)
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: Dict[str, Any], profiled: Optional[Dict[str, Any]]) -> Dict[str, Metric]:
    """Every per-layer metric of :data:`spec.PER_LAYER`; 0 where a layer is idle.

    *plain* is the traced run's pass without the profiler, *profiled* the one with.
    """
    spans = plain["spans_s"]
    sched = plain["scheduler"]
    counters = plain["counters"]
    phases = plain["phases"]
    values: Dict[str, float] = {}

    layers = fold_layers(profiled["layers"]) if profiled else {}
    for layer in spec.LAYERS:
        seconds, calls = layers.get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.calls"] = calls

    for name in ("evaluated", "skipped", "leaps", "leaped_cycles", "events_processed", "heap_peak"):
        values[f"sim.engine.{name}"] = sched[name]
    values["sim.engine.occupancy"] = sched["occupancy"] if sched["evaluated"] else 0.0
    windows = [
        s for ph in phases.values() for step, samples in ph["seconds"].items()
        if step.startswith("window") for s in samples
    ]
    if len(windows) >= 2:
        cuts = statistics.quantiles(windows, n=20)
        values["sim.engine.window_ms_p50"] = statistics.median(windows) * 1e3
        values["sim.engine.window_ms_p95"] = cuts[18] * 1e3
    values["sim.vector.batches"] = sched["vector_batches"]
    values["sim.vector.components"] = sched["vector_components"]
    values["sim.vector.batch_coverage"] = _ratio(
        sched["vector_batches"], counters.get("vector_cycles", 0)
    )

    for kind in spec.KINDS:
        mine = [ph for ph in phases.values() if ph["kind"] == kind]
        seconds = sum(robust_seconds(ph) for ph in mine)
        values[f"kind.{kind}.cycles_per_s"] = _ratio(sum(ph["cycles"] for ph in mine), seconds)
        carrying = [ph for ph in mine if ph["words"]]  # phases that count delivered words
        values[f"kind.{kind}.us_per_word"] = _ratio(
            sum(robust_seconds(ph) for ph in carrying) * 1e6, sum(ph["words"] for ph in carrying)
        )

    sent = counters.get("words_sent", 0)
    received = counters.get("words_received", 0)
    values["endpoints.words_sent"] = sent
    values["endpoints.words_received"] = received
    values["endpoints.delivery_ratio"] = _ratio(received, sent)

    values["noc.fabric.build_ms"] = sum(spans.get("build", ())) * 1e3
    values["noc.fabric.attach_ms_p50"] = _p50_ms(spans, "attach")
    values["energy.report_ms"] = sum(spans.get("report", ())) * 1e3

    values["noc.ccn.admit_ms_p50"] = _p50_ms(spans, "admit")
    values["noc.ccn.release_ms_p50"] = _p50_ms(spans, "release")
    values["noc.ccn.handle_fault_ms_p50"] = _p50_ms(spans, "handle_fault")
    values["noc.ccn.admits"] = counters.get("admits", 0)
    values["noc.ccn.rejects"] = counters.get("rejects", 0)
    values["noc.ccn.releases"] = counters.get("releases", 0)
    ccn_calls = [s for name in ("admit", "release", "handle_fault") for s in spans.get(name, ())]
    values["noc.ccn.ops_per_s"] = _ratio(len(ccn_calls), sum(ccn_calls))
    values["noc.ccn.select_first_ms"] = _p50_ms(spans, "select_first")
    values["noc.ccn.select_repeat_ms"] = _p50_ms(spans, "select_repeat")

    displaced = counters.get("displaced", 0)
    values["noc.faults.inject_ms_p50"] = _p50_ms(spans, "inject")
    values["noc.faults.faults"] = counters.get("faults", 0)
    values["noc.faults.displaced"] = displaced
    values["noc.faults.readmitted"] = counters.get("readmitted", 0)
    values["noc.faults.readmit_ratio"] = _ratio(counters.get("readmitted", 0), displaced)
    values["noc.faults.recovery_cycles"] = counters.get("recovery_cycles", 0)

    sharded = phases.get("sharded")
    values["sim.shard.start_ms"] = counters.get("shard.start_ms", 0)
    values["sim.shard.close_ms"] = sum(spans.get("close", ())) * 1e3
    values["sim.shard.parent_run_s"] = sum(map(sum, sharded["seconds"].values())) if sharded else 0.0
    values["sim.shard.worker_cpu_s"] = plain["children_cpu_s"]
    values["sim.shard.frames_sent"] = sched["frames_sent"]
    values["sim.shard.frame_bytes"] = sched["frame_bytes"]
    values["sim.shard.exchange_windows"] = sched["exchange_windows"]
    for name in ("bytes_per_window", "pipe_bytes_per_window", "overlap_hit_ratio", "host_cpus"):
        values[f"sim.shard.{name}"] = counters.get(f"shard.{name}", 0)
    if sharded:  # same windows, same cycles: the speed-up is the ratio of the times
        values["sim.shard.speedup_vs_single"] = robust_seconds(phases["single"]) / robust_seconds(sharded)

    for name in ("max_rel_err_pct", "power_ratio", "area_ratio"):
        values[f"paper.{name}"] = counters.get(f"paper.{name}", 0)
    values["trace.overhead_x"] = _ratio(profiled["total_s"], plain["total_s"]) if profiled else 0.0

    return {
        name: {"value": values.get(name, 0), "unit": unit, "better": better}
        for name, unit, better in spec.PER_LAYER
    }


def operations(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Correctness operations over several passes: attempted, failed, failures.

    A pass that raised counts the operations its sibling passes of the same
    role performed and it never reached as failed, plus the exception itself.
    """
    attempted = 0
    failures: List[str] = []
    expected: Dict[str, set] = {}
    for result in results:
        expected.setdefault(result["role"], set()).update(name for name, _, _ in result["checks"])
    for result in results:
        done = {name for name, _, _ in result["checks"]}
        attempted += len(result["checks"])
        failures += [f"{name}: {detail}" for name, ok, detail in result["checks"] if not ok]
        if result["error"]:
            missed = sorted(expected[result["role"]] - done)
            attempted += 1 + len(missed)
            failures.append("exception: " + result["error"].strip().splitlines()[-1])
            failures += [f"{name}: not reached" for name in missed]
    return {"attempted": attempted, "failed": len(failures), "failures": failures}
