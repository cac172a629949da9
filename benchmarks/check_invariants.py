"""The invariants CI checks beyond the test suite, one subcommand per step.

    python benchmarks/check_invariants.py [storm] [kernel] [e2e [WORKLOAD ...]] [shards]

``storm`` and ``kernel`` read the committed ``BENCH_storm.json`` and
``BENCH_kernel.json``; with no subcommand, those two run.  ``e2e`` runs one
``--quick`` pass of each named end-to-end workload (by default the four
fabric workloads CI runs) and requires ``correct`` with nothing failed.
``shards`` builds every kind single-process and sharded and requires equal
``network.snapshot()`` results.  Runs from any directory; ``src`` is put on
the import path.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: The workloads CI runs ``e2e`` on: saturated_vector (the pipe runs it),
#: app_traffic and saturated_default (three kinds under the default schedule:
#: timed tier / packet and GT routers at full load) and churn_storm (the
#: control plane's workload); paper_repro runs in the e2e smoke tests.
E2E_WORKLOADS = ("saturated_vector", "app_traffic", "saturated_default", "churn_storm")


def check_storm() -> None:
    """BENCH_storm.json: recover or reject, zero leaks, schedule identity."""
    data = json.loads((ROOT / "BENCH_storm.json").read_text())
    campaigns = data["campaigns"]
    assert len(campaigns) == 3, "expected one storm campaign per network kind"
    for row in campaigns:
        kind = row["kind"]
        assert row["recovered_or_rejected"], f"{kind}: application silently lost"
        assert row["leak_free"], f"{kind}: resources leaked after the storm"
        assert row["identical_results"], f"{kind}: strict vs default diverged under faults"
        assert len(row["faults"]) == data["storm_size"], f"{kind}: missing fault"
        assert row["displaced"] >= 1, f"{kind}: storm displaced nobody"
        assert row["displaced"] == row["readmitted"] + row["displaced_rejected"], (
            f"{kind}: displaced applications unaccounted for"
        )
        # The drain predicate is exact: a fabric with nothing of the
        # displaced application in flight recovers in zero cycles.
        assert row["recovery_cycles"] >= 0, f"{kind}: negative recovery time"
    assert any(row["recovery_cycles"] > 0 for row in campaigns), "no kind had anything to drain"


def check_kernel(data: dict | None = None) -> None:
    """BENCH_kernel.json (or the record *data* about to replace it): strict ==
    vector identity, speedups, the recorded rows around the retired plane's
    gate, sharded equivalence."""
    if data is None:
        data = json.loads((ROOT / "BENCH_kernel.json").read_text())
    # identical_results: strict == vector on every row, no exceptions.
    assert all(r["identical_results"] for r in data["results"]), "schedule divergence"
    low = [
        r for r in data["results"]
        if r["mesh"] == "8x8" and r["occupancy"] <= 0.25
    ]
    assert low and all(r["speedup"] >= 3.0 for r in low), "8x8 low-occupancy speedup < 3x"
    paced = [
        r for r in data["results"]
        if r["scenario"] == "paced-stream" and r["mesh"] == "8x8" and r["occupancy"] == 0.25
    ]
    assert paced, "paced-stream 8x8 row missing"
    assert all(r["speedup"] >= 8.0 for r in paced), "paced-stream leap speedup < 8x"
    assert all(r["leaps"] > 0 for r in paced), "paced-stream row never leapt"
    full = [
        r for r in data["results"]
        if r["scenario"] == "row-stream" and r["mesh"] == "8x8" and r["occupancy"] == 1.0
    ]
    assert full, "full-load 8x8 row missing"
    # 0.6x of the recorded full-load vector/strict ratio.
    target = data["speedup_target_vector_full_load"]
    assert all(r["speedup"] >= target for r in full), f"full-load vector speedup < {target}x"
    assert all(r["vector_batches"] > 0 for r in full), "full-load vector row never batched"
    assert data["default_schedule"] == "vector", "the bench header names another default"
    busy = [r for r in data["results"] if "vector_batches" in r and r["occupancy"] > 0]
    assert len(busy) >= 12, "busy schedule rows are missing"
    # The file was recorded under the retired plane's live-route gate, with
    # busy rows on both sides of it: below, the routers ran their own
    # programs; at and above, batches.
    gate = data["min_batch_routes"]
    assert {6, 8} <= {r["live_routes"] for r in busy}, "the rows at 6 and 8 live routes are missing"
    below = [r for r in busy if r["live_routes"] < gate]
    above = [r for r in busy if r["live_routes"] >= gate]
    assert below and all(r["vector_batches"] == 0 for r in below), "no busy row below the gate"
    assert above and all(r["vector_batches"] > 0 for r in above), "a row at the gate never batched"
    sharded = [r for r in data["results"] if r["scenario"] == "sharded"]
    assert sharded, "sharded 16x16 row missing"
    for r in sharded:
        # Bit-identity binds everywhere; the wall-clock bar only on
        # hosts whose recorded core count can physically provide it.
        assert r["identical_results"], "sharded run diverged from single process"
        assert r["workers"] >= 4, "sharded row ran with fewer than 4 workers"
        if r["host_cpus"] is not None and r["host_cpus"] >= 4:
            assert r["speedup"] >= 2.0, "sharded speedup < 2x on a >=4-core host"
    transport = [r for r in data["results"] if r["scenario"] == "shard-transport"]
    by_mesh = {}
    for r in transport:
        assert r["identical_results"], (
            f"{r['transport']} transport on {r['mesh']} diverged from single process"
        )
        by_mesh.setdefault(r["mesh"], {})[r["transport"]] = r
    assert "16x16" in by_mesh, "shard-transport 16x16 rows missing"
    for mesh, rows in by_mesh.items():
        assert set(rows) == {"pipe", "shm"}, f"{mesh}: missing a transport row"
        pipe, shm = rows["pipe"], rows["shm"]
        # Same frames over the same windows, strictly fewer bytes:
        # the struct-packed rings must beat pickled frame payloads.
        assert shm["frames_sent"] == pipe["frames_sent"], f"{mesh}: frame count differs"
        assert shm["exchange_windows"] == pipe["exchange_windows"], (
            f"{mesh}: window count differs"
        )
        assert 0 < shm["frame_bytes_per_window"] < pipe["frame_bytes_per_window"], (
            f"{mesh}: shm transport does not move fewer bytes per window"
        )
        assert shm["overlap_hits"] > 0, f"{mesh}: double-buffering never hid a window"


def check_e2e(*workloads: str) -> None:
    """One quick pass per end-to-end workload: correct and nothing failed."""
    for workload in workloads or E2E_WORKLOADS:
        run = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--quick"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print(run.stdout, end="", flush=True)
        assert run.returncode == 0, f"{workload}: run.py exited {run.returncode}"
        result = json.loads(run.stdout.splitlines()[-1])
        assert result["correct"] is True, result
        assert result["failed"] == 0, result


def check_shards() -> None:
    """Every kind, 2 and 4 shards, both transports, min-cut, vector: bit-identical."""
    from repro.apps.traffic import BitFlipPattern, word_generator
    from repro.noc.fabric import build_network
    from repro.noc.topology import Mesh2D

    def scenario(kind, shards=None, **extra):
        kwargs = {"frequency_hz": 100e6, **extra}
        if shards:
            kwargs["shards"] = shards
        network = build_network(kind, Mesh2D(4, 4), **kwargs)
        for index, (src, dst) in enumerate([((0, 0), (3, 3)), ((3, 0), (0, 3))]):
            network.attach_channel(
                f"ch{index}", src, dst, 100.0,
                word_generator(BitFlipPattern.TYPICAL, seed=index),
            )
        network.run(400)
        snapshot = network.snapshot()
        if shards:
            network.close()
        return snapshot

    for kind in ("circuit", "packet", "gt"):
        reference = scenario(kind)
        for shards in (2, 4):
            for transport in ("pipe", "shm"):
                assert scenario(kind, shards, transport=transport) == reference, (
                    f"{kind} over {transport} with {shards} shards "
                    f"diverged from the single process"
                )
            assert scenario(kind, shards, partition_mode="mincut") == reference, (
                f"{kind} with {shards} min-cut shards diverged from the single process"
            )
        # The reference runs the default (vector) schedule: it must equal
        # strict, single-process and with a per-shard plane over both
        # transports.
        assert scenario(kind, schedule="strict") == reference, (
            f"{kind}: the default schedule diverged from strict"
        )
        for transport in ("pipe", "shm"):
            assert scenario(kind, 2, transport=transport,
                            schedule="vector") == reference, (
                f"{kind} sharded vector run over {transport} diverged"
            )
        print(f"{kind}: 2- and 4-shard runs bit-identical "
              f"(pipe, shm, min-cut partition, vector schedule)")


CHECKS = {"storm": check_storm, "kernel": check_kernel, "e2e": check_e2e, "shards": check_shards}


def main(argv: list[str]) -> None:
    """Run each subcommand of *argv* with the arguments up to the next one."""
    if not argv:
        argv = ["storm", "kernel"]
    if argv[0] not in CHECKS:
        raise SystemExit(f"usage: check_invariants.py [{'|'.join(CHECKS)} [args]] ...")
    commands = []
    for word in argv:
        if word in CHECKS:
            commands.append((word, []))
        else:
            commands[-1][1].append(word)
    for name, args in commands:
        CHECKS[name](*args)
        print(f"{name}: invariants hold")


if __name__ == "__main__":
    main(sys.argv[1:])
