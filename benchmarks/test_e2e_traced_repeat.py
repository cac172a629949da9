"""Two traced quick runs of the end-to-end benchmark repeat, layer by layer.

Stand-in for ``benchmarks/e2e/test_e2e_smoke.py::
test_two_quick_traced_runs_repeat_digests_and_call_counts``, which CI
deselects: its last assertion expects ``sim.vector.calls == 0`` on
``app_traffic`` and ``saturated_default``, which failed while the default
schedule ran the NumPy plane of ``sim/vector.py`` there (that file is gone
with the plane), and files under ``benchmarks/e2e/`` change only in a
benchmark-only PR (ROADMAP, "Smaller items").  Everything else that test
checks — digests and every exact count repeat on all five workloads, the
idle layers stay idle — is checked here, with the circuit datapath's pipe
counted in ``sim.vector.batches`` wherever the default schedule runs it.
Delete this file when that test is updated.

Not part of tier-1; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_e2e_traced_repeat.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import spec  # noqa: E402
from test_e2e_smoke import document  # noqa: E402

#: Workloads whose circuit fabric the pipe runs (saturated_vector names the
#: vector schedule, the others take the default).
BATCHED = ("app_traffic", "saturated_default", "saturated_vector")


def test_two_quick_traced_runs_repeat_digests_and_exact_counts(tmp_path):
    first = document(tmp_path, "--quick", "--trace")
    second = document(tmp_path, "--quick", "--trace", "1")
    assert first["last_line"]["correct"] is True and first["last_line"]["failed"] == 0
    for name in spec.WORKLOADS:
        a, b = first["runs"][name], second["runs"][name]
        assert set(a["metrics"]) == {m[0] for m in spec.PER_LAYER}, name
        assert a["digests"] == b["digests"], name
        for metric, value in a["metrics"].items():
            if spec.is_exact(metric):
                assert value["value"] == b["metrics"][metric]["value"], (name, metric)
        assert a["metrics"]["trace.overhead_x"]["value"] > 1.0
        if name != "saturated_vector":
            assert a["metrics"]["sim.shard.calls"]["value"] == 0, name
        assert a["metrics"]["sim.vector.calls"]["value"] == 0, name  # no sim/vector.py left
        if name in BATCHED:
            assert a["metrics"]["sim.vector.batches"]["value"] > 0, name
    # No ranking of the kinds' rates here: whether the circuit fabric keeps
    # up is ``sim.vector.batches > 0`` above (the cycles its pipe ran).
