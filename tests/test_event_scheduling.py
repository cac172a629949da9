"""Drawn scenarios: the strict and the default schedule leave one snapshot.

:mod:`tests.test_kernel_equivalence` pins the curated scenarios; this
module stresses the same invariant on scenarios drawn from
:func:`conftest.fabric_scenarios` — kind × mesh / torus / irregular × 1–8
channels × load × mid-run churn × live fault × gate side — and compares
them through :func:`oracle.assert_schedules_identical`.  Eight seeds pin
eight draws by number, hypothesis draws more, and a live fault on two
crossing channels is pinned per kind.  A second family checks that the
default schedule itself is deterministic: running the identical scenario
twice — mid-run stream removal and a live link fault, the operations that
delete heap entries, included — reproduces the same snapshot *and* the
same heap statistics.  ("Trimodal" in the test names is from when three
schedules were compared; two are now.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import KINDS, FabricScenario, drawn, fabric_scenarios
from oracle import assert_identical, assert_schedules_identical
from repro.noc.topology import Mesh2D


def _live_fault(kind):
    """Two crossing channels on a 4×2 mesh whose middle link dies mid-run."""
    channels = [((0, 0), (3, 0), 100.0, 0.7), ((3, 1), (0, 1), 100.0, 0.4)]
    return FabricScenario(Mesh2D(4, 2), channels, 500, (250, (1, 0), (2, 0), False), None, kind=kind)


@pytest.mark.parametrize("seed", range(8))
def test_random_scenarios_are_trimodal_identical(seed):
    assert_schedules_identical(drawn(fabric_scenarios(max_cycles=400), seed))


@settings(max_examples=20, deadline=None)
@given(scenario=fabric_scenarios(max_cycles=400))
def test_drawn_scenarios_are_identical(scenario):
    assert_schedules_identical(scenario)


@pytest.mark.parametrize("kind", KINDS)
def test_live_fault_mid_run_is_trimodal_identical(kind):
    """A live link fault deletes wire state and strands heap predictions;
    both schedules agree on what the degraded fabric delivers."""
    assert_schedules_identical(_live_fault(kind))


@pytest.mark.parametrize("kind", KINDS)
def test_event_heap_is_deterministic_under_removal(kind):
    """The identical churn-and-fault scenario twice under the default
    schedule reproduces the observables *and* the heap statistics —
    component removal (lazy heap deletion) and fault injection introduce no
    ordering dependent on anything but the scenario."""
    channels = [((0, 0), (3, 1), 100.0, 0.6), ((3, 0), (0, 1), 100.0, 0.3)]
    scenario = FabricScenario(Mesh2D(4, 2), channels, 550, (400, (1, 0), (2, 0), False), None,
                              kind=kind, churn=(250, 32))

    def heap(network):
        stats = network.kernel.scheduler_stats
        return stats.events_processed, stats.heap_peak

    networks = assert_identical(scenario, {"first": {}, "second": {}}, extra_state=heap)
    assert heap(networks["first"])[0] > 0  # the default schedule actually ran off the heap
