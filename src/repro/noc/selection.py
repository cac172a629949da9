"""Per-application fabric selection: score every network kind, pick the cheapest.

Section 4's argument is that the *same* guaranteed-throughput demand costs
very differently on the three fabrics: the circuit-switched router spends the
least energy per bit and its 10-bit lane commands make reconfiguration cheap;
the Æthereal-style slot-table router pays more energy and must ship aligned
slot-table writes; the packet-switched router needs no configuration at all
but buys that flexibility with buffering/arbitration energy.  A run-time
resource manager choosing a fabric *per application* therefore has a real
trade to make — this module makes that trade explicit.

:class:`FabricSelector` evaluates one :class:`~repro.apps.kpn.ProcessGraph`
per candidate kind by running the full CCN lifecycle on a scratch network:
admit (feasibility, mapping, allocation, configuration-command accounting),
attach the bandwidth-paced word streams and simulate a short probe window.
Each :class:`FabricCandidate` then carries a *measured* energy per delivered
payload bit, the analytic reconfiguration time of the admission and a
rejection reason when the kind cannot carry the application at all; the
selector ranks the feasible candidates by a weighted score (energy dominates,
reconfiguration time tie-breaks at one pJ/bit per millisecond by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.kpn import ProcessGraph
from repro.apps.traffic import BitFlipPattern, word_generator
from repro.common import AllocationError, MappingError, ReproError
from repro.noc.ccn import CentralCoordinationNode
from repro.noc.fabric import build_network, resolve_network_kind
from repro.noc.topology import Topology
from repro.sim.engine import DEFAULT_SCHEDULE

__all__ = ["FabricCandidate", "FabricDecision", "FabricSelector"]


@dataclass
class FabricCandidate:
    """Scorecard of one network kind for one application."""

    kind: str
    feasible: bool
    energy_pj_per_bit: float = float("inf")
    reconfiguration_time_s: float = 0.0
    configuration_commands: int = 0
    configuration_bits: int = 0
    words_delivered: int = 0
    rejection_reason: str = ""

    def score(self, reconfig_weight_pj_per_ms: float = 1.0) -> float:
        """Weighted cost (lower is better); infeasible kinds score infinity."""
        if not self.feasible:
            return float("inf")
        return self.energy_pj_per_bit + reconfig_weight_pj_per_ms * (
            self.reconfiguration_time_s * 1e3
        )


@dataclass
class FabricDecision:
    """Outcome of scoring every candidate kind for one application."""

    application: str
    chosen_kind: Optional[str]
    candidates: List[FabricCandidate] = field(default_factory=list)

    @property
    def rejections(self) -> int:
        """Number of candidate kinds that could not carry the application."""
        return sum(1 for c in self.candidates if not c.feasible)

    def candidate(self, kind: str) -> FabricCandidate:
        """The scorecard of one canonical kind."""
        for candidate in self.candidates:
            if candidate.kind == kind:
                return candidate
        raise ReproError(f"no candidate of kind {kind!r} was evaluated")


class FabricSelector:
    """Scores applications on every candidate fabric and picks the cheapest.

    Parameters
    ----------
    topology:
        Router fabric the scratch networks are built on.
    kinds:
        Candidate kinds (any :func:`~repro.noc.fabric.build_network` alias).
    frequency_hz / probe_cycles / load / seed:
        Probe-simulation operating point: every kind carries the identical
        bandwidth-paced word streams for *probe_cycles* network cycles.
    reconfig_weight_pj_per_ms:
        How many pJ/bit one millisecond of reconfiguration time is worth in
        the score (energy dominates with the default 1.0 — the measured
        energy gaps between the kinds are far larger).

    Probe results are cached per ``(application, topology, kind)``: the
    probe simulation is deterministic, so re-scoring an application that
    arrives again (churn) is a dictionary lookup — cheap enough to run on
    every arrival inside the dynamic workload engine.  The application is
    identified by its graph name (one graph per name everywhere in this
    code base); assigning a new :attr:`topology` invalidates the whole
    cache, as does :meth:`invalidate_cache`.
    """

    def __init__(
        self,
        topology: Topology,
        kinds: Sequence[str] = ("circuit", "packet", "gt"),
        frequency_hz: float = 100e6,
        probe_cycles: int = 1200,
        load: float = 0.5,
        seed: int = 0,
        reconfig_weight_pj_per_ms: float = 1.0,
        schedule: str = DEFAULT_SCHEDULE,
    ) -> None:
        if probe_cycles < 1:
            raise ValueError("probe_cycles must be positive")
        self._cache: Dict[Tuple[str, str], FabricCandidate] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.topology = topology
        self.kinds = tuple(kinds)
        self.frequency_hz = frequency_hz
        self.probe_cycles = probe_cycles
        self.load = load
        self.seed = seed
        self.reconfig_weight_pj_per_ms = reconfig_weight_pj_per_ms
        self.schedule = schedule

    # -- probe cache -----------------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """Fabric the scratch probes are built on; assignment drops the cache."""
        return self._topology

    @topology.setter
    def topology(self, topology: Topology) -> None:
        self._topology = topology
        self.invalidate_cache()

    def invalidate_cache(self) -> None:
        """Drop every cached probe result (topology changed, models retuned)."""
        self._cache.clear()

    # -- scoring ---------------------------------------------------------------------------

    def evaluate(self, graph: ProcessGraph, kind: str) -> FabricCandidate:
        """Run the full CCN lifecycle for *graph* on a scratch network of *kind*.

        Deterministic, so the result is cached per (application, topology,
        kind); repeated arrivals of the same application cost one dictionary
        lookup per kind.
        """
        canonical = resolve_network_kind(kind).kind
        key = (graph.name, canonical)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        candidate = self._probe(graph, kind, canonical)
        self._cache[key] = candidate
        return candidate

    def _probe(self, graph: ProcessGraph, kind: str, canonical: str) -> FabricCandidate:
        """The uncached probe: scratch network, CCN lifecycle, short simulation."""
        network = build_network(
            kind, self.topology, frequency_hz=self.frequency_hz, schedule=self.schedule
        )
        ccn = CentralCoordinationNode(network=network)
        try:
            admission = ccn.admit(graph)
        except (MappingError, AllocationError) as error:
            return FabricCandidate(canonical, feasible=False, rejection_reason=str(error))
        generator = word_generator(BitFlipPattern.TYPICAL, seed=self.seed)
        ccn.attach_traffic(graph.name, generator, load=self.load)
        network.run(self.probe_cycles)
        delivered = sum(
            stats["received"] for stats in network.stream_statistics().values()
        )
        return FabricCandidate(
            kind=canonical,
            feasible=True,
            energy_pj_per_bit=network.energy_per_delivered_bit_pj(),
            reconfiguration_time_s=admission.reconfiguration_time_s,
            configuration_commands=admission.configuration_commands,
            configuration_bits=admission.configuration_bits,
            words_delivered=delivered,
        )

    def select(self, graph: ProcessGraph) -> FabricDecision:
        """Score every candidate kind and pick the cheapest feasible one."""
        candidates = [self.evaluate(graph, kind) for kind in self.kinds]
        feasible = [c for c in candidates if c.feasible]
        chosen = (
            min(feasible, key=lambda c: c.score(self.reconfig_weight_pj_per_ms)).kind
            if feasible
            else None
        )
        return FabricDecision(graph.name, chosen, candidates)
