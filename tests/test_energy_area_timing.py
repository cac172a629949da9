"""Tests for the area and timing models (Table 4 calibration and scaling)."""

from __future__ import annotations

import pytest

from repro.energy.area import (
    AetherealRouterArea,
    CircuitSwitchedRouterArea,
    PacketSwitchedRouterArea,
)
from repro.energy.synthesis import area_ratio, synthesize_router, table4_results
from repro.energy.timing import (
    CircuitSwitchedTiming,
    PacketSwitchedTiming,
    link_bandwidth_gbps,
)
from repro.experiments.paper_data import TABLE4_PAPER

#: Calibration tolerance for the published component areas (DESIGN.md §7).
AREA_TOLERANCE = 0.08
FREQ_TOLERANCE = 0.05


class TestCircuitSwitchedArea:
    def setup_method(self):
        self.area = CircuitSwitchedRouterArea()

    def test_geometry_matches_paper(self):
        assert self.area.total_lanes == 20
        assert self.area.crossbar_inputs_per_output == 16
        assert self.area.config_entry_bits == 5
        assert self.area.config_memory_bits == 100
        assert self.area.phits_per_packet == 5

    def test_component_areas_close_to_table4(self):
        paper = TABLE4_PAPER["circuit_switched"]
        breakdown = self.area.breakdown()
        assert breakdown["crossbar"] == pytest.approx(paper["area_crossbar_mm2"], rel=AREA_TOLERANCE)
        assert breakdown["configuration"] == pytest.approx(
            paper["area_configuration_mm2"], rel=AREA_TOLERANCE
        )
        assert breakdown["data_converter"] == pytest.approx(
            paper["area_data_converter_mm2"], rel=AREA_TOLERANCE
        )
        assert breakdown["total"] == pytest.approx(paper["total_area_mm2"], rel=0.05)

    def test_gateable_area_excludes_configuration(self):
        total = self.area.total_mm2
        gateable = self.area.gateable_area_mm2
        config = self.area.breakdown()["configuration"]
        assert gateable == pytest.approx(total - config)

    def test_totals_are_computed_once_per_model(self, monkeypatch):
        calls = []
        components = CircuitSwitchedRouterArea.components
        monkeypatch.setattr(
            CircuitSwitchedRouterArea, "components",
            lambda model: calls.append(model) or components(model),
        )
        first = (self.area.total_mm2, self.area.gateable_area_mm2, self.area.total_gate_equivalents)
        for _ in range(10):
            again = (self.area.total_mm2, self.area.gateable_area_mm2, self.area.total_gate_equivalents)
            assert again == first
        assert len(calls) == 3
        # The memo belongs to the instance: another design point has its own.
        assert CircuitSwitchedRouterArea(lanes_per_port=8).total_mm2 > first[0]

    def test_area_grows_with_lanes(self):
        wider = CircuitSwitchedRouterArea(lanes_per_port=8)
        assert wider.total_mm2 > self.area.total_mm2

    def test_area_grows_with_lane_width(self):
        wider = CircuitSwitchedRouterArea(lane_width=8)
        assert wider.total_mm2 > self.area.total_mm2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitSwitchedRouterArea(num_ports=1)
        with pytest.raises(ValueError):
            CircuitSwitchedRouterArea(lane_width=0)


class TestPacketSwitchedArea:
    def setup_method(self):
        self.area = PacketSwitchedRouterArea()

    def test_component_areas_close_to_table4(self):
        paper = TABLE4_PAPER["packet_switched"]
        breakdown = self.area.breakdown()
        assert breakdown["crossbar"] == pytest.approx(paper["area_crossbar_mm2"], rel=AREA_TOLERANCE)
        assert breakdown["buffering"] == pytest.approx(paper["area_buffering_mm2"], rel=AREA_TOLERANCE)
        assert breakdown["arbitration"] == pytest.approx(
            paper["area_arbitration_mm2"], rel=0.15
        )
        assert breakdown["misc"] == pytest.approx(paper["area_misc_mm2"], rel=0.15)
        assert breakdown["total"] == pytest.approx(paper["total_area_mm2"], rel=0.05)

    def test_buffering_dominates(self):
        breakdown = self.area.breakdown()
        assert breakdown["buffering"] > breakdown["crossbar"]
        assert breakdown["buffering"] > 0.5 * breakdown["total"]

    def test_area_grows_with_fifo_depth_and_vcs(self):
        assert PacketSwitchedRouterArea(fifo_depth=16).total_mm2 > self.area.total_mm2
        assert PacketSwitchedRouterArea(num_vcs=8).total_mm2 > self.area.total_mm2

    def test_no_component_is_gateable(self):
        assert self.area.gateable_area_mm2 == 0.0


class TestAethereal:
    def test_published_total(self):
        area = AetherealRouterArea()
        assert area.total_mm2 == pytest.approx(0.175)
        assert area.num_ports == 6
        assert area.data_width == 32


class TestTiming:
    def test_circuit_frequency_close_to_paper(self):
        timing = CircuitSwitchedTiming()
        assert timing.max_frequency_mhz() == pytest.approx(1075.0, rel=FREQ_TOLERANCE)

    def test_packet_frequency_close_to_paper(self):
        timing = PacketSwitchedTiming()
        assert timing.max_frequency_mhz() == pytest.approx(507.0, rel=FREQ_TOLERANCE)

    def test_circuit_is_faster_than_packet(self):
        assert CircuitSwitchedTiming().max_frequency_mhz() > 1.8 * PacketSwitchedTiming().max_frequency_mhz()

    def test_more_lanes_slow_the_crossbar_down(self):
        default = CircuitSwitchedTiming()
        wider = CircuitSwitchedTiming(lanes_per_port=8)
        assert wider.max_frequency_mhz() < default.max_frequency_mhz()

    def test_critical_path_stages_are_reported(self):
        path = CircuitSwitchedTiming().critical_path()
        assert "crossbar_mux" in path.stages
        assert path.total_fo4 > 0
        packet_path = PacketSwitchedTiming().critical_path()
        assert "switch_arbitration" in packet_path.stages
        assert packet_path.total_fo4 > path.total_fo4

    def test_link_bandwidth(self):
        assert link_bandwidth_gbps(16, 1075) == pytest.approx(17.2, rel=0.01)
        assert link_bandwidth_gbps(16, 507) == pytest.approx(8.1, rel=0.01)
        with pytest.raises(ValueError):
            link_bandwidth_gbps(0, 100)


class TestSynthesis:
    def test_table4_has_three_routers(self):
        results = {r.router for r in table4_results()}
        assert results == {"circuit_switched", "packet_switched", "aethereal"}

    def test_area_ratio_matches_headline_claim(self):
        assert 3.0 <= area_ratio() <= 4.0

    def test_bandwidths_match_table4(self):
        by_name = {r.router: r for r in table4_results()}
        assert by_name["circuit_switched"].link_bandwidth_gbps == pytest.approx(17.2, rel=0.05)
        assert by_name["packet_switched"].link_bandwidth_gbps == pytest.approx(8.1, rel=0.05)
        assert by_name["aethereal"].link_bandwidth_gbps == pytest.approx(16.0, rel=0.01)

    def test_synthesize_router_aliases(self):
        assert synthesize_router("cs").router == "circuit_switched"
        assert synthesize_router("ps").router == "packet_switched"
        assert synthesize_router("aethereal").router == "aethereal"

    def test_unknown_router_kind_rejected(self):
        with pytest.raises(ValueError):
            synthesize_router("token_ring")

    def test_result_as_dict_contains_components(self):
        result = synthesize_router("circuit")
        flat = result.as_dict()
        assert "area_crossbar_mm2" in flat
        assert flat["router"] == "circuit_switched"
