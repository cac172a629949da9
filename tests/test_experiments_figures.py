"""Tests for the Figure 9 / Figure 10 reproductions and the scenario harness.

The full paper-length runs (5000 cycles each) live in ``benchmarks/``; here the
same harnesses are exercised with shorter runs — the qualitative claims are
already stable after ~1500 cycles because the power is dominated by per-cycle
quantities, not by the run length.
"""

from __future__ import annotations

import pytest

from repro.apps.traffic import BitFlipPattern
from repro.experiments.figure9 import reproduce_figure9, format_report as figure9_report
from repro.experiments.figure10 import FLIP_PERCENTAGES, reproduce_figure10, format_report as figure10_report
from repro.experiments.harness import run_circuit_scenario, run_packet_scenario, run_scenario

CYCLES = 1500


class TestHarness:
    def test_scenario_i_has_no_traffic(self):
        run = run_circuit_scenario("I", cycles=CYCLES)
        assert run.words_sent == {} and run.words_received == {}
        assert run.power.switching_uw == 0.0

    def test_scenario_iv_transports_all_three_streams(self):
        run = run_circuit_scenario("IV", cycles=CYCLES)
        assert set(run.words_sent) == {1, 2, 3}
        assert run.delivery_ok()
        assert run.transported_bytes > 0

    def test_packet_scenario_iv_transports_all_three_streams(self):
        run = run_packet_scenario("IV", cycles=CYCLES)
        assert set(run.words_sent) == {1, 2, 3}
        assert run.delivery_ok(tolerance_words=48)

    def test_paper_volume_at_full_length(self):
        """The paper's 200 µs / 25 MHz run transports 2 kB per stream."""
        run = run_circuit_scenario("II", cycles=5000)
        assert run.words_sent[1] == 1000  # 1000 words x 16 bit = 2 kB
        assert run.duration_s == pytest.approx(200e-6)

    def test_dispatch_by_name(self):
        assert run_scenario("cs", "I", cycles=200).router_kind == "circuit_switched"
        assert run_scenario("packet", "I", cycles=200).router_kind == "packet_switched"
        with pytest.raises(Exception):
            run_scenario("bus", "I", cycles=200)

    def test_load_scales_traffic(self):
        full = run_circuit_scenario("II", cycles=CYCLES, load=1.0)
        half = run_circuit_scenario("II", cycles=CYCLES, load=0.5)
        assert half.words_sent[1] == pytest.approx(full.words_sent[1] / 2, abs=2)

    def test_clock_gating_flag_reduces_power(self):
        gated = run_circuit_scenario("II", cycles=CYCLES, clock_gating=True)
        ungated = run_circuit_scenario("II", cycles=CYCLES, clock_gating=False)
        assert gated.power.total_uw < ungated.power.total_uw
        assert gated.delivery_ok()  # gating must not break the data path

    @pytest.mark.xfail(
        strict=True,
        reason="clock-gated acknowledge registers latch by output lane: the source's window runs dry (ROADMAP)",
    )
    @pytest.mark.parametrize("scenario", ["II", "III", "IV"])
    def test_clock_gating_delivers_what_the_ungated_router_delivers(self, scenario):
        """``delivery_ok`` above compares received with *sent* words, and an
        offer the full serialiser queue drops is never sent: a stalled gated
        stream passes it.  Gated II sends 12 words and delivers 8 where the
        ungated router delivers 198; in III and IV the streams entering at
        a neighbour port deliver 8."""
        gated = run_circuit_scenario(scenario, cycles=1000, clock_gating=True)
        ungated = run_circuit_scenario(scenario, cycles=1000)
        assert gated.words_received == ungated.words_received


class TestFigure9:
    @pytest.fixture(scope="class")
    def data(self):
        return reproduce_figure9(cycles=CYCLES)

    def test_all_sixteen_bars_present(self, data):
        assert len(data.rows) == 8  # 2 routers x 4 scenarios
        routers = {row["router"] for row in data.rows}
        assert routers == {"circuit_switched", "packet_switched"}

    def test_power_ratio_close_to_3_5(self, data):
        for scenario, ratio in data.power_ratio_by_scenario.items():
            assert 2.5 <= ratio <= 4.5, (scenario, ratio)
        assert data.mean_power_ratio == pytest.approx(3.5, abs=0.7)

    def test_power_increases_with_concurrent_streams(self, data):
        by_key = {(r["router"], r["scenario"]): r["total_uw"] for r in data.rows}
        for router in ("circuit_switched", "packet_switched"):
            assert by_key[(router, "I")] <= by_key[(router, "II")]
            assert by_key[(router, "II")] <= by_key[(router, "III")]
            assert by_key[(router, "III")] <= by_key[(router, "IV")]

    def test_static_power_is_small_fraction(self, data):
        for row in data.rows:
            assert row["static_uw"] < 0.15 * row["total_uw"]

    def test_qualitative_checks_pass(self, data):
        assert all(data.checks.values()), data.checks

    def test_report_renders(self, data):
        text = figure9_report(data)
        assert "Figure 9" in text and "PASS" in text


class TestFigure10:
    @pytest.fixture(scope="class")
    def data(self):
        return reproduce_figure10(cycles=CYCLES)

    def test_all_series_present(self, data):
        assert len(data.series) == 8  # 2 routers x 4 scenarios
        for values in data.series.values():
            assert set(values) == set(FLIP_PERCENTAGES)

    def test_bit_flips_have_minor_influence(self, data):
        """Section 7.3: dynamic power changes by well under 50 % across the
        whole 0 %...100 % bit-flip range, for every router and scenario."""
        for (router, scenario), values in data.series.items():
            spread = max(values.values()) / min(values.values())
            assert spread < 1.5, (router, scenario, values)

    def test_stream_count_matters_more_than_flips(self, data):
        for router in ("circuit_switched", "packet_switched"):
            added_streams = data.series[(router, "IV")][50] - data.series[(router, "I")][50]
            added_flips = abs(
                data.series[(router, "IV")][100] - data.series[(router, "IV")][0]
            )
            assert added_streams > added_flips, router

    def test_packet_router_dynamic_power_is_higher_everywhere(self, data):
        for scenario in ("I", "II", "III", "IV"):
            for flip in FLIP_PERCENTAGES:
                cs = data.series[("circuit_switched", scenario)][flip]
                ps = data.series[("packet_switched", scenario)][flip]
                assert ps > 2.5 * cs

    def test_worst_case_not_below_best_case(self, data):
        for values in data.series.values():
            assert values[100] >= values[0] * 0.999

    def test_qualitative_checks_pass(self, data):
        assert all(data.checks.values()), data.checks

    def test_rows_and_report(self, data):
        rows = data.rows()
        assert len(rows) == 8
        assert "dyn_uw_per_mhz_0pct" in rows[0]
        assert "Figure 10" in figure10_report(data)
