"""Tests for the activity counters and the power model."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.energy.activity import ActivityCounters, ActivityKeys
from repro.energy.area import CircuitSwitchedRouterArea, PacketSwitchedRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP


class TestActivityCounters:
    def test_add_and_get(self):
        activity = ActivityCounters("r")
        activity.add(ActivityKeys.REG_TOGGLE_BITS, 10)
        activity.add(ActivityKeys.REG_TOGGLE_BITS, 5)
        assert activity.get(ActivityKeys.REG_TOGGLE_BITS) == 15

    def test_negative_amounts_rejected(self):
        with pytest.raises(ValueError):
            ActivityCounters().add("x", -1)

    @given(
        toggles=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        events=st.lists(st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(0, 3)), max_size=4),
    )
    def test_add_commit_equals_the_adds_it_stands_for(self, toggles, events):
        """One call per router commit: zero toggle sums book nothing, every
        event pair is an add - a zero amount still creates its key."""
        bulk, single = ActivityCounters("bulk"), ActivityCounters("single")
        for _ in range(2):
            bulk.add_commit(*toggles, events)
            for key, amount in zip((ActivityKeys.REG_TOGGLE_BITS, ActivityKeys.LINK_TOGGLE_BITS), toggles):
                if amount:
                    single.add(key, amount)
            for key, amount in events:
                single.add(key, amount)
        assert bulk.counts == single.counts
        assert all(type(value) is float for value in bulk.counts.values())

    @pytest.mark.parametrize("sums", [(-1, 0, ()), (0, -1, ()), (3, 3, (("x", -1),))])
    def test_add_commit_rejects_negative_amounts(self, sums):
        with pytest.raises(ValueError):
            ActivityCounters().add_commit(*sums)

    def test_per_cycle(self):
        activity = ActivityCounters()
        activity.add("x", 100)
        assert activity.per_cycle("x") == 0.0  # no cycles recorded yet
        activity.cycles = 50
        assert activity.per_cycle("x") == 2.0

    def test_merge_sums_counts_and_maxes_cycles(self):
        a = ActivityCounters("a")
        b = ActivityCounters("b")
        a.add("x", 1)
        a.cycles = 10
        b.add("x", 2)
        b.add("y", 3)
        b.cycles = 20
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 3
        assert a.cycles == 20

    def test_merged_classmethod(self):
        merged = ActivityCounters.merged([ActivityCounters(), ActivityCounters()])
        assert merged.counts == {}

    def test_clock_gating_factor_defaults_to_one(self):
        assert ActivityCounters().clock_gating_factor() == 1.0

    def test_clock_gating_factor_fraction(self):
        activity = ActivityCounters()
        activity.add(ActivityKeys.REG_CLOCKED_BITS, 25)
        activity.add(ActivityKeys.REG_GATED_BITS, 75)
        assert activity.clock_gating_factor() == pytest.approx(0.25)

    def test_reset(self):
        activity = ActivityCounters()
        activity.add("x", 1)
        activity.cycles = 3
        activity.reset()
        assert activity.counts == {}
        assert activity.cycles == 0

    def test_update_from_mapping(self):
        activity = ActivityCounters()
        activity.update_from({"a": 1.0, "b": 2.0})
        assert activity.as_dict() == {"a": 1.0, "b": 2.0}


class TestPowerBreakdown:
    def test_totals(self):
        power = PowerBreakdown(10.0, 100.0, 30.0, frequency_hz=25e6)
        assert power.dynamic_uw == 130.0
        assert power.total_uw == 140.0
        assert power.dynamic_uw_per_mhz == pytest.approx(130.0 / 25.0)

    def test_per_mhz_without_frequency(self):
        assert PowerBreakdown(1.0, 1.0, 1.0).dynamic_uw_per_mhz == 0.0

    def test_addition(self):
        total = PowerBreakdown(1.0, 2.0, 3.0, 25e6) + PowerBreakdown(1.0, 1.0, 1.0, 25e6)
        assert total.total_uw == pytest.approx(9.0)

    def test_total_of(self):
        parts = [PowerBreakdown(1.0, 1.0, 1.0)] * 3
        assert PowerBreakdown.total_of(parts).total_uw == pytest.approx(9.0)

    def test_energy(self):
        power = PowerBreakdown(0.0, 100.0, 0.0)
        assert power.energy_uj(2.0) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            power.energy_uj(-1.0)

    def test_as_dict_keys(self):
        keys = set(PowerBreakdown(1, 2, 3).as_dict())
        assert {"static_uw", "internal_uw", "switching_uw", "total_uw"} <= keys


class TestPowerModel:
    def setup_method(self):
        self.model = PowerModel(TSMC_130NM_LVHP)
        self.cs_area = CircuitSwitchedRouterArea()
        self.ps_area = PacketSwitchedRouterArea()

    def _idle_activity(self, cycles: int = 5000) -> ActivityCounters:
        activity = ActivityCounters()
        activity.cycles = cycles
        return activity

    def test_static_power_proportional_to_area(self):
        cs = self.model.static_power_uw(self.cs_area)
        ps = self.model.static_power_uw(self.ps_area)
        assert ps / cs == pytest.approx(self.ps_area.total_mm2 / self.cs_area.total_mm2)

    def test_idle_power_is_dominated_by_offset(self):
        power = self.model.estimate(self.cs_area, self._idle_activity(), 25e6)
        assert power.switching_uw == 0.0
        assert power.internal_uw > 10 * power.static_uw

    def test_offset_scales_with_frequency(self):
        low = self.model.estimate(self.cs_area, self._idle_activity(), 25e6)
        high = self.model.estimate(self.cs_area, self._idle_activity(), 50e6)
        assert high.internal_uw == pytest.approx(2 * low.internal_uw, rel=0.01)
        assert high.static_uw == pytest.approx(low.static_uw)

    def test_idle_power_ratio_tracks_area_ratio(self):
        cs = self.model.estimate(self.cs_area, self._idle_activity(), 25e6)
        ps = self.model.estimate(self.ps_area, self._idle_activity(), 25e6)
        area_ratio = self.ps_area.total_mm2 / self.cs_area.total_mm2
        assert ps.total_uw / cs.total_uw == pytest.approx(area_ratio, rel=0.05)

    def test_activity_adds_dynamic_power(self):
        idle = self.model.estimate(self.cs_area, self._idle_activity(), 25e6)
        busy_activity = self._idle_activity()
        busy_activity.add(ActivityKeys.REG_TOGGLE_BITS, 50_000)
        busy_activity.add(ActivityKeys.XBAR_TOGGLE_BITS, 30_000)
        busy = self.model.estimate(self.cs_area, busy_activity, 25e6)
        assert busy.total_uw > idle.total_uw
        assert busy.switching_uw > 0

    def test_clock_gating_reduces_offset(self):
        gated_activity = self._idle_activity()
        gated_activity.add(ActivityKeys.REG_CLOCKED_BITS, 100)
        gated_activity.add(ActivityKeys.REG_GATED_BITS, 900)
        gated = self.model.estimate(self.cs_area, gated_activity, 25e6)
        ungated = self.model.estimate(self.cs_area, self._idle_activity(), 25e6)
        assert gated.internal_uw < ungated.internal_uw
        # The non-gateable part (configuration memory) must still be paid for.
        fixed = self.cs_area.total_mm2 - self.cs_area.gateable_area_mm2
        floor = TSMC_130NM_LVHP.clock_power_density_uw_per_mhz_per_mm2 * 25 * fixed
        assert gated.internal_uw >= floor

    def test_buffer_and_arbitration_events_count_for_packet_router(self):
        activity = self._idle_activity()
        activity.add(ActivityKeys.BUFFER_WRITE_BITS, 10_000)
        activity.add(ActivityKeys.BUFFER_READ_BITS, 10_000)
        activity.add(ActivityKeys.ARBITER_DECISIONS, 500)
        activity.add(ActivityKeys.ARBITER_GRANT_CHANGES, 100)
        busy = self.model.estimate(self.ps_area, activity, 25e6)
        idle = self.model.estimate(self.ps_area, self._idle_activity(), 25e6)
        assert busy.internal_uw > idle.internal_uw
        assert busy.switching_uw > idle.switching_uw

    def test_zero_cycles_gives_offset_only(self):
        activity = ActivityCounters()
        power = self.model.estimate(self.cs_area, activity, 25e6, cycles=0)
        assert power.switching_uw == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            self.model.estimate(self.cs_area, self._idle_activity(), 0)
        with pytest.raises(ValueError):
            self.model.estimate(self.cs_area, self._idle_activity(), 25e6, cycles=-1)

    def test_energy_per_bit(self):
        activity = self._idle_activity()
        pj_per_bit = self.model.energy_per_bit_pj(self.cs_area, activity, 25e6, payload_bits=16_000)
        assert pj_per_bit > 0
        with pytest.raises(ValueError):
            self.model.energy_per_bit_pj(self.cs_area, activity, 25e6, payload_bits=0)

    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_power_monotone_in_toggles(self, toggles):
        base_activity = self._idle_activity()
        base = self.model.estimate(self.cs_area, base_activity, 25e6)
        busy_activity = self._idle_activity()
        busy_activity.add(ActivityKeys.REG_TOGGLE_BITS, toggles)
        busy = self.model.estimate(self.cs_area, busy_activity, 25e6)
        assert busy.total_uw >= base.total_uw
