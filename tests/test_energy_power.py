"""Tests for the activity counters and the power model."""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

import pytest
from hypothesis import given, strategies as st

from repro.energy import activity as activity_module
from repro.energy.activity import LINK_TOGGLE_BITS, SLOT_KEYS, ActivityCounters, ActivityKeys
from repro.energy.area import CircuitSwitchedRouterArea, PacketSwitchedRouterArea
from repro.energy.power import PowerBreakdown, PowerModel
from repro.energy.technology import TSMC_130NM_LVHP


@dataclass
class _DictCounters:
    """The dictionary-backed counters the slot list replaced, verbatim (less
    ``add_commit``, which left with its callers): the reference of the
    property below."""

    name: str = "activity"
    cycles: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("activity amounts must be non-negative")
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def get(self, key: str, default: float = 0.0) -> float:
        return self.counts.get(key, default)

    def per_cycle(self, key: str) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.get(key) / self.cycles

    def merge(self, other: "_DictCounters") -> None:
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + value
        self.cycles = max(self.cycles, other.cycles)

    @classmethod
    def merged(cls, counters: Iterable["_DictCounters"], name: str = "merged") -> "_DictCounters":
        result = cls(name)
        for item in counters:
            result.merge(item)
        return result

    def clock_gating_factor(self) -> float:
        clocked = self.get(ActivityKeys.REG_CLOCKED_BITS)
        gated = self.get(ActivityKeys.REG_GATED_BITS)
        total = clocked + gated
        if total <= 0:
            return 1.0
        return clocked / total

    def as_dict(self) -> Dict[str, float]:
        return dict(sorted(self.counts.items()))

    def reset(self) -> None:
        self.counts.clear()
        self.cycles = 0

    def update_from(self, mapping: Mapping[str, float]) -> None:
        for key, value in mapping.items():
            self.add(key, value)


#: The sixteen, two names that sort around them and one in their middle.
_KEYS = st.sampled_from(SLOT_KEYS + ("a.outside", "link.z", "zz"))
_AMOUNTS = st.one_of(st.integers(0, 40), st.sampled_from([0.0, -0.0, 0.1, 2.5, 1e17]))
_ADDS = st.lists(st.tuples(_KEYS, _AMOUNTS), max_size=6)
_OPERATIONS = st.one_of(
    st.tuples(st.just("add"), _KEYS, _AMOUNTS),
    st.tuples(st.just("slot"), st.integers(0, len(SLOT_KEYS) - 1), st.integers(0, 40)),
    st.tuples(st.just("merge"), _ADDS, st.integers(0, 50)),
    st.tuples(st.just("update_from"), st.dictionaries(_KEYS, _AMOUNTS, max_size=4)),
    st.tuples(st.just("cycles"), st.integers(0, 50)),
    st.tuples(st.just("reset")),
)


def _bits(counters):
    """``as_dict()`` in key order with every value's exact bits (tells -0.0 from 0.0)."""
    counts = counters.as_dict()
    assert all(type(value) is float for value in counts.values())
    return [(key, value.hex()) for key, value in counts.items()]


@given(st.lists(_OPERATIONS, max_size=12))
def test_slots_book_what_the_dictionary_booked(operations):
    """By-name adds (zero amounts, names outside the sixteen, repeats), direct
    slot adds, ``merge``, ``update_from``, ``reset``: same keys, same floats."""
    slots, reference = ActivityCounters("r"), _DictCounters("r")
    for name, *arguments in operations:
        if name == "slot":
            slot, amount = arguments
            slots.slots[slot] += amount
            reference.add(SLOT_KEYS[slot], amount)
        elif name == "merge":
            adds, cycles = arguments
            others = ActivityCounters("o", cycles), _DictCounters("o", cycles)
            for other in others:
                for key, amount in adds:
                    other.add(key, amount)
            slots.merge(others[0])
            reference.merge(others[1])
        elif name == "cycles":
            slots.cycles = reference.cycles = arguments[0]
        else:
            getattr(slots, name)(*arguments)
            getattr(reference, name)(*arguments)
        assert _bits(slots) == _bits(reference)
    assert slots.cycles == reference.cycles
    assert slots.clock_gating_factor().hex() == reference.clock_gating_factor().hex()
    for key in SLOT_KEYS + ("a.outside", "never.added"):
        assert slots.get(key, 7.0).hex() == reference.get(key, 7.0).hex()
        assert slots.per_cycle(key).hex() == reference.per_cycle(key).hex()


class TestActivityCounters:
    def test_add_and_get(self):
        activity = ActivityCounters("r")
        activity.add(ActivityKeys.REG_TOGGLE_BITS, 10)
        activity.add(ActivityKeys.REG_TOGGLE_BITS, 5)
        assert activity.get(ActivityKeys.REG_TOGGLE_BITS) == 15

    def test_negative_amounts_rejected(self):
        with pytest.raises(ValueError):
            ActivityCounters().add("x", -1)

    @pytest.mark.parametrize("key", [ActivityKeys.REG_TOGGLE_BITS, "x"])
    def test_every_by_name_entry_point_rejects_a_negative_amount(self, key):
        """Slot or overflow: a negative amount would also break the presence rule."""
        activity = ActivityCounters()
        with pytest.raises(ValueError):
            activity.add(key, -1)
        with pytest.raises(ValueError):
            activity.update_from({key: -0.5})
        with pytest.raises(ValueError):
            ActivityCounters(counts={key: -1})
        assert activity.as_dict() == {}

    def test_every_key_has_its_slot(self):
        names = [name for name in vars(ActivityKeys) if name.isupper()]
        slots = {name: getattr(activity_module, name) for name in names}
        assert sorted(slots.values()) == list(range(len(SLOT_KEYS))) == list(range(16))
        assert all(SLOT_KEYS[slot] == getattr(ActivityKeys, name) for name, slot in slots.items())

    def test_pickle_keeps_untouched_slots_absent(self):
        """Shard workers ship counters to ``ShardedNetwork.merged_activity``."""
        activity = ActivityCounters("r", cycles=7, counts={ActivityKeys.CONFIG_WRITES: 0, "x": 2})
        activity.slots[LINK_TOGGLE_BITS] += 3
        copy = pickle.loads(pickle.dumps(activity))
        assert copy == activity and copy.cycles == 7
        assert copy.as_dict() == {"config.writes": 0.0, "link.toggle_bits": 3.0, "x": 2.0}
        copy.slots[LINK_TOGGLE_BITS] += 1
        assert copy != activity

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
        assert merged.as_dict() == {}

    def test_merged_holds_exactly_the_union_of_the_keys(self):
        parts = [
            ActivityCounters(counts={ActivityKeys.REG_TOGGLE_BITS: 0, "x": 1}),
            ActivityCounters(counts={ActivityKeys.WORDS_DELIVERED: 2}),
            ActivityCounters(counts={ActivityKeys.REG_TOGGLE_BITS: 3, ActivityKeys.VC_ALLOCATIONS: 0, "y": 0}),
        ]
        assert ActivityCounters.merged(parts).as_dict() == {
            "reg.toggle_bits": 3.0, "traffic.words_delivered": 2.0, "vc.allocations": 0.0, "x": 1.0, "y": 0.0,
        }

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
        assert activity.as_dict() == {}
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
