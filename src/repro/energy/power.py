"""Static / internal-cell / switching power estimation (Figures 9 and 10).

Synopsys Power Compiler, used by the paper, splits power into three
contributions (Section 7.2):

* **static** — leakage, dissipated whether or not the circuit switches;
  modelled as leakage density × area.
* **dynamic, internal cell** — power dissipated inside cell boundaries;
  dominated by the clock tree and the idle internal power of clocked cells
  (the paper's large data-independent "offset"), plus the cell-internal part
  of every recorded event (register toggles, buffer accesses, arbitration
  decisions).
* **dynamic, switching** — charging/discharging of net capacitances; derived
  from the toggle counts that the bit-accurate simulation records on crossbar
  outputs, registers and link wires, plus arbiter grant changes.

The offset term is proportional to silicon area, which is why the
circuit-switched router's ≈3.5× area advantage translates directly into the
≈3.5× power advantage the paper reports, and why clock gating (which removes
gateable area from the offset when lanes are idle) is the paper's proposed
next optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.energy.activity import (
    ARBITER_DECISIONS, ARBITER_GRANT_CHANGES, BUFFER_READ_BITS, BUFFER_WRITE_BITS, CONFIG_WRITES,
    LINK_TOGGLE_BITS, REG_TOGGLE_BITS, VC_ALLOCATIONS, XBAR_TOGGLE_BITS, ActivityCounters,
)
from repro.energy.area import AreaModel
from repro.energy.technology import TSMC_130NM_LVHP, Technology

__all__ = ["PowerBreakdown", "PowerModel"]

_FJ_TO_UW_SECONDS = 1e-9  # 1 fJ spread over 1 s equals 1e-9 µW


@dataclass(frozen=True)
class PowerBreakdown:
    """Power estimate split into the three Power Compiler categories (µW)."""

    static_uw: float
    internal_uw: float
    switching_uw: float
    frequency_hz: float = 0.0

    @property
    def dynamic_uw(self) -> float:
        """Total dynamic power (internal cell + switching)."""
        return self.internal_uw + self.switching_uw

    @property
    def total_uw(self) -> float:
        """Total power (static + dynamic)."""
        return self.static_uw + self.dynamic_uw

    @property
    def dynamic_uw_per_mhz(self) -> float:
        """Dynamic power normalised to the clock frequency (Figure 10's unit)."""
        if self.frequency_hz <= 0:
            return 0.0
        return self.dynamic_uw / (self.frequency_hz / 1e6)

    def energy_uj(self, duration_s: float) -> float:
        """Total energy over *duration_s* seconds, in µJ."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return self.total_uw * duration_s

    def __add__(self, other: "PowerBreakdown") -> "PowerBreakdown":
        if not isinstance(other, PowerBreakdown):
            return NotImplemented
        frequency = self.frequency_hz or other.frequency_hz
        return PowerBreakdown(
            self.static_uw + other.static_uw,
            self.internal_uw + other.internal_uw,
            self.switching_uw + other.switching_uw,
            frequency,
        )

    @staticmethod
    def total_of(breakdowns: Iterable["PowerBreakdown"]) -> "PowerBreakdown":
        """Sum several breakdowns (e.g. all routers of a mesh)."""
        result = PowerBreakdown(0.0, 0.0, 0.0)
        for item in breakdowns:
            result = result + item
        return result

    def as_dict(self) -> Mapping[str, float]:
        """Flat mapping used by the report formatting helpers."""
        return {
            "static_uw": self.static_uw,
            "internal_uw": self.internal_uw,
            "switching_uw": self.switching_uw,
            "dynamic_uw": self.dynamic_uw,
            "total_uw": self.total_uw,
            "dynamic_uw_per_mhz": self.dynamic_uw_per_mhz,
        }


class PowerModel:
    """Turns activity counters plus an area model into a :class:`PowerBreakdown`."""

    def __init__(self, tech: Technology = TSMC_130NM_LVHP) -> None:
        self.tech = tech

    # -- individual contributions -------------------------------------------

    def static_power_uw(self, area: AreaModel) -> float:
        """Leakage power of the whole router."""
        return area.total_mm2 * self.tech.leakage_uw_per_mm2

    def clock_offset_uw(self, area: AreaModel, activity: ActivityCounters, frequency_hz: float) -> float:
        """Data-independent dynamic offset (clock tree / idle internal power).

        Components marked *gateable* in the area model contribute only in
        proportion to the fraction of their register bits that were actually
        clocked, which is how the clock-gating ablation reduces the offset.
        """
        f_mhz = frequency_hz / 1e6
        gating = activity.clock_gating_factor()
        gateable = area.gateable_area_mm2
        fixed = area.total_mm2 - gateable
        effective_area = fixed + gateable * gating
        return self.tech.clock_power_density_uw_per_mhz_per_mm2 * f_mhz * effective_area

    def _event_energies_fj(self, activity: ActivityCounters) -> tuple[float, float]:
        """Return ``(internal_fj, switching_fj)`` accumulated by all events."""
        tech = self.tech
        slots = activity.slots
        # An untouched slot reads -0.0; a leading term that is never -0.0
        # makes every later one vanish in the sum exactly as +0.0 would.
        reg_toggles = slots[REG_TOGGLE_BITS] + 0.0
        internal_fj = (
            reg_toggles * tech.e_reg_toggle_internal_fj
            + slots[BUFFER_WRITE_BITS] * tech.e_buffer_write_fj_per_bit
            + slots[BUFFER_READ_BITS] * tech.e_buffer_read_fj_per_bit
            + slots[ARBITER_DECISIONS] * tech.e_arbiter_decision_fj
            + slots[VC_ALLOCATIONS] * tech.e_arbiter_decision_fj
            + slots[CONFIG_WRITES] * tech.e_config_write_fj
        )
        switching_fj = (
            reg_toggles * tech.e_reg_toggle_switching_fj
            + slots[XBAR_TOGGLE_BITS] * tech.e_xbar_toggle_fj
            + slots[LINK_TOGGLE_BITS] * tech.e_link_toggle_fj
            + slots[ARBITER_GRANT_CHANGES] * tech.e_arbiter_grant_change_fj
        )
        return internal_fj, switching_fj

    # -- public API ----------------------------------------------------------

    def estimate(
        self,
        area: AreaModel,
        activity: ActivityCounters,
        frequency_hz: float,
        cycles: int | None = None,
    ) -> PowerBreakdown:
        """Estimate the average power over a simulation run.

        Parameters
        ----------
        area:
            Area model of the router that produced *activity*.
        activity:
            Event counts recorded during the run.
        frequency_hz:
            Clock frequency at which the router is operated (25 MHz for the
            paper's power experiments).
        cycles:
            Number of simulated cycles the counters cover; defaults to
            ``activity.cycles``.
        """
        if frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if cycles is None:
            cycles = activity.cycles
        if cycles < 0:
            raise ValueError("cycles must be non-negative")

        static_uw = self.static_power_uw(area)
        internal_uw = self.clock_offset_uw(area, activity, frequency_hz)
        switching_uw = 0.0

        if cycles > 0:
            duration_s = cycles / frequency_hz
            internal_fj, switching_fj = self._event_energies_fj(activity)
            internal_uw += internal_fj * _FJ_TO_UW_SECONDS / duration_s
            switching_uw += switching_fj * _FJ_TO_UW_SECONDS / duration_s

        return PowerBreakdown(static_uw, internal_uw, switching_uw, frequency_hz)

    def energy_per_bit_pj(
        self,
        area: AreaModel,
        activity: ActivityCounters,
        frequency_hz: float,
        payload_bits: float,
        cycles: int | None = None,
    ) -> float:
        """Average energy per delivered payload bit in pJ/bit.

        Used by the end-to-end mesh experiments to compare the two networks
        on the paper's application workloads.
        """
        if payload_bits <= 0:
            raise ValueError("payload_bits must be positive")
        breakdown = self.estimate(area, activity, frequency_hz, cycles)
        run_cycles = activity.cycles if cycles is None else cycles
        duration_s = run_cycles / frequency_hz
        energy_uj = breakdown.total_uw * duration_s  # µW × s = µJ... (1e-6 J)
        energy_pj = energy_uj * 1e6
        return energy_pj / payload_bits
