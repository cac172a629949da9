"""Ablation studies on the design choices the paper calls out.

Three ablations beyond the published figures:

* **clock gating** (E-A1) — the paper's own proposed next step: "For clock
  gating we can use the configuration information of the router and switch
  off the unused lanes.  If clock gating is used, we expect that this offset
  will decrease."  We run the scenario sweep with and without lane-level
  clock gating and compare against the analytic estimate.
* **lane count / width** (E-A2) — Section 5.1: "The width and number of lanes
  are adjustable parameters in the design."  We sweep both and report the
  area, maximum frequency and per-lane bandwidth trade-off.
* **window-counter size** (E-A3) — Section 5.2's end-to-end flow control: the
  achievable throughput of a circuit saturates once the window covers the
  acknowledge round trip.
* **technology scaling** (extension) — both routers re-evaluated at 90 nm and
  65 nm with first-order constant-field scaling; the circuit-switched
  advantage is structural, not process-specific.
* **slot-table size** (E-A4, extension) — the Æthereal-style TDMA router's
  design knob: a larger table gives finer bandwidth granularity per slot but
  a longer revolution, i.e. a larger worst-case injection latency — the
  configuration-effort trade-off the paper raises against slot tables in
  Section 4.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.traffic import SCENARIOS, BitFlipPattern
from repro.common import Port
from repro.core.clock_gating import estimate_gated_offset
from repro.core.flow_control import FlowControlConfig
from repro.core.lane import LaneLink
from repro.core.router import CircuitSwitchedRouter, LaneDatapath
from repro.core.testbench import CircuitLinkSink, CircuitTileDriver
from repro.apps.traffic import word_generator
from repro.energy.area import CircuitSwitchedRouterArea
from repro.energy.synthesis import synthesize_router
from repro.energy.technology import TSMC_130NM_LVHP, scale_technology
from repro.experiments.harness import DEFAULT_CYCLES, DEFAULT_FREQUENCY_HZ, run_circuit_scenario
from repro.sim.engine import SimulationKernel

__all__ = [
    "clock_gating_ablation",
    "lane_parameter_sweep",
    "window_counter_sweep",
    "technology_scaling_study",
    "gt_slot_table_sweep",
]


def clock_gating_ablation(
    cycles: int = DEFAULT_CYCLES,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    pattern: BitFlipPattern = BitFlipPattern.TYPICAL,
) -> List[dict]:
    """Scenario sweep of the circuit-switched router with and without clock gating."""
    rows: List[dict] = []
    for name, scenario in SCENARIOS.items():
        baseline = run_circuit_scenario(
            scenario, pattern, frequency_hz=frequency_hz, cycles=cycles, clock_gating=False
        )
        gated = run_circuit_scenario(
            scenario, pattern, frequency_hz=frequency_hz, cycles=cycles, clock_gating=True
        )
        analytic = estimate_gated_offset(active_lanes=scenario.concurrent_streams)
        rows.append(
            {
                "scenario": name,
                "active_streams": scenario.concurrent_streams,
                "total_uw_ungated": baseline.power.total_uw,
                "total_uw_gated": gated.power.total_uw,
                "dynamic_reduction_pct": 100.0
                * (1.0 - gated.power.dynamic_uw / baseline.power.dynamic_uw),
                "analytic_offset_uw_per_mhz_gated": analytic.offset_uw_per_mhz_gated,
                "analytic_offset_uw_per_mhz_ungated": analytic.offset_uw_per_mhz_ungated,
            }
        )
    return rows


def lane_parameter_sweep(
    lane_counts: tuple[int, ...] = (2, 4, 8),
    lane_widths: tuple[int, ...] = (2, 4, 8),
) -> List[dict]:
    """Area / frequency / bandwidth trade-off of the lane geometry (design-time knobs)."""
    rows: List[dict] = []
    for lanes in lane_counts:
        for width in lane_widths:
            result = synthesize_router(
                "circuit", lanes_per_port=lanes, lane_width=width, data_width=16
            )
            area = CircuitSwitchedRouterArea(lanes_per_port=lanes, lane_width=width)
            rows.append(
                {
                    "lanes_per_port": lanes,
                    "lane_width_bits": width,
                    "link_width_bits": lanes * width,
                    "total_area_mm2": result.total_area_mm2,
                    "max_frequency_mhz": result.max_frequency_mhz,
                    "config_memory_bits": area.config_memory_bits,
                    "lane_bandwidth_gbps_at_fmax": width * result.max_frequency_mhz * 1e6 / 1e9,
                    "concurrent_streams_per_link": lanes,
                }
            )
    return rows


def window_counter_sweep(
    window_sizes: tuple[int, ...] = (1, 2, 4, 8, 16),
    cycles: int = 2000,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
) -> List[dict]:
    """Throughput of one circuit as a function of the window-counter size.

    A single stream (Tile → East) is offered at 100 % load; with a tiny window
    the source stalls waiting for acknowledges (each of which needs a full
    round trip through the registered crossbar), with a sufficiently large
    window the lane saturates at one word per five cycles.
    """
    rows: List[dict] = []
    for window in window_sizes:
        router = CircuitSwitchedRouter("dut")
        rx = LaneLink("rx_E")
        tx = LaneLink("tx_E")
        router.attach_link(Port.EAST, rx, tx)
        router.configure(Port.EAST, 0, Port.TILE, 0)
        flow = FlowControlConfig(window_size=window, credit_per_ack=1)
        router.tile.configure_tx(0, flow)

        kernel = SimulationKernel(frequency_hz)
        datapath = LaneDatapath("dut_datapath", [router])
        driver = datapath.adopt(CircuitTileDriver(
            "src", router, 0, word_generator(BitFlipPattern.TYPICAL, seed=window), load=1.0
        ))
        consumer = datapath.adopt(CircuitLinkSink("dst", tx, 0, flow=flow))
        kernel.add(datapath)
        kernel.run(cycles)

        ideal_words = cycles / 5.0
        rows.append(
            {
                "window_size": window,
                "words_delivered": consumer.words_received,
                "throughput_fraction_of_lane": consumer.words_received / ideal_words,
                "offered_words": driver.words_offered,
            }
        )
    return rows


def technology_scaling_study(
    nodes_nm: tuple[float, ...] = (130.0, 90.0, 65.0),
    cycles: int = 2000,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
) -> List[dict]:
    """Extension study: both routers re-evaluated at scaled technology nodes.

    The paper's comparison is made in 0.13 µm; this study applies first-order
    constant-field scaling (:func:`repro.energy.technology.scale_technology`)
    and re-runs the Scenario IV power experiment at each node.  The point of
    interest is that the *relative* advantage of circuit switching is largely
    technology independent — it stems from the absence of buffers and
    arbitration, not from a particular process.
    """
    from repro.experiments.harness import run_circuit_scenario, run_packet_scenario

    rows: List[dict] = []
    for node in nodes_nm:
        tech = TSMC_130NM_LVHP if node == 130.0 else scale_technology(TSMC_130NM_LVHP, node)
        circuit = run_circuit_scenario(
            "IV", BitFlipPattern.TYPICAL, frequency_hz=frequency_hz, cycles=cycles, tech=tech
        )
        packet = run_packet_scenario(
            "IV", BitFlipPattern.TYPICAL, frequency_hz=frequency_hz, cycles=cycles, tech=tech
        )
        cs_synth = synthesize_router("circuit", tech)
        ps_synth = synthesize_router("packet", tech)
        rows.append(
            {
                "node_nm": node,
                "cs_area_mm2": cs_synth.total_area_mm2,
                "ps_area_mm2": ps_synth.total_area_mm2,
                "cs_fmax_mhz": cs_synth.max_frequency_mhz,
                "ps_fmax_mhz": ps_synth.max_frequency_mhz,
                "cs_power_uw": circuit.power.total_uw,
                "ps_power_uw": packet.power.total_uw,
                "power_ratio": packet.power.total_uw / circuit.power.total_uw,
                "area_ratio": ps_synth.total_area_mm2 / cs_synth.total_area_mm2,
            }
        )
    return rows


def gt_slot_table_sweep(
    slot_counts: tuple[int, ...] = (8, 16, 32, 64),
    cycles: int = 2000,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    data_width: int = 16,
) -> List[dict]:
    """Slot-table size trade-off of the Æthereal-style TDMA router (E-A4).

    Scenario IV is run with every stream owning a quarter of the revolving
    table, so link utilisation stays constant while the table grows.  A
    larger table refines the bandwidth granularity of one slot (total link
    bandwidth divided by the table size) but stretches the revolution, which
    bounds the worst-case wait for a connection's next slot — the structural
    reason the paper prefers lanes over time slots for its traffic mix.
    """
    from repro.experiments.harness import run_gt_scenario

    rows: List[dict] = []
    for slots in slot_counts:
        slots_per_stream = max(1, slots // 4)
        run = run_gt_scenario(
            "IV",
            BitFlipPattern.TYPICAL,
            frequency_hz=frequency_hz,
            cycles=cycles,
            slots=slots,
            slots_per_stream=slots_per_stream,
            data_width=data_width,
        )
        delivered_bits = sum(run.words_received.values()) * data_width
        duration_s = cycles / frequency_hz
        energy_pj_per_bit = (
            run.power.total_uw * duration_s * 1e6 / delivered_bits
            if delivered_bits
            else float("inf")
        )
        rows.append(
            {
                "slot_table_size": slots,
                "slots_per_stream": slots_per_stream,
                "slot_bandwidth_mbps": data_width * frequency_hz / slots / 1e6,
                "worst_case_wait_cycles": slots,
                "words_delivered": sum(run.words_received.values()),
                "total_uw": run.power.total_uw,
                "energy_pj_per_bit": energy_pj_per_bit,
            }
        )
    return rows
