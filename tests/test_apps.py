"""Tests for the application models (KPN, HiperLAN/2, UMTS, DRM) and Tables 1/2."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import drm, hiperlan2, umts
from repro.apps.kpn import Channel, Process, ProcessGraph, TileType, TrafficClass
from repro.common import MappingError


class TestProcessGraph:
    def _simple_graph(self) -> ProcessGraph:
        graph = ProcessGraph("test")
        graph.add_process(Process("a"))
        graph.add_process(Process("b"))
        graph.add_channel(Channel("ab", "a", "b", 100.0))
        return graph

    def test_add_and_lookup(self):
        graph = self._simple_graph()
        assert graph.process("a").name == "a"
        assert graph.channel("ab").bandwidth_mbps == 100.0
        assert graph.channels_between("a", "b")[0].name == "ab"
        assert len(graph.channels_of("b")) == 1

    def test_duplicate_names_rejected(self):
        graph = self._simple_graph()
        with pytest.raises(MappingError):
            graph.add_process(Process("a"))
        with pytest.raises(MappingError):
            graph.add_channel(Channel("ab", "a", "b", 1.0))

    def test_unknown_endpoint_rejected(self):
        graph = self._simple_graph()
        with pytest.raises(MappingError):
            graph.add_channel(Channel("ax", "a", "x", 1.0))

    def test_self_loop_rejected(self):
        graph = self._simple_graph()
        with pytest.raises(MappingError):
            graph.add_channel(Channel("aa", "a", "a", 1.0))

    def test_unknown_lookup_raises(self):
        graph = self._simple_graph()
        with pytest.raises(MappingError):
            graph.process("zz")
        with pytest.raises(MappingError):
            graph.channel("zz")

    def test_validation_detects_disconnected_graph(self):
        graph = ProcessGraph("disconnected")
        graph.add_process(Process("a"))
        graph.add_process(Process("b"))
        with pytest.raises(MappingError):
            graph.validate()

    def test_validation_follows_channels_in_either_direction(self):
        graph = ProcessGraph("weakly connected")
        for name in "abcd":
            graph.add_process(Process(name))
        graph.add_channel(Channel("ab", "a", "b", 1.0))
        graph.add_channel(Channel("cb", "c", "b", 1.0))
        graph.add_channel(Channel("cd", "c", "d", 1.0))
        graph.validate()
        islands = ProcessGraph("two islands")
        for name in "abcd":
            islands.add_process(Process(name))
        islands.add_channel(Channel("ab", "a", "b", 1.0))
        islands.add_channel(Channel("cd", "c", "d", 1.0))
        with pytest.raises(MappingError, match="not connected"):
            islands.validate()

    @given(
        size=st.integers(1, 7),
        pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_validation_equals_networkx_weak_connectivity(self, size, pairs):
        graph = ProcessGraph("drawn")
        for index in range(size):
            graph.add_process(Process(f"p{index}"))
        for number, (a, b) in enumerate(pairs):
            if a != b and a < size and b < size:
                graph.add_channel(Channel(f"c{number}", f"p{a}", f"p{b}", 1.0))
        if nx.is_weakly_connected(graph.to_networkx()):
            graph.validate()
        else:
            with pytest.raises(MappingError, match="not connected"):
                graph.validate()

    def test_empty_graph_invalid(self):
        with pytest.raises(MappingError):
            ProcessGraph("empty").validate()

    def test_bandwidth_aggregation_and_gt_fraction(self):
        graph = self._simple_graph()
        graph.add_channel(
            Channel("ctrl", "b", "a", 1.0, traffic_class=TrafficClass.BEST_EFFORT)
        )
        assert graph.total_bandwidth_mbps() == pytest.approx(101.0)
        assert graph.total_bandwidth_mbps(TrafficClass.BEST_EFFORT) == pytest.approx(1.0)
        assert graph.guaranteed_fraction() == pytest.approx(100.0 / 101.0)

    def test_channel_word_rate(self):
        channel = Channel("c", "a", "b", 640.0, word_bits=16)
        assert channel.words_per_second == pytest.approx(40e6)
        assert not channel.is_streaming or channel.block_size_words is None

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            Channel("c", "a", "b", -1.0)
        with pytest.raises(ValueError):
            Channel("c", "a", "b", 1.0, block_size_words=0)

    def test_networkx_view(self):
        graph = self._simple_graph().to_networkx()
        assert graph.number_of_nodes() == 2
        assert graph["a"]["b"]["bandwidth"] == 100.0

    def test_tile_type_any(self):
        assert Process("p").can_run_on(TileType.GPP)
        restricted = Process("p", frozenset({TileType.DSP}))
        assert not restricted.can_run_on(TileType.GPP)


class TestHiperlan2Table1:
    def test_edge_bandwidths_match_table1_exactly(self):
        bandwidths = hiperlan2.edge_bandwidths_mbps()
        assert bandwidths["sp_to_prefix_removal"] == pytest.approx(640.0)
        assert bandwidths["prefix_removal_to_fft"] == pytest.approx(512.0)
        assert bandwidths["fft_to_channel_eq"] == pytest.approx(416.0)
        assert bandwidths["channel_eq_to_demap"] == pytest.approx(384.0)
        assert bandwidths["hard_bits"] == pytest.approx(12.0)

    def test_hard_bit_range_across_modulations(self):
        assert hiperlan2.Hiperlan2Parameters(modulation="QAM-64").hard_bit_rate_mbps == pytest.approx(72.0)
        assert hiperlan2.Hiperlan2Parameters(modulation="QPSK").hard_bit_rate_mbps == pytest.approx(24.0)

    def test_sample_rate_is_20_msps(self):
        assert hiperlan2.Hiperlan2Parameters().sample_rate_msps == pytest.approx(20.0)

    def test_symbol_structure_validated(self):
        with pytest.raises(ValueError):
            hiperlan2.Hiperlan2Parameters(samples_per_symbol=100)
        with pytest.raises(ValueError):
            hiperlan2.Hiperlan2Parameters(modulation="QAM-1024")

    def test_process_graph_structure(self):
        graph = hiperlan2.build_process_graph()
        assert len(graph.processes) == 8
        assert graph.guaranteed_fraction() > 0.95  # BE is a tiny fraction (Section 3.3)
        graph.validate()

    def test_table1_rows_order(self):
        rows = hiperlan2.table1_rows()
        assert [row["bandwidth_mbps"] for row in rows[:4]] == [640.0, 512.0, 416.0, 384.0]

    def test_ofdm_symbol_stream_shape(self):
        blocks = list(hiperlan2.ofdm_symbol_stream(symbols=3, seed=1))
        assert len(blocks) == 3
        assert all(len(block) == 160 for block in blocks)  # 80 complex samples = 160 words
        assert all(0 <= word < 2**16 for block in blocks for word in block)


class TestUmtsTable2:
    def test_edge_bandwidths_match_table2(self):
        params = umts.UmtsParameters(spreading_factor=4)
        assert params.chip_bandwidth_mbps == pytest.approx(61.44)
        assert params.scrambling_bandwidth_mbps == pytest.approx(7.68)
        assert params.mrc_bandwidth_mbps == pytest.approx(61.44 / 4)
        assert params.received_bits_mbps == pytest.approx(7.68 / 4)
        qam = umts.UmtsParameters(spreading_factor=4, modulation="QAM-16")
        assert qam.received_bits_mbps == pytest.approx(15.36 / 4)

    def test_spreading_factor_scaling(self):
        sf8 = umts.UmtsParameters(spreading_factor=8)
        assert sf8.mrc_bandwidth_mbps == pytest.approx(61.44 / 8)

    def test_total_bandwidth_example(self):
        # Paper: "the total communication bandwidth for processing 4 RAKE
        # fingers with a spreading factor (SF) of 4 is ~320 Mbit/s".
        assert umts.total_bandwidth_mbps() == pytest.approx(320.0, rel=0.02)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            umts.UmtsParameters(modulation="BPSK")
        with pytest.raises(ValueError):
            umts.UmtsParameters(spreading_factor=0)
        with pytest.raises(ValueError):
            umts.UmtsParameters(rake_fingers=0)

    def test_process_graph_scales_with_fingers(self):
        two = umts.build_process_graph(umts.UmtsParameters(rake_fingers=2))
        four = umts.build_process_graph(umts.UmtsParameters(rake_fingers=4))
        assert len(four.processes) == len(two.processes) + 2
        assert four.total_bandwidth_mbps() > two.total_bandwidth_mbps()

    def test_streaming_channels(self):
        graph = umts.build_process_graph()
        chips = graph.channel("chips_1")
        assert chips.is_streaming

    def test_chip_stream_words(self):
        chips = list(umts.chip_stream(chips=64, seed=2))
        assert len(chips) == 64
        assert all(0 <= c < 2**16 for c in chips)

    def test_table2_rows(self):
        rows = umts.table2_rows()
        assert rows[0]["bandwidth_mbps"] == pytest.approx(61.44)


class TestDrm:
    def test_bandwidths_are_three_orders_of_magnitude_below_hiperlan2(self):
        hl2 = hiperlan2.edge_bandwidths_mbps(hiperlan2.Hiperlan2Parameters(modulation="QAM-64"))
        low = drm.edge_bandwidths_mbps()
        for key, value in low.items():
            assert value == pytest.approx(hl2[key] / 1000.0)

    def test_graph_topology_matches_hiperlan2(self):
        drm_graph = drm.build_process_graph()
        hl2_graph = hiperlan2.build_process_graph(hiperlan2.Hiperlan2Parameters(modulation="QAM-64"))
        assert len(drm_graph.processes) == len(hl2_graph.processes)
        assert len(drm_graph.channels) == len(hl2_graph.channels)
        assert drm_graph.total_bandwidth_mbps(TrafficClass.GUARANTEED_THROUGHPUT) == pytest.approx(
            hl2_graph.total_bandwidth_mbps(TrafficClass.GUARANTEED_THROUGHPUT) / 1000.0
        )

    def test_scale_factor_validated(self):
        with pytest.raises(ValueError):
            drm.DrmParameters(scale_factor=0)
