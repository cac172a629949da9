"""Tests for the traffic patterns and scenarios (Section 6.1, Table 3, Fig. 8)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.traffic import (
    _BLOCK_WORDS,
    SCENARIOS,
    TABLE3_STREAMS,
    BitFlipPattern,
    measure_flip_rate,
    scenario_by_name,
    transported_bytes,
    word_generator,
    words_for_duration,
)
from repro.common import Port


class TestBitFlipPatterns:
    def test_best_case_never_flips(self):
        generator = word_generator(BitFlipPattern.BEST)
        words = [generator() for _ in range(100)]
        assert set(words) == {0}
        assert measure_flip_rate(words) == 0.0

    def test_worst_case_flips_every_bit(self):
        generator = word_generator(BitFlipPattern.WORST)
        words = [generator() for _ in range(100)]
        assert set(words) == {0x0000, 0xFFFF}
        assert measure_flip_rate(words) == 1.0

    def test_typical_case_is_about_half(self):
        generator = word_generator(BitFlipPattern.TYPICAL, seed=7)
        words = [generator() for _ in range(2000)]
        assert 0.45 <= measure_flip_rate(words) <= 0.55

    def test_typical_is_deterministic_per_seed(self):
        a = [word_generator(BitFlipPattern.TYPICAL, seed=3)() for _ in range(10)]
        b = [word_generator(BitFlipPattern.TYPICAL, seed=3)() for _ in range(10)]
        assert a == b

    def test_nominal_flip_rates(self):
        assert BitFlipPattern.BEST.nominal_flip_rate == 0.0
        assert BitFlipPattern.TYPICAL.nominal_flip_rate == 0.5
        assert BitFlipPattern.WORST.nominal_flip_rate == 1.0

    def test_from_flip_percentage(self):
        assert BitFlipPattern.from_flip_percentage(0) is BitFlipPattern.BEST
        assert BitFlipPattern.from_flip_percentage(50) is BitFlipPattern.TYPICAL
        assert BitFlipPattern.from_flip_percentage(100) is BitFlipPattern.WORST

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            word_generator(BitFlipPattern.BEST, width=0)

    def test_flip_rate_of_short_sequences(self):
        assert measure_flip_rate([1]) == 0.0

    @settings(max_examples=20)
    @given(st.sampled_from(list(BitFlipPattern)), st.integers(min_value=1, max_value=1000))
    def test_generated_words_fit_width(self, pattern, count):
        generator = word_generator(pattern, width=16, seed=1)
        for _ in range(min(count, 50)):
            assert 0 <= generator() <= 0xFFFF


class TestTypicalWordsBlockDraw:
    """The block-drawing source spells the one-word-per-draw sequence."""

    @staticmethod
    def _scalar_words(width, seed, count):
        rng = np.random.default_rng(seed)
        return [int(rng.integers(0, 1 << width)) for _ in range(count)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_block_sequence_is_the_scalar_sequence(self, seed):
        count = 2 * _BLOCK_WORDS + 5  # two refills and a part block
        for width in range(1, 41):
            generator = word_generator(BitFlipPattern.TYPICAL, width=width, seed=seed)
            words = [generator() for _ in range(count)]
            assert words == self._scalar_words(width, seed, count), width
            assert all(type(word) is int for word in words)

    @pytest.mark.parametrize("taken", [1, 100, _BLOCK_WORDS - 1, _BLOCK_WORDS, _BLOCK_WORDS + 3])
    def test_pickle_taken_mid_block_continues_the_sequence(self, taken):
        for width in (4, 16, 33, 40):
            generator = word_generator(BitFlipPattern.TYPICAL, width=width, seed=11)
            head = [generator() for _ in range(taken)]
            clone = pickle.loads(pickle.dumps(generator))
            tail = [clone() for _ in range(2 * _BLOCK_WORDS)]
            assert head + tail == self._scalar_words(width, 11, taken + 2 * _BLOCK_WORDS)
            # The original is untouched by the copy and carries on as well.
            assert [generator() for _ in range(2 * _BLOCK_WORDS)] == tail

    def test_source_stays_a_slotted_object(self):
        generator = word_generator(BitFlipPattern.TYPICAL, seed=0)
        assert not hasattr(generator, "__dict__")


class TestTable3AndScenarios:
    def test_stream_definitions_match_table3(self):
        assert TABLE3_STREAMS[1].input_port == Port.TILE
        assert TABLE3_STREAMS[1].output_port == Port.EAST
        assert TABLE3_STREAMS[2].input_port == Port.NORTH
        assert TABLE3_STREAMS[2].output_port == Port.TILE
        assert TABLE3_STREAMS[3].input_port == Port.WEST
        assert TABLE3_STREAMS[3].output_port == Port.EAST

    def test_stream_helpers(self):
        assert TABLE3_STREAMS[1].enters_at_tile
        assert TABLE3_STREAMS[2].leaves_at_tile
        assert not TABLE3_STREAMS[3].enters_at_tile

    def test_scenario_composition(self):
        assert SCENARIOS["I"].stream_ids == ()
        assert SCENARIOS["II"].stream_ids == (1,)
        assert SCENARIOS["III"].stream_ids == (1, 2)
        assert SCENARIOS["IV"].stream_ids == (1, 2, 3)
        assert SCENARIOS["IV"].concurrent_streams == 3

    def test_scenario_iv_has_east_collision(self):
        collisions = SCENARIOS["IV"].output_port_collisions()
        assert collisions == {Port.EAST: 2}
        assert SCENARIOS["III"].output_port_collisions() == {}

    def test_scenario_lookup(self):
        assert scenario_by_name("iv").name == "IV"
        with pytest.raises(KeyError):
            scenario_by_name("V")


class TestVolumeHelpers:
    def test_paper_volume_2kb_per_stream(self):
        """200 µs at 25 MHz, 100 % load: 1000 words = 2 kB per stream."""
        generator = word_generator(BitFlipPattern.TYPICAL, seed=0)
        words = words_for_duration(generator, 200e-6, 25e6, load=1.0, cycles_per_word=5)
        assert len(words) == 1000
        assert transported_bytes(words) == pytest.approx(2000.0)

    def test_half_load_halves_volume(self):
        generator = word_generator(BitFlipPattern.BEST)
        words = words_for_duration(generator, 200e-6, 25e6, load=0.5)
        assert len(words) == 500

    def test_invalid_inputs(self):
        generator = word_generator(BitFlipPattern.BEST)
        with pytest.raises(ValueError):
            words_for_duration(generator, -1.0, 25e6)
