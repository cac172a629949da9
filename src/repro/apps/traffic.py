"""Traffic patterns and benchmark scenarios (Section 6, Table 3, Fig. 8).

The power consumption of a single router is benchmarked along three
dimensions:

1. the average load of every data stream (0…100 % of a lane's bandwidth),
2. the amount of bit flips in the data (best case = constant zeros, worst
   case = continuous flips, typical case = random data with 50 % flips),
3. the number of concurrent streams through the router.

This module provides the word generators for the three bit-flip levels, the
stream definitions of Table 3 and the four scenarios of Fig. 8, shared by the
circuit-switched and packet-switched experiment harnesses so both routers see
byte-for-byte identical traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.common import Port, bit_mask, hamming_distance

__all__ = [
    "BitFlipPattern",
    "word_generator",
    "measure_flip_rate",
    "StreamSpec",
    "TABLE3_STREAMS",
    "Scenario",
    "SCENARIOS",
    "scenario_by_name",
]


class BitFlipPattern(enum.Enum):
    """The three data-dependence levels of Section 6.1."""

    BEST = "best"      # no bit flips: transmitting only zeros
    WORST = "worst"    # continuous bit flips: alternating all-zeros / all-ones
    TYPICAL = "typical"  # random data, 50 % bit flips

    @property
    def nominal_flip_rate(self) -> float:
        """The flip probability per bit and word the pattern is designed for."""
        if self is BitFlipPattern.BEST:
            return 0.0
        if self is BitFlipPattern.WORST:
            return 1.0
        return 0.5

    @classmethod
    def from_flip_percentage(cls, percentage: float) -> "BitFlipPattern":
        """Map the paper's 0 / 50 / 100 % x-axis of Fig. 10 onto a pattern."""
        if percentage <= 0:
            return cls.BEST
        if percentage >= 100:
            return cls.WORST
        return cls.TYPICAL


class _BestWords:
    """Always zero: no transitions on the data wires."""

    __slots__ = ()

    def __call__(self) -> int:
        return 0


class _WorstWords:
    """Alternating all-zeros / all-ones: every wire toggles on every word."""

    __slots__ = ("mask", "value")

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self.value = 0

    def __call__(self) -> int:
        self.value ^= self.mask
        return self.value


#: Words one ``Generator.integers`` call of :class:`_TypicalWords` draws.
_BLOCK_WORDS = 256


class _TypicalWords:
    """Uniformly random words: 50 % of the wires toggle per word in expectation.

    Words are drawn :data:`_BLOCK_WORDS` at a time — a bounded ``integers``
    draw consumes the bit generator element by element, so the blocks spell
    the sequence one-word draws would — and handed out from the undrawn rest
    (``_block``, reversed so the next word is its last element).  The rest is
    ordinary state: a pickle taken mid-block continues where it stopped.
    """

    __slots__ = ("mask", "rng", "_block")

    def __init__(self, mask: int, seed: int) -> None:
        self.mask = mask
        self.rng = np.random.default_rng(seed)
        self._block: List[int] = []

    def __call__(self) -> int:
        block = self._block
        if not block:
            block = self._block = self.rng.integers(
                0, self.mask + 1, size=_BLOCK_WORDS
            ).tolist()
            block.reverse()
        return block.pop()


def word_generator(
    pattern: BitFlipPattern,
    width: int = 16,
    seed: int = 0,
) -> Callable[[], int]:
    """Return a zero-argument callable producing the next data word.

    * ``BEST``   — always 0 (no transitions on the data wires),
    * ``WORST``  — alternates between all-zeros and all-ones (every wire
      toggles on every word),
    * ``TYPICAL``— uniformly random words (50 % of the wires toggle per word
      in expectation).

    The callables are plain picklable objects (not closures), so a stream
    attached to an already-running :class:`repro.sim.shard.ShardedNetwork`
    or shipped to a :mod:`repro.experiments.farm` worker crosses the process
    boundary with its generator state intact.
    """
    if width < 1:
        raise ValueError("width must be positive")
    mask = bit_mask(width)

    if pattern is BitFlipPattern.BEST:
        return _BestWords()
    if pattern is BitFlipPattern.WORST:
        return _WorstWords(mask)
    return _TypicalWords(mask, seed)


def measure_flip_rate(words: Sequence[int], width: int = 16) -> float:
    """Average fraction of bits that flip between consecutive words.

    Used by the tests to verify that the generators really produce the 0 %,
    ≈50 % and 100 % toggle statistics the experiments assume.
    """
    if len(words) < 2:
        return 0.0
    total = 0
    for previous, current in zip(words, words[1:]):
        total += hamming_distance(previous & bit_mask(width), current & bit_mask(width))
    return total / ((len(words) - 1) * width)


@dataclass(frozen=True)
class StreamSpec:
    """One concurrent data stream through the router under test (Table 3)."""

    stream_id: int
    input_port: Port
    output_port: Port
    description: str

    @property
    def enters_at_tile(self) -> bool:
        """True when the stream is injected by the local processing tile."""
        return self.input_port == Port.TILE

    @property
    def leaves_at_tile(self) -> bool:
        """True when the stream is delivered to the local processing tile."""
        return self.output_port == Port.TILE


#: The three stream definitions of Table 3.
TABLE3_STREAMS: Dict[int, StreamSpec] = {
    1: StreamSpec(1, Port.TILE, Port.EAST, "tile interface to the east link"),
    2: StreamSpec(2, Port.NORTH, Port.TILE, "north link to the tile interface"),
    3: StreamSpec(3, Port.WEST, Port.EAST, "west link passing through to the east link"),
}


@dataclass(frozen=True)
class Scenario:
    """One of the four benchmark scenarios of Section 6.1 / Fig. 8."""

    name: str
    stream_ids: Tuple[int, ...]
    description: str

    @property
    def streams(self) -> List[StreamSpec]:
        """The stream specifications active in this scenario."""
        return [TABLE3_STREAMS[i] for i in self.stream_ids]

    @property
    def concurrent_streams(self) -> int:
        """Number of concurrent streams through the router."""
        return len(self.stream_ids)

    def output_port_collisions(self) -> Dict[Port, int]:
        """Streams per output port — >1 means the packet-switched router must
        time-multiplex that port while the circuit-switched router uses
        separate lanes (the Scenario IV effect of Section 7.3)."""
        counts: Dict[Port, int] = {}
        for stream in self.streams:
            counts[stream.output_port] = counts.get(stream.output_port, 0) + 1
        return {port: count for port, count in counts.items() if count > 1}


#: The four scenarios of Section 6.1 in paper order.
SCENARIOS: Dict[str, Scenario] = {
    "I": Scenario("I", (), "no data traverses the router (static offset measurement)"),
    "II": Scenario("II", (1,), "communication between the tile interface and a link"),
    "III": Scenario("III", (1, 2), "scenario II plus communication from a link to the tile"),
    "IV": Scenario("IV", (1, 2, 3), "scenario III plus a stream passing the router (both to East)"),
}


def scenario_by_name(name: str) -> Scenario:
    """Look a scenario up by its roman-numeral name (case insensitive)."""
    key = name.strip().upper()
    if key not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return SCENARIOS[key]


def words_for_duration(
    generator: Callable[[], int],
    duration_s: float,
    frequency_hz: float,
    load: float = 1.0,
    cycles_per_word: int = 5,
) -> List[int]:
    """Pre-compute the words a stream would carry over *duration_s* seconds.

    Convenience for analyses that want the raw word sequence (e.g. computing
    the transported data volume: 2 kB per stream for the paper's 200 µs runs).
    """
    if duration_s < 0 or frequency_hz <= 0:
        raise ValueError("duration must be non-negative and frequency positive")
    cycles = int(round(duration_s * frequency_hz))
    count = int(cycles * load / cycles_per_word)
    return [generator() for _ in range(count)]


def transported_bytes(words: Iterable[int], word_bits: int = 16) -> float:
    """Payload volume of a word sequence in bytes."""
    return sum(1 for _ in words) * word_bits / 8.0
