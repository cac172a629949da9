"""Registers and wires with built-in toggle accounting.

The power experiments of the paper (Figures 9 and 10) depend on counting how
many bits actually change per clock cycle.  Rather than scattering
``previous ^ current`` logic across the router models, the models hold their
state in :class:`Register` / :class:`RegisterBank` objects, which report the
number of toggled bits every time they are clocked.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.common import bit_mask, toggle_count

__all__ = ["Wire", "Register", "RegisterBank", "DirtyBit", "WakeListener"]

ToggleSink = Callable[[int, int], None]
"""Callback signature ``(toggled_bits, clocked_bits)`` used by the registers."""

WakeListener = Callable[[], None]
"""Callback fired by a signal/wire bundle when a committed value changes.

The event-driven kernel (:mod:`repro.sim.engine`) hands the bound
``wake`` method of the reading component to the wire bundles that feed it;
the bundles call it only on an actual value change, which is what turns the
wires into the kernel's dirty-bit network.
"""


class DirtyBit:
    """A change-notification bit with an attached wake listener.

    Wire bundles with structured payloads (lane bundles, flit channels) embed
    one of these per direction: writers call :meth:`mark` when a value
    actually changed, and the attached :class:`WakeListener` — the reading
    component's ``wake`` in the event-driven kernel — is invoked
    immediately so a sleeping reader is rescheduled.  The stored flag is a
    sticky "has ever changed" indicator kept for debugging; wake-up is
    entirely listener-driven.
    """

    __slots__ = ("dirty", "listener")

    def __init__(self, listener: WakeListener | None = None) -> None:
        self.dirty = False
        self.listener = listener

    def mark(self) -> None:
        """Record a value change and wake the attached listener (if any)."""
        self.dirty = True
        listener = self.listener
        if listener is not None:
            listener()

    def add_listener(self, listener: WakeListener) -> None:
        """Attach *listener* without displacing an existing one.

        Whoever owns the wire keeps the plain :attr:`listener` slot (routers
        claim it through the links' ``watch_*`` methods); additional readers
        — testbench endpoints sharing a bundle — chain themselves in with
        this method, and :meth:`mark` then fans out to all of them.
        """
        previous = self.listener
        if previous is None or previous is listener:
            self.listener = listener
            return

        def _fanout() -> None:
            previous()
            listener()

        self.listener = _fanout


class Wire:
    """A named combinational value with a fixed bit width.

    A :class:`Wire` is just a value container with range checking; it has no
    storage semantics and is typically rewritten every cycle during the
    evaluate phase.
    """

    __slots__ = ("name", "width", "_mask", "_value")

    def __init__(self, name: str, width: int, value: int = 0) -> None:
        if width <= 0:
            raise ValueError("wire width must be positive")
        self.name = name
        self.width = width
        self._mask = bit_mask(width)
        self._value = value & self._mask

    @property
    def value(self) -> int:
        """Current value of the wire."""
        return self._value

    @value.setter
    def value(self, new_value: int) -> None:
        if new_value < 0 or new_value > self._mask:
            raise ValueError(
                f"value {new_value} does not fit in wire {self.name!r} of width {self.width}"
            )
        self._value = new_value

    def drive(self, new_value: int) -> None:
        """Set the wire, masking the value to the wire width."""
        self._value = new_value & self._mask

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Wire({self.name!r}, width={self.width}, value={self._value:#x})"


class Register:
    """A clocked register of a fixed width with next-state semantics.

    During the evaluate phase the owning component writes :attr:`next`; at the
    clock edge :meth:`clock` latches it, reports the toggle count to the
    optional sink, and makes the value observable through :attr:`value`.
    """

    __slots__ = ("name", "width", "_mask", "_value", "_next", "_reset_value", "_sink")

    def __init__(
        self,
        name: str,
        width: int,
        reset_value: int = 0,
        toggle_sink: ToggleSink | None = None,
    ) -> None:
        if width <= 0:
            raise ValueError("register width must be positive")
        self.name = name
        self.width = width
        self._mask = bit_mask(width)
        self._reset_value = reset_value & self._mask
        self._value = self._reset_value
        self._next = self._reset_value
        self._sink = toggle_sink

    @property
    def value(self) -> int:
        """The committed (visible) value of the register."""
        return self._value

    @property
    def next(self) -> int:
        """The value that will be latched at the next clock edge."""
        return self._next

    @next.setter
    def next(self, new_value: int) -> None:
        if new_value < 0 or new_value > self._mask:
            raise ValueError(
                f"value {new_value} does not fit in register {self.name!r} "
                f"of width {self.width}"
            )
        self._next = new_value

    def hold(self) -> None:
        """Keep the current value for the next cycle (explicit no-change)."""
        self._next = self._value

    def clock(self, *, enabled: bool = True) -> int:
        """Latch :attr:`next` and return the number of toggled bits.

        With ``enabled=False`` the register models a clock-gated flip-flop:
        it keeps its value, no bits toggle, and the toggle sink is informed
        that zero bits were clocked (used by the clock-gating ablation).
        """
        if not enabled:
            self._next = self._value
            if self._sink is not None:
                self._sink(0, 0)
            return 0
        toggled = toggle_count(self._value, self._next, self.width)
        self._value = self._next
        if self._sink is not None:
            self._sink(toggled, self.width)
        return toggled

    def reset(self) -> None:
        """Return to the power-on value."""
        self._value = self._reset_value
        self._next = self._reset_value

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Register({self.name!r}, width={self.width}, value={self._value:#x})"


class RegisterBank:
    """A fixed-size collection of equally wide registers clocked together.

    The crossbar output stage of the circuit-switched router is a bank of
    twenty 4-bit registers; the packet-switched router's FIFOs are banks of
    16-bit registers.  Banks forward aggregate toggle statistics to a single
    sink so the power model sees one number per component.
    """

    __slots__ = ("name", "count", "width", "_registers")

    def __init__(
        self,
        name: str,
        count: int,
        width: int,
        reset_value: int = 0,
        toggle_sink: ToggleSink | None = None,
    ) -> None:
        if count <= 0:
            raise ValueError("register bank must contain at least one register")
        self.name = name
        self.count = count
        self.width = width
        self._registers = [
            Register(f"{name}[{i}]", width, reset_value, toggle_sink)
            for i in range(count)
        ]

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> Register:
        return self._registers[index]

    def __iter__(self) -> Iterator[Register]:
        return iter(self._registers)

    @property
    def values(self) -> tuple[int, ...]:
        """The committed values of all registers, in index order."""
        return tuple(r.value for r in self._registers)

    def clock(self, *, enabled: bool | Sequence[bool] = True) -> int:
        """Clock every register; *enabled* may be a per-register sequence."""
        if isinstance(enabled, bool):
            flags: Sequence[bool] = (enabled,) * self.count
        else:
            if len(enabled) != self.count:
                raise ValueError(
                    f"enable vector length {len(enabled)} does not match bank size {self.count}"
                )
            flags = enabled
        total = 0
        for register, flag in zip(self._registers, flags):
            total += register.clock(enabled=flag)
        return total

    def reset(self) -> None:
        """Reset every register in the bank."""
        for register in self._registers:
            register.reset()
