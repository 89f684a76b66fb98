"""The virtual clock of the simulated Eden system.

All time in the simulation is virtual: the clock only advances when the
scheduler runs out of ready processes and pops the next timed event.
Benchmarks report virtual makespans, which are therefore deterministic
and independent of host machine speed.
"""

from __future__ import annotations

from repro.core.errors import KernelError


class VirtualClock:
    """A monotone virtual clock measured in abstract time units.

    One time unit is conventionally "the cost of one local message hop";
    the transport scales other costs relative to it.
    """

    def __init__(self, start: float = 0.0) -> None:
        #: Current virtual time: read on every message sent, so a plain
        #: attribute.  The scheduler's run loop moves it as each event
        #: falls due; :meth:`advance_to` is the checked way to move it.
        self.now = float(start)

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises:
            KernelError: on any attempt to move time backwards, which
                would indicate a scheduler bug.
        """
        if when < self.now:
            raise KernelError(
                f"virtual time may not run backwards ({when} < {self.now})"
            )
        self.now = when

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now})"
