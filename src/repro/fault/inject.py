"""Runtime fault hooks: frame injectors and kill switches.

Two injection points cover every fault a :class:`~repro.fault.plan.
FaultPlan` can describe:

- **frames** — every outgoing data-path frame of a
  :class:`repro.net.protocol.Connection` is offered to a
  :class:`FaultInjector`, which may drop it, duplicate it, delay it,
  or corrupt its bytes before they reach the socket.  What actually
  happened is counted in the stage's stats (``fault_dropped`` etc.),
  so a chaos run's diagnosis is quantitative.
- **records** — a :class:`KillSwitch` counts records moving through a
  stage's data path and crashes the process (``os._exit``, no END
  frames, no stats dump — an honest crash) at the configured datum.
  :class:`KillingReadable` / :class:`KillingWritable` /
  :func:`killing_transducer` adapt the switch to each stage role.
"""

from __future__ import annotations

import asyncio
import os
import sys
from typing import Any, Awaitable, Callable, Iterable, Sequence

from repro.core.stats import KernelStats
from repro.fault.plan import (
    KILLED_EXIT_CODE,
    FaultPlan,
    FrameFault,
    InjectedKill,
)
from repro.transput.filterbase import Transducer
from repro.transput.stream import Transfer

__all__ = [
    "FaultInjector",
    "KillSwitch",
    "KillingReadable",
    "KillingWritable",
    "killing_transducer",
]


def corrupt_bytes(wire: bytes) -> bytes:
    """Flip the last byte: header still parses, the body no longer does."""
    if not wire:
        return wire
    return wire[:-1] + bytes([wire[-1] ^ 0xFF])


class FaultInjector:
    """Applies a plan's frame rules to a stream of outgoing frames.

    One injector carries the per-rule match counters, so ``nth``/
    ``every`` schedules are deterministic across the connections that
    share it (a stage shares one injector across all its links).
    """

    def __init__(
        self,
        faults: Sequence[FrameFault],
        stats: KernelStats | None = None,
        label: str = "fault",
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        self.rules = list(faults)
        self.stats = stats if stats is not None else KernelStats()
        self.label = label
        self.sleep = sleep
        self._matched = [0] * len(self.rules)

    async def outgoing(self, frame_name: str, wire: bytes,
                       chan: int | None = None) -> list[bytes]:
        """Decide one frame's fate; returns the chunks to really send.

        An empty list means the frame was dropped; two identical
        chunks mean it was duplicated; a mutated chunk means it was
        corrupted.  ``delay`` rules sleep here, inside the sender.
        ``chan`` is the logical channel the frame rides (``None`` off
        a multiplexed link): a channel-pinned rule neither fires nor
        advances its match counter on other channels.
        """
        chunks = [wire]
        for index, rule in enumerate(self.rules):
            if rule.frame is not None and rule.frame != frame_name.lower():
                continue
            if rule.chan is not None and rule.chan != chan:
                continue
            self._matched[index] += 1
            if not rule.matches(frame_name, self._matched[index], chan):
                continue
            self.stats.bump(f"fault_{rule.action}")
            if rule.action == "drop":
                return []
            if rule.action == "duplicate":
                chunks = chunks * 2
            elif rule.action == "corrupt":
                chunks = [corrupt_bytes(chunk) for chunk in chunks]
            elif rule.action == "delay":
                await self.sleep(rule.delay_ms / 1000.0)
        return chunks


class KillSwitch:
    """Crashes the process once ``limit`` records have been noted.

    The default trip handler is ``os._exit`` with
    :data:`~repro.fault.plan.KILLED_EXIT_CODE` — no Python cleanup, no
    END frames, no stats dump, exactly what a real stage crash looks
    like to the rest of the fleet.  A stage that shares its process
    trips :meth:`raise_kill` instead
    (:func:`repro.net.stage.supervise_incarnations` sets it), and tests
    override ``on_kill``.
    """

    def __init__(
        self,
        limit: int,
        label: str = "stage",
        on_kill: Callable[[], None] | None = None,
    ) -> None:
        if limit < 1:
            raise ValueError(f"kill limit must be >= 1, got {limit}")
        self.limit = limit
        self.label = label
        self.count = 0
        self.on_kill = on_kill if on_kill is not None else self._exit

    def describe(self) -> str:
        return f"fault: killed at datum {self.count} (kill_after={self.limit})"

    def _exit(self) -> None:
        sys.stderr.write(f"[{self.label}] {self.describe()}\n")
        sys.stderr.flush()
        os._exit(KILLED_EXIT_CODE)

    def raise_kill(self) -> None:
        """The trip handler of a stage sharing its process: end only it."""
        raise InjectedKill(self.describe())

    def note(self, records: int = 1) -> None:
        """Count ``records`` more; trip the switch at the limit."""
        self.count += records
        if self.count >= self.limit:
            self.on_kill()


class KillingReadable:
    """A Readable that counts the records it yields into a switch."""

    def __init__(self, inner: Any, switch: KillSwitch) -> None:
        self.inner = inner
        self.switch = switch

    @property
    def last_span(self) -> Any:
        return getattr(self.inner, "last_span", None)

    @property
    def last_read_origin(self) -> Any:
        return getattr(self.inner, "last_read_origin", None)

    async def read(self, batch: int = 1) -> Transfer:
        transfer = await self.inner.read(batch)
        if not transfer.at_end:
            self.switch.note(len(list(transfer.items)))
        return transfer


class KillingWritable:
    """A Writable that counts the records accepted into a switch."""

    def __init__(self, inner: Any, switch: KillSwitch) -> None:
        self.inner = inner
        self.switch = switch

    async def write(self, transfer: Transfer) -> None:
        if not transfer.at_end:
            self.switch.note(len(list(transfer.items)))
        await self.inner.write(transfer)


class _KillingTransducer(Transducer):
    """Counts input records before the wrapped transducer sees them."""

    def __init__(self, inner: Transducer, switch: KillSwitch) -> None:
        self.inner = inner
        self.switch = switch
        self.name = f"killing({inner.name})"
        self.cost_per_item = inner.cost_per_item

    def start(self) -> Iterable[Any]:
        return self.inner.start()

    def step(self, item: Any) -> Iterable[Any]:
        self.switch.note()
        return self.inner.step(item)

    def finish(self) -> Iterable[Any]:
        return self.inner.finish()


def killing_transducer(inner: Transducer, switch: KillSwitch) -> Transducer:
    """Wrap ``inner`` so the switch counts every input record."""
    return _KillingTransducer(inner, switch)


def build_injector(
    plan: FaultPlan | None,
    stats: KernelStats | None = None,
    label: str = "fault",
) -> FaultInjector | None:
    """The injector a plan calls for, or ``None`` for a benign plan."""
    if plan is None or not plan.frame_faults:
        return None
    return FaultInjector(plan.frame_faults, stats=stats, label=label)
