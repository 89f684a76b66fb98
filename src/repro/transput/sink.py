"""Stream sinks.

"any Eject which generates [Read invocations] is a sink" (paper §4).

- :class:`ActiveSink` issues ``Read`` invocations (active input) — the
  read-only discipline's consumer, and the "pump" of the whole
  pipeline: "Connecting a terminal to a filter Eject would be rather
  like starting a pump."
- :class:`PassiveSink` answers ``Write`` invocations (passive input) —
  the write-only discipline's consumer: "sinks would always be ready
  to accept them."

Both record what they consumed (``collected``) and raise ``done`` when
their stream(s) end, which is what drivers run the simulation until.
"""

from __future__ import annotations

from typing import Any, Iterable, TYPE_CHECKING

from repro.core.errors import StreamProtocolError
from repro.core.message import Invocation
from repro.core.syscalls import Call, Sleep
from repro.transput.primitives import (
    Primitive,
    READ_OP,
    TransputEject,
)
from repro.transput.stream import StreamEndpoint, Transfer, WriteAck

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel
    from repro.core.uid import UID


class ActiveSink(TransputEject):
    """Pumps data out of one or more sources by repeated ``Read``.

    Args:
        inputs: endpoints to drain.  With several inputs, ``strategy``
            selects the order: ``"concat"`` drains each fully in turn;
            ``"round_robin"`` interleaves one batch from each live
            input per round (the Report Window of Figure 4 "is designed
            to read from multiple sources").
        batch: records requested per Read.
        work_cost: virtual time consumed per record (a slow device).
        max_items: stop pumping after this many records (needed for
            potentially infinite sources such as the clock); ``None``
            pumps to END.
    """

    eden_type = "ActiveSink"

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        inputs: Iterable[StreamEndpoint] = (),
        name: str | None = None,
        batch: int = 1,
        strategy: str = "concat",
        work_cost: float = 0.0,
        max_items: int | None = None,
    ) -> None:
        if strategy not in ("concat", "round_robin"):
            raise ValueError(f"unknown strategy {strategy!r}")
        super().__init__(kernel, uid, name=name)
        self.inputs = list(inputs)
        self.batch = max(1, int(batch))
        self.strategy = strategy
        self.work_cost = work_cost
        self.max_items = max_items
        self.items_consumed = 0
        self.collected: list[Any] = []
        self.done = False
        self.reads_issued = 0

    def connect(self, endpoint: StreamEndpoint) -> None:
        """Add one more input endpoint (before the simulation runs)."""
        self.inputs.append(endpoint)

    def consume(self, item: Any) -> None:
        """Accept one record; subclasses override (printing, counting…)."""
        self.collected.append(item)

    def main(self):
        """Pump the inputs in one loop until each has ended (or
        ``max_items`` records are in): ``"concat"`` reads one input until
        it ends, ``"round_robin"`` moves to the next live input after
        every batch.

        The loop runs ``active_input`` inline, so it yields the syscalls
        that would (the Call), then :meth:`_consume_all`'s (a Sleep if
        consuming costs time).
        """
        limit = self.max_items
        step = 1 if self.strategy == "round_robin" else 0
        batch = (self.batch,)
        use = self.primitive_use
        counters = self.kernel.stats.counters
        read = Primitive.ACTIVE_INPUT
        live = list(self.inputs)
        index = 0
        while live and (limit is None or self.items_consumed < limit):
            endpoint = live[index]
            use[read] += 1  # note_primitive(ACTIVE_INPUT), inline
            counters[read.counter] += 1
            transfer = yield Call(
                endpoint.uid, READ_OP, batch, {}, endpoint.channel
            )
            self.reads_issued += 1
            if transfer.at_end:
                live.pop(index)
            else:
                yield from self._consume_all(transfer)
                index += step
            if index >= len(live):
                index = 0
        self.done = True

    def _consume_all(self, transfer: Transfer):
        """Consume one batch: the Sleep its work costs, then each record."""
        if self.work_cost:
            yield Sleep(self.work_cost * len(transfer.items))
        for item in transfer.items:
            self.consume(item)
            self.items_consumed += 1


class CollectorSink(ActiveSink):
    """An active sink that simply collects into ``collected``."""

    eden_type = "CollectorSink"


class NullSink(ActiveSink):
    """"The null sink is an Eject which reads indiscriminately and
    ignores the data it is given" (paper §4)."""

    eden_type = "NullSink"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.discarded = 0

    def consume(self, item: Any) -> None:
        self.discarded += 1


class PassiveSink(TransputEject):
    """Accepts ``Write`` invocations; the write-only consumer role.

    ``expected_ends`` supports fan-in of END markers: a passive sink
    fed by several writers is ``done`` only after that many ENDs (each
    upstream writer terminates its own stream).
    """

    eden_type = "PassiveSink"

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        name: str | None = None,
        expected_ends: int = 1,
        work_cost: float = 0.0,
    ) -> None:
        super().__init__(kernel, uid, name=name)
        self.expected_ends = max(1, int(expected_ends))
        self.work_cost = work_cost
        self.collected: list[Any] = []
        self.ends_seen = 0
        self.done = False
        self.writes_accepted = 0

    def consume(self, item: Any) -> None:
        """Accept one record; subclasses override."""
        self.collected.append(item)

    def op_Write(self, invocation: Invocation):
        transfer = invocation.args[0]
        if not isinstance(transfer, Transfer):
            raise StreamProtocolError(
                f"Write payload must be a Transfer, got {type(transfer).__name__}"
            )
        if self.done:
            raise StreamProtocolError("Write received after final END")
        self.note_primitive(Primitive.PASSIVE_INPUT)
        self.writes_accepted += 1
        if transfer.at_end:
            self.ends_seen += 1
            if self.ends_seen >= self.expected_ends:
                self.done = True
            return WriteAck(accepted=0)
        if self.work_cost:
            yield Sleep(self.work_cost * len(transfer.items))
        for item in transfer.items:
            self.consume(item)
        return WriteAck(accepted=len(transfer.items))
