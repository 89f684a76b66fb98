"""The read-only transput discipline (paper §4).

A :class:`ReadOnlyFilter` performs **active input** (it Reads from the
Ejects it was told about at initialisation) and **passive output** (it
answers Read invocations from whoever wants its results):

    "it is not necessary to tell a filter where the output is to go:
    it will be sent to whatever Eject requests it (by performing a
    Read)."

Key behaviours reproduced here:

- **Laziness** (``lookahead=0``): "no computation need be done until
  the result is requested"; the filter pulls from upstream only while
  answering a Read.
- **Anticipatory buffering** (``lookahead=k``): "each Eject in a
  pipeline should read some input and buffer-up some output, and then
  suspend processing pending a request for output.  In this way all
  the Ejects in a pipeline can run concurrently" — a prefetcher
  process keeps up to ``k`` records buffered.
- **Fan-in**: a filter may hold any number of input endpoints (§5:
  "If F needs n inputs, it maintains n UIDs").
- **Multiple outputs via channels** (§5): each output stream has a
  channel identifier; Reads are qualified by it.  ``channel_mode=
  "capability"`` uses unforgeable identifiers.
- **The unsatisfactory "secondary output" variant** (§5): channels
  listed in ``secondary_outputs`` are *volunteered* with active Writes
  to fixed endpoints instead of being readable — re-introducing the
  other active primitive, which benchmark T5's ablation quantifies.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping, Sequence, TYPE_CHECKING

from repro.core.errors import EdenError
from repro.core.message import Invocation
from repro.core.syscalls import (
    Call,
    NotifySignal,
    SendReply,
    Signal,
    Sleep,
    WaitSignal,
)
from repro.transput.channels import ChannelTable
from repro.transput.filterbase import (
    ReportingTransducer,
    Transducer,
    as_reporting,
)
from repro.transput.primitives import (
    Primitive,
    READ_OP,
    RECEIVE_READS,
    TransputEject,
    active_output,
)
from repro.transput.stream import END_TRANSFER, StreamEndpoint, Transfer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel
    from repro.core.uid import UID


class ReadOnlyFilter(TransputEject):
    """A filter in the read-only discipline.

    Args:
        transducer: the transformation (single- or multi-output).
        inputs: upstream endpoints; usually one, several for fan-in.
        input_strategy: ``"concat"`` (drain inputs in order) or
            ``"round_robin"`` (interleave batches).
        lookahead: records to buffer ahead of demand (0 = pure lazy).
        batch_in: records requested per upstream Read.
        channel_mode: ``"open"`` or ``"capability"`` (paper §5).
        secondary_outputs: channel name -> endpoints that receive that
            channel's records via active Writes (the variant §5 calls
            "abandoning the read-only nature ... for all filters with
            multiple outputs").
    """

    eden_type = "ReadOnlyFilter"
    #: Operations the server processes answer (for behaviour specs).
    answers_operations = ("Read", "Transfer")

    def __init__(
        self,
        kernel: "Kernel",
        uid: "UID",
        transducer: Transducer | ReportingTransducer | None = None,
        inputs: Iterable[StreamEndpoint] = (),
        name: str | None = None,
        input_strategy: str = "concat",
        lookahead: int = 0,
        batch_in: int = 1,
        channel_mode: str = "open",
        secondary_outputs: Mapping[str, Sequence[StreamEndpoint]] | None = None,
    ) -> None:
        if input_strategy not in ("concat", "round_robin"):
            raise ValueError(f"unknown input strategy {input_strategy!r}")
        super().__init__(kernel, uid, name=name)
        self.transducer = as_reporting(
            transducer if transducer is not None else _identity()
        )
        self.inputs = list(inputs)
        self.input_strategy = input_strategy
        self.lookahead = max(0, int(lookahead))
        self.batch_in = max(1, int(batch_in))
        self.secondary = {
            channel: list(endpoints)
            for channel, endpoints in (secondary_outputs or {}).items()
        }
        readable = [
            channel for channel in self.transducer.channels
            if channel not in self.secondary
        ]
        if not readable:
            raise ValueError(
                "every channel was made secondary; a read-only filter "
                "must keep at least one readable channel"
            )
        self.channel_table = ChannelTable(self, readable, mode=channel_mode)
        self.buffers: dict[str, deque] = {name: deque() for name in readable}
        self._started = False
        self._input_done = False
        self._live_inputs: list[StreamEndpoint] = []
        self._input_index = 0
        self.reads_served = 0
        self.pulls_issued = 0
        self._data_ready = Signal(f"{self.name}.data_ready")
        self._space_freed = Signal(f"{self.name}.space_freed")
        #: Channels with a parked reader (demand-driven prefetch boost).
        self._demanded: set[str] = set()

    # ------------------------------------------------------------------
    # Wiring helpers (host-side, used by pipeline builders)
    # ------------------------------------------------------------------

    def connect_input(self, endpoint: StreamEndpoint) -> None:
        """Add an upstream endpoint (before the simulation runs)."""
        self.inputs.append(endpoint)

    def output_endpoint(self, channel: str | None = None) -> StreamEndpoint:
        """The endpoint a consumer should Read from.

        In open mode the channel identifier is the plain name (``None``
        for the default channel); in capability mode it is the minted
        capability, which only explicitly-connected consumers hold.
        """
        name = channel or self.channel_table.default
        if self.channel_table.mode == "capability":
            return StreamEndpoint(self.uid, self.channel_table.capability(name))
        if channel is None and name == self.channel_table.default:
            return StreamEndpoint(self.uid, None)
        return StreamEndpoint(self.uid, name)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def process_bodies(self):
        if self.lookahead > 0:
            return [("server", self._server()), ("prefetch", self._prefetcher())]
        return [("main", self._lazy_server())]

    # -- shared machinery -------------------------------------------------

    def _ensure_started(self):
        if self._started:
            return
        self._started = True
        self._live_inputs = list(self.inputs)
        yield from self._distribute(self.transducer.start())

    def _distribute(self, emitted: Mapping[str, Iterable[Any]]):
        for channel, records in emitted.items():
            batch = list(records)
            if not batch:
                continue
            if channel in self.secondary:
                for endpoint in self.secondary[channel]:
                    yield from active_output(self, endpoint, Transfer.of(batch))
            elif channel in self.buffers:
                self.buffers[channel].extend(batch)
            else:
                raise EdenError(
                    f"{self.name}: transducer emitted on undeclared "
                    f"channel {channel!r}"
                )

    def _pull_once(self):
        """Read one upstream batch and run it through the transducer.

        The one pull both the lazy server and the prefetcher run, and
        what a subclass that reads its inputs its own way (a merge, a
        comparison) overrides.  ``active_input`` and the buffering half
        of :meth:`_distribute` run inline: it yields the syscalls they
        would, in the same order (the Call upstream, then a Sleep per
        record if the transducer costs time).
        """
        if not self._started:
            yield from self._ensure_started()
        live = self._live_inputs
        if not live:
            yield from self._finish_input()
            return
        index = self._input_index = self._input_index % len(live)
        endpoint = live[index]
        read = Primitive.ACTIVE_INPUT
        self.primitive_use[read] += 1  # note_primitive(ACTIVE_INPUT), inline
        self.kernel.stats.counters[read.counter] += 1
        transfer = yield Call(
            endpoint.uid, READ_OP, (self.batch_in,), {}, endpoint.channel
        )
        self.pulls_issued += 1
        if transfer.at_end:
            live.pop(index)
            if not live:
                yield from self._finish_input()
            return
        if self.input_strategy == "round_robin":
            self._input_index += 1
        transducer = self.transducer
        cost = transducer.cost_per_item
        buffers = self.buffers
        for item in transfer.items:
            if cost:
                yield Sleep(cost)
            for channel, records in transducer.step(item).items():
                buffer = buffers.get(channel)
                if buffer is None:  # a secondary or undeclared channel
                    yield from self._distribute({channel: records})
                else:
                    buffer.extend(records)

    def _finish_input(self):
        if self._input_done:
            return
        yield from self._distribute(self.transducer.finish())
        for channel, endpoints in self.secondary.items():
            for endpoint in endpoints:
                yield from active_output(self, endpoint, END_TRANSFER)
        self._input_done = True

    def _answer(self, invocation: Invocation, channel: str) -> SendReply:
        """Passive output: the reply to yield for a Read of ``channel``
        — up to its batch of buffered records, or END once drained."""
        batch = invocation.args[0] if invocation.args else 1
        batch = max(1, int(batch))
        buffer = self.buffers[channel]
        if len(buffer) > batch:
            transfer = Transfer.of([buffer.popleft() for _ in range(batch)])
        elif buffer:
            transfer = Transfer.of(buffer)
            buffer.clear()
        else:
            transfer = END_TRANSFER
        self.note_primitive(Primitive.PASSIVE_OUTPUT)
        self.reads_served += 1
        return SendReply(invocation, transfer)

    # -- lazy mode ---------------------------------------------------------

    def _lazy_server(self):
        """Serve Reads in one loop, pulling only to answer one."""
        yield from self._ensure_started()
        buffers = self.buffers
        resolve = self.channel_table.resolve
        while True:
            invocation = yield RECEIVE_READS
            try:
                channel = resolve(invocation.channel)
            except EdenError as error:
                yield self.reply(invocation, error=error)
                continue
            buffer = buffers[channel]
            while not buffer and not self._input_done:
                yield from self._pull_once()
            yield self._answer(invocation, channel)

    # -- anticipatory (buffered) mode ---------------------------------------

    def _buffered_total(self) -> int:
        return sum(len(buffer) for buffer in self.buffers.values())

    def _server(self):
        while True:
            invocation = yield RECEIVE_READS
            try:
                channel = self.channel_table.resolve(invocation.channel)
            except EdenError as error:
                yield self.reply(invocation, error=error)
                continue
            while not self.buffers[channel] and not self._input_done:
                # Tell the prefetcher which channel is starving so it
                # keeps pulling even when the total buffered already
                # meets the lookahead target (multi-channel filters).
                self._demanded.add(channel)
                yield NotifySignal(self._space_freed)
                yield WaitSignal(self._data_ready)
            self._demanded.discard(channel)
            yield self._answer(invocation, channel)
            yield NotifySignal(self._space_freed)

    def _must_keep_pulling(self) -> bool:
        if self._input_done:
            return False
        if self._buffered_total() < self.lookahead:
            return True
        # A reader is parked on an empty channel: demand overrides the
        # lookahead bound (otherwise a Report reader could starve while
        # Output sits full).
        return any(not self.buffers[channel] for channel in self._demanded)

    def _prefetcher(self):
        yield from self._ensure_started()
        while not self._input_done:
            while not self._must_keep_pulling() and not self._input_done:
                yield WaitSignal(self._space_freed)
            if self._input_done:
                break
            yield from self._pull_once()
            yield NotifySignal(self._data_ready)
        yield NotifySignal(self._data_ready)


def _identity() -> Transducer:
    from repro.transput.filterbase import identity_transducer

    return identity_transducer()
