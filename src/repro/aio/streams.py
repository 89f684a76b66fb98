"""The four transput primitives over asyncio.

The simulator (:mod:`repro.core`) measures the paper's claims; this
module shows the same asymmetric-stream design is directly usable for
real, concurrent Python I/O.  The mapping:

- **active input** — awaiting ``readable.read()``;
- **passive output** — implementing ``read()`` (a coroutine that
  produces on demand);
- **active output** — awaiting ``writable.write(transfer)``;
- **passive input** — implementing ``write()`` (a coroutine that
  accepts, possibly applying backpressure by delaying its return).

Stages carry the very same :class:`~repro.transput.filterbase.
Transducer` objects used by the simulator, so a filter written once
runs in both worlds.

An invocation means the same on both sides: one ``read(batch)`` is
answered by one transfer of up to ``batch`` records, and one ``write``
of a ``batch``-record transfer crosses a write-only stage as one
``write`` downstream — so the invocation counts of the two disciplines
stay comparable at every batch size (paper claims C1/C2).  Every endpoint
counts the invocations it answers in its ``invocations``.
"""

from __future__ import annotations

import asyncio
from itertools import islice
from typing import Any, AsyncIterator, Iterable, Protocol, runtime_checkable

from repro.core.errors import StreamProtocolError
from repro.transput.filterbase import Transducer, apply_transducer
from repro.transput.stream import END_TRANSFER, Transfer

__all__ = [
    "Readable",
    "Writable",
    "AioSource",
    "AioReadOnlyStage",
    "AioWriteOnlyStage",
    "AioCollector",
    "AioPipe",
    "collect",
    "iterate",
]


@runtime_checkable
class Readable(Protocol):
    """Anything answering active input: a passive-output provider."""

    async def read(self, batch: int = 1) -> Transfer:
        """Produce up to ``batch`` records, or END."""
        ...  # pragma: no cover


@runtime_checkable
class Writable(Protocol):
    """Anything answering active output: a passive-input acceptor."""

    async def write(self, transfer: Transfer) -> None:
        """Accept a transfer (END terminates the stream)."""
        ...  # pragma: no cover


class AioSource:
    """A passive source over an iterable (the read-only producer)."""

    def __init__(self, items: Iterable[Any]) -> None:
        self._iterator = iter(items)
        self.invocations = 0

    async def read(self, batch: int = 1) -> Transfer:
        self.invocations += 1
        taken = tuple(islice(self._iterator, max(1, batch)))
        return Transfer.of(taken) if taken else END_TRANSFER


class AioReadOnlyStage:
    """A read-only filter stage: active input upstream, passive output
    downstream.

    ``lookahead > 0`` starts a background prefetch task, giving real
    pipeline parallelism exactly as §4 prescribes.
    """

    def __init__(
        self,
        transducer: Transducer,
        upstream: Readable,
        lookahead: int = 0,
        batch_in: int = 1,
    ) -> None:
        self.transducer = transducer
        self.upstream = upstream
        self.lookahead = max(0, lookahead)
        self.batch_in = max(1, batch_in)
        self._buffer: list[Any] = list(transducer.start())
        #: How many of ``_buffer``'s records have been handed out.
        self._taken = 0
        self._done = False
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self.invocations = 0

    async def _prefetch_loop(self) -> None:
        assert self._queue is not None
        while True:
            transfer = await self.upstream.read(self.batch_in)
            if transfer.at_end:
                for record in self.transducer.finish():
                    await self._queue.put(record)
                await self._queue.put(END_TRANSFER)
                return
            for item in transfer.items:
                for record in self.transducer.step(item):
                    await self._queue.put(record)

    def _ensure_prefetch(self) -> None:
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.lookahead)
            self._task = asyncio.create_task(self._prefetch_loop())

    async def read(self, batch: int = 1) -> Transfer:
        self.invocations += 1
        if self.lookahead > 0:
            return await self._read_prefetched(max(1, batch))
        buffer = self._buffer
        # Pull only once every buffered record is handed out: a read is one
        # slice, O(records taken) however many records one input made.
        while self._taken == len(buffer):
            if self._done:
                return END_TRANSFER
            buffer.clear()
            self._taken = 0
            transfer = await self.upstream.read(self.batch_in)
            if transfer.at_end:
                buffer.extend(self.transducer.finish())
                self._done = True
            else:
                step = self.transducer.step
                for item in transfer.items:
                    buffer.extend(step(item))
        start = self._taken
        self._taken = min(start + max(1, batch), len(buffer))
        return Transfer.of(buffer[start:self._taken])

    async def _read_prefetched(self, batch: int) -> Transfer:
        self._ensure_prefetch()
        assert self._queue is not None
        if self._done and not self._buffer:
            return END_TRANSFER
        while len(self._buffer) < batch and not self._done:
            record = await self._queue.get()
            if record is END_TRANSFER:
                self._done = True
                break
            self._buffer.append(record)
        if not self._buffer:
            return END_TRANSFER
        taken, self._buffer = self._buffer[:batch], self._buffer[batch:]
        return Transfer.of(taken)


class AioWriteOnlyStage:
    """A write-only filter stage: passive input, active output.

    Callers ``await stage.write(...)``; the stage pushes transformed
    records to its downstream Writable(s) — fan-out is a list, exactly
    as in the simulator.

    One inbound Write is one outbound Write: the transducer runs over
    the whole transfer and everything it produced goes downstream as a
    single transfer, so a Write invocation carries ``batch`` records
    across every hop — the push-side mirror of a READ answered by one
    DATA, and what the simulator's ``OutputBatcher`` and the cost model
    count.  Nothing is held across invocations: ``write`` returns only
    after every output's ``write`` of this transfer's records has.
    """

    def __init__(self, transducer: Transducer, outputs: list[Writable]) -> None:
        self.transducer = transducer
        self.outputs = list(outputs)
        self._started = False
        self._ended = False
        self.invocations = 0

    async def write(self, transfer: Transfer) -> None:
        self.invocations += 1
        if self._ended:
            raise StreamProtocolError("write after END")
        produced: list[Any] = []
        if not self._started:
            self._started = True
            produced.extend(self.transducer.start())
        if transfer.at_end:
            produced.extend(self.transducer.finish())
        else:
            for item in transfer.items:
                produced.extend(self.transducer.step(item))
        if produced:
            for output in self.outputs:
                await output.write(Transfer.of(produced))
        if transfer.at_end:
            for output in self.outputs:
                await output.write(END_TRANSFER)
            self._ended = True


class AioCollector:
    """A passive sink: accepts writes, signals completion."""

    def __init__(self) -> None:
        self.items: list[Any] = []
        self.done = asyncio.Event()
        self.invocations = 0

    async def write(self, transfer: Transfer) -> None:
        self.invocations += 1
        if self.done.is_set():
            raise StreamProtocolError("write after END")
        if transfer.at_end:
            self.done.set()
            return
        self.items.extend(transfer.items)


class AioPipe:
    """A passive buffer: the conventional discipline's pipe.

    Both ends are passive; backpressure comes from the bounded queue
    (``capacity=None`` is unbounded, as a sim ``PassiveBuffer``'s).

    Each deposited record remembers the span context it was written
    under (``None`` when tracing is off); a read publishes the first
    record's context as :attr:`last_read_origin`.  This is the
    *datum-follows-trace* rule: the reader's span joins the trace of
    the datum it received, which is what stitches the conventional
    discipline's WRITE→buffer→READ hops into one causal chain.
    """

    def __init__(self, capacity: int | None = 16) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        # asyncio.Queue reads maxsize 0 as unbounded.
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=capacity or 0)
        self._ended = False
        #: Span context under which the last-read record was deposited.
        self.last_read_origin: Any = None
        #: READs and WRITEs answered: both ends of a pipe are invocations.
        self.invocations = 0

    async def write(self, transfer: Transfer) -> None:
        self.invocations += 1
        if self._ended:
            raise StreamProtocolError("write after END")
        origin = _deposit_origin()
        if transfer.at_end:
            await self._queue.put((END_TRANSFER, origin))
            self._ended = True
            return
        for item in transfer.items:
            await self._queue.put((item, origin))

    async def read(self, batch: int = 1) -> Transfer:
        self.invocations += 1
        first, origin = await self._queue.get()
        self.last_read_origin = origin
        if first is END_TRANSFER:
            return END_TRANSFER
        taken = [first]
        while len(taken) < max(1, batch):
            try:
                extra, extra_origin = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if extra is END_TRANSFER:
                # Put END back for the next read.
                self._queue.put_nowait((END_TRANSFER, extra_origin))
                break
            taken.append(extra)
        return Transfer.of(taken)


def _deposit_origin() -> Any:
    """The span context active at deposit time (None when untraced)."""
    from repro.obs.context import current_span

    return current_span()


async def collect(readable: Readable, batch: int = 1) -> list[Any]:
    """Drain a Readable to END (the pump, as a coroutine)."""
    items: list[Any] = []
    while True:
        transfer = await readable.read(batch)
        if transfer.at_end:
            return items
        items.extend(transfer.items)


async def iterate(readable: Readable, batch: int = 1) -> AsyncIterator[Any]:
    """Async-iterate a Readable's records."""
    while True:
        transfer = await readable.read(batch)
        if transfer.at_end:
            return
        for item in transfer.items:
            yield item


def reference(transducers: list[Transducer], items: Iterable[Any]) -> list[Any]:
    """Functional reference output for the aio pipelines (tests)."""
    current = list(items)
    for transducer in transducers:
        current = apply_transducer(transducer, current)
    return current
