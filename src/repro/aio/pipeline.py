"""asyncio pipeline drivers for all three disciplines.

The canonical entry points are :func:`stream_readonly`,
:func:`stream_writeonly`, :func:`stream_conventional` and the by-name
dispatcher :func:`stream_segment`.  Each accepts an optional
``stats`` (:class:`~repro.core.stats.KernelStats`) and, when given
one, adds an ``invocations_sent`` for every transfer request that
crosses a stage boundary — a ``read()`` on a pull boundary, a
``write()`` on a push boundary, both sides of a conventional pipe.
Every endpoint counts the invocations it answers (its
``invocations``), and the driver sums them once the segment ends:
there is no counting layer between two stages.  That is the same thing
the simulator's kernel and the TCP runtime's frame counters measure,
and that shared definition is what lets :class:`repro.api.Pipeline`
assert invocation *parity* across all three runtimes (paper claims
C1/C2: ``(n+1)(m+1)`` asymmetric vs ``(2n+2)(m+1)`` conventional).
"""

from __future__ import annotations

import asyncio
from typing import Any, Iterable, Sequence

from repro.core.stats import KernelStats
from repro.transput.filterbase import Transducer
from repro.aio.streams import (
    AioCollector,
    AioPipe,
    AioReadOnlyStage,
    AioSource,
    AioWriteOnlyStage,
    Readable,
    Writable,
    collect,
)
from repro.transput.stream import END_TRANSFER, Transfer

__all__ = [
    "stream_readonly",
    "stream_writeonly",
    "stream_conventional",
    "stream_segment",
]


def _count(stats: KernelStats | None, endpoints: Iterable[Any]) -> None:
    """Add the invocations ``endpoints`` answered to ``stats``."""
    if stats is not None:
        stats.bump("invocations_sent",
                   sum(endpoint.invocations for endpoint in endpoints))


async def stream_readonly(
    items: Iterable[Any],
    transducers: Sequence[Transducer],
    batch: int = 1,
    lookahead: int = 0,
    stats: KernelStats | None = None,
) -> list[Any]:
    """Read-only pipeline: chain stages, then pump from the tail."""
    endpoints: list[Readable] = [AioSource(items)]
    for transducer in transducers:
        endpoints.append(AioReadOnlyStage(
            transducer, endpoints[-1], lookahead=lookahead, batch_in=batch,
        ))
    output = await collect(endpoints[-1], batch=batch)
    _count(stats, endpoints)
    return output


async def stream_writeonly(
    items: Iterable[Any],
    transducers: Sequence[Transducer],
    batch: int = 1,
    stats: KernelStats | None = None,
) -> list[Any]:
    """Write-only pipeline: build sink-first, push from the head."""
    sink = AioCollector()
    endpoints: list[Writable] = [sink]
    for transducer in reversed(list(transducers)):
        endpoints.append(AioWriteOnlyStage(transducer, [endpoints[-1]]))
    head = endpoints[-1]
    pending = list(items)
    for start in range(0, len(pending), max(1, batch)):
        chunk = pending[start : start + max(1, batch)]
        await head.write(Transfer.of(chunk))
    await head.write(END_TRANSFER)
    await sink.done.wait()
    _count(stats, endpoints)
    return list(sink.items)


async def stream_conventional(
    items: Iterable[Any],
    transducers: Sequence[Transducer],
    batch: int = 1,
    capacity: int | None = 16,
    stats: KernelStats | None = None,
) -> list[Any]:
    """Conventional pipeline: a pumping task per filter, pipes between.

    Each filter task actively reads its inbound pipe and actively
    writes its outbound pipe — concurrency comes from the tasks, and
    backpressure from the bounded pipes, exactly as in Unix.  Both
    sides of every pipe are invocations (paper Figure 1), which is why
    this discipline counts double.
    """
    transducers = list(transducers)
    pipes = [AioPipe(capacity=capacity) for _ in range(len(transducers) + 1)]

    async def source_task() -> None:
        pending = list(items)
        for start in range(0, len(pending), max(1, batch)):
            chunk = pending[start : start + max(1, batch)]
            await pipes[0].write(Transfer.of(chunk))
        await pipes[0].write(END_TRANSFER)

    async def filter_task(index: int, transducer: Transducer) -> None:
        # The active-output half is the write-only stage: one inbound
        # transfer becomes one outbound write (start() output rides the
        # first, finish() output goes out as one transfer before END).
        stage = AioWriteOnlyStage(transducer, [pipes[index + 1]])
        while not (transfer := await pipes[index].read(batch)).at_end:
            await stage.write(transfer)
        await stage.write(END_TRANSFER)

    tasks = [
        asyncio.create_task(source_task()),
        *(
            asyncio.create_task(filter_task(index, transducer))
            for index, transducer in enumerate(transducers)
        ),
    ]
    output = await collect(pipes[-1], batch=batch)
    await asyncio.gather(*tasks)
    _count(stats, pipes)
    return output


#: The discipline -> async runner table: the one dispatch point for
#: :func:`stream_segment` and the graph runner's aio steps.
RUNNERS = {
    "readonly": stream_readonly,
    "writeonly": stream_writeonly,
    "conventional": stream_conventional,
}


def stream_segment(
    items: Iterable[Any],
    transducers: Sequence[Transducer],
    discipline: str = "readonly",
    stats: KernelStats | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run one linear aio pipeline to completion, synchronously.

    One :data:`RUNNERS` coroutine under its own event loop.
    :mod:`repro.api` runs a graph's segment by gathering the
    :data:`RUNNERS` coroutines of all its pipelines in one loop
    instead.  Front-door callers want :class:`repro.api.Pipeline` or
    :class:`repro.api.GraphBuilder`.
    """
    if discipline not in RUNNERS:
        raise ValueError(f"discipline must be one of {sorted(RUNNERS)}")
    return asyncio.run(
        RUNNERS[discipline](items, transducers, stats=stats, **kwargs)
    )
