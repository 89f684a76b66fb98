"""Multi-channel (report-stream) stages for the asyncio binding.

Gives ``repro.aio`` parity with the simulator's channel identifiers
(paper §5): an :class:`AioReportingStage` runs a
:class:`~repro.transput.filterbase.ReportingTransducer` and exposes one
:class:`ChannelReader` per output channel; each reader is an ordinary
``Readable``, so downstream stages and collectors need not know they
are looking at one face of a multi-output filter.

Laziness matches the simulator's lazy mode: the stage pulls from
upstream only while some channel's read is unsatisfied; records for
other channels accumulate in their buffers meanwhile.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any

from repro.core.errors import NoSuchChannelError
from repro.transput.filterbase import ReportingTransducer, Transducer, as_reporting
from repro.aio.streams import Readable
from repro.transput.stream import END_TRANSFER, Transfer

__all__ = ["AioReportingStage", "ChannelReader"]


class AioReportingStage:
    """A lazy multi-channel filter stage over asyncio.

    Args:
        transducer: a reporting (or plain) transducer.
        upstream: the single input Readable.
        batch_in: records pulled per upstream read.
    """

    def __init__(
        self,
        transducer: Transducer | ReportingTransducer,
        upstream: Readable,
        batch_in: int = 1,
    ) -> None:
        self.transducer = as_reporting(transducer)
        self.upstream = upstream
        self.batch_in = max(1, batch_in)
        self._buffers: dict[str, deque[Any]] = {
            channel: deque() for channel in self.transducer.channels
        }
        self._started = False
        self._done = False
        # Serializes pulls when several channel readers race.
        self._pull_lock = asyncio.Lock()

    def channels(self) -> list[str]:
        """The advertised channel names."""
        return list(self._buffers)

    def reader(self, channel: str) -> "ChannelReader":
        """A Readable view of one output channel."""
        if channel not in self._buffers:
            raise NoSuchChannelError(channel, "AioReportingStage")
        return ChannelReader(self, channel)

    def _distribute(self, emitted: dict) -> None:
        for channel, records in emitted.items():
            if channel in self._buffers:
                self._buffers[channel].extend(records)

    async def _pull_until(self, channel: str) -> None:
        async with self._pull_lock:
            if not self._started:
                self._started = True
                self._distribute(self.transducer.start())
            while not self._buffers[channel] and not self._done:
                transfer = await self.upstream.read(self.batch_in)
                if transfer.at_end:
                    self._distribute(self.transducer.finish())
                    self._done = True
                    return
                for item in transfer.items:
                    self._distribute(self.transducer.step(item))

    async def read_channel(self, channel: str, batch: int = 1) -> Transfer:
        """One protocol interaction on ``channel``."""
        if channel not in self._buffers:
            raise NoSuchChannelError(channel, "AioReportingStage")
        await self._pull_until(channel)
        buffer = self._buffers[channel]
        if not buffer:
            return END_TRANSFER
        # O(records taken), however many this channel holds.
        return Transfer.of([buffer.popleft()
                            for _ in range(min(max(1, batch), len(buffer)))])


class ChannelReader:
    """The Readable face of one channel of an AioReportingStage."""

    def __init__(self, stage: AioReportingStage, channel: str) -> None:
        self.stage = stage
        self.channel = channel

    async def read(self, batch: int = 1) -> Transfer:
        return await self.stage.read_channel(self.channel, batch)
