"""The asyncio binding of the asymmetric stream system."""

import asyncio

import pytest

from repro.aio import (
    AioCollector,
    AioPipe,
    AioReadOnlyStage,
    AioSource,
    AioWriteOnlyStage,
    collect,
    iterate,
    stream_readonly,
    stream_segment,
)
from repro.aio.streams import reference
from repro.core.errors import StreamProtocolError
from repro.filters import comment_stripper, sort_lines, upper_case, word_count
from repro.transput import compose_apply
from repro.transput.filterbase import make_transducer
from repro.transput.stream import END_TRANSFER, Transfer

ITEMS = ["C skip", "alpha", "beta", "C also", "gamma"]


def fresh():
    return [comment_stripper("C"), upper_case(), sort_lines()]


class TestRunPipeline:
    @pytest.mark.parametrize("discipline", ["readonly", "writeonly",
                                            "conventional"])
    def test_matches_reference(self, discipline):
        out = stream_segment(ITEMS, fresh(), discipline=discipline)
        assert out == compose_apply(fresh(), ITEMS)

    @pytest.mark.parametrize("discipline", ["readonly", "writeonly",
                                            "conventional"])
    def test_empty_input(self, discipline):
        assert stream_segment([], [upper_case()], discipline=discipline) == []

    def test_zero_filters(self):
        assert stream_segment([1, 2], [], discipline="readonly") == [1, 2]

    def test_finish_only_filter(self):
        out = stream_segment(ITEMS, [word_count()], discipline="writeonly")
        assert out[0].lines == len(ITEMS)

    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            stream_segment([], [], discipline="psychic")

    def test_batching(self):
        out = stream_segment(list(range(10)), [], discipline="readonly", batch=4)
        assert out == list(range(10))

    def test_lookahead_prefetch(self):
        out = stream_segment(
            list(range(50)), [upper_caseish()], discipline="readonly",
            lookahead=8,
        )
        assert out == [i * 3 for i in range(50)]


def upper_caseish():
    from repro.transput import make_transducer

    return make_transducer(lambda x: (x * 3,), name="x3")


class TestSourcesAndStages:
    def test_source_batching(self):
        async def scenario():
            source = AioSource([1, 2, 3])
            first = await source.read(2)
            assert first.items == (1, 2)
            second = await source.read(2)
            assert second.items == (3,)
            assert (await source.read(1)).at_end
            assert (await source.read(1)).at_end

        asyncio.run(scenario())

    def test_stage_is_lazy(self):
        pulled = []

        class CountingSource:
            def __init__(self):
                self._inner = AioSource([1, 2, 3])

            async def read(self, batch=1):
                pulled.append(batch)
                return await self._inner.read(batch)

        async def scenario():
            stage = AioReadOnlyStage(upper_caseish(), CountingSource())
            assert pulled == []
            await stage.read(1)
            assert len(pulled) == 1

        asyncio.run(scenario())

    def test_iterate(self):
        async def scenario():
            stage = AioReadOnlyStage(upper_caseish(), AioSource([1, 2]))
            return [item async for item in iterate(stage)]

        assert asyncio.run(scenario()) == [3, 6]

    def test_writeonly_fan_out(self):
        async def scenario():
            sinks = [AioCollector(), AioCollector()]
            stage = AioWriteOnlyStage(upper_caseish(), list(sinks))
            await stage.write(Transfer.of([1, 2]))
            await stage.write(END_TRANSFER)
            for sink in sinks:
                await sink.done.wait()
            return [sink.items for sink in sinks]

        assert asyncio.run(scenario()) == [[3, 6], [3, 6]]

    def test_writeonly_forwards_one_write_per_inbound_write(self):
        """A Write carries its whole batch across the filter: start()
        output rides the first transfer, finish() output goes out as
        one transfer before END, and nothing is held between writes."""

        class Recorder(AioCollector):
            def __init__(self):
                super().__init__()
                self.transfers = []

            async def write(self, transfer):
                self.transfers.append(
                    "END" if transfer.at_end else list(transfer.items))
                await super().write(transfer)

        triple = make_transducer(
            lambda item: [item] * 3,
            start=lambda: ["head"],
            finish=lambda: ["tail"],
        )

        async def scenario():
            sink = Recorder()
            stage = AioWriteOnlyStage(triple, [sink])
            await stage.write(Transfer.of([1, 2]))
            held = list(sink.items)
            await stage.write(Transfer.of([3]))
            await stage.write(END_TRANSFER)
            return held, sink.transfers

        held, transfers = asyncio.run(scenario())
        assert held == ["head", 1, 1, 1, 2, 2, 2]
        assert transfers == [
            ["head", 1, 1, 1, 2, 2, 2], [3, 3, 3], ["tail"], "END",
        ]

    def test_write_after_end_rejected(self):
        async def scenario():
            sink = AioCollector()
            stage = AioWriteOnlyStage(upper_caseish(), [sink])
            await stage.write(END_TRANSFER)
            with pytest.raises(StreamProtocolError):
                await stage.write(Transfer.single(1))

        asyncio.run(scenario())

    def test_collector_rejects_write_after_end(self):
        async def scenario():
            sink = AioCollector()
            await sink.write(END_TRANSFER)
            with pytest.raises(StreamProtocolError):
                await sink.write(Transfer.single(1))

        asyncio.run(scenario())


def fan_out():
    """One input record becomes 100 000."""
    return make_transducer(lambda x: [f"{x}-{i}" for i in range(100_000)])


async def drain_by_ones(readable):
    """``collect`` at batch 1, yielding to the loop every 1 000 reads:
    a chain whose reads never suspend would otherwise run past any
    ``wait_for`` deadline before the loop could fire it."""
    items = []
    while not (transfer := await readable.read(1)).at_end:
        items.extend(transfer.items)
        if len(items) % 1000 == 0:
            await asyncio.sleep(0)
    return items


class TestOneToManyFilter:
    """A read takes O(records taken), not a copy of everything still
    buffered: 100 000 reads of one record each took ~40 s that way."""

    def test_fan_out_at_batch_one_is_linear(self):
        stage = AioReadOnlyStage(fan_out(), AioSource(["r"]), batch_in=1)
        out = asyncio.run(asyncio.wait_for(drain_by_ones(stage), timeout=10))
        assert out == reference([fan_out()], ["r"])
        assert asyncio.run(stream_readonly(["r"], [fan_out()], batch=1)) == out


class TestAioPipe:
    def test_round_trip(self):
        async def scenario():
            pipe = AioPipe(capacity=4)
            await pipe.write(Transfer.of([1, 2, 3]))
            await pipe.write(END_TRANSFER)
            return await collect(pipe, batch=2)

        assert asyncio.run(scenario()) == [1, 2, 3]

    def test_backpressure(self):
        async def scenario():
            pipe = AioPipe(capacity=2)
            progress = []

            async def producer():
                for value in range(6):
                    await pipe.write(Transfer.single(value))
                    progress.append(value)
                await pipe.write(END_TRANSFER)

            task = asyncio.create_task(producer())
            await asyncio.sleep(0)
            assert len(progress) <= 3  # producer blocked by capacity
            items = await collect(pipe)
            await task
            return items

        assert asyncio.run(scenario()) == list(range(6))

    def test_write_after_end_rejected(self):
        async def scenario():
            pipe = AioPipe()
            await pipe.write(END_TRANSFER)
            with pytest.raises(StreamProtocolError):
                await pipe.write(Transfer.single(1))

        asyncio.run(scenario())

    def test_batch_read_does_not_swallow_end(self):
        async def scenario():
            pipe = AioPipe(capacity=8)
            await pipe.write(Transfer.of([1, 2]))
            await pipe.write(END_TRANSFER)
            first = await pipe.read(10)
            assert first.items == (1, 2)
            assert (await pipe.read(1)).at_end

        asyncio.run(scenario())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AioPipe(capacity=0)

    def test_none_capacity_is_unbounded(self):
        """``None`` is unbounded, as on the sim: 100 unread records fit,
        where any default bound (16 on aio, 64 on TCP) would block."""
        async def scenario():
            pipe = AioPipe(capacity=None)
            for value in range(100):
                await asyncio.wait_for(
                    pipe.write(Transfer.single(value)), timeout=1)
            await pipe.write(END_TRANSFER)
            return await collect(pipe, batch=7)

        assert asyncio.run(scenario()) == list(range(100))

    def test_front_door_passes_none_through_to_the_pipes(self, monkeypatch):
        from repro.aio import streams
        from repro.api import Pipeline
        from repro.transput import FlowPolicy

        built = []
        real_init = streams.AioPipe.__init__

        def recording_init(pipe, capacity=16):
            built.append(capacity)
            real_init(pipe, capacity)

        monkeypatch.setattr(streams.AioPipe, "__init__", recording_init)
        result = Pipeline(
            [upper_case()], discipline="conventional", source=ITEMS,
            flow=FlowPolicy(buffer_capacity=None),
        ).run("aio")
        assert result.output == [item.upper() for item in ITEMS]
        assert built == [None, None]


class TestConcurrency:
    def test_readonly_lookahead_overlaps_stages(self):
        """With prefetching, a slow stage overlaps the pump's consumption."""

        async def scenario():
            order = []

            class SlowSource:
                def __init__(self):
                    self._inner = AioSource(range(5))

                async def read(self, batch=1):
                    await asyncio.sleep(0)
                    transfer = await self._inner.read(batch)
                    order.append(("produce", transfer.items))
                    return transfer

            stage = AioReadOnlyStage(
                upper_caseish(), SlowSource(), lookahead=4
            )
            out = []
            while True:
                transfer = await stage.read(1)
                if transfer.at_end:
                    break
                order.append(("consume", transfer.items))
                out.extend(transfer.items)
            return out

        assert asyncio.run(scenario()) == [0, 3, 6, 9, 12]
