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

    def test_fan_out_on_a_channel_at_batch_one_is_linear(self):
        from repro.aio import AioReportingStage

        stage = AioReportingStage(fan_out(), AioSource(["r"]))
        out = asyncio.run(asyncio.wait_for(
            drain_by_ones(stage.reader("Output")), timeout=10))
        assert out == reference([fan_out()], ["r"])


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


class TestAioChannels:
    """Multi-channel stages over asyncio (§5 parity)."""

    def test_both_channels_deliver(self):
        from repro.aio import AioReportingStage, AioSource
        from repro.filters import identity, with_reports

        async def scenario():
            stage = AioReportingStage(
                with_reports(identity(), "F", every=2),
                AioSource(["a", "b", "c"]),
            )
            out = await collect(stage.reader("Output"))
            reports = await collect(stage.reader("Report"))
            return out, reports

        out, reports = asyncio.run(scenario())
        assert out == ["a", "b", "c"]
        assert reports[0] == "[F] starting"
        assert reports[-1].startswith("[F] done")

    def test_concurrent_readers_split_nothing(self):
        from repro.aio import AioReportingStage, AioSource
        from repro.filters import identity, with_reports

        async def scenario():
            stage = AioReportingStage(
                with_reports(identity(), "F", every=1),
                AioSource(list(range(10))),
            )
            out_task = asyncio.create_task(collect(stage.reader("Output")))
            rep_task = asyncio.create_task(collect(stage.reader("Report")))
            return await out_task, await rep_task

        out, reports = asyncio.run(scenario())
        assert out == list(range(10))
        assert len(reports) == 12  # starting + 10 + done

    def test_plain_transducer_wrapped(self):
        from repro.aio import AioReportingStage, AioSource
        from repro.filters import upper_case

        async def scenario():
            stage = AioReportingStage(upper_case(), AioSource(["x"]))
            assert stage.channels() == ["Output"]
            return await collect(stage.reader("Output"))

        assert asyncio.run(scenario()) == ["X"]

    def test_unknown_channel_rejected(self):
        from repro.aio import AioReportingStage, AioSource
        from repro.core.errors import NoSuchChannelError
        from repro.filters import upper_case

        stage = AioReportingStage(upper_case(), AioSource([]))
        with pytest.raises(NoSuchChannelError):
            stage.reader("Bogus")

    def test_reader_feeds_downstream_stage(self):
        from repro.aio import AioReadOnlyStage, AioReportingStage, AioSource
        from repro.filters import identity, upper_case, with_reports

        async def scenario():
            reporting = AioReportingStage(
                with_reports(identity(), "F"), AioSource(["x", "y"])
            )
            shouty = AioReadOnlyStage(upper_case(), reporting.reader("Output"))
            return await collect(shouty)

        assert asyncio.run(scenario()) == ["X", "Y"]
