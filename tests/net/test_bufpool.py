"""Unit tests for the frame buffer pool."""

import asyncio

import pytest

from repro.core.stats import KernelStats
from repro.net.bufpool import BufferPool
from repro.net.framing import (
    Frame,
    FrameError,
    FrameType,
    encode_frame,
    write_frame,
)

from tests.net.peer import write_frames


class TestAcquireRelease:
    def test_first_acquire_is_a_miss(self):
        pool = BufferPool()
        buffer = pool.acquire()
        assert buffer == bytearray()
        assert (pool.hits, pool.misses) == (0, 1)

    def test_released_buffer_is_recycled(self):
        pool = BufferPool()
        buffer = pool.acquire()
        buffer += b"some frame bytes"
        pool.release(buffer)
        again = pool.acquire()
        assert again is buffer
        assert again == bytearray()  # cleared, not carrying old bytes
        assert (pool.hits, pool.misses) == (1, 1)

    def test_free_list_is_bounded(self):
        pool = BufferPool(max_buffers=2)
        buffers = [pool.acquire() for _ in range(5)]
        for buffer in buffers:
            pool.release(buffer)
        assert len(pool) == 2

    def test_oversize_buffers_are_dropped_not_pooled(self):
        pool = BufferPool(max_buffer=64)
        buffer = pool.acquire()
        buffer += b"x" * 65
        pool.release(buffer)
        assert len(pool) == 0
        assert pool.oversize_drops == 1

    def test_foreign_buffers_are_accepted(self):
        pool = BufferPool()
        pool.release(bytearray(b"never acquired"))
        assert len(pool) == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(max_buffers=0)
        with pytest.raises(ValueError):
            BufferPool(max_buffer=0)


class TestHealth:
    def test_hit_rate(self):
        pool = BufferPool()
        assert pool.hit_rate == 0.0
        first = pool.acquire()
        pool.release(first)
        pool.acquire()
        assert pool.hit_rate == 0.5

    def test_export_gauges(self):
        pool = BufferPool()
        pool.release(pool.acquire())
        pool.acquire()
        stats = KernelStats()
        pool.export_gauges(stats)
        gauges = stats.gauges()
        assert gauges["bufpool_hit_rate"] == 0.5
        assert gauges["bufpool_hits"] == 1.0
        assert gauges["bufpool_misses"] == 1.0
        assert gauges["bufpool_free"] == 0.0


class _Writer:
    """The two calls ``write_frames`` makes on a StreamWriter."""

    def __init__(self):
        self.wire = b""

    def write(self, data):
        self.wire += bytes(data)

    async def drain(self):
        pass


class TestWritersHandTheBufferBack:
    """An unencodable frame used to drop the pooled buffer: one
    permanent miss per bad frame."""

    @pytest.mark.parametrize("writer_call", [
        lambda writer, pool, bad: write_frame(writer, bad, "binary", pool),
        lambda writer, pool, bad: write_frames(
            writer, [Frame(FrameType.END), bad], "json", pool),
    ], ids=["write_frame", "write_frames"])
    def test_failed_encode_releases_the_pooled_buffer(self, writer_call):
        pool = BufferPool()
        pool.release(bytearray())
        writer = _Writer()
        bad = Frame(FrameType.DATA, {"items": ["fine", object()]})
        with pytest.raises(FrameError, match="cannot encode"):
            asyncio.run(writer_call(writer, pool, bad))
        assert writer.wire == b""  # a burst goes out whole or not at all
        assert len(pool) == 1 and pool.acquire() == b""

    def test_both_writers_put_the_same_bytes_on_the_wire(self):
        frame = Frame(FrameType.DATA, {"items": ["a", "b"]}, chan=2)
        seen = []
        one, many = _Writer(), _Writer()
        size = asyncio.run(write_frame(
            one, frame, "binary", BufferPool(), tee=lambda raw: seen.append(bytes(raw))))
        assert asyncio.run(write_frames(many, [frame], "binary", None)) == size
        assert one.wire == many.wire == seen[0] == encode_frame(frame, "binary")
