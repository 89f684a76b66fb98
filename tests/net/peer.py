"""Frames on a raw stream pair, for tests that play a peer by hand.

Reading goes through the socket's one :class:`FrameProtocol`, exactly
as the handshake and every connection read, so a hand-played peer and
the runtime share the receiver (and a peer that reads a WELCOME, then
its stream frames, reads them all from one instance).
"""

from repro.net.framing import FrameProtocol, encode_frame_into


async def read_frame_sized(reader, writer):
    """The next ``(frame, wire_bytes)`` on the socket; ``(None, 0)`` at EOF."""
    return await FrameProtocol.of(reader, writer).recv()


async def read_frame(reader, writer):
    """The next frame on the socket; ``None`` at a clean EOF."""
    frame, _wire_bytes = await read_frame_sized(reader, writer)
    return frame


async def write_frames(writer, frames, codec="json", pool=None):
    """Several frames in one write, each encoded as ``write_frame``
    encodes one: the burst goes out whole or not at all, and a pooled
    buffer goes back to its pool if a frame fails to encode."""
    out = pool.acquire() if pool is not None else bytearray()
    try:
        for frame in frames:
            encode_frame_into(frame, out, codec)
    except BaseException:
        if pool is not None:
            pool.release(out)
        raise
    writer.write(out)
    await writer.drain()
    return len(out)
