"""The chaos proxy relays real frames and injects per-link faults."""

import asyncio

from repro.fault import ChaosProxy, FaultPlan, FrameFault
from repro.net.framing import CODEC_BINARY, Frame, FrameType, encode_frame

from tests.net.peer import read_frame_sized


async def _echo_server():
    """A target that echoes every frame back to the client."""

    async def handle(reader, writer):
        while True:
            frame, _wire = await read_frame_sized(reader, writer)
            if frame is None:
                break
            writer.write(encode_frame(frame))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


async def _exchange(proxy_port, frames, replies_expected):
    reader, writer = await asyncio.open_connection("127.0.0.1", proxy_port)
    for frame in frames:
        writer.write(encode_frame(frame))
    await writer.drain()
    writer.write_eof()
    got = []
    for _ in range(replies_expected):
        frame, _wire = await asyncio.wait_for(read_frame_sized(reader, writer), 5.0)
        if frame is None:
            break
        got.append(frame)
    writer.close()
    return got


def test_benign_proxy_relays_both_directions():
    async def scenario():
        server, port = await _echo_server()
        proxy = await ChaosProxy("127.0.0.1", port, FaultPlan()).start()
        frames = [Frame(FrameType.DATA, {"seq": i}) for i in range(3)]
        try:
            echoed = await _exchange(proxy.port, frames, 3)
        finally:
            await proxy.stop()
            server.close()
            await server.wait_closed()
        return echoed

    echoed = asyncio.run(scenario())
    assert [frame.body["seq"] for frame in echoed] == [0, 1, 2]


def test_forward_drop_swallows_the_nth_request():
    plan = FaultPlan(
        frame_faults=[FrameFault(action="drop", frame="data", nth=2)]
    )

    async def scenario():
        server, port = await _echo_server()
        # reply_plan benign: only the client->target direction is lossy.
        proxy = await ChaosProxy(
            "127.0.0.1", port, plan, reply_plan=FaultPlan()
        ).start()
        frames = [Frame(FrameType.DATA, {"seq": i}) for i in range(3)]
        try:
            echoed = await _exchange(proxy.port, frames, 3)
        finally:
            await proxy.stop()
            server.close()
            await server.wait_closed()
        return echoed, {
            name: proxy.stats.get(name)
            for name in ("fault_drop", "frames_relayed")
        }

    echoed, counters = asyncio.run(scenario())
    assert [frame.body["seq"] for frame in echoed] == [0, 2]
    assert counters["fault_drop"] == 1
    assert counters["frames_relayed"] >= 5  # 3 in, 2 echoed back


def test_a_binary_frame_crosses_byte_identical():
    """The proxy forwards a frame's own wire bytes: a binary DATA frame
    (type byte 0x84) reaches the target as sent, not re-encoded as JSON
    (type byte 0x04, four bytes longer)."""
    wire = encode_frame(Frame(FrameType.DATA, {"items": ["a", "b"], "seq": 3}),
                        CODEC_BINARY)

    async def scenario():
        received = asyncio.get_running_loop().create_future()

        async def target(reader, writer):
            received.set_result(await reader.read())
            writer.close()

        server = await asyncio.start_server(target, "127.0.0.1", 0)
        proxy = await ChaosProxy(
            "127.0.0.1", server.sockets[0].getsockname()[1], FaultPlan()
        ).start()
        reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
        writer.write(wire)
        writer.write_eof()
        try:
            forwarded = await asyncio.wait_for(received, 5.0)
            await asyncio.wait_for(reader.read(), 5.0)  # both directions ended
            return forwarded
        finally:
            writer.close()
            await proxy.stop()
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) == wire
