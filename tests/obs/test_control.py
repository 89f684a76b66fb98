"""The control protocol and the eden-top fleet table."""

import asyncio
import json

import pytest

from repro.net.framing import HEADER, MAGIC, FrameType
from repro.obs.control import (
    MAX_CONTROL_REPLY,
    ControlError,
    query_async,
    start_control_server,
)
from repro.obs.top import (
    StageRow,
    _row_from_payloads,
    gather_fleet,
    render_fleet,
    rows_payload,
)


def run(coroutine):
    return asyncio.run(coroutine)


async def control_server(handlers):
    server = await start_control_server(handlers, port=0)
    port = server.sockets[0].getsockname()[1]
    return server, port


HANDLERS = {
    "stats": lambda body: {"counters": {"invocations_sent": 5}},
    "health": lambda body: {"label": "pull#2", "role": "sink",
                            "uptime_s": 1.5},
    "echo": lambda body: body,
    "boom": lambda body: 1 / 0,
}


class TestControlProtocol:
    def test_round_trip(self):
        async def scenario():
            server, port = await control_server(HANDLERS)
            try:
                payload = await query_async("127.0.0.1", port, "stats")
                assert payload == {"counters": {"invocations_sent": 5}}
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_arguments_reach_the_handler(self):
        async def scenario():
            server, port = await control_server(HANDLERS)
            try:
                payload = await query_async(
                    "127.0.0.1", port, "echo", limit=7
                )
                assert payload == {"limit": 7}
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_unknown_command_is_an_error(self):
        async def scenario():
            server, port = await control_server(HANDLERS)
            try:
                with pytest.raises(ControlError, match="unknown command"):
                    await query_async("127.0.0.1", port, "nonsense")
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_handler_exception_reported_and_server_survives(self):
        async def scenario():
            server, port = await control_server(HANDLERS)
            try:
                with pytest.raises(ControlError, match="ZeroDivisionError"):
                    await query_async("127.0.0.1", port, "boom")
                # The listener must still answer after a handler bug.
                payload = await query_async("127.0.0.1", port, "health")
                assert payload["role"] == "sink"
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_unreachable_port_raises_control_error(self):
        with pytest.raises(ControlError):
            run(query_async("127.0.0.1", 1, "stats", timeout=0.5))


async def misbehaving_server(reply_bytes):
    """A listener that answers any request with fixed raw bytes."""

    async def handle(reader, writer):
        await reader.read(1024)
        if reply_bytes:
            writer.write(reply_bytes)
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


class TestControlHardening:
    """A dying or hostile stage yields ControlError, never a traceback."""

    def query_against(self, reply_bytes, match):
        async def scenario():
            server, port = await misbehaving_server(reply_bytes)
            try:
                with pytest.raises(ControlError, match=match):
                    await query_async("127.0.0.1", port, "stats", timeout=2.0)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_clean_close_without_reply(self):
        self.query_against(b"", "closed without replying")

    def test_reply_truncated_mid_header(self):
        self.query_against(MAGIC[:3], "truncated mid-header")

    def test_reply_with_garbage_magic(self):
        self.query_against(b"HTTP/1.1 200 OK\r\n\r\n", "bad magic")

    def test_oversized_declared_length_is_refused_unbuffered(self):
        # The header claims 16 MB; the observer must refuse on the
        # declared length alone, before reading a single body byte.
        header = HEADER.pack(MAGIC, int(FrameType.CTRL_REPLY),
                             MAX_CONTROL_REPLY + 1)
        self.query_against(header, "over the .*-byte bound")

    def test_reply_truncated_mid_body(self):
        body = json.dumps({"ok": True}).encode("utf-8")
        header = HEADER.pack(MAGIC, int(FrameType.CTRL_REPLY), len(body) + 64)
        self.query_against(header + body, "truncated: got")

    def test_undecodable_reply_body(self):
        body = b"\xff\xfe not json at all"
        header = HEADER.pack(MAGIC, int(FrameType.CTRL_REPLY), len(body))
        self.query_against(header + body, "undecodable control reply")


class TestEdenTop:
    def test_gather_fleet_polls_live_and_marks_dead(self):
        async def scenario():
            server, port = await control_server(HANDLERS)
            try:
                return await asyncio.to_thread(
                    gather_fleet,
                    [("pull#2", "127.0.0.1", port),
                     ("gone#9", "127.0.0.1", 1)],
                    1.0,
                )
            finally:
                server.close()
                await server.wait_closed()

        live, dead = run(scenario())
        assert live.alive and live.role == "sink" and live.invocations == 5
        assert not dead.alive and dead.label == "gone#9"

    def test_render_fleet_is_a_stable_table(self):
        rows = [
            StageRow(label="source#0", alive=True, role="source",
                     uptime_s=2.0, invocations=13, replies=12,
                     bytes_moved=640, credit="3/8",
                     read_p50_ms=1.0, read_p95_ms=2.5),
            StageRow(label="sink#4", alive=False),
        ]
        table = render_fleet(rows)
        lines = table.splitlines()
        assert lines[0].startswith("STAGE")
        assert "source#0" in lines[1] and "3/8" in lines[1]
        assert "1/2.5ms" in lines[1]
        assert "sink#4" in lines[2] and "gone" in lines[2]

    def test_render_fleet_without_latency_data(self):
        row = StageRow(label="pipe#1", alive=True, role="pipe")
        table = render_fleet([row])
        assert "pipe#1" in table
        assert "ms" not in table.splitlines()[1]

    def test_hosted_rows_fill_the_chan_and_host_columns(self):
        # A stage host reports how many stages it carries and how many
        # logical channels are open; plain stages show dashes there.
        host_payloads = _row_from_payloads(
            "host#2",
            {"label": "host#2", "role": "host", "uptime_s": 3.0,
             "hosted": 120, "channels_open": 7},
            {"counters": {}, "gauges": {}},
        )
        broker_payloads = _row_from_payloads(
            "broker#1",
            {"label": "broker", "role": "broker", "uptime_s": 3.0},
            {"counters": {}, "gauges": {"mux_channels_open": 4.0}},
        )
        plain = StageRow(label="filter#1", alive=True, role="filter")
        table = render_fleet([host_payloads, broker_payloads, plain])
        lines = table.splitlines()
        assert "CHAN" in lines[0] and "HOST" in lines[0]
        assert "120" in lines[1] and "7" in lines[1]
        assert "4" in lines[2]  # channel gauge fallback for the broker
        assert lines[3].rstrip().endswith("-")

    def test_cpu_column_shows_pin_and_failure_marker(self):
        pinned = _row_from_payloads(
            "filter#2",
            {"label": "filter#2", "role": "filter", "uptime_s": 1.0,
             "cpu": 3, "pinned": True, "affinity": [3]},
            {"counters": {}, "gauges": {}},
        )
        unpinned = _row_from_payloads(
            "filter#3",
            {"label": "filter#3", "role": "filter", "uptime_s": 1.0,
             "cpu": 1, "pinned": False},
            {"counters": {}, "gauges": {}},
        )
        plain = _row_from_payloads(
            "filter#4",
            {"label": "filter#4", "role": "filter", "uptime_s": 1.0},
            {"counters": {}, "gauges": {}},
        )
        assert (pinned.cpu, unpinned.cpu, plain.cpu) == ("3", "1?", "-")
        table = render_fleet([pinned, unpinned, plain])
        lines = table.splitlines()
        # CPU sits second-to-last, before the FLIGHT column.
        assert lines[0].split()[-2] == "CPU"
        assert lines[1].split()[-2] == "3"
        assert lines[2].split()[-2] == "1?"
        assert lines[3].split()[-2] == "-"

    def test_bufpool_footer_aggregates_across_stages(self):
        one = _row_from_payloads(
            "a#1", {"label": "a#1", "role": "filter", "uptime_s": 1.0},
            {"counters": {}, "gauges": {"bufpool_hits": 30.0,
                                        "bufpool_misses": 10.0}},
        )
        two = _row_from_payloads(
            "b#2", {"label": "b#2", "role": "sink", "uptime_s": 1.0},
            {"counters": {}, "gauges": {"bufpool_hits": 45.0,
                                        "bufpool_misses": 15.0}},
        )
        table = render_fleet([one, two])
        assert table.splitlines()[-1] == \
            "bufpool: 75% hit rate (75 hits / 25 misses)"

    def test_no_bufpool_gauges_no_footer(self):
        row = StageRow(label="pipe#1", alive=True, role="pipe")
        table = render_fleet([row])
        assert "bufpool" not in table

    def test_flight_column_compacts_the_recorder_state(self):
        recording = _row_from_payloads(
            "filter#2",
            {"label": "filter#2", "role": "filter", "uptime_s": 1.0,
             "flight": {"mode": "digest", "bytes": 12288, "frames": 90}},
            {"counters": {}, "gauges": {}},
        )
        off = _row_from_payloads(
            "filter#3",
            {"label": "filter#3", "role": "filter", "uptime_s": 1.0,
             "flight": None},
            {"counters": {}, "gauges": {}},
        )
        assert recording.flight == "dig:12.0kB"
        assert off.flight == "-"
        table = render_fleet([recording, off])
        lines = table.splitlines()
        assert lines[0].rstrip().endswith("FLIGHT")
        assert lines[1].rstrip().endswith("dig:12.0kB")
        assert lines[2].rstrip().endswith("-")

    def test_rows_payload_is_the_json_surface(self):
        # eden-top --json prints exactly this: one dict per stage with
        # every table field, so scripts never parse the rendered table.
        rows = [
            StageRow(label="source#0", alive=True, role="source",
                     uptime_s=2.0, invocations=13, flight="ful:1.2MB"),
            StageRow(label="sink#4", alive=False),
        ]
        payload = rows_payload(rows)
        assert json.dumps(payload)  # JSON-safe throughout
        assert payload[0]["label"] == "source#0"
        assert payload[0]["invocations"] == 13
        assert payload[0]["flight"] == "ful:1.2MB"
        assert payload[1] == {
            "label": "sink#4", "alive": False, "role": "?", "shard": "-",
            "uptime_s": 0.0, "invocations": 0, "replies": 0,
            "bytes_moved": 0, "credit": "-", "throughput": None,
            "read_p50_ms": None, "read_p95_ms": None,
            "channels": "-", "hosted": "-", "cpu": "-", "flight": "-",
            "gauges": {},
        }

    def test_json_flag_prints_one_machine_snapshot(self, capsys):
        from repro.obs.top import main

        async def scenario():
            server, port = await control_server(HANDLERS)
            try:
                return await asyncio.to_thread(
                    main, ["--stage", f"127.0.0.1:{port}", "--json"]
                )
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["role"] == "sink"
        assert payload[0]["alive"] is True
