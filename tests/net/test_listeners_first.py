"""Every listener is bound before anything dials it.

A stage's port listens from the moment its stage is made: an in-loop
stage binds when :func:`~repro.net.stage.run_stage` is called, and a
fleet's driver binds every listener of the run before it forks
anything: its in-loop ends', and its processes', which the zygote hands
to each process's first incarnation.  So no dial on a run's start path is
refused or sleeps.  The refusals are counted with a spy on the one
retry loop every dial goes through; the spy writes to a file, so a
forked process (a fork of the driver, spy included) counts too.  No
clock decides a count.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket

import pytest

from repro.api import GraphBuilder, Pipeline
from repro.broker.daemon import Broker
from repro.net import protocol
from repro.net.handshake import HandshakeLinkDown, TicketBook
from repro.net.protocol import (
    RemoteReadable,
    RemoteWritable,
    WireError,
    listen_socket,
)
from repro.net.stage import StageConfig, _Stage, pick_free_ports, run_stage
from repro.transput.stream import END_TRANSFER, Transfer
from tests.conftest import fresh_python

IDENTITY = "repro.transput:identity_transducer"
ITEMS = [f"rec-{index:02d}" for index in range(12)]
FILTERS = 3


@pytest.fixture
def refused(monkeypatch, tmp_path):
    """``refused()``: one line per dial attempt that failed, in any
    process of the run."""
    log = tmp_path / "refused.log"
    retry = protocol.retry_with_backoff

    def spied(attempt, what, deadline=15.0):
        async def counted():
            try:
                return await attempt()
            except (ConnectionError, OSError) as error:
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {what} {error!r}\n")
                raise

        return retry(counted, what, deadline)

    monkeypatch.setattr(protocol, "retry_with_backoff", spied)
    return lambda: log.read_text().splitlines() if log.exists() else []


def test_the_spy_counts_a_refused_dial(refused):
    (port,) = pick_free_ports(1)
    with pytest.raises(WireError):
        asyncio.run(protocol.connect_with_backoff("127.0.0.1", port,
                                                  deadline=0.01))
    assert refused()


async def read_all(reader, batch=len(ITEMS)):
    output = []
    while not (transfer := await reader.read(batch)).at_end:
        output.extend(transfer.items)
    return output


def chain_configs(discipline, records):
    """A source, three identity filters and a sink, addressed."""
    ports = pick_free_ports(FILTERS + 2)
    configs = []
    for serial in range(FILTERS + 2):
        role = ("source" if serial == 0 else
                "sink" if serial == FILTERS + 1 else "filter")
        upstream = downstream = None
        if discipline == "readonly" and serial > 0:
            upstream = ("127.0.0.1", ports[serial - 1])
        if discipline == "writeonly" and serial <= FILTERS:
            downstream = ("127.0.0.1", ports[serial + 1])
        configs.append(StageConfig(
            role=role, discipline=discipline, serial=serial,
            listen_port=ports[serial], upstream=upstream,
            downstream=downstream,
            source_items=records if role == "source" else None))
    return configs


class TestInLoop:
    def test_a_pull_chain_through_run_stage(self, refused):
        async def scenario():
            *passive, active = chain_configs("readonly", ITEMS)
            tasks = [asyncio.create_task(run_stage(c)) for c in passive]
            book = TicketBook()
            reader = RemoteReadable(*active.upstream,
                                    uid=book.ticket(active.serial), book=book)
            output = await read_all(reader, 2)
            await asyncio.gather(*tasks)
            return output

        assert asyncio.run(scenario()) == ITEMS
        assert refused() == []

    def test_a_push_chain_through_run_stage(self, refused):
        async def scenario():
            active, *passive = chain_configs("writeonly", [])
            tasks = [asyncio.create_task(run_stage(c)) for c in passive]
            book = TicketBook()
            writer = RemoteWritable(*active.downstream,
                                    uid=book.ticket(active.serial), book=book)
            for record in ITEMS:
                await writer.write(Transfer.of([record]))
            await writer.write(END_TRANSFER)
            stages = await asyncio.gather(*tasks)
            return stages[-1].collected

        assert asyncio.run(scenario()) == ITEMS
        assert refused() == []

    def test_run_stage_listens_before_it_is_awaited(self, refused):
        (port,) = pick_free_ports(1)
        running = run_stage(StageConfig(role="source", discipline="readonly",
                                        listen_port=port, source_items=ITEMS))
        # No event loop runs yet, and the port already takes a dial.
        socket.create_connection(("127.0.0.1", port)).close()

        async def scenario():
            book = TicketBook()
            reader = RemoteReadable("127.0.0.1", port, uid=book.ticket(1),
                                    book=book)
            _stage, output = await asyncio.gather(running, read_all(reader))
            return output

        assert asyncio.run(scenario()) == ITEMS
        assert refused() == []


class TestFleets:
    def test_the_tcp_diamond(self, refused, tmp_path):
        graph = (GraphBuilder(source=ITEMS, discipline="readonly")
                 .chain(IDENTITY)
                 .scatter([IDENTITY], [IDENTITY])
                 .gather()
                 .chain(IDENTITY)
                 .build())
        result = graph.run(runtime="tcp", workdir=str(tmp_path / "run"))
        assert sorted(result.output) == sorted(ITEMS)
        assert refused() == []

    @pytest.mark.parametrize("discipline",
                             ["readonly", "writeonly", "conventional"])
    def test_a_process_pipeline(self, refused, tmp_path, discipline):
        result = Pipeline([IDENTITY] * 2, discipline=discipline,
                          source=ITEMS).run(
            runtime="tcp", workdir=str(tmp_path / "run"))
        assert result.output == ITEMS
        assert refused() == []

    def test_a_hosted_pipeline_dials_its_broker_once(self, refused,
                                                     tmp_path):
        result = Pipeline([IDENTITY] * 2, source=ITEMS,
                          placement="hosted").run(
            runtime="tcp", workdir=str(tmp_path / "run"))
        assert result.output == ITEMS
        assert refused() == []


class TestTheListener:
    def test_an_accepted_link_has_nagle_off(self):
        async def scenario():
            stage = _Stage(StageConfig(role="source", discipline="readonly",
                                       listen_port=0)).bind()
            port = stage.listener.getsockname()[1]
            async with stage._accepting() as links:
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                link = await links.get()
                accepted = link.writer.get_extra_info("socket")
                nodelay = accepted.getsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY)
                writer.close()
            return nodelay

        assert asyncio.run(scenario())

    def test_the_helper_says_it_is_tcp(self):
        with listen_socket("127.0.0.1", 0) as sock:
            assert sock.proto == socket.IPPROTO_TCP
            assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN)
            assert not sock.getblocking()

    def test_the_broker_listens_through_the_helper(self):
        async def scenario():
            broker = Broker(TicketBook())
            await broker.start()
            try:
                return broker._server.sockets[0].proto
            finally:
                await broker.close()

        assert asyncio.run(scenario()) == socket.IPPROTO_TCP

    def test_an_inherited_listener_is_adopted_only_on_its_address(self):
        probe = (
            "import asyncio, json, os, socket\n"
            "from repro.net.protocol import inherited_listener, listen_socket\n"
            "os.dup2(os.open(os.devnull, os.O_RDONLY), 3)  # not the socket's\n"
            "with listen_socket('127.0.0.1', 0) as bound:\n"
            "    port = bound.getsockname()[1]\n"
            "    os.dup2(bound.fileno(), 3)\n"
            "elsewhere = inherited_listener('127.0.0.1', port + 1)\n"
            "adopted = inherited_listener('localhost', port)\n"
            "async def accept():\n"
            "    got = asyncio.get_running_loop().create_future()\n"
            "    server = await asyncio.start_server(\n"
            "        lambda r, w: got.set_result(w), sock=adopted)\n"
            "    _r, w = await asyncio.open_connection('127.0.0.1', port)\n"
            "    link = (await got).get_extra_info('socket')\n"
            "    nodelay = link.getsockopt(socket.IPPROTO_TCP,\n"
            "                              socket.TCP_NODELAY)\n"
            "    w.close(); server.close()\n"
            "    return nodelay\n"
            "print(json.dumps({'elsewhere': elsewhere is None,\n"
            "                  'proto': adopted.proto,\n"
            "                  'nodelay': asyncio.run(accept()) != 0,\n"
            "                  'fd3': os.fstat(3).st_mode != 0}))\n"
        )
        seen = json.loads(fresh_python("-c", probe).splitlines()[-1])
        assert seen == {"elsewhere": True, "proto": socket.IPPROTO_TCP,
                        "nodelay": True, "fd3": True}

    def test_nothing_on_the_descriptor_is_nothing_inherited(self):
        probe = (
            "import os\n"
            "from repro.net.protocol import inherited_listener\n"
            "os.dup2(os.open(os.devnull, os.O_RDONLY), 3)\n"
            "assert inherited_listener('127.0.0.1', 9) is None\n"
            "assert os.readlink('/proc/self/fd/3') == os.devnull\n"
            "os.close(3)\n"
            "assert inherited_listener('127.0.0.1', 9) is None\n"
            "print('ok')\n"
        )
        assert fresh_python("-c", probe).split() == ["ok"]


class TestAStageThatDiesBeforeItAccepts:
    """A dial can land in the backlog of a stage that never accepts it.
    If the stage dies, the dial is reset and takes the redial path a
    refused dial takes; if it lives on silent, the dial gives up at its
    ``connect_deadline``."""

    @pytest.fixture
    def hello_sent(self, monkeypatch):
        """Set once a dial has connected and says HELLO."""
        sent = asyncio.Event()
        send = protocol.send_hello

        async def spied(*args, **kwargs):
            sent.set()
            return await send(*args, **kwargs)

        monkeypatch.setattr(protocol, "send_hello", spied)
        return sent

    def config(self):
        return StageConfig(role="source", discipline="readonly",
                           listen_port=pick_free_ports(1)[0],
                           source_items=ITEMS, resume=True)

    def reader(self, config, **options):
        book = TicketBook()
        return RemoteReadable("127.0.0.1", config.listen_port,
                              uid=book.ticket(1), book=book, **options)

    def test_a_plain_dial_fails_on_the_reset(self, hello_sent):
        config = self.config()

        async def scenario():
            doomed = _Stage(config).bind()
            reading = asyncio.ensure_future(
                self.reader(config, connect_deadline=30.0).read(4))
            await hello_sent.wait()
            doomed.listener.close()  # the stage died before it accepted
            return await asyncio.wait_for(reading, 10.0)

        with pytest.raises((ConnectionError, HandshakeLinkDown)):
            asyncio.run(scenario())

    def test_a_resuming_dial_redials_the_restarted_stage(self, hello_sent):
        config = self.config()

        async def scenario():
            doomed = _Stage(config).bind()
            reader = self.reader(config, resume=True, connect_deadline=10.0)
            reading = asyncio.ensure_future(read_all(reader))
            await hello_sent.wait()
            doomed.listener.close()
            restarted = asyncio.ensure_future(run_stage(config))
            output = await asyncio.wait_for(reading, 10.0)
            await restarted
            return output, reader.stats.get("reconnects")

        assert asyncio.run(scenario()) == (ITEMS, 1)

    def test_a_silent_listener_is_given_up_at_the_deadline(self):
        config = self.config()

        async def scenario():
            silent = _Stage(config).bind()
            try:
                await self.reader(config, connect_deadline=0.2).read(1)
            finally:
                silent.listener.close()

        with pytest.raises(WireError, match="no WELCOME"):
            asyncio.run(scenario())
