"""Same-host routes: the broker issues them, the host splices them.

A route whose two ends are channels of one host connection never
crosses the broker relay.  The broker still names, checks, counts and
hangs it up; the host hands each sent frame to the peer channel
in-process, where it is decoded exactly as a socket read would decode
it: the frame itself, re-addressed, when its bytes decode to it, and a
decode of a copy of the bytes when they do not (a chunk the fault
injector rewrote, a value the codec converts).  Routes between hosts
keep the relay.
"""

import asyncio
import collections
import enum
import json
import struct

import pytest

from repro.core.capability import ChannelCapability
from repro.core.uid import UID
from repro.fault.inject import FaultInjector
from repro.fault.plan import FrameFault
from repro.net.bufpool import POOL
from repro.net.framing import (
    CODEC_BINARY,
    CODECS,
    Frame,
    FrameError,
    FrameType,
    decode_frame,
    encode_frame,
)
from repro.net.handshake import ROLE_PULL, TicketBook
from repro.net.launch import IDENTITY, plan_linear_fleet, run_fleet
from repro.obs.flight import frame_digest, load_capture
from repro.obs.trace_cli import main as trace_main
from repro.broker.client import BrokerClient
from repro.broker.daemon import Broker
from repro.broker.launch import plan_hosted_fleet

BOOK_ARGS = dict(space=4, seed=11)
ITEMS = [f"record-{i}" for i in range(12)]
UPPER = ("repro.filters:upper_case", [])


def run(coroutine):
    return asyncio.run(coroutine)


async def attach(broker, serial, **options):
    client = BrokerClient(
        broker.host, broker.port, TicketBook(**BOOK_ARGS), serial=serial,
        connect_deadline=5.0, request_timeout=5.0, **options,
    )
    await client.connect()
    return client


async def same_host_route(**open_options):
    """One host that opens a channel to its own registration."""
    broker = Broker(TicketBook(**BOOK_ARGS))
    await broker.start()
    accepted: asyncio.Queue = asyncio.Queue()
    host = await attach(
        broker, 2,
        on_accept=lambda channel, notice: accepted.put_nowait(channel),
    )
    await host.register("source", serves=(ROLE_PULL,))
    opener = await host.open("source", ROLE_PULL, **open_options)
    return broker, host, opener, accepted.get_nowait()


async def teardown(broker, *clients):
    for client in clients:
        await client.close()
    await broker.close()


class TestIssuance:
    def test_same_host_route_is_spliced_and_listed_local(self):
        async def scenario():
            broker, host, opener, server = await same_host_route()
            far = await attach(broker, 3)
            relayed = await far.open("source", ROLE_PULL)
            rows = broker.control_handlers()["channels"]({})
            await opener.send(Frame(FrameType.READ, {"batch": 1}))
            read = await asyncio.wait_for(server.recv(), 5.0)
            await server.send(Frame(FrameType.DATA, {"items": ["a"]}))
            data = await asyncio.wait_for(opener.recv(), 5.0)
            stats = broker.stats.get("relayed_frames"), host.stats
            await teardown(broker, host, far)
            return opener, server, relayed, rows, read, data, stats

        opener, server, relayed, rows, read, data, stats = run(scenario())
        assert (opener.peer, server.peer) == (server.chan, opener.chan)
        assert relayed.peer is None
        assert sorted(row["local"] for row in rows) == [False, True]
        assert read.type is FrameType.READ and read.chan == server.chan
        assert data.body == {"items": ["a"]} and data.chan == opener.chan
        relayed_frames, host_stats = stats
        assert relayed_frames == 0
        assert host_stats.get("mux_frames_spliced") == 2
        assert host_stats.get("mux_frames_received") >= 2

    def test_decoded_bodies_are_the_receivers_own(self):
        # The pooled send buffer is recycled after the splice: nothing
        # the receiver holds points into it, so scribbling over every
        # buffer the pool hands out again leaves both bodies intact.
        async def scenario():
            broker, host, opener, server = await same_host_route(
                codec=CODEC_BINARY)
            await opener.send(Frame(FrameType.WRITE, {"items": [b"abc"]}))
            await opener.send(Frame(FrameType.WRITE, {"items": [b"xyz"]}))
            recycled = [POOL.acquire() for _ in range(4)]
            for buffer in recycled:
                buffer[:] = b"\xee" * 64
                POOL.release(buffer)
            first = await server.recv()
            second = await server.recv()
            await teardown(broker, host)
            return first, second

        first, second = run(scenario())
        assert first.body == {"items": [b"abc"]}
        assert type(first.body["items"][0]) is bytes
        assert second.body == {"items": [b"xyz"]}


class Colour(enum.IntEnum):
    RED = 1


Point = collections.namedtuple("Point", "x y")


class Key(str):
    pass


#: One of every kind of value a body carries; the last four are
#: converted by the codec: a ``str`` subclass key (JSON: to ``str``),
#: the ``IntEnum`` field of a ``UID`` (to ``int``), and whole values (to
#: ``int`` and to ``tuple``).
VALUES = [
    None, True, False, 7, -2**70, 2.5, "text", b"\x00\xff",
    [1, "a", [2, None]], (1, ("a", b"b")),
    {1: "one", (2, 3): [4], b"k": None, "s": 1.5},
    UID(1, 2, 3),
    ChannelCapability(owner=UID(1, 2, 3), name="Output", secret=99),
    {Key("k"): 1}, UID(Colour.RED, 2, 3),
    Colour.RED, Point(1, "y"),
]


def shape(value):
    """``value``'s type, and its items' types, all the way down."""
    if isinstance(value, (list, tuple)):
        return type(value), [shape(item) for item in value]
    if isinstance(value, dict):
        return dict, [(shape(key), shape(item)) for key, item in value.items()]
    if isinstance(value, ChannelCapability):
        return type(value), [shape(value.owner), shape(value.name),
                             shape(value.secret)]
    return type(value)


class TestTypeFidelity:
    @pytest.mark.parametrize("codec", CODECS)
    def test_spliced_and_relayed_routes_deliver_what_decoding_gives(
            self, codec):
        async def scenario():
            broker = Broker(TicketBook(**BOOK_ARGS))
            await broker.start()
            accepted: asyncio.Queue = asyncio.Queue()
            host = await attach(
                broker, 2,
                on_accept=lambda channel, notice: accepted.put_nowait(channel),
            )
            await host.register("source", serves=(ROLE_PULL,))
            far = await attach(broker, 3)
            routes = []
            for client in (host, far):  # spliced, then relayed
                opener = await client.open("source", ROLE_PULL, codec=codec)
                server = await asyncio.wait_for(accepted.get(), 5.0)
                got = []
                for value in VALUES:
                    await opener.send(Frame(FrameType.DATA, {"value": value}))
                    got.append(await asyncio.wait_for(server.recv(), 5.0))
                routes.append((opener.peer is not None, got))
            await teardown(broker, host, far)
            return routes

        (spliced, by_splice), (crossed, by_relay) = run(scenario())
        assert spliced and not crossed
        for value, one, other in zip(VALUES, by_splice, by_relay):
            wire = encode_frame(Frame(FrameType.DATA, {"value": value}, 1),
                                codec)
            decoded = decode_frame(wire)[0].body["value"]
            for frame in (one, other):
                got = frame.body["value"]
                assert got == decoded
                assert shape(got) == shape(decoded), (value, codec)
        assert shape(by_splice[-2].body["value"]) is int
        assert shape(by_splice[-1].body["value"]) == (tuple, [int, str])


class TestFailures:
    def test_a_corrupt_chunk_fails_only_the_receiving_channel(self):
        async def scenario():
            broker, host, opener, server = await same_host_route()
            opener.injector = FaultInjector(
                [FrameFault(action="corrupt", frame="data", nth=2)])
            for n in range(3):  # the second one is mangled on the way
                await opener.send(Frame(FrameType.DATA, {"items": [n]}))
            first = await server.recv()
            with pytest.raises(FrameError):
                await server.recv()
            with pytest.raises(FrameError):
                await server.recv()  # broken for good, like a socket
            attached = host.connected
            await teardown(broker, host)
            return first, attached

        first, attached = run(scenario())
        assert first.body == {"items": [0]}
        assert attached  # the host's broker connection survived

    def test_a_frame_for_a_closed_peer_is_an_orphan(self):
        async def scenario():
            broker, host, opener, server = await same_host_route()
            await server.close()
            await opener.send(Frame(FrameType.READ, {"batch": 1}))
            hung_up = await asyncio.wait_for(opener.recv(), 5.0)
            orphans = host.stats.get("mux_orphan_frames")
            await teardown(broker, host)
            return hung_up, orphans

        hung_up, orphans = run(scenario())
        assert hung_up is None  # the broker's hangup still follows
        assert orphans == 1

    def test_losing_the_broker_hangs_up_spliced_channels(self):
        async def scenario():
            broker, host, opener, server = await same_host_route()
            await broker.close()
            ends = [await asyncio.wait_for(end.recv(), 5.0)
                    for end in (opener, server)]
            with pytest.raises(ConnectionResetError):
                await opener.send(Frame(FrameType.READ, {"batch": 1}))
            await host.close()
            return ends

        assert run(scenario()) == [None, None]


def counters(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["counters"]


def per_stage_sends(trace_files):
    """Each stage's stream frames sent: ``(role, Counter of frame type,
    bytes)``, upstream first.

    A stage's label carries the serial its broker minted, which depends
    on the order hosts registered; a readonly chain dials upstream on
    its first READ, so a stage's first send (its WELCOME) comes after
    every stage downstream of it has sent its own.
    """
    stages = {}
    for path in trace_files:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event["kind"] != "send":
                    continue
                stage = stages.setdefault(
                    event["subject"], [event["time"], collections.Counter(), 0])
                frame = event["detail"]["frame"]
                if frame not in ("HELLO", "WELCOME"):
                    stage[1][frame] += 1
                    stage[2] += event["detail"]["bytes"]
    ordered = sorted(stages.items(), key=lambda item: item[1][0], reverse=True)
    return [(subject.split("/")[0], frames, size)
            for subject, (_first, frames, size) in ordered]


class TestHostedFleets:
    def test_mixed_routes_match_the_process_placement(self, tmp_path):
        # Four stages on two hosts: source and filter1 share host-0,
        # filter2 and sink share host-1, so filter2 -> filter1 crosses
        # hosts and the other two links are spliced.
        transducers = [UPPER, IDENTITY]
        hosted = run_fleet(plan_hosted_fleet(
            "readonly", transducers, str(tmp_path / "hosted"),
            source_items=ITEMS, hosts=2,
        ), timeout=90.0)
        processes = run_fleet(plan_linear_fleet(
            "readonly", transducers, str(tmp_path / "processes"),
            source_items=ITEMS,
        ), timeout=90.0)
        assert hosted.output == processes.output == [
            item.upper() for item in ITEMS]
        assert hosted.invocations == processes.invocations

        broker = counters(tmp_path / "hosted" / "broker.stats.json")
        hosts = [counters(tmp_path / "hosted" / f"host-{index}.stats.json")
                 for index in range(2)]
        assert all(host["mux_frames_spliced"] > 0 for host in hosts)
        # Only the crossing route's two ends are unspliced, so every
        # frame the broker saw — relayed, or dropped as an orphan — is
        # one of that route's.
        unspliced = sum(host["mux_frames_sent"] - host["mux_frames_spliced"]
                        for host in hosts)
        assert broker["relayed_frames"] > 0
        assert (broker["relayed_frames"] + broker.get("orphan_frames", 0)
                == unspliced)

    def test_traced_resume_run_is_exactly_once(self, tmp_path):
        result = run_fleet(plan_hosted_fleet(
            "readonly", [IDENTITY, IDENTITY], str(tmp_path),
            source_items=ITEMS, hosts=2, trace=True, resume=True,
        ), timeout=90.0)
        assert result.output == ITEMS
        assert trace_main([*result.trace_files,
                           "--verify-once", str(len(ITEMS))]) == 0

    def test_a_spliced_route_counts_what_a_relayed_one_counts(self, tmp_path):
        # One 3-filter chain, all on one host (every route spliced) and
        # over two (filter3 -> filter2 relayed): each stage sends the
        # same frames of the same sizes, and delivery is exactly once.
        def placed(hosts):
            workdir = tmp_path / f"hosts-{hosts}"
            result = run_fleet(plan_hosted_fleet(
                "readonly", [UPPER, IDENTITY, IDENTITY], str(workdir),
                source_items=ITEMS, hosts=hosts, trace=True, resume=True,
            ), timeout=90.0)
            verdict = trace_main([*result.trace_files,
                                  "--verify-once", str(len(ITEMS))])
            totals = collections.Counter()
            for index in range(hosts):
                host = counters(workdir / f"host-{index}.stats.json")
                totals.update({name: host[name] for name in (
                    "invocations_sent", "frames_sent", "bytes_sent")})
            return result.output, per_stage_sends(result.trace_files), \
                totals, verdict

        spliced, relayed = placed(1), placed(2)
        assert spliced == relayed
        output, stages, totals, verdict = spliced
        assert output == [item.upper() for item in ITEMS]
        assert verdict == 0
        assert len(stages) == 5
        assert totals["invocations_sent"] == 4 * (len(ITEMS) + 1)

    def test_flight_records_each_spliced_frame_on_both_ends(self, tmp_path):
        flight_dir = tmp_path / "flight"
        result = run_fleet(plan_hosted_fleet(
            "readonly", [IDENTITY], str(tmp_path), source_items=ITEMS,
            flight_dir=str(flight_dir), flight_mode="full",
        ), timeout=90.0)
        assert result.output == ITEMS
        host = counters(tmp_path / "host-0.stats.json")
        capture = load_capture(str(flight_dir / "host_2"))
        data = [record for record in capture.records if record.chan]
        # Sent on the opener's id, then at once received on the peer's
        # id: the same wire bytes with the channel extension rewritten.
        pairs = list(zip(data[::2], data[1::2]))
        assert len(data) == 2 * len(pairs) == 2 * host["mux_frames_spliced"]
        for sent, got in pairs:
            assert (sent.direction, got.direction) == ("out", "in")
            assert sent.chan != got.chan
            readdressed = (sent.payload[:9] + struct.pack("!I", got.chan)
                           + sent.payload[13:])
            assert frame_digest(readdressed) == got.digest
