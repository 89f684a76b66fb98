"""The layer ladder: each lower layer alone, on the workload's frames.

This PR may not instrument ``src/``, so a layer's cost is measured by
calling its public functions directly with what the workload sends
through them: the frames of one link through the codec, the same bytes
over a loopback socket, one ``serve_pull``/``RemoteReadable`` hop, one
in-memory stage, and — for the graph runtimes — the segment builders
``run_graph`` itself calls.  Every repetition is a span; rows come back
as **µs per record of the workload, summed over every instance of the
layer** (a chain of four links reports four hops), so the rows of one
workload add up to a budget.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import socket
import time
from typing import Any, Awaitable, Callable, Sequence

from repro.aio.pipeline import stream_segment
from repro.aio.streams import (
    AioCollector,
    AioReadOnlyStage,
    AioSource,
    AioWriteOnlyStage,
    collect,
)
from repro.analysis.cost_model import predict_graph_invocations
from repro.api.graph import LinearSegment, join_records, partition_records
from repro.core.kernel import Kernel
from repro.core.stats import KernelStats
from repro.net.framing import (
    Frame,
    FrameDecoder,
    FrameType,
    encode_frame,
    encode_frame_into,
)
from repro.net.handshake import (
    ROLE_PULL,
    TicketBook,
    expect_hello,
    send_hello,
)
from repro.net.launch import plan_linear_fleet, run_fleet
from repro.net.mux import ChannelMux
from repro.net.protocol import (
    Connection,
    RemoteReadable,
    RemoteWritable,
    serve_pull,
    serve_push,
)
from repro.net.stage import load_transducer
from repro.net.vectored import write_vectored
from repro.obs.flight import MODE_DIGEST, FlightRecorder
from repro.transput.filterbase import identity_transducer
from repro.transput.pipeline import compose_segment
from repro.transput.stream import END_TRANSFER, Transfer

from spec import FILTERS, SAMPLE_TIMEOUT_S, Workload
from stats import SpanRecorder
from workloads import chain_flow, diamond, run_sample

_HOST = "127.0.0.1"
_CHANNEL = "Output"
_SEGMENT = 64 * 1024

Rows = dict[str, list[float]]


# ---------------------------------------------------------------------------
# The frames of one link.
# ---------------------------------------------------------------------------


def link_shape(workload: Workload) -> tuple[int, int]:
    """``(links, records per request frame)`` of the workload's stream.

    Every link of one workload carries the same frames: a pull link one
    READ per ``batch`` records; a push link one WRITE per record,
    because the default credit window is 1 and ``AioWriteOnlyStage``
    re-sends per record whatever it was handed.
    """
    if workload.kind == "push":
        credit = chain_flow(workload).effective_credit_window()
        return FILTERS + 1, min(workload.batch, credit)
    if workload.kind == "graph":
        # head, one branch, tail: source -> filter -> sink each.
        return 6, workload.batch
    return FILTERS + 1, workload.batch


def link_frames(records: Sequence[str], size: int, pull: bool,
                chan: int | None = None) -> tuple[list[Frame], list[Frame]]:
    """The ``(requests, replies)`` one link exchanges for ``records``."""
    chunks = [list(records[i:i + size]) for i in range(0, len(records), size)]
    if pull:
        requests = [Frame(FrameType.READ, {"batch": size, "channel": _CHANNEL},
                          chan) for _ in range(len(chunks) + 1)]
        replies = [Frame(FrameType.DATA, {"items": chunk, "channel": _CHANNEL},
                         chan) for chunk in chunks]
        replies.append(Frame(FrameType.END, {"channel": _CHANNEL}, chan))
    else:
        requests = [Frame(FrameType.WRITE,
                          {"items": chunk, "channel": _CHANNEL}, chan)
                    for chunk in chunks]
        requests.append(Frame(FrameType.END, {"channel": _CHANNEL}, chan))
        replies = [Frame(FrameType.ACK,
                         {"credit": len(chunk), "channel": _CHANNEL}, chan)
                   for chunk in chunks]
        replies.append(Frame(FrameType.ACK, {"credit": 0, "final": True,
                                             "channel": _CHANNEL}, chan))
    return requests, replies


# ---------------------------------------------------------------------------
# Timing helpers.
# ---------------------------------------------------------------------------


def _repeat(spans: SpanRecorder, name: str, reps: int,
            once: Callable[[], float | None]) -> list[float]:
    """Run ``once`` ``reps`` times, each inside a span; a repetition's
    time is what ``once`` returns, or the span when it returns None."""
    times = []
    for rep in range(reps):
        spans.sample = f"ladder-{rep}"
        started = time.perf_counter()
        with spans.span(name):
            measured = once()
        elapsed = time.perf_counter() - started
        times.append(elapsed if measured is None else measured)
    return times


def _run(coroutine: Awaitable[Any]) -> Any:
    return asyncio.run(asyncio.wait_for(coroutine, SAMPLE_TIMEOUT_S))


async def _serve(handle: Callable[..., Awaitable[None]]):
    """A loopback server; returns ``(server, port)``."""
    server = await asyncio.start_server(handle, _HOST, 0)
    return server, server.sockets[0].getsockname()[1]


# ---------------------------------------------------------------------------
# Wire rows: codec, socket, protocol hop, handshake, mux, flight.
# ---------------------------------------------------------------------------


def _encode_all(frames: Sequence[Frame], codec: str) -> float:
    out = bytearray()
    started = time.perf_counter()
    for frame in frames:
        del out[:]
        encode_frame_into(frame, out, codec)
    return time.perf_counter() - started


def _decode_all(wire: bytes) -> float:
    decoder = FrameDecoder()
    view = memoryview(wire)
    started = time.perf_counter()
    for offset in range(0, len(wire), _SEGMENT):
        decoder.feed_sized(view[offset:offset + _SEGMENT])
    return time.perf_counter() - started


def _write_burst(writer: asyncio.StreamWriter,
                 burst: Sequence[bytes]) -> None:
    # One frame goes out as Connection.send does it, several as
    # Connection.send_many does.
    if len(burst) == 1:
        writer.write(burst[0])
    else:
        write_vectored(writer, burst)


async def _socket_exchange(requests: Sequence[Sequence[bytes]],
                           replies: Sequence[Sequence[bytes]]) -> float:
    """The link's bytes over loopback with no codec: one request burst
    out, one reply burst back, closed loop."""
    async def handle(reader, writer):
        try:
            for request, reply in zip(requests, replies):
                await reader.readexactly(sum(map(len, request)))
                _write_burst(writer, reply)
                await writer.drain()
        finally:
            writer.close()

    server, port = await _serve(handle)
    reader, writer = await asyncio.open_connection(_HOST, port)
    try:
        started = time.perf_counter()
        for request, reply in zip(requests, replies):
            _write_burst(writer, request)
            await writer.drain()
            await reader.readexactly(sum(map(len, reply)))
        return time.perf_counter() - started
    finally:
        writer.close()
        server.close()
        await server.wait_closed()


async def _pull_hop(records: Sequence[str], batch: int, depth: int,
                    codec: str) -> float:
    """One ``serve_pull`` <-> ``RemoteReadable`` hop on an in-memory
    source; seconds per record, the handshake and first batch excluded."""
    book = TicketBook()

    async def handle(reader, writer):
        hello = await expect_hello(reader, writer, book, book.ticket(0))
        connection = Connection(reader, writer, codec=hello.codec)
        await serve_pull(connection, AioSource(records), hello)
        await connection.close()

    server, port = await _serve(handle)
    readable = RemoteReadable(_HOST, port, uid=book.ticket(1), book=book,
                              codec=codec, pipeline_depth=depth)
    try:
        await readable.read(batch)
        moved = 0
        started = time.perf_counter()
        while True:
            transfer = await readable.read(batch)
            if transfer.at_end:
                break
            moved += len(transfer.items)
        return (time.perf_counter() - started) / max(1, moved)
    finally:
        await readable.aclose()
        server.close()
        await server.wait_closed()


async def _push_hop(records: Sequence[str], size: int, credit: int,
                    codec: str) -> float:
    """One ``serve_push`` <-> ``RemoteWritable`` hop into a collector."""
    book = TicketBook()
    done = asyncio.Event()

    async def handle(reader, writer):
        try:
            hello = await expect_hello(reader, writer, book, book.ticket(0),
                                       credit=credit)
            connection = Connection(reader, writer, codec=hello.codec)
            await serve_push(connection, AioCollector(), hello)
            await connection.close()
        finally:
            done.set()

    server, port = await _serve(handle)
    writable = RemoteWritable(_HOST, port, uid=book.ticket(1), book=book,
                              codec=codec)
    try:
        await writable.write(Transfer.of(records[:size]))
        started = time.perf_counter()
        for offset in range(size, len(records), size):
            await writable.write(Transfer.of(records[offset:offset + size]))
        await writable.write(END_TRANSFER)
        elapsed = time.perf_counter() - started
        await done.wait()
        return elapsed / max(1, len(records) - size)
    finally:
        server.close()
        await server.wait_closed()


async def _hello(reps: int) -> list[float]:
    """connect + ``send_hello`` <-> ``expect_hello``, seconds each."""
    book = TicketBook()

    async def handle(reader, writer):
        try:
            await expect_hello(reader, writer, book, book.ticket(0))
        finally:
            writer.close()

    server, port = await _serve(handle)
    times = []
    try:
        for _ in range(reps):
            started = time.perf_counter()
            reader, writer = await asyncio.open_connection(_HOST, port)
            await send_hello(reader, writer, book.ticket(1), ROLE_PULL,
                             book=book)
            times.append(time.perf_counter() - started)
            writer.close()
            await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
    return times


async def _mux_relay(requests: Sequence[Frame], replies: Sequence[Frame],
                     codec: str) -> float:
    """The link's frames through ``ChannelMux`` + ``FairWriter`` over a
    socketpair, closed loop; seconds per frame."""
    left, right = socket.socketpair()
    near = ChannelMux(*await asyncio.open_connection(sock=left))
    far = ChannelMux(*await asyncio.open_connection(sock=right))
    near.start()
    far.start()
    client = near.attach(1, codec=codec)
    server = far.attach(1, codec=codec)

    async def answer():
        for reply in replies:
            await server.recv()
            await server.send(reply)

    answering = asyncio.ensure_future(answer())
    try:
        started = time.perf_counter()
        for request in requests:
            await client.send(request)
            await client.recv()
        elapsed = time.perf_counter() - started
        await answering
        return elapsed / (2 * len(requests))
    finally:
        answering.cancel()
        await near.close()
        await far.close()


def _flight_digest(wires: Sequence[bytes], directory: str) -> float:
    recorder = FlightRecorder(directory, "ladder", mode=MODE_DIGEST)
    try:
        started = time.perf_counter()
        for wire in wires:
            recorder.on_sent(wire)
        return (time.perf_counter() - started) / len(wires)
    finally:
        recorder.close()
        shutil.rmtree(directory, ignore_errors=True)


def _bursts(wires: Sequence[bytes], depth: int) -> list[list[bytes]]:
    return [list(wires[i:i + depth]) for i in range(0, len(wires), depth)]


def wire_rows(workload: Workload, records: Sequence[str], workdir: str,
              spans: SpanRecorder, reps: int) -> tuple[Rows, dict[str, Any]]:
    """Codec, socket, hop, handshake, flight (and mux) rows of one link,
    scaled to every link of the workload."""
    pull = workload.kind != "push"
    links, size = link_shape(workload)
    codec = workload.codec
    chan = 1 if workload.kind == "hosted" else None
    requests, replies = link_frames(records, size, pull, chan)
    frames = requests + replies
    request_wires = [encode_frame(frame, codec) for frame in requests]
    reply_wires = [encode_frame(frame, codec) for frame in replies]
    wires = request_wires + reply_wires
    per_record = 1e6 * links / len(records)
    depth = workload.depth if pull else 1
    request_bursts = _bursts(request_wires, depth)
    reply_bursts = _bursts(reply_wires, depth)

    encode = _repeat(spans, "net.framing.encode_frame_into", reps,
                     lambda: _encode_all(frames, codec))
    decode = _repeat(spans, "net.framing.FrameDecoder.feed_sized", reps,
                     lambda: _decode_all(b"".join(wires)))
    exchange = _repeat(spans, "net.vectored.exchange", reps, lambda: _run(
        _socket_exchange(request_bursts, reply_bursts)))
    if pull:
        hop = _repeat(spans, "net.protocol.pull_hop", reps, lambda: _run(
            _pull_hop(records, size, depth, codec)))
    else:
        credit = chain_flow(workload).effective_credit_window()
        hop = _repeat(spans, "net.protocol.push_hop", reps, lambda: _run(
            _push_hop(records, size, credit, codec)))
    spans.sample = "ladder"
    with spans.span("net.handshake.hello"):
        hello = _run(_hello(reps))
    flight = _repeat(spans, "obs.flight.FlightRecorder.on_sent", reps,
                     lambda: _flight_digest(
                         wires, os.path.join(workdir, "flight")))

    encode_us = [t * per_record for t in encode]
    decode_us = [t * per_record for t in decode]
    socket_us = [t * per_record for t in exchange]
    hop_us = [t * 1e6 * links for t in hop]
    rows: Rows = {
        "net.framing.encode_us_per_record": encode_us,
        "net.framing.decode_us_per_record": decode_us,
        "net.vectored.write_us_per_burst": [
            t * 1e6 / (len(request_bursts) + len(reply_bursts))
            for t in exchange],
        "net.handshake.hello_ms": [t * 1e3 for t in hello],
        "obs.flight.digest_us_per_frame": [t * 1e6 for t in flight],
    }
    # Self = hop minus the codec and socket rows, repetition by repetition.
    self_us = [h - e - d - s for h, e, d, s
               in zip(hop_us, encode_us, decode_us, socket_us)]
    if pull:
        rows["net.protocol.pull_hop_us_per_record"] = hop_us
        rows["net.protocol.pull_self_us_per_record"] = self_us
    else:
        rows["net.protocol.push_hop_us_per_record"] = hop_us
    detail = {
        "links": links, "records_per_request": size,
        "ladder_records": len(records),
        "frames_per_link": len(frames), "bytes_per_link": sum(map(len, wires)),
        "socket_us_per_record": socket_us,
        "protocol_self_us_per_record": self_us,
    }
    if workload.kind == "hosted":
        relay = _repeat(spans, "net.mux.relay", reps, lambda: _run(
            _mux_relay(requests, replies, codec)))
        rows["net.mux.relay_us_per_frame"] = [t * 1e6 for t in relay]
        # A frame crosses two mux connections: host -> broker -> host.
        detail["mux_us_per_record"] = [
            t * 2 * len(frames) * per_record for t in relay]
    return rows, detail


# ---------------------------------------------------------------------------
# In-memory stage rows.
# ---------------------------------------------------------------------------


def stage_row(workload: Workload, records: Sequence[str],
              spans: SpanRecorder, reps: int) -> list[float]:
    """One identity stage in memory, minus the bare source/collector it
    wraps; µs per record, times the stages a record passes through."""
    batch = workload.batch

    if workload.kind == "push":
        _links, size = link_shape(workload)
        chunks = [Transfer.of(records[i:i + size])
                  for i in range(0, len(records), size)]

        async def feed(staged: bool) -> None:
            sink: Any = AioCollector()
            if staged:
                sink = AioWriteOnlyStage(identity_transducer(), [sink])
            for chunk in chunks:
                await sink.write(chunk)
            await sink.write(END_TRANSFER)

        drive = feed
    else:
        async def drain(staged: bool) -> None:
            source: Any = AioSource(records)
            if staged:
                source = AioReadOnlyStage(identity_transducer(), source,
                                          batch_in=batch)
            await collect(source, batch=batch)

        drive = drain

    bare = _repeat(spans, "aio.streams.bare", reps, lambda: _run(drive(False)))
    staged = _repeat(spans, "aio.streams.stage", reps,
                     lambda: _run(drive(True)))
    return [(s - b) * 1e6 * FILTERS / len(records)
            for s, b in zip(staged, bare)]


# ---------------------------------------------------------------------------
# Graph rows: the calls run_graph makes, made directly.
# ---------------------------------------------------------------------------


def _transducers(segment: LinearSegment) -> list[Any]:
    return [load_transducer(spec) for spec in segment.specs]


def _timed(spans: SpanRecorder, name: str, totals: dict[str, float],
           call: Callable[[], Any]) -> Any:
    started = time.perf_counter()
    with spans.span(name):
        result = call()
    totals[name] = totals.get(name, 0.0) + time.perf_counter() - started
    return result


def _walk(graph, spans: SpanRecorder, totals: dict[str, float],
          run_linear: Callable[[LinearSegment, list[Any]], list[Any]],
          run_block: Callable[[list[LinearSegment], list[list[Any]]],
                              list[list[Any]]]) -> list[Any]:
    """The segment walk ``run_graph`` does, with routing timed."""
    records = list(graph.source)
    for segment in graph.program.segments:
        if isinstance(segment, LinearSegment):
            records = run_linear(segment, records)
            continue
        buckets = _timed(
            spans, "api.graph.route", totals,
            lambda: partition_records(records, segment.op, segment.policy,
                                      len(segment.branches)))
        outputs = run_block(segment.branches, buckets)
        records = _timed(spans, "api.graph.route", totals,
                         lambda: join_records(outputs, segment.join))
    return records


def _sim_direct(graph, spans: SpanRecorder) -> dict[str, float]:
    """compose_segment + Kernel.run per segment, as ``_run_sim`` does."""
    totals: dict[str, float] = {}
    used = 0

    def compose(kernel, segment, records):
        return _timed(
            spans, "transput.compose_segment", totals,
            lambda: compose_segment(kernel, segment.discipline, records,
                                    _transducers(segment), flow=segment.flow))

    def run_linear(segment, records):
        nonlocal used
        built = compose(Kernel(), segment, records)
        output = _timed(spans, "core.kernel.run", totals,
                        built.run_to_completion)
        used += built.invocations_used()
        return output

    def run_block(branches, buckets):
        nonlocal used
        kernel = Kernel()
        built = [compose(kernel, branch, bucket)
                 for branch, bucket in zip(branches, buckets)]
        sinks = [sink for pipe in built for sink in pipe.sinks]

        def run():
            kernel.run(until=lambda: all(sink.done for sink in sinks))
            kernel.run()  # flush in-flight replies

        _timed(spans, "core.kernel.run", totals, run)
        used += kernel.stats.get("invocations_sent")
        return [list(pipe.sink.collected) for pipe in built]

    _walk(graph, spans, totals, run_linear, run_block)
    totals["invocations"] = used
    return totals


def _aio_direct(graph, spans: SpanRecorder) -> dict[str, float]:
    """stream_segment per linear segment, as ``_run_aio`` does."""
    totals: dict[str, float] = {}

    def run_linear(segment, records):
        return _timed(
            spans, "aio.pipeline.stream_segment", totals,
            lambda: stream_segment(
                records, _transducers(segment), segment.discipline,
                stats=KernelStats(), batch=segment.flow.batch,
                lookahead=segment.flow.lookahead))

    def run_block(branches, buckets):
        return [run_linear(branch, bucket)
                for branch, bucket in zip(branches, buckets)]

    _walk(graph, spans, totals, run_linear, run_block)
    return totals


def _tcp_direct(graph, workload: Workload, workdir: str, spans: SpanRecorder,
                spawn: bool) -> dict[str, float]:
    """plan_linear_fleet (+ run_fleet when ``spawn``) per segment, as
    ``_run_tcp`` does."""
    totals: dict[str, float] = {}
    counter = iter(range(1_000))

    def plan(segment, records, **extra):
        return _timed(
            spans, "net.launch.plan_linear_fleet", totals,
            lambda: plan_linear_fleet(
                segment.discipline,
                [(spec, []) for spec in segment.specs],
                os.path.join(workdir, f"direct-{next(counter)}"),
                source_items=records, flow=segment.flow,
                codec=workload.codec, **extra))

    def launch(plans):
        return _timed(spans, "net.launch.run_fleet", totals,
                      lambda: run_fleet(plans, timeout=SAMPLE_TIMEOUT_S))

    def run_linear(segment, records):
        plans = plan(segment, records)
        return list(launch(plans).output) if spawn else records

    def run_block(branches, buckets):
        plans = []
        for index, (branch, bucket) in enumerate(zip(branches, buckets)):
            plans.extend(plan(branch, bucket, ticket_space=index,
                              shard=index))
        if not spawn:
            return buckets
        return [list(lines) for lines in launch(plans).shard_outputs]

    try:
        _walk(graph, spans, totals, run_linear, run_block)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return totals


def graph_rows(workload: Workload, records: list[str], workdir: str,
               spans: SpanRecorder, reps: int, spawn_reps: int,
               run_wall: float) -> tuple[Rows, dict[str, Any]]:
    """Rows of a ``diamond_*`` workload.  ``run_wall`` is the median
    ``run_graph`` span of the real samples (for the execute overhead)."""
    n = len(records)
    per_record = 1e6 / n
    graph = diamond(records, workload)

    def build_once() -> None:
        diamond(records, workload)

    build = _repeat(spans, "api.graph.build", reps, build_once)
    predictions: list[Any] = []
    predict = _repeat(
        spans, "analysis.cost_model.predict_graph_invocations", reps,
        lambda: predictions.append(predict_graph_invocations(graph)))
    rows: Rows = {
        "api.graph.build_ms": [t * 1e3 for t in build],
        "analysis.cost_model.predict_ms": [t * 1e3 for t in predict],
    }
    by_segment: dict[str, int] = {}
    for edge in predictions[-1]:
        # A branch's edges count toward its parallel block, which is
        # how GraphResult.segment_invocations files them.
        block = edge.segment.rsplit(".b", 1)[0]
        by_segment[block] = by_segment.get(block, 0) + edge.invocations
    detail: dict[str, Any] = {"predicted_by_segment": by_segment}
    if workload.runtime == "tcp":
        plans = [_tcp_direct(graph, workload, workdir, spans, spawn=False)
                 for _ in range(reps)]
        one = diamond(records[:1], workload)
        spawns = []
        for rep in range(spawn_reps):
            spans.sample = f"ladder-spawn-{rep}"
            spawns.append(_tcp_direct(one, workload, workdir, spans,
                                      spawn=True))
        rows["net.launch.plan_ms"] = [
            t["net.launch.plan_linear_fleet"] * 1e3 for t in plans]
        rows["net.launch.spawn_s"] = [t["net.launch.run_fleet"]
                                      for t in spawns]
        rows["api.graph.route_us_per_record"] = [
            t["api.graph.route"] * per_record for t in plans]
        return rows, detail
    direct = _sim_direct if workload.runtime == "sim" else _aio_direct
    totals = []
    for rep in range(reps):
        spans.sample = f"ladder-{rep}"
        totals.append(direct(graph, spans))
    rows["api.graph.route_us_per_record"] = [
        t["api.graph.route"] * per_record for t in totals]
    if workload.runtime == "sim":
        rows["transput.compose_ms"] = [
            t["transput.compose_segment"] * 1e3 for t in totals]
        rows["core.run_us_per_invocation"] = [
            t["core.kernel.run"] * 1e6 / t["invocations"] for t in totals]
        detail["core_run_us_per_record"] = [
            t["core.kernel.run"] * per_record for t in totals]
        direct_wall = [t["transput.compose_segment"] + t["core.kernel.run"]
                       + t["api.graph.route"] for t in totals]
    else:
        rows["aio.segment_us_per_record"] = [
            t["aio.pipeline.stream_segment"] * per_record for t in totals]
        direct_wall = [t["aio.pipeline.stream_segment"]
                       + t["api.graph.route"] for t in totals]
    rows["api.execute.overhead_us_per_record"] = [
        (run_wall - t) * per_record for t in direct_wall]
    return rows, detail


def hosted_spawn(workload: Workload, records: list[str], workdir: str,
                 spans: SpanRecorder, reps: int) -> list[float]:
    """The hosted front door on one record: broker + host spawn, attach,
    register, teardown; seconds."""
    times = []
    for rep in range(reps):
        spans.sample = f"ladder-spawn-{rep}"
        with spans.span("broker.spawn"):
            sample = run_sample(workload, records[:1],
                                os.path.join(workdir, f"spawn-{rep}"), spans)
        if "error" in sample:
            raise RuntimeError(f"hosted spawn failed: {sample['error']}")
        times.append(sample["wall"])
    return times
