"""Host one pipeline stage in one OS process.

``python -m repro.net.stage`` (installed as ``eden-stage``) runs a
source, filter, sink, or pipe stage and wires it to its neighbours
over TCP.  The stage hosts the *same* :class:`~repro.transput.
filterbase.Transducer` objects the simulator runs, wrapped in the
:mod:`repro.aio` stages, with :class:`~repro.net.protocol.
RemoteReadable` / :class:`~repro.net.protocol.RemoteWritable` standing
in for in-process neighbours.  Connection roles per discipline:

====================  =======================  =========================
stage                 accepts (listens)        dials (connects)
====================  =======================  =========================
readonly source       pull clients             —
readonly filter       pull clients             upstream (as pull client)
readonly sink         —                        upstream (as pull client)
writeonly source      —                        downstream (as push client)
writeonly filter      push clients             downstream (as push client)
writeonly sink        push clients             —
conventional source   —                        downstream pipe (push)
conventional filter   —                        upstream pipe (pull) and
                                               downstream pipe (push)
conventional sink     —                        upstream pipe (pull)
conventional pipe     one push + one pull      —
====================  =======================  =========================

The conventional table is the paper's point made physical: because the
conventional discipline's filters are active at both ends, every
adjacent pair needs a *separate passive buffer process* (the Unix
pipe), doubling the number of servers and the per-datum message count
— run ``examples/tcp_pipeline.py`` to watch n+1 vs 2n+2 measured on
real sockets.

Clients reconnect with exponential backoff, so the stages of one
pipeline can be spawned in any order.  Every stage verifies peers'
ticket UIDs against the deterministic :class:`~repro.net.handshake.
TicketBook` named by ``--ticket-space/--ticket-seed`` and rejects
forgeries (C4).  On exit a stage can dump its on-wire counters
(``--stats-file``) and a frame-level trace in the simulator's JSONL
trace format (``--trace-file``); ``--trace-file`` also turns on span
tracing, attaching causal span contexts to every READ/WRITE frame so
the fleet's logs merge into end-to-end traces (:mod:`repro.obs`).
While running, a stage can additionally serve live STATS / SPANS /
HEALTH requests on ``--control-port`` (:mod:`repro.obs.control`);
control traffic never touches the data path's frame counts.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import importlib
import json
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.capability import PRIMARY_CHANNEL
from repro.core.tracing import Tracer
from repro.devices.workload import random_lines
from repro.aio.streams import (
    AioCollector,
    AioPipe,
    AioReadOnlyStage,
    AioSource,
    AioWriteOnlyStage,
    collect,
)
from repro.fault.plan import FaultPlan
from repro.net.affinity import current_affinity, pin_to_core
from repro.net.bufpool import POOL
from repro.net.handshake import (
    ROLE_PULL,
    ROLE_PUSH,
    HandshakeError,
    Hello,
    TicketBook,
    expect_hello,
)
from repro.net.metrics import NetStats
from repro.net.protocol import (
    Connection,
    PushState,
    RemoteReadable,
    RemoteWritable,
    ReplayLog,
    channel_key,
    serve_pull,
    serve_push,
)
from repro.net.framing import CODEC_JSON, CODECS, FrameError
from repro.obs.context import set_span
from repro.obs.flightmode import FLIGHT_MODES, MODE_FULL
from repro.obs.registry import snapshot_payload
from repro.obs.spans import CLOCK_KIND, SPAN_KIND, SpanIds
from repro.transput.filterbase import Transducer, identity_transducer
from repro.transput.flow import FlowPolicy

__all__ = [
    "StageConfig",
    "run_stage",
    "pump",
    "load_transducer",
    "pick_free_port",
    "pick_free_ports",
    "main",
]

ROLES = ("source", "filter", "sink", "pipe")
DISCIPLINES = ("readonly", "writeonly", "conventional")


def pick_free_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Ask the OS for ``count`` currently free, distinct TCP ports.

    Every probe socket stays bound until the last port is chosen, so
    the OS cannot hand the same number out twice: the ports of one
    plan are distinct by construction (bind-and-release per port let
    two stages of one fleet draw the same port and the second die with
    ``address already in use``).
    """
    with contextlib.ExitStack() as held:
        ports = []
        for _ in range(count):
            probe = held.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            probe.bind((host, 0))
            ports.append(probe.getsockname()[1])
        return ports


def pick_free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for a currently free TCP port (orchestrator helper)."""
    return pick_free_ports(1, host)[0]


async def pump(readable: Any, writable: Any, batch: int) -> None:
    """The active middle: read until END, pushing everything read.

    A traced upstream publishes each read's span as ``last_span``
    (post buffer-trace adoption); the pump makes it the current
    span so the following write joins the datum's trace.
    """
    while True:
        transfer = await readable.read(batch)
        last = getattr(readable, "last_span", None)
        if last is not None:
            set_span(last)
        await writable.write(transfer)
        if transfer.at_end:
            return


def load_transducer(spec: str, args: Sequence[Any] = ()) -> Transducer:
    """Instantiate a transducer from a ``module:factory`` spec.

    Example: ``repro.filters:grep`` with args ``["stream"]``.  The
    factory is any callable returning a Transducer (or a Transducer
    instance itself when called with no args).
    """
    module_name, _sep, attribute = spec.partition(":")
    if not _sep or not attribute:
        raise ValueError(f"transducer spec must be module:factory, got {spec!r}")
    factory = getattr(importlib.import_module(module_name), attribute)
    made = factory(*args)
    if not isinstance(made, Transducer):
        raise TypeError(f"{spec} produced {type(made).__name__}, not a Transducer")
    return made


@dataclass
class StageConfig:
    """Everything one stage process needs to know."""

    role: str
    discipline: str
    host: str = "127.0.0.1"
    listen_port: int | None = None
    upstream: tuple[str, int] | None = None
    downstream: tuple[str, int] | None = None
    channel: Any = PRIMARY_CHANNEL
    transducer_spec: str | None = None
    transducer_args: list[Any] = field(default_factory=list)
    source_items: list[Any] | None = None
    flow: FlowPolicy = field(default_factory=FlowPolicy)
    ticket_space: int = 0
    ticket_seed: int = 0
    serial: int = 0
    expected_clients: int | None = None
    stats_file: str | None = None
    trace_file: str | None = None
    output_file: str | None = None
    connect_deadline: float = 15.0
    control_port: int | None = None
    fault: FaultPlan = field(default_factory=FaultPlan)
    resume: bool = False
    io_timeout: float | None = None
    codec: str = CODEC_JSON
    shard: int | None = None
    cpu: int | None = None
    flight_dir: str | None = None
    flight_mode: str = MODE_FULL

    def __post_init__(self) -> None:
        if self.codec not in CODECS:
            raise ValueError(f"codec must be one of {CODECS}, got {self.codec!r}")
        if self.flight_mode not in FLIGHT_MODES:
            raise ValueError(
                f"flight_mode must be one of {FLIGHT_MODES}, "
                f"got {self.flight_mode!r}"
            )
        if self.shard is not None and (
            not isinstance(self.shard, int) or self.shard < 0
        ):
            raise ValueError(f"shard must be >= 0 or None, got {self.shard!r}")
        if self.cpu is not None and (
            not isinstance(self.cpu, int) or self.cpu < 0
        ):
            raise ValueError(f"cpu must be >= 0 or None, got {self.cpu!r}")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {DISCIPLINES}, got {self.discipline!r}"
            )
        if self.role == "pipe" and self.discipline != "conventional":
            raise ValueError("pipe stages exist only in the conventional discipline")
        if not isinstance(self.fault, FaultPlan):
            raise ValueError(f"fault must be a FaultPlan, got {self.fault!r}")
        if self.io_timeout is not None and (
            not isinstance(self.io_timeout, (int, float)) or self.io_timeout <= 0
        ):
            raise ValueError(
                f"io_timeout must be > 0 or None, got {self.io_timeout!r}"
            )


class _Stage:
    """The running form of one :class:`StageConfig`."""

    def __init__(self, config: StageConfig) -> None:
        self.config = config
        self.stats = NetStats()
        self.tracer = Tracer(enabled=config.trace_file is not None)
        self.book = TicketBook(space=config.ticket_space, seed=config.ticket_seed)
        self.uid = self.book.ticket(config.serial)
        self.label = f"{config.role}/{config.discipline}#{config.serial}"
        if config.shard is not None:
            self.label = f"s{config.shard}:{self.label}"
        # Core placement first, so every task/socket this stage creates
        # wakes on its shard's core (no-op off Linux or when unplanned).
        self.pinned = pin_to_core(config.cpu)
        if config.cpu is not None:
            self.stats.set_gauge("cpu_core", float(config.cpu))
            self.stats.set_gauge("cpu_pinned", 1.0 if self.pinned else 0.0)
        self.collected: list[Any] | None = None
        # Span IDs are prefixed by the ticket serial: unique across the
        # fleet with zero coordination (and zero randomness).
        self.spans = (
            SpanIds(prefix=f"s{config.serial}-") if self.tracer.enabled else None
        )
        self.started_mono = time.monotonic()
        # Fault machinery: one injector and one kill switch per stage,
        # so nth/every/kill_after schedules span all its connections.
        # Like the flight recorder and the control server, it is
        # imported by the stage that switches it on, not by every stage.
        self.injector = None
        if config.fault.frame_faults:
            from repro.fault.inject import build_injector

            self.injector = build_injector(config.fault, stats=self.stats,
                                           label=self.label)
        self.kill_switch = None
        if config.fault.kill_after is not None:
            from repro.fault.inject import KillSwitch

            self.kill_switch = KillSwitch(config.fault.kill_after,
                                          label=self.label)
        self._refusals_left = config.fault.refuse_accepts
        # Resume state outlives individual connections (restarted or
        # reconnecting peers pick up where their predecessor stopped).
        self._replay_logs: dict[Any, ReplayLog] = {}
        self._push_states: dict[Any, PushState] = {}
        # The active ends this stage dialled, hung up when it finishes:
        # a stage that fails must not leave its neighbours waiting.
        self.links: list[Any] = []
        # The flight recorder carries enough meta for the replay engine
        # to rebuild this stage in the sim kernel from the capture alone.
        self.flight = None
        if config.flight_dir is not None:
            from repro.obs.flight import FlightRecorder

            self.flight = FlightRecorder(
                config.flight_dir, self.label, mode=config.flight_mode,
                stats=self.stats,
                meta={
                    "role": config.role,
                    "discipline": config.discipline,
                    "serial": config.serial,
                    "transducer_spec": config.transducer_spec,
                    "transducer_args": list(config.transducer_args),
                    "batch": config.flow.batch,
                    "codec": config.codec,
                    "shard": config.shard,
                    "resume": config.resume,
                },
            )

    # -- building blocks ----------------------------------------------------

    def _connection(self, reader, writer, end_is_request: bool = False) -> Connection:
        return Connection(
            reader, writer, stats=self.stats, end_is_request=end_is_request,
            tracer=self.tracer, label=self.label, injector=self.injector,
            flight=self.flight,
        )

    def _remote_readable(self) -> RemoteReadable:
        host, port = self.config.upstream
        return self._linked(RemoteReadable(
            host, port, uid=self.uid, book=self.book,
            channel=self.config.channel, stats=self.stats,
            tracer=self.tracer, label=self.label,
            connect_deadline=self.config.connect_deadline,
            spans=self.spans,
            resume=self.config.resume,
            io_timeout=self.config.io_timeout,
            injector=self.injector,
            codec=self.config.codec,
            pipeline_depth=self.config.flow.effective_pipeline_depth(),
            flight=self.flight,
        ))

    def _remote_writable(self) -> RemoteWritable:
        host, port = self.config.downstream
        return self._linked(RemoteWritable(
            host, port, uid=self.uid, book=self.book,
            channel=self.config.channel, stats=self.stats,
            tracer=self.tracer, label=self.label,
            connect_deadline=self.config.connect_deadline,
            spans=self.spans,
            resume=self.config.resume,
            io_timeout=self.config.io_timeout,
            injector=self.injector,
            codec=self.config.codec,
            flight=self.flight,
        ))

    def _linked(self, remote: Any) -> Any:
        self.links.append(remote)
        return remote

    def _transducer(self) -> Transducer:
        if self.config.transducer_spec is None:
            made = identity_transducer()
        else:
            made = load_transducer(
                self.config.transducer_spec, self.config.transducer_args
            )
        if self.kill_switch is not None and self.config.role == "filter":
            from repro.fault.inject import killing_transducer

            made = killing_transducer(made, self.kill_switch)
        return made

    def _killing_readable(self, readable: Any) -> Any:
        """Wrap an active-source/sink readable in the stage's kill switch."""
        if self.kill_switch is not None:
            from repro.fault.inject import KillingReadable

            return KillingReadable(readable, self.kill_switch)
        return readable

    def _killing_writable(self, writable: Any) -> Any:
        if self.kill_switch is not None:
            from repro.fault.inject import KillingWritable

            return KillingWritable(writable, self.kill_switch)
        return writable

    def _push_state_for(self, hello: Hello) -> PushState:
        return self._push_states.setdefault(
            channel_key(hello.channel), PushState())

    async def _serve(self, readables: Any = None, writable: Any = None,
                     clients: int = 1) -> None:
        """Accept ``clients`` connections and serve them to completion.

        Under resume, a connection only counts toward ``clients`` when
        it finished its stream (its END crossed the wire): a peer that
        crashed mid-stream will reconnect as a *new* connection, and
        transport faults merely drop the connection, never the stage.
        Any other failure of a connection's serve loop — without
        resume that includes a pusher that hangs up before END — is
        the stage's failure, raised from here.

        Every WELCOME grants ``flow.effective_credit_window()`` records
        of push credit: unless a wider window is configured, exactly
        one ``batch``-sized WRITE in flight per pusher.
        """
        done = asyncio.Semaphore(0)
        failures: list[Exception] = []
        credit = self.config.flow.effective_credit_window()
        resume = self.config.resume
        # A json-configured stage only ever grants json, so one legacy
        # stage in a binary fleet degrades its own links and no others.
        codec_offer = (
            CODECS if self.config.codec != CODEC_JSON else (CODEC_JSON,)
        )
        resume_seq_for = None
        if resume:
            def resume_seq_for(hello: Hello) -> int | None:
                if hello.role != ROLE_PUSH:
                    return None
                return self._push_state_for(hello).received

        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            if self._refusals_left > 0:
                # A refuse_accepts fault: close before any handshake.
                self._refusals_left -= 1
                self.stats.bump("refused_accepts")
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return
            try:
                hello = await expect_hello(
                    reader, writer, self.book, self.uid, credit=credit,
                    resume_seq_for=resume_seq_for, codec_offer=codec_offer,
                )
                connection = self._connection(reader, writer)
                connection.codec = hello.codec
                try:
                    if hello.role == ROLE_PULL and readables is not None:
                        completed = await serve_pull(
                            connection, readables, hello,
                            logs=self._replay_logs if resume else None,
                        )
                    elif hello.role == ROLE_PUSH and writable is not None:
                        completed = await serve_push(
                            connection, writable, hello,
                            state=self._push_state_for(hello) if resume else None,
                        )
                    else:
                        return  # role this stage does not serve: not counted
                finally:
                    await connection.close()
                if completed:
                    done.release()
            except HandshakeError as error:
                print(f"[{self.label}] rejected connection: {error}",
                      file=sys.stderr)
            except Exception as error:
                if resume and isinstance(
                        error, (ConnectionError, OSError, FrameError, EOFError)):
                    # The peer died mid-connection; it (or its restarted
                    # successor) will be back — drop this connection only.
                    self.stats.bump("client_disconnects")
                    print(f"[{self.label}] client link failed: {error}",
                          file=sys.stderr)
                    return
                failures.append(error)
                done.release()

        server = await asyncio.start_server(
            handle, host=self.config.host, port=self.config.listen_port or 0
        )
        try:
            for _ in range(clients):
                await done.acquire()
                if failures:
                    raise failures[0]
        finally:
            server.close()
            await server.wait_closed()

    # -- role bodies --------------------------------------------------------

    async def run(self) -> None:
        config = self.config
        flow = config.flow
        if config.role == "source":
            items = config.source_items or []
            if config.discipline == "readonly":
                await self._serve(
                    readables=self._killing_readable(AioSource(items)),
                    clients=config.expected_clients or 1,
                )
            else:  # writeonly and conventional sources both push
                await pump(
                    self._killing_readable(AioSource(items)),
                    self._remote_writable(), flow.batch,
                )
        elif config.role == "filter":
            transducer = self._transducer()  # kill switch wraps it here
            if config.discipline == "readonly":
                stage = AioReadOnlyStage(
                    transducer, self._remote_readable(),
                    lookahead=flow.lookahead, batch_in=flow.batch,
                )
                await self._serve(readables=stage,
                                  clients=config.expected_clients or 1)
            elif config.discipline == "writeonly":
                stage = AioWriteOnlyStage(transducer, [self._remote_writable()])
                await self._serve(writable=stage,
                                  clients=config.expected_clients or 1)
            else:  # conventional: active at both ends
                stage = AioWriteOnlyStage(transducer, [self._remote_writable()])
                await pump(self._remote_readable(), stage, flow.batch)
        elif config.role == "sink":
            if config.discipline == "writeonly":
                collector = AioCollector()
                await self._serve(writable=self._killing_writable(collector),
                                  clients=config.expected_clients or 1)
                await collector.done.wait()
                self.collected = list(collector.items)
            else:  # readonly and conventional sinks both pull
                self.collected = await collect(
                    self._killing_readable(self._remote_readable()),
                    batch=flow.batch,
                )
        else:  # pipe: a passive buffer process (the Unix pipe, §1)
            capacity = flow.buffer_capacity or 64
            pipe = AioPipe(capacity=capacity)
            await self._serve(readables=pipe,
                              writable=self._killing_writable(pipe),
                              clients=config.expected_clients or 2)

    # -- introspection ------------------------------------------------------

    def control_handlers(self) -> dict[str, Any]:
        """The stage's live-introspection command table (CTRL frames)."""
        from repro.core.tracing import event_to_dict

        def stats_cmd(_body: dict[str, Any]) -> Any:
            POOL.export_gauges(self.stats)
            return snapshot_payload(self.stats)

        def spans_cmd(body: dict[str, Any]) -> Any:
            limit = max(1, int(body.get("limit", 200)))
            return [
                event_to_dict(event)
                for event in self.tracer.of_kind(SPAN_KIND)[-limit:]
            ]

        def health_cmd(_body: dict[str, Any]) -> Any:
            return {
                "label": self.label,
                "role": self.config.role,
                "discipline": self.config.discipline,
                "serial": self.config.serial,
                "uptime_s": time.monotonic() - self.started_mono,
                "tracing": self.tracer.enabled,
                "flow": self.config.flow.describe(),
                "resume": self.config.resume,
                "fault": self.config.fault.as_dict(),
                "codec": self.config.codec,
                "shard": self.config.shard,
                "cpu": self.config.cpu,
                "pinned": self.pinned,
                "affinity": current_affinity(),
                "flight": (self.flight.describe()
                           if self.flight is not None else None),
            }

        return {"stats": stats_cmd, "spans": spans_cmd, "health": health_cmd}

    # -- reporting ----------------------------------------------------------

    def emit_output(self) -> None:
        if self.collected is None:
            return
        lines = "".join(f"{item}\n" for item in self.collected)
        if self.config.output_file:
            with open(self.config.output_file, "w", encoding="utf-8") as handle:
                handle.write(lines)
        else:
            sys.stdout.write(lines)
            sys.stdout.flush()

    def emit_stats(self) -> None:
        if self.config.stats_file:
            POOL.export_gauges(self.stats)
            payload = {
                "role": self.config.role,
                "discipline": self.config.discipline,
                "serial": self.config.serial,
                # counters/gauges/histograms, same shape the control
                # protocol's `stats` command serves.
                **snapshot_payload(self.stats),
            }
            with open(self.config.stats_file, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
        if self.config.trace_file:
            self.tracer.to_jsonl(self.config.trace_file)


async def run_stage(config: StageConfig) -> _Stage:
    """Run one stage to stream completion; returns the finished stage."""
    stage = _Stage(config)
    if stage.tracer.enabled:
        # Anchor this process's monotonic clock to the wall clock so
        # the trace merger can align logs from different processes.
        mono = time.monotonic()
        stage.tracer.emit(
            mono, CLOCK_KIND, stage.label, mono=mono, wall=time.time()
        )
    control = None
    if config.control_port is not None:
        from repro.obs.control import start_control_server

        control = await start_control_server(
            stage.control_handlers(), host=config.host, port=config.control_port
        )
    started = time.monotonic()
    try:
        await stage.run()
    finally:
        for link in stage.links:
            await link.aclose()
        if stage.flight is not None:
            stage.flight.close()
        if control is not None:
            control.close()
            await control.wait_closed()
    stage.stats.bump("runtime_ms", int((time.monotonic() - started) * 1000))
    return stage


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def _address(text: str) -> tuple[str, int]:
    host, _sep, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eden-stage",
        description="Host one asymmetric-stream pipeline stage over TCP.",
    )
    parser.add_argument("--role", required=True, choices=ROLES)
    parser.add_argument("--discipline", required=True, choices=DISCIPLINES)
    parser.add_argument("--listen", type=int, default=None, metavar="PORT",
                        help="port to accept connections on (server roles)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--upstream", type=_address, default=None,
                        metavar="HOST:PORT", help="stage to read from")
    parser.add_argument("--downstream", type=_address, default=None,
                        metavar="HOST:PORT", help="stage to write to")
    parser.add_argument("--channel", default=PRIMARY_CHANNEL)
    parser.add_argument("--transducer", default=None, metavar="MODULE:FACTORY")
    parser.add_argument("--transducer-args", default="[]", metavar="JSON")
    parser.add_argument("--source-json", default=None, metavar="JSON",
                        help="explicit source records as a JSON array")
    parser.add_argument("--source-count", type=int, default=None,
                        help="generate this many random lines instead")
    parser.add_argument("--source-width", type=int, default=8)
    parser.add_argument("--source-seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--lookahead", type=int, default=0)
    parser.add_argument("--inbox-capacity", type=int, default=None)
    parser.add_argument("--buffer-capacity", type=int, default=64)
    parser.add_argument("--credit-window", type=int, default=None,
                        help="explicit push credit window (default: derived)")
    parser.add_argument("--pipeline-depth", type=int, default=None,
                        help="READ requests kept in flight (default: derived)")
    parser.add_argument("--codec", default=CODEC_JSON, choices=CODECS,
                        help="preferred frame body codec (negotiated per link)")
    parser.add_argument("--shard", type=int, default=None,
                        help="shard index of this stage's sub-pipeline")
    parser.add_argument("--cpu", type=int, default=None, metavar="CORE",
                        help="pin this stage to a CPU core (Linux; no-op "
                             "elsewhere)")
    parser.add_argument("--ticket-space", type=int, default=0)
    parser.add_argument("--ticket-seed", type=int, default=0)
    parser.add_argument("--serial", type=int, default=0,
                        help="this stage's ticket serial in the book")
    parser.add_argument("--expected-clients", type=int, default=None)
    parser.add_argument("--stats-file", default=None)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--output-file", default=None)
    parser.add_argument("--connect-deadline", type=float, default=15.0)
    parser.add_argument("--control-port", type=int, default=None, metavar="PORT",
                        help="serve STATS/SPANS/HEALTH control requests here")
    parser.add_argument("--fault-json", default=None, metavar="JSON",
                        help="FaultPlan this stage should suffer")
    parser.add_argument("--resume", action="store_true",
                        help="enable session resume (seq numbers + replay)")
    parser.add_argument("--io-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="reply silence treated as a dead link (resume)")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="record every frame to rotating segment files "
                             "under DIR (the flight recorder)")
    parser.add_argument("--flight-mode", default=MODE_FULL,
                        choices=sorted(FLIGHT_MODES),
                        help="full payloads (replayable) or digests only "
                             "(cheapest; timing + conformance)")
    return parser


def config_from_args(argv: Sequence[str] | None = None) -> StageConfig:
    """Parse a command line into a :class:`StageConfig`."""
    parser = _parser()
    options = parser.parse_args(argv)
    source_items = None
    if options.source_json is not None:
        source_items = json.loads(options.source_json)
    elif options.source_count is not None:
        source_items = random_lines(
            count=options.source_count, width=options.source_width,
            seed=options.source_seed,
        )
    elif options.role == "source":
        parser.error("--role source requires --source-json or --source-count")
    return StageConfig(
        role=options.role,
        discipline=options.discipline,
        host=options.host,
        listen_port=options.listen,
        upstream=options.upstream,
        downstream=options.downstream,
        channel=options.channel,
        transducer_spec=options.transducer,
        transducer_args=json.loads(options.transducer_args),
        source_items=source_items,
        flow=FlowPolicy(
            lookahead=options.lookahead,
            batch=options.batch,
            buffer_capacity=options.buffer_capacity,
            inbox_capacity=options.inbox_capacity,
            credit_window=options.credit_window,
            pipeline_depth=options.pipeline_depth,
        ),
        ticket_space=options.ticket_space,
        ticket_seed=options.ticket_seed,
        serial=options.serial,
        expected_clients=options.expected_clients,
        stats_file=options.stats_file,
        trace_file=options.trace_file,
        output_file=options.output_file,
        connect_deadline=options.connect_deadline,
        control_port=options.control_port,
        fault=(FaultPlan.from_json(options.fault_json)
               if options.fault_json is not None else FaultPlan()),
        resume=options.resume,
        io_timeout=options.io_timeout,
        codec=options.codec,
        shard=options.shard,
        cpu=options.cpu,
        flight_dir=options.flight_dir,
        flight_mode=options.flight_mode,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: run one stage to completion."""
    try:
        config = config_from_args(argv)
        stage = asyncio.run(run_stage(config))
    except KeyboardInterrupt:
        return 130
    except Exception as error:  # surface the cause, fail the process
        print(f"eden-stage: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    stage.emit_output()
    stage.emit_stats()
    return 0


if __name__ == "__main__":
    sys.exit(main())
