"""eden-host: hundreds of pipeline stages in one asyncio process.

``python -m repro.broker.host`` (installed as ``eden-host``) runs many
lightweight stages inside a single event loop, over a *single* TCP
connection to the broker.  Each hosted stage is the stage
:mod:`repro.net.stage` runs one-per-process — the same role table,
serve loop, transducers, flow policies and resume machinery — whose
links are logical channels (:mod:`repro.net.mux`) opened by
fleet-scoped *name* through the broker, so the host never binds a
data port.  The broker issues every route, and every route is
admitted by the ticket handshake (C4).  A route to a stage in another
host is relayed by the broker.  A route between two stages of this
host is spliced in-process: its handshake crosses as frames, and then
its stream runs as **direct calls** — the active end's ``read`` /
``write`` awaits the serving stage's own readable / writable, so a
read at a sink runs down the whole chain in one task, with no frame,
no encode and no task switch, counting the same invocations and
records.  A same-host route keeps its frames (encode, fault injection,
decode and counts, spliced with no socket crossing) when a trace, a
flight recorder, a fault plan, resume, read pipelining or an
``io_timeout`` needs them; :meth:`StageHost._direct_route` is the one
place that decides.  The host adds only the broker client,
registration, accept routing, the route choice, control handlers and
output/stats emission; its stages restart through ``net.stage``'s one
incarnation loop, which a process fleet's in-loop ends also use.

What survives the density jump:

- **Ticketed identity per stage.**  Each stage registers with the
  broker and receives its own serial, hence its own ticket UID; every
  channel handshake still verifies tickets (C4), and span ids keep
  their ``s<serial>-`` fleet-unique prefixes.
- **Supervision.**  Each stage runs incarnation by incarnation under
  the FleetSupervisor's own :class:`~repro.fault.plan.RestartRule`
  (backoff, per-stage budget, the same counter names): a crash (a
  ``kill_after`` fault, a non-resumable link error) tears down only
  that stage's incarnation.  Mid-stream peers observe a channel hangup
  and reopen by name — their opens park in the stage's accept queue
  until its next incarnation serves them.
- **Fault plans.**  ``kill_after`` trips an in-process kill (the
  stage dies; the host lives), frame faults inject per-channel, and
  ``refuse_accepts`` declines accepted channels before the handshake.
  A restarted stage runs the plan's survivor, as a restarted process
  does.
- **Observability.**  One tracer carries every stage's spans (one
  trace file for the whole host; the merger groups evidence by each
  span's own stage label), and the host serves live STATS / HEALTH /
  STAGES control requests for ``eden-top``.

The conventional discipline is refused: its every adjacent pair needs
a separate passive pipe *process*, which is exactly the cost the
hosted placement exists to avoid (the paper's §1 argument, inverted).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, AsyncIterator, Awaitable, NoReturn, Sequence

from repro.core.errors import EdenError, StreamProtocolError
from repro.core.tracing import Tracer
from repro.fault.plan import (
    FaultPlan,
    InjectedKill,
    RestartRefused,
    RestartRule,
)
from repro.net.bufpool import POOL
from repro.net.framing import Frame, FrameType, decode_frame, encode_frame
from repro.net.handshake import ROLE_PULL, Hello, TicketBook
from repro.net.metrics import NetStats
from repro.net.mux import HostedReadable, HostedWritable, MuxChannel
from repro.net.protocol import WireError
from repro.net.stage import (
    StageConfig,
    _Stage,
    emit_records,
    plan_values,
    read_plan,
    serves_roles,
    supervise_incarnations,
)
from repro.obs.flightmode import FLIGHT_MODES, MODE_FULL
from repro.obs.registry import snapshot_payload
from repro.obs.spans import CLOCK_KIND, SpanIds
from repro.transput.stream import END_TRANSFER, Transfer
from repro.broker.client import BrokerClient

__all__ = [
    "HostConfig",
    "HostError",
    "StageHost",
    "run_host",
    "main",
]

HOSTED_ROLES = ("source", "filter", "sink")
HOSTED_DISCIPLINES = ("readonly", "writeonly")


class HostError(EdenError):
    """A stage host failed (restart budget spent, broker lost, ...)."""


@dataclass
class HostConfig:
    """Everything one stage-host process needs to know.

    The per-process fields, plus the :class:`~repro.net.stage.
    StageConfig` of every stage the host runs — the description a
    process stage gets, with fleet-scoped names for peers.  A host has
    one ticket book and one label shape, so its stages share one
    discipline and one ``ticket_space`` / ``ticket_seed``; the broker
    mints each stage's serial at registration.
    """

    broker_host: str
    broker_port: int
    stages: list[StageConfig]
    serial: int = 2
    max_restarts: int = 0
    stats_file: str | None = None
    trace_file: str | None = None
    control_port: int | None = None
    flight_dir: str | None = None
    flight_mode: str = MODE_FULL

    def __post_init__(self) -> None:
        if self.flight_mode not in FLIGHT_MODES:
            raise ValueError(
                f"flight_mode must be one of {FLIGHT_MODES}, "
                f"got {self.flight_mode!r}"
            )
        if not self.stages:
            raise ValueError("a host plan needs at least one stage")
        for key in ("discipline", "ticket_space", "ticket_seed"):
            values = sorted({getattr(stage, key) for stage in self.stages})
            if len(values) > 1:
                raise ValueError(f"a host's stages share one {key}, "
                                 f"got {values}")
        if self.discipline not in HOSTED_DISCIPLINES:
            raise ValueError(
                f"hosted discipline must be one of {HOSTED_DISCIPLINES}, got "
                f"{self.discipline!r} (conventional needs a pipe process per "
                f"link; use the process placement)"
            )
        for stage in self.stages:
            if not stage.name:
                raise ValueError("every hosted stage needs a non-empty name")
            if stage.role not in HOSTED_ROLES:
                raise ValueError(
                    f"role must be one of {HOSTED_ROLES}, got {stage.role!r}"
                )
            for peer in (stage.upstream, stage.downstream):
                if peer is not None and not isinstance(peer, str):
                    raise ValueError(f"stage {stage.name!r} must name its "
                                     f"peers for the broker, got {peer!r}")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")

    @property
    def discipline(self) -> str:
        return self.stages[0].discipline


class _HostedStage:
    """One hosted stage across its incarnations: what the host keeps."""

    def __init__(self, config: StageConfig, host: "StageHost") -> None:
        self.config = config
        self.host = host
        self.serial = 0  # assigned by broker registration
        self.uid = None  # ticket minted once the serial is known
        self.label = f"{config.role}/{config.discipline}"
        self.spans: SpanIds | None = None
        # Accepted channels wait here between incarnations, so a
        # restart's clients park instead of failing.
        self.accepts: asyncio.Queue[MuxChannel] = asyncio.Queue()
        self.collected: list[Any] | None = None
        self.restarts = 0
        self.state = "pending"

    def adopt_serial(self, serial: int) -> None:
        self.serial = serial
        self.uid = self.host.book.ticket(serial)
        # The same label shape eden-stage uses, so merged traces read
        # identically whatever the placement was.
        self.label = f"{self.config.role}/{self.config.discipline}#{serial}"
        if self.host.tracer.enabled:
            self.spans = SpanIds(prefix=f"s{serial}-")


class _Incarnation(_Stage):
    """One lifetime of a hosted stage: ``net.stage``'s own runtime.

    As :class:`repro.net.mux.HostedReadable` is a ``RemoteReadable``
    that dials a broker channel, this is a stage whose links are broker
    channels: active ends are opened by name and passive links arrive
    on the stage's accept queue.  Everything else — the role table, the
    serve loop, resume, fault injection — is the process stage's.
    Resume state lives and dies with the incarnation, exactly what a
    process restart loses.
    """

    def __init__(self, record: _HostedStage, fault: FaultPlan) -> None:
        host = record.host
        super().__init__(
            dataclasses.replace(record.config, serial=record.serial,
                                fault=fault),
            stats=host.stats, tracer=host.tracer, book=host.book)
        self.record = record
        self.opener = host.client.opener()
        # One allocator across incarnations: span ids stay unique in
        # the host's single trace.
        self.spans = record.spans

    def _remote_readable(self) -> HostedReadable:
        return self._linked(_HostedReadable(
            self, self.config.upstream, **self._end_options(True)))

    def _remote_writable(self) -> HostedWritable:
        return self._linked(_HostedWritable(
            self, self.config.downstream, **self._end_options(False)))

    @contextlib.asynccontextmanager
    async def _accepting(self) -> AsyncIterator[asyncio.Queue]:
        yield self.record.accepts

    async def _admit(self, channel: MuxChannel, **offer: Any) -> Hello:
        channel.stats = self.stats
        channel.tracer = self.tracer
        channel.label = self.label
        channel.injector = self.injector
        return await super()._admit(channel, **offer)

    def _stream(self, link: MuxChannel, hello: Hello,
                passive: Any) -> Awaitable[bool]:
        route = self.record.host._direct_route(self, link, hello, passive)
        if route is None:
            return super()._stream(link, hello, passive)
        return route.served()


#: Record types both codecs carry back as themselves, exactly: a direct
#: route hands a transfer of nothing else over as it is.
_CARRIED_AS_IS = frozenset((str, int, bool, type(None), bytes))


def _as_delivered(transfer: Transfer, codec: str) -> Transfer:
    """``transfer`` as a socket would deliver it over ``codec``.

    Records of the exact types in :data:`_CARRIED_AS_IS` are handed over
    as they are.  Any other transfer is round-tripped through the codec,
    so an ``IntEnum`` arrives as its ``int``, a named tuple as a
    ``tuple``, and a record the codec cannot encode raises the
    :class:`~repro.net.framing.FrameError` a send would.
    """
    items = transfer.items
    if _CARRIED_AS_IS.issuperset(map(type, items)):
        return transfer
    frame, _used = decode_frame(encode_frame(
        Frame(FrameType.DATA, {"items": list(items)}), codec))
    return Transfer.of(frame.body["items"])


class _DirectRoute:
    """An admitted same-host route whose stream runs as direct calls.

    :meth:`StageHost._direct_route` makes one once the route's WELCOME
    is through and makes it the active end's ``route``.  From then on
    the end's ``read`` (or ``write``) is this route's: it awaits the
    serving stage's own readable (or writable) in the caller's task, so
    a read at a sink runs down a whole chain of such routes in one task
    with no frame.  Each call counts what its frames would have counted
    (``invocations_sent`` and ``records_in`` / ``records_out`` at the
    active end; ``replies_sent`` and the other ``records_*`` at the
    serving one), and no ``frames_*`` / ``bytes_*`` / ``mux_*``.

    The serving stage's task waits in :meth:`served` on its channel,
    which carries nothing after the handshake but the route's hangup:
    the END hangs it up to complete the stream; an exception raised
    while serving a call hangs it up to fail the serving stage with it,
    and the active end then waits for the broker's hangup, which it
    sees as over frames.
    """

    def __init__(self, end: "_HostedReadable | _HostedWritable",
                 link: MuxChannel, passive: Any, stats: NetStats) -> None:
        #: The active end, the serving stage's channel and its passive
        #: side: the readable or writable its serve loop would serve.
        self.end = end
        self.link = link
        self.passive = passive
        self.stats = stats
        self.codec = link.codec
        self.ended = False
        self.error: Exception | None = None
        #: Push: the credit each ACK would refund, oldest first.
        self._acks: deque[int] = deque()

    async def served(self) -> bool:
        """The serving stage's side: True once the stream completed.

        A pull route completes however the reader hangs up, as
        ``serve_pull`` does without resume; a push route only once its
        END crossed, as ``serve_push`` does.
        """
        frame = await self.link.recv()
        if self.error is not None:
            raise self.error
        if frame is not None:
            raise WireError(f"direct route got a {frame.type.name} frame")
        if not self.ended and self.end.role != ROLE_PULL:
            raise WireError("peer closed mid-stream (no END received)")
        return True

    async def _failed(self, error: Exception, hangup: str) -> NoReturn:
        """Fail the serving stage with ``error``; the active end then
        fails as over frames, once the broker hangs its channel up."""
        self.error = error
        self.link.hangup()
        connection = self.end._connection
        if connection is not None:
            await connection.recv()
        raise WireError(hangup)

    def _complete(self) -> None:
        self.ended = True
        self.link.hangup()
        self.end._ended = True

    async def read(self, batch: int = 1) -> Transfer:
        """One READ→DATA (or END) round trip, as a call."""
        end = self.end
        if end._ended:
            return END_TRANSFER
        end.stats.counters["invocations_sent"] += 1
        try:
            transfer = _as_delivered(await self.passive.read(max(1, batch)),
                                     self.codec)
        except Exception as error:
            await self._failed(error,
                               "peer closed mid-stream (no END received)")
        self.stats.counters["replies_sent"] += 1
        if transfer is END_TRANSFER:
            self._complete()
            await end.aclose()
            return transfer
        count = len(transfer.items)
        self.stats.counters["records_out"] += count
        if count:
            end.stats.counters["records_in"] += count
        return transfer

    async def write(self, transfer: Transfer) -> None:
        """The WRITE→ACK round trips of one transfer, as calls: cut to
        the credit the WELCOME granted, as the frames would be."""
        end = self.end
        if end._ended:
            raise StreamProtocolError("write after END")
        items = transfer.items
        sent = 0
        while sent < len(items):
            while end._credit <= 0:
                end._credit += self._acks.popleft()
            if not sent and len(items) <= end._credit:
                part = transfer
            else:
                part = Transfer.of(items[sent:sent + end._credit])
            count = len(part.items)
            sent += count
            end._credit -= count
            await self._call(_as_delivered(part, self.codec))
            end.stats.counters["records_out"] += count
            self.stats.counters["records_in"] += count
            self._acks.append(count)
        if transfer is END_TRANSFER:
            await self._call(transfer)
            self._complete()
            await end.aclose()

    async def _call(self, transfer: Transfer) -> None:
        """One pushed request (a WRITE, or the END) and its ACK."""
        self.end.stats.counters["invocations_sent"] += 1
        try:
            await self.passive.write(transfer)
        except Exception as error:
            await self._failed(error, "peer closed while acks were outstanding")
        self.stats.counters["replies_sent"] += 1


class _Dialled:
    """Mixed in before a hosted stage's active end: it registers every
    same-host route it opens with the host, where the serving stage
    picks the route's path once it has admitted it.

    The first ``read`` / ``write`` dials and is admitted, unless the end
    resumes (which always streams by frames); from then on the end's
    ``read`` / ``write`` is the path's own: its :class:`_DirectRoute`'s,
    or the frames' ``RemoteReadable`` / ``RemoteWritable`` one.
    """

    #: Set by the serving stage when the route streams direct.
    route: _DirectRoute | None = None

    def __init__(self, stage: "_Incarnation", target: str,
                 **options: Any) -> None:
        super().__init__(self._open, target, **options)
        self.stage = stage

    async def _open(self, target: str, role: str) -> MuxChannel:
        channel = await self.stage.opener(target, role)
        if channel.peer is not None:
            self.stage.record.host.dialled[channel.chan] = self
        return channel

    async def _admitted(self) -> _DirectRoute | None:
        if not self.resume:
            await self._ensure_connected()
        return self.route


class _HostedReadable(_Dialled, HostedReadable):
    """A hosted stage's upstream end."""

    async def read(self, batch: int = 1) -> Transfer:
        route = await self._admitted()
        self.read = super().read if route is None else route.read
        return await self.read(batch)


class _HostedWritable(_Dialled, HostedWritable):
    """A hosted stage's downstream end."""

    async def write(self, transfer: Transfer) -> None:
        route = await self._admitted()
        self.write = super().write if route is None else route.write
        await self.write(transfer)


class StageHost:
    """Run every stage of a :class:`HostConfig` inside one event loop."""

    def __init__(self, config: HostConfig) -> None:
        self.config = config
        self.stats = NetStats()
        self.tracer = Tracer(enabled=config.trace_file is not None)
        first = config.stages[0]
        self.book = TicketBook(space=first.ticket_space, seed=first.ticket_seed)
        # One recorder for the whole host: every hosted stage's frames
        # pass through the single broker mux — relayed or spliced — so
        # hooking it sees them all (the channel id in each record says
        # whose they are).
        self.flight = None
        if config.flight_dir is not None:
            from repro.obs.flight import FlightRecorder

            self.flight = FlightRecorder(
                config.flight_dir, f"host#{config.serial}",
                mode=config.flight_mode, stats=self.stats,
                meta={
                    "role": "host",
                    "discipline": config.discipline,
                    "serial": config.serial,
                    "stages": [
                        {
                            "name": stage.name,
                            "role": stage.role,
                            "transducer_spec": stage.transducer_spec,
                            "transducer_args": list(stage.transducer_args),
                            "codec": stage.codec,
                            "resume": stage.resume,
                        }
                        for stage in config.stages
                    ],
                },
            )
        self.client = BrokerClient(
            config.broker_host, config.broker_port, self.book,
            serial=config.serial, label=f"host#{config.serial}",
            stats=self.stats, tracer=self.tracer,
            connect_deadline=max(stage.connect_deadline
                                 for stage in config.stages),
            on_accept=self._on_accept,
            flight=self.flight,
        )
        self.restart_rule = RestartRule(self.stats,
                                        max_restarts=config.max_restarts)
        self.stages = [_HostedStage(stage, self) for stage in config.stages]
        #: Channel id -> the active end of this host that opened it, for
        #: the same-host routes their serving stages have not admitted.
        self.dialled: dict[int, _Dialled] = {}
        self._by_name = {stage.config.name: stage for stage in self.stages}
        self.started_mono = time.monotonic()

    # -- broker side ---------------------------------------------------------

    def _on_accept(self, channel: MuxChannel, notice: dict[str, Any]) -> None:
        """Route an accepted channel to its stage's inbox.

        Runs inside the mux read loop, so it must not block: the
        channel just lands in the stage's accept queue, where the
        handshake frames wait (buffered in the channel inbox) until
        the stage's current incarnation picks it up — which is also
        what parks new clients during a restart backoff.
        """
        stage = self._by_name.get(notice.get("name"))
        if stage is None:
            self.stats.bump("host_orphan_accepts")
            asyncio.ensure_future(channel.close())
            return
        stage.accepts.put_nowait(channel)

    async def _register_all(self) -> None:
        for stage in self.stages:
            serial = await self.client.register(
                stage.config.name,
                serves=serves_roles(stage.config.role, stage.config.discipline),
            )
            stage.adopt_serial(serial)
        self.stats.set_gauge("hosted_stages", float(len(self.stages)))

    def _direct_route(self, server: _Incarnation, link: MuxChannel,
                      hello: Hello, passive: Any) -> _DirectRoute | None:
        """How an admitted route streams: the one place it is chosen.

        ``None`` keeps the frames; a :class:`_DirectRoute` streams by
        direct calls.  Evaluated once per route, by its serving stage
        right after the WELCOME.  Direct needs all of: both ends on this
        host; no tracer and no flight recorder; both stages planned with
        an empty fault plan and without resume; an active end with no
        ``io_timeout`` that, if it reads, keeps one READ in flight.
        Every other route keeps its frames, so the evidence a trace, a
        capture, a fault or a resume needs is exactly what it was.
        """
        end = self.dialled.pop(link.peer, None)
        if end is None or self.tracer.enabled or self.flight is not None:
            return None
        for stage in (server, end.stage):
            planned = stage.record.config
            if planned.resume or not planned.fault.is_benign:
                return None
        if end.io_timeout is not None or (hello.role == ROLE_PULL
                                          and end.pipeline_depth != 1):
            return None
        route = _DirectRoute(end, link, passive, server.stats)
        end.route = route
        return route

    # -- one stage, incarnation by incarnation -----------------------------

    async def _supervise(self, record: _HostedStage) -> None:
        """Run a stage to completion, restarting crashed incarnations
        (:func:`~repro.net.stage.supervise_incarnations`); a refused
        restart fails the host."""
        try:
            stage = await supervise_incarnations(
                record, self.restart_rule, record.config.name,
                record.config.fault,
                lambda fault: _Incarnation(record, fault))
        except RestartRefused as refused:
            crash = refused.__context__
            raise HostError(
                f"stage {record.config.name!r} spent its restart budget "
                f"({self.config.max_restarts}): {crash}"
            ) from (None if isinstance(crash, InjectedKill) else crash)
        record.collected = stage.collected

    # -- whole-host lifecycle ------------------------------------------------

    async def run(self) -> None:
        if self.tracer.enabled:
            mono = time.monotonic()
            self.tracer.emit(
                mono, CLOCK_KIND, f"host#{self.config.serial}",
                mono=mono, wall=time.time(),
            )
        await self.client.connect()
        control = None
        if self.config.control_port is not None:
            from repro.obs.control import start_control_server

            control = await start_control_server(
                self.control_handlers(), port=self.config.control_port
            )
        try:
            await self._register_all()
            supervisors = [
                asyncio.ensure_future(self._supervise(stage))
                for stage in self.stages
            ]
            try:
                await asyncio.gather(*supervisors)
            except BaseException:
                for task in supervisors:
                    task.cancel()
                await asyncio.gather(*supervisors, return_exceptions=True)
                raise
        finally:
            if control is not None:
                control.close()
                await control.wait_closed()
            await self.client.close()
            if self.flight is not None:
                self.flight.close()
        self.stats.bump(
            "runtime_ms", int((time.monotonic() - self.started_mono) * 1000)
        )

    # -- introspection -------------------------------------------------------

    def control_handlers(self) -> dict[str, Any]:
        def stats_cmd(_body: dict[str, Any]) -> Any:
            POOL.export_gauges(self.stats)
            return snapshot_payload(self.stats)

        def health_cmd(_body: dict[str, Any]) -> Any:
            states: dict[str, int] = {}
            for stage in self.stages:
                states[stage.state] = states.get(stage.state, 0) + 1
            return {
                "label": f"host#{self.config.serial}",
                "role": "host",
                "discipline": self.config.discipline,
                "serial": self.config.serial,
                "uptime_s": time.monotonic() - self.started_mono,
                "hosted": len(self.stages),
                "states": states,
                "channels_open": int(
                    self.stats.gauges().get("mux_channels_open", 0.0)
                ),
                "tracing": self.tracer.enabled,
                "flight": (self.flight.describe()
                           if self.flight is not None else None),
            }

        def stages_cmd(body: dict[str, Any]) -> Any:
            limit = max(1, int(body.get("limit", 1000)))
            return [
                {
                    "name": stage.config.name,
                    "role": stage.config.role,
                    "serial": stage.serial,
                    "state": stage.state,
                    "restarts": stage.restarts,
                }
                for stage in self.stages[:limit]
            ]

        return {"stats": stats_cmd, "health": health_cmd, "stages": stages_cmd}

    # -- reporting -----------------------------------------------------------

    def emit_output(self) -> None:
        emit_records([item for stage in self.stages
                      for item in stage.collected or ()])

    def emit_stats(self) -> None:
        if self.config.stats_file:
            POOL.export_gauges(self.stats)
            payload = {
                "role": "host",
                "discipline": self.config.discipline,
                "serial": self.config.serial,
                "hosted": len(self.stages),
                **snapshot_payload(self.stats),
            }
            with open(self.config.stats_file, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
        if self.config.trace_file:
            self.tracer.to_jsonl(self.config.trace_file)


async def run_host(config: HostConfig) -> StageHost:
    """Run every stage of ``config`` to completion; returns the host."""
    host = StageHost(config)
    await host.run()
    return host


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def config_from_args(argv: Sequence[str] | None = None) -> HostConfig:
    """The :class:`HostConfig` in the ``--plan-file`` ``argv`` names."""
    values = plan_values(HostConfig, read_plan(
        argv, "eden-host",
        "Host many pipeline stages in one process via a broker."))
    values["stages"] = [StageConfig.from_dict(stage)
                        for stage in values["stages"]]
    return HostConfig(**values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        config = config_from_args(argv)
        host = asyncio.run(run_host(config))
    except KeyboardInterrupt:
        return 130
    except Exception as error:
        print(f"eden-host: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    host.emit_output()
    host.emit_stats()
    return 0


if __name__ == "__main__":
    sys.exit(main())
