"""eden-host: hundreds of pipeline stages in one asyncio process.

``python -m repro.broker.host`` (installed as ``eden-host``) runs many
lightweight stages — the same transducers, flow policies, and resume
machinery :mod:`repro.net.stage` hosts one-per-process — inside a
single event loop, over a *single* TCP connection to the broker.
Every inter-stage link is a logical channel (:mod:`repro.net.mux`)
opened by fleet-scoped *name* through the broker, so the host never
binds a data port and two stages in the same host talk through the
broker exactly like stages on different machines.

What survives the density jump:

- **Ticketed identity per stage.**  Each stage registers with the
  broker and receives its own serial, hence its own ticket UID; every
  channel handshake still verifies tickets (C4), and span ids keep
  their ``s<serial>-`` fleet-unique prefixes.
- **Supervision.**  Each stage runs under its own in-process
  supervise loop with the FleetSupervisor's semantics: a crash (a
  ``kill_after`` fault, a non-resumable link error) tears down only
  that stage's incarnation, which restarts with backoff against a
  restart budget.  Mid-stream peers observe a channel hangup and
  reopen by name — the broker parks their opens until the stage's
  next incarnation re-registers its serve loop.
- **Fault plans.**  ``kill_after`` trips an in-process kill (the
  stage dies; the host lives), frame faults inject per-channel, and
  ``refuse_accepts`` declines accepted channels before the handshake.
- **Observability.**  One tracer carries every stage's spans (one
  trace file for the whole host; the merger groups evidence by each
  span's own stage label), and the host serves live STATS / HEALTH /
  STAGES control requests for ``eden-top``.

The conventional discipline is refused: its every adjacent pair needs
a separate passive pipe *process*, which is exactly the cost the
hosted placement exists to avoid (the paper's §1 argument, inverted).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.capability import PRIMARY_CHANNEL
from repro.core.errors import EdenError
from repro.core.tracing import Tracer
from repro.aio.streams import (
    AioCollector,
    AioReadOnlyStage,
    AioSource,
    AioWriteOnlyStage,
    collect,
)
from repro.fault.plan import FaultPlan
from repro.net.affinity import current_affinity, pin_to_core
from repro.net.bufpool import POOL
from repro.net.framing import CODEC_JSON, CODECS, FrameError
from repro.net.handshake import (
    ROLE_PULL,
    ROLE_PUSH,
    HandshakeError,
    Hello,
    TicketBook,
    expect_hello_over,
)
from repro.net.metrics import NetStats
from repro.net.mux import HostedReadable, HostedWritable, MuxChannel
from repro.net.protocol import (
    PushState,
    ReplayLog,
    channel_key,
    serve_pull,
    serve_push,
)
from repro.net.stage import load_transducer, pump
from repro.obs.flightmode import FLIGHT_MODES, MODE_FULL
from repro.obs.registry import snapshot_payload
from repro.obs.spans import CLOCK_KIND, SpanIds
from repro.transput.filterbase import identity_transducer
from repro.broker.client import BrokerClient

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.inject import KillSwitch

__all__ = [
    "HostConfig",
    "HostError",
    "HostedStageSpec",
    "StageHost",
    "run_host",
    "main",
]

HOSTED_ROLES = ("source", "filter", "sink")
HOSTED_DISCIPLINES = ("readonly", "writeonly")


class HostError(EdenError):
    """A stage host failed (restart budget spent, broker lost, ...)."""


class _InjectedKill(BaseException):
    """A kill_after fault tripped: kills the *stage*, not the host.

    Derives from ``BaseException`` so stream-level ``except Exception``
    recovery paths cannot swallow a scheduled crash — the same reason
    the process runtime uses ``os._exit``.
    """


@dataclass
class HostedStageSpec:
    """One stage's entry in a host plan.

    ``upstream`` / ``downstream`` are fleet-scoped *names*, not
    addresses: the host opens channels to them through the broker, so
    a spec is placement-free — the named peer may live in this host,
    another host, or (future) anywhere the broker can reach.
    """

    name: str
    role: str
    upstream: str | None = None
    downstream: str | None = None
    transducer_spec: str | None = None
    transducer_args: list[Any] = field(default_factory=list)
    source_items: list[Any] | None = None
    expected_clients: int | None = None
    channel: Any = PRIMARY_CHANNEL
    fault: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("every hosted stage needs a non-empty name")
        if self.role not in HOSTED_ROLES:
            raise ValueError(
                f"role must be one of {HOSTED_ROLES}, got {self.role!r}"
            )
        if not isinstance(self.fault, FaultPlan):
            raise ValueError(f"fault must be a FaultPlan, got {self.fault!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HostedStageSpec":
        fault = data.get("fault")
        return cls(
            name=data["name"],
            role=data["role"],
            upstream=data.get("upstream"),
            downstream=data.get("downstream"),
            transducer_spec=data.get("transducer_spec"),
            transducer_args=list(data.get("transducer_args") or []),
            source_items=data.get("source_items"),
            expected_clients=data.get("expected_clients"),
            channel=data.get("channel", PRIMARY_CHANNEL),
            fault=FaultPlan.from_dict(fault) if fault else FaultPlan(),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "role": self.role,
            "upstream": self.upstream,
            "downstream": self.downstream,
            "transducer_spec": self.transducer_spec,
            "transducer_args": list(self.transducer_args),
            "source_items": self.source_items,
            "expected_clients": self.expected_clients,
            "channel": self.channel,
            "fault": self.fault.as_dict(),
        }


_FLOW_KEYS = (
    "lookahead", "batch", "buffer_capacity", "inbox_capacity",
    "credit_window", "pipeline_depth",
)


@dataclass
class HostConfig:
    """Everything one stage-host process needs to know."""

    broker_host: str
    broker_port: int
    stages: list[HostedStageSpec]
    discipline: str = "readonly"
    ticket_space: int = 0
    ticket_seed: int = 0
    serial: int = 2
    resume: bool = False
    codec: str = CODEC_JSON
    flow: "FlowPolicy" = None  # type: ignore[assignment]
    io_timeout: float | None = None
    connect_deadline: float = 15.0
    max_restarts: int = 0
    restart_backoff: float = 0.05
    stats_file: str | None = None
    trace_file: str | None = None
    output_file: str | None = None
    control_port: int | None = None
    #: CPU core this host process pins itself to (None = unpinned).
    cpu: int | None = None
    flight_dir: str | None = None
    flight_mode: str = MODE_FULL

    def __post_init__(self) -> None:
        from repro.transput.flow import FlowPolicy

        if self.flow is None:
            self.flow = FlowPolicy()
        if self.flight_mode not in FLIGHT_MODES:
            raise ValueError(
                f"flight_mode must be one of {FLIGHT_MODES}, "
                f"got {self.flight_mode!r}"
            )
        if self.discipline not in HOSTED_DISCIPLINES:
            raise ValueError(
                f"hosted discipline must be one of {HOSTED_DISCIPLINES}, got "
                f"{self.discipline!r} (conventional needs a pipe process per "
                f"link; use the process placement)"
            )
        if self.codec not in CODECS:
            raise ValueError(f"codec must be one of {CODECS}, got {self.codec!r}")
        if not self.stages:
            raise ValueError("a host plan needs at least one stage")
        names = [spec.name for spec in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HostConfig":
        from repro.transput.flow import FlowPolicy

        flow_data = data.get("flow") or {}
        return cls(
            broker_host=data["broker_host"],
            broker_port=int(data["broker_port"]),
            stages=[HostedStageSpec.from_dict(raw) for raw in data["stages"]],
            discipline=data.get("discipline", "readonly"),
            ticket_space=int(data.get("ticket_space", 0)),
            ticket_seed=int(data.get("ticket_seed", 0)),
            serial=int(data.get("serial", 2)),
            resume=bool(data.get("resume", False)),
            codec=data.get("codec", CODEC_JSON),
            flow=FlowPolicy(**{
                key: flow_data[key] for key in _FLOW_KEYS if key in flow_data
            }),
            io_timeout=data.get("io_timeout"),
            connect_deadline=float(data.get("connect_deadline", 15.0)),
            max_restarts=int(data.get("max_restarts", 0)),
            restart_backoff=float(data.get("restart_backoff", 0.05)),
            stats_file=data.get("stats_file"),
            trace_file=data.get("trace_file"),
            output_file=data.get("output_file"),
            control_port=data.get("control_port"),
            cpu=data.get("cpu"),
            flight_dir=data.get("flight_dir"),
            flight_mode=data.get("flight_mode", MODE_FULL),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "broker_host": self.broker_host,
            "broker_port": self.broker_port,
            "stages": [spec.as_dict() for spec in self.stages],
            "discipline": self.discipline,
            "ticket_space": self.ticket_space,
            "ticket_seed": self.ticket_seed,
            "serial": self.serial,
            "resume": self.resume,
            "codec": self.codec,
            "flow": self.flow.describe(),
            "io_timeout": self.io_timeout,
            "connect_deadline": self.connect_deadline,
            "max_restarts": self.max_restarts,
            "restart_backoff": self.restart_backoff,
            "stats_file": self.stats_file,
            "trace_file": self.trace_file,
            "output_file": self.output_file,
            "control_port": self.control_port,
            "cpu": self.cpu,
            "flight_dir": self.flight_dir,
            "flight_mode": self.flight_mode,
        }


def serves_roles(role: str, discipline: str) -> tuple[str, ...]:
    """The channel roles a stage's passive end accepts, if any."""
    if discipline == "readonly" and role in ("source", "filter"):
        return (ROLE_PULL,)
    if discipline == "writeonly" and role in ("filter", "sink"):
        return (ROLE_PUSH,)
    return ()


class _HostedStage:
    """The runtime state of one stage inside the host."""

    def __init__(self, spec: HostedStageSpec, host: "StageHost") -> None:
        self.spec = spec
        self.host = host
        self.serial = 0  # assigned by broker registration
        self.uid = None  # ticket minted once the serial is known
        self.label = f"{spec.role}/{host.config.discipline}"
        self.spans: SpanIds | None = None
        self.accepts: asyncio.Queue[tuple[MuxChannel, dict[str, Any]]] = (
            asyncio.Queue()
        )
        self.ready = asyncio.Event()
        self.collected: list[Any] | None = None
        self.restarts = 0
        self.state = "pending"
        # The fault machinery, the flight recorder and the control
        # server are imported by the host that switches them on.
        self.injector = None
        if spec.fault.frame_faults:
            from repro.fault.inject import build_injector

            self.injector = build_injector(
                spec.fault, stats=host.stats, label=spec.name
            )
        self._refusals_left = spec.fault.refuse_accepts

    def adopt_serial(self, serial: int) -> None:
        self.serial = serial
        self.uid = self.host.book.ticket(serial)
        # The same label shape eden-stage uses, so merged traces read
        # identically whatever the placement was.
        self.label = (
            f"{self.spec.role}/{self.host.config.discipline}#{serial}"
        )
        if self.host.tracer.enabled:
            self.spans = SpanIds(prefix=f"s{serial}-")

    def kill_switch(self) -> KillSwitch | None:
        """The incarnation's kill switch, if the fault plan arms one.

        One-shot semantics match the process supervisor, which strips
        ``kill_after`` from a survivor's argv: only the first
        incarnation is armed, so a restarted stage does not die again
        on schedule.
        """
        if self.spec.fault.kill_after is None or self.restarts > 0:
            return None

        def trip() -> None:
            raise _InjectedKill(
                f"[{self.spec.name}] fault: killed "
                f"(kill_after={self.spec.fault.kill_after})"
            )

        from repro.fault.inject import KillSwitch

        return KillSwitch(
            self.spec.fault.kill_after, label=self.spec.name, on_kill=trip
        )


class StageHost:
    """Run every stage of a :class:`HostConfig` inside one event loop."""

    def __init__(self, config: HostConfig) -> None:
        self.config = config
        self.stats = NetStats()
        self.tracer = Tracer(enabled=config.trace_file is not None)
        self.book = TicketBook(space=config.ticket_space, seed=config.ticket_seed)
        # One recorder for the whole host: every hosted stage's frames
        # cross the single broker connection, so hooking the mux sees
        # them all (the channel id in each record says whose they are).
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
                    "codec": config.codec,
                    "resume": config.resume,
                    "stages": [
                        {
                            "name": spec.name,
                            "role": spec.role,
                            "transducer_spec": spec.transducer_spec,
                            "transducer_args": list(spec.transducer_args),
                        }
                        for spec in config.stages
                    ],
                },
            )
        self.client = BrokerClient(
            config.broker_host, config.broker_port, self.book,
            serial=config.serial, label=f"host#{config.serial}",
            stats=self.stats, tracer=self.tracer,
            connect_deadline=config.connect_deadline,
            on_accept=self._on_accept,
            flight=self.flight,
        )
        self.stages = [_HostedStage(spec, self) for spec in config.stages]
        self._by_name = {stage.spec.name: stage for stage in self.stages}
        self.started_mono = time.monotonic()
        self.pinned = False

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
        stage.accepts.put_nowait((channel, notice))

    async def _register_all(self) -> None:
        for stage in self.stages:
            serial = await self.client.register(
                stage.spec.name,
                serves=serves_roles(stage.spec.role, self.config.discipline),
            )
            stage.adopt_serial(serial)
        self.stats.set_gauge("hosted_stages", float(len(self.stages)))

    # -- per-stage stream plumbing -------------------------------------------

    def _hosted_readable(self, stage: _HostedStage) -> HostedReadable:
        config = self.config
        return HostedReadable(
            self.client.opener(), stage.spec.upstream,
            uid=stage.uid, book=self.book, channel=stage.spec.channel,
            stats=self.stats, tracer=self.tracer, label=stage.label,
            connect_deadline=config.connect_deadline, spans=stage.spans,
            resume=config.resume, io_timeout=config.io_timeout,
            injector=stage.injector, codec=config.codec,
            pipeline_depth=config.flow.effective_pipeline_depth(),
        )

    def _hosted_writable(self, stage: _HostedStage) -> HostedWritable:
        config = self.config
        return HostedWritable(
            self.client.opener(), stage.spec.downstream,
            uid=stage.uid, book=self.book, channel=stage.spec.channel,
            stats=self.stats, tracer=self.tracer, label=stage.label,
            connect_deadline=config.connect_deadline, spans=stage.spans,
            resume=config.resume, io_timeout=config.io_timeout,
            injector=stage.injector, codec=config.codec,
        )

    def _transducer(self, stage: _HostedStage, switch: KillSwitch | None):
        if stage.spec.transducer_spec is None:
            made = identity_transducer()
        else:
            made = load_transducer(
                stage.spec.transducer_spec, stage.spec.transducer_args
            )
        if switch is not None and stage.spec.role == "filter":
            from repro.fault.inject import killing_transducer

            made = killing_transducer(made, switch)
        return made

    async def _serve_accepts(
        self,
        stage: _HostedStage,
        readables: Any = None,
        writable: Any = None,
        clients: int = 1,
        replay_logs: dict[Any, ReplayLog] | None = None,
        push_states: dict[Any, PushState] | None = None,
    ) -> None:
        """Serve accepted channels until ``clients`` streams complete.

        The hosted analogue of eden-stage's ``_serve``: channels come
        from the broker's accept notices instead of a TCP listener,
        and a crash in any serve task (an injected kill, a
        non-resumable link failure) propagates out to the stage's
        supervise loop rather than killing a process.  The push credit
        granted per channel is the same ``effective_credit_window()``
        (one ``batch``-sized WRITE in flight unless configured wider).
        """
        config = self.config
        credit = config.flow.effective_credit_window()
        resume = config.resume
        codec_offer = (
            CODECS if config.codec != CODEC_JSON else (CODEC_JSON,)
        )

        def push_state_for(hello: Hello) -> PushState:
            assert push_states is not None
            return push_states.setdefault(channel_key(hello.channel), PushState())

        resume_seq_for = None
        if resume and push_states is not None:
            def resume_seq_for(hello: Hello) -> int | None:
                if hello.role != ROLE_PUSH:
                    return None
                return push_state_for(hello).received

        async def serve_one(channel: MuxChannel) -> bool:
            if stage._refusals_left > 0:
                stage._refusals_left -= 1
                self.stats.bump("refused_accepts")
                await self.client.release(channel)
                return False
            channel.stats = self.stats
            channel.tracer = self.tracer
            channel.label = stage.label
            channel.injector = stage.injector
            try:
                hello = await expect_hello_over(
                    channel, self.book, stage.uid, credit=credit,
                    resume_seq_for=resume_seq_for, codec_offer=codec_offer,
                )
                channel.codec = hello.codec
                if hello.role == ROLE_PULL and readables is not None:
                    completed = await serve_pull(
                        channel, readables, hello,
                        logs=replay_logs if resume else None,
                    )
                elif hello.role == ROLE_PUSH and writable is not None:
                    completed = await serve_push(
                        channel, writable, hello,
                        state=push_state_for(hello) if resume else None,
                    )
                else:
                    await self.client.release(channel)
                    return False
                await self.client.release(channel)
                return completed
            except HandshakeError as error:
                print(f"[{stage.label}] rejected channel: {error}",
                      file=sys.stderr)
                await self.client.release(channel)
                return False
            except (ConnectionError, OSError, FrameError) as error:
                await self.client.release(channel)
                if not resume:
                    raise
                self.stats.bump("client_disconnects")
                print(f"[{stage.label}] client channel failed: {error}",
                      file=sys.stderr)
                return False
            except BaseException:
                # A crash mid-serve: free the route so the peer sees a
                # hangup (and reopens by name into the next
                # incarnation), then let the supervisor have it.
                await self.client.release(channel)
                raise

        completed_count = 0
        serving: set[asyncio.Task[bool]] = set()
        intake: asyncio.Task[Any] = asyncio.ensure_future(stage.accepts.get())
        try:
            while completed_count < clients:
                done, _pending = await asyncio.wait(
                    {intake, *serving}, return_when=asyncio.FIRST_COMPLETED
                )
                if intake in done:
                    done.discard(intake)
                    channel, _notice = intake.result()
                    serving.add(asyncio.ensure_future(serve_one(channel)))
                    intake = asyncio.ensure_future(stage.accepts.get())
                for task in done:
                    serving.discard(task)
                    if task.result():  # re-raises a crashed serve
                        completed_count += 1
        finally:
            intake.cancel()
            for task in serving:
                task.cancel()
            for task in (intake, *serving):
                try:
                    await task
                except BaseException:
                    pass

    # -- one incarnation of one stage ----------------------------------------

    async def _run_incarnation(self, stage: _HostedStage) -> None:
        """One lifetime of a stage, ending in completion or a crash.

        Resume state (replay logs, push dedup cursors) is scoped to
        the incarnation — exactly what a process restart loses — so
        the recovery guarantees tested against eden-stage fleets hold
        unchanged here.
        """
        spec = stage.spec
        config = self.config
        flow = config.flow
        switch = stage.kill_switch()
        replay_logs: dict[Any, ReplayLog] = {}
        push_states: dict[Any, PushState] = {}

        def killing_readable(readable: Any) -> Any:
            if switch is None:
                return readable
            from repro.fault.inject import KillingReadable

            return KillingReadable(readable, switch)

        def killing_writable(writable: Any) -> Any:
            if switch is None:
                return writable
            from repro.fault.inject import KillingWritable

            return KillingWritable(writable, switch)

        if spec.role == "source":
            items = spec.source_items or []
            if config.discipline == "readonly":
                await self._serve_accepts(
                    stage, readables=killing_readable(AioSource(items)),
                    clients=spec.expected_clients or 1,
                    replay_logs=replay_logs,
                )
            else:
                await pump(
                    killing_readable(AioSource(items)),
                    self._hosted_writable(stage), flow.batch,
                )
        elif spec.role == "filter":
            transducer = self._transducer(stage, switch)
            if config.discipline == "readonly":
                body = AioReadOnlyStage(
                    transducer, self._hosted_readable(stage),
                    lookahead=flow.lookahead, batch_in=flow.batch,
                )
                await self._serve_accepts(
                    stage, readables=body,
                    clients=spec.expected_clients or 1,
                    replay_logs=replay_logs,
                )
            else:
                body = AioWriteOnlyStage(
                    transducer, [self._hosted_writable(stage)]
                )
                await self._serve_accepts(
                    stage, writable=body,
                    clients=spec.expected_clients or 1,
                    push_states=push_states,
                )
        else:  # sink
            if config.discipline == "writeonly":
                collector = AioCollector()
                await self._serve_accepts(
                    stage, writable=killing_writable(collector),
                    clients=spec.expected_clients or 1,
                    push_states=push_states,
                )
                await collector.done.wait()
                stage.collected = list(collector.items)
            else:
                stage.collected = await collect(
                    killing_readable(self._hosted_readable(stage)),
                    batch=flow.batch,
                )

    async def _supervise(self, stage: _HostedStage) -> None:
        """Run a stage to completion, restarting crashed incarnations."""
        config = self.config
        while True:
            stage.state = "running"
            stage.ready.set()
            try:
                await self._run_incarnation(stage)
                stage.state = "done"
                return
            except asyncio.CancelledError:
                stage.state = "cancelled"
                raise
            except (_InjectedKill, Exception) as error:
                stage.ready.clear()
                stage.restarts += 1
                self.stats.bump("stage_crashes")
                kind = ("killed" if isinstance(error, _InjectedKill)
                        else type(error).__name__)
                print(f"[{stage.label}] incarnation died ({kind}): {error}",
                      file=sys.stderr)
                if stage.restarts > config.max_restarts:
                    stage.state = "failed"
                    raise HostError(
                        f"stage {stage.spec.name!r} spent its restart "
                        f"budget ({config.max_restarts}): {error}"
                    ) from (error if isinstance(error, Exception) else None)
                stage.state = "restarting"
                self.stats.bump("stage_restarts")
                await asyncio.sleep(
                    config.restart_backoff * min(stage.restarts, 8)
                )

    # -- whole-host lifecycle ------------------------------------------------

    async def run(self) -> None:
        # Core placement first: every hosted stage's tasks and sockets
        # then wake on this host's core (no-op off Linux / unplanned).
        self.pinned = pin_to_core(self.config.cpu)
        if self.config.cpu is not None:
            self.stats.set_gauge("cpu_core", float(self.config.cpu))
            self.stats.set_gauge("cpu_pinned", 1.0 if self.pinned else 0.0)
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
                "resume": self.config.resume,
                "codec": self.config.codec,
                "cpu": self.config.cpu,
                "pinned": self.pinned,
                "affinity": current_affinity(),
                "flight": (self.flight.describe()
                           if self.flight is not None else None),
            }

        def stages_cmd(body: dict[str, Any]) -> Any:
            limit = max(1, int(body.get("limit", 1000)))
            return [
                {
                    "name": stage.spec.name,
                    "role": stage.spec.role,
                    "serial": stage.serial,
                    "state": stage.state,
                    "restarts": stage.restarts,
                }
                for stage in self.stages[:limit]
            ]

        return {"stats": stats_cmd, "health": health_cmd, "stages": stages_cmd}

    # -- reporting -----------------------------------------------------------

    def emit_output(self) -> None:
        lines: list[str] = []
        for stage in self.stages:
            if stage.collected is None:
                continue
            lines.extend(f"{item}\n" for item in stage.collected)
        if not lines:
            return
        text = "".join(lines)
        if self.config.output_file:
            with open(self.config.output_file, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()

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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eden-host",
        description="Host many pipeline stages in one process via a broker.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--plan-file", default=None,
                       help="JSON host plan (HostConfig shape)")
    group.add_argument("--plan-json", default=None,
                       help="the same plan, inline")
    parser.add_argument("--stats-file", default=None)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--output-file", default=None)
    parser.add_argument("--control-port", type=int, default=None)
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="record the host's frames to segment files")
    parser.add_argument("--flight-mode", default=None,
                        choices=sorted(FLIGHT_MODES))
    return parser


def config_from_args(argv: Sequence[str] | None = None) -> HostConfig:
    options = _parser().parse_args(argv)
    if options.plan_file is not None:
        with open(options.plan_file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = json.loads(options.plan_json)
    config = HostConfig.from_dict(data)
    if options.stats_file is not None:
        config.stats_file = options.stats_file
    if options.trace_file is not None:
        config.trace_file = options.trace_file
    if options.output_file is not None:
        config.output_file = options.output_file
    if options.control_port is not None:
        config.control_port = options.control_port
    if options.flight_dir is not None:
        config.flight_dir = options.flight_dir
    if options.flight_mode is not None:
        config.flight_mode = options.flight_mode
    return config


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
