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
pipeline can be spawned in any order; a stage binds its listener when
it is made, before anything can dial it, so on a run's start path no
dial is refused (a fleet's driver binds its processes' listeners before
it forks them, see :mod:`repro.net.zygote`).  A stage is described by one
:class:`StageConfig`, and ``eden-stage --plan-file P`` runs the one
whose JSON form (:meth:`StageConfig.to_dict`) ``P`` holds.  Every stage
verifies peers' ticket UIDs against the deterministic
:class:`~repro.net.handshake.TicketBook` its ``ticket_space`` /
``ticket_seed`` name and rejects forgeries (C4).  On exit a stage can
dump its on-wire counters (``stats_file``) and a frame-level trace in
the simulator's JSONL trace format (``trace_file``); a ``trace_file``
also turns on span tracing, attaching causal span contexts to every
READ/WRITE frame so the fleet's logs merge into end-to-end traces
(:mod:`repro.obs`).  While running, a stage can additionally serve live
STATS / SPANS / HEALTH requests on its ``control_port``
(:mod:`repro.obs.control`); control traffic never touches the data
path's frame counts.
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
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, AsyncIterator, Awaitable, Callable, Sequence

from repro.core.capability import PRIMARY_CHANNEL
from repro.core.tracing import Tracer
from repro.aio.streams import (
    AioCollector,
    AioPipe,
    AioReadOnlyStage,
    AioSource,
    AioWriteOnlyStage,
    collect,
)
from repro.fault.plan import (
    FaultError,
    FaultPlan,
    InjectedKill,
    RestartRefused,
    RestartRule,
)
from repro.net.bufpool import POOL
from repro.net.handshake import (
    ROLE_PULL,
    ROLE_PUSH,
    HandshakeError,
    Hello,
    TicketBook,
    expect_hello,
    expect_hello_over,
)
from repro.net.metrics import NetStats
from repro.net.protocol import (
    Connection,
    PushState,
    RemoteReadable,
    RemoteWritable,
    ReplayLog,
    channel_key,
    inherited_listener,
    listen_socket,
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
    "emit_records",
    "plan_values",
    "run_stage",
    "supervise_incarnations",
    "pump",
    "load_transducer",
    "pick_free_port",
    "pick_free_ports",
    "serves_roles",
    "main",
]

ROLES = ("source", "filter", "sink", "pipe")
DISCIPLINES = ("readonly", "writeonly", "conventional")


def serves_roles(role: str, discipline: str) -> tuple[str, ...]:
    """The channel roles a stage's passive end accepts, if any: the
    module table's first column, and what a stage listens for."""
    if role == "pipe":
        return (ROLE_PULL, ROLE_PUSH)
    if discipline == "readonly" and role in ("source", "filter"):
        return (ROLE_PULL,)
    if discipline == "writeonly" and role in ("filter", "sink"):
        return (ROLE_PUSH,)
    return ()


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


#: The JSON values each field annotation admits in a plan file.
_JSON_KINDS: dict[str, tuple[type, ...]] = {
    "str": (str,), "int": (int,), "float": (int, float), "bool": (bool,),
    "None": (type(None),), "Any": (str, int, float, list, dict),
    "list[Any]": (list,), "tuple[str, int]": (list,),
    "FlowPolicy": (dict,), "FaultPlan": (dict,), "list[StageConfig]": (list,),
}


def plan_values(cls: type, data: Any, where: str = "") -> dict[str, Any]:
    """The fields of a ``cls`` dataclass in a plan object, type-checked.

    A plan file is outside input, so an unknown key, a missing required
    key or a value of the wrong JSON type is a ``ValueError`` naming
    the key (``where`` prefixes nested keys, e.g. ``"flow."``).  The
    field annotations are the schema: there is no second list to keep
    in step with the dataclass.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a {cls.__name__} plan must be a JSON object, "
                         f"got {type(data).__name__}")
    known = {spec.name: spec for spec in fields(cls)}
    for key, value in data.items():
        if key not in known:
            raise ValueError(f"unknown plan key '{where}{key}'")
        annotation = known[key].type
        kinds = sum((_JSON_KINDS[part] for part in annotation.split(" | ")), ())
        if not isinstance(value, kinds) or (
                isinstance(value, bool) and bool not in kinds):
            raise ValueError(f"plan key '{where}{key}' must be {annotation}, "
                             f"got {value!r:.60}")
    for name, spec in known.items():
        if name not in data and spec.default is MISSING \
                and spec.default_factory is MISSING:
            raise ValueError(f"plan is missing key '{where}{name}'")
    return dict(data)


@dataclass
class StageConfig:
    """Everything one stage needs to know: the one description of a stage.

    ``upstream`` / ``downstream`` are ``(host, port)`` addresses for a
    stage that owns its process, or the fleet-scoped ``name`` of the
    peer for one hosted by :mod:`repro.broker.host`, which opens its
    peers through the broker.  :meth:`to_dict` / :meth:`from_dict` are the JSON form
    both placements ship: an ``eden-stage`` plan file holds one, an
    ``eden-host`` plan file a list.
    """

    role: str
    discipline: str
    name: str | None = None
    host: str = "127.0.0.1"
    listen_port: int | None = None
    upstream: tuple[str, int] | str | None = None
    downstream: tuple[str, int] | str | None = None
    channel: Any = PRIMARY_CHANNEL
    transducer_spec: str | None = None
    transducer_args: list[Any] = field(default_factory=list)
    source_items: list[Any] | None = None
    flow: FlowPolicy = field(default_factory=FlowPolicy)
    ticket_space: int = 0
    ticket_seed: int = 0
    serial: int = 0
    stats_file: str | None = None
    trace_file: str | None = None
    connect_deadline: float = 15.0
    control_port: int | None = None
    fault: FaultPlan = field(default_factory=FaultPlan)
    resume: bool = False
    io_timeout: float | None = None
    codec: str = CODEC_JSON
    shard: int | None = None
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

    def to_dict(self) -> dict[str, Any]:
        """This stage as a JSON-portable plan object, field for field."""
        data = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        for key in ("upstream", "downstream"):
            if isinstance(data[key], tuple):
                data[key] = list(data[key])
        data["transducer_args"] = list(self.transducer_args)
        data["flow"] = asdict(self.flow)
        data["fault"] = self.fault.as_dict()
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "StageConfig":
        """The stage a plan object describes (see :func:`plan_values`)."""
        values = plan_values(cls, data)
        for key in ("upstream", "downstream"):
            peer = values.get(key)
            if isinstance(peer, list):
                if len(peer) != 2 or not isinstance(peer[0], str) \
                        or type(peer[1]) is not int:
                    raise ValueError(
                        f"plan key '{key}' must be a [host, port] pair or a "
                        f"stage name, got {peer!r:.60}")
                values[key] = tuple(peer)
        if "flow" in values:
            values["flow"] = FlowPolicy(
                **plan_values(FlowPolicy, values["flow"], "flow."))
        if "fault" in values:
            try:
                values["fault"] = FaultPlan.from_dict(values["fault"])
            except (FaultError, TypeError) as error:
                raise ValueError(f"plan key 'fault': {error}") from None
        return cls(**values)


class _Stage:
    """The running form of one :class:`StageConfig`.

    A hosted stage (:mod:`repro.broker.host`) is a subclass sharing its
    host's ``stats``, ``tracer`` and ticket ``book``.
    """

    def __init__(self, config: StageConfig, stats: NetStats | None = None,
                 tracer: Tracer | None = None,
                 book: TicketBook | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else NetStats()
        self.tracer = (tracer if tracer is not None
                       else Tracer(enabled=config.trace_file is not None))
        self.book = book or TicketBook(space=config.ticket_space,
                                       seed=config.ticket_seed)
        self.uid = self.book.ticket(config.serial)
        self.label = f"{config.role}/{config.discipline}#{config.serial}"
        if config.shard is not None:
            self.label = f"s{config.shard}:{self.label}"
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

    #: Where the stage's diagnostics go; ``None`` is the process's
    #: stderr.  A fleet's in-loop end writes to its own log file.
    log: Any = None
    #: What a source plays instead of its plan's records: a readable
    #: that a fleet's in-loop end is handed (an upstream segment's feed).
    feed: Any = None
    #: Where a sink hands each transfer it takes in, as it takes it:
    #: an in-loop end's route to the next segment.
    forward: Callable[[Any], None] | None = None

    #: The stage's listening socket until it serves: bound by
    #: :meth:`bind`, or the one a fleet's zygote handed its process.
    listener: socket.socket | None = None

    def say(self, message: str) -> None:
        print(f"[{self.label}] {message}", file=self.log or sys.stderr)

    def bind(self) -> "_Stage":
        """Bind the stage's listener now, if its role listens and it
        has none: a dialler that runs after this is queued by the
        kernel until the stage accepts, never refused."""
        config = self.config
        if self.listener is None and serves_roles(config.role,
                                                  config.discipline):
            self.listener = listen_socket(config.host,
                                          config.listen_port or 0)
        return self

    # -- building blocks ----------------------------------------------------

    def _connection(self, reader, writer, end_is_request: bool = False) -> Connection:
        return Connection(
            reader, writer, stats=self.stats, end_is_request=end_is_request,
            tracer=self.tracer, label=self.label, injector=self.injector,
            flight=self.flight,
        )

    def _end_options(self, readable: bool) -> dict[str, Any]:
        """What every active end this stage dials is built with."""
        config = self.config
        options = dict(
            uid=self.uid, book=self.book, channel=config.channel,
            stats=self.stats, tracer=self.tracer, label=self.label,
            connect_deadline=config.connect_deadline, spans=self.spans,
            resume=config.resume, io_timeout=config.io_timeout,
            injector=self.injector, codec=config.codec, flight=self.flight,
        )
        if readable:
            options["pipeline_depth"] = config.flow.effective_pipeline_depth()
        return options

    def _remote_readable(self) -> RemoteReadable:
        return self._linked(RemoteReadable(*self.config.upstream,
                                           **self._end_options(True)))

    def _remote_writable(self) -> RemoteWritable:
        return self._linked(RemoteWritable(*self.config.downstream,
                                           **self._end_options(False)))

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

    def _forwarding(self, end: Any) -> Any:
        """Wrap a sink's readable or writable in its :attr:`forward`."""
        return end if self.forward is None else _Forwarding(end, self.forward)

    def _push_state_for(self, hello: Hello) -> PushState:
        return self._push_states.setdefault(
            channel_key(hello.channel), PushState())

    @contextlib.asynccontextmanager
    async def _accepting(self) -> AsyncIterator[asyncio.Queue]:
        """Listen on TCP; every accepted socket lands on the yielded queue.

        Each socket is queued as its :class:`Connection`, which keeps
        the stream pair referenced until the link's serve task ends.
        A socket the listener accepted as the stage ended is reset, as a
        dead process's would be: a stage sharing its process dies while
        its loop runs on, and a peer redialling it at once must not be
        left holding a link nobody serves.
        """
        links: asyncio.Queue = asyncio.Queue()
        closing = False

        def accept(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
            if closing:
                writer.transport.abort()
            else:
                links.put_nowait(self._connection(reader, writer))

        sock = self.bind().listener
        self.listener = None
        try:
            server = await asyncio.start_server(accept, sock=sock)
        except BaseException:
            sock.close()
            raise
        try:
            yield links
        finally:
            closing = True
            # Stop accepting, then give every socket already accepted the
            # two loop turns it takes to get a transport: asyncio leaves a
            # socket whose transport is still being built when its server
            # closes open and unread until garbage collection.
            loop = asyncio.get_running_loop()
            for sock in server.sockets:
                loop.remove_reader(sock.fileno())
            try:
                for _turn in range(2):
                    await asyncio.sleep(0)
            finally:
                # Even when the stage is cancelled in those turns (its
                # supervisor gave up on the fleet), the listener closes.
                server.close()
                while not links.empty():
                    await links.get_nowait().close()
                await server.wait_closed()

    async def _admit(self, link: Any, **offer: Any) -> Hello:
        """Demand a genuine ticket on one accepted link.

        A socket's HELLO / WELCOME travel beneath its ``Connection``,
        uncounted; a hosted stage's broker channel is
        ``Connection``-shaped and carries its own handshake.
        """
        if isinstance(link, Connection):
            return await expect_hello(link.reader, link.writer, self.book,
                                      self.uid, **offer)
        return await expect_hello_over(link, self.book, self.uid, **offer)

    def _stream(self, link: Any, hello: Hello,
                passive: Any) -> Awaitable[bool]:
        """The stream of one admitted link, served from ``passive`` (the
        readables or writable its role addresses): True once complete.

        The role's serve loop over the link's frames.  Called once per
        accepted link, after its WELCOME: a hosted stage may run a
        same-host route's stream as direct calls instead
        (:mod:`repro.broker.host`).  It returns the loop to await rather
        than awaiting it, so no frame of its own sits under every
        resumption of the loop.
        """
        resume = self.config.resume
        if hello.role == ROLE_PULL:
            return serve_pull(link, passive, hello,
                              logs=self._replay_logs if resume else None)
        return serve_push(link, passive, hello,
                          state=self._push_state_for(hello) if resume else None)

    async def _serve(self, readables: Any = None, writable: Any = None,
                     clients: int = 1) -> None:
        """Accept links and serve them until ``clients`` streams complete.

        One task per accepted link, so a crash inside any serve (an
        injected kill, or a link failure the stage cannot survive)
        raises out of here.  Under resume, a link only counts toward
        ``clients`` when it finished its stream (its END crossed the
        wire): a peer that crashed mid-stream will come back as a *new*
        link, and transport faults merely drop the link, never the
        stage.  Without resume a failed link — including a pusher that
        hangs up before END — fails the stage.

        Every WELCOME grants ``flow.effective_credit_window()`` records
        of push credit: unless a wider window is configured, exactly
        one ``batch``-sized WRITE in flight per pusher.
        """
        resume = self.config.resume
        offer: dict[str, Any] = {
            "credit": self.config.flow.effective_credit_window(),
            # A json-configured stage only ever grants json, so one
            # legacy stage in a binary fleet degrades its own links.
            "codec_offer": (CODECS if self.config.codec != CODEC_JSON
                            else (CODEC_JSON,)),
        }
        if resume:
            def resume_seq_for(hello: Hello) -> int | None:
                if hello.role != ROLE_PUSH:
                    return None
                return self._push_state_for(hello).received

            offer["resume_seq_for"] = resume_seq_for

        async def serve(link: Any) -> bool:
            try:
                if self._refusals_left > 0:
                    # A refuse_accepts fault: close before any handshake.
                    self._refusals_left -= 1
                    self.stats.bump("refused_accepts")
                    return False
                hello = await self._admit(link, **offer)
                link.codec = hello.codec
                passive = {ROLE_PULL: readables,
                           ROLE_PUSH: writable}.get(hello.role)
                if passive is None:
                    return False  # a role this stage does not serve
                return await self._stream(link, hello, passive)
            except HandshakeError as error:
                self.say(f"rejected link: {error}")
                return False
            except (ConnectionError, OSError, FrameError) as error:
                if not resume:
                    raise
                # The peer died mid-stream; it (or its restarted
                # successor) will be back — drop this link only.
                self.stats.bump("client_disconnects")
                self.say(f"client link failed: {error}")
                return False
            finally:
                # However the serve ended — a crash included — the peer
                # sees a hangup, and redials.
                await link.close()

        completed = 0
        serving: set[asyncio.Task[bool]] = set()
        async with self._accepting() as links:
            intake = asyncio.ensure_future(links.get())
            try:
                while completed < clients:
                    done, _pending = await asyncio.wait(
                        {intake, *serving},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if intake in done:
                        done.discard(intake)
                        serving.add(asyncio.ensure_future(
                            serve(intake.result())))
                        intake = asyncio.ensure_future(links.get())
                    for task in done:
                        serving.discard(task)
                        completed += task.result()  # re-raises a crash
            finally:
                for task in (intake, *serving):
                    task.cancel()
                await asyncio.gather(intake, *serving,
                                     return_exceptions=True)

    # -- role bodies --------------------------------------------------------

    async def run(self) -> None:
        """Play the stage's role to stream completion.

        However it ends, the active ends it dialled are hung up, so a
        failed stage does not leave its neighbours waiting.
        """
        try:
            await self._play_role()
        finally:
            for link in self.links:
                await link.aclose()

    async def lifetime(self) -> None:
        """Run the stage as its own process would: :meth:`run` with a
        clock anchor in its trace, its control server and flight
        recorder, and its ``runtime_ms`` counted.  However it ends, its
        listener is closed."""
        config = self.config
        if self.tracer.enabled:
            # Anchor this process's monotonic clock to the wall clock so
            # the trace merger can align logs from different processes.
            mono = time.monotonic()
            self.tracer.emit(
                mono, CLOCK_KIND, self.label, mono=mono, wall=time.time()
            )
        control = None
        try:
            if config.control_port is not None:
                from repro.obs.control import start_control_server

                control = await start_control_server(
                    self.control_handlers(), host=config.host,
                    port=config.control_port)
            started = time.monotonic()
            await self.run()
        finally:
            if self.listener is not None:  # it never served
                self.listener.close()
                self.listener = None
            if self.flight is not None:
                self.flight.close()
            if control is not None:
                control.close()
                await control.wait_closed()
        self.stats.bump("runtime_ms", int((time.monotonic() - started) * 1000))

    async def _play_role(self) -> None:
        config = self.config
        flow = config.flow
        if config.role == "source":
            records = self._killing_readable(
                AioSource(config.source_items or []) if self.feed is None
                else self.feed)
            if config.discipline == "readonly":
                await self._serve(readables=records)
            else:  # writeonly and conventional sources both push
                await pump(records, self._remote_writable(), flow.batch)
        elif config.role == "filter":
            transducer = self._transducer()  # kill switch wraps it here
            if config.discipline == "readonly":
                stage = AioReadOnlyStage(
                    transducer, self._remote_readable(),
                    lookahead=flow.lookahead, batch_in=flow.batch,
                )
                await self._serve(readables=stage)
            elif config.discipline == "writeonly":
                stage = AioWriteOnlyStage(transducer, [self._remote_writable()])
                await self._serve(writable=stage)
            else:  # conventional: active at both ends
                stage = AioWriteOnlyStage(transducer, [self._remote_writable()])
                await pump(self._remote_readable(), stage, flow.batch)
        elif config.role == "sink":
            if config.discipline == "writeonly":
                collector = AioCollector()
                await self._serve(writable=self._forwarding(
                    self._killing_writable(collector)))
                await collector.done.wait()
                self.collected = list(collector.items)
            else:  # readonly and conventional sinks both pull
                self.collected = await collect(
                    self._forwarding(
                        self._killing_readable(self._remote_readable())),
                    batch=flow.batch,
                )
        else:  # pipe: a passive buffer process (the Unix pipe, §1)
            pipe = AioPipe(capacity=flow.buffer_capacity)
            await self._serve(readables=pipe,
                              writable=self._killing_writable(pipe), clients=2)

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
                "flight": (self.flight.describe()
                           if self.flight is not None else None),
            }

        return {"stats": stats_cmd, "spans": spans_cmd, "health": health_cmd}

    # -- reporting ----------------------------------------------------------

    def emit_output(self) -> None:
        if self.collected is not None:
            emit_records(self.collected)

    def stats_payload(self) -> dict[str, Any]:
        """The stage's counters, as its ``stats_file`` holds them."""
        POOL.export_gauges(self.stats)
        return {
            "role": self.config.role,
            "discipline": self.config.discipline,
            "serial": self.config.serial,
            # counters/gauges/histograms, same shape the control
            # protocol's `stats` command serves.
            **snapshot_payload(self.stats),
        }

    def emit_trace(self) -> None:
        if self.config.trace_file:
            self.tracer.to_jsonl(self.config.trace_file)

    def emit_stats(self) -> None:
        if self.config.stats_file:
            with open(self.config.stats_file, "w", encoding="utf-8") as handle:
                json.dump(self.stats_payload(), handle, sort_keys=True)
        self.emit_trace()


class _Forwarding:
    """A sink's readable or writable that hands every transfer through
    it to ``forward`` once it has passed."""

    def __init__(self, end: Any, forward: Callable[[Any], None]) -> None:
        self.end = end
        self.forward = forward

    async def read(self, batch: int = 1) -> Any:
        transfer = await self.end.read(batch)
        self.forward(transfer)
        return transfer

    async def write(self, transfer: Any) -> None:
        await self.end.write(transfer)
        self.forward(transfer)


def emit_records(records: Sequence[Any]) -> None:
    """A stage process's output on stdout: one JSON value per line.

    JSON escapes every newline inside a value, so a line is a record
    and the reader gets back the values, not their text.
    """
    sys.stdout.write("".join(json.dumps(item) + "\n" for item in records))
    sys.stdout.flush()


async def supervise_incarnations(
    record: Any,
    rule: RestartRule,
    label: str,
    fault: FaultPlan,
    make: Callable[[FaultPlan], _Stage],
    play: Callable[[_Stage], Awaitable[None]] = _Stage.run,
    log: Any = None,
) -> _Stage:
    """Run a stage that shares its process, incarnation by incarnation.

    The one restart loop for stages inside an event loop: a stage
    host's stages and a process fleet's in-loop ends.  ``make(fault)``
    builds an incarnation and ``play`` runs it.  A tripped
    ``kill_after`` raises :class:`~repro.fault.plan.InjectedKill` out
    of the incarnation instead of exiting the process, so the
    incarnation dies like a process would: its listener and links are
    closed.  Each crash goes to ``rule`` under ``label``; a refusal
    raises its :class:`~repro.fault.plan.RestartRefused` (the crash as
    its context), otherwise the next incarnation runs after the
    backoff with the plan's :meth:`~repro.fault.plan.FaultPlan.
    survivor`, as a restarted process does.  ``record`` keeps the
    ``restarts`` and ``state`` of the stage across incarnations.
    Returns the incarnation that finished its stream.
    """
    while True:
        record.state = "running"
        stage = make(fault)
        stage.log = log
        if stage.kill_switch is not None:
            stage.kill_switch.on_kill = stage.kill_switch.raise_kill
        try:
            await play(stage)
        except asyncio.CancelledError:
            record.state = "cancelled"
            raise
        except (InjectedKill, Exception) as error:
            killed = isinstance(error, InjectedKill)
            stage.say(f"incarnation died "
                      f"({'killed' if killed else type(error).__name__}): "
                      f"{error}")
            try:
                delay = rule.crashed(label, record.restarts,
                                     time.monotonic(), killed=killed)
            except RestartRefused:
                record.state = "failed"
                raise
            record.restarts += 1
            record.state = "restarting"
            fault = fault.survivor()
            await asyncio.sleep(delay)
        else:
            record.state = "done"
            return stage


def run_stage(config: StageConfig) -> Awaitable[_Stage]:
    """Run one stage to stream completion; returns the finished stage.

    The stage's listener is bound by this call, before the awaitable
    is returned: ``asyncio.create_task(run_stage(config))`` leaves the
    port listening for whatever dials it next.
    """
    return _lived(_Stage(config).bind())


async def _lived(stage: _Stage) -> _Stage:
    await stage.lifetime()
    return stage


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def read_plan(argv: Sequence[str] | None, prog: str, what: str) -> Any:
    """The JSON object in the one plan file a process's argv names."""
    parser = argparse.ArgumentParser(prog=prog, description=what)
    parser.add_argument("--plan-file", required=True, metavar="PATH",
                        help="the JSON plan this process runs")
    path = parser.parse_args(argv).plan_file
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def config_from_args(argv: Sequence[str] | None = None) -> StageConfig:
    """The :class:`StageConfig` in the ``--plan-file`` ``argv`` names."""
    return StageConfig.from_dict(read_plan(
        argv, "eden-stage",
        "Host one asymmetric-stream pipeline stage over TCP."))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: run one stage to completion."""
    try:
        stage = _Stage(config_from_args(argv))
        stage.listener = inherited_listener(stage.config.host,
                                            stage.config.listen_port)
        asyncio.run(_lived(stage.bind()))
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
