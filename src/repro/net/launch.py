"""Orchestration: plan, spawn, and *supervise* a pipeline of processes.

One planner decides what every placement shares:
:func:`pipeline_configs` turns "this source, these transducers, this
discipline" into one :class:`~repro.net.stage.StageConfig` per stage —
pipeline positions, ticket serials, names, roles, faults by position
and the source records — with peers *named*, not addressed.  A
placement only groups those configs into processes and gives them
addresses: :func:`plan_linear_fleet` plans one ``eden-stage`` per
stage, each with one JSON plan file and a port per listener;
:func:`repro.broker.launch.plan_hosted_fleet` groups contiguous runs
into ``eden-host`` processes beside a broker; and the graph runner
plans a parallel block as one :func:`plan_linear_fleet` per branch.
:func:`write_manifest` is the one writer of the ``fleet.json``
manifest the tools read.  The conventional discipline gets a *pipe
process between every adjacent pair* — the paper's passive buffers
made into real servers — which is why its process count is ``2n + 3``
against the asymmetric disciplines' ``n + 2``, and its measured
message count ``(2n+2)(m+1)`` against ``(n+1)(m+1)``.

The supervisor (:class:`FleetSupervisor`, front door :func:`run_fleet`)
runs the plan and watches it.  Only the stages between a pipeline's
ends are OS processes; its source and sink run in the driver's event
loop, so the records going in and coming out never leave the driver
as text.  The processes are forked by one zygote per fleet
(:mod:`repro.net.zygote`), a fork of the driver, which reports each
exit.  A stage that exits non-zero is restarted — under exponential backoff, against a per-stage
``max_restarts`` budget, with the one-shot faults stripped from every
stage of its plan (:meth:`repro.fault.plan.FaultPlan.survivor`) — while the
session-resume protocol (:mod:`repro.net.protocol`) lets its neighbours
reconnect and continue the stream with no datum duplicated or lost.
When the budget is exhausted, or the fleet exceeds its ``timeout``, the
whole fleet is killed and a :class:`FleetError` raised whose diagnosis
names the offender; every stage's stderr is preserved either way,
because stage output goes to *files*, not pipes (so nothing is lost
when processes are killed out from under ``communicate``).  Restart
activity is counted in supervisor stats (``restarts``,
``restarts[<role>#<serial>]``) exported in the same Prometheus/JSON
shapes as every other metric (:mod:`repro.obs.registry`) and written
to ``supervisor.stats.json`` next to the stage dumps.

New code should use :class:`repro.api.Pipeline` or
:class:`repro.api.GraphBuilder`, which drive this module for their TCP
runtime: one planner call per pipeline (:func:`plan_linear_fleet` for
each linear segment and each branch of a parallel block, or the hosted
planner for a hosted pipeline), all planned before the run, and one
supervised run of all of them, in which each segment's source ends
play a :class:`Feed` the segment before fills as it runs.  The caller
makes the source records: the planners take them as ``source_items``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import pathlib
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

import repro.net.zygote
from repro.fault.plan import (
    KILLED_EXIT_CODE,
    FaultPlan,
    InjectedKill,
    RestartRefused,
    RestartRule,
)
from repro.net.framing import CODEC_JSON
from repro.net.metrics import NetStats, merge_stats
from repro.net.protocol import listen_socket
from repro.net.stage import (
    StageConfig,
    _Stage,
    pick_free_ports,
    supervise_incarnations,
)
from repro.obs.registry import snapshot_payload
from repro.core.stats import KernelStats
from repro.transput.flow import FlowPolicy
from repro.transput.stream import END_TRANSFER, Transfer

__all__ = [
    "StagePlan",
    "FleetResult",
    "FleetError",
    "FleetSupervisor",
    "Feed",
    "pipeline_configs",
    "plan_linear_fleet",
    "process_plan",
    "run_fleet",
    "write_manifest",
]

#: Transducer spec: (``module:factory``, [args...]).
TransducerSpec = tuple[str, Sequence[Any]]

IDENTITY: TransducerSpec = ("repro.transput:identity_transducer", ())

#: The roles a process fleet runs in the driver's event loop instead of
#: spawning: a pipeline's ends.
_IN_LOOP_ROLES = ("source", "sink")

#: How long a failed end waits for a process's exit to be reported
#: before its own error is (see :meth:`FleetSupervisor._check_end`).
_EXIT_GRACE_S = 1.0


@dataclass(frozen=True)
class StagePlan:
    """One member of the plan: its role, command line and plan file.

    A ``source`` or ``sink`` member runs in the supervisor's event
    loop; every other member is a process.
    """

    role: str
    argv: tuple[str, ...]
    stats_file: str
    trace_file: str | None = None
    control_port: int | None = None
    serial: int = 0
    fault: FaultPlan = field(default_factory=FaultPlan)
    stdout_file: str | None = None
    stderr_file: str | None = None
    #: Which shard's sub-pipeline this stage belongs to (None = unsharded).
    shard: int | None = None
    #: The ``python -m`` module this process runs.  ``repro.net.stage``
    #: for ordinary stages; ``repro.broker.daemon`` / ``repro.broker.
    #: host`` for hosted placements.
    module: str = "repro.net.stage"
    #: Daemons (the broker) serve the fleet rather than the stream:
    #: the run is complete when every *non*-daemon member is done, at
    #: which point daemons are terminated; a daemon exiting on its own
    #: mid-run is treated as a crash (and restarted on budget).
    daemon: bool = False
    #: The JSON plan ``argv``'s ``--plan-file`` holds: one
    #: :meth:`StageConfig.to_dict` for ``eden-stage``, the per-process
    #: fields plus a ``stages`` list of them for ``eden-host`` (None
    #: for the broker, which runs from its argv).
    plan: dict[str, Any] | None = field(default=None, compare=False)
    #: The address this member listens on, if it does: the supervisor
    #: binds it before anything that dials it runs.
    listen: tuple[str, int] | None = None

    @property
    def plan_file(self) -> str | None:
        """Where :attr:`plan` is written: the ``--plan-file`` of ``argv``."""
        return None if self.plan is None else self.argv[-1]

    @property
    def label(self) -> str:
        if self.shard is not None:
            return f"s{self.shard}:{self.role}#{self.serial}"
        return f"{self.role}#{self.serial}"

    def survivor_plan(self) -> dict[str, Any] | None:
        """The plan a *restarted* incarnation should run.

        :attr:`plan` with every stage's fault plan — each hosted stage's
        included — reduced to its :meth:`~repro.fault.plan.FaultPlan.
        survivor`: the injected kill already happened; a restart that
        re-kills itself forever would turn every chaos experiment into
        a budget exhaustion.
        """
        if self.plan is None:
            return None

        def survive(stage: dict[str, Any]) -> dict[str, Any]:
            fault = FaultPlan.from_dict(stage.get("fault", {}))
            return {**stage, "fault": fault.survivor().as_dict()}

        if "stages" in self.plan:
            return {**self.plan,
                    "stages": [survive(one) for one in self.plan["stages"]]}
        return survive(self.plan)


@dataclass
class FleetResult:
    """What one supervised fleet run produced."""

    #: The sink's records, as values (never re-parsed from text).
    output: list[Any]
    stats: list[dict[str, Any]]
    stderr: list[str] = field(default_factory=list)
    trace_files: list[str] = field(default_factory=list)
    #: Supervisor counters (``restarts``, ``crashes``, ...) in the
    #: same counters/gauges/histograms payload shape as stage stats.
    supervisor: dict[str, Any] = field(default_factory=dict)
    #: Per-shard sink output in shard order (a parallel block's fleet,
    #: one shard label per branch); ``output`` is their concatenation.
    shard_outputs: list[list[Any]] = field(default_factory=list)

    @property
    def totals(self) -> NetStats:
        """Every stage's counters summed — the pipeline's wire traffic."""
        parts = []
        for stage_stats in self.stats:
            one = NetStats()
            for name, value in stage_stats["counters"].items():
                one.bump(name, int(value))
            parts.append(one)
        return merge_stats(*parts)

    @property
    def invocations(self) -> int:
        """Request frames (READ + WRITE + pushed END) across all stages."""
        return self.totals.get("invocations_sent")

    @property
    def restarts(self) -> int:
        """Total supervised restarts across the fleet (0 = clean run)."""
        return int(self.supervisor.get("counters", {}).get("restarts", 0))


class FleetError(RuntimeError):
    """The fleet failed: a stage exhausted its budget, or a timeout.

    ``result`` (when not None) carries whatever could still be
    gathered — most importantly every stage's stderr, which lives in
    files and therefore survives the kill.  ``reason`` names the
    failure class machine-readably: ``"budget"`` (one stage spent its
    restart budget), ``"timeout"`` (the fleet-wide deadline),
    ``"restart-storm"`` (the aggregate cross-stage restart guard), or
    ``"zygote"`` (the process that forks the fleet's processes
    died, and took their exit reports with it).
    """

    def __init__(self, message: str, result: FleetResult | None = None,
                 reason: str | None = None):
        super().__init__(message)
        self.result = result
        self.reason = reason


def pipeline_configs(
    discipline: str,
    transducers: Sequence[TransducerSpec],
    source_items: Sequence[Any],
    faults: Mapping[int, FaultPlan] | None = None,
    flow: FlowPolicy | None = None,
    **common: Any,
) -> list[StageConfig]:
    """Every stage of one linear pipeline, in serial order.

    The one place positions, serials, names, roles, faults and the
    source are decided, whatever the placement.  Serials count source
    = 0, filters 1..n, sink = n+1, then the conventional discipline's
    pipes; names are ``source``, ``filter1``..``filter<n>``, ``sink``
    and ``pipe0``..``pipe<n>``.  ``faults`` maps serials to the
    :class:`FaultPlan` each stage should suffer.  The source's records
    (``source_items``, JSON-encodable) go into the source stage's
    config.

    Peers are *named*: a stage's ``upstream`` / ``downstream`` is the
    name of the stage it dials.  ``common`` holds the other
    :class:`StageConfig` fields every stage shares.
    """
    faults = dict(faults or {})
    count = len(transducers)
    names = ["source", *(f"filter{i}" for i in range(1, count + 1)), "sink"]
    peers: list[dict[str, str]] = [{} for _ in names]
    pipes = []
    for index in range(count + 1):
        if discipline == "readonly":  # demand flows sink -> source
            peers[index + 1]["upstream"] = names[index]
        elif discipline == "writeonly":  # data is pushed source -> sink
            peers[index]["downstream"] = names[index + 1]
        elif discipline == "conventional":  # a pipe between each pair
            pipes.append(f"pipe{index}")
            peers[index]["downstream"] = peers[index + 1]["upstream"] = \
                pipes[-1]
        else:
            raise ValueError(f"unknown discipline {discipline!r}")
    names += pipes
    peers += [{}] * len(pipes)
    roles = ["source"] + ["filter"] * count + ["sink"] + ["pipe"] * len(pipes)
    specs = [(None, []), *((spec, list(args)) for spec, args in transducers)]
    specs += [(None, [])] * (len(names) - len(specs))
    configs = [
        StageConfig(
            role=role, discipline=discipline, name=name, serial=serial,
            transducer_spec=spec, transducer_args=args,
            source_items=list(source_items) if role == "source" else None,
            fault=faults.pop(serial, None) or FaultPlan(),
            flow=flow or FlowPolicy(), **link, **common,
        )
        for serial, (role, name, (spec, args), link)
        in enumerate(zip(roles, names, specs, peers))
    ]
    if faults:
        raise ValueError(
            f"faults named serials that do not exist: {sorted(faults)} "
            f"(the fleet has serials 0..{len(configs) - 1})"
        )
    return configs


def process_plan(workdir: str | pathlib.Path, stem: str, plan: dict[str, Any],
                 **fields: Any) -> StagePlan:
    """One process reading ``plan`` from ``<workdir>/<stem>.plan.json``."""
    workpath = pathlib.Path(workdir)
    plan_file = str(workpath / f"{stem}.plan.json")
    with open(plan_file, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    return StagePlan(
        argv=("--plan-file", plan_file), plan=plan,
        stdout_file=str(workpath / f"{stem}.stdout.log"),
        stderr_file=str(workpath / f"{stem}.stderr.log"), **fields)


def write_manifest(workdir: str | pathlib.Path, plans: Sequence[StagePlan],
                   **header: Any) -> None:
    """Write the ``fleet.json`` manifest ``eden-top`` / ``eden-trace`` read.

    ``header`` describes the fleet (discipline, placement, shards, ...);
    ``stages`` gets one entry per process of ``plans``.
    """
    stages = []
    for plan in plans:
        entry = {
            "role": plan.role,
            "serial": plan.serial,
            "stats_file": plan.stats_file,
            "trace_file": plan.trace_file,
            "control_port": plan.control_port,
            "fault": plan.fault.as_dict(),
        }
        if plan.shard is not None:
            entry["shard"] = plan.shard
        stages.append(entry)
    with open(pathlib.Path(workdir) / "fleet.json", "w",
              encoding="utf-8") as handle:
        json.dump({**header, "stages": stages}, handle, indent=2,
                  sort_keys=True)


def plan_linear_fleet(
    discipline: str,
    transducers: Sequence[TransducerSpec],
    workdir: str,
    source_items: Sequence[Any],
    flow: FlowPolicy | None = None,
    ticket_space: int = 0,
    ticket_seed: int = 0,
    host: str = "127.0.0.1",
    connect_deadline: float = 15.0,
    trace: bool = False,
    control: bool = False,
    faults: Mapping[int, FaultPlan] | None = None,
    resume: bool = False,
    io_timeout: float | None = None,
    codec: str = CODEC_JSON,
    shard: int | None = None,
    flight_dir: str | None = None,
    flight_mode: str = "full",
    ports: Iterator[int] | None = None,
) -> list[StagePlan]:
    """Plan one ``eden-stage`` process per stage of a pipeline.

    :func:`pipeline_configs` describes the stages (source, serials,
    ``faults`` by serial); this grouping gives every dialled stage a
    listening port, resolves peer names to addresses, and writes each
    stage's :class:`StageConfig` to ``<workdir>/stage-<serial>-<role>
    .plan.json``, which its process reads.

    ``trace=True`` gives every stage a trace file (span tracing on,
    logs mergeable with :func:`repro.obs.merge.merge_span_logs`);
    ``control=True`` gives every stage a control port for live
    introspection.  Either also writes a ``fleet.json`` manifest into
    ``workdir`` so ``eden-top`` / ``eden-trace`` can find the fleet.
    ``resume=True`` switches on the session-resume protocol fleet-wide
    — required for any fault you expect the pipeline to *survive* —
    and ``io_timeout`` bounds how long a stage waits on a silent peer
    before treating the link as down.  ``ports`` hands in ports a
    caller drew for a whole graph in one call (``n + 1`` listeners for
    ``n`` transducers on every discipline, then a control port per
    stage); by default this pipeline draws its own.
    """
    workpath = pathlib.Path(workdir)
    workpath.mkdir(parents=True, exist_ok=True)
    configs = pipeline_configs(
        discipline, transducers, source_items, faults, flow,
        ticket_space=ticket_space, ticket_seed=ticket_seed,
        connect_deadline=connect_deadline, resume=resume,
        io_timeout=io_timeout, codec=codec, shard=shard,
        flight_dir=flight_dir, flight_mode=flight_mode, host=host,
    )
    # Every port of the plan is drawn in one call, so no two stages can
    # be handed the same one: a listener per dialled stage, then a
    # control port per stage.
    dialled = {peer for config in configs
               for peer in (config.upstream, config.downstream)}
    listeners = [config.name for config in configs if config.name in dialled]
    count = len(listeners) + (len(configs) if control else 0)
    drawn = (pick_free_ports(count, host) if ports is None
             else [next(ports) for _ in range(count)])
    ports = dict(zip(listeners, drawn))
    control_ports = iter(drawn[len(listeners):])

    def address(name: str | None) -> tuple[str, int] | None:
        return None if name is None else (host, ports[name])

    plans = []
    for config in configs:
        stem = f"stage-{config.serial}-{config.role}"
        config = dataclasses.replace(
            config, listen_port=ports.get(config.name),
            upstream=address(config.upstream),
            downstream=address(config.downstream),
            stats_file=str(workpath / f"{stem}.stats.json"),
            trace_file=(str(workpath / f"{stem}.trace.jsonl")
                        if trace else None),
            control_port=next(control_ports) if control else None,
        )
        plans.append(process_plan(
            workpath, stem, config.to_dict(), role=config.role,
            stats_file=config.stats_file, trace_file=config.trace_file,
            control_port=config.control_port, serial=config.serial,
            fault=config.fault, shard=shard,
            listen=(None if config.listen_port is None
                    else (config.host, config.listen_port)),
        ))
    if trace or control:
        write_manifest(
            workpath, plans, discipline=discipline, host=host, resume=resume,
            codec=codec, flight_dir=flight_dir,
            flight_mode=flight_mode if flight_dir is not None else None,
        )
    return plans


class Feed:
    """The records an in-loop source end plays, arriving while it runs.

    An append-only log that an upstream segment extends (through a
    :class:`~repro.api.graph.Router`) and then ends.  Every incarnation
    of the end reads it from the start through its own :meth:`reader`,
    as it would read a list of records.  A reader answers ``read(b)``
    only with exactly ``b`` records once they are here, or with what is
    left and then END once the log has ended: each transfer keeps the
    boundaries a whole list would give it, so every invocation count
    downstream is the one a segment-by-segment run would measure.
    """

    def __init__(self) -> None:
        self.records: list[Any] = []
        self.ended = False
        self._waiters: list[asyncio.Future] = []

    def extend(self, records: Sequence[Any]) -> None:
        self.records.extend(records)
        self._wake()

    def end(self) -> None:
        self.ended = True
        self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _arrival(self) -> None:
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        await waiter

    def reader(self) -> "_FeedReader":
        """A readable over the log, from its first record."""
        return _FeedReader(self)


class _FeedReader:
    """One incarnation's position in a :class:`Feed`."""

    def __init__(self, feed: Feed) -> None:
        self.feed = feed
        self.position = 0

    async def read(self, batch: int = 1) -> Transfer:
        feed, batch = self.feed, max(1, batch)
        while len(feed.records) - self.position < batch and not feed.ended:
            await feed._arrival()
        start = self.position
        self.position = min(start + batch, len(feed.records))
        if self.position == start:
            return END_TRANSFER
        return Transfer.of(feed.records[start:self.position])


class _Forward:
    """Where an in-loop sink end hands its records on, over all its
    incarnations.  A restarted end takes its stream in again from the
    start, so each incarnation hands on only what none before it did."""

    def __init__(self, target: Any) -> None:
        self.target = target
        self.handed = 0
        self.ended = False

    def tap(self) -> Callable[[Transfer], None]:
        """One incarnation's forward."""
        taken = 0

        def forward(transfer: Transfer) -> None:
            nonlocal taken
            if transfer.at_end:
                if not self.ended:
                    self.ended = True
                    self.target.end()
                return
            items = transfer.items
            taken += len(items)
            if taken > self.handed:
                self.target.extend(items[len(items) - (taken - self.handed):])
                self.handed = taken

        return forward


class _Member:
    """One supervised stage: its plan, its process or task, its budget."""

    def __init__(self, ident: int, plan: StagePlan) -> None:
        #: What the zygote calls this member's process, every incarnation.
        self.ident = ident
        self.plan = plan
        self.in_loop = plan.role in _IN_LOOP_ROLES
        #: Forked and no exit reported yet; its pid once the zygote
        #: reports one, and its exit code once the zygote reports that
        #: (until the supervisor handles it).
        self.alive = False
        self.pid: int | None = None
        self.rc: int | None = None
        #: An in-loop end's incarnations, and the one that finished.
        self.task: asyncio.Task | None = None
        self.stage: Any = None
        #: The zygote sync a failed end waits for before it is reported.
        self.sync: int | None = None
        #: A failed end's wait for an exit report: until when, and how
        #: many exits the zygote had reported when it began.
        self.exit_by: float | None = None
        self.exits_before = 0
        #: The socket bound for its first incarnation, until handed over.
        self.listener: socket.socket | None = None
        self.restarts = 0
        self.state = "pending"
        self.done = False
        self.restart_at: float | None = None

    def bind(self) -> None:
        """Bind the planned listener, if any; a port that cannot be
        bound is left to the incarnation, which fails on it as it
        would have."""
        if self.plan.listen is not None and self.listener is None:
            with contextlib.suppress(OSError):
                self.listener = listen_socket(*self.plan.listen)

    def unbind(self) -> None:
        if self.listener is not None:
            self.listener.close()
            self.listener = None

    @property
    def stdout_path(self) -> str:
        if self.plan.stdout_file is not None:
            return self.plan.stdout_file
        return self.plan.stats_file.replace(".stats.json", ".stdout.log")

    @property
    def stderr_path(self) -> str:
        if self.plan.stderr_file is not None:
            return self.plan.stderr_file
        return self.plan.stats_file.replace(".stats.json", ".stderr.log")


class FleetSupervisor:
    """Fork a planned fleet and keep it alive until the stream is done.

    A plan's ``source`` and ``sink`` stages — the ends, which hold the
    records going in and want the records coming out — run in the
    driver's own event loop, each under
    :func:`~repro.net.stage.supervise_incarnations`; every other plan
    is an OS process.  :meth:`spawn` forks the driver into the fleet's
    zygote (:mod:`repro.net.zygote`), which holds the code the plans
    run; :meth:`stream` asks it to fork every process at once and
    starts every end beside them, so a graph's segments run
    concurrently: a source end may play a :class:`Feed` that an
    upstream segment fills as it runs, and a sink end may forward each
    transfer it takes in.  A feed answers a read once the records it
    asks for are there, so a later stage waits only as long as its
    records take to come through the segments before it.
    The zygote reports every exit, and the supervisor wakes on those
    reports, on its ends finishing, and on a restart falling due, never
    on a timer.  :meth:`run` is the front door.

    Every stage's stdout/stderr goes to files (``<stage>.stdout.log`` /
    ``<stage>.stderr.log`` beside its stats dump), so diagnostics
    survive kills and restarts append rather than truncate; an in-loop
    end writes its diagnostics to its own ``.stderr.log`` too (its
    counters stay in memory), and the zygote to ``zygote.stderr.log``.
    A stage exiting non-zero is
    restarted — forked again, from its survivor plan — under the
    :class:`~repro.fault.plan.RestartRule` (exponential backoff, a
    ``max_restarts`` budget per stage, the optional storm guard) — the
    rule a stage host applies to the stages it runs; an end's
    ``kill_after`` ends its incarnation, never the driver.  A refused
    restart, a lost zygote, or blowing the run's ``timeout`` kills
    everything and raises :class:`FleetError` with a diagnosis.
    :meth:`close` reaps the zygote, which reaps every child it forked,
    so every stage's CPU time is the driver's reaped children's.

    The knobs carry the harmonised names (`timeout`, `max_restarts`)
    used by :class:`repro.api.Pipeline`; all are validated eagerly.
    """

    def __init__(
        self,
        plans: Sequence[StagePlan],
        timeout: float = 60.0,
        max_restarts: int = 0,
        storm_window: float = 5.0,
        storm_max_restarts: int | None = None,
    ) -> None:
        if not plans:
            raise ValueError("cannot supervise an empty fleet")
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout!r}")
        self.plans = list(plans)
        self.timeout = timeout
        self.stats = KernelStats()
        self.rule = RestartRule(
            self.stats, max_restarts=max_restarts, storm_window=storm_window,
            storm_max_restarts=storm_max_restarts,
        )
        self._members = [_Member(ident, plan)
                         for ident, plan in enumerate(self.plans)]
        self._zygote: repro.net.zygote.Handle | None = None
        #: The fleet's directory: its zygote log and supervisor stats.
        self._workdir = os.path.commonpath([
            os.path.dirname(os.path.abspath(plan.stats_file))
            for plan in self.plans])
        self._zygote_log = os.path.join(self._workdir, "zygote.stderr.log")
        #: member ident -> the zygote's descriptor of its listener, until
        #: the member's first fork request hands it over.
        self._listeners: dict[int, int] = {}
        self._replies = b""
        self._zygote_gone = False
        self._syncs = self._synced = 0
        #: Exits the zygote has reported.
        self._exits = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None

    # -- process plumbing ---------------------------------------------------

    def spawn(self) -> None:
        """Fork the fleet's zygote, with what its processes run imported.

        The modules are imported here first, so the driver keeps them
        for every later run and no zygote imports them again.  Every
        process's planned listener is bound here too, before the fork:
        the zygote keeps them, hands each to its process's first
        incarnation, and the driver closes its copies.  A port that
        cannot be bound is left to its process, which fails on it as
        it would have.
        """
        forked = [m for m in self._members if not m.in_loop]
        modules = sorted({m.plan.module for m in forked})
        if self._zygote is not None or not modules:
            return
        repro.net.zygote.preload(modules)
        try:
            for member in forked:
                member.bind()
            self._zygote = repro.net.zygote.start(
                modules, self._zygote_log,
                [m.listener.fileno() for m in forked if m.listener])
            self._listeners = {m.ident: m.listener.fileno()
                               for m in forked if m.listener}
        finally:
            for member in forked:
                member.unbind()

    def _attach(self) -> None:
        """Read the zygote's reports on the running loop."""
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return
        self._loop, self._wake = loop, asyncio.Event()
        if self._zygote is not None:
            loop.add_reader(self._zygote.stdout.fileno(), self._on_reports)

    def _on_reports(self) -> None:
        chunk = os.read(self._zygote.stdout.fileno(), 65536)
        if not chunk:  # the zygote is gone, and with it every report
            self._loop.remove_reader(self._zygote.stdout.fileno())
            self._zygote_gone = True
            self._wake.set()
            return
        *lines, self._replies = (self._replies + chunk).split(b"\n")
        for line in lines:
            report = json.loads(line)
            if "sync" in report:
                self._synced = report["sync"]
                self._wake.set()
                continue
            member = self._members[report["id"]]
            if "pid" in report:
                member.pid = report["pid"]
                continue
            member.alive, member.pid = False, None
            member.rc = report["rc"]
            self._exits += 1
            self._wake.set()

    def _request(self, request: dict[str, Any]) -> None:
        try:
            self._zygote.stdin.write(json.dumps(request).encode() + b"\n")
        except OSError:  # it died: the loop raises for it
            self._zygote_gone = True
            self._wake.set()

    def _fork(self, member: _Member) -> None:
        """Ask the zygote for the member's next incarnation."""
        restart = member.restarts > 0
        if restart:
            if member.plan.plan is not None:
                with open(member.plan.plan_file, "w",
                          encoding="utf-8") as handle:
                    json.dump(member.plan.survivor_plan(), handle)
            with open(member.stderr_path, "a", encoding="utf-8") as err:
                err.write(f"--- restart #{member.restarts} ---\n")
        member.alive, member.restart_at = True, None
        request = {
            "fork": member.ident, "module": member.plan.module,
            "argv": list(member.plan.argv), "stdout": member.stdout_path,
            "stderr": member.stderr_path, "append": restart,
        }
        # The first incarnation serves the listener bound before the
        # zygote; a restart binds for itself, so until it does, its
        # port refuses dials as a dead process's does.
        listener = self._listeners.pop(member.ident, None)
        if listener is not None:
            request["listener"] = listener
        self._request(request)

    def _signal(self, member: _Member, signum: int) -> None:
        if member.alive:
            self._request({"kill": member.ident, "signal": int(signum)})

    def close(self) -> None:
        """Kill every process still running, then reap the zygote.

        The zygote kills and reaps its children once its stdin closes;
        were it already dead, its orphans are killed here by pid.
        """
        zygote, self._zygote = self._zygote, None
        if zygote is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            self._loop.remove_reader(zygote.stdout.fileno())
        zygote.stdout.close()
        zygote.stdin.close()
        if zygote.wait() != 0:  # killed: its children are orphans
            for member in self._members:
                if member.pid is not None:
                    try:
                        os.kill(member.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        for member in self._members:
            member.alive, member.pid = False, None

    async def _abort(self) -> None:
        """The run failed: cancel every in-loop end, kill every process.

        An end that already failed has its error retrieved here too.
        """
        ends = [m.task for m in self._members if m.task is not None]
        for task in ends:
            task.cancel()
        self.close()
        await asyncio.gather(*ends, return_exceptions=True)
        for member in self._members:
            member.unbind()  # an end cancelled before it ran

    def _read(self, path: str) -> str:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return ""

    def _stats(self, member: _Member) -> dict[str, Any]:
        """A member's counters: an in-loop end's from memory, a
        process's from its stats file (empty if it wrote none)."""
        if member.in_loop:
            if member.stage is not None:
                return member.stage.stats_payload()
        else:
            try:
                with open(member.plan.stats_file, "r",
                          encoding="utf-8") as handle:
                    return json.load(handle)
            except (OSError, json.JSONDecodeError):
                pass
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def _result(self, **fields: Any) -> FleetResult:
        """The run's result: every member's counters and stderr."""
        return FleetResult(
            stats=[self._stats(m) for m in self._members],
            stderr=[self._read(m.stderr_path) for m in self._members],
            trace_files=[m.plan.trace_file for m in self._members
                         if m.plan.trace_file is not None],
            supervisor=snapshot_payload(self.stats),
            **fields,
        )

    def _refusal(self, member: _Member, refused: RestartRefused,
                 killed: bool, rc: int | None = None) -> FleetError:
        message = str(refused)
        if refused.reason == "budget":
            tail = self._read(member.stderr_path).strip()[-500:]
            code = "" if rc is None else f" rc={rc}"
            kind = "injected kill" if killed else "crash"
            message = (
                f"stage failures:\n{member.plan.label}{code} ({kind}) after "
                f"{member.restarts} restart(s) of a budget of "
                f"{self.rule.max_restarts}: {tail}"
            )
        return FleetError(message, reason=refused.reason)

    def _lost(self) -> FleetError:
        running = [m.plan.label for m in self._members if m.alive]
        return FleetError(
            f"the fleet's zygote (pid {self._zygote.pid}) exited with "
            f"rc={self._zygote.wait()}; its processes are lost: "
            f"{', '.join(running) or 'none running'}: "
            f"{self._read(self._zygote_log).strip()[-500:]}",
            reason="zygote",
        )

    # -- the ends, in this loop ----------------------------------------------

    async def _play_end(self, member: _Member, feed: Feed | None,
                        forward: Any) -> None:
        """Run a source or sink end here, incarnation by incarnation.

        A source plays ``feed`` when given one, its plan's records
        otherwise; a sink hands its records on to ``forward``
        (``extend(records)`` / ``end()``) when given one.  The first
        incarnation serves the listener :meth:`stream` bound; a
        restart binds its own.
        """
        config = StageConfig.from_dict(member.plan.plan)
        handing = None if forward is None else _Forward(forward)

        def incarnation(fault: FaultPlan) -> _Stage:
            stage = _Stage(dataclasses.replace(config, fault=fault))
            stage.listener, member.listener = member.listener, None
            if feed is not None:
                stage.feed = feed.reader()
            if handing is not None:
                stage.forward = handing.tap()
            return stage.bind()

        # An end prints nothing (its records stay in this loop), but it
        # keeps the stdout log every member has.
        open(member.stdout_path, "w", encoding="utf-8").close()
        with open(member.stderr_path, "w", encoding="utf-8",
                  buffering=1) as log:
            member.stage = await supervise_incarnations(
                member, self.rule, member.plan.label, config.fault,
                incarnation, play=_Stage.lifetime, log=log,
            )
        member.stage.emit_trace()

    def _check_end(self, member: _Member) -> None:
        if not member.task.done():
            return
        error = member.task.exception()
        killed = isinstance(error, RestartRefused) and isinstance(
            error.__context__, InjectedKill)
        if error is not None and self._zygote is not None:
            # An end usually fails because a process it talks to died,
            # and that process is the one to name.  A dying process's
            # sockets close before it can be reaped, so unless the end
            # killed itself or tripped the storm guard, it waits for
            # the zygote to report an exit (up to _EXIT_GRACE_S); then
            # it hears every exit the zygote has reaped.
            own = isinstance(error, RestartRefused) and (
                killed or error.reason != "budget")
            if member.sync is None:
                if not own and self._awaiting_exit(member):
                    return
                self._syncs += 1
                member.sync = self._syncs
                self._request({"sync": member.sync})
            if self._synced < member.sync:
                return
        if isinstance(error, RestartRefused):
            raise self._refusal(member, error, killed)
        if error is not None:
            raise error
        member.done = True

    def _awaiting_exit(self, member: _Member) -> bool:
        """Whether failed end ``member`` still waits for an exit report:
        none has come since it began to wait, a process was running
        then, and :data:`_EXIT_GRACE_S` has not passed."""
        now = time.monotonic()
        if member.exit_by is None:
            running = any(m.alive for m in self._members)
            member.exit_by = now + _EXIT_GRACE_S if running else now
            member.exits_before = self._exits
        return now < member.exit_by and self._exits == member.exits_before

    # -- the supervision loop -----------------------------------------------

    def run(self, feeds: Mapping[int, Feed] | None = None,
            forwards: Mapping[int, Any] | None = None) -> FleetResult:
        """Run the whole fleet (see :meth:`stream`), then reap it.

        The run gets an event loop of its own and leaves the caller's
        current loop alone (``asyncio.run`` would unset it, and on a
        graph run it measurably raised the driver's peak memory).
        """
        async def whole() -> FleetResult:
            try:
                return await self.stream(feeds, forwards)
            finally:
                self.close()

        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(whole())
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _woken(self, at: float | None) -> None:
        """Wait for a report, an end finishing, or the clock reaching ``at``."""
        timeout = None if at is None else max(0.0, at - time.monotonic())
        try:
            await asyncio.wait_for(self._wake.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    async def stream(self, feeds: Mapping[int, Feed] | None = None,
                     forwards: Mapping[int, Any] | None = None) \
            -> FleetResult:
        """Run every planned stage to completion, all at once.

        The zygote forks every process now (and starts first, if
        :meth:`spawn` has not started it), then every end starts in
        this loop.  ``feeds`` and ``forwards`` are keyed by plan index:
        the source ends to play a :class:`Feed` and the sink ends to
        hand their records on (see :meth:`_play_end`).  ``timeout``
        bounds the whole run, and the result's supervisor counters are
        the run's.
        """
        feeds, forwards = feeds or {}, forwards or {}
        members = self._members
        self.spawn()
        self._attach()
        # Every listener is bound before anything that dials it runs:
        # the processes' by spawn(), the ends' here, before any fork.
        for member in members:
            if member.in_loop:
                member.bind()
        for member in members:
            if not member.in_loop:
                self._fork(member)
        for member in members:
            if member.in_loop:
                member.task = asyncio.ensure_future(self._play_end(
                    member, feeds.get(member.ident),
                    forwards.get(member.ident)))
                member.task.add_done_callback(lambda _: self._wake.set())
        deadline = time.monotonic() + self.timeout
        workers = [m for m in members if not m.plan.daemon]
        try:
            while True:
                self._wake.clear()
                now = time.monotonic()
                if self._zygote_gone:
                    raise self._lost()
                for member in members:
                    if member.done or member.in_loop:
                        continue
                    if member.rc is not None:
                        self._exited(member, now)
                    elif member.restart_at is not None and \
                            now >= member.restart_at:
                        self._fork(member)
                for member in members:
                    if member.in_loop and not member.done:
                        self._check_end(member)
                if all(m.done for m in workers):
                    break
                if now >= deadline:
                    running = [m.plan.label for m in members if not m.done]
                    raise FleetError(
                        f"fleet timeout after {self.timeout:.1f}s; "
                        f"still running: {', '.join(running)}",
                        reason="timeout",
                    )
                await self._woken(min([deadline] + [
                    m.restart_at for m in members
                    if m.restart_at is not None] + [
                    m.exit_by for m in members
                    if m.exit_by is not None and m.sync is None]))
            await self._stop_daemons()
        except FleetError as error:
            await self._abort()
            error.result = self._result(output=[])
            raise
        except BaseException:
            await self._abort()
            raise
        return self._gather()

    def _exited(self, member: _Member, now: float) -> None:
        rc, member.rc = member.rc, None
        if rc == 0 and not member.plan.daemon:
            member.done = True
            return
        # A daemon exiting — even cleanly — while the stream still runs
        # is a failure of the fleet's substrate: restart it like any
        # crash.
        killed = rc == KILLED_EXIT_CODE
        try:
            delay = self.rule.crashed(member.plan.label, member.restarts, now,
                                      killed=killed)
        except RestartRefused as refused:
            raise self._refusal(member, refused, killed, rc) from None
        member.restarts += 1
        member.restart_at = now + delay

    async def _stop_daemons(self, grace: float = 5.0) -> None:
        """The stream is done: retire daemons (SIGTERM, then SIGKILL)."""
        daemons = [m for m in self._members if m.plan.daemon]
        for member in daemons:
            self._signal(member, signal.SIGTERM)
        deadline: float | None = time.monotonic() + grace
        while any(m.alive for m in daemons) and not self._zygote_gone:
            if deadline is not None and time.monotonic() >= deadline:
                for member in daemons:
                    self._signal(member, signal.SIGKILL)
                deadline = None
            self._wake.clear()
            await self._woken(deadline)
        for member in daemons:
            member.rc = None

    def _output(self, member: _Member) -> list[Any]:
        """A sink's records: an in-loop end's, or a host's stdout lines."""
        if member.in_loop:
            return member.stage.collected
        with open(member.stdout_path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    def _gather(self) -> FleetResult:
        # A parallel block's fleet has one sink per shard label:
        # concatenate their outputs in shard order, so each branch's
        # internal ordering is preserved.
        sinks = sorted(
            (m for m in self._members if m.plan.role in ("sink", "host")),
            key=lambda m: m.plan.shard or 0,
        )
        shard_outputs = [self._output(m) for m in sinks]
        result = self._result(
            output=[record for records in shard_outputs for record in records],
            shard_outputs=shard_outputs if len(sinks) > 1 else [],
        )
        try:
            with open(os.path.join(self._workdir, "supervisor.stats.json"),
                      "w", encoding="utf-8") as handle:
                json.dump(result.supervisor, handle, sort_keys=True)
        except OSError:
            pass
        return result


def run_fleet(
    plans: Sequence[StagePlan],
    timeout: float = 60.0,
    max_restarts: int = 0,
    storm_window: float = 5.0,
    storm_max_restarts: int | None = None,
) -> FleetResult:
    """Spawn and supervise every planned stage; gather output + counters.

    The convenience front door over :class:`FleetSupervisor`.  Raises
    :class:`FleetError` (a ``RuntimeError``, with every stage's stderr
    preserved in ``.result``) if a stage exhausts its restart budget,
    the fleet exceeds ``timeout``, or — with ``storm_max_restarts``
    set — restarts across all stages exceed that count within a
    sliding ``storm_window`` seconds (``reason="restart-storm"``).
    """
    supervisor = FleetSupervisor(
        plans, timeout=timeout, max_restarts=max_restarts,
        storm_window=storm_window, storm_max_restarts=storm_max_restarts,
    )
    return supervisor.run()

