"""Orchestration: plan, spawn, and *supervise* a pipeline of processes.

The planner (:func:`plan_linear_fleet`) turns "this source, these transducers,
this discipline" into one ``eden-stage`` command line per process, with
ports, ticket serials, stats files and fault plans assigned.  The
conventional discipline gets a *pipe process between every adjacent
pair* — the paper's passive buffers made into real servers — which is
why its process count is ``2n + 3`` against the asymmetric disciplines'
``n + 2``, and its measured message count ``(2n+2)(m+1)`` against
``(n+1)(m+1)``.

The supervisor (:class:`FleetSupervisor`, front door :func:`run_fleet`)
spawns the plan and watches it: a stage that exits non-zero is
restarted — under exponential backoff, against a per-stage
``max_restarts`` budget, with the one-shot faults stripped from its
plan (:meth:`repro.fault.plan.FaultPlan.survivor`) — while the
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
runtime (one :func:`plan_linear_fleet` call per linear segment and per
branch of a parallel block).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import repro
from repro.fault.plan import (
    KILLED_EXIT_CODE,
    FaultPlan,
    RestartRefused,
    RestartRule,
)
from repro.net.framing import CODEC_JSON
from repro.net.metrics import NetStats, merge_stats
from repro.net.stage import pick_free_ports
from repro.obs.registry import snapshot_payload
from repro.core.stats import KernelStats
from repro.transput.flow import FlowPolicy

__all__ = [
    "StagePlan",
    "FleetResult",
    "FleetError",
    "FleetSupervisor",
    "plan_linear_fleet",
    "run_fleet",
]

#: Transducer spec: (``module:factory``, [args...]).
TransducerSpec = tuple[str, Sequence[Any]]

IDENTITY: TransducerSpec = ("repro.transput:identity_transducer", ())

#: Seconds between the supervisor's polls of its processes.
_POLL_S = 0.02


@dataclass(frozen=True)
class StagePlan:
    """One process of the plan: its role and full command line."""

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
    #: CPU core this stage pins itself to at startup (None = unpinned).
    cpu: int | None = None
    #: The ``python -m`` module this process runs.  ``repro.net.stage``
    #: for ordinary stages; ``repro.broker.daemon`` / ``repro.broker.
    #: host`` for hosted placements.
    module: str = "repro.net.stage"
    #: Daemons (the broker) serve the fleet rather than the stream:
    #: the run is complete when every *non*-daemon member is done, at
    #: which point daemons are terminated; a daemon exiting on its own
    #: mid-run is treated as a crash (and restarted on budget).
    daemon: bool = False

    @property
    def label(self) -> str:
        if self.shard is not None:
            return f"s{self.shard}:{self.role}#{self.serial}"
        return f"{self.role}#{self.serial}"

    def survivor_argv(self) -> tuple[str, ...]:
        """The command line a *restarted* incarnation should run.

        Identical to :attr:`argv` except the fault plan is reduced to
        its :meth:`~repro.fault.plan.FaultPlan.survivor` — the injected
        kill already happened; a restart that re-kills itself forever
        would turn every chaos experiment into a budget exhaustion.
        """
        survivor = self.fault.survivor()
        argv = list(self.argv)
        try:
            at = argv.index("--fault-json")
        except ValueError:
            return self.argv
        if survivor.is_benign:
            del argv[at:at + 2]
        else:
            argv[at + 1] = survivor.to_json()
        return tuple(argv)


@dataclass
class FleetResult:
    """What one supervised fleet run produced."""

    output: list[str]
    stats: list[dict[str, Any]]
    stderr: list[str] = field(default_factory=list)
    trace_files: list[str] = field(default_factory=list)
    #: Supervisor counters (``restarts``, ``crashes``, ...) in the
    #: same counters/gauges/histograms payload shape as stage stats.
    supervisor: dict[str, Any] = field(default_factory=dict)
    #: Per-shard sink output in shard order (a parallel block's fleet,
    #: one shard label per branch); ``output`` is their concatenation.
    shard_outputs: list[list[str]] = field(default_factory=list)

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
    restart budget), ``"timeout"`` (the fleet-wide deadline), or
    ``"restart-storm"`` (the aggregate cross-stage restart guard).
    """

    def __init__(self, message: str, result: FleetResult | None = None,
                 reason: str | None = None):
        super().__init__(message)
        self.result = result
        self.reason = reason


def plan_linear_fleet(
    discipline: str,
    transducers: Sequence[TransducerSpec],
    workdir: str,
    source_items: Sequence[Any] | None = None,
    source_count: int | None = None,
    source_width: int = 8,
    source_seed: int = 0,
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
    cpu: int | None = None,
    flight_dir: str | None = None,
    flight_mode: str = "full",
) -> list[StagePlan]:
    """Assign ports/serials and build every stage's command line.

    Give the source either explicit ``source_items`` (JSON-encodable)
    or ``source_count`` (+width/seed) for the deterministic
    ``random_lines`` workload the simulator examples use.

    ``trace=True`` gives every stage a ``--trace-file`` (span tracing
    on, logs mergeable with :func:`repro.obs.merge.merge_span_logs`);
    ``control=True`` gives every stage a ``--control-port`` for live
    introspection.  Either also writes a ``fleet.json`` manifest into
    ``workdir`` so ``eden-top`` / ``eden-trace`` can find the fleet.

    ``faults`` maps stage serials to the :class:`FaultPlan` each
    should suffer (serials count source = 0, filters 1..n, sink = n+1,
    then conventional pipes).  ``resume=True`` switches on the
    session-resume protocol fleet-wide — required for any fault you
    expect the pipeline to *survive* — and ``io_timeout`` bounds how
    long a stage waits on a silent peer before treating the link as
    down.
    """
    flow = flow or FlowPolicy()
    faults = dict(faults or {})
    workpath = pathlib.Path(workdir)
    workpath.mkdir(parents=True, exist_ok=True)

    base = [
        "--discipline", discipline,
        "--ticket-space", str(ticket_space),
        "--ticket-seed", str(ticket_seed),
        "--batch", str(flow.batch),
        "--lookahead", str(flow.lookahead),
        "--connect-deadline", str(connect_deadline),
    ]
    if flow.inbox_capacity is not None:
        base += ["--inbox-capacity", str(flow.inbox_capacity)]
    if flow.buffer_capacity is not None:
        base += ["--buffer-capacity", str(flow.buffer_capacity)]
    if flow.credit_window is not None:
        base += ["--credit-window", str(flow.credit_window)]
    if flow.pipeline_depth is not None:
        base += ["--pipeline-depth", str(flow.pipeline_depth)]
    if codec != CODEC_JSON:
        base += ["--codec", codec]
    if shard is not None:
        base += ["--shard", str(shard)]
    if cpu is not None:
        base += ["--cpu", str(cpu)]
    if resume:
        base += ["--resume"]
    if io_timeout is not None:
        base += ["--io-timeout", str(io_timeout)]
    if flight_dir is not None:
        base += ["--flight-dir", flight_dir, "--flight-mode", flight_mode]

    if source_items is not None:
        source_args = ["--source-json", json.dumps(list(source_items))]
    elif source_count is not None:
        source_args = [
            "--source-count", str(source_count),
            "--source-width", str(source_width),
            "--source-seed", str(source_seed),
        ]
    else:
        raise ValueError("give source_items or source_count")

    plans: list[StagePlan] = []
    serial = 0
    # Every port of the plan is drawn in one call, so no two stages can
    # be handed the same one: a listener per link (the pipe process's,
    # under the conventional discipline), then a control port per stage.
    links = len(transducers) + 1
    stage_count = links + 1 + (links if discipline == "conventional" else 0)
    drawn = pick_free_ports(links + (stage_count if control else 0), host)
    ports, control_ports = drawn[:links], iter(drawn[links:])

    def add(role: str, extra: list[str]) -> StagePlan:
        nonlocal serial
        stem = f"stage-{serial}-{role}"
        stats_file = str(workpath / f"{stem}.stats.json")
        argv = ["--role", role, "--serial", str(serial),
                "--stats-file", stats_file]
        trace_file = None
        if trace:
            trace_file = str(workpath / f"{stem}.trace.jsonl")
            argv += ["--trace-file", trace_file]
        control_port = None
        if control:
            control_port = next(control_ports)
            argv += ["--control-port", str(control_port)]
        fault = faults.pop(serial, None) or FaultPlan()
        if not fault.is_benign:
            argv += ["--fault-json", fault.to_json()]
        plan = StagePlan(
            role=role,
            argv=tuple(argv + base + extra),
            stats_file=stats_file,
            trace_file=trace_file,
            control_port=control_port,
            serial=serial,
            fault=fault,
            stdout_file=str(workpath / f"{stem}.stdout.log"),
            stderr_file=str(workpath / f"{stem}.stderr.log"),
            shard=shard,
            cpu=cpu,
        )
        plans.append(plan)
        serial += 1
        return plan

    def spec_args(spec: TransducerSpec) -> list[str]:
        name, args = spec
        extra = ["--transducer", name]
        if list(args):
            extra += ["--transducer-args", json.dumps(list(args))]
        return extra

    at = lambda port: f"{host}:{port}"  # noqa: E731 — tiny local alias

    if discipline == "readonly":
        # source and filters listen; demand flows sink -> source.
        add("source", ["--listen", str(ports[0])] + source_args)
        for index, spec in enumerate(transducers):
            add("filter", ["--listen", str(ports[index + 1]),
                           "--upstream", at(ports[index])] + spec_args(spec))
        add("sink", ["--upstream", at(ports[-1])])
    elif discipline == "writeonly":
        # filters and sink listen; data is pushed source -> sink.
        # ports[i] is filter i's listener, ports[-1] the sink's.
        add("source", ["--downstream", at(ports[0])] + source_args)
        for index, spec in enumerate(transducers):
            add("filter", ["--listen", str(ports[index]),
                           "--downstream", at(ports[index + 1])]
                + spec_args(spec))
        add("sink", ["--listen", str(ports[-1])])
    elif discipline == "conventional":
        # a pipe process between every adjacent active pair.
        add("source", ["--downstream", at(ports[0])] + source_args)
        for index, spec in enumerate(transducers):
            add("filter", ["--upstream", at(ports[index]),
                           "--downstream", at(ports[index + 1])]
                + spec_args(spec))
        add("sink", ["--upstream", at(ports[-1])])
        for port in ports:
            add("pipe", ["--listen", str(port)])
    else:
        raise ValueError(f"unknown discipline {discipline!r}")
    if faults:
        raise ValueError(
            f"faults named serials that do not exist: {sorted(faults)} "
            f"(the fleet has serials 0..{serial - 1})"
        )
    if trace or control:
        manifest = {
            "discipline": discipline,
            "host": host,
            "resume": resume,
            "codec": codec,
            "flight_dir": flight_dir,
            "flight_mode": flight_mode if flight_dir is not None else None,
            "stages": [_manifest_entry(plan, index)
                       for index, plan in enumerate(plans)],
        }
        with open(workpath / "fleet.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
    return plans


def _manifest_entry(plan: StagePlan, serial: int) -> dict[str, Any]:
    entry = {
        "role": plan.role,
        "serial": serial,
        "stats_file": plan.stats_file,
        "trace_file": plan.trace_file,
        "control_port": plan.control_port,
        "fault": plan.fault.as_dict(),
    }
    if plan.shard is not None:
        entry["shard"] = plan.shard
    if plan.cpu is not None:
        entry["cpu"] = plan.cpu
    return entry


class _Member:
    """One supervised stage: its plan, its process, its budget."""

    def __init__(self, plan: StagePlan, index: int) -> None:
        self.plan = plan
        self.index = index
        self.process: subprocess.Popen | None = None
        self.restarts = 0
        self.done = False
        self.rc: int | None = None
        self.restart_at: float | None = None

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
    """Spawn a planned fleet and keep it alive until the stream is done.

    Every stage's stdout/stderr goes to files (``<stage>.stdout.log`` /
    ``<stage>.stderr.log`` beside its stats dump), so diagnostics
    survive kills and restarts append rather than truncate.  A stage
    exiting non-zero is restarted under the
    :class:`~repro.fault.plan.RestartRule` (exponential backoff, a
    ``max_restarts`` budget per stage, the optional storm guard) — the
    rule a stage host applies to the stages it runs.  A refused
    restart — or blowing the fleet-wide ``timeout`` — kills everything
    and raises :class:`FleetError` with a diagnosis.

    The knobs carry the harmonised names (`timeout`, `max_restarts`)
    used by :class:`repro.api.Pipeline`; all are validated eagerly.
    """

    def __init__(
        self,
        plans: Sequence[StagePlan],
        timeout: float = 60.0,
        python: str | None = None,
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
        self.python = python or sys.executable
        self.stats = KernelStats()
        self.rule = RestartRule(
            self.stats, max_restarts=max_restarts, storm_window=storm_window,
            storm_max_restarts=storm_max_restarts,
        )
        self._members = [_Member(plan, i) for i, plan in enumerate(self.plans)]

    # -- process plumbing ---------------------------------------------------

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def _spawn(self, member: _Member, env: dict[str, str]) -> None:
        restart = member.restarts > 0
        argv = member.plan.survivor_argv() if restart else member.plan.argv
        mode = "a" if restart else "w"
        with open(member.stdout_path, mode, encoding="utf-8") as out, \
                open(member.stderr_path, mode, encoding="utf-8") as err:
            if restart:
                err.write(f"--- restart #{member.restarts} ---\n")
            member.process = subprocess.Popen(
                [self.python, "-m", member.plan.module, *argv],
                stdout=out, stderr=err, text=True, env=env,
            )
        member.restart_at = None

    def _kill_all(self) -> None:
        for member in self._members:
            process = member.process
            if process is not None and process.poll() is None:
                process.kill()
        for member in self._members:
            if member.process is not None:
                member.process.wait()

    def _read(self, path: str) -> str:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return ""

    def _partial_result(self) -> FleetResult:
        """Whatever can be gathered after a failed run (stderr, stats)."""
        stats = []
        for plan in self.plans:
            try:
                with open(plan.stats_file, "r", encoding="utf-8") as handle:
                    stats.append(json.load(handle))
            except (OSError, json.JSONDecodeError):
                stats.append({"counters": {}, "gauges": {}, "histograms": {}})
        return FleetResult(
            output=[],
            stats=stats,
            stderr=[self._read(m.stderr_path) for m in self._members],
            trace_files=[p.trace_file for p in self.plans
                         if p.trace_file is not None],
            supervisor=snapshot_payload(self.stats),
        )

    def _diagnose(self, member: _Member, rc: int) -> str:
        tail = self._read(member.stderr_path).strip()[-500:]
        kind = ("injected kill" if rc == KILLED_EXIT_CODE else "crash")
        return (
            f"{member.plan.label} rc={rc} ({kind}) after "
            f"{member.restarts} restart(s) of a budget of "
            f"{self.rule.max_restarts}: {tail}"
        )

    # -- the supervision loop -----------------------------------------------

    def run(self) -> FleetResult:
        """Run the fleet to completion; restart crashes; gather results."""
        env = self._env()
        for member in self._members:
            self._spawn(member, env)
        deadline = time.monotonic() + self.timeout
        workers = [m for m in self._members if not m.plan.daemon]
        try:
            while not all(m.done for m in workers):
                now = time.monotonic()
                if now > deadline:
                    self._kill_all()
                    running = [m.plan.label for m in self._members
                               if not m.done]
                    raise FleetError(
                        f"fleet timeout after {self.timeout:.1f}s; "
                        f"still running: {', '.join(running)}",
                        result=self._partial_result(),
                        reason="timeout",
                    )
                for member in self._members:
                    if member.done:
                        continue
                    if member.process is None:
                        if member.restart_at is not None and \
                                now >= member.restart_at:
                            self._spawn(member, env)
                        continue
                    rc = member.process.poll()
                    if rc is None:
                        continue
                    if rc == 0 and not member.plan.daemon:
                        member.done = True
                        member.rc = 0
                        continue
                    # A daemon exiting — even cleanly — while the
                    # stream still runs is a failure of the fleet's
                    # substrate: restart it like any crash.
                    self._note_crash(member, rc, now)
                time.sleep(_POLL_S)
            self._stop_daemons()
        except FleetError:
            raise
        except BaseException:
            self._kill_all()
            raise
        return self._gather()

    def _stop_daemons(self, grace: float = 5.0) -> None:
        """The stream is done: retire daemons (SIGTERM, then SIGKILL)."""
        daemons = [m for m in self._members
                   if m.plan.daemon and not m.done]
        for member in daemons:
            process = member.process
            if process is not None and process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + grace
        for member in daemons:
            process = member.process
            if process is not None:
                try:
                    process.wait(max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            member.done = True
            member.rc = process.returncode if process is not None else None

    def _note_crash(self, member: _Member, rc: int, now: float) -> None:
        try:
            delay = self.rule.crashed(member.plan.label, member.restarts, now,
                                      killed=rc == KILLED_EXIT_CODE)
        except RestartRefused as refused:
            message = str(refused)
            if refused.reason == "budget":
                message = "stage failures:\n" + self._diagnose(member, rc)
            self._kill_all()
            raise FleetError(message, result=self._partial_result(),
                             reason=refused.reason) from None
        member.restarts += 1
        member.process = None
        member.restart_at = now + delay

    def _gather(self) -> FleetResult:
        # A parallel block's fleet has one sink per shard label:
        # concatenate their outputs in shard order, so each branch's
        # internal ordering is preserved.
        sinks = sorted(
            (m for m in self._members if m.plan.role in ("sink", "host")),
            key=lambda m: m.plan.shard or 0,
        )
        shard_outputs = [
            self._read(m.stdout_path).splitlines() for m in sinks
        ]
        output = [line for lines in shard_outputs for line in lines]
        stats = []
        for plan in self.plans:
            with open(plan.stats_file, "r", encoding="utf-8") as handle:
                stats.append(json.load(handle))
        payload = snapshot_payload(self.stats)
        workdir = pathlib.Path(self.plans[0].stats_file).parent
        try:
            with open(workdir / "supervisor.stats.json", "w",
                      encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
        except OSError:
            pass
        return FleetResult(
            output=output,
            stats=stats,
            stderr=[self._read(m.stderr_path) for m in self._members],
            trace_files=[p.trace_file for p in self.plans
                         if p.trace_file is not None],
            supervisor=payload,
            shard_outputs=shard_outputs if len(sinks) > 1 else [],
        )


def run_fleet(
    plans: Sequence[StagePlan],
    timeout: float = 60.0,
    python: str | None = None,
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
        plans, timeout=timeout, python=python, max_restarts=max_restarts,
        storm_window=storm_window, storm_max_restarts=storm_max_restarts,
    )
    return supervisor.run()

