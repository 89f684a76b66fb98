"""Program execution: one runner, three runtimes.

A validated :class:`~repro.api.graph.Graph` compiles to a program — a
sequence of linear segments and parallel blocks.  A
:class:`~repro.api.Pipeline` is the one-segment program, and
``Pipeline(stages, shards=N)`` the one-block program: a content-hash
scatter over N copies of the stages and a gather, without a graph's
boundary hops.  :func:`_run_program` runs every program.  Between
two segments, records cross one :class:`~repro.api.graph.Router`,
which joins the branches before the boundary and splits into the
branches after it.

- ``sim``: segment by segment.  One fresh deterministic kernel per
  linear segment (:func:`repro.transput.compose_segment`); a block
  composes every branch pipeline into **one shared kernel**, so the
  branches genuinely interleave under the simulator's scheduler
  (claim C3's fan-out is concurrency, not a loop).  A segment's
  records are routed whole into the next
  (:func:`~repro.api.graph.partition_records` /
  :func:`~repro.api.graph.join_records`).
- ``aio``: segment by segment too, one :data:`repro.aio.pipeline.
  RUNNERS` coroutine per linear segment; a block drives every branch
  concurrently under one ``asyncio.gather``.
- ``tcp``: **one** supervised run per program (:func:`_run_tcp`).
  Every pipeline — each linear segment, each branch of a block — is
  planned before the run, and one supervisor forks all their stages
  at once.  Each pipeline's source and sink run in the driver's event
  loop, so the records never leave the driver as text: a sink hands
  each transfer it takes in to its boundary's router, which feeds the
  next segment's source ends as the records arrive.  A feed answers a
  read only with the records it asks for, once they are there (or
  with the rest, and then END): a later stage waits only as long as
  its records take to come through the segments before it, and every
  transfer keeps the boundaries of the whole-list routing.
  Hosted placement runs its one linear segment as a
  ``plan_hosted_fleet``.

Routing is identical everywhere, which is what makes "identical output
on all three runtimes" hold for non-linear topologies, and each edge's
measured invocations line up with
:func:`repro.analysis.cost_model.predict_graph_invocations`.

The knob-validation helpers here (:data:`TCP_ONLY_KNOBS`,
:func:`check_tcp_only_knobs`, :func:`check_flow_policy_runtime`) are
the **single** enforcement point shared with the linear facade —
TCP-only knobs raise the same eager ``ValueError`` whether they arrive
as ``run()`` keywords, per-edge codec settings, or smuggled inside a
:class:`FlowPolicy`.
"""

from __future__ import annotations

import dataclasses
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.transput.filterbase import Transducer
from repro.transput.flow import FlowPolicy
from repro.api.graph import (
    Graph,
    GraphProgram,
    LinearSegment,
    ParallelSegment,
    Router,
    _Records,
    join_records,
    partition_records,
)

__all__ = [
    "GraphResult",
    "RUNTIMES",
    "TCP_ONLY_KNOBS",
    "check_flow_policy_runtime",
    "check_tcp_only_knobs",
    "run_graph",
]

#: The runtimes a graph (or pipeline) can run on.
RUNTIMES = ("sim", "aio", "tcp")

#: Knobs only the supervised TCP fleet can honour.  This is the single
#: source of truth: the facade's ``run()`` and the graph runner both
#: validate against it, so a TCP-only knob is rejected identically on
#: every path (never a silent no-op).
TCP_ONLY_KNOBS = (
    "timeout", "max_restarts", "faults", "resume", "io_timeout", "trace",
    "workdir", "codec", "pipeline_depth", "flight",
)

#: FlowPolicy fields that encode TCP-only behaviour; setting one and
#: running on sim/aio is the same mistake as passing the run() knob.
_TCP_ONLY_FLOW_FIELDS = ("pipeline_depth",)


def check_tcp_only_knobs(runtime: str, given: Mapping[str, Any]) -> None:
    """Reject TCP-only knobs eagerly on the in-process runtimes."""
    if runtime == "tcp":
        return
    offending = sorted(
        name for name, value in given.items()
        if name in TCP_ONLY_KNOBS and value is not None
    )
    if offending:
        raise ValueError(
            f"knob(s) {offending} need the supervised fleet; "
            f"run(runtime='tcp', ...) instead of {runtime!r}"
        )


def check_flow_policy_runtime(runtime: str, policy: FlowPolicy) -> None:
    """Reject a FlowPolicy smuggling TCP-only behaviour onto sim/aio."""
    if runtime == "tcp":
        return
    smuggled = sorted(
        name for name in _TCP_ONLY_FLOW_FIELDS
        if getattr(policy, name) is not None
    )
    if smuggled:
        raise ValueError(
            f"FlowPolicy knob(s) {smuggled} need the supervised fleet; "
            f"run(runtime='tcp', ...) instead of {runtime!r}"
        )


@dataclass
class GraphResult:
    """What one graph or pipeline run produced, on any runtime.

    ``output`` is the sink's collected records, the same values on
    every runtime (the wire carries JSON values, so a TCP run's records
    must be JSON-encodable).  ``invocations`` counts every
    transfer request that crossed a stage boundary (READs + WRITEs +
    pushed ENDs, the paper's C1/C2 cost metric), summed over all
    segments — compare against the sum of
    :func:`repro.analysis.cost_model.predict_graph_invocations`.
    ``segment_invocations`` breaks the total down: one entry per
    linear segment, and one entry per parallel block (keyed by its
    split node's name, ``"shards"`` for a sharded pipeline) covering
    all its branches.  ``stats`` is the full counters/gauges/histograms
    payload (:func:`repro.obs.registry.snapshot_payload` shape).
    """

    runtime: str
    graph: str
    output: list[Any]
    invocations: int
    segment_invocations: dict[str, int] = field(default_factory=dict)
    #: Per-branch outputs of each parallel block, keyed by split name,
    #: branches in channel-id order (before the join interleaved or
    #: concatenated them).
    branch_outputs: dict[str, list[list[Any]]] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    #: Supervised restarts (TCP runtime only; 0 elsewhere).
    restarts: int = 0
    #: Supervisor payload summed over every fleet (TCP only; empty
    #: elsewhere).
    supervisor: dict[str, Any] = field(default_factory=dict)
    stderr: list[str] = field(default_factory=list)
    trace_files: list[str] = field(default_factory=list)

    def invocations_per_datum(self, item_count: int) -> float:
        """Average invocations to move one record end-to-end."""
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        return self.invocations / item_count


def run_graph(
    graph: Graph,
    runtime: str = "sim",
    *,
    flow: FlowPolicy | None = None,
    batch: int | None = None,
    credit_window: int | None = None,
    lookahead: int | None = None,
    placement: Any = None,
    timeout: float | None = None,
    max_restarts: int | None = None,
    faults: Mapping[int, Any] | None = None,
    resume: bool | None = None,
    io_timeout: float | None = None,
    trace: bool | None = None,
    workdir: str | None = None,
    codec: str | None = None,
    pipeline_depth: int | None = None,
    flight: Any = None,
) -> GraphResult:
    """Run ``graph`` on ``runtime`` and gather a common result.

    The knob vocabulary is the facade's: flow knobs apply everywhere,
    ``placement`` is simulator-only, and the TCP-only knobs (see
    :data:`TCP_ONLY_KNOBS`) raise eagerly elsewhere — including
    per-edge ``codec`` settings and TCP-only :class:`FlowPolicy`
    fields.  On tcp the whole graph is one supervised run, and
    ``timeout`` (60 s by default) bounds all of it, not each segment.
    ``faults`` address stage serials of one fleet and are only
    accepted for purely linear graphs.
    """
    return _run_program(
        graph.program, graph.source, runtime, name=graph.name,
        edge_knobs=graph.tcp_only_edge_knobs(), flow=flow, batch=batch,
        credit_window=credit_window, lookahead=lookahead,
        placement=placement, timeout=timeout, max_restarts=max_restarts,
        faults=faults, resume=resume, io_timeout=io_timeout, trace=trace,
        workdir=workdir, codec=codec, pipeline_depth=pipeline_depth,
        flight=flight,
    )


def _run_program(
    program: GraphProgram,
    source: Sequence[Any],
    runtime: str,
    *,
    name: str,
    edge_knobs: Mapping[str, list[str]] | None = None,
    hosted: bool = False,
    broker: str | None = None,
    placement: Any = None,
    flow: FlowPolicy | None = None,
    batch: int | None = None,
    credit_window: int | None = None,
    lookahead: int | None = None,
    pipeline_depth: int | None = None,
    **fleet: Any,
) -> GraphResult:
    """Validate the knobs, then run ``program``.

    On sim and aio, segment by segment: each segment's records are
    routed whole into the next.  On tcp, as one supervised run in which
    every segment streams into the next (:func:`_run_tcp`).
    ``edge_knobs`` are a graph's TCP-only edge settings
    (:meth:`Graph.tcp_only_edge_knobs`); ``hosted`` / ``broker`` plan
    the linear segment as a broker-hosted fleet.  ``fleet`` holds the
    other TCP-only knobs, for :func:`_run_tcp`.
    """
    if runtime not in RUNTIMES:
        raise ValueError(f"runtime must be one of {RUNTIMES}, got {runtime!r}")
    check_tcp_only_knobs(runtime, dict(fleet, pipeline_depth=pipeline_depth))
    if runtime != "sim" and placement is not None:
        raise ValueError("placement is simulator-only (runtime='sim')")
    if runtime != "tcp" and edge_knobs:
        detail = "; ".join(
            f"{knob} on {', '.join(edges)}"
            for knob, edges in sorted(edge_knobs.items())
        )
        raise ValueError(
            f"edge knob(s) need the supervised fleet ({detail}); "
            f"run(runtime='tcp', ...) instead of {runtime!r}"
        )
    io_timeout = fleet.get("io_timeout")
    if io_timeout is not None and (
        not isinstance(io_timeout, (int, float)) or io_timeout <= 0
    ):
        raise ValueError(f"io_timeout must be > 0 or None, got {io_timeout!r}")
    if hosted and runtime != "tcp":
        raise ValueError(
            f"placement='hosted' needs the TCP runtime, got {runtime!r}"
        )
    if fleet.get("faults") and not (
            program.linear_only() and len(program.segments) == 1):
        raise ValueError(
            "faults address stage serials of one linear fleet and are "
            "ambiguous across graph segments, branches or shards; only "
            "purely linear graphs accept them"
        )

    overrides = {
        knob: value for knob, value in (
            ("batch", batch), ("credit_window", credit_window),
            ("lookahead", lookahead), ("pipeline_depth", pipeline_depth),
        ) if value is not None
    }

    def flow_of(segment: LinearSegment) -> FlowPolicy:
        policy = segment.flow if flow is None else flow
        if overrides:
            policy = dataclasses.replace(policy, **overrides)
        check_flow_policy_runtime(runtime, policy)
        return policy

    if runtime == "tcp":
        return GraphResult(runtime=runtime, graph=name, **_run_tcp(
            program, source, flow_of, hosted, broker, **fleet))
    linear, block, fields = (_sim_steps(flow_of, placement) if runtime == "sim"
                             else _aio_steps(flow_of))
    per_segment: dict[str, int] = {}
    branch_outputs: dict[str, list[list[Any]]] = {}
    records: list[Any] = list(source)
    for segment in program.segments:
        if isinstance(segment, LinearSegment):
            records, per_segment[segment.name] = linear(segment, records)
            continue
        buckets = partition_records(records, segment.op, segment.policy,
                                    len(segment.branches))
        outputs, per_segment[segment.name] = block(segment, buckets)
        branch_outputs[segment.name] = outputs
        records = join_records(outputs, segment.join)
    return GraphResult(
        runtime=runtime,
        graph=name,
        output=records,
        invocations=sum(per_segment.values()),
        segment_invocations=per_segment,
        branch_outputs=branch_outputs,
        **fields(),
    )


def _spec_pair(spec: Any) -> tuple[str, list[Any]]:
    return (spec, []) if isinstance(spec, str) else (spec[0], list(spec[1]))


def _transducers(specs: Sequence[Any]) -> list[Transducer]:
    """Fresh transducer instances for one in-process segment run."""
    from repro.net.stage import load_transducer

    return [spec if isinstance(spec, Transducer)
            else load_transducer(*_spec_pair(spec)) for spec in specs]


def _wire_specs(specs: Sequence[Any],
                segment: str) -> list[tuple[str, list[Any]]]:
    """``(spec, args)`` pairs for the TCP runtime."""
    for spec in specs:
        if isinstance(spec, Transducer):
            raise ValueError(
                f"the tcp runtime cannot ship a built Transducer "
                f"({type(spec).__name__}, segment {segment!r}) across a "
                "process boundary; give a 'module:factory' spec instead"
            )
    return [_spec_pair(spec) for spec in specs]


# -- sim ---------------------------------------------------------------------


def _sim_steps(flow_of, placement: Any):
    from repro.core.kernel import Kernel
    from repro.core.stats import KernelStats
    from repro.obs.registry import snapshot_payload
    from repro.transput.pipeline import compose_segment, run_until_done

    combined = KernelStats()

    def compose(kernel: Kernel, segment: LinearSegment, records: list[Any]):
        return compose_segment(
            kernel, segment.discipline, records, _transducers(segment.specs),
            flow=flow_of(segment), placement=placement,
        )

    def absorb(kernel: Kernel) -> None:
        for counter in kernel.stats.names():
            combined.bump(counter, kernel.stats.get(counter))

    def linear(segment: LinearSegment, records: list[Any]):
        kernel = Kernel()
        built = compose(kernel, segment, records)
        output = built.run_to_completion()
        absorb(kernel)
        return output, built.invocations_used()

    def block(segment: ParallelSegment, buckets: list[list[Any]]):
        # Every branch pipeline composed into ONE kernel, scheduled
        # concurrently — fan-out as the paper means it, not a
        # sequential loop over branches.
        kernel = Kernel()
        built = [compose(kernel, branch, bucket)
                 for branch, bucket in zip(segment.branches, buckets)]
        stats, _makespan = run_until_done(
            kernel, [sink for pipe in built for sink in pipe.sinks])
        absorb(kernel)
        return ([list(pipe.sink.collected) for pipe in built],
                stats["invocations_sent"])

    return linear, block, lambda: {"stats": snapshot_payload(combined)}


# -- aio ---------------------------------------------------------------------


def _aio_steps(flow_of):
    import asyncio

    from repro.aio.pipeline import RUNNERS
    from repro.core.stats import KernelStats
    from repro.obs.registry import snapshot_payload

    stats = KernelStats()

    def stream(segment: LinearSegment, records: list[Any]):
        policy = flow_of(segment)
        kwargs: dict[str, Any] = {"batch": policy.batch}
        if segment.discipline == "readonly":
            kwargs["lookahead"] = policy.lookahead
        elif segment.discipline == "conventional":
            kwargs["capacity"] = policy.buffer_capacity or 16
        return RUNNERS[segment.discipline](
            records, _transducers(segment.specs), stats=stats, **kwargs)

    def counted(coroutine):
        before = stats.get("invocations_sent")
        output = asyncio.run(coroutine)
        return output, stats.get("invocations_sent") - before

    def linear(segment: LinearSegment, records: list[Any]):
        return counted(stream(segment, records))

    def block(segment: ParallelSegment, buckets: list[list[Any]]):
        # One event loop, every branch a concurrent coroutine chain.
        async def branches() -> list[list[Any]]:
            return list(await asyncio.gather(*(
                stream(branch, bucket)
                for branch, bucket in zip(segment.branches, buckets)
            )))

        return counted(branches())

    return linear, block, lambda: {"stats": snapshot_payload(stats)}


# -- tcp ---------------------------------------------------------------------


def _run_tcp(program: GraphProgram, source: Sequence[Any], flow_of,
             hosted: bool, broker: str | None, *,
             timeout: float | None = None, max_restarts: int | None = None,
             faults: Mapping[int, Any] | None = None,
             resume: bool | None = None, io_timeout: float | None = None,
             trace: bool | None = None, workdir: str | None = None,
             codec: str | None = None, flight: Any = None) -> dict[str, Any]:
    """The :class:`GraphResult` fields of one supervised run of ``program``.

    Every pipeline of the program — each linear segment, each branch of
    a block — is planned with its source empty, every port of the graph
    drawn in one call, and one :class:`~repro.net.launch.FleetSupervisor`
    runs them all at once.  The records stay in the driver: the graph's
    source and every sink end feed a :class:`~repro.api.graph.Router`
    per boundary, and each router feeds the next segment's source ends
    as the records arrive, so the segments overlap.  A hosted pipeline
    (one linear segment) carries its records in its host's plan.
    """
    from repro.net.framing import CODEC_JSON
    from repro.net.launch import (
        Feed,
        FleetSupervisor,
        plan_linear_fleet,
        run_fleet,
    )

    flight_dir, flight_mode = normalize_flight(flight)
    workpath = pathlib.Path(workdir or tempfile.mkdtemp(prefix="eden-fleet-"))
    timeout = 60.0 if timeout is None else timeout
    max_restarts = max_restarts or 0
    resume, trace = bool(resume), bool(trace)
    segments = program.segments

    if hosted:
        from repro.broker.launch import plan_hosted_fleet

        (segment,) = segments
        fleet = run_fleet(plan_hosted_fleet(
            segment.discipline, _wire_specs(segment.specs, segment.name),
            str(workpath), source_items=list(source), flow=flow_of(segment),
            trace=trace, faults=faults, resume=resume, io_timeout=io_timeout,
            codec=segment.codec or codec or CODEC_JSON, flight_dir=flight_dir,
            flight_mode=flight_mode, broker=broker, max_restarts=max_restarts,
        ), timeout=timeout, max_restarts=max_restarts)
        return {"output": fleet.output, "invocations": fleet.invocations,
                "segment_invocations": {segment.name: fleet.invocations},
                **_fleet_fields(fleet)}

    # A one-segment program (every Pipeline, sharded or not) plans into
    # the workdir itself, keeping the fleet layout — manifest, trace
    # files, flight subdirs — where linear-era tooling expects it.
    # Longer programs get one subdirectory per segment.
    def under(root: Any, segment: Any) -> str | None:
        if root is None:
            return None
        nested = len(segments) > 1
        return str(pathlib.Path(root) / (segment.name if nested else ""))

    ports = _draw_ports([pipeline for segment in segments
                         for pipeline in _pipelines(segment)])
    knobs = dict(trace=trace, resume=resume, io_timeout=io_timeout,
                 flight_mode=flight_mode, ports=ports)
    plans: list[Any] = []
    spans: dict[str, range] = {}
    for segment in segments:
        start = len(plans)
        if isinstance(segment, ParallelSegment):
            plans += _plan_block(
                segment, [[] for _ in segment.branches],
                under(workpath, segment), flow_of, codec=codec,
                flight_dir=under(flight_dir, segment), **knobs)
        else:
            plans += plan_linear_fleet(
                segment.discipline, _wire_specs(segment.specs, segment.name),
                under(workpath, segment), source_items=[],
                flow=flow_of(segment), faults=faults,
                codec=segment.codec or codec or CODEC_JSON,
                flight_dir=under(flight_dir, segment), **knobs)
        spans[segment.name] = range(start, len(plans))

    def ends(segment: Any, role: str) -> list[int]:
        return [i for i in spans[segment.name] if plans[i].role == role]

    # One router per boundary: the graph's source into the first
    # segment, each segment into the next, the last into the output.
    output = _Records()
    feeds: dict[int, Any] = {}
    forwards: dict[int, Any] = {}
    branch_outputs: dict[str, list[list[Any]]] = {}
    for before, after in zip([None, *segments], [*segments, None]):
        outlets: list[Any] = [output]
        if after is not None:
            outlets = [Feed() for _ in ends(after, "source")]
            feeds.update(zip(ends(after, "source"), outlets))
        router = _boundary(before, after, outlets)
        if before is None:
            router.push(0, source)
            router.end(0)
            continue
        forwards.update((index, _Inlet(router, inlet))
                        for inlet, index in enumerate(ends(before, "sink")))
        if isinstance(before, ParallelSegment):
            branch_outputs[before.name] = router.logs

    fleet = FleetSupervisor(plans, timeout=timeout,
                            max_restarts=max_restarts).run(feeds, forwards)
    per_segment = {
        name: sum(stats["counters"].get("invocations_sent", 0)
                  for stats in fleet.stats[span.start:span.stop])
        for name, span in spans.items()
    }
    return {
        "output": output,
        "invocations": sum(per_segment.values()),
        "segment_invocations": per_segment,
        "branch_outputs": branch_outputs,
        **_fleet_fields(fleet),
    }


def _pipelines(segment: Any) -> list[LinearSegment]:
    """The linear pipelines a segment runs: itself, or its branches."""
    if isinstance(segment, ParallelSegment):
        return segment.branches
    return [segment]


def _boundary(before: Any, after: Any, outlets: Sequence[Any]) -> Router:
    """The router between segment ``before`` (None: the graph's source)
    and ``after`` (None: the graph's output)."""
    join = before.join if isinstance(before, ParallelSegment) else "gather"
    op, policy = ((after.op, after.policy)
                  if isinstance(after, ParallelSegment)
                  else ("broadcast", None))
    inlets = 1 if before is None else len(_pipelines(before))
    return Router(inlets, join, op, policy, outlets)


@dataclass
class _Inlet:
    """A sink end's forward: one inlet of a :class:`Router`."""

    router: Router
    index: int

    def extend(self, records: Sequence[Any]) -> None:
        self.router.push(self.index, records)

    def end(self) -> None:
        self.router.end(self.index)


def _draw_ports(pipelines: Sequence[LinearSegment]) -> Any:
    """One draw of every listening port ``pipelines`` plan: a pipeline
    of ``n`` transducers listens on ``n + 1`` ports, whatever its
    discipline."""
    from repro.net import launch

    return iter(launch.pick_free_ports(
        sum(len(pipeline.specs) + 1 for pipeline in pipelines)))


def _plan_block(block: ParallelSegment, buckets: Sequence[Sequence[Any]],
                directory: str | pathlib.Path, flow_of, *,
                codec: str | None = None,
                flight_dir: str | None = None, ports: Any = None,
                **knobs: Any) -> list[Any]:
    """Plan a parallel block as one sub-fleet per branch.

    Branch ``i`` plans into ``directory/branch-<i>`` with ticket space
    ``i`` and labelled shard ``i`` (the order the supervisor gathers
    sink outputs in).  With ``trace`` on, a combined ``fleet.json``
    covering every stage — with ``shards`` — is written to
    ``directory`` for ``eden-top``.  ``ports`` are drawn for the
    whole graph (by default, for this block, in one call); ``knobs``
    go to every branch's :func:`~repro.net.launch.plan_linear_fleet`.
    """
    from repro.net.framing import CODEC_JSON
    from repro.net.launch import plan_linear_fleet, write_manifest

    directory = pathlib.Path(directory)
    if ports is None:
        ports = _draw_ports(block.branches)
    plans = []
    for index, (branch, bucket) in enumerate(zip(block.branches, buckets)):
        plans.extend(plan_linear_fleet(
            branch.discipline,
            _wire_specs(branch.specs, branch.name),
            str(directory / f"branch-{index}"),
            source_items=bucket,
            flow=flow_of(branch),
            ticket_space=index,
            codec=branch.codec or codec or CODEC_JSON,
            shard=index,
            flight_dir=(None if flight_dir is None
                        else str(pathlib.Path(flight_dir) / f"branch-{index}")),
            ports=ports,
            **knobs,
        ))
    if knobs.get("trace"):
        write_manifest(directory, plans, resume=knobs.get("resume", False),
                       shards=len(block.branches))
    return plans


def _fleet_fields(fleet: Any) -> dict[str, Any]:
    """The :class:`GraphResult` fields of a TCP run's fleet.

    A stage host restarts its stages itself, counting under the
    supervisor's restart-rule names; those counters join the
    supervisor's, so ``restarts`` and
    ``supervisor["counters"]["restarts"]`` are one number on either
    placement.
    """
    from repro.core.stats import KernelStats
    from repro.fault.plan import RestartRule
    from repro.obs.registry import snapshot_payload, stats_from_payload

    supervisor = stats_from_payload(fleet.supervisor, into=KernelStats())
    totals = fleet.totals
    for name in totals.names():
        if name.partition("[")[0] in RestartRule.COUNTERS:
            supervisor.bump(name, totals.get(name))
    return {
        "stats": snapshot_payload(totals),
        "restarts": supervisor.get("restarts"),
        "supervisor": snapshot_payload(supervisor),
        "stderr": fleet.stderr,
        "trace_files": fleet.trace_files,
    }


def normalize_flight(flight: Any) -> tuple[str | None, str]:
    """Normalise the ``flight`` knob to ``(directory, mode)``."""
    from repro.obs.flight import FLIGHT_MODES, MODE_FULL

    if flight is None:
        return None, MODE_FULL
    if isinstance(flight, str):
        return flight, MODE_FULL
    if (isinstance(flight, (tuple, list)) and len(flight) == 2
            and isinstance(flight[0], str)):
        directory, mode = flight
        if mode not in FLIGHT_MODES:
            raise ValueError(
                f"flight mode must be one of {sorted(FLIGHT_MODES)}, "
                f"got {mode!r}"
            )
        return directory, mode
    raise ValueError(
        f"flight must be a directory path or a (directory, mode) "
        f"pair, got {flight!r}"
    )
