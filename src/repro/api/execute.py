"""Program execution: one runner, three runtimes.

A validated :class:`~repro.api.graph.Graph` compiles to a program — a
sequence of linear segments and parallel blocks.  A
:class:`~repro.api.Pipeline` is the one-segment program, and
``Pipeline(stages, shards=N)`` the one-block program: a content-hash
scatter over N copies of the stages and a gather, without a graph's
boundary hops.  :func:`_run_program` runs every program, and wires it
the same way on every runtime and placement: one
:class:`~repro.api.graph.Router` per boundary (the graph's source into
the first segment, each segment into the next, the last into the
output), which joins the branches before it and splits into the
branches after it; one outlet per pipeline — each linear segment, each
branch of a block — that the router before it fills; and one router
inlet per pipeline sink.  A runtime only runs pipelines:

- ``sim``: segment by segment, one fresh deterministic kernel per
  segment (:func:`repro.transput.compose_segment` per pipeline), so a
  block's branches genuinely interleave under the simulator's
  scheduler (claim C3's fan-out is concurrency, not a loop).
- ``aio``: segment by segment too, a segment's pipelines (one
  :data:`repro.aio.pipeline.RUNNERS` coroutine each) concurrently
  under one ``asyncio.gather``.
- ``tcp``: **one** supervised run per program (:func:`_run_tcp`).
  Every pipeline is planned before the run, and one supervisor forks
  all their stages at once; placement only picks the planner.  A
  process pipeline's source and sink run in the driver's event loop,
  so the records never leave the driver as text: a sink hands each
  transfer it takes in to its boundary's router, which feeds the next
  segment's source ends as the records arrive.  A feed answers a read
  only with the records it asks for, once they are there (or with the
  rest, and then END): a later stage waits only as long as its records
  take to come through the segments before it, and every transfer
  keeps the boundaries of the whole-list routing.  A hosted pipeline
  carries its feed's records in its host's plan, and its output
  reaches its inlet when the run ends.

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
    """Validate the knobs, wire ``program``, then run its pipelines.

    On sim and aio, segment by segment: a segment's pipelines run
    together, and their outputs go through the next boundary's router
    once they are done.  On tcp, as one supervised run in which every
    segment streams into the next (:func:`_run_tcp`).  ``edge_knobs``
    are a graph's TCP-only edge settings
    (:meth:`Graph.tcp_only_edge_knobs`); ``hosted`` / ``broker`` plan
    the one linear segment as a broker-hosted fleet.  ``fleet`` holds
    the other TCP-only knobs, for :func:`_run_tcp`.
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

    # The wiring, built once for every runtime: one router per boundary
    # (the graph's source into the first segment, each segment into the
    # next, the last into the output), one outlet per pipeline that the
    # router before it fills (a Feed its source end plays on tcp, a
    # list on sim/aio), and one inlet of the router after it per sink.
    outlet = _Records
    if runtime == "tcp":
        from repro.net.launch import Feed as outlet
    segments = program.segments
    output = _Records()
    sources: list[list[Any]] = []
    sinks: list[list[_Inlet]] = []
    branch_outputs: dict[str, list[list[Any]]] = {}
    for before, after in zip([None, *segments], [*segments, None]):
        outlets = ([output] if after is None
                   else [outlet() for _ in _pipelines(after)])
        router = _boundary(before, after, outlets)
        if before is None:
            router.push(0, source)
            router.end(0)
        else:
            sinks.append([_Inlet(router, inlet)
                          for inlet in range(len(_pipelines(before)))])
            if isinstance(before, ParallelSegment):
                branch_outputs[before.name] = router.logs
        if after is not None:
            sources.append(outlets)

    if runtime == "tcp":
        per_segment, fields = _run_tcp(segments, sources, sinks, flow_of,
                                       hosted, broker, **fleet)
    else:
        from repro.core.stats import KernelStats
        from repro.obs.registry import snapshot_payload

        # Segment by segment, each segment's pipelines together.
        stats = KernelStats()
        run = (_sim_steps(flow_of, placement, stats) if runtime == "sim"
               else _aio_steps(flow_of, stats))
        per_segment = {}
        for segment, ins, outs in zip(segments, sources, sinks):
            outputs, per_segment[segment.name] = run(_pipelines(segment), ins)
            for inlet, records in zip(outs, outputs):
                inlet.extend(records)
                inlet.end()
        fields = {"stats": snapshot_payload(stats)}
    return GraphResult(
        runtime=runtime,
        graph=name,
        output=output,
        invocations=sum(per_segment.values()),
        segment_invocations=per_segment,
        branch_outputs=branch_outputs,
        **fields,
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


def _sim_steps(flow_of, placement: Any, stats: Any):
    """Run a segment's pipelines in one kernel, counting into ``stats``."""
    from repro.core.kernel import Kernel
    from repro.transput.pipeline import compose_segment, run_until_done

    def run(pipelines: list[LinearSegment], sources: list[list[Any]]):
        # Every pipeline of the segment composed into ONE kernel and
        # scheduled concurrently — a block's fan-out as the paper means
        # it, not a sequential loop over branches.
        kernel = Kernel()
        built = [compose_segment(
            kernel, pipeline.discipline, records,
            _transducers(pipeline.specs), flow=flow_of(pipeline),
            placement=placement,
        ) for pipeline, records in zip(pipelines, sources)]
        counts, _makespan = run_until_done(
            kernel, [sink for pipe in built for sink in pipe.sinks])
        for counter in kernel.stats.names():
            stats.bump(counter, kernel.stats.get(counter))
        return ([list(pipe.sink.collected) for pipe in built],
                counts["invocations_sent"])

    return run


# -- aio ---------------------------------------------------------------------


def _aio_steps(flow_of, stats: Any):
    """Run a segment's pipelines in one event loop, counting into
    ``stats``."""
    import asyncio

    from repro.aio.pipeline import RUNNERS

    def stream(pipeline: LinearSegment, records: list[Any]):
        policy = flow_of(pipeline)
        kwargs: dict[str, Any] = {"batch": policy.batch}
        if pipeline.discipline == "readonly":
            kwargs["lookahead"] = policy.lookahead
        elif pipeline.discipline == "conventional":
            kwargs["capacity"] = policy.buffer_capacity
        return RUNNERS[pipeline.discipline](
            records, _transducers(pipeline.specs), stats=stats, **kwargs)

    def run(pipelines: list[LinearSegment], sources: list[list[Any]]):
        # One event loop, every pipeline a concurrent coroutine chain.
        async def segment() -> list[list[Any]]:
            return list(await asyncio.gather(*(
                stream(pipeline, records)
                for pipeline, records in zip(pipelines, sources))))

        before = stats.get("invocations_sent")
        outputs = asyncio.run(segment())
        return outputs, stats.get("invocations_sent") - before

    return run


# -- tcp ---------------------------------------------------------------------


def _run_tcp(segments: Sequence[Any], sources: Sequence[Sequence[Any]],
             sinks: Sequence[Sequence[_Inlet]], flow_of, hosted: bool,
             broker: str | None, *, timeout: float | None = None,
             max_restarts: int | None = None,
             faults: Mapping[int, Any] | None = None,
             resume: bool | None = None, io_timeout: float | None = None,
             trace: bool | None = None, workdir: str | None = None,
             codec: str | None = None,
             flight: Any = None) -> tuple[dict[str, int], dict[str, Any]]:
    """Per-segment invocations and the other :class:`GraphResult`
    fields of one supervised run of ``segments``.

    Every pipeline — each linear segment, each branch of a block — is
    planned before the run, and one
    :class:`~repro.net.launch.FleetSupervisor` runs them all at once.
    Placement only picks the planner.  A process pipeline is a
    :func:`~repro.net.launch.plan_linear_fleet` (every port of the
    graph drawn in one call) whose source end plays the pipeline's
    :class:`~repro.net.launch.Feed` from ``sources`` and whose sink end
    hands each transfer on to its inlet in ``sinks`` as it arrives, so
    the segments overlap.  Branch ``i`` of a block plans into
    ``branch-<i>`` with ticket space ``i`` and shard label ``i``, and a
    traced block gets a combined ``fleet.json`` over every branch.  A
    hosted pipeline (one linear segment) is a
    :func:`~repro.broker.launch.plan_hosted_fleet` whose host's plan
    carries the feed's records; its output goes to its inlet once the
    run ends.
    """
    from repro.net import launch
    from repro.net.framing import CODEC_JSON

    flight_dir, flight_mode = normalize_flight(flight)
    workpath = pathlib.Path(workdir or tempfile.mkdtemp(prefix="eden-fleet-"))
    timeout = 60.0 if timeout is None else timeout
    max_restarts = max_restarts or 0
    resume, trace = bool(resume), bool(trace)

    # A one-segment program (every Pipeline, sharded or not) plans into
    # the workdir itself, keeping the fleet layout — manifest, trace
    # files, flight subdirs — where linear-era tooling expects it.
    # Longer programs get one subdirectory per segment.
    def under(root: Any, *parts: str) -> str | None:
        if root is None:
            return None
        return str(pathlib.Path(root).joinpath(
            *parts if len(segments) > 1 else parts[1:]))

    # One draw of every listening port: a pipeline of n transducers
    # listens on n + 1 ports, whatever its discipline.
    ports = None if hosted else iter(launch.pick_free_ports(sum(
        len(pipeline.specs) + 1
        for segment in segments for pipeline in _pipelines(segment))))
    plans: list[Any] = []
    spans: dict[str, range] = {}
    feeds: dict[int, Any] = {}
    forwards: dict[int, Any] = {}
    for segment, ins, outs in zip(segments, sources, sinks):
        start = len(plans)
        block = isinstance(segment, ParallelSegment)
        for index, (pipeline, feed, inlet) in enumerate(
                zip(_pipelines(segment), ins, outs)):
            branch = f"branch-{index}" if block else ""
            knobs = dict(
                flow=flow_of(pipeline), trace=trace, faults=faults,
                resume=resume, io_timeout=io_timeout,
                codec=pipeline.codec or codec or CODEC_JSON,
                flight_dir=under(flight_dir, segment.name, branch),
                flight_mode=flight_mode,
            )
            specs = _wire_specs(pipeline.specs, pipeline.name)
            if hosted:
                from repro.broker.launch import plan_hosted_fleet

                plans += plan_hosted_fleet(
                    pipeline.discipline, specs, under(workpath, segment.name),
                    source_items=feed.records, broker=broker,
                    max_restarts=max_restarts, **knobs)
                continue
            first = len(plans)
            plans += launch.plan_linear_fleet(
                pipeline.discipline, specs,
                under(workpath, segment.name, branch), source_items=[],
                ports=ports, **knobs,
                **(dict(ticket_space=index, shard=index) if block else {}))
            for at in range(first, len(plans)):
                if plans[at].role == "source":
                    feeds[at] = feed
                elif plans[at].role == "sink":
                    forwards[at] = inlet
        if block and trace:
            launch.write_manifest(
                under(workpath, segment.name), plans[start:], resume=resume,
                shards=len(segment.branches))
        spans[segment.name] = range(start, len(plans))

    fleet = launch.FleetSupervisor(
        plans, timeout=timeout, max_restarts=max_restarts,
    ).run(feeds, forwards)
    if hosted:
        ((inlet,),) = sinks
        inlet.extend(fleet.output)
        inlet.end()
    per_segment = {
        name: sum(stats["counters"].get("invocations_sent", 0)
                  for stats in fleet.stats[span.start:span.stop])
        for name, span in spans.items()
    }
    return per_segment, _fleet_fields(fleet)


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
    """A pipeline's sink: one inlet of a :class:`Router`."""

    router: Router
    index: int

    def extend(self, records: Sequence[Any]) -> None:
        self.router.push(self.index, records)

    def end(self) -> None:
        self.router.end(self.index)


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
