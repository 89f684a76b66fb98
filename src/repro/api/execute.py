"""Graph execution: one validated DAG, three runtimes.

A validated :class:`~repro.api.graph.Graph` compiles to a sequence of
linear and parallel segments; this module runs that program on any of
the three runtimes through the same segment building blocks the linear
facade uses —

- ``sim``: one fresh deterministic kernel per linear segment
  (:func:`repro.transput.compose_segment`); a parallel block composes
  every branch pipeline into **one shared kernel**, so the branches
  genuinely interleave under the simulator's scheduler (claim C3's
  fan-out is concurrency, not a loop).
- ``aio``: :func:`repro.aio.stream_segment` per linear segment; a
  parallel block drives every branch concurrently under one
  ``asyncio.gather``.
- ``tcp``: :func:`repro.net.launch.plan_linear_fleet` per linear
  segment; a parallel block plans each branch as its own sub-fleet
  (own directory, own ticket space, labelled by branch index — the
  same shape as the sharded fleet) under **one** supervisor.

Splits and joins route records identically everywhere
(:func:`~repro.api.graph.partition_records` /
:func:`~repro.api.graph.join_records`), which is what makes "identical
output on all three runtimes" hold for non-linear topologies, and each
edge's measured invocations line up with
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
    LinearSegment,
    ParallelSegment,
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
    "workdir", "codec", "pipeline_depth", "adaptive", "placement_policy",
    "flight",
)

#: FlowPolicy fields that encode TCP-only behaviour; setting one and
#: running on sim/aio is the same mistake as passing the run() knob.
_TCP_ONLY_FLOW_FIELDS = ("pipeline_depth", "adaptive")


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
        if getattr(policy, name) not in (None, False)
    )
    if smuggled:
        raise ValueError(
            f"FlowPolicy knob(s) {smuggled} need the supervised fleet; "
            f"run(runtime='tcp', ...) instead of {runtime!r}"
        )


@dataclass
class GraphResult:
    """What one graph run produced, in runtime-independent shape.

    ``output`` is the sink's collected records.  ``invocations``
    counts every transfer request that crossed a stage boundary,
    summed over all segments — compare against the sum of
    :func:`repro.analysis.cost_model.predict_graph_invocations`.
    ``segment_invocations`` breaks the total down: one entry per
    linear segment, and one entry per parallel block (keyed by its
    split node's name) covering all its branches.
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
    restarts: int = 0
    supervisor: dict[str, Any] = field(default_factory=dict)
    stderr: list[str] = field(default_factory=list)
    trace_files: list[str] = field(default_factory=list)


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
    adaptive: bool | None = None,
    flight: Any = None,
) -> GraphResult:
    """Run ``graph`` on ``runtime`` and gather a common result.

    The knob vocabulary is the facade's: flow knobs apply everywhere,
    ``placement`` is simulator-only, and the TCP-only knobs (see
    :data:`TCP_ONLY_KNOBS`) raise eagerly elsewhere — including
    per-edge ``codec`` settings and TCP-only :class:`FlowPolicy`
    fields.  ``faults`` address stage serials of one fleet and are
    only accepted for purely linear graphs.
    """
    if runtime not in RUNTIMES:
        raise ValueError(f"runtime must be one of {RUNTIMES}, got {runtime!r}")
    check_tcp_only_knobs(runtime, {
        "timeout": timeout, "max_restarts": max_restarts, "faults": faults,
        "resume": resume, "io_timeout": io_timeout, "trace": trace,
        "workdir": workdir, "codec": codec, "pipeline_depth": pipeline_depth,
        "adaptive": adaptive, "flight": flight,
    })
    if runtime != "sim" and placement is not None:
        raise ValueError("placement is simulator-only (runtime='sim')")
    if runtime != "tcp":
        edge_knobs = graph.tcp_only_edge_knobs()
        if edge_knobs:
            detail = "; ".join(
                f"{knob} on {', '.join(edges)}"
                for knob, edges in sorted(edge_knobs.items())
            )
            raise ValueError(
                f"edge knob(s) need the supervised fleet ({detail}); "
                f"run(runtime='tcp', ...) instead of {runtime!r}"
            )
    program = graph.program
    if faults and not (program.linear_only() and len(program.segments) == 1):
        raise ValueError(
            "faults address stage serials of one fleet and are ambiguous "
            "across graph segments; only purely linear graphs accept them"
        )

    overrides: dict[str, Any] = {}
    if batch is not None:
        overrides["batch"] = batch
    if credit_window is not None:
        overrides["credit_window"] = credit_window
    if lookahead is not None:
        overrides["lookahead"] = lookahead
    if pipeline_depth is not None:
        overrides["pipeline_depth"] = pipeline_depth
    if adaptive is not None:
        overrides["adaptive"] = adaptive

    def segment_flow(segment: LinearSegment) -> FlowPolicy:
        policy = segment.flow if flow is None else flow
        if overrides:
            policy = dataclasses.replace(policy, **overrides)
        check_flow_policy_runtime(runtime, policy)
        return policy

    if runtime == "sim":
        return _run_sim(graph, segment_flow, placement)
    if runtime == "aio":
        return _run_aio(graph, segment_flow)
    return _run_tcp(
        graph, segment_flow,
        timeout=60.0 if timeout is None else timeout,
        max_restarts=0 if max_restarts is None else max_restarts,
        faults=faults,
        resume=bool(resume),
        io_timeout=io_timeout,
        trace=bool(trace),
        workdir=workdir,
        codec=codec,
        flight=flight,
    )


def _transducers(specs: Sequence[Any]) -> list[Transducer]:
    """Fresh transducer instances for one in-process segment run."""
    from repro.net.stage import load_transducer

    made = []
    for spec in specs:
        if isinstance(spec, Transducer):
            made.append(spec)
        elif isinstance(spec, str):
            made.append(load_transducer(spec))
        else:
            made.append(load_transducer(spec[0], list(spec[1])))
    return made


def _wire_specs(specs: Sequence[Any],
                segment: str) -> list[tuple[str, list[Any]]]:
    """``(spec, args)`` pairs for the TCP runtime."""
    pairs = []
    for spec in specs:
        if isinstance(spec, Transducer):
            raise ValueError(
                f"the tcp runtime cannot ship a built Transducer "
                f"({type(spec).__name__}, segment {segment!r}) across a "
                "process boundary; give a 'module:factory' spec instead"
            )
        if isinstance(spec, str):
            pairs.append((spec, []))
        else:
            pairs.append((spec[0], list(spec[1])))
    return pairs


# -- sim ---------------------------------------------------------------------


def _run_sim(graph: Graph, segment_flow, placement: Any) -> GraphResult:
    from repro.core.kernel import Kernel
    from repro.core.stats import KernelStats
    from repro.obs.registry import snapshot_payload
    from repro.transput.pipeline import compose_segment, run_until_done

    combined = KernelStats()
    per_segment: dict[str, int] = {}
    branch_outputs: dict[str, list[list[Any]]] = {}
    records: list[Any] = list(graph.source)
    total = 0

    def absorb(kernel: Kernel) -> None:
        for name in kernel.stats.names():
            combined.bump(name, kernel.stats.get(name))

    for segment in graph.program.segments:
        if isinstance(segment, LinearSegment):
            kernel = Kernel()
            built = compose_segment(
                kernel, segment.discipline, records,
                _transducers(segment.specs),
                flow=segment_flow(segment), placement=placement,
            )
            records = built.run_to_completion()
            used = built.invocations_used()
            per_segment[segment.name] = used
            total += used
            absorb(kernel)
            continue
        # A parallel block: every branch pipeline composed into ONE
        # kernel, scheduled concurrently — fan-out as the paper means
        # it, not a sequential loop over branches.
        kernel = Kernel()
        buckets = partition_records(records, segment.op, segment.policy,
                                    len(segment.branches))
        built = [
            compose_segment(
                kernel, branch.discipline, bucket,
                _transducers(branch.specs),
                flow=segment_flow(branch), placement=placement,
            )
            for branch, bucket in zip(segment.branches, buckets)
        ]
        stats, _makespan = run_until_done(
            kernel, [sink for pipe in built for sink in pipe.sinks]
        )
        used = stats["invocations_sent"]
        per_segment[segment.name] = used
        total += used
        outputs = [list(pipe.sink.collected) for pipe in built]
        branch_outputs[segment.name] = outputs
        records = join_records(outputs, segment.join)
        absorb(kernel)

    return GraphResult(
        runtime="sim",
        graph=graph.name,
        output=records,
        invocations=total,
        segment_invocations=per_segment,
        branch_outputs=branch_outputs,
        stats=snapshot_payload(combined),
    )


# -- aio ---------------------------------------------------------------------


def _aio_kwargs(segment: LinearSegment, policy: FlowPolicy) -> dict[str, Any]:
    kwargs: dict[str, Any] = {"batch": policy.batch}
    if segment.discipline == "readonly":
        kwargs["lookahead"] = policy.lookahead
    elif segment.discipline == "conventional":
        kwargs["capacity"] = policy.buffer_capacity or 16
    return kwargs


def _run_aio(graph: Graph, segment_flow) -> GraphResult:
    import asyncio

    from repro.aio.pipeline import (
        stream_conventional,
        stream_readonly,
        stream_writeonly,
    )
    from repro.core.stats import KernelStats
    from repro.obs.registry import snapshot_payload

    runners = {
        "readonly": stream_readonly,
        "writeonly": stream_writeonly,
        "conventional": stream_conventional,
    }
    combined = KernelStats()
    per_segment: dict[str, int] = {}
    branch_outputs: dict[str, list[list[Any]]] = {}
    records: list[Any] = list(graph.source)
    total = 0

    for segment in graph.program.segments:
        if isinstance(segment, LinearSegment):
            stats = KernelStats()
            policy = segment_flow(segment)
            records = asyncio.run(runners[segment.discipline](
                records, _transducers(segment.specs), stats=stats,
                **_aio_kwargs(segment, policy),
            ))
            used = stats.get("invocations_sent")
            per_segment[segment.name] = used
            total += used
            for name in stats.names():
                combined.bump(name, stats.get(name))
            continue
        # A parallel block: one event loop, every branch a concurrent
        # coroutine chain under asyncio.gather.
        buckets = partition_records(records, segment.op, segment.policy,
                                    len(segment.branches))
        stats = KernelStats()

        async def run_block(block: ParallelSegment,
                            parts: list[list[Any]],
                            into: KernelStats) -> list[list[Any]]:
            return list(await asyncio.gather(*(
                runners[branch.discipline](
                    bucket, _transducers(branch.specs), stats=into,
                    **_aio_kwargs(branch, segment_flow(branch)),
                )
                for branch, bucket in zip(block.branches, parts)
            )))

        outputs = asyncio.run(run_block(segment, buckets, stats))
        used = stats.get("invocations_sent")
        per_segment[segment.name] = used
        total += used
        for name in stats.names():
            combined.bump(name, stats.get(name))
        branch_outputs[segment.name] = outputs
        records = join_records(outputs, segment.join)

    return GraphResult(
        runtime="aio",
        graph=graph.name,
        output=records,
        invocations=total,
        segment_invocations=per_segment,
        branch_outputs=branch_outputs,
        stats=snapshot_payload(combined),
    )


# -- tcp ---------------------------------------------------------------------


def _run_tcp(
    graph: Graph,
    segment_flow,
    timeout: float,
    max_restarts: int,
    faults: Mapping[int, Any] | None,
    resume: bool,
    io_timeout: float | None,
    trace: bool,
    workdir: str | None,
    codec: str | None,
    flight: Any,
) -> GraphResult:
    from repro.net.framing import CODEC_JSON
    from repro.net.launch import plan_linear_fleet, run_fleet
    from repro.net.metrics import merge_stats
    from repro.obs.registry import snapshot_payload

    flight_dir, flight_mode = normalize_flight(flight)
    workdir = workdir or tempfile.mkdtemp(prefix="eden-graph-")
    workpath = pathlib.Path(workdir)
    segments = graph.program.segments
    # A purely linear single-segment graph (every Pipeline) plans into
    # the given workdir itself, keeping the fleet layout — manifest,
    # trace files, flight subdirs — exactly where linear-era tooling
    # expects it.  Multi-segment graphs get one subdirectory per
    # segment, and per-branch subdirectories inside parallel blocks.
    nested = len(segments) > 1

    per_segment: dict[str, int] = {}
    branch_outputs: dict[str, list[list[Any]]] = {}
    records: list[Any] = list(graph.source)
    total = 0
    restarts = 0
    all_stats = []
    supervisor: dict[str, Any] = {}
    stderr: list[str] = []
    trace_files: list[str] = []

    def seg_dir(name: str) -> str:
        return str(workpath / name) if nested else str(workpath)

    def seg_flight(name: str) -> str | None:
        if flight_dir is None:
            return None
        return (str(pathlib.Path(flight_dir) / name) if nested
                else flight_dir)

    def absorb(result: Any) -> int:
        nonlocal restarts
        all_stats.append(result.totals)
        restarts += result.restarts
        for key, value in result.supervisor.items():
            supervisor[key] = supervisor.get(key, 0) + value \
                if isinstance(value, (int, float)) else value
        stderr.extend(result.stderr)
        trace_files.extend(result.trace_files)
        return result.invocations

    for segment in segments:
        if isinstance(segment, LinearSegment):
            plans = plan_linear_fleet(
                segment.discipline,
                _wire_specs(segment.specs, segment.name),
                seg_dir(segment.name),
                source_items=records,
                flow=segment_flow(segment),
                trace=trace,
                faults=faults,
                resume=resume,
                io_timeout=io_timeout,
                codec=segment.codec or codec or CODEC_JSON,
                flight_dir=seg_flight(segment.name),
                flight_mode=flight_mode,
            )
            result = run_fleet(plans, timeout=timeout,
                               max_restarts=max_restarts)
            used = absorb(result)
            per_segment[segment.name] = used
            total += used
            records = list(result.output)
            continue
        # A parallel block: each branch is its own sub-fleet — own
        # directory, own ticket space, labelled by branch index like a
        # shard — all under ONE supervisor run.
        buckets = partition_records(records, segment.op, segment.policy,
                                    len(segment.branches))
        plans = []
        for index, (branch, bucket) in enumerate(
                zip(segment.branches, buckets)):
            plans.extend(plan_linear_fleet(
                branch.discipline,
                _wire_specs(branch.specs, branch.name),
                str(workpath / segment.name / f"branch-{index}"),
                source_items=bucket,
                flow=segment_flow(branch),
                ticket_space=index,
                trace=trace,
                resume=resume,
                io_timeout=io_timeout,
                codec=branch.codec or codec or CODEC_JSON,
                shard=index,
                flight_dir=(
                    str(pathlib.Path(flight_dir) / segment.name
                        / f"branch-{index}")
                    if flight_dir is not None else None),
                flight_mode=flight_mode,
            ))
        result = run_fleet(plans, timeout=timeout,
                           max_restarts=max_restarts)
        used = absorb(result)
        per_segment[segment.name] = used
        total += used
        # run_fleet gathers sink outputs by shard label — here, by
        # branch index — so this is branch order, i.e. channel order.
        outputs = [list(lines) for lines in result.shard_outputs]
        branch_outputs[segment.name] = outputs
        records = join_records(outputs, segment.join)

    return GraphResult(
        runtime="tcp",
        graph=graph.name,
        output=records,
        invocations=total,
        segment_invocations=per_segment,
        branch_outputs=branch_outputs,
        stats=snapshot_payload(merge_stats(*all_stats)),
        restarts=restarts,
        supervisor=supervisor,
        stderr=stderr,
        trace_files=trace_files,
    )


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
