"""Program execution: one runner, three runtimes.

A validated :class:`~repro.api.graph.Graph` compiles to a program — a
sequence of linear segments and parallel blocks.  A
:class:`~repro.api.Pipeline` is the one-segment program, and
``Pipeline(stages, shards=N)`` the one-block program: a content-hash
scatter over N copies of the stages and a gather, without a graph's
boundary hops.  :func:`_run_program` is the one loop that runs every
program: a linear segment goes to the runtime's *linear step*; a
block's records are routed by
:func:`~repro.api.graph.partition_records`, handed to the runtime's
*block step*, and fanned back in by
:func:`~repro.api.graph.join_records`.  Each runtime supplies the two
steps —

- ``sim``: one fresh deterministic kernel per linear segment
  (:func:`repro.transput.compose_segment`); a block composes every
  branch pipeline into **one shared kernel**, so the branches genuinely
  interleave under the simulator's scheduler (claim C3's fan-out is
  concurrency, not a loop).
- ``aio``: one :data:`repro.aio.pipeline.RUNNERS` coroutine per linear
  segment; a block drives every branch concurrently under one
  ``asyncio.gather``.
- ``tcp``: :func:`repro.net.launch.plan_linear_fleet` per linear
  segment (``plan_hosted_fleet`` under hosted placement); a block plans
  each branch as its own sub-fleet (:func:`_plan_block`: own directory,
  own ticket space, labelled by branch index) under **one** supervisor.

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
import json
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
    "workdir", "codec", "pipeline_depth", "placement_policy", "flight",
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

    ``output`` is the sink's collected records — the TCP runtime
    transports records as text lines, so use string records when
    comparing outputs across runtimes.  ``invocations`` counts every
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
    fields.  ``faults`` address stage serials of one fleet and are
    only accepted for purely linear graphs.
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
    """Validate the knobs, then run ``program`` segment by segment.

    ``edge_knobs`` are a graph's TCP-only edge settings
    (:meth:`Graph.tcp_only_edge_knobs`); ``hosted`` / ``broker`` plan
    the linear segment as a broker-hosted fleet.  ``fleet`` holds the
    other TCP-only knobs, for :func:`_tcp_steps`; its
    ``placement_policy`` pins a block's branches (or the stage hosts)
    to cores — a graph's blocks leave it ``None`` and stay unpinned.
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
    placement_policy = fleet.get("placement_policy")
    if placement_policy is not None:
        from repro.net.affinity import PLACEMENT_POLICIES

        if placement_policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"placement_policy must be one of {PLACEMENT_POLICIES}, "
                f"got {placement_policy!r}"
            )
        if program.linear_only() and not hosted:
            raise ValueError(
                "placement_policy pins shard sub-fleets or stage hosts "
                "to cores; it needs shards > 1 or placement='hosted'"
            )
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

    if runtime == "sim":
        linear, block, fields = _sim_steps(flow_of, placement)
    elif runtime == "aio":
        linear, block, fields = _aio_steps(flow_of)
    else:
        linear, block, fields = _tcp_steps(
            flow_of, len(program.segments) > 1, hosted, broker, **fleet)

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


def _tcp_steps(flow_of, nested: bool, hosted: bool, broker: str | None, *,
               timeout: float | None = None, max_restarts: int | None = None,
               faults: Mapping[int, Any] | None = None,
               resume: bool | None = None, io_timeout: float | None = None,
               trace: bool | None = None, workdir: str | None = None,
               codec: str | None = None, flight: Any = None,
               placement_policy: str | None = None):
    from repro.net.framing import CODEC_JSON
    from repro.net.launch import plan_linear_fleet, run_fleet

    flight_dir, flight_mode = normalize_flight(flight)
    workpath = pathlib.Path(workdir or tempfile.mkdtemp(prefix="eden-fleet-"))
    timeout = 60.0 if timeout is None else timeout
    max_restarts = max_restarts or 0
    resume, trace = bool(resume), bool(trace)
    fleets: list[Any] = []

    # A one-segment program (every Pipeline, sharded or not) plans into
    # the workdir itself, keeping the fleet layout — manifest, trace
    # files, flight subdirs — where linear-era tooling expects it.
    # Longer programs get one subdirectory per segment.
    def under(root: Any, segment: Any) -> str | None:
        if root is None:
            return None
        return str(pathlib.Path(root) / (segment.name if nested else ""))

    def supervised(plans: list[Any]) -> Any:
        fleets.append(run_fleet(plans, timeout=timeout,
                                max_restarts=max_restarts))
        return fleets[-1]

    def linear(segment: LinearSegment, records: list[Any]):
        plan, extra = plan_linear_fleet, {}
        if hosted:
            from repro.broker.launch import plan_hosted_fleet as plan

            extra = {"broker": broker, "max_restarts": max_restarts,
                     "placement_policy": placement_policy}
        fleet = supervised(plan(
            segment.discipline,
            _wire_specs(segment.specs, segment.name),
            under(workpath, segment),
            source_items=records,
            flow=flow_of(segment),
            trace=trace,
            faults=faults,
            resume=resume,
            io_timeout=io_timeout,
            codec=segment.codec or codec or CODEC_JSON,
            flight_dir=under(flight_dir, segment),
            flight_mode=flight_mode,
            **extra,
        ))
        return list(fleet.output), fleet.invocations

    def block(segment: ParallelSegment, buckets: list[list[Any]]):
        fleet = supervised(_plan_block(
            segment, buckets, under(workpath, segment), flow_of,
            placement_policy=placement_policy or "none", trace=trace,
            resume=resume, io_timeout=io_timeout, codec=codec,
            flight_dir=under(flight_dir, segment), flight_mode=flight_mode,
        ))
        # run_fleet orders sink outputs by shard label — here, branch
        # index — so this is branch order, i.e. channel order.
        return ([list(lines) for lines in fleet.shard_outputs],
                fleet.invocations)

    return linear, block, lambda: _fleet_fields(fleets)


def _plan_block(block: ParallelSegment, buckets: Sequence[Sequence[Any]],
                directory: str | pathlib.Path, flow_of, *,
                placement_policy: str, codec: str | None = None,
                flight_dir: str | None = None, **knobs: Any) -> list[Any]:
    """Plan a parallel block as one sub-fleet per branch.

    Branch ``i`` plans into ``directory/branch-<i>`` with ticket space
    ``i``, labelled shard ``i`` (the order ``run_fleet`` gathers sink
    outputs in) and pinned to ``assign_cores(N, placement_policy)[i]``
    (:mod:`repro.net.affinity`; ``"none"`` never pins).  With
    ``trace`` on, a combined ``fleet.json`` covering every stage — with
    ``shards``, ``placement_policy`` and ``shard_cores`` — is written
    to ``directory`` for ``eden-top``.  ``knobs`` go to every branch's
    :func:`~repro.net.launch.plan_linear_fleet`.
    """
    from repro.net.affinity import assign_cores
    from repro.net.framing import CODEC_JSON
    from repro.net.launch import _manifest_entry, plan_linear_fleet

    directory = pathlib.Path(directory)
    cores = assign_cores(len(block.branches), placement_policy)
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
            cpu=cores[index],
            flight_dir=(None if flight_dir is None
                        else str(pathlib.Path(flight_dir) / f"branch-{index}")),
            **knobs,
        ))
    if knobs.get("trace"):
        manifest = {
            "resume": knobs.get("resume", False),
            "shards": len(block.branches),
            "placement_policy": placement_policy,
            "shard_cores": cores,
            "stages": [_manifest_entry(plan, plan.serial) for plan in plans],
        }
        (directory / "fleet.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return plans


def _fleet_fields(fleets: Sequence[Any]) -> dict[str, Any]:
    """The :class:`GraphResult` fields of a TCP run's fleets.

    Stage counters and supervisor counters are *summed* over every
    fleet the run supervised, so ``restarts`` and
    ``supervisor["counters"]["restarts"]`` are one number.
    """
    from repro.core.stats import KernelStats
    from repro.net.metrics import merge_stats
    from repro.obs.registry import snapshot_payload, stats_from_payload

    supervisor = KernelStats()
    for fleet in fleets:
        stats_from_payload(fleet.supervisor, into=supervisor)
    return {
        "stats": snapshot_payload(merge_stats(*(f.totals for f in fleets))),
        "restarts": supervisor.get("restarts"),
        "supervisor": snapshot_payload(supervisor),
        "stderr": [text for fleet in fleets for text in fleet.stderr],
        "trace_files": [path for fleet in fleets
                        for path in fleet.trace_files],
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
