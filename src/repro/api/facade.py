"""The linear pipeline facade: a thin wrapper over a graph program.

:class:`Pipeline` keeps the vocabulary every earlier PR used — stages,
discipline, source, harmonised knobs — and compiles to a program the
one graph runner (:func:`repro.api.execute._run_program`) executes: a
single-path :class:`~repro.api.graph.Graph` (see
:meth:`Pipeline.to_graph`), or with ``shards=N`` the one parallel
block a ``scatter("hash")…gather()`` runs, without the graph's
boundary hops.  Placement does not change how it runs: hosted
placement only picks the planner that program's one pipeline gets
inside the graph runner's one supervised run.

All knob validation is the graph runner's
(:data:`repro.api.execute.TCP_ONLY_KNOBS`), so a TCP-only knob is
rejected identically whether it arrives here, on a ``Graph.run``, or
smuggled inside a :class:`FlowPolicy`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence

from repro.transput.flow import FlowPolicy
from repro.transput.pipeline import DISCIPLINES
from repro.api.execute import RUNTIMES, GraphResult, _run_program
from repro.api.graph import (
    Graph,
    GraphProgram,
    ParallelSegment,
    check_stage_spec,
)

__all__ = ["Pipeline", "RUNTIMES", "DISCIPLINES"]


class Pipeline:
    """A runtime-independent linear pipeline description.

    Args:
        stages: transducer specs, upstream to downstream.  Each is a
            ``"module:factory"`` string, a ``(spec, args)`` pair, or —
            for the in-process runtimes only — a built Transducer.
        discipline: ``"readonly"``, ``"writeonly"`` or
            ``"conventional"``.
        source: the records to stream (a finite sequence; the TCP
            runtime additionally needs them JSON-encodable).
        sink: ``None`` or ``"collect"`` — the built-in collecting sink
            whose records become ``result.output``.  Custom sink Ejects
            remain a simulator-only feature of
            :func:`repro.transput.compose_readonly_pipeline`.
        flow: default :class:`FlowPolicy` for every run (individual
            ``run()`` calls may override knobs).
        shards: partition the stream by content hash across this many
            parallel copies of the pipeline (claim C3's channel
            fan-out) — the parallel block ``scatter("hash")…gather()``
            runs.  Each shard preserves its internal order;
            ``result.output`` concatenates shards in index order and
            ``result.branch_outputs["shards"]`` keeps them separate.  On
            the TCP runtime every shard is its own process sub-fleet
            under one supervisor.  For explicit branch topologies
            (different stages per branch, broadcast, merge) use
            :class:`repro.api.GraphBuilder` instead.
        placement: where the TCP runtime puts stages.  ``"processes"``
            (the default) is one OS process per stage; ``"hosted"``
            runs every stage inside one ``eden-host`` process attached
            to an ``eden-broker`` control plane — same stream
            semantics, ``hosts + 1`` processes regardless of pipeline
            length.  Hosted placement supports the readonly and
            writeonly disciplines, unsharded.
        broker: with ``placement="hosted"``, attach to an externally
            running broker at ``"host:port"`` instead of planning one.
    """

    def __init__(
        self,
        stages: Sequence[Any],
        discipline: str = "readonly",
        source: Sequence[Any] | None = None,
        sink: Any = None,
        flow: FlowPolicy | None = None,
        shards: int = 1,
        placement: str | None = None,
        broker: str | None = None,
    ) -> None:
        if discipline not in DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {DISCIPLINES}, got {discipline!r}"
            )
        if placement not in (None, "processes", "hosted"):
            raise ValueError(
                f"placement must be 'processes' or 'hosted', got {placement!r}"
            )
        if broker is not None and placement != "hosted":
            raise ValueError("broker requires placement='hosted'")
        if placement == "hosted":
            if discipline == "conventional":
                raise ValueError(
                    "hosted placement cannot run the conventional "
                    "discipline (every link needs a pipe process)"
                )
            if shards != 1:
                raise ValueError(
                    "hosted placement is unsharded; run with shards=1"
                )
        if source is None:
            raise ValueError("source is required (a finite record sequence)")
        if sink not in (None, "collect"):
            raise ValueError(
                f"sink must be None or 'collect', got {sink!r}; custom sinks "
                "are a simulator feature — use repro.transput.compose_* "
                "builders directly"
            )
        if not isinstance(shards, int) or shards < 1:
            raise ValueError(f"shards must be an integer >= 1, got {shards!r}")
        self.stages = list(stages)
        for stage in self.stages:
            self._check_stage(stage)
        self.discipline = discipline
        self.source = list(source)
        self.flow = flow or FlowPolicy()
        self.shards = shards
        self.placement = placement or "processes"
        self.broker = broker

    # -- stage specs --------------------------------------------------------

    @staticmethod
    def _check_stage(stage: Any) -> None:
        try:
            check_stage_spec(stage)
        except ValueError as exc:  # GraphError is a ValueError
            raise ValueError(str(exc)) from None

    # -- the graph view ------------------------------------------------------

    def to_graph(self) -> Graph:
        """This pipeline's stages as the degenerate single-path Graph.

        Sharding and hosted placement do not appear in the graph: a
        sharded run executes N copies of this graph's one segment as a
        parallel block, and a hosted run plans that segment onto stage
        hosts.
        """
        return Graph.linear(
            self.stages,
            source=self.source,
            discipline=self.discipline,
            flow=self.flow,
            name="pipeline",
        )

    def _program(self) -> GraphProgram:
        """The program the graph runner executes for this pipeline."""
        program = self.to_graph().program
        if self.shards == 1:
            return program
        (segment,) = program.segments
        return GraphProgram(segments=[ParallelSegment(
            name="shards", op="scatter", policy="hash", join="gather",
            branches=[dataclasses.replace(segment, name=f"shards.b{index}")
                      for index in range(self.shards)],
        )])

    # -- running ------------------------------------------------------------

    def run(
        self,
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
        """Run the pipeline on ``runtime`` and gather a common result.

        Flow knobs (``batch``, ``credit_window``, ``lookahead``, or a
        whole ``flow`` policy) apply everywhere.  ``placement`` is
        simulator-only.  The fault-tolerance knobs (``timeout``,
        ``max_restarts``, ``faults``, ``resume``, ``io_timeout``,
        ``trace``, ``workdir``) and the data-plane knobs (``codec``,
        ``pipeline_depth``) are TCP-only — passing one to another
        runtime is an error, never a silent no-op, whether it arrives
        as a keyword here or inside ``flow``.  ``timeout`` (60 s by
        default) bounds the whole run, every shard of it.  ``faults``
        address stage serials of one linear fleet, so a sharded
        pipeline rejects them.

        ``flight`` switches on the flight recorder fleet-wide: a
        directory path (full-payload capture there) or a
        ``(directory, mode)`` pair with mode ``"full"`` or
        ``"digest"``.  Every stage records its frames to rotating
        segment files under per-stage subdirectories; load them with
        :func:`repro.obs.flight.load_flight_dir`, inspect with
        ``eden-flight``, and re-execute with ``eden-flight --replay``
        (full mode only).  TCP-only.

        Every run returns a :class:`~repro.api.GraphResult`; a sharded
        run's per-shard outputs are ``result.branch_outputs["shards"]``.
        """
        return _run_program(
            self._program(), self.source, runtime, name="pipeline",
            hosted=self.placement == "hosted", broker=self.broker,
            flow=flow, batch=batch, credit_window=credit_window,
            lookahead=lookahead, placement=placement, timeout=timeout,
            max_restarts=max_restarts, faults=faults, resume=resume,
            io_timeout=io_timeout, trace=trace, workdir=workdir, codec=codec,
            pipeline_depth=pipeline_depth, flight=flight,
        )
