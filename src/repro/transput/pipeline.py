"""Pipeline builders: wiring filters together in each discipline.

"The interconnexion of the elements of the pipeline is easily
accomplished in Eden" (paper §4).  These builders do the
interconnecting for all three disciplines over the *same* transducers,
which is what makes the cost comparisons of experiments T1/T2/T3/T8
meaningful:

- :func:`compose_readonly_pipeline` — Figure 2: source, n filters,
  sink; ``n + 2`` Ejects, no buffers.
- :func:`compose_writeonly_pipeline` — the §5 dual.
- :func:`compose_conventional_pipeline` — Figure 1: both-active
  filters with a passive buffer between every adjacent pair;
  ``2n + 3`` Ejects.

Each builder returns a :class:`Pipeline` handle that runs the
simulation to completion and reports the measured costs.
(Runtime-independent callers want :class:`repro.api.Pipeline`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, TYPE_CHECKING

from repro.core.errors import SchedulerDeadlockError
from repro.core.node import Node
from repro.core.stats import StatsSnapshot
from repro.transput.buffer import PassiveBuffer
from repro.transput.conventional import ConventionalFilter
from repro.transput.filterbase import (
    ReportingTransducer,
    Transducer,
    as_reporting,
)
from repro.transput.flow import FlowPolicy
from repro.transput.readonly import ReadOnlyFilter
from repro.transput.sink import ActiveSink, CollectorSink, PassiveSink
from repro.transput.source import ActiveSource, ListSource, PassiveSource
from repro.transput.stream import StreamEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel

#: The disciplines a pipeline can be built in.
DISCIPLINES = ("readonly", "writeonly", "conventional")


@dataclass
class Pipeline:
    """A built pipeline, ready to run.

    Attributes:
        discipline: one of :data:`DISCIPLINES`.
        source: the producing Eject.
        filters: the filter Ejects, upstream to downstream.
        buffers: passive buffer Ejects (conventional discipline only).
        sinks: the consuming Ejects (usually one).
    """

    kernel: "Kernel"
    discipline: str
    source: Any
    filters: list = field(default_factory=list)
    buffers: list = field(default_factory=list)
    sinks: list = field(default_factory=list)
    completion_stats: StatsSnapshot | None = None
    virtual_makespan: float | None = None

    @property
    def sink(self) -> Any:
        """The (first) sink Eject."""
        return self.sinks[0]

    @property
    def ejects(self) -> list:
        """Every Eject in the pipeline, source first."""
        return [self.source, *self.filters, *self.buffers, *self.sinks]

    def eject_count(self) -> int:
        """Total Ejects — the paper's C1/C2 size metric."""
        return len(self.ejects)

    def buffer_count(self) -> int:
        """Passive buffer Ejects — 0 for read-only, n+1 conventionally."""
        return len(self.buffers)

    def run_to_completion(self, max_steps: int | None = 10_000_000) -> list:
        """Run until every sink is done and the simulation quiesces.

        Returns the primary sink's collected records.  Measured costs
        (invocations, switches, makespan) cover the whole run and are
        available afterwards via :meth:`invocations_used` etc.

        Raises:
            SchedulerDeadlockError: see :func:`run_until_done`.
        """
        self.completion_stats, self.virtual_makespan = run_until_done(
            self.kernel, self.sinks, max_steps
        )
        return list(self.sink.collected)

    def _completed(self) -> StatsSnapshot:
        if self.completion_stats is None:
            raise RuntimeError("run_to_completion() has not been called")
        return self.completion_stats

    def invocations_used(self) -> int:
        """Invocation messages sent during the run."""
        return self._completed()["invocations_sent"]

    def context_switches(self) -> int:
        """Process switches during the run."""
        return self._completed()["context_switches"]

    def invocations_per_datum(self, item_count: int) -> float:
        """Average invocations to move one record end-to-end."""
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        return self.invocations_used() / item_count


def run_until_done(
    kernel: "Kernel", sinks: Iterable[Any], max_steps: int | None = 10_000_000
) -> tuple[StatsSnapshot, float]:
    """Run ``kernel`` to quiescence and require every sink finished.

    A sink signals completion itself, by raising its ``done`` flag; the
    flag is read once, when nothing in the simulation can move any
    more, instead of being polled between steps.  ``sinks`` may span
    several pipelines composed into the one kernel.

    Returns the counters and the virtual time the run consumed.

    Raises:
        SchedulerDeadlockError: the simulation quiesced with a sink
            still incomplete (e.g. a wiring cycle) — failing loudly,
            naming the stuck processes, beats silently returning a
            truncated stream.
    """
    start = kernel.stats.snapshot()
    start_time = kernel.clock.now
    kernel.run(max_steps=max_steps)
    unfinished = [sink.name for sink in sinks if not sink.done]
    if unfinished:
        stuck = "; ".join(
            f"{process.name} blocked on {process.blocked_reason}"
            for process in kernel.scheduler.stuck_processes()
        )
        raise SchedulerDeadlockError(
            f"simulation quiesced before {', '.join(unfinished)} finished"
            + (f" ({stuck})" if stuck else "")
        )
    return kernel.stats.snapshot().diff(start), kernel.clock.now - start_time


def _forwarded_channel(transducer: Transducer | ReportingTransducer) -> str:
    """The channel of ``transducer`` a pipeline carries downstream.

    The first it names: the one an unqualified Read of a read-only
    filter gets, and so, for the same pipeline in the other two
    disciplines, the one a filter writes on to the next stage.
    """
    return as_reporting(transducer).channels[0]


def _resolve_source(
    kernel: "Kernel",
    source: Any,
    work_cost: float,
    channel_mode: str,
    node: Node | str | None,
) -> tuple[Any, StreamEndpoint]:
    """Accept items / a source Eject / an endpoint; return (eject, endpoint)."""
    if isinstance(source, StreamEndpoint):
        return None, source
    if isinstance(source, PassiveSource):
        return source, source.output_endpoint()
    if isinstance(source, ReadOnlyFilter):
        return source, source.output_endpoint()
    eject = kernel.create(
        ListSource,
        items=list(source),
        work_cost=work_cost,
        channel_mode=channel_mode,
        node=node,
    )
    return eject, eject.output_endpoint()


class _Placer:
    """Assigns nodes to pipeline stages.

    ``placement`` may be ``None`` (everything on the default node),
    ``"spread"`` (stage i on its own node ``pipe-i``), or an explicit
    sequence of node names cycled over the stages.
    """

    def __init__(self, kernel: "Kernel", placement: Any) -> None:
        self._kernel = kernel
        self._placement = placement
        self._index = 0

    def next(self) -> Node | str | None:
        if self._placement is None:
            return None
        if self._placement == "spread":
            node = f"pipe-{self._index}"
        else:
            names = list(self._placement)
            node = names[self._index % len(names)]
        self._index += 1
        return node


def compose_readonly_pipeline(
    kernel: "Kernel",
    source: Any,
    transducers: Sequence[Transducer | ReportingTransducer],
    sink_cls: type[ActiveSink] = CollectorSink,
    flow: FlowPolicy | None = None,
    channel_mode: str = "open",
    placement: Any = None,
    source_work_cost: float = 0.0,
    sink_work_cost: float = 0.0,
) -> Pipeline:
    """Figure 2: the read-only pipeline — no buffers, n + 2 Ejects.

    ``source`` may be a list of records, an existing passive source /
    read-only filter, or a raw :class:`StreamEndpoint`.
    """
    flow = flow or FlowPolicy()
    placer = _Placer(kernel, placement)
    source_eject, upstream = _resolve_source(
        kernel, source, source_work_cost, channel_mode, placer.next()
    )
    filters: list[ReadOnlyFilter] = []
    for transducer in transducers:
        stage = kernel.create(
            ReadOnlyFilter,
            transducer=transducer,
            inputs=[upstream],
            lookahead=flow.lookahead,
            batch_in=flow.batch,
            channel_mode=channel_mode,
            node=placer.next(),
        )
        filters.append(stage)
        upstream = stage.output_endpoint()
    sink = kernel.create(
        sink_cls,
        inputs=[upstream],
        batch=flow.batch,
        work_cost=sink_work_cost,
        node=placer.next(),
    )
    return Pipeline(
        kernel=kernel,
        discipline="readonly",
        source=source_eject,
        filters=filters,
        sinks=[sink],
    )


def compose_writeonly_pipeline(
    kernel: "Kernel",
    items: Iterable[Any],
    transducers: Sequence[Transducer | ReportingTransducer],
    sink_cls: type[PassiveSink] = PassiveSink,
    flow: FlowPolicy | None = None,
    placement: Any = None,
    source_work_cost: float = 0.0,
    sink_work_cost: float = 0.0,
) -> Pipeline:
    """The §5 dual: active source pushes, filters push, passive sink.

    Built sink-first because each stage must know its output endpoint
    at initialisation (the dual of the read-only scheme, where each
    stage must know its *input*).
    """
    from repro.transput.writeonly import WriteOnlyFilter

    flow = flow or FlowPolicy()
    placer = _Placer(kernel, placement)
    source_node = placer.next()
    filter_nodes = [placer.next() for _ in transducers]
    sink = kernel.create(
        sink_cls, work_cost=sink_work_cost, node=placer.next()
    )
    downstream = StreamEndpoint(sink.uid, None)
    filters: list[WriteOnlyFilter] = []
    for transducer, node in zip(reversed(list(transducers)), reversed(filter_nodes)):
        stage = kernel.create(
            WriteOnlyFilter,
            transducer=transducer,
            outputs={_forwarded_channel(transducer): [downstream]},
            inbox_capacity=flow.inbox_capacity,
            batch_out=flow.batch,
            node=node,
        )
        filters.append(stage)
        downstream = StreamEndpoint(stage.uid, None)
    filters.reverse()
    source = kernel.create(
        ActiveSource,
        items=list(items),
        outputs=[downstream],
        batch=flow.batch,
        work_cost=source_work_cost,
        node=source_node,
    )
    return Pipeline(
        kernel=kernel,
        discipline="writeonly",
        source=source,
        filters=filters,
        sinks=[sink],
    )


def compose_conventional_pipeline(
    kernel: "Kernel",
    items: Iterable[Any],
    transducers: Sequence[Transducer | ReportingTransducer],
    sink_cls: type[ActiveSink] = CollectorSink,
    flow: FlowPolicy | None = None,
    placement: Any = None,
    source_work_cost: float = 0.0,
    sink_work_cost: float = 0.0,
) -> Pipeline:
    """Figure 1: both-active filters with a pipe between every pair.

    n filters need n + 1 passive buffers (one after the source, one
    between each pair, one before the sink): 2n + 3 Ejects total and
    2n + 2 invocations per datum — the paper's baseline.
    """
    flow = flow or FlowPolicy()
    placer = _Placer(kernel, placement)
    transducers = list(transducers)
    source_node = placer.next()
    filter_nodes = [placer.next() for _ in transducers]
    sink_node = placer.next()

    buffers = [
        kernel.create(
            PassiveBuffer,
            capacity=flow.buffer_capacity,
            name=f"pipe-{index}",
            # Pipes live with their downstream consumer, as Unix pipes
            # live in the kernel of the reading process's machine.
            node=filter_nodes[index] if index < len(transducers) else sink_node,
        )
        for index in range(len(transducers) + 1)
    ]
    filters = [
        kernel.create(
            ConventionalFilter,
            transducer=transducer,
            inputs=[StreamEndpoint(buffers[index].uid, None)],
            outputs={_forwarded_channel(transducer):
                     [StreamEndpoint(buffers[index + 1].uid, None)]},
            batch=flow.batch,
            node=filter_nodes[index],
        )
        for index, transducer in enumerate(transducers)
    ]
    source = kernel.create(
        ActiveSource,
        items=list(items),
        outputs=[StreamEndpoint(buffers[0].uid, None)],
        batch=flow.batch,
        work_cost=source_work_cost,
        node=source_node,
    )
    sink = kernel.create(
        sink_cls,
        inputs=[StreamEndpoint(buffers[-1].uid, None)],
        batch=flow.batch,
        work_cost=sink_work_cost,
        node=sink_node,
    )
    return Pipeline(
        kernel=kernel,
        discipline="conventional",
        source=source,
        filters=filters,
        buffers=buffers,
        sinks=[sink],
    )


def compose_segment(
    kernel: "Kernel",
    discipline: str,
    items: Iterable[Any],
    transducers: Sequence[Transducer | ReportingTransducer],
    flow: FlowPolicy | None = None,
    placement: Any = None,
    source_work_cost: float = 0.0,
    sink_work_cost: float = 0.0,
) -> Pipeline:
    """Build one linear pipeline in any discipline (by name).

    This is the simulator building block :mod:`repro.api` runs graphs
    with: one call per pipeline (a linear segment, or one branch of a
    parallel block), every pipeline of a segment composed into the
    segment's one kernel.  Front-door callers want
    :class:`repro.api.Pipeline` or :class:`repro.api.GraphBuilder`.
    """
    if discipline == "readonly":
        return compose_readonly_pipeline(
            kernel, list(items), transducers, flow=flow, placement=placement,
            source_work_cost=source_work_cost, sink_work_cost=sink_work_cost,
        )
    if discipline == "writeonly":
        return compose_writeonly_pipeline(
            kernel, items, transducers, flow=flow, placement=placement,
            source_work_cost=source_work_cost, sink_work_cost=sink_work_cost,
        )
    if discipline == "conventional":
        return compose_conventional_pipeline(
            kernel, items, transducers, flow=flow, placement=placement,
            source_work_cost=source_work_cost, sink_work_cost=sink_work_cost,
        )
    raise ValueError(f"discipline must be one of {DISCIPLINES}, got {discipline!r}")

