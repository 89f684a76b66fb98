"""Validated dataflow graphs: the paper's streams beyond the line.

Claim C3 proves fan-in and fan-out are symmetric under the asymmetric
discipline, and that *channel identifiers* restore fan-out where the
naive read-only scheme loses it.  This module makes that result usable:
a :class:`Graph` is a DAG of stage specs whose edges carry per-edge
knobs (discipline, batch, lookahead, codec, channel id), built fluently
with :class:`GraphBuilder` combinators —

- ``chain(...)`` — the linear pipeline (the degenerate DAG);
- ``scatter(*branches, policy=...)`` — partition the stream across
  parallel branches (``"hash"`` — the stable content hash shards use —
  or ``"round_robin"``);
- ``broadcast(*branches)`` — copy the whole stream to every branch;
- ``gather()`` — close a parallel block, concatenating branch outputs
  in branch (channel-id) order;
- ``merge()`` — close a parallel block, interleaving branch outputs
  round-robin (one record per live branch per round, deterministic).

Validation is *eager*: cycles, dangling edges, duplicate node names,
fan-out without channel identifiers, discipline mismatches inside one
segment, and unsatisfiable buffer bounds all raise
:class:`GraphError` — with a positioned message naming the node or
edge — at build time, never at run time.  A validated graph compiles
to a :class:`GraphProgram` of linear and parallel segments that
:mod:`repro.api.execute` runs on any of the three runtimes, and whose
per-edge invocation costs :func:`repro.analysis.cost_model.
predict_graph_invocations` predicts exactly.

Graphs of pure ``"module:factory"`` stage specs serialize to a JSON
spec (:meth:`Graph.to_spec` / :meth:`Graph.from_spec`) so the same
graph object can cross a process boundary, exactly as linear pipeline
specs already do.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Iterator, Mapping, Sequence

from repro.transput.filterbase import Transducer
from repro.transput.flow import FlowPolicy, shard_of
from repro.transput.pipeline import DISCIPLINES

__all__ = [
    "Graph",
    "GraphBuilder",
    "GraphEdge",
    "GraphError",
    "GraphNode",
    "GraphProgram",
    "LinearSegment",
    "ParallelSegment",
    "JOIN_OPS",
    "NODE_KINDS",
    "SCATTER_POLICIES",
    "SPLIT_OPS",
]

#: The kinds a graph node can be.
NODE_KINDS = ("source", "stage", "split", "join", "sink")
#: Fan-out flavours a split node can carry.
SPLIT_OPS = ("scatter", "broadcast")
#: Fan-in flavours a join node can carry.
JOIN_OPS = ("gather", "merge")
#: How a scatter split routes records to branches.
SCATTER_POLICIES = ("hash", "round_robin")

#: Edge knobs that only the TCP runtime can honour (enforced uniformly
#: with the facade's ``_TCP_ONLY`` run knobs).
EDGE_TCP_ONLY = ("codec",)


class GraphError(ValueError):
    """An invalid graph, rejected at build time.

    ``where`` positions the failure — ``"node 'x'"``, ``"edge a->b"``
    or ``"segment 'seg-1'"`` — and is prefixed to the message so the
    offending element is always named.
    """

    def __init__(self, message: str, where: str | None = None) -> None:
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def check_stage_spec(stage: Any, where: str | None = None) -> None:
    """A stage is a Transducer, a ``'module:factory'`` string, or a
    ``(spec, args)`` pair — the same vocabulary the facade accepts."""
    if isinstance(stage, Transducer):
        return
    if isinstance(stage, str):
        if ":" not in stage:
            raise GraphError(
                f"stage spec must be 'module:factory', got {stage!r}", where
            )
        return
    if (isinstance(stage, (tuple, list)) and len(stage) == 2
            and isinstance(stage[0], str)):
        return
    raise GraphError(
        f"each stage must be a Transducer, a 'module:factory' spec, or "
        f"a (spec, args) pair; got {stage!r}", where
    )


@dataclass(frozen=True)
class GraphNode:
    """One vertex: the source, the sink, a stage, or a split/join.

    ``spec`` (stage nodes) is a transducer spec; ``op`` distinguishes
    scatter/broadcast on splits and gather/merge on joins; ``policy``
    is the scatter routing policy.
    """

    name: str
    kind: str
    spec: Any = None
    op: str | None = None
    policy: str | None = None

    def check(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise GraphError(f"node name must be a non-empty string, "
                             f"got {self.name!r}")
        where = f"node {self.name!r}"
        if self.kind not in NODE_KINDS:
            raise GraphError(
                f"kind must be one of {NODE_KINDS}, got {self.kind!r}", where
            )
        if self.kind == "stage":
            check_stage_spec(self.spec, where)
        elif self.spec is not None:
            raise GraphError(
                f"only stage nodes carry a spec, got kind {self.kind!r}", where
            )
        if self.kind == "split":
            if self.op not in SPLIT_OPS:
                raise GraphError(
                    f"split op must be one of {SPLIT_OPS}, got {self.op!r}",
                    where,
                )
            if self.op == "scatter" and self.policy not in SCATTER_POLICIES:
                raise GraphError(
                    f"scatter policy must be one of {SCATTER_POLICIES}, "
                    f"got {self.policy!r}", where,
                )
        elif self.kind == "join":
            if self.op not in JOIN_OPS:
                raise GraphError(
                    f"join op must be one of {JOIN_OPS}, got {self.op!r}",
                    where,
                )
        elif self.op is not None:
            raise GraphError(
                f"only split/join nodes carry an op, got kind {self.kind!r}",
                where,
            )


@dataclass(frozen=True)
class GraphEdge:
    """One directed stream between two nodes, with per-edge knobs.

    Every knob is optional; ``None`` inherits the graph default (its
    ``discipline`` / ``flow`` policy).  ``channel`` is the C3 channel
    identifier distinguishing a split's out-edges; ``codec`` is
    TCP-only (rejected eagerly on the other runtimes, same as the
    facade's ``_TCP_ONLY`` knobs).
    """

    src: str
    dst: str
    discipline: str | None = None
    batch: int | None = None
    lookahead: int | None = None
    credit_window: int | None = None
    buffer_capacity: int | None = None
    codec: str | None = None
    channel: int | None = None

    @property
    def where(self) -> str:
        return f"edge {self.src}->{self.dst}"

    def check(self) -> None:
        if self.discipline is not None and self.discipline not in DISCIPLINES:
            raise GraphError(
                f"discipline must be one of {DISCIPLINES}, "
                f"got {self.discipline!r}", self.where,
            )
        for knob, floor in (("batch", 1), ("lookahead", 0),
                            ("credit_window", 1), ("buffer_capacity", 1),
                            ("channel", 0)):
            value = getattr(self, knob)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < floor:
                raise GraphError(
                    f"{knob} must be an integer >= {floor}, got {value!r}",
                    self.where,
                )
        if self.codec is not None:
            from repro.net.framing import CODECS

            if self.codec not in CODECS:
                raise GraphError(
                    f"codec must be one of {sorted(CODECS)}, "
                    f"got {self.codec!r}", self.where,
                )

    def knobs(self) -> dict[str, Any]:
        """The explicitly-set per-edge knobs, by name."""
        return {
            name: getattr(self, name)
            for name in ("discipline", "batch", "lookahead", "credit_window",
                         "buffer_capacity", "codec", "channel")
            if getattr(self, name) is not None
        }


@dataclass
class LinearSegment:
    """A maximal linear run: boundary-to-boundary stages and edges.

    ``specs`` are the stage specs in order (possibly empty — a bare
    boundary-to-boundary hop); ``edges`` are the ``len(specs) + 1``
    graph edges the run covers; the resolved ``discipline`` / ``flow``
    / ``codec`` apply to every hop (validation enforced they agree).
    """

    name: str
    discipline: str
    specs: list[Any]
    edges: list[GraphEdge]
    flow: FlowPolicy
    codec: str | None = None

    @property
    def hops(self) -> int:
        return len(self.edges)


@dataclass
class ParallelSegment:
    """A split/join block: N parallel linear branches between them.

    ``op`` is the split flavour, ``policy`` its scatter routing,
    ``join`` the fan-in flavour; ``branches`` are in channel-id order.
    """

    name: str
    op: str
    policy: str | None
    join: str
    branches: list[LinearSegment]


@dataclass
class GraphProgram:
    """A validated graph compiled to an executable segment sequence."""

    segments: list[LinearSegment | ParallelSegment]

    def linear_only(self) -> bool:
        return all(isinstance(seg, LinearSegment) for seg in self.segments)

    def iter_segments(self) -> Iterator[LinearSegment]:
        """Every linear segment, branches included, in execution order."""
        for segment in self.segments:
            if isinstance(segment, LinearSegment):
                yield segment
            else:
                yield from segment.branches


class Graph:
    """A validated dataflow DAG, runnable on all three runtimes.

    Args:
        nodes: the vertices (exactly one ``source`` and one ``sink``).
        edges: the directed streams between them.
        source: the records the source node streams (finite; the TCP
            runtime additionally needs them JSON-encodable).
        discipline: default edge discipline (per-edge overrides
            allowed, segment-uniform).
        flow: default :class:`FlowPolicy` (per-edge knobs override).
        name: for error messages and result labels.

    Validation runs in the constructor — an invalid topology never
    yields a Graph object.  Most callers build via
    :class:`GraphBuilder` or :meth:`Graph.linear` rather than spelling
    nodes and edges out.
    """

    def __init__(
        self,
        nodes: Sequence[GraphNode],
        edges: Sequence[GraphEdge],
        source: Sequence[Any] | None = None,
        discipline: str = "readonly",
        flow: FlowPolicy | None = None,
        name: str = "graph",
    ) -> None:
        if discipline not in DISCIPLINES:
            raise GraphError(
                f"discipline must be one of {DISCIPLINES}, got {discipline!r}"
            )
        if source is None:
            raise GraphError("source is required (a finite record sequence)")
        self.name = name
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.source = list(source)
        self.discipline = discipline
        self.flow = flow or FlowPolicy()
        self.program = self._validate()

    # -- construction shortcuts ---------------------------------------------

    @classmethod
    def linear(
        cls,
        stages: Sequence[Any],
        source: Sequence[Any] | None = None,
        discipline: str = "readonly",
        flow: FlowPolicy | None = None,
        name: str = "graph",
    ) -> "Graph":
        """The degenerate single-path DAG — what ``Pipeline`` compiles to."""
        builder = GraphBuilder(source=source, discipline=discipline,
                               flow=flow, name=name)
        builder.chain(*stages)
        return builder.build()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> GraphProgram:
        by_name: dict[str, GraphNode] = {}
        for node in self.nodes:
            node.check()
            if node.name in by_name:
                raise GraphError("duplicate node name",
                                 f"node {node.name!r}")
            by_name[node.name] = node

        outs: dict[str, list[GraphEdge]] = {n: [] for n in by_name}
        ins: dict[str, list[GraphEdge]] = {n: [] for n in by_name}
        for edge in self.edges:
            edge.check()
            for end in (edge.src, edge.dst):
                if end not in by_name:
                    raise GraphError(
                        f"unknown node {end!r} (dangling edge)", edge.where
                    )
            outs[edge.src].append(edge)
            ins[edge.dst].append(edge)

        sources = [n for n in self.nodes if n.kind == "source"]
        sinks = [n for n in self.nodes if n.kind == "sink"]
        if len(sources) != 1:
            raise GraphError(
                f"a graph needs exactly one source node, got {len(sources)}"
            )
        if len(sinks) != 1:
            raise GraphError(
                f"a graph needs exactly one sink node, got {len(sinks)}"
            )
        self._check_degrees(by_name, outs, ins)
        self._check_acyclic(by_name, outs)
        self._check_reachable(sources[0], sinks[0], outs, ins)
        program = self._compile(sources[0], sinks[0], by_name, outs)
        self._check_segments(program)
        return program

    def _check_degrees(self, by_name, outs, ins) -> None:
        for node in self.nodes:
            where = f"node {node.name!r}"
            n_out, n_in = len(outs[node.name]), len(ins[node.name])
            if node.kind == "source":
                if n_in:
                    raise GraphError("the source cannot have in-edges", where)
                if n_out != 1:
                    raise GraphError(
                        f"the source needs exactly one out-edge (wrap "
                        f"fan-out in a split node), got {n_out}", where,
                    )
            elif node.kind == "sink":
                if n_out:
                    raise GraphError("the sink cannot have out-edges", where)
                if n_in != 1:
                    raise GraphError(
                        f"the sink needs exactly one in-edge (close "
                        f"fan-in with a join node), got {n_in}", where,
                    )
            elif node.kind == "stage":
                if n_in != 1:
                    raise GraphError(
                        f"fan-in at a stage needs a join node "
                        f"(gather/merge), got {n_in} in-edges", where,
                    )
                if n_out > 1:
                    channels = [e.channel for e in outs[node.name]]
                    if any(c is None for c in channels):
                        raise GraphError(
                            "fan-out under the readonly discipline needs "
                            "channel identifiers (paper claim C3): every "
                            "out-edge must carry a distinct channel=, or "
                            "use a scatter/broadcast split node, which "
                            "assigns them", where,
                        )
                    raise GraphError(
                        "multi-channel stage fan-out does not execute "
                        "directly; route it through a scatter/broadcast "
                        "split node (same channel-id semantics)", where,
                    )
                if n_out != 1:
                    raise GraphError("a stage needs exactly one out-edge "
                                     "(dangling port)", where)
            elif node.kind == "split":
                if n_in != 1:
                    raise GraphError(
                        f"a split needs exactly one in-edge, got {n_in}",
                        where,
                    )
                if n_out < 2:
                    raise GraphError(
                        f"a split needs at least 2 out-edges "
                        f"(branches), got {n_out}", where,
                    )
                channels = [e.channel for e in outs[node.name]]
                explicit = [c for c in channels if c is not None]
                if explicit and len(explicit) != len(channels):
                    raise GraphError(
                        "either give every split out-edge a channel id "
                        "or none (auto-assigned positionally)", where,
                    )
                if len(set(explicit)) != len(explicit):
                    dupes = sorted({c for c in explicit
                                    if explicit.count(c) > 1})
                    raise GraphError(
                        f"duplicate channel id(s) {dupes} on split "
                        f"out-edges — channel identifiers must be "
                        f"distinct to restore fan-out (C3)", where,
                    )
            elif node.kind == "join":
                if n_in < 2:
                    raise GraphError(
                        f"a join needs at least 2 in-edges, got {n_in}",
                        where,
                    )
                if n_out != 1:
                    raise GraphError(
                        f"a join needs exactly one out-edge, got {n_out}",
                        where,
                    )

    def _check_acyclic(self, by_name, outs) -> None:
        indegree = {name: 0 for name in by_name}
        for edge in self.edges:
            indegree[edge.dst] += 1
        ready = [name for name, d in indegree.items() if d == 0]
        seen = 0
        while ready:
            name = ready.pop()
            seen += 1
            for edge in outs[name]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if seen != len(by_name):
            cycle = self._find_cycle(by_name, outs)
            raise GraphError(
                "cycle: " + " -> ".join(cycle) + " (streams flow one way; "
                "a feedback loop needs its own pipeline)"
            )

    def _find_cycle(self, by_name, outs) -> list[str]:
        state: dict[str, int] = {}
        stack: list[str] = []

        def visit(name: str) -> list[str] | None:
            state[name] = 1
            stack.append(name)
            for edge in outs[name]:
                if state.get(edge.dst, 0) == 1:
                    return stack[stack.index(edge.dst):] + [edge.dst]
                if state.get(edge.dst, 0) == 0:
                    found = visit(edge.dst)
                    if found:
                        return found
            stack.pop()
            state[name] = 2
            return None

        for name in by_name:
            if state.get(name, 0) == 0:
                found = visit(name)
                if found:
                    return found
        return ["<unlocated>"]  # pragma: no cover — only on logic error

    def _check_reachable(self, source, sink, outs, ins) -> None:
        def flood(start: str, adjacency) -> set[str]:
            seen = {start}
            frontier = [start]
            while frontier:
                for edge in adjacency[frontier.pop()]:
                    nxt = edge.dst if adjacency is outs else edge.src
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return seen

        forward = flood(source.name, outs)
        backward = flood(sink.name, ins)
        for node in self.nodes:
            if node.name not in forward:
                raise GraphError(
                    "unreachable from the source (dangling port)",
                    f"node {node.name!r}",
                )
            if node.name not in backward:
                raise GraphError(
                    "cannot reach the sink (dangling port)",
                    f"node {node.name!r}",
                )

    # -- structure compilation ----------------------------------------------

    def _compile(self, source, sink, by_name, outs) -> GraphProgram:
        """Walk source -> sink, cutting the DAG into segments.

        The executable shape is a sequence of linear runs and
        split/join blocks whose branches are themselves linear; a
        branch running into another split is a *nested* block, which
        is rejected here — at build time — rather than failing in
        whichever runtime first tried to schedule it.
        """
        segments: list[LinearSegment | ParallelSegment] = []
        counter = 0

        def branch_ordered(split: GraphNode) -> list[GraphEdge]:
            branch_edges = outs[split.name]
            if all(e.channel is not None for e in branch_edges):
                return sorted(branch_edges, key=lambda e: e.channel)
            return list(branch_edges)

        def walk_linear(edge: GraphEdge, label: str) -> tuple[
                list[Any], list[GraphEdge], GraphNode]:
            """Follow stage nodes from ``edge`` to the next boundary."""
            specs: list[Any] = []
            edges = [edge]
            node = by_name[edge.dst]
            while node.kind == "stage":
                specs.append(node.spec)
                edge = outs[node.name][0]
                edges.append(edge)
                node = by_name[edge.dst]
            return specs, edges, node

        cursor = outs[source.name][0]
        while True:
            specs, edges, boundary = walk_linear(
                cursor, f"seg-{counter}")
            segments.append(self._linear_segment(
                f"seg-{counter}", specs, edges))
            counter += 1
            if boundary.kind == "sink":
                break
            if boundary.kind == "join":
                raise GraphError(
                    "join without a matching split on this path",
                    f"node {boundary.name!r}",
                )
            # boundary is a split: walk each branch to a common join.
            branches: list[LinearSegment] = []
            join_node: GraphNode | None = None
            for index, branch_edge in enumerate(branch_ordered(boundary)):
                b_specs, b_edges, b_end = walk_linear(
                    branch_edge, f"{boundary.name}.b{index}")
                if b_end.kind == "split":
                    raise GraphError(
                        f"nested parallel blocks are not supported: close "
                        f"split {boundary.name!r} with a gather/merge "
                        f"before opening {b_end.name!r}",
                        f"node {b_end.name!r}",
                    )
                if b_end.kind != "join":
                    raise GraphError(
                        f"branch {index} of split {boundary.name!r} "
                        f"reaches {b_end.kind} {b_end.name!r} without a "
                        f"join (gather/merge)", f"node {boundary.name!r}",
                    )
                if join_node is None:
                    join_node = b_end
                elif b_end.name != join_node.name:
                    raise GraphError(
                        f"branches of split {boundary.name!r} reconverge "
                        f"at different joins ({join_node.name!r} vs "
                        f"{b_end.name!r})", f"node {boundary.name!r}",
                    )
                branches.append(self._linear_segment(
                    f"{boundary.name}.b{index}", b_specs, b_edges))
            assert join_node is not None
            segments.append(ParallelSegment(
                name=boundary.name,
                op=boundary.op or "scatter",
                policy=boundary.policy,
                join=join_node.op or "gather",
                branches=branches,
            ))
            cursor = outs[join_node.name][0]
        return GraphProgram(segments=segments)

    def _linear_segment(self, name: str, specs: list[Any],
                        edges: list[GraphEdge]) -> LinearSegment:
        """Resolve one segment's edge knobs, enforcing agreement."""
        where = f"segment {name!r}"

        def resolve(knob: str, default: Any) -> Any:
            chosen: Any = None
            chosen_edge: GraphEdge | None = None
            for edge in edges:
                value = getattr(edge, knob)
                if value is None:
                    continue
                if chosen is None:
                    chosen, chosen_edge = value, edge
                elif value != chosen:
                    raise GraphError(
                        f"{knob} mismatch: {chosen_edge.where} says "
                        f"{chosen!r} but {edge.where} says {value!r} — "
                        f"edges of one segment share a wire; split the "
                        f"chain with scatter/gather to vary {knob}",
                        where,
                    )
            return default if chosen is None else chosen

        discipline = resolve("discipline", self.discipline)
        flow = self.flow
        overrides = {
            knob: value for knob in
            ("batch", "lookahead", "credit_window", "buffer_capacity")
            if (value := resolve(knob, None)) is not None
        }
        if overrides:
            flow = dataclasses.replace(flow, **overrides)
        return LinearSegment(
            name=name,
            discipline=discipline,
            specs=specs,
            edges=edges,
            flow=flow,
            codec=resolve("codec", None),
        )

    def _check_segments(self, program: GraphProgram) -> None:
        """Cross-knob feasibility: reject unsatisfiable configurations."""
        for segment in program.iter_segments():
            where = f"segment {segment.name!r}"
            flow = segment.flow
            if segment.discipline == "conventional" and \
                    flow.buffer_capacity is not None and \
                    flow.buffer_capacity < flow.batch:
                raise GraphError(
                    f"unsatisfiable buffer bound: conventional pipes of "
                    f"capacity {flow.buffer_capacity} can never hold one "
                    f"batch of {flow.batch} — raise buffer_capacity or "
                    f"shrink batch", where,
                )
            if segment.discipline != "conventional" and \
                    any(e.buffer_capacity is not None for e in segment.edges):
                raise GraphError(
                    "buffer_capacity is a conventional-discipline knob "
                    "(asymmetric edges have no passive buffer)", where,
                )

    # -- topology helpers ----------------------------------------------------

    def tcp_only_edge_knobs(self) -> dict[str, list[str]]:
        """Which TCP-only knobs appear on which edges (for eager
        rejection when the run targets sim/aio)."""
        found: dict[str, list[str]] = {}
        for edge in self.edges:
            for knob in EDGE_TCP_ONLY:
                if getattr(edge, knob) is not None:
                    found.setdefault(knob, []).append(edge.where)
        return found

    def edge_flow(self, records: Sequence[Any] | None = None) \
            -> list[tuple[GraphEdge, "LinearSegment", int]]:
        """How many records cross each edge, assuming record-preserving
        stages (the C1/C2 accounting assumption).

        Scatter bucket sizes are computed by actually routing the
        records (hash partitions are data-dependent); broadcast copies
        the full count to every branch.  Returns ``(edge, segment,
        record_count)`` triples in execution order — the input
        :func:`repro.analysis.cost_model.predict_graph_invocations`
        turns into per-edge invocation predictions.
        """
        records = self.source if records is None else list(records)
        flows: list[tuple[GraphEdge, LinearSegment, int]] = []
        count_in: list[Any] | int = list(records)

        def as_count(value: list[Any] | int) -> int:
            return value if isinstance(value, int) else len(value)

        for segment in self.program.segments:
            if isinstance(segment, LinearSegment):
                for edge in segment.edges:
                    flows.append((edge, segment, as_count(count_in)))
                continue
            # A parallel block: route the concrete records (hash needs
            # their content), then sum branch outputs for the join.
            items = (count_in if isinstance(count_in, list)
                     else list(range(count_in)))
            buckets = partition_records(items, segment.op, segment.policy,
                                        len(segment.branches))
            total = 0
            for branch, bucket in zip(segment.branches, buckets):
                for edge in branch.edges:
                    flows.append((edge, branch, len(bucket)))
                total += len(bucket)
            count_in = total
        return flows

    # -- serialization -------------------------------------------------------

    def to_spec(self) -> dict[str, Any]:
        """A JSON-portable spec; the inverse of :meth:`from_spec`.

        Graphs holding built ``Transducer`` instances do not serialize
        (same boundary as the TCP runtime): express stages as
        ``'module:factory'`` specs to cross process boundaries.
        """
        nodes = []
        for node in self.nodes:
            if isinstance(node.spec, Transducer):
                raise GraphError(
                    "a built Transducer does not serialize; give a "
                    "'module:factory' spec", f"node {node.name!r}",
                )
            entry: dict[str, Any] = {"name": node.name, "kind": node.kind}
            if node.spec is not None:
                spec = node.spec
                entry["spec"] = (spec if isinstance(spec, str)
                                 else [spec[0], list(spec[1])])
            if node.op is not None:
                entry["op"] = node.op
            if node.policy is not None:
                entry["policy"] = node.policy
            nodes.append(entry)
        edges = []
        for edge in self.edges:
            entry = {"src": edge.src, "dst": edge.dst}
            entry.update(edge.knobs())
            edges.append(entry)
        flow = {
            f.name: getattr(self.flow, f.name)
            for f in dataclasses.fields(self.flow)
            if getattr(self.flow, f.name) != f.default
        }
        return {
            "name": self.name,
            "discipline": self.discipline,
            "source": list(self.source),
            "flow": flow,
            "nodes": nodes,
            "edges": edges,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "Graph":
        """Rebuild (and re-validate) a graph from :meth:`to_spec` output."""
        try:
            nodes = [
                GraphNode(
                    name=entry["name"],
                    kind=entry["kind"],
                    spec=(tuple([entry["spec"][0], tuple(entry["spec"][1])])
                          if isinstance(entry.get("spec"), (list, tuple))
                          else entry.get("spec")),
                    op=entry.get("op"),
                    policy=entry.get("policy"),
                )
                for entry in spec["nodes"]
            ]
            edges = [GraphEdge(**entry) for entry in spec["edges"]]
            flow = FlowPolicy(**spec.get("flow", {}))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph spec: {exc}") from exc
        return cls(
            nodes=nodes,
            edges=edges,
            source=spec.get("source"),
            discipline=spec.get("discipline", "readonly"),
            flow=flow,
            name=spec.get("name", "graph"),
        )

    # -- running -------------------------------------------------------------

    def run(self, runtime: str = "sim", **knobs: Any) -> Any:
        """Execute on ``runtime`` (``"sim"``/``"aio"``/``"tcp"``) and
        return a :class:`repro.api.execute.GraphResult`.

        Accepts the facade's harmonised knob vocabulary; TCP-only
        knobs are rejected eagerly on the other runtimes — see
        :func:`repro.api.execute.run_graph`.
        """
        from repro.api.execute import run_graph

        return run_graph(self, runtime, **knobs)

    def predict_invocations(self, records: Sequence[Any] | None = None):
        """Per-edge C1/C2 predictions — convenience for
        :func:`repro.analysis.cost_model.predict_graph_invocations`."""
        from repro.analysis.cost_model import predict_graph_invocations

        return predict_graph_invocations(self, records)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"Graph({self.name!r}, nodes={len(self.nodes)}, "
                f"edges={len(self.edges)}, discipline={self.discipline!r})")


# ---------------------------------------------------------------------------
# Stream routing: how splits and joins move records.  The executors on
# all three runtimes route through the same :class:`Router`, which is
# what makes "identical output on sim, aio, and tcp" hold for
# non-linear graphs.
# ---------------------------------------------------------------------------


class Router:
    """One boundary between segments, routing records as they arrive.

    Records come in on ``inlets`` streams (the branches of the block
    before the boundary, or one stream) and are fanned in by ``join``:
    ``"gather"`` lets inlet ``k`` flow once every inlet before it has
    ended, buffering the later ones; ``"merge"`` hands on round-robin
    layers — one record per inlet still holding one — as soon as every
    inlet still open has filled the layer.  The joined stream goes out
    to ``outlets`` by ``op``: ``"broadcast"`` copies it to every outlet
    (one outlet is the plain hand-off), ``"scatter"`` partitions it by
    ``policy`` — the stable content hash sharded fleets use, or
    ``"round_robin"`` with a running index.  An outlet is anything with
    ``extend(records)`` and ``end()``, called once every inlet ended.

    Whatever order the inlets fill in, the outlets receive the records
    a whole-list join and split would give, in the same order.
    ``logs`` keeps every record each inlet brought (a block's branch
    outputs) where they are read back: with several inlets, or a merge.
    A single-inlet gather hands each push straight on and keeps none
    (``logs`` is empty).
    """

    def __init__(self, inlets: int, join: str, op: str, policy: str | None,
                 outlets: Sequence[Any]) -> None:
        self.logs: list[list[Any]] = (
            [[] for _ in range(inlets)] if inlets > 1 or join == "merge"
            else [])
        self._ended = [False] * inlets
        self._join = join
        self._op = op
        self._policy = policy
        self._outlets = list(outlets)
        #: gather: the inlet flowing now; merge: the layers handed on.
        self._at = 0
        #: round_robin: the outlet the next record goes to.
        self._next = 0

    def push(self, inlet: int, records: Sequence[Any]) -> None:
        """Inlet ``inlet`` brought ``records``."""
        if self.logs:
            self.logs[inlet].extend(records)
        if self._join == "gather":
            if inlet == self._at:
                self._emit(records)
        else:
            self._layers()

    def end(self, inlet: int) -> None:
        """Inlet ``inlet`` has ended."""
        self._ended[inlet] = True
        if self._join == "gather":
            # The next open inlet flows, with what it buffered so far.
            inlets = len(self._ended)
            while self._at < inlets and self._ended[self._at]:
                self._at += 1
                if self._at < inlets:
                    self._emit(self.logs[self._at])
            if self._at == inlets:
                self._close()
        elif self._layers():
            self._close()

    def _layers(self) -> bool:
        """Hand on every merge layer that is full; True once all are."""
        logs, ended = self.logs, self._ended
        filling = [len(log) for log, done in zip(logs, ended) if not done]
        upto = min(filling) if filling else max(map(len, logs))
        if upto > self._at:
            gap = object()  # what zip_longest pads a short inlet with
            self._emit([
                record for layer in zip_longest(
                    *(log[self._at:upto] for log in logs), fillvalue=gap)
                for record in layer if record is not gap])
            self._at = upto
        return not filling

    def _emit(self, records: Sequence[Any]) -> None:
        if not records:
            return
        outlets = self._outlets
        if self._op == "broadcast":
            for outlet in outlets:
                outlet.extend(records)
            return
        count = len(outlets)
        if self._policy == "round_robin":
            start = self._next
            self._next = (start + len(records)) % count
            buckets = [records[(index - start) % count::count]
                       for index in range(count)]
        else:  # "hash" — the stable content hash the sharded fleets use.
            buckets = [[] for _ in outlets]
            for record in records:
                buckets[shard_of(record, count)].append(record)
        for outlet, bucket in zip(outlets, buckets):
            if bucket:
                outlet.extend(bucket)

    def _close(self) -> None:
        for outlet in self._outlets:
            outlet.end()


class _Records(list):
    """A plain record list as a :class:`Router` outlet."""

    def end(self) -> None:
        """Nothing waits on a list."""


def partition_records(records: Sequence[Any], op: str, policy: str | None,
                      branches: int) -> list[list[Any]]:
    """Route records to branches: scatter partitions, broadcast copies."""
    buckets = [_Records() for _ in range(branches)]
    router = Router(1, "gather", op, policy, buckets)
    router.push(0, records)
    router.end(0)
    return buckets


def join_records(branch_outputs: Sequence[Sequence[Any]], op: str) \
        -> list[Any]:
    """Fan the branch outputs back in: gather concatenates in branch
    (channel-id) order; merge interleaves round-robin, one record per
    live branch per round — both deterministic."""
    joined = _Records()
    router = Router(len(branch_outputs), op, "broadcast", None, [joined])
    for inlet, records in enumerate(branch_outputs):
        router.push(inlet, records)
    for inlet in range(len(branch_outputs)):
        router.end(inlet)
    return joined


# ---------------------------------------------------------------------------
# The fluent builder.
# ---------------------------------------------------------------------------


class GraphBuilder:
    """Build a :class:`Graph` fluently from combinators.

    ::

        graph = (GraphBuilder(source=records, discipline="readonly")
                 .chain("repro.filters:strip_whitespace")
                 .scatter(["repro.filters:upper_case"],
                          ["repro.filters:lower_case"], policy="hash")
                 .gather()
                 .chain("repro.transput:identity_transducer")
                 .build())

    ``chain`` appends linear stages; ``scatter``/``broadcast`` open a
    parallel block whose branches are linear stage lists; ``gather``/
    ``merge`` close it.  Keyword knobs on any combinator land on the
    edges that call creates (``batch=``, ``discipline=``, ...).
    ``build()`` validates and returns the immutable Graph.
    """

    def __init__(
        self,
        source: Sequence[Any] | None = None,
        discipline: str = "readonly",
        flow: FlowPolicy | None = None,
        name: str = "graph",
    ) -> None:
        self._source = source
        self._discipline = discipline
        self._flow = flow
        self._name = name
        self._nodes: list[GraphNode] = [GraphNode("source", "source")]
        self._edges: list[GraphEdge] = []
        self._tail = "source"       # node awaiting its out-edge
        self._stage_count = 0
        self._block_count = 0
        self._pending: dict[str, Any] | None = None  # open parallel block

    # -- combinators --------------------------------------------------------

    def chain(self, *stages: Any, **edge_knobs: Any) -> "GraphBuilder":
        """Append linear stages (the degenerate combinator)."""
        self._no_open_block("chain()")
        for stage in stages:
            name = self._stage_name()
            self._nodes.append(GraphNode(name, "stage", spec=stage))
            self._edges.append(GraphEdge(self._tail, name, **edge_knobs))
            self._tail = name
        return self

    def scatter(self, *branches: Sequence[Any], policy: str = "hash",
                **edge_knobs: Any) -> "GraphBuilder":
        """Open a parallel block partitioning the stream across
        ``branches`` (each a linear list of stage specs)."""
        return self._split("scatter", branches, policy, edge_knobs)

    def broadcast(self, *branches: Sequence[Any],
                  **edge_knobs: Any) -> "GraphBuilder":
        """Open a parallel block copying the stream to every branch."""
        return self._split("broadcast", branches, None, edge_knobs)

    def gather(self, **edge_knobs: Any) -> "GraphBuilder":
        """Close the open block, concatenating branches in channel order."""
        return self._join("gather", edge_knobs)

    def merge(self, **edge_knobs: Any) -> "GraphBuilder":
        """Close the open block, interleaving branches round-robin."""
        return self._join("merge", edge_knobs)

    def build(self) -> Graph:
        """Validate and freeze.  The builder stays reusable afterwards
        only for reading; call sites should treat it as consumed."""
        if self._pending is not None:
            raise GraphError(
                f"unclosed {self._pending['op']}: close the parallel "
                f"block with gather() or merge() before build()",
                f"node {self._pending['split']!r}",
            )
        nodes = self._nodes + [GraphNode("sink", "sink")]
        edges = self._edges + [GraphEdge(self._tail, "sink")]
        return Graph(
            nodes=nodes,
            edges=edges,
            source=self._source,
            discipline=self._discipline,
            flow=self._flow,
            name=self._name,
        )

    # -- plumbing -----------------------------------------------------------

    def _stage_name(self) -> str:
        self._stage_count += 1
        return f"stage-{self._stage_count}"

    def _no_open_block(self, what: str) -> None:
        if self._pending is not None:
            raise GraphError(
                f"{what} inside an open {self._pending['op']} block: "
                f"close it with gather() or merge() first",
                f"node {self._pending['split']!r}",
            )

    def _split(self, op: str, branches: Sequence[Sequence[Any]],
               policy: str | None, edge_knobs: dict[str, Any]) \
            -> "GraphBuilder":
        self._no_open_block(f"{op}()")
        if len(branches) < 2:
            raise GraphError(
                f"{op}() needs at least 2 branches, got {len(branches)}"
            )
        self._block_count += 1
        split_name = f"{op}-{self._block_count}"
        self._nodes.append(GraphNode(split_name, "split", op=op,
                                     policy=policy))
        self._edges.append(GraphEdge(self._tail, split_name))
        branch_tails: list[str] = []
        for channel, branch in enumerate(branches):
            tail = split_name
            first = True
            for stage in branch:
                name = self._stage_name()
                self._nodes.append(GraphNode(name, "stage", spec=stage))
                knobs = dict(edge_knobs)
                if first:
                    knobs["channel"] = channel
                self._edges.append(GraphEdge(tail, name, **knobs))
                tail = name
                first = False
            branch_tails.append(tail)
        self._pending = {
            "op": op,
            "split": split_name,
            "tails": branch_tails,
            "channels_pending": [index for index, branch
                                 in enumerate(branches) if not list(branch)],
            "edge_knobs": dict(edge_knobs),
        }
        return self

    def _join(self, op: str, edge_knobs: dict[str, Any]) -> "GraphBuilder":
        if self._pending is None:
            raise GraphError(
                f"{op}() without a preceding scatter()/broadcast()"
            )
        self._block_count += 1
        join_name = f"{op}-{self._block_count}"
        self._nodes.append(GraphNode(join_name, "join", op=op))
        empty_channels = set(self._pending["channels_pending"])
        for channel, tail in enumerate(self._pending["tails"]):
            knobs = dict(self._pending["edge_knobs"])
            knobs.update(edge_knobs)
            # An empty branch is a single split->join edge; it carries
            # the channel id that would have gone on its first hop.
            if channel not in empty_channels:
                knobs.pop("channel", None)
                self._edges.append(GraphEdge(tail, join_name, **edge_knobs))
            else:
                knobs["channel"] = channel
                self._edges.append(GraphEdge(tail, join_name, **knobs))
        self._pending = None
        self._tail = join_name
        return self
