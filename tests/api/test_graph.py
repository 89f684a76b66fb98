"""Graph construction: invalid topologies die at build time, positioned.

The redesign's contract is that **no invalid graph object exists** —
cycles, dangling ports, duplicate names, fan-out without channel
identifiers (paper claim C3), discipline mismatches inside one
segment, and unsatisfiable buffer bounds all raise
:class:`~repro.api.GraphError` from ``Graph(...)`` / ``build()``, each
naming the offending node or edge in its message.  The second half
round-trips graphs through the JSON spec (``to_spec``/``from_spec``),
property-style.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    Graph,
    GraphBuilder,
    GraphEdge,
    GraphError,
    GraphNode,
    SCATTER_POLICIES,
)
from repro.api.graph import Router, _Records, join_records
from repro.transput import FlowPolicy, identity_transducer

IDENTITY = "repro.transput:identity_transducer"
UPPER = "repro.filters:upper_case"
ITEMS = [f"record-{i}" for i in range(6)]


def linear(*stage_names):
    """Hand-built source -> stages -> sink node/edge lists."""
    names = ["source", *stage_names, "sink"]
    nodes = [GraphNode("source", "source")]
    nodes += [GraphNode(n, "stage", spec=IDENTITY) for n in stage_names]
    nodes += [GraphNode("sink", "sink")]
    edges = [GraphEdge(a, b) for a, b in zip(names, names[1:])]
    return nodes, edges


class TestBuildTimeRejection:
    """Each invalid topology fails eagerly with a positioned message."""

    def test_cycle_is_rejected_with_its_path(self):
        nodes, edges = linear("a")
        nodes += [GraphNode("x", "stage", spec=IDENTITY),
                  GraphNode("y", "stage", spec=IDENTITY)]
        edges += [GraphEdge("x", "y"), GraphEdge("y", "x")]
        with pytest.raises(GraphError, match=r"cycle: .*->.*streams flow"):
            Graph(nodes=nodes, edges=edges, source=ITEMS)

    def test_dangling_edge_names_the_edge(self):
        nodes, edges = linear("a")
        edges.append(GraphEdge("a", "ghost"))
        with pytest.raises(GraphError,
                           match=r"edge a->ghost: unknown node 'ghost' "
                                 r"\(dangling edge\)"):
            Graph(nodes=nodes, edges=edges, source=ITEMS)

    def test_duplicate_node_name_is_positioned(self):
        nodes, edges = linear("a")
        nodes.append(GraphNode("a", "stage", spec=IDENTITY))
        with pytest.raises(GraphError,
                           match="node 'a': duplicate node name"):
            Graph(nodes=nodes, edges=edges, source=ITEMS)

    def test_stage_with_no_out_edge_is_a_dangling_port(self):
        nodes, edges = linear("a")
        nodes.append(GraphNode("b", "stage", spec=IDENTITY))
        edges.append(GraphEdge("a", "b"))  # b leads nowhere; a fans out
        with pytest.raises(GraphError, match="node"):
            Graph(nodes=nodes, edges=edges, source=ITEMS)

    def test_fan_in_at_the_sink_needs_a_join(self):
        nodes, edges = linear("a")
        nodes.append(GraphNode("b", "stage", spec=IDENTITY))
        edges.append(GraphEdge("b", "sink"))
        with pytest.raises(GraphError,
                           match="node 'sink': the sink needs exactly one "
                                 "in-edge"):
            Graph(nodes=nodes, edges=edges, source=ITEMS)

    def test_readonly_fan_out_without_channels_cites_c3(self):
        """The paper's central asymmetry: naive readonly fan-out is
        ambiguous; channel identifiers restore it (claim C3)."""
        nodes, edges = linear("a")
        nodes += [GraphNode("b", "stage", spec=IDENTITY),
                  GraphNode("c", "stage", spec=IDENTITY),
                  GraphNode("j", "join", op="gather")]
        edges = [GraphEdge("source", "a"),
                 GraphEdge("a", "b"), GraphEdge("a", "c"),  # no channel=
                 GraphEdge("b", "j"), GraphEdge("c", "j"),
                 GraphEdge("j", "sink")]
        with pytest.raises(GraphError,
                           match=r"node 'a': fan-out under the readonly "
                                 r"discipline needs channel identifiers "
                                 r"\(paper claim C3\)"):
            Graph(nodes=nodes, edges=edges, source=ITEMS,
                  discipline="readonly")

    def test_split_channel_ids_must_be_distinct(self):
        nodes = [GraphNode("source", "source"),
                 GraphNode("s", "split", op="scatter", policy="hash"),
                 GraphNode("b0", "stage", spec=IDENTITY),
                 GraphNode("b1", "stage", spec=IDENTITY),
                 GraphNode("j", "join", op="gather"),
                 GraphNode("sink", "sink")]
        edges = [GraphEdge("source", "s"),
                 GraphEdge("s", "b0", channel=0),
                 GraphEdge("s", "b1", channel=0),  # clash
                 GraphEdge("b0", "j"), GraphEdge("b1", "j"),
                 GraphEdge("j", "sink")]
        with pytest.raises(GraphError,
                           match=r"node 's': duplicate channel id\(s\)"):
            Graph(nodes=nodes, edges=edges, source=ITEMS)

    def test_discipline_mismatch_inside_a_segment_names_both_edges(self):
        builder = (GraphBuilder(source=ITEMS)
                   .chain(IDENTITY, discipline="readonly")
                   .chain(IDENTITY, discipline="conventional"))
        with pytest.raises(GraphError,
                           match="discipline mismatch: edge .* says "
                                 "'readonly' but edge .* says "
                                 "'conventional'"):
            builder.build()

    def test_unsatisfiable_buffer_bound(self):
        builder = GraphBuilder(
            source=ITEMS, discipline="conventional",
            flow=FlowPolicy(batch=8, buffer_capacity=4),
        ).chain(IDENTITY)
        with pytest.raises(GraphError,
                           match="unsatisfiable buffer bound: conventional "
                                 "pipes of capacity 4 can never hold one "
                                 "batch of 8"):
            builder.build()

    def test_buffer_capacity_is_conventional_only(self):
        builder = GraphBuilder(source=ITEMS, discipline="readonly").chain(
            IDENTITY, buffer_capacity=32)
        with pytest.raises(GraphError,
                           match="buffer_capacity is a "
                                 "conventional-discipline knob"):
            builder.build()

    def test_nested_parallel_blocks_are_rejected(self):
        nodes = [GraphNode("source", "source"),
                 GraphNode("s1", "split", op="broadcast"),
                 GraphNode("s2", "split", op="broadcast"),
                 GraphNode("a", "stage", spec=IDENTITY),
                 GraphNode("b", "stage", spec=IDENTITY),
                 GraphNode("j2", "join", op="gather"),
                 GraphNode("j1", "join", op="gather"),
                 GraphNode("c", "stage", spec=IDENTITY),
                 GraphNode("sink", "sink")]
        edges = [GraphEdge("source", "s1"),
                 GraphEdge("s1", "s2", channel=0),
                 GraphEdge("s1", "c", channel=1),
                 GraphEdge("s2", "a", channel=0),
                 GraphEdge("s2", "b", channel=1),
                 GraphEdge("a", "j2"), GraphEdge("b", "j2"),
                 GraphEdge("j2", "j1"), GraphEdge("c", "j1"),
                 GraphEdge("j1", "sink")]
        with pytest.raises(GraphError, match="nested parallel blocks"):
            Graph(nodes=nodes, edges=edges, source=ITEMS)

    def test_bad_stage_spec_is_positioned(self):
        with pytest.raises(GraphError,
                           match="stage spec must be 'module:factory'"):
            GraphBuilder(source=ITEMS).chain("no_colon_here").build()

    def test_source_is_required(self):
        with pytest.raises(GraphError, match="source is required"):
            GraphBuilder().chain(IDENTITY).build()


class TestBuilderProtocol:
    """The fluent builder polices its own block structure."""

    def test_unclosed_split_fails_build(self):
        builder = GraphBuilder(source=ITEMS).scatter([IDENTITY], [IDENTITY])
        with pytest.raises(GraphError,
                           match="node 'scatter-1': unclosed scatter"):
            builder.build()

    def test_chain_inside_open_block_is_rejected(self):
        builder = GraphBuilder(source=ITEMS).broadcast([IDENTITY], [])
        with pytest.raises(GraphError,
                           match=r"chain\(\) inside an open broadcast block"):
            builder.chain(IDENTITY)

    def test_join_without_split_is_rejected(self):
        with pytest.raises(GraphError,
                           match=r"gather\(\) without a preceding"):
            GraphBuilder(source=ITEMS).gather()

    def test_split_needs_two_branches(self):
        with pytest.raises(GraphError,
                           match=r"scatter\(\) needs at least 2 branches"):
            GraphBuilder(source=ITEMS).scatter([IDENTITY])

    def test_branch_channels_are_assigned_positionally(self):
        graph = (GraphBuilder(source=ITEMS)
                 .scatter([IDENTITY], [], policy="round_robin")
                 .gather()
                 .build())
        split_out = sorted(
            (edge.channel, edge.src, edge.dst)
            for edge in graph.edges
            if edge.src == "scatter-1"
        )
        assert [channel for channel, _, _ in split_out] == [0, 1]

    def test_empty_graph_is_source_to_sink(self):
        graph = GraphBuilder(source=ITEMS).build()
        assert [n.kind for n in graph.nodes] == ["source", "sink"]
        assert graph.run(runtime="sim").output == ITEMS


# -- serialization round-trip ------------------------------------------------


disciplines = st.sampled_from(("readonly", "writeonly", "conventional"))
stage_lists = st.lists(
    st.sampled_from((IDENTITY, UPPER, ("repro.filters:prepend", ["> "]))),
    min_size=0, max_size=3,
)
records = st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=8)


@st.composite
def graphs(draw):
    discipline = draw(disciplines)
    flow = FlowPolicy(batch=draw(st.integers(1, 4)))
    builder = GraphBuilder(source=draw(records), discipline=discipline,
                           flow=flow, name=draw(st.sampled_from("gh"))
                           ).chain(*draw(stage_lists))
    if draw(st.booleans()):
        op = draw(st.sampled_from(("scatter", "broadcast")))
        branches = draw(st.lists(stage_lists, min_size=2, max_size=3))
        if op == "scatter":
            builder.scatter(*branches,
                            policy=draw(st.sampled_from(SCATTER_POLICIES)))
        else:
            builder.broadcast(*branches)
        getattr(builder, draw(st.sampled_from(("gather", "merge"))))()
        builder.chain(*draw(stage_lists))
    return builder.build()


class TestSpecRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(graph=graphs())
    def test_graph_survives_json_round_trip(self, graph):
        spec = graph.to_spec()
        wire = json.dumps(spec, sort_keys=True)      # JSON-portable
        rebuilt = Graph.from_spec(json.loads(wire))
        assert rebuilt.to_spec() == spec
        assert [(n.name, n.kind, n.op, n.policy) for n in rebuilt.nodes] \
            == [(n.name, n.kind, n.op, n.policy) for n in graph.nodes]
        assert rebuilt.edges == graph.edges
        assert rebuilt.discipline == graph.discipline
        assert rebuilt.flow == graph.flow
        assert list(rebuilt.source) == list(graph.source)

    @settings(max_examples=20, deadline=None)
    @given(graph=graphs())
    def test_rebuilt_graph_runs_identically(self, graph):
        original = graph.run(runtime="sim")
        rebuilt = Graph.from_spec(graph.to_spec()).run(runtime="sim")
        assert rebuilt.output == original.output
        assert rebuilt.invocations == original.invocations

    def test_built_transducers_do_not_serialize(self):
        graph = GraphBuilder(source=ITEMS).chain(identity_transducer()).build()
        with pytest.raises(GraphError, match="does not serialize"):
            graph.to_spec()

    def test_malformed_spec_is_rejected(self):
        with pytest.raises(GraphError, match="malformed graph spec"):
            Graph.from_spec({"nodes": [{"kind": "source"}], "edges": []})

    def test_spec_rejects_invalid_topology_too(self):
        """from_spec re-validates: a tampered spec cannot smuggle in a
        graph that the constructor would reject."""
        spec = (GraphBuilder(source=ITEMS).chain(IDENTITY).build()).to_spec()
        spec["edges"].append({"src": "stage-1", "dst": "ghost"})
        with pytest.raises(GraphError, match="dangling edge"):
            Graph.from_spec(spec)


def reference_interleave(branches):
    """Round ``r`` takes the ``r``-th record of every branch that has
    one, in branch order."""
    merged, depth = [], 0
    while any(depth < len(branch) for branch in branches):
        merged.extend(branch[depth] for branch in branches if depth < len(branch))
        depth += 1
    return merged


class TestMergeJoin:
    @settings(max_examples=200, deadline=None)
    @given(branches=st.lists(st.lists(st.integers(), max_size=12),
                             min_size=2, max_size=5))
    def test_merge_is_the_round_robin_interleave(self, branches):
        assert join_records(branches, "merge") == reference_interleave(branches)


class TestRouterLogs:
    """A router logs records only where it reads them back."""

    def test_a_single_inlet_gather_hands_on_and_keeps_nothing(self):
        outlets = [_Records(), _Records()]
        router = Router(1, "gather", "scatter", "round_robin", outlets)
        router.push(0, ["a", "b", "c"])
        router.push(0, ["d"])
        router.end(0)
        assert outlets == [["a", "c"], ["b", "d"]]
        assert router.logs == []

    def test_several_inlets_keep_each_inlets_records(self):
        joined = _Records()
        router = Router(2, "gather", "broadcast", None, [joined])
        router.push(1, ["later"])  # held back until inlet 0 ends
        router.push(0, ["first"])
        assert joined == ["first"]
        router.end(0)
        router.end(1)
        assert joined == ["first", "later"]
        assert router.logs == [["first"], ["later"]]

    def test_a_merge_keeps_its_layers_even_with_one_inlet(self):
        assert join_records([["x", "y"]], "merge") == ["x", "y"]
