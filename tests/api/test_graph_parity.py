"""Non-linear graphs: identical output and predicted costs, three runtimes.

The acceptance bar for the graph redesign: a diamond (scatter/gather)
and a broadcast/merge topology must produce the *identical* records on
the simulator, on asyncio and on the TCP fleet, and every runtime's
measured invocation total must equal the sum of the per-edge C1/C2
predictions from :func:`repro.analysis.predict_graph_invocations`.
The TCP run is additionally audited by ``eden-trace --verify-once``
per sub-fleet, so exactly-once holds link by link, not just end to
end.  The knob-rejection tests pin the uniform enforcement story:
TCP-only knobs raise the same eager ``ValueError`` whether they arrive
as ``run()`` keywords, per-edge codec settings, or smuggled inside a
``FlowPolicy``.
"""

import pytest

from repro.aio.streams import reference
from repro.analysis import predict_edge_invocations, predict_graph_invocations
from repro.api import GraphBuilder, GraphResult, run_graph
from repro.transput import FlowPolicy, identity_transducer

IDENTITY = "repro.transput:identity_transducer"
UPPER = "repro.filters:upper_case"
ITEMS = [f"line-{i:02d}" for i in range(8)]


def diamond(policy="round_robin", source=ITEMS):
    """chain -> scatter over two identity branches -> gather -> chain."""
    return (GraphBuilder(source=source, discipline="readonly", name="diamond")
            .chain(IDENTITY)
            .scatter([IDENTITY], [IDENTITY], policy=policy)
            .gather()
            .chain(IDENTITY)
            .build())


def fan(source=ITEMS):
    """broadcast both branches the whole stream, merge round-robin."""
    return (GraphBuilder(source=source, discipline="readonly", name="fan")
            .broadcast([UPPER], [IDENTITY])
            .merge()
            .build())


def predicted_total(graph):
    return sum(p.invocations for p in predict_graph_invocations(graph))


class TestPredictions:
    """The analytic model, before any runtime measures anything."""

    def test_edge_cost_is_ceil_plus_end(self):
        assert predict_edge_invocations("readonly", 8) == 9
        assert predict_edge_invocations("readonly", 8, batch=4) == 3
        assert predict_edge_invocations("writeonly", 0) == 1  # END alone
        assert predict_edge_invocations("conventional", 8) == 18  # both sides

    def test_diamond_prediction_is_per_edge(self):
        # 8 edges: two carry 8 records into the split, four carry the
        # 4+4 round-robin halves, two carry the joined 8 out.
        predictions = predict_graph_invocations(diamond())
        assert len(predictions) == 8
        assert {p.records for p in predictions} == {8, 4}
        assert predicted_total(diamond()) == 4 * 9 + 4 * 5

    def test_broadcast_copies_the_full_count(self):
        predictions = predict_graph_invocations(fan())
        branch = [p for p in predictions if p.segment.endswith(("b0", "b1"))]
        assert all(p.records == len(ITEMS) for p in branch)

    def test_hash_buckets_follow_the_data(self):
        graph = diamond(policy="hash")
        per_branch = [p.records for p in predict_graph_invocations(graph)
                      if p.segment.endswith(("b0", "b1"))]
        assert sum(per_branch) == 2 * len(ITEMS)  # each branch: 2 edges


class TestInProcessParity:
    """sim == aio == analytic prediction, topology by topology."""

    @pytest.mark.parametrize("policy", ["round_robin", "hash"])
    def test_diamond(self, policy):
        graph = diamond(policy=policy)
        sim = graph.run(runtime="sim")
        aio = graph.run(runtime="aio")
        assert sim.output == aio.output
        assert sorted(sim.output) == sorted(ITEMS)
        assert sim.invocations == aio.invocations == predicted_total(graph)
        assert sim.segment_invocations == aio.segment_invocations
        assert set(sim.segment_invocations) == {"seg-0", "scatter-1", "seg-1"}

    def test_broadcast_merge(self):
        graph = fan()
        sim = graph.run(runtime="sim")
        aio = graph.run(runtime="aio")
        assert sim.output == aio.output
        assert len(sim.output) == 2 * len(ITEMS)
        assert sorted(sim.output) == sorted(
            [line.upper() for line in ITEMS] + ITEMS)
        assert sim.invocations == aio.invocations == predicted_total(graph)

    def test_merge_interleaves_round_robin(self):
        # Two full copies, merged one record per branch per round.
        output = fan().run(runtime="sim").output
        assert output[:4] == [ITEMS[0].upper(), ITEMS[0],
                              ITEMS[1].upper(), ITEMS[1]]

    def test_gather_concatenates_in_channel_order(self):
        graph = diamond(policy="round_robin")
        result = graph.run(runtime="sim")
        halves = result.branch_outputs["scatter-1"]
        assert halves == [ITEMS[0::2], ITEMS[1::2]]
        # gather = branch 0 then branch 1, then the tail chain keeps order
        assert result.output == ITEMS[0::2] + ITEMS[1::2]

    def test_batch_knob_scales_per_edge_costs(self):
        graph = (GraphBuilder(source=ITEMS, discipline="readonly",
                              flow=FlowPolicy(batch=4))
                 .chain(IDENTITY)
                 .scatter([IDENTITY], [IDENTITY], policy="round_robin")
                 .gather()
                 .build())
        expected = predicted_total(graph)
        assert expected == 3 * 3 + 4 * 2  # ceil(8/4)+1 and ceil(4/4)+1
        assert graph.run(runtime="sim").invocations == expected
        assert graph.run(runtime="aio").invocations == expected

    def test_result_shape(self):
        result = diamond().run(runtime="sim")
        assert isinstance(result, GraphResult)
        assert result.runtime == "sim"
        assert result.graph == "diamond"
        assert result.restarts == 0
        assert result.stats["counters"]["invocations_sent"] \
            == result.invocations


class TestTcpParity:
    """The same topologies as real OS processes over TCP."""

    def test_diamond_matches_sim_and_prediction(self, tmp_path):
        graph = diamond(policy="round_robin")
        sim = graph.run(runtime="sim")
        # resume=True makes receivers record sequence numbers — the
        # evidence --verify-once audits.
        tcp = graph.run(runtime="tcp", workdir=str(tmp_path), trace=True,
                        resume=True)
        assert tcp.output == sim.output
        assert tcp.invocations == sim.invocations == predicted_total(graph)
        assert tcp.segment_invocations == sim.segment_invocations
        assert tcp.restarts == 0

        # eden-trace audits every sub-fleet: each link of each segment
        # carried its records exactly once.
        from repro.obs.trace_cli import main

        for fleet, expected in [
            ("seg-0", len(ITEMS)),
            ("scatter-1/branch-0", len(ITEMS) // 2),
            ("scatter-1/branch-1", len(ITEMS) // 2),
            ("seg-1", len(ITEMS)),
        ]:
            code = main(["--fleet", str(tmp_path / fleet / "fleet.json"),
                         "--verify-once", str(expected)])
            assert code == 0, f"exactly-once violated in {fleet}"

    def test_broadcast_merge_matches_sim(self, tmp_path):
        graph = fan()
        sim = graph.run(runtime="sim")
        tcp = graph.run(runtime="tcp", workdir=str(tmp_path))
        assert tcp.output == sim.output
        assert tcp.invocations == sim.invocations == predicted_total(graph)
        assert tcp.branch_outputs == sim.branch_outputs


class TestWriteonlyBatchParity:
    """A Write invocation carries ``batch`` records on every runtime.

    The push-side mirror of the pull law (one READ answered by one DATA
    of up to ``batch`` records): one WRITE of up to ``batch`` records,
    one ACK, hop after hop — on the write-only discipline and on the
    write side of every conventional pipe.  Before the write-only
    filter forwarded whole transfers and the default credit window
    covered one invocation, aio and tcp counted 329 and 404 where the
    sim and the cost model count 104; aio's conventional filter wrote
    one record per WRITE until it reused that filter (66 where the
    others count 36 at batch 4).
    """

    @pytest.mark.parametrize("discipline", ["writeonly", "conventional"])
    @pytest.mark.parametrize("batch, records, expected", [
        (1, 10, 44),
        (4, 100, 104),   # the acceptance probe: 4 hops x (25 + END)
        (4, 101, 108),   # a short last batch
        (32, 100, 20),
    ])
    def test_identity_chain_counts_match_the_model(self, batch, records,
                                                   expected, discipline,
                                                   tmp_path):
        # ``expected`` is the write-only count; a conventional hop moves
        # each transfer twice, a WRITE into its pipe and a READ out.
        expected *= 2 if discipline == "conventional" else 1
        items = [f"r{i:03d}" for i in range(records)]
        graph = (GraphBuilder(source=items, discipline=discipline,
                              flow=FlowPolicy(batch=batch))
                 .chain(IDENTITY).chain(IDENTITY).chain(IDENTITY)
                 .build())
        assert predicted_total(graph) == expected
        wanted = reference([identity_transducer()] * 3, items)
        for runtime in ("sim", "aio", "tcp"):
            result = graph.run(runtime=runtime, **(
                {"workdir": str(tmp_path)} if runtime == "tcp" else {}))
            assert result.output == wanted, runtime
            assert result.invocations == expected, runtime

    def test_explicit_window_of_one_still_writes_per_record(self, tmp_path):
        """The user's explicit ``credit_window`` wins over the batch:
        every hop's receiver grants one record, so the source's one
        8-record write is cut into per-record WRITE frames."""
        graph = (GraphBuilder(source=ITEMS, discipline="writeonly",
                              flow=FlowPolicy(batch=32, credit_window=1))
                 .chain(IDENTITY)
                 .build())
        result = graph.run(runtime="tcp", workdir=str(tmp_path))
        assert result.output == ITEMS
        assert result.invocations == 2 * (len(ITEMS) + 1)


class TestReadonlyLookaheadParity:
    """``lookahead`` buffers on every runtime; it never pipelines READs.

    A read-only filter keeps ``lookahead`` records ready with one READ
    in flight, so the counts stay the model's.  While ``lookahead=k``
    also meant ``pipeline_depth=k`` on TCP, each hop had k − 1 READs on
    the wire at END, each answered END and counted: TCP read 3 096 /
    285 / 774 on these rows.
    """

    @pytest.mark.parametrize("lookahead, batch, expected", [
        (32, 1, 3003),   # 3 hops x (1000 + END)
        (32, 16, 192),   # 3 hops x (63 + END)
        (8, 4, 753),     # 3 hops x (250 + END)
    ])
    def test_identity_chain_counts_match_the_model(self, lookahead, batch,
                                                   expected, tmp_path):
        items = [f"r{i:04d}" for i in range(1000)]
        graph = (GraphBuilder(source=items, discipline="readonly",
                              flow=FlowPolicy(lookahead=lookahead, batch=batch))
                 .chain(IDENTITY).chain(IDENTITY)
                 .build())
        assert predicted_total(graph) == expected
        for runtime in ("sim", "aio", "tcp"):
            result = graph.run(runtime=runtime, **(
                {"workdir": str(tmp_path)} if runtime == "tcp" else {}))
            assert result.output == items, runtime
            assert result.invocations == expected, runtime


class TestKnobRejection:
    """TCP-only knobs fail eagerly and identically on sim and aio."""

    @pytest.mark.parametrize("runtime", ["sim", "aio"])
    @pytest.mark.parametrize("knob", [
        {"timeout": 5.0}, {"max_restarts": 1}, {"resume": True},
        {"io_timeout": 1.0}, {"trace": True}, {"workdir": "/tmp/x"},
        {"codec": "json"}, {"pipeline_depth": 2}, {"flight": "/tmp/flight"},
    ])
    def test_run_knobs_need_the_fleet(self, runtime, knob):
        with pytest.raises(ValueError, match="need the supervised fleet"):
            diamond().run(runtime=runtime, **knob)

    @pytest.mark.parametrize("runtime", ["sim", "aio"])
    def test_per_edge_codec_needs_the_fleet(self, runtime):
        graph = (GraphBuilder(source=ITEMS)
                 .chain(IDENTITY, codec="binary")
                 .build())
        with pytest.raises(ValueError,
                           match=r"edge knob\(s\) need the supervised fleet "
                                 r"\(codec on edge"):
            graph.run(runtime=runtime)

    @pytest.mark.parametrize("runtime", ["sim", "aio"])
    @pytest.mark.parametrize("policy", [FlowPolicy(pipeline_depth=2)])
    def test_flow_policy_cannot_smuggle_tcp_knobs(self, runtime, policy):
        with pytest.raises(ValueError,
                           match=r"FlowPolicy knob\(s\) .* need the "
                                 r"supervised fleet"):
            diamond().run(runtime=runtime, flow=policy)

    def test_faults_only_address_one_linear_fleet(self, tmp_path):
        with pytest.raises(ValueError, match="only purely linear graphs"):
            diamond().run(runtime="tcp", workdir=str(tmp_path),
                          faults={1: "kill"})

    def test_placement_is_simulator_only(self):
        with pytest.raises(ValueError, match="simulator-only"):
            diamond().run(runtime="aio", placement=object())

    def test_unknown_runtime(self):
        with pytest.raises(ValueError, match="runtime must be one of"):
            run_graph(diamond(), "quantum")

    def test_tcp_rejects_built_transducers_with_segment_name(self, tmp_path):
        from repro.transput import identity_transducer

        graph = GraphBuilder(source=ITEMS).chain(identity_transducer()).build()
        with pytest.raises(ValueError, match="process boundary"):
            graph.run(runtime="tcp", workdir=str(tmp_path))


class TestSupervisorCounters:
    """One supervised run per graph; ``GraphResult.supervisor`` holds
    its counters, counted once."""

    def test_the_runs_restarts_reach_the_result(self, monkeypatch, tmp_path):
        import repro.net.launch as launch

        supervisors, runs = [], []

        class Supervisor:
            """Relay every pipeline's feed to its sink; report 2
            restarts for the run."""

            def __init__(self, plans, **_knobs):
                supervisors.append(plans)

            def run(self, feeds, forwards):
                runs.append((feeds, forwards))
                # Each pipeline is planned source first, sink last, and
                # after the pipelines it reads from: its feed is whole
                # by the time it is relayed.
                for source, sink in zip(sorted(feeds), sorted(forwards)):
                    assert feeds[source].ended
                    forwards[sink].extend(feeds[source].records)
                    forwards[sink].end()
                return launch.FleetResult(
                    output=[], stats=[],
                    supervisor={"counters": {"restarts": 2}, "gauges": {},
                                "histograms": {}},
                )

        monkeypatch.setattr(launch, "FleetSupervisor", Supervisor)
        result = diamond().run(runtime="tcp", workdir=str(tmp_path))
        assert len(supervisors) == len(runs) == 1  # one run per graph
        feeds, forwards = runs[0]
        # seg-0, two branches, seg-1: a source and a sink each.
        assert len(feeds) == len(forwards) == 4
        assert result.output == ITEMS[0::2] + ITEMS[1::2]
        assert result.branch_outputs == {"scatter-1": [ITEMS[0::2],
                                                       ITEMS[1::2]]}
        assert result.supervisor["counters"]["restarts"] == 2
        assert result.restarts == 2


class TestSimDeadlock:
    """A simulated parallel block that cannot finish fails loudly."""

    def test_stuck_branch_is_named(self, monkeypatch):
        import repro.transput.pipeline as pipeline_module
        from repro.core.errors import SchedulerDeadlockError

        compose = pipeline_module.compose_segment
        composed = []

        def miswire_second_branch(kernel, *args, **kwargs):
            built = compose(kernel, *args, **kwargs)
            composed.append(built)
            if len(composed) == 3:  # seg-0, branch 0, then branch 1
                assert kernel is composed[1].kernel  # one shared kernel
                (stage,) = built.filters
                stage.inputs = [stage.output_endpoint()]  # reads itself
            return built

        monkeypatch.setattr(pipeline_module, "compose_segment",
                            miswire_second_branch)
        with pytest.raises(SchedulerDeadlockError) as raised:
            diamond().run(runtime="sim")
        message = str(raised.value)
        stage, sink = composed[2].filters[0], composed[2].sink
        assert message.startswith(
            f"simulation quiesced before {sink.name} finished ("
        )
        # The other branch finished; only the miswired one is reported.
        assert composed[1].sink.done
        assert composed[1].sink.name not in message
        assert f"{stage.name}/main blocked on call(Read#" in message
        assert f"{sink.name}/main blocked on call(Read#" in message
