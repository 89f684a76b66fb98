"""Pipeline builders: equivalence across disciplines and exact costs."""

import pytest

from repro.core import Kernel, TransportCosts
from repro.transput import (
    FlowPolicy,
    compose_conventional_pipeline,
    compose_segment,
    compose_readonly_pipeline,
    compose_writeonly_pipeline,
    compose_apply,
)
from repro.filters import (
    comment_stripper,
    fanout,
    sort_lines,
    upper_case,
    word_count,
)

ITEMS = [
    "C header", "  alpha  ", "beta", "C note", "gamma", "delta", "C end",
]


def fresh_transducers():
    return [comment_stripper("C"), upper_case(), sort_lines()]


class TestEquivalence:
    @pytest.mark.parametrize("discipline", ["readonly", "writeonly",
                                            "conventional"])
    def test_matches_functional_reference(self, discipline):
        kernel = Kernel()
        pipeline = compose_segment(kernel, discipline, ITEMS, fresh_transducers())
        output = pipeline.run_to_completion()
        assert output == compose_apply(fresh_transducers(), ITEMS)

    @pytest.mark.parametrize("discipline", ["readonly", "writeonly",
                                            "conventional"])
    def test_stateful_finish_only_filter(self, discipline):
        kernel = Kernel()
        pipeline = compose_segment(kernel, discipline, ITEMS, [word_count()])
        output = pipeline.run_to_completion()
        assert len(output) == 1
        assert output[0].lines == len(ITEMS)

    @pytest.mark.parametrize("discipline", ["readonly", "writeonly",
                                            "conventional"])
    def test_a_transducer_without_an_output_channel_keeps_its_records(
            self, discipline):
        """``fanout(2)`` writes on ``out0`` and ``out1`` only; every
        discipline carries its first channel on, as a read-only
        pipeline's unqualified Read does."""
        pipeline = compose_segment(Kernel(), discipline, ["a", "b"],
                                   [fanout(2)])
        assert pipeline.run_to_completion() == ["a", "b"]

    def test_empty_input(self):
        for discipline in ("readonly", "writeonly", "conventional"):
            kernel = Kernel()
            pipeline = compose_segment(kernel, discipline, [], [upper_case()])
            assert pipeline.run_to_completion() == []

    def test_zero_filters(self):
        for discipline in ("readonly", "writeonly", "conventional"):
            kernel = Kernel()
            pipeline = compose_segment(kernel, discipline, [1, 2, 3], [])
            assert pipeline.run_to_completion() == [1, 2, 3]


class TestShapeClaims:
    def test_readonly_has_no_buffers(self):
        kernel = Kernel()
        pipeline = compose_readonly_pipeline(kernel, ITEMS, fresh_transducers())
        assert pipeline.buffer_count() == 0
        assert pipeline.eject_count() == 3 + 2  # n + 2

    def test_conventional_buffer_count(self):
        kernel = Kernel()
        pipeline = compose_conventional_pipeline(kernel, ITEMS, fresh_transducers())
        assert pipeline.buffer_count() == 4  # n + 1
        assert pipeline.eject_count() == 2 * 3 + 3  # 2n + 3

    def test_writeonly_matches_readonly_shape(self):
        kernel = Kernel()
        pipeline = compose_writeonly_pipeline(kernel, ITEMS, fresh_transducers())
        assert pipeline.buffer_count() == 0
        assert pipeline.eject_count() == 5

    def test_invocation_halving(self):
        """The headline claim: ~half the invocations (paper §4)."""
        results = {}
        for discipline in ("readonly", "conventional"):
            kernel = Kernel()
            pipeline = compose_segment(
                kernel, discipline, [f"i{k}" for k in range(30)],
                [upper_case(), upper_case(), upper_case()],
            )
            pipeline.run_to_completion()
            results[discipline] = pipeline.invocations_used()
        assert results["readonly"] * 2 == results["conventional"]


class TestFlowPolicies:
    def test_batching_cuts_invocations(self):
        counts = {}
        for batch in (1, 4):
            kernel = Kernel()
            pipeline = compose_readonly_pipeline(
                kernel, [f"i{k}" for k in range(32)], [upper_case()],
                flow=FlowPolicy(batch=batch),
            )
            pipeline.run_to_completion()
            counts[batch] = pipeline.invocations_used()
        assert counts[4] < counts[1] / 3

    def test_lookahead_same_results(self):
        for lookahead in (0, 1, 3, 16):
            kernel = Kernel()
            pipeline = compose_readonly_pipeline(
                kernel, ITEMS, fresh_transducers(),
                flow=FlowPolicy(lookahead=lookahead),
            )
            assert pipeline.run_to_completion() == compose_apply(
                fresh_transducers(), ITEMS
            )

    def test_lookahead_restores_parallelism(self):
        """§4: anticipatory buffering lets all Ejects run concurrently."""

        def makespan(lookahead):
            kernel = Kernel()
            transducers = []
            for _ in range(3):
                transducer = upper_case()
                transducer.cost_per_item = 4.0
                transducers.append(transducer)
            pipeline = compose_readonly_pipeline(
                kernel, [f"i{k}" for k in range(20)], transducers,
                flow=FlowPolicy(lookahead=lookahead),
            )
            pipeline.run_to_completion()
            return pipeline.virtual_makespan

        lazy, eager = makespan(0), makespan(8)
        assert eager < lazy / 1.5

    def test_flow_policy_validation(self):
        with pytest.raises(ValueError):
            FlowPolicy(lookahead=-1)
        with pytest.raises(ValueError):
            FlowPolicy(batch=0)
        with pytest.raises(ValueError):
            FlowPolicy(buffer_capacity=0)
        with pytest.raises(ValueError):
            FlowPolicy(inbox_capacity=0)
        assert FlowPolicy.lazy().lookahead == 0
        assert FlowPolicy.eager().lookahead == 8
        assert FlowPolicy().with_batch(4).batch == 4


class TestPlacement:
    def test_spread_uses_distinct_nodes(self):
        kernel = Kernel()
        pipeline = compose_readonly_pipeline(
            kernel, ITEMS, fresh_transducers(), placement="spread"
        )
        nodes = {eject.node.name for eject in pipeline.ejects}
        assert len(nodes) == pipeline.eject_count()

    def test_explicit_node_list_cycles(self):
        kernel = Kernel()
        pipeline = compose_readonly_pipeline(
            kernel, ITEMS, fresh_transducers(), placement=["vaxA", "vaxB"]
        )
        nodes = {eject.node.name for eject in pipeline.ejects}
        assert nodes == {"vaxA", "vaxB"}

    def test_remote_hops_cost_more(self):
        def makespan(placement):
            kernel = Kernel(costs=TransportCosts(local_latency=1.0,
                                                 remote_latency=20.0))
            pipeline = compose_readonly_pipeline(
                kernel, ITEMS, fresh_transducers(), placement=placement
            )
            pipeline.run_to_completion()
            return pipeline.virtual_makespan

        assert makespan("spread") > 4 * makespan(None)


class TestErrors:
    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            compose_segment(Kernel(), "psychic", [1], [])

    def test_stats_require_run(self):
        pipeline = compose_readonly_pipeline(Kernel(), [1], [])
        with pytest.raises(RuntimeError):
            pipeline.invocations_used()

    def test_invocations_per_datum(self):
        kernel = Kernel()
        pipeline = compose_readonly_pipeline(
            kernel, [f"i{k}" for k in range(10)], [upper_case()]
        )
        pipeline.run_to_completion()
        per_datum = pipeline.invocations_per_datum(10)
        assert 2.0 <= per_datum <= 2.5  # n+1 = 2 plus END overhead
        with pytest.raises(ValueError):
            pipeline.invocations_per_datum(0)
