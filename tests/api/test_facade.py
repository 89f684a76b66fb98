"""The repro.api facade: one description, three runtimes, one result.

The parity tests are the API redesign's contract: the same
:class:`~repro.api.Pipeline` must yield the identical records *and* the
identical invocation count — the paper's C1/C2 cost metric — whether it
runs on the simulated kernel, on asyncio coroutines, or as one OS
process per stage over TCP.
"""

import time

import pytest

from repro.analysis import predicted_invocations
from repro.api import DISCIPLINES, RUNTIMES, GraphResult, Pipeline
from repro.filters import comment_stripper, upper_case
from repro.transput import FlowPolicy, identity_transducer

ITEMS = [f"record-{i}" for i in range(8)]
IDENTITY = "repro.transput:identity_transducer"
N_FILTERS = 3


def identity_pipeline(discipline):
    return Pipeline([IDENTITY] * N_FILTERS, discipline=discipline,
                    source=ITEMS)


class TestParityInProcess:
    """sim == aio for every discipline, cheap enough to run always."""

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_output_and_invocations_match(self, discipline):
        pipeline = identity_pipeline(discipline)
        sim = pipeline.run(runtime="sim")
        aio = pipeline.run(runtime="aio")
        assert sim.output == ITEMS
        assert aio.output == ITEMS
        assert sim.invocations == aio.invocations == predicted_invocations(
            discipline, N_FILTERS, len(ITEMS)
        )

    def test_real_filters_match(self):
        deck = ["C comment", "      keep me", "C another", "      and me"]
        pipeline = Pipeline(
            [("repro.filters:comment_stripper", ["C"]),
             "repro.filters:upper_case"],
            discipline="readonly",
            source=deck,
        )
        sim = pipeline.run(runtime="sim")
        aio = pipeline.run(runtime="aio")
        assert sim.output == aio.output == ["      KEEP ME", "      AND ME"]
        assert sim.invocations == aio.invocations

    def test_transducer_instances_allowed_in_process(self):
        pipeline = Pipeline(
            [comment_stripper("C"), upper_case()],
            discipline="writeonly",
            source=["C x", "      y"],
        )
        assert pipeline.run(runtime="sim").output == ["      Y"]

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_batching_parity(self, discipline):
        pipeline = identity_pipeline(discipline)
        sim = pipeline.run(runtime="sim", batch=4)
        aio = pipeline.run(runtime="aio", batch=4)
        assert sim.output == aio.output == ITEMS
        assert sim.invocations == aio.invocations == predicted_invocations(
            discipline, N_FILTERS, len(ITEMS), batch=4
        )

    @pytest.mark.parametrize("batch", [1, 4])
    def test_record_dropping_conventional_parity(self, batch):
        """A filter that drops records writes what it kept as one
        transfer.  Comments fill whole batches here, so each transfer
        a filter forwards holds 0 or ``batch`` records — the case the
        simulator's output batcher (which holds records across reads
        until a batch fills) counts the same way."""
        deck = [f"C note {i}" if (i // 4) % 2 == 0 else f"      keep {i}"
                for i in range(40)]
        pipeline = Pipeline(
            [("repro.filters:comment_stripper", ["C"]),
             "repro.filters:upper_case"],
            discipline="conventional",
            source=deck,
        )
        sim = pipeline.run(runtime="sim", batch=batch)
        aio = pipeline.run(runtime="aio", batch=batch)
        assert sim.output == aio.output == [
            line.upper() for line in deck if not line.startswith("C")]
        assert sim.invocations == aio.invocations == {1: 166, 4: 46}[batch]

    def test_result_shape(self):
        result = identity_pipeline("readonly").run(runtime="sim")
        assert isinstance(result, GraphResult)
        assert result.runtime == "sim"
        assert result.restarts == 0 and result.supervisor == {}
        assert set(result.stats) >= {"counters"}
        per_datum = result.invocations_per_datum(len(ITEMS))
        assert per_datum == result.invocations / len(ITEMS)
        with pytest.raises(ValueError):
            result.invocations_per_datum(0)


class TestParityTcp:
    """The full three-runtime parity matrix, one OS process per stage."""

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_identical_on_all_three_runtimes(self, discipline, tmp_path):
        pipeline = identity_pipeline(discipline)
        results = {
            "sim": pipeline.run(runtime="sim"),
            "aio": pipeline.run(runtime="aio"),
            "tcp": pipeline.run(runtime="tcp", workdir=str(tmp_path),
                                timeout=60),
        }
        predicted = predicted_invocations(discipline, N_FILTERS, len(ITEMS))
        for runtime in RUNTIMES:
            assert isinstance(results[runtime], GraphResult), runtime
            assert results[runtime].output == ITEMS, runtime
            assert results[runtime].invocations == predicted, runtime

    def test_hosted_placement_returns_the_same_result(self, tmp_path):
        result = Pipeline([IDENTITY] * N_FILTERS, source=ITEMS,
                          placement="hosted").run(runtime="tcp",
                                                  workdir=str(tmp_path))
        assert isinstance(result, GraphResult)
        assert result.output == ITEMS
        assert result.invocations == predicted_invocations(
            "readonly", N_FILTERS, len(ITEMS))
        assert result.segment_invocations == {"seg-0": result.invocations}
        assert result.restarts == 0
        assert "counters" in result.supervisor


class TestValidation:
    """A knob a runtime cannot honour is an error, never a no-op."""

    def test_unknown_runtime(self):
        with pytest.raises(ValueError, match="runtime"):
            identity_pipeline("readonly").run(runtime="threads")

    def test_unknown_discipline(self):
        with pytest.raises(ValueError, match="discipline"):
            Pipeline([IDENTITY], discipline="sideways", source=ITEMS)

    def test_source_required(self):
        with pytest.raises(ValueError, match="source"):
            Pipeline([IDENTITY])

    def test_sink_vocabulary(self):
        with pytest.raises(ValueError, match="sink"):
            Pipeline([IDENTITY], source=ITEMS, sink="devnull")
        Pipeline([IDENTITY], source=ITEMS, sink="collect")  # allowed

    @pytest.mark.parametrize("bad_stage", [
        "no_colon_here", 42, ("spec", "args", "extra"), (42, []),
    ])
    def test_bad_stage_specs(self, bad_stage):
        with pytest.raises(ValueError, match="stage"):
            Pipeline([bad_stage], source=ITEMS)

    @pytest.mark.parametrize("runtime", ["sim", "aio"])
    @pytest.mark.parametrize("knob", [
        {"timeout": 5.0}, {"max_restarts": 1}, {"faults": {}},
        {"resume": True}, {"io_timeout": 1.0}, {"trace": True},
        {"workdir": "/tmp/x"},
    ])
    def test_tcp_only_knobs_rejected_elsewhere(self, runtime, knob):
        with pytest.raises(ValueError, match="tcp"):
            identity_pipeline("readonly").run(runtime=runtime, **knob)

    @pytest.mark.parametrize("placement", ["processes", "hosted"])
    @pytest.mark.parametrize("io_timeout", [0, -1.0])
    def test_bad_io_timeout_rejected_before_anything_is_planned(
            self, tmp_path, placement, io_timeout):
        workdir = tmp_path / "fleet"
        pipeline = Pipeline([IDENTITY], source=ITEMS, placement=placement)
        started = time.monotonic()
        with pytest.raises(ValueError, match="io_timeout"):
            pipeline.run(runtime="tcp", io_timeout=io_timeout,
                         workdir=str(workdir), timeout=10.0)
        assert time.monotonic() - started < 1.0
        assert not workdir.exists()

    def test_placement_is_simulator_only(self):
        with pytest.raises(ValueError, match="placement"):
            identity_pipeline("readonly").run(runtime="aio",
                                              placement=object())

    def test_tcp_rejects_built_transducers(self, tmp_path):
        pipeline = Pipeline([identity_transducer()], source=ITEMS)
        with pytest.raises(ValueError, match="process boundary"):
            pipeline.run(runtime="tcp", workdir=str(tmp_path))

    def test_flow_knobs_validated_by_policy(self):
        with pytest.raises(ValueError):
            identity_pipeline("readonly").run(runtime="sim", batch=0)
        with pytest.raises(ValueError):
            identity_pipeline("writeonly").run(runtime="sim",
                                               credit_window=0)

    def test_flow_policy_credit_window_resolution(self):
        assert FlowPolicy().effective_credit_window() == 1
        assert FlowPolicy(credit_window=7).effective_credit_window() == 7
        assert FlowPolicy(inbox_capacity=3).effective_credit_window() == 3
        resized = FlowPolicy().with_credit_window(5)
        assert resized.credit_window == 5
