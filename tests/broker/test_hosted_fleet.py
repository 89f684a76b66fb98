"""Acceptance: hosted fleets as real processes under the supervisor.

``plan_hosted_fleet`` turns a pipeline into one ``eden-broker`` daemon
plus ``eden-host`` processes; the ordinary :func:`run_fleet` runs it.
The observability bar is the same one the process placement passes:
merged span logs must show exactly the paper's C1/C2 causal chains,
span by span, even though every link is now a broker-issued logical
channel (spliced in-process within a host, relayed between hosts).
"""

import json

import pytest

from repro.analysis import predicted_invocations
from repro.net.launch import IDENTITY, run_fleet
from repro.obs.merge import (
    load_span_log,
    merge_span_logs,
    verify_exactly_once,
    verify_invocation_chains,
)
from repro.broker.launch import plan_hosted_fleet

ITEMS = ["alpha", "beta", "gamma"]
N_FILTERS = 3
UPPER = ("repro.filters:upper_case", [])


def hosted_plans(tmp_path, transducers=(IDENTITY,), **kwargs):
    return plan_hosted_fleet(
        kwargs.pop("discipline", "readonly"), list(transducers),
        str(tmp_path), source_items=list(ITEMS), **kwargs,
    )


class TestHostedFleet:
    @pytest.mark.parametrize("discipline", ["readonly", "writeonly"])
    def test_pipeline_output_matches_the_transducers(self, tmp_path,
                                                     discipline):
        plans = hosted_plans(tmp_path, transducers=[UPPER],
                             discipline=discipline)
        result = run_fleet(plans, timeout=90.0)
        assert result.output == [item.upper() for item in ITEMS]

    def test_fleet_is_two_processes_regardless_of_length(self, tmp_path):
        plans = hosted_plans(tmp_path, transducers=[IDENTITY] * 6)
        # 8 pipeline stages, but one broker + one host process.
        assert len(plans) == 2
        assert [plan.role for plan in plans] == ["broker", "host"]
        assert plans[0].daemon and not plans[1].daemon

    def test_broker_daemon_is_stopped_and_dumps_stats(self, tmp_path):
        plans = hosted_plans(tmp_path)
        result = run_fleet(plans, timeout=90.0)
        assert result.output == ITEMS
        with open(tmp_path / "broker.stats.json", encoding="utf-8") as handle:
            stats = json.load(handle)
        assert stats["role"] == "broker"
        assert stats["counters"]["registrations"] == 3
        # One host: the broker issued both links and relayed neither.
        assert stats["counters"].get("relayed_frames", 0) == 0
        with open(tmp_path / "host-0.stats.json", encoding="utf-8") as handle:
            host = json.load(handle)
        assert host["counters"]["mux_frames_spliced"] > 0

    def test_stages_spread_over_multiple_hosts(self, tmp_path):
        plans = hosted_plans(tmp_path, transducers=[UPPER, IDENTITY],
                             hosts=2)
        assert [plan.role for plan in plans] == ["broker", "host", "host"]
        result = run_fleet(plans, timeout=90.0)
        assert result.output == [item.upper() for item in ITEMS]
        # Each host got a contiguous chunk of the 4 stages.
        for index, size in ((0, 2), (1, 2)):
            with open(tmp_path / f"host-{index}.plan.json",
                      encoding="utf-8") as handle:
                assert len(json.load(handle)["stages"]) == size

    def test_conventional_discipline_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="conventional"):
            hosted_plans(tmp_path, discipline="conventional")

    def test_manifest_names_the_broker_and_placement(self, tmp_path):
        hosted_plans(tmp_path, control=True)
        with open(tmp_path / "fleet.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["placement"] == "hosted"
        assert ":" in manifest["broker"]
        assert [entry["role"] for entry in manifest["stages"]] == [
            "broker", "host"
        ]


class TestHostedSpans:
    def test_hosted_chains_match_the_cost_model(self, tmp_path):
        # The acceptance bar: C1/C2 span by span through the broker
        # path, exactly as the per-process placement produces them.
        plans = hosted_plans(tmp_path, transducers=[IDENTITY] * N_FILTERS,
                             trace=True)
        result = run_fleet(plans, timeout=120.0)
        assert result.output == ITEMS
        trees = merge_span_logs(
            [load_span_log(path) for path in result.trace_files]
        )
        report = verify_invocation_chains(
            trees, "readonly", N_FILTERS, len(ITEMS)
        )
        assert report.ok, report.problems
        assert report.expected_spans_per_trace == N_FILTERS + 1
        assert report.total_spans == predicted_invocations(
            "readonly", N_FILTERS, len(ITEMS)
        )
        assert all(tree.is_chain() for tree in trees)

    def test_hosted_delivery_is_exactly_once(self, tmp_path):
        plans = hosted_plans(tmp_path, trace=True, resume=True)
        result = run_fleet(plans, timeout=90.0)
        logs = [load_span_log(path) for path in result.trace_files]
        report = verify_exactly_once(logs, expected=len(ITEMS))
        assert report.ok, report.problems
