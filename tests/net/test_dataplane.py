"""The fast data plane, end to end: negotiated binary framing, read
pipelining and sharded fleets on real sockets.

Four contracts:

1. A fleet speaking the binary codec produces byte-identical output to
   the JSON fleet — the codec changes bytes-per-datum, never records.
2. Codec negotiation is per-link: a legacy JSON-only stage dropped into
   a binary fleet degrades its own links to JSON and the pipeline still
   runs losslessly (rolling upgrades need this).
3. Pipelined reads + binary framing preserve the recovery story: kill a
   stage mid-stream with ``resume=True`` and
   :func:`~repro.obs.merge.verify_exactly_once` still proves every
   datum crossed each link exactly once.
4. ``Pipeline(shards=N)`` partitions by content hash and yields the
   same multiset of records on every runtime, with per-shard outputs
   exposed.
"""

import json

import pytest

from repro.api import Pipeline
from repro.fault import FaultPlan
from repro.net.launch import IDENTITY, plan_linear_fleet, run_fleet
from repro.obs import load_span_log
from repro.obs.merge import verify_exactly_once
from repro.transput import FlowPolicy

ITEMS = [f"datum-{i:02d}" for i in range(20)]


def run_identity_fleet(tmp_path, codec, **kwargs):
    plans = plan_linear_fleet(
        "readonly", [IDENTITY] * 2, str(tmp_path),
        source_items=ITEMS, codec=codec, **kwargs,
    )
    return plans, run_fleet(plans, timeout=60)


class TestBinaryFleet:
    def test_binary_fleet_matches_json_fleet(self, tmp_path):
        _, json_result = run_identity_fleet(tmp_path / "json", "json")
        _, binary_result = run_identity_fleet(tmp_path / "bin", "binary")
        assert binary_result.output == json_result.output == ITEMS
        assert binary_result.invocations == json_result.invocations

    def test_binary_moves_fewer_bytes(self, tmp_path):
        _, json_result = run_identity_fleet(tmp_path / "json", "json")
        _, binary_result = run_identity_fleet(tmp_path / "bin", "binary")
        json_bytes = json_result.totals.get("bytes_sent")
        binary_bytes = binary_result.totals.get("bytes_sent")
        assert 0 < binary_bytes < json_bytes

    def test_legacy_json_stage_in_a_binary_fleet(self, tmp_path):
        """Per-link degradation: set one filter's plan back to the json
        codec (as if an old build were still deployed) and the fleet
        still drains."""
        plans = plan_linear_fleet(
            "readonly", [IDENTITY] * 2, str(tmp_path),
            source_items=ITEMS, codec="binary",
        )
        legacy = next(p for p in plans if p.role == "filter")
        with open(legacy.plan_file, "w", encoding="utf-8") as handle:
            json.dump({**legacy.plan, "codec": "json"}, handle)
        result = run_fleet(plans, timeout=60)
        assert result.output == ITEMS


class TestPipelinedReads:
    @pytest.mark.parametrize("depth", [2, 8])
    def test_pipelining_is_lossless_and_ordered(self, tmp_path, depth):
        _, result = run_identity_fleet(
            tmp_path, "binary",
            flow=FlowPolicy(pipeline_depth=depth),
        )
        assert result.output == ITEMS

    def test_default_depth_keeps_invocation_parity(self, tmp_path):
        """depth=1 is the paper's strict alternation — the C1 count must
        be identical to the pre-pipelining runtime."""
        _, plain = run_identity_fleet(tmp_path / "plain", "json")
        _, deep = run_identity_fleet(
            tmp_path / "deep", "binary",
            flow=FlowPolicy(pipeline_depth=1),
        )
        assert deep.invocations == plain.invocations

    def test_resume_after_kill_under_pipelining(self, tmp_path):
        """The acceptance scenario: binary codec + 4-deep pipelining +
        a mid-stream kill of the middle filter, exactly-once proven
        from the span logs."""
        result = Pipeline(
            ["repro.transput:identity_transducer"] * 3,
            discipline="readonly", source=ITEMS,
        ).run(
            runtime="tcp",
            workdir=str(tmp_path),
            codec="binary",
            pipeline_depth=4,
            faults={2: FaultPlan(kill_after=7)},
            resume=True,
            max_restarts=2,
            io_timeout=5.0,
            timeout=90.0,
            trace=True,
        )
        assert result.output == ITEMS
        assert result.restarts == 1
        logs = [load_span_log(path) for path in result.trace_files]
        report = verify_exactly_once(logs, expected=len(ITEMS))
        assert report.ok, report.summary() + "".join(
            f"\n  - {problem}" for problem in report.problems
        )


class TestShardedPipelines:
    def shard_pipeline(self, shards):
        return Pipeline(
            ["repro.transput:identity_transducer"] * 2,
            discipline="readonly", source=ITEMS, shards=shards,
        )

    @pytest.mark.parametrize("runtime", ["sim", "aio"])
    def test_in_process_sharding_preserves_the_multiset(self, runtime):
        result = self.shard_pipeline(4).run(runtime=runtime)
        assert sorted(result.output) == ITEMS
        shards = result.branch_outputs["shards"]
        assert len(shards) == 4
        assert sorted(record for lines in shards for record in lines) == ITEMS

    def test_tcp_sharding_matches_in_process(self, tmp_path):
        tcp = self.shard_pipeline(2).run(
            runtime="tcp", workdir=str(tmp_path), timeout=90.0,
            codec="binary",
        )
        sim = self.shard_pipeline(2).run(runtime="sim")
        assert tcp.output == sim.output
        assert tcp.invocations == sim.invocations
        assert tcp.branch_outputs == sim.branch_outputs

    def test_traced_tcp_shards_write_one_combined_manifest(self, tmp_path):
        """The workdir holds one fleet.json covering every stage of
        every shard; each shard's own manifest under ``branch-<i>``
        audits exactly-once."""
        from repro.obs.trace_cli import main

        result = self.shard_pipeline(2).run(
            runtime="tcp", workdir=str(tmp_path), trace=True, resume=True,
            timeout=90.0,
        )
        manifest = json.loads((tmp_path / "fleet.json").read_text())
        assert manifest["shards"] == 2
        assert [stage["shard"] for stage in manifest["stages"]] == [
            index for index in range(2) for _ in range(4)]
        for index, lines in enumerate(result.branch_outputs["shards"]):
            fleet = tmp_path / f"branch-{index}" / "fleet.json"
            assert main(["--fleet", str(fleet),
                         "--verify-once", str(len(lines))]) == 0

    def test_every_shard_sees_only_its_partition(self):
        from repro.transput.flow import shard_of
        result = self.shard_pipeline(4).run(runtime="sim")
        for index, lines in enumerate(result.branch_outputs["shards"]):
            assert all(shard_of(line, 4) == index for line in lines)

    def test_faults_with_shards_rejected(self):
        with pytest.raises(ValueError, match="faults"):
            self.shard_pipeline(2).run(
                runtime="tcp", faults={1: FaultPlan(kill_after=1)},
            )
