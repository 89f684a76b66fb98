"""Unit tests for CPU core placement (affinity helpers + planners)."""

import json
import os

import pytest

from repro.net.affinity import (
    PLACEMENT_POLICIES,
    assign_cores,
    available_cores,
    current_affinity,
    pin_to_core,
)
from repro.net.stage import config_from_args


class TestAssignCores:
    def test_round_robin_over_given_cores(self):
        assert assign_cores(5, cores=[0, 1, 2, 3]) == [0, 1, 2, 3, 0]

    def test_fewer_shards_than_cores_each_own_one(self):
        assert assign_cores(2, cores=[4, 5, 6, 7]) == [4, 5]

    def test_policy_none_never_pins(self):
        assert assign_cores(3, policy="none", cores=[0, 1]) == [None] * 3

    def test_single_core_machine_never_pins(self):
        # Pinning every shard to cpu0 would only add syscalls.
        assert assign_cores(4, cores=[0]) == [None] * 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="placement_policy"):
            assign_cores(2, policy="spread")

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            assign_cores(0)

    def test_default_uses_available_cores(self):
        cores = available_cores()
        expected = ([None] * 2 if len(cores) < 2 else cores[:2])
        assert assign_cores(2) == expected


class TestPinning:
    def test_pin_none_is_a_noop(self):
        assert pin_to_core(None) is False

    def test_pin_bogus_core_never_raises(self):
        assert pin_to_core(10_000_000) is False

    def test_pin_to_current_core_succeeds_on_linux(self):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("platform has no sched_setaffinity")
        before = current_affinity()
        try:
            assert pin_to_core(before[0]) is True
            assert current_affinity() == [before[0]]
        finally:
            os.sched_setaffinity(0, set(before))

    def test_current_affinity_matches_available(self):
        if not hasattr(os, "sched_getaffinity"):
            assert current_affinity() is None
        else:
            assert current_affinity() == available_cores()


class TestPlannedPlacement:
    """The planners thread core assignments into plans and manifests."""

    SPECS = [("repro.filters:strip_whitespace", [])]

    def plan_shards(self, tmp_path, items, **knobs):
        """Plan ``Pipeline(SPECS, shards=2)``'s block, as its TCP run does."""
        from repro.api import Pipeline
        from repro.api.execute import _plan_block
        from repro.api.graph import partition_records

        pipeline = Pipeline(self.SPECS, source=items, shards=2)
        (block,) = pipeline._program().segments
        buckets = partition_records(items, block.op, block.policy, 2)
        return _plan_block(block, buckets, tmp_path,
                           lambda branch: branch.flow, **knobs)

    def test_sharded_fleet_records_placement(self, tmp_path):
        plans = self.plan_shards(tmp_path, ["a", "b", "c", "d"],
                                 placement_policy="cores", trace=True)
        manifest = json.loads((tmp_path / "fleet.json").read_text())
        assert manifest["placement_policy"] == "cores"
        cores = manifest["shard_cores"]
        assert len(cores) == 2
        if len(available_cores()) >= 2:
            assert cores == available_cores()[:2]
            by_shard = {plan.shard: plan.cpu for plan in plans}
            assert by_shard == {0: cores[0], 1: cores[1]}
            for plan in plans:
                assert config_from_args(plan.argv).cpu == plan.cpu
        else:
            # Single-core machine: every stage stays unpinned.
            assert cores == [None, None]
            assert all(config_from_args(plan.argv).cpu is None
                       for plan in plans)

    def test_policy_none_plans_no_cpu(self, tmp_path):
        plans = self.plan_shards(tmp_path, ["a", "b"],
                                 placement_policy="none")
        assert all(config_from_args(plan.argv).cpu is None for plan in plans)
        assert all(plan.cpu is None for plan in plans)

    def test_hosted_fleet_records_placement(self, tmp_path):
        from repro.broker.launch import plan_hosted_fleet

        plans = plan_hosted_fleet(
            "readonly", self.SPECS, str(tmp_path),
            source_items=["a", "b"], hosts=2, trace=True,
        )
        manifest = json.loads((tmp_path / "fleet.json").read_text())
        assert manifest["placement_policy"] == "cores"
        host_cores = manifest["host_cores"]
        host_plans = [plan for plan in plans if plan.role == "host"]
        assert [plan.cpu for plan in host_plans] == host_cores
        for index in range(2):
            plan_data = json.loads(
                (tmp_path / f"host-{index}.plan.json").read_text()
            )
            assert plan_data["cpu"] == host_cores[index]

    def test_policies_tuple_is_the_contract(self):
        assert PLACEMENT_POLICIES == ("cores", "none")


class TestApiKnob:
    def test_placement_policy_is_tcp_only(self):
        from repro.api import Pipeline

        pipeline = Pipeline(
            stages=["repro.filters:strip_whitespace"],
            source=["x"], shards=2,
        )
        with pytest.raises(ValueError, match="placement_policy"):
            pipeline.run(runtime="sim", placement_policy="cores")

    def test_placement_policy_needs_shards_or_hosted(self):
        from repro.api import Pipeline

        pipeline = Pipeline(
            stages=["repro.filters:strip_whitespace"], source=["x"],
        )
        with pytest.raises(ValueError, match="shards"):
            pipeline.run(runtime="tcp", placement_policy="cores")

    def test_bogus_policy_rejected_eagerly(self):
        from repro.api import Pipeline

        pipeline = Pipeline(
            stages=["repro.filters:strip_whitespace"],
            source=["x"], shards=2,
        )
        with pytest.raises(ValueError, match="placement_policy"):
            pipeline.run(runtime="tcp", placement_policy="spread")
