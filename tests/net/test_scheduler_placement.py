"""Every process of a fleet runs where the OS scheduler puts it.

Invocation is location-independent (paper §2.1): where a stage runs
must not change what it does, so no planner decides a CPU.  The live
runs read each filter process's affinity mask out of the pipeline's own
output (:mod:`tests.net.affinity_probe`) and find the driver's mask on
every placement.  The plan tests check what the planners write instead:
shards, ports, ticket spaces and manifests, and that an old plan naming
a ``cpu`` fails loudly rather than being half-read.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.api import GraphBuilder, Pipeline
from repro.broker import host as host_cli
from repro.broker.launch import plan_hosted_fleet
from repro.net import launch
from repro.net import stage as stage_cli
from repro.net.launch import IDENTITY
from repro.net.stage import StageConfig, _Stage
from repro.obs.top import render_fleet
from tests.net.affinity_probe import mask_text

PROBE = "tests.net.affinity_probe:affinity_tag"
STRIP = "repro.filters:strip_whitespace"
ITEMS = [f"rec-{i:02d}" for i in range(8)]
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")


def tcp_run(tmp_path_factory, name, **shape):
    """One traced TCP run of ``[PROBE, IDENTITY]`` over ITEMS, with the
    repository root importable by the stages it spawns."""
    workdir = tmp_path_factory.mktemp(name)
    with pytest.MonkeyPatch.context() as patch:
        paths = [str(REPO_ROOT), os.environ.get("PYTHONPATH", "")]
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        result = Pipeline([PROBE, IDENTITY], source=ITEMS, **shape).run(
            runtime="tcp", workdir=str(workdir), trace=True, timeout=90.0)
    return result, workdir


@pytest.fixture(scope="module")
def process_run(tmp_path_factory):
    return tcp_run(tmp_path_factory, "processes")


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    return tcp_run(tmp_path_factory, "shards", shards=2)


@pytest.fixture(scope="module")
def hosted_run(tmp_path_factory):
    return tcp_run(tmp_path_factory, "hosted", placement="hosted")


def masks(result):
    """The set of affinity masks the filter processes reported."""
    return {line.rpartition("@")[2] for line in result.output}


@needs_affinity
class TestStagesKeepTheDriverMask:
    def test_process_filters_keep_the_driver_mask(self, process_run):
        result, _workdir = process_run
        assert masks(result) == {mask_text(os.sched_getaffinity(0))}

    def test_sharded_filters_keep_the_driver_mask(self, sharded_run):
        result, _workdir = sharded_run
        assert masks(result) == {mask_text(os.sched_getaffinity(0))}

    def test_hosted_filters_keep_the_driver_mask(self, hosted_run):
        result, _workdir = hosted_run
        assert masks(result) == {mask_text(os.sched_getaffinity(0))}

    def test_every_placement_delivers_every_record_once(
            self, process_run, sharded_run, hosted_run):
        for result, _workdir in (process_run, sharded_run, hosted_run):
            records = [line.rpartition("@")[0] for line in result.output]
            assert sorted(records) == ITEMS

    def test_no_process_exports_a_placement_gauge(
            self, process_run, sharded_run, hosted_run):
        exported = set()
        for _result, workdir in (process_run, sharded_run, hosted_run):
            stats_files = sorted(workdir.rglob("*.stats.json"))
            assert stats_files
            for path in stats_files:
                exported |= set(json.loads(path.read_text())["gauges"])
        assert not {name for name in exported if name.startswith("cpu_")}


class TestShardedBlockPlan:
    """The graph runner plans ``Pipeline([STRIP], shards=2)``'s block
    as its TCP run does: one sub-fleet per shard.  The supervisor is
    replaced by one that only keeps the plans."""

    def plan(self, tmp_path, monkeypatch, items=("a", "b", "c", "d"),
             **knobs):
        planned = []

        class Supervisor:
            def __init__(self, plans, **_knobs):
                planned.extend(plans)

            def run(self, feeds, forwards):
                for forward in forwards.values():
                    forward.end()
                return launch.FleetResult(output=[], stats=[])

        monkeypatch.setattr(launch, "FleetSupervisor", Supervisor)
        Pipeline([STRIP], source=list(items), shards=2).run(
            runtime="tcp", workdir=str(tmp_path), **knobs)
        return planned

    def test_each_stage_is_labelled_with_its_shard(self, tmp_path,
                                                   monkeypatch):
        plans = self.plan(tmp_path, monkeypatch)
        assert [plan.shard for plan in plans] == [0, 0, 0, 1, 1, 1]
        assert [plan.plan["shard"] for plan in plans] == \
            [plan.shard for plan in plans]

    def test_each_shard_plans_into_its_own_directory_and_ticket_space(
            self, tmp_path, monkeypatch):
        plans = self.plan(tmp_path, monkeypatch)
        for plan in plans:
            branch = tmp_path / f"branch-{plan.shard}"
            assert pathlib.Path(plan.stats_file).parent == branch
            assert plan.plan["ticket_space"] == plan.shard

    def test_every_listener_gets_its_own_port(self, tmp_path, monkeypatch):
        ports = [plan.plan["listen_port"]
                 for plan in self.plan(tmp_path, monkeypatch)
                 if plan.plan["listen_port"] is not None]
        assert len(ports) == 4  # two listeners per one-filter shard
        assert len(set(ports)) == len(ports)

    def test_plan_files_read_back_as_the_planned_stages(self, tmp_path,
                                                        monkeypatch):
        for plan in self.plan(tmp_path, monkeypatch):
            config = stage_cli.config_from_args(list(plan.argv))
            assert config.to_dict() == plan.plan

    def test_traced_manifest_describes_shards_and_stages(self, tmp_path,
                                                         monkeypatch):
        plans = self.plan(tmp_path, monkeypatch, trace=True)
        manifest = json.loads((tmp_path / "fleet.json").read_text())
        assert sorted(manifest) == ["resume", "shards", "stages"]
        assert manifest["shards"] == 2
        assert [entry["shard"] for entry in manifest["stages"]] == \
            [plan.shard for plan in plans]
        assert sorted(manifest["stages"][0]) == [
            "control_port", "fault", "role", "serial", "shard",
            "stats_file", "trace_file"]

    def test_untraced_block_writes_no_combined_manifest(self, tmp_path,
                                                        monkeypatch):
        self.plan(tmp_path, monkeypatch)
        assert not (tmp_path / "fleet.json").exists()


class TestHostedPlan:
    def plan(self, tmp_path, **knobs):
        return plan_hosted_fleet("readonly", [(STRIP, [])] * 2,
                                 str(tmp_path), source_items=["a", "b"],
                                 **knobs)

    def test_host_plan_files_read_back_as_host_configs(self, tmp_path):
        hosts = [plan for plan in self.plan(tmp_path, hosts=2)
                 if plan.role == "host"]
        assert len(hosts) == 2
        names = []
        for plan in hosts:
            config = host_cli.config_from_args(list(plan.argv))
            assert config.serial == plan.serial
            names.extend(stage.name for stage in config.stages)
        # Each host got a contiguous run; together they are the chain.
        assert names == ["source", "filter1", "filter2", "sink"]

    def test_traced_manifest_describes_the_broker_fleet(self, tmp_path):
        self.plan(tmp_path, trace=True)
        manifest = json.loads((tmp_path / "fleet.json").read_text())
        assert sorted(manifest) == [
            "broker", "codec", "discipline", "flight_dir", "flight_mode",
            "host", "placement", "resume", "stages"]
        assert manifest["placement"] == "hosted"


class TestStalePlans:
    """A plan written by an older planner with a ``cpu`` key is
    refused by name, never half-read."""

    def stage_plan(self):
        return StageConfig(role="filter", discipline="readonly",
                           transducer_spec=STRIP).to_dict()

    def test_a_stage_plan_naming_a_cpu_is_refused(self):
        with pytest.raises(ValueError, match="unknown plan key 'cpu'"):
            StageConfig.from_dict({**self.stage_plan(), "cpu": 0})

    def test_a_host_plan_naming_a_cpu_is_refused(self, tmp_path):
        path = tmp_path / "host.plan.json"
        path.write_text(json.dumps({
            "broker_host": "127.0.0.1", "broker_port": 1, "cpu": 0,
            "stages": [self.stage_plan()]}))
        with pytest.raises(ValueError, match="unknown plan key 'cpu'"):
            host_cli.config_from_args(["--plan-file", str(path)])

    def test_eden_stage_names_the_stale_key_and_exits_1(self, tmp_path,
                                                        capsys):
        path = tmp_path / "stage.plan.json"
        path.write_text(json.dumps({**self.stage_plan(), "cpu": 0}))
        assert stage_cli.main(["--plan-file", str(path)]) == 1
        assert "unknown plan key 'cpu'" in capsys.readouterr().err


class TestNoPlacementKnob:
    def test_pipeline_run_takes_no_placement_policy(self):
        pipeline = Pipeline([STRIP], source=["x"], shards=2)
        with pytest.raises(TypeError, match="placement_policy"):
            pipeline.run(runtime="tcp", placement_policy="cores")

    def test_graph_run_takes_no_placement_policy(self):
        graph = GraphBuilder(source=["x"]).chain(STRIP).build()
        with pytest.raises(TypeError, match="placement_policy"):
            graph.run(runtime="tcp", placement_policy="cores")


class TestIntrospection:
    def test_stage_health_reply_describes_the_stage(self):
        stage = _Stage(StageConfig(role="filter", discipline="readonly",
                                   transducer_spec=STRIP, shard=1))
        health = stage.control_handlers()["health"]({})
        assert sorted(health) == [
            "codec", "discipline", "fault", "flight", "flow", "label",
            "resume", "role", "serial", "shard", "tracing", "uptime_s"]
        assert health["shard"] == 1

    def test_eden_top_columns_end_with_flight(self):
        header = render_fleet([]).split()
        assert header[-4:] == ["p50/p95", "CHAN", "HOST", "FLIGHT"]
