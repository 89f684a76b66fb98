"""One spawn phase per graph, with the ends in the driver's loop.

A process fleet spawns only the stages between a segment's ends, and a
graph spawns all of them at once, before its first segment runs.  Each
spawned stage waits for its plan until its segment starts, so no
deadline counts while an earlier segment runs.  The source and sink
run in the driver's event loop: an end's ``kill_after`` ends only its
incarnation, a spent budget is a :class:`FleetError` naming the end,
and an end is never pinned to a core.  These tests count what the
supervisor starts and in which order; none of them times anything.
"""

from __future__ import annotations

import os
from collections import defaultdict

import pytest

import repro.net.launch as launch
from repro.analysis import predict_graph_invocations
from repro.api import GraphBuilder, Pipeline
from repro.fault import FaultPlan
from repro.net.stage import StageConfig

IDENTITY = "repro.transput:identity_transducer"
ITEMS = [f"item-{i:02d}" for i in range(12)]


def diamond(discipline="readonly", head=IDENTITY, branches=2):
    return (GraphBuilder(source=ITEMS, discipline=discipline)
            .chain(head)
            .scatter(*[[IDENTITY]] * branches)
            .gather()
            .chain(IDENTITY)
            .build())


@pytest.fixture
def events(monkeypatch):
    """``("spawn", module)`` per process started, ``("end", label)`` per
    in-loop end started, in the order they happen."""
    seen = []
    popen = launch.subprocess.Popen
    play = launch.FleetSupervisor._play_end

    def spawn(argv, **kwargs):
        seen.append(("spawn", argv[2]))
        return popen(argv, **kwargs)

    async def end(self, member, records):
        seen.append(("end", member.plan.label))
        await play(self, member, records)

    monkeypatch.setattr(launch.subprocess, "Popen", spawn)
    monkeypatch.setattr(launch.FleetSupervisor, "_play_end", end)
    return seen


def spawned(events, module="repro.net.stage"):
    return [kind for kind, what in events if kind == "spawn" and what == module]


def by_segment(graph):
    """The predicted invocations of each segment, as GraphResult files
    them (a branch's edges count toward its parallel block)."""
    totals = defaultdict(int)
    for edge in predict_graph_invocations(graph):
        totals[edge.segment.rsplit(".b", 1)[0]] += edge.invocations
    return dict(totals)


class TestSpawnShape:
    def test_the_diamond_spawns_its_four_filters_before_any_end(
            self, tmp_path, events):
        graph = diamond()
        result = graph.run(runtime="tcp", workdir=str(tmp_path))
        assert sorted(result.output) == sorted(ITEMS)
        assert len(spawned(events)) == 4
        first_end = next(i for i, (kind, _) in enumerate(events)
                         if kind == "end")
        assert len(spawned(events[:first_end])) == 4
        # Two ends per pipeline: seg-0, two branches, seg-1.
        assert sum(kind == "end" for kind, _ in events) == 8

    def test_a_pipeline_spawns_only_its_filters(self, tmp_path, events):
        result = Pipeline([IDENTITY] * 3, source=ITEMS).run(
            runtime="tcp", workdir=str(tmp_path))
        assert result.output == ITEMS
        assert len(spawned(events)) == 3

    def test_hosted_placement_is_unchanged(self, tmp_path, events):
        result = Pipeline([IDENTITY] * 3, source=ITEMS,
                          placement="hosted").run(
            runtime="tcp", workdir=str(tmp_path))
        assert result.output == ITEMS
        assert [what for _kind, what in events] == [
            "repro.broker.daemon", "repro.broker.host"]

    def test_no_deadline_counts_before_a_stage_segment_starts(
            self, tmp_path, monkeypatch):
        # The head filter takes ~1.2 s; every later stage is spawned
        # before it starts and would spend its 0.5 s io_timeout on a
        # silent pipe if it dialled before its own segment.
        (tmp_path / "slow_filters.py").write_text(
            "import time\n"
            "from repro.transput.filterbase import map_transducer\n"
            "\n"
            "def slow(seconds):\n"
            "    def step(record):\n"
            "        time.sleep(seconds)\n"
            "        return record\n"
            "    return map_transducer(step, name='slow')\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
        graph = diamond("conventional", head=("slow_filters:slow", [0.1]))
        result = graph.run(runtime="tcp", io_timeout=0.5,
                           workdir=str(tmp_path / "run"))
        assert sorted(result.output) == sorted(ITEMS)
        assert result.segment_invocations == by_segment(graph)


class TestOneDrawOfPorts:
    def test_a_graph_draws_every_port_once_and_all_are_distinct(
            self, tmp_path, monkeypatch):
        draws, planned = [], []
        pick = launch.pick_free_ports

        def spy(count, *args):
            draws.append(count)
            return pick(count, *args)

        class Supervisor:
            """Plans only: pass every source's records to its sink."""

            def __init__(self, plans, **_knobs):
                planned.extend(plans)

            def spawn(self):
                pass

            def close(self):
                pass

            async def run_segment(self, plans, sources):
                return launch.FleetResult(
                    output=[record for part in sources for record in part],
                    stats=[], shard_outputs=list(sources))

        monkeypatch.setattr(launch, "pick_free_ports", spy)
        monkeypatch.setattr(launch, "FleetSupervisor", Supervisor)
        graph = diamond(branches=8)
        assert len(graph.program.segments) == 3
        graph.run(runtime="tcp", workdir=str(tmp_path))
        assert len(draws) == 1
        ports = [StageConfig.from_dict(plan.plan).listen_port
                 for plan in planned]
        ports = [port for port in ports if port is not None]
        # A pipeline of n filters listens on n + 1 ports: 2 + 8*2 + 2.
        assert len(ports) == draws[0] == 20
        assert len(set(ports)) == len(ports)


class TestEndsUnderFaults:
    @pytest.mark.parametrize("serial, label", [(0, "source#0"),
                                               (2, "sink#2")])
    def test_an_end_that_spends_its_budget_fails_the_fleet_not_the_driver(
            self, tmp_path, serial, label):
        with pytest.raises(launch.FleetError) as info:
            Pipeline([IDENTITY], source=ITEMS).run(
                runtime="tcp", faults={serial: FaultPlan(kill_after=3)},
                resume=True, max_restarts=0, io_timeout=5.0,
                workdir=str(tmp_path), timeout=60.0)
        # Still here: the kill ended the end's incarnation, not us.
        assert info.value.reason == "budget"
        assert label in str(info.value)
        assert "injected kill" in str(info.value)
        counters = info.value.result.supervisor["counters"]
        assert counters["injected_kills"] == 1
        assert "fault: killed at datum 3" in info.value.result.stderr[serial]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs CPU affinity")
    def test_pinned_ends_leave_the_driver_affinity_alone(self, tmp_path):
        before = os.sched_getaffinity(0)
        result = Pipeline([IDENTITY], source=ITEMS, shards=2).run(
            runtime="tcp", placement_policy="cores", workdir=str(tmp_path))
        assert sorted(result.output) == sorted(ITEMS)
        assert os.sched_getaffinity(0) == before
