"""One zygote per fleet, one concurrent run per graph, ends in the driver.

A process fleet runs only the stages between a pipeline's ends as
processes, and a graph's fleet forks the driver once into its zygote;
no interpreter starts, and nothing is executed.  The zygote forks
every process of the graph when the run starts, and every end starts
with them: a later segment's source end answers a read only once the
records it asks for have come through the driver, so a later stage
waits only as long as its records take to arrive.  The source and
sink run in the driver's event loop: an end's ``kill_after`` ends only
its incarnation, a spent budget is a :class:`FleetError` naming the
end, and the driver's own process keeps its CPU affinity.  These
tests count what the supervisor starts and in which order; none of
them times anything.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
from collections import defaultdict

import pytest

import repro.net.launch as launch
import repro.net.zygote as zygote
from repro.analysis import predict_graph_invocations
from repro.api import GraphBuilder, Pipeline
from repro.fault import FaultPlan
from repro.net.stage import StageConfig, _Stage, pick_free_port

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
    """In the order they happen: ``("zygote", modules)`` per zygote
    started (and what it preloads), ``("fork", module)`` per process
    forked, ``("end", label)`` per in-loop end started, and
    ``("run", count)`` / ``("done", count)`` around each supervised
    run of ``count`` stages.  Starting a new program fails the run."""
    seen = []
    start = zygote.start
    fork = launch.FleetSupervisor._fork
    play = launch.FleetSupervisor._play_end
    stream = launch.FleetSupervisor.stream

    def started(modules, *rest):
        seen.append(("zygote", list(modules)))
        return start(modules, *rest)

    def executed(*args, **kwargs):
        raise AssertionError(f"a fleet executed {args[0]!r}")

    def forked(self, member):
        seen.append(("fork", member.plan.module))
        fork(self, member)

    async def end(self, member, feed, forward):
        seen.append(("end", member.plan.label))
        await play(self, member, feed, forward)

    async def run(self, feeds=None, forwards=None):
        seen.append(("run", len(self.plans)))
        result = await stream(self, feeds, forwards)
        seen.append(("done", len(self.plans)))
        return result

    monkeypatch.setattr(zygote, "start", started)
    monkeypatch.setattr(subprocess, "Popen", executed)
    monkeypatch.setattr(launch.FleetSupervisor, "_fork", forked)
    monkeypatch.setattr(launch.FleetSupervisor, "_play_end", end)
    monkeypatch.setattr(launch.FleetSupervisor, "stream", run)
    return seen


def of_kind(events, kind):
    return [what for seen, what in events if seen == kind]


def by_segment(graph):
    """The predicted invocations of each segment, as GraphResult files
    them (a branch's edges count toward its parallel block)."""
    totals = defaultdict(int)
    for edge in predict_graph_invocations(graph):
        totals[edge.segment.rsplit(".b", 1)[0]] += edge.invocations
    return dict(totals)


class TestSpawnShape:
    def test_the_diamond_forks_every_filter_before_any_end_starts(
            self, tmp_path, events):
        graph = diamond()
        result = graph.run(runtime="tcp", workdir=str(tmp_path))
        assert sorted(result.output) == sorted(ITEMS)
        assert of_kind(events, "zygote") == [["repro.net.stage"]]
        # One run of all 12 stages: the head, the two branches and the
        # tail forked first, then two ends per pipeline.
        stage = "repro.net.stage"
        kinds = [kind for kind, _what in events]
        assert kinds == ["run", "zygote", *["fork"] * 4, *["end"] * 8, "done"]
        assert of_kind(events, "run") == [12]
        assert of_kind(events, "fork") == [stage] * 4

    def test_a_pipeline_forks_only_its_filters(self, tmp_path, events):
        result = Pipeline([IDENTITY] * 3, source=ITEMS).run(
            runtime="tcp", workdir=str(tmp_path))
        assert result.output == ITEMS
        assert of_kind(events, "zygote") == [["repro.net.stage"]]
        kinds = [kind for kind, _what in events]
        assert kinds == ["run", "zygote", *["fork"] * 3, *["end"] * 2, "done"]
        assert of_kind(events, "fork") == ["repro.net.stage"] * 3

    def test_hosted_placement_forks_its_broker_and_host(
            self, tmp_path, events):
        result = Pipeline([IDENTITY] * 3, source=ITEMS,
                          placement="hosted").run(
            runtime="tcp", workdir=str(tmp_path))
        assert result.output == ITEMS
        assert of_kind(events, "zygote") == [
            ["repro.broker.daemon", "repro.broker.host"]]
        assert of_kind(events, "fork") == [
            "repro.broker.daemon", "repro.broker.host"]
        assert of_kind(events, "end") == []

    def test_a_slow_head_spends_no_later_io_timeout(
            self, tmp_path, monkeypatch):
        # The head filter takes ~1.2 s, a record every 0.1 s; every
        # later stage is forked when the run starts and would spend its
        # 0.5 s io_timeout on a silent pipe if its reads were answered
        # only once the head was done.
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
        monkeypatch.syspath_prepend(str(tmp_path))  # a fork inherits it
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
            """Plans only: relay every pipeline's feed to its sink."""

            def __init__(self, plans, **_knobs):
                planned.extend(plans)

            def run(self, feeds, forwards):
                for source, sink in zip(sorted(feeds), sorted(forwards)):
                    forwards[sink].extend(feeds[source].records)
                    forwards[sink].end()
                return launch.FleetResult(output=[], stats=[])

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

    def test_an_end_cancelled_as_its_listener_closes_still_closes_it(self):
        # A supervisor that gives up on a fleet cancels its ends, and
        # one may be failing at that moment, in the loop turns its
        # listener spends resetting late sockets.
        port = pick_free_port()
        stage = _Stage(StageConfig(role="source", discipline="readonly",
                                   listen_port=port, source_items=ITEMS))

        async def scenario():
            failing = asyncio.Event()

            async def fail():
                async with stage._accepting():
                    failing.set()
                    raise RuntimeError("the end failed")

            task = asyncio.ensure_future(fail())
            await failing.wait()  # the listener is closing now
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            with pytest.raises(ConnectionRefusedError):
                await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(scenario())

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs CPU affinity")
    def test_sharded_tcp_run_leaves_the_driver_affinity_alone(self, tmp_path):
        before = os.sched_getaffinity(0)
        result = Pipeline([IDENTITY], source=ITEMS, shards=2).run(
            runtime="tcp", workdir=str(tmp_path))
        assert sorted(result.output) == sorted(ITEMS)
        assert os.sched_getaffinity(0) == before
