"""Segments stream into each other: one concurrent run per TCP graph.

Every stage of a graph is forked when its run starts, and a segment's
sink end hands each transfer it takes in to the next segment's source
ends through the driver's loop.  These tests pin what that must keep:
records reach the tail while the head still runs; every split, join
and batch gives aio's records in aio's order and the per-segment
invocations the model predicts; a branch that crashes once is
survived exactly; and ``timeout`` bounds the whole run, not each
segment.  None of them times anything.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

import repro.net.launch as launch
from repro.analysis import predict_graph_invocations
from repro.api import GraphBuilder
from repro.transput import FlowPolicy

IDENTITY = "repro.transput:identity_transducer"
#: Drops every record with a "3" in it: what crosses the split is the
#: head's output, not the source.
DROP_THREES = ("repro.filters:delete_matching", ["3"])
ITEMS = [f"rec-{i:03d}" for i in range(40)]
KEPT = [record for record in ITEMS if "3" not in record]


def diamond(head=IDENTITY, op="scatter", policy="round_robin",
            join="gather", batch=1, source=ITEMS, branch=IDENTITY,
            tail=True):
    builder = GraphBuilder(source=source, discipline="readonly",
                           flow=FlowPolicy(batch=batch)).chain(head)
    branches = ([branch], [IDENTITY])
    if op == "broadcast":
        builder = builder.broadcast(*branches)
    else:
        builder = builder.scatter(*branches, policy=policy)
    builder = builder.gather() if join == "gather" else builder.merge()
    if tail:
        builder = builder.chain(IDENTITY)
    return builder.build()


def by_segment(graph, records=None):
    """Predicted invocations per segment, as GraphResult files them."""
    totals = defaultdict(int)
    for edge in predict_graph_invocations(graph, records):
        totals[edge.segment.rsplit(".b", 1)[0]] += edge.invocations
    return dict(totals)


def module(tmp_path, monkeypatch, name, text):
    """A transducer module the forked stages can import."""
    (tmp_path / f"{name}.py").write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))  # a fork inherits it


class TestOverlap:
    def test_the_tail_gets_records_before_the_head_ends(
            self, tmp_path, monkeypatch):
        # What every sink end hands on, in the order the driver takes
        # it in, labelled by the segment directory the sink plans in.
        seen = []
        play = launch.FleetSupervisor._play_end

        class Spy:
            def __init__(self, where, forward):
                self.where, self.forward = where, forward

            def extend(self, records):
                seen.append((self.where, "records"))
                self.forward.extend(records)

            def end(self):
                seen.append((self.where, "end"))
                self.forward.end()

        async def spied(self, member, feed, forward):
            if forward is not None:
                where = member.plan.stats_file.split("/")[-2]
                forward = Spy(where, forward)
            await play(self, member, feed, forward)

        monkeypatch.setattr(launch.FleetSupervisor, "_play_end", spied)
        records = [f"rec-{i:03d}" for i in range(200)]
        result = diamond(source=records).run(
            runtime="tcp", workdir=str(tmp_path))
        assert sorted(result.output) == records
        assert seen.index(("seg-1", "records")) < seen.index(("seg-0", "end"))


class TestExactness:
    @pytest.mark.parametrize("batch", [1, 3, 32])
    @pytest.mark.parametrize("join", ["gather", "merge"])
    @pytest.mark.parametrize("op, policy", [("scatter", "hash"),
                                            ("scatter", "round_robin"),
                                            ("broadcast", None)])
    def test_every_split_join_and_batch_matches_aio(
            self, tmp_path, op, policy, join, batch):
        graph = diamond(head=DROP_THREES, op=op, policy=policy, join=join,
                        batch=batch)
        tcp = graph.run(runtime="tcp", workdir=str(tmp_path))
        aio = graph.run(runtime="aio")
        assert tcp.output == aio.output
        assert tcp.branch_outputs == aio.branch_outputs
        assert tcp.segment_invocations == aio.segment_invocations
        # Past the head every stage keeps its records: the model,
        # given what the head let through, predicts every later segment
        # (the head's own output transfers are its filter's business).
        expected = by_segment(diamond(op=op, policy=policy, join=join,
                                      batch=batch), KEPT)
        del expected["seg-0"]
        assert {name: count
                for name, count in tcp.segment_invocations.items()
                if name != "seg-0"} == expected

    @pytest.mark.parametrize("batch", [1, 3])
    def test_a_graph_that_ends_in_a_block_is_exact(self, tmp_path, batch):
        graph = diamond(batch=batch, tail=False)
        tcp = graph.run(runtime="tcp", workdir=str(tmp_path))
        assert tcp.output == ITEMS[0::2] + ITEMS[1::2]
        assert tcp.branch_outputs == graph.run(runtime="aio").branch_outputs
        assert tcp.segment_invocations == by_segment(graph)


class TestFaults:
    def test_a_branch_that_crashes_once_is_survived_exactly(
            self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed"
        module(tmp_path, monkeypatch, "crash_once", (
            "import os\n"
            "from repro.transput.filterbase import map_transducer\n"
            "\n"
            "def crash_once(marker, at):\n"
            "    seen = []\n"
            "    def step(record):\n"
            "        seen.append(record)\n"
            "        if len(seen) == at and not os.path.exists(marker):\n"
            "            open(marker, 'w').close()\n"
            "            raise RuntimeError('crash once')\n"
            "        return record\n"
            "    return map_transducer(step, name='crash_once')\n"
        ))
        graph = diamond(branch=("crash_once:crash_once", [str(marker), 5]))
        result = graph.run(runtime="tcp", max_restarts=1, resume=True,
                           io_timeout=5.0, workdir=str(tmp_path / "run"))
        assert marker.exists()
        assert result.output == ITEMS[0::2] + ITEMS[1::2]
        assert result.branch_outputs == {"scatter-1": [ITEMS[0::2],
                                                       ITEMS[1::2]]}
        assert result.restarts == 1

    def test_the_timeout_bounds_the_whole_run(self, tmp_path, monkeypatch):
        # The head takes ~0.6 s, and the tail another ~0.6 s once the
        # head has ended: each segment fits in 1 s, the run does not.
        module(tmp_path, monkeypatch, "slow_ends", (
            "import time\n"
            "from repro.transput.filterbase import make_transducer\n"
            "\n"
            "def slow_steps(seconds):\n"
            "    def step(record):\n"
            "        time.sleep(seconds)\n"
            "        return (record,)\n"
            "    return make_transducer(step, name='slow_steps')\n"
            "\n"
            "def slow_finish(seconds):\n"
            "    def finish():\n"
            "        time.sleep(seconds)\n"
            "        return ()\n"
            "    return make_transducer(lambda record: (record,),\n"
            "                           name='slow_finish', finish=finish)\n"
        ))
        graph = (GraphBuilder(source=ITEMS[:12], discipline="readonly")
                 .chain(("slow_ends:slow_steps", [0.05]))
                 .scatter([IDENTITY], [IDENTITY])
                 .gather()
                 .chain(("slow_ends:slow_finish", [0.6]))
                 .build())
        assert len(graph.program.segments) == 3
        with pytest.raises(launch.FleetError) as info:
            graph.run(runtime="tcp", timeout=1.0,
                      workdir=str(tmp_path / "run"))
        assert info.value.reason == "timeout"
