"""Same-host routes stream by direct calls once the broker admitted them.

A route whose two ends are stages of one host is opened by name and
admitted by the ticket handshake over its spliced channel; then, unless
a trace, a flight recorder, a fault plan, resume, read pipelining or an
``io_timeout`` needs its frames, its reads and writes are calls into
the serving stage.  These tests run the same pipeline on that direct
path (plain) and on the frame path (``trace=True``, which keeps every
route on frames) and check that nothing but the frames differs: the
output, the invocation and record counts, the types of what arrives,
and which stage a failure fails, with what message.
"""

import asyncio
import collections
import json

import pytest

from repro.analysis.cost_model import predicted_invocations
from repro.broker.daemon import Broker
from repro.broker.host import HostConfig, HostError, StageHost
from repro.broker.launch import plan_hosted_fleet
from repro.net.framing import CODECS, Frame, FrameType, decode_frame, encode_frame
from repro.net.handshake import TicketBook
from repro.net.launch import (
    IDENTITY,
    pipeline_configs,
    plan_linear_fleet,
    run_fleet,
)
from repro.net.stage import config_from_args, run_stage
from tests.broker.record_kinds import KINDS
from tests.broker.test_spliced_routes import shape

BOOK_ARGS = dict(space=6, seed=17)
ITEMS = [f"record-{i}" for i in range(12)]
UPPER = ("repro.filters:upper_case", [])
KIND = ("tests.broker.record_kinds:kinds", [])
REFUSE = ("tests.broker.record_kinds:refuse_fifth", [])
COUNTED = ("invocations_sent", "replies_sent", "records_in", "records_out")


def counters(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["counters"]


@pytest.mark.parametrize("hosts", [1, 2])
@pytest.mark.parametrize("discipline", ["readonly", "writeonly"])
def test_direct_and_frame_paths_deliver_and_count_alike(
        tmp_path, discipline, hosts):
    def placed(trace):
        workdir = tmp_path / f"trace-{trace}"
        result = run_fleet(plan_hosted_fleet(
            discipline, [UPPER, IDENTITY, IDENTITY], str(workdir),
            source_items=ITEMS, hosts=hosts, trace=trace,
        ), timeout=90.0)
        totals = collections.Counter()
        for index in range(hosts):
            host = counters(workdir / f"host-{index}.stats.json")
            totals.update({name: host.get(name, 0)
                           for name in (*COUNTED, "frames_sent")})
        return result.output, totals

    (direct, by_call), (framed, by_frame) = placed(False), placed(True)
    assert direct == framed == [item.upper() for item in ITEMS]
    assert ({name: by_call[name] for name in COUNTED}
            == {name: by_frame[name] for name in COUNTED})
    assert by_call["invocations_sent"] == predicted_invocations(
        discipline, 3, len(ITEMS))
    # The only frames a plain run sends are the relayed route's (the
    # handshakes are not stream frames).
    assert by_frame["frames_sent"] == 2 * by_call["invocations_sent"]
    if hosts == 1:
        assert by_call["frames_sent"] == 0
    else:
        assert 0 < by_call["frames_sent"] < by_frame["frames_sent"]


def split(stages, hosts):
    """Contiguous runs of ``stages``, one per host (as the planner cuts)."""
    per_host, extra = divmod(len(stages), hosts)
    runs, cursor = [], 0
    for index in range(hosts):
        take = per_host + (1 if index < extra else 0)
        runs.append(stages[cursor:cursor + take])
        cursor += take
    return runs


async def hosted(discipline, transducers, codec, hosts=1, trace_dir=None):
    """``(the sink's records, stream frames sent)`` of one in-process
    hosted run (broker and ``hosts`` hosts in this loop): the records
    as objects, not their JSON text."""
    broker = Broker(TicketBook(**BOOK_ARGS))
    await broker.start()
    stages = pipeline_configs(
        discipline, transducers, ITEMS, codec=codec, connect_deadline=5.0,
        ticket_space=BOOK_ARGS["space"], ticket_seed=BOOK_ARGS["seed"])
    runs = [StageHost(HostConfig(
        broker_host=broker.host, broker_port=broker.port, stages=run,
        serial=2 + index,
        trace_file=None if trace_dir is None
        else str(trace_dir / f"host-{index}.trace.jsonl")))
        for index, run in enumerate(split(stages, hosts))]
    try:
        await asyncio.wait_for(
            asyncio.gather(*(host.run() for host in runs)), timeout=60.0)
    finally:
        await broker.close()
    return (next(stage.collected for host in runs for stage in host.stages
                 if stage.config.role == "sink"),
            sum(host.stats.get("frames_sent") for host in runs))


async def processes(discipline, transducers, codec, workdir):
    """The sink's records of the process placement's stages, each run in
    this loop over its own sockets."""
    plans = plan_linear_fleet(discipline, transducers, str(workdir),
                              source_items=ITEMS, codec=codec,
                              connect_deadline=5.0)
    stages = [run_stage(config_from_args(plan.argv)) for plan in plans]
    done = await asyncio.wait_for(asyncio.gather(*stages), timeout=60.0)
    return next(stage.collected for stage in done
                if stage.config.role == "sink")


def delivered(value, codec):
    """``value`` as one socket read would deliver it over ``codec``."""
    wire = encode_frame(Frame(FrameType.DATA, {"items": [value]}, 1), codec)
    return decode_frame(wire)[0].body["items"][0]


@pytest.mark.parametrize("hosts", [1, 2])
@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("discipline", ["readonly", "writeonly"])
def test_records_arrive_as_a_socket_delivers_them(
        tmp_path, discipline, codec, hosts):
    transducers = [KIND, IDENTITY, IDENTITY]
    direct, by_call = asyncio.run(hosted(discipline, transducers, codec,
                                         hosts))
    framed, by_frame = asyncio.run(hosted(discipline, transducers, codec,
                                          hosts, trace_dir=tmp_path))
    assert by_call < by_frame
    assert by_call == 0 or hosts > 1
    placed = asyncio.run(processes(discipline, transducers, codec,
                                   tmp_path / "processes"))
    expected = [delivered(KINDS[index % len(KINDS)], codec)
                for index in range(len(ITEMS))]
    for got in (direct, framed, placed):
        assert got == expected
        assert [shape(value) for value in got] == [
            shape(value) for value in expected]


@pytest.mark.parametrize("hosts", [1, 2])
@pytest.mark.parametrize("discipline", ["readonly", "writeonly"])
def test_a_failing_transducer_fails_the_same_stage_on_both_paths(
        tmp_path, discipline, hosts):
    def failure(trace_dir):
        with pytest.raises(HostError) as raised:
            asyncio.run(hosted(discipline, [IDENTITY, REFUSE, IDENTITY],
                               "json", hosts, trace_dir=trace_dir))
        return str(raised.value)

    direct, framed = failure(None), failure(tmp_path)
    assert direct == framed
    assert direct.startswith("stage 'filter2' spent its restart budget (0): "
                             "refused the fifth record ")
