"""A call budget for the spliced hop (cf. ``tests/net/test_rtt_call_budget.py``).

Wall-clock assertions flake on a shared runner; a count repeats exactly
where a clock does not.  This counts the Python-level ``call`` and
``c_call`` events (``sys.setprofile``: function entries, coroutine
resumptions and calls into C) of the ``hosted_chain`` shape: an
in-process broker and one :class:`~repro.broker.host.StageHost` running
a read-only source, three identity filters and a sink in one event
loop, JSON codec, batch 1.  Every one of the four routes is spliced, so
each record is four READ→DATA round trips, eight frames handed from
channel to channel without touching a socket.  A 400-record run minus a
200-record run leaves the steady state: set-up, registration,
handshakes and teardown cancel.

Measured per record on CPython 3.11: 1 049 events while a spliced
channel re-addressed every sent frame's bytes and decoded them again
into an ``asyncio.Queue`` inbox; 741 since it hands the sent frame
over into a ``deque`` inbox.  The budget is about 10% over the latter.
Whoever puts a copy, a decode or a queue back on the spliced hop moves
this number on any machine.
"""

import asyncio
import sys

from repro.broker.daemon import Broker
from repro.broker.host import HostConfig, StageHost
from repro.net.handshake import TicketBook
from repro.net.launch import IDENTITY
from repro.net.stage import StageConfig

BOOK_ARGS = dict(space=7, seed=31)
FILTERS = 3

#: About 1.1 × the 741 events per record measured with the frame handoff.
MAX_EVENTS_PER_RECORD = 815


def chain_stages(records):
    """source <- three identity filters <- sink, peers named for the broker."""
    common = dict(discipline="readonly", ticket_space=BOOK_ARGS["space"],
                  ticket_seed=BOOK_ARGS["seed"], connect_deadline=5.0)
    names = ["source"] + [f"filter{n}" for n in range(1, FILTERS + 1)]
    stages = [StageConfig(name="source", role="source",
                          source_items=list(records), **common)]
    stages += [
        StageConfig(name=name, role="filter", transducer_spec=IDENTITY[0],
                    upstream=upstream, **common)
        for upstream, name in zip(names, names[1:])
    ]
    stages.append(StageConfig(name="sink", role="sink", upstream=names[-1],
                              **common))
    return stages


async def hosted_chain(records):
    """``(sink output, host stats, relayed frames)`` of one run over ``records``."""
    broker = Broker(TicketBook(**BOOK_ARGS))
    await broker.start()
    host = StageHost(HostConfig(broker_host=broker.host,
                                broker_port=broker.port,
                                stages=chain_stages(records)))
    try:
        await asyncio.wait_for(host.run(), timeout=60.0)
    finally:
        await broker.close()
    output = next(stage.collected for stage in host.stages
                  if stage.config.role == "sink")
    return output, host.stats, broker.stats.get("relayed_frames")


def events_for(count):
    """``(profile events, spliced frames)`` of one run over ``count`` records."""
    records = [f"rec-{index:05d}" for index in range(count)]
    events = 0

    def count_events(_frame, event, _arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1

    loop = asyncio.new_event_loop()
    loop.set_debug(False)  # -X dev's debug mode wraps every callback: not ours to count
    previous = sys.getprofile()
    sys.setprofile(count_events)
    try:
        output, stats, relayed = loop.run_until_complete(hosted_chain(records))
    finally:
        sys.setprofile(previous)
        loop.close()
    assert output == records
    assert relayed == 0  # every route was spliced
    return events, stats.get("mux_frames_spliced")


def events_per_record():
    """Steady-state events per record: (400-run − 200-run) / 200."""
    small, small_spliced = events_for(200)
    large, large_spliced = events_for(400)
    # Eight frames per record: a READ and a DATA on each of four routes.
    assert large_spliced - small_spliced == 8 * 200
    return (large - small) / 200


def test_the_spliced_hop_stays_within_budget():
    per_record = events_per_record()
    assert per_record <= MAX_EVENTS_PER_RECORD, (
        f"{per_record:.1f} Python call events per record over four spliced "
        f"READ→DATA round trips (budget {MAX_EVENTS_PER_RECORD})"
    )
