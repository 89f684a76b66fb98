"""Call budgets for a hosted hop (cf. ``tests/net/test_rtt_call_budget.py``).

Wall-clock assertions flake on a shared runner; a count repeats exactly
where a clock does not.  This counts the Python-level ``call`` and
``c_call`` events (``sys.setprofile``: function entries, coroutine
resumptions and calls into C) of the ``hosted_chain`` shape: an
in-process broker and one :class:`~repro.broker.host.StageHost` running
a read-only source, three identity filters and a sink in one event
loop, JSON codec, batch 1.  A 400-record run minus a 200-record run
leaves the steady state: set-up, registration, handshakes and teardown
cancel.  Both budgets are about 10% over the count they were set at.

- **The spliced hop** (every stage with ``resume=True``, which keeps
  every route on frames): each record is four READ→DATA round trips,
  eight frames handed from channel to channel without touching a
  socket.  Per record on CPython 3.11: 1 049 events while a spliced
  channel re-addressed every sent frame's bytes and decoded them again
  into an ``asyncio.Queue`` inbox; 741 (852 under resume) since it hands
  the sent frame over into a ``deque`` inbox.
- **The direct hop** (the plain shape): once admitted, each of the four
  same-host routes streams by direct calls, so only the handshakes are
  spliced frames and a read at the sink runs down the chain in one
  task.  61 events per record on CPython 3.11.

Whoever puts a copy, a decode or a queue back on the spliced hop, or a
frame, a task switch or a wrapper on the direct one, moves its number
on any machine.
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

#: About 1.1 × the 852 events per record of the frame handoff under resume.
MAX_SPLICED_EVENTS_PER_RECORD = 937
#: About 1.1 × the 61 events per record of the direct hop.
MAX_DIRECT_EVENTS_PER_RECORD = 67


def chain_stages(records, resume=False):
    """source <- three identity filters <- sink, peers named for the broker."""
    common = dict(discipline="readonly", ticket_space=BOOK_ARGS["space"],
                  ticket_seed=BOOK_ARGS["seed"], connect_deadline=5.0,
                  resume=resume)
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


async def hosted_chain(records, resume=False):
    """``(sink output, host stats, relayed frames)`` of one run over ``records``."""
    broker = Broker(TicketBook(**BOOK_ARGS))
    await broker.start()
    host = StageHost(HostConfig(broker_host=broker.host,
                                broker_port=broker.port,
                                stages=chain_stages(records, resume)))
    try:
        await asyncio.wait_for(host.run(), timeout=60.0)
    finally:
        await broker.close()
    output = next(stage.collected for stage in host.stages
                  if stage.config.role == "sink")
    return output, host.stats, broker.stats.get("relayed_frames")


def events_for(count, resume):
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
        output, stats, relayed = loop.run_until_complete(hosted_chain(records, resume))
    finally:
        sys.setprofile(previous)
        loop.close()
    assert output == records
    assert relayed == 0  # every route was spliced
    return events, stats.get("mux_frames_spliced")


def events_per_record(resume):
    """``(steady-state events per record, spliced frames per record,
    spliced frames of the smaller run)``: (400-run − 200-run) / 200."""
    small, small_spliced = events_for(200, resume)
    large, large_spliced = events_for(400, resume)
    return ((large - small) / 200, (large_spliced - small_spliced) / 200,
            small_spliced)


def test_the_spliced_hop_stays_within_budget():
    per_record, spliced, _small = events_per_record(resume=True)
    # Eight frames per record: a READ and a DATA on each of four routes.
    assert spliced == 8
    assert per_record <= MAX_SPLICED_EVENTS_PER_RECORD, (
        f"{per_record:.1f} Python call events per record over four spliced "
        f"READ→DATA round trips (budget {MAX_SPLICED_EVENTS_PER_RECORD})"
    )


def test_the_direct_hop_stays_within_budget():
    per_record, spliced, small = events_per_record(resume=False)
    # No frame per record; a HELLO and a WELCOME on each of four routes.
    assert spliced == 0
    assert small == 2 * 4
    assert per_record <= MAX_DIRECT_EVENTS_PER_RECORD, (
        f"{per_record:.1f} Python call events per record over four direct "
        f"READ→DATA calls (budget {MAX_DIRECT_EVENTS_PER_RECORD})"
    )
