"""A call budget for the READ→DATA round trip (cf. ``tests/core/test_call_budget.py``).

Wall-clock assertions flake on a shared runner; a count repeats exactly
where a clock does not.  This counts the Python-level ``call`` events
(``sys.setprofile``: function entries and coroutine resumptions) of the
``pull_rtt`` shape: a read-only source, three identity filters and a
reader driving them, all in one event loop over loopback, JSON codec,
batch 1, pipeline depth 1 — four READ→DATA round trips per record.  A
400-record run minus a 200-record run leaves the steady state: set-up,
handshakes and teardown cancel.

Measured per record, on a clone of 38ba7ce (before the frame protocol
and the per-frame diet): 922 calls on CPython 3.10 and 3.11, 906 on
3.12, 898 on 3.13.  With them: 524, 524, 516, 508.  The budget is
0.6 × 922.  Whoever re-adds a layer per frame — an enum call, a stream
reader, an await, a counter name built per frame — moves this number on
any machine.

When it fails, CI's "Round trip" step prints the calls per record and
what a record costs on that runner.
"""

import asyncio
import sys

from repro.net.handshake import TicketBook
from repro.net.protocol import RemoteReadable
from repro.net.stage import StageConfig, pick_free_ports, run_stage

FILTERS = 3

#: 0.6 × the 922 calls per record measured before the frame protocol.
MAX_CALLS_PER_RECORD = 553


async def chain(records):
    """source <- three identity filters <- this reader: ``(output, invocations)``."""
    ports = pick_free_ports(FILTERS + 1)
    configs = [StageConfig(role="source", discipline="readonly",
                           listen_port=ports[0], source_items=records)]
    configs += [
        StageConfig(role="filter", discipline="readonly", serial=index + 1,
                    listen_port=ports[index + 1],
                    upstream=("127.0.0.1", ports[index]))
        for index in range(FILTERS)
    ]
    stages = [asyncio.create_task(run_stage(config)) for config in configs]
    book = TicketBook()
    reader = RemoteReadable("127.0.0.1", ports[-1], uid=book.ticket(FILTERS + 1),
                            book=book)
    output = []
    while not (transfer := await reader.read(1)).at_end:
        output.extend(transfer.items)
    finished = await asyncio.gather(*stages)
    invocations = reader.stats.get("invocations_sent") + sum(
        stage.stats.get("invocations_sent") for stage in finished)
    return output, invocations


def calls_for(count):
    """``(Python calls, invocations)`` of one run over ``count`` records."""
    records = [f"rec-{index:05d}" for index in range(count)]
    calls = 0

    def count_calls(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    loop = asyncio.new_event_loop()
    loop.set_debug(False)  # -X dev's debug mode wraps every callback: not ours to count
    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        output, invocations = loop.run_until_complete(chain(records))
    finally:
        sys.setprofile(previous)
        loop.close()
    assert output == records
    return calls, invocations


def calls_per_record():
    """Steady-state Python calls per record: (400-run − 200-run) / 200."""
    small, small_invocations = calls_for(200)
    large, large_invocations = calls_for(400)
    # (n + 1)(m + 1): the count the paper predicts cannot move.
    assert small_invocations == 4 * (200 + 1)
    assert large_invocations == 4 * (400 + 1)
    return (large - small) / 200


def test_the_round_trip_stays_within_budget():
    per_record = calls_per_record()
    assert per_record <= MAX_CALLS_PER_RECORD, (
        f"{per_record:.1f} Python calls per record over four READ→DATA "
        f"round trips (budget {MAX_CALLS_PER_RECORD})"
    )
