"""A call budget for the asyncio hop.

Wall-clock assertions flake on a shared runner; a count that repeats
exactly does not.  This counts the Python-level ``call`` events
(``sys.setprofile``: function entries and coroutine resumptions) of
2 000 records through 3 identity filters at batch 1, per discipline,
and divides by the invocations the segment sent.  A read-only hop is
the stage's ``read``, the transducer's ``step`` and ``Transfer.of``;
whoever puts a layer between two stages again (a counting wrapper, a
per-read helper) moves this number, on any machine, in milliseconds.
"""

import asyncio
import sys

import pytest

from repro.aio.pipeline import RUNNERS
from repro.core.stats import KernelStats
from repro.transput.filterbase import identity_transducer

RECORDS = [f"rec-{index}" for index in range(2000)]

#: discipline -> (exact invocations, calls-per-invocation budget).  The
#: budgets are the values measured on CPython 3.11 when every endpoint
#: began counting its own invocations (3.50 / 3.75 / 12.26; 9.25 / 9.50
#: / 18.05 before) plus ~15% for interpreter differences, not for new
#: layers.  The invocations are C1/C2's (n+1)(m+1) and (2n+2)(m+1).
BUDGETS = {
    "readonly": (4 * 2001, 4.03),
    "writeonly": (4 * 2001, 4.31),
    "conventional": (8 * 2001, 14.10),
}


@pytest.mark.parametrize("discipline", sorted(BUDGETS))
def test_calls_per_invocation_stay_within_budget(discipline):
    stats = KernelStats()
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    async def counted() -> list:
        previous = sys.getprofile()
        sys.setprofile(count_calls)
        try:
            return await RUNNERS[discipline](
                RECORDS, [identity_transducer() for _ in range(3)],
                batch=1, stats=stats)
        finally:
            sys.setprofile(previous)

    assert asyncio.run(counted()) == RECORDS
    expected, budget = BUDGETS[discipline]
    invocations = stats.get("invocations_sent")
    assert invocations == expected  # the paper's count cannot move
    assert calls / invocations <= budget, (
        f"{calls / invocations:.2f} Python calls per invocation "
        f"(budget {budget})"
    )
