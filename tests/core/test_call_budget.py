"""A call budget for the simulated kernel's step path.

Wall-clock assertions flake on a shared runner; a count that repeats
exactly does not.  This counts the Python-level ``call`` events
(``sys.setprofile``: function entries and generator resumptions) of one
fixed read-only pipeline and divides by the invocations it sent.  The
step path is one call into the process and one into a syscall handler;
whoever re-adds a layer of indirection around it moves this number, on
any machine, in milliseconds.
"""

import sys

from repro.core.kernel import Kernel
from repro.transput.filterbase import identity_transducer
from repro.transput.pipeline import compose_segment

#: Measured 43.1 on CPython 3.11 and 3.13 once each Eject on the lazy
#: read-only path served in one loop — 62.6 (3.10/3.11) and 61.8
#: (3.12/3.13) before, 162.4 before the one-frame step path.  The
#: budget leaves ~15% for interpreter differences, not for new layers.
MAX_CALLS_PER_INVOCATION = 49


def test_calls_per_invocation_stay_within_budget():
    kernel = Kernel()
    pipeline = compose_segment(
        kernel, "readonly", [f"rec-{index}" for index in range(200)],
        [identity_transducer(f"f{index}") for index in range(3)],
    )
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        pipeline.run_to_completion()
    finally:
        sys.setprofile(previous)
    invocations = pipeline.invocations_used()
    assert invocations == 4 * 201  # (n + 1)(m + 1): the count cannot move
    assert calls / invocations <= MAX_CALLS_PER_INVOCATION, (
        f"{calls / invocations:.1f} Python calls per invocation "
        f"(budget {MAX_CALLS_PER_INVOCATION})"
    )
