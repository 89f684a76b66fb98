"""Host-side workload generation: needs nothing of the simulator.

Fleet callers build the records they hand a planner's
``source_items`` here, without importing the Eject machinery behind
:mod:`repro.devices.sources`.
"""

from __future__ import annotations

import random


def random_lines(count: int, width: int = 8, seed: int = 0) -> list[str]:
    """Host-side version of :class:`~repro.devices.sources.RandomSource`
    for building workloads."""
    rng = random.Random(f"random-lines:{seed}")
    vocabulary = [
        "stream", "eject", "kernel", "filter", "invoke", "reply",
        "read", "write", "buffer", "channel", "active", "passive",
    ]
    return [
        " ".join(rng.choice(vocabulary) for _ in range(width))
        for _ in range(count)
    ]
