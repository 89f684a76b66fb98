"""CPU core placement for process fleets (Linux affinity, portable no-op).

A sharded fleet only scales when its shards actually run on different
cores.  Left to the scheduler, a burst of short-lived Python processes
tends to stampede: every stage of every shard wakes on the same few
cores, and the 4-shard curve *regresses* (the committed
BENCH_dataplane.json measured 0.58x).  Pinning each shard's sub-fleet
to one core keeps a shard's stages sharing an L1/L2 and its socket
wakeups local, while different shards own different cores — the
process-parallel placement the T14 benchmark measures.

Everything here degrades gracefully: on platforms without
``os.sched_setaffinity`` (macOS, Windows) pinning is a recorded no-op,
and planners fall back to unpinned placement when the machine has a
single core (pinning everything to cpu0 would only add syscalls).

Placement policies (the ``placement_policy`` knob of
:meth:`repro.api.Pipeline.run`, which pins a sharded pipeline's
sub-fleets and the hosted placement's stage hosts):

- ``"cores"`` (default) — shard *i* is pinned to core
  ``available[i % len(available)]``; with fewer shards than cores each
  shard owns a core outright.
- ``"none"`` — no pinning; the pre-PR-7 behaviour.
"""

from __future__ import annotations

import os

__all__ = [
    "PLACEMENT_POLICIES",
    "available_cores",
    "assign_cores",
    "pin_to_core",
    "current_affinity",
]

#: The shard-placement policies the planners accept.
PLACEMENT_POLICIES = ("cores", "none")


def available_cores() -> list[int]:
    """The CPU ids this process may run on, sorted.

    Uses the scheduler affinity mask where available (it respects
    cgroup/container limits, unlike ``os.cpu_count``), falling back to
    ``range(os.cpu_count())``.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return sorted(os.sched_getaffinity(0))
        except OSError:
            pass
    return list(range(os.cpu_count() or 1))


def assign_cores(
    shards: int,
    policy: str = "cores",
    cores: list[int] | None = None,
) -> list[int | None]:
    """Pick a core per shard, or ``None`` entries when pinning is off.

    Round-robin over the available cores: with ``shards <= cores``
    every shard owns a core; beyond that cores are shared in order,
    which still keeps any one shard's stages co-located.  A single-core
    machine (or ``policy="none"``) yields all-``None`` — the planner
    then emits no ``--cpu`` flags at all, so the planned command lines
    are byte-identical to the unpinned ones.
    """
    if policy not in PLACEMENT_POLICIES:
        raise ValueError(
            f"placement_policy must be one of {PLACEMENT_POLICIES}, "
            f"got {policy!r}"
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if cores is None:
        cores = available_cores()
    if policy == "none" or len(cores) < 2:
        return [None] * shards
    return [cores[index % len(cores)] for index in range(shards)]


def pin_to_core(core: int | None) -> bool:
    """Pin the calling process to ``core``; True when it took effect.

    ``None``, an unknown core id, or a platform without
    ``sched_setaffinity`` all return False instead of raising — a
    fleet planned on one machine must still *run* anywhere.
    """
    if core is None or not hasattr(os, "sched_setaffinity"):
        return False
    try:
        os.sched_setaffinity(0, {int(core)})
        return True
    except (OSError, ValueError):
        return False


def current_affinity() -> list[int] | None:
    """The current affinity mask, or ``None`` where unsupported."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    try:
        return sorted(os.sched_getaffinity(0))
    except OSError:
        return None
