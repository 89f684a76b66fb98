"""Flow-control policy for pipelines (paper §4's laziness discussion).

"Laziness, however, is not desirable in a system which permits parallel
execution.  Instead, one would prefer that each Eject does a certain
amount of computation in advance ... In this way all the Ejects in a
pipeline can run concurrently."

A :class:`FlowPolicy` bundles the knobs that govern how eagerly data
moves: per-filter lookahead (anticipatory buffering), the Read batch
size, and the passive-buffer capacity used in the conventional
discipline.  Experiment T4 sweeps the lookahead and shows the
serialization → pipeline-parallel transition the paper predicts.

One addition serves the TCP data plane: ``pipeline_depth`` lets an
active reader keep several READ requests in flight (overlapping the
round trip that otherwise stalls every batch).  Every knob is fixed
for the run, so every edge's invocation count is predictable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class FlowPolicy:
    """How eagerly a pipeline moves data.

    Attributes:
        lookahead: records each read-only filter computes in advance
            (0 = pure lazy / demand-driven).
        batch: records per Read/Write invocation (1 matches the paper's
            one-invocation-per-datum accounting).
        buffer_capacity: capacity of conventional-discipline pipes.
        inbox_capacity: write-only filters' input queue bound
            (``None`` = unbounded).
        credit_window: explicit record credit a passive input grants a
            remote pusher (``None`` = derive it; see
            :meth:`effective_credit_window`).  This is the harmonised
            name every layer uses — :class:`repro.api.Pipeline`,
            ``eden-stage --credit-window``, and this policy all mean
            the same number by it.
        pipeline_depth: READ requests an active reader keeps in flight
            over TCP (``None`` = derive; see
            :meth:`effective_pipeline_depth`).  1 is the paper's
            strict request/response alternation; deeper overlaps the
            round trip without changing pull semantics.
    """

    lookahead: int = 0
    batch: int = 1
    buffer_capacity: int | None = 64
    inbox_capacity: int | None = None
    credit_window: int | None = None
    pipeline_depth: int | None = None

    #: Pure demand-driven flow: nothing moves until the sink asks.
    @staticmethod
    def lazy() -> "FlowPolicy":
        """Demand-driven: no anticipatory work anywhere."""
        return FlowPolicy(lookahead=0)

    @staticmethod
    def eager(lookahead: int = 8) -> "FlowPolicy":
        """Anticipatory: each filter keeps ``lookahead`` records ready."""
        return FlowPolicy(lookahead=lookahead)

    def with_batch(self, batch: int) -> "FlowPolicy":
        """The same policy moving ``batch`` records per invocation."""
        return replace(self, batch=batch)

    def with_credit_window(self, credit_window: int | None) -> "FlowPolicy":
        """The same policy with an explicit push credit window."""
        return replace(self, credit_window=credit_window)

    def effective_credit_window(self) -> int:
        """Initial record credit a passive input grants a remote pusher.

        This is how the policy maps onto the TCP runtime
        (:mod:`repro.net`): an explicit ``credit_window`` wins; a
        bounded inbox bounds the in-flight records directly; otherwise
        the window is ``max(lookahead, batch)`` — the lookahead knob
        plays the same anticipatory role it plays for read-only
        prefetch, and a fully lazy policy degenerates to *one
        invocation* in flight (``batch`` records in one WRITE, one ACK
        back): the synchronous push at the granularity the paper
        counts, and 1 record when ``batch`` is 1.
        """
        if self.credit_window is not None:
            return self.credit_window
        if self.inbox_capacity is not None:
            return self.inbox_capacity
        return max(self.lookahead, self.batch)

    def effective_pipeline_depth(self) -> int:
        """READ requests an active reader keeps in flight over TCP.

        Explicit ``pipeline_depth`` wins; otherwise the lookahead knob
        plays its anticipatory role here too (capped at the credit
        window's scale); fully lazy degenerates to 1 — the strict
        READ→DATA alternation whose invocation counts match the paper.
        """
        if self.pipeline_depth is not None:
            return self.pipeline_depth
        if self.lookahead > 0:
            return self.lookahead
        return 1

    def with_pipeline_depth(self, pipeline_depth: int | None) -> "FlowPolicy":
        """The same policy keeping ``pipeline_depth`` READs in flight."""
        return replace(self, pipeline_depth=pipeline_depth)

    def describe(self) -> dict[str, object]:
        """JSON-safe summary for introspection (HEALTH, ``eden-top``)."""
        return {
            "lookahead": self.lookahead,
            "batch": self.batch,
            "buffer_capacity": self.buffer_capacity,
            "inbox_capacity": self.inbox_capacity,
            "credit_window": self.effective_credit_window(),
            "pipeline_depth": self.effective_pipeline_depth(),
        }

    def __post_init__(self) -> None:
        if self.lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {self.lookahead}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1 or None, got {self.buffer_capacity}"
            )
        if self.inbox_capacity is not None and self.inbox_capacity < 1:
            raise ValueError(
                f"inbox_capacity must be >= 1 or None, got {self.inbox_capacity}"
            )
        if self.credit_window is not None and (
            not isinstance(self.credit_window, int) or self.credit_window < 1
        ):
            raise ValueError(
                f"credit_window must be >= 1 or None, got {self.credit_window}"
            )
        if self.pipeline_depth is not None and (
            not isinstance(self.pipeline_depth, int) or self.pipeline_depth < 1
        ):
            raise ValueError(
                f"pipeline_depth must be >= 1 or None, got {self.pipeline_depth}"
            )


def shard_of(record: Any, shards: int) -> int:
    """Stable shard index for ``record`` in a ``shards``-way partition.

    Hashes the record's repr with crc32 so the partition is stable
    across processes and runs (Python's builtin ``hash`` is salted per
    process, which would scatter a datum to a different shard on every
    retry).  Used by :class:`repro.api.Pipeline` when ``shards > 1``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return 0
    return zlib.crc32(repr(record).encode("utf-8")) % shards
