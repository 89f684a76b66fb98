"""On-wire counters shaped like the simulator's ``KernelStats``.

The paper's quantitative claims are about message counts, so the net
runtime counts exactly what crosses a socket: frames by type and
direction, bytes, and — the headline numbers — ``invocations_sent``
and ``replies_sent``, using the same request/reply split the simulated
kernel uses:

- a ``READ`` is always a request (active input's demand);
- a ``WRITE`` is always a request (active output's push);
- an ``END`` is a request when *pushed* by a writer (it is the
  write-only discipline's final Write) and a reply when it answers a
  ``READ``;
- ``DATA`` and ``ACK`` are replies.

Summing ``invocations_sent`` over every stage of a pipeline reproduces
:func:`repro.analysis.cost_model.predicted_invocations` on real
traffic: ``(n+1)(m+1)`` for the asymmetric disciplines and
``(2n+2)(m+1)`` for the conventional emulation — the integration tests
check this exactly.
"""

from __future__ import annotations

import json
from typing import IO, Union

from repro.core.stats import KernelStats, StatsSnapshot
from repro.net.framing import Frame, FrameType

__all__ = ["NetStats", "merge_stats", "REQUEST_TYPES", "REPLY_TYPES"]

#: Frame types that are always requests (invocations).
REQUEST_TYPES = frozenset({FrameType.READ, FrameType.WRITE})
#: Frame types that are always replies.
REPLY_TYPES = frozenset({FrameType.DATA, FrameType.ACK, FrameType.WELCOME})

#: Frame type -> its per-type counter names, spelled once.
_SENT = {kind: f"{kind.name.lower()}_frames_sent" for kind in FrameType}
_RECEIVED = {kind: f"{kind.name.lower()}_frames_received" for kind in FrameType}
#: Frame type -> the request/reply counter a sent frame adds to (END aside).
_SENT_AS = {**dict.fromkeys(REQUEST_TYPES, "invocations_sent"),
            **dict.fromkeys(REPLY_TYPES, "replies_sent")}


class NetStats(KernelStats):
    """Monotone on-wire counters for one stage (or one connection).

    Counter names: ``frames_sent`` / ``frames_received`` (totals),
    ``<type>_frames_sent`` / ``<type>_frames_received`` per frame
    type (lowercase), ``bytes_sent`` / ``bytes_received``, plus the
    kernel-compatible ``invocations_sent`` / ``replies_sent``.
    """

    def note_sent(self, frame: Frame, wire_bytes: int,
                  end_is_request: bool = False) -> None:
        """Account one outgoing frame of ``wire_bytes`` bytes.

        ``end_is_request`` tells the END ambiguity apart: pass True on
        push connections (writer side), False on pull replies.
        """
        counters = self.counters
        counters["frames_sent"] += 1
        counters[_SENT[frame.type]] += 1
        counters["bytes_sent"] += wire_bytes
        kind = _SENT_AS.get(frame.type)
        if frame.type is FrameType.END:
            kind = "invocations_sent" if end_is_request else "replies_sent"
        if kind is not None:
            counters[kind] += 1

    def note_received(self, frame: Frame, wire_bytes: int) -> None:
        """Account one incoming frame."""
        counters = self.counters
        counters["frames_received"] += 1
        counters[_RECEIVED[frame.type]] += 1
        counters["bytes_received"] += wire_bytes

    # -- persistence (stages dump these for the orchestrator) ---------------

    def to_json(self) -> str:
        """Serialize every instrument as a JSON object.

        The structured ``{"counters", "gauges", "histograms"}`` payload
        of :func:`repro.obs.registry.snapshot_payload`; gauges and
        histograms survive the round trip instead of being dropped.
        """
        from repro.obs.registry import snapshot_payload

        return json.dumps(snapshot_payload(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetStats":
        """Rebuild a stats object from :meth:`to_json` output.

        Accepts the structured payload and the legacy flat
        ``{name: count}`` form.  Values are validated, never silently
        truncated: a counter of ``3.5`` raises ``ValueError`` (the old
        ``int(value)`` would have quietly recorded 3).
        """
        from repro.obs.registry import stats_from_payload

        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(
                f"stats payload must be an object, got {type(payload).__name__}"
            )
        stats = cls()
        stats_from_payload(payload, into=stats)
        return stats

    def dump(self, sink: Union[str, IO[str]]) -> None:
        """Write :meth:`to_json` to a path or open text file."""
        if isinstance(sink, str):
            with open(sink, "w", encoding="utf-8") as handle:
                handle.write(self.to_json())
        else:
            sink.write(self.to_json())


def merge_stats(*parts: KernelStats) -> NetStats:
    """Sum counters (and fold histograms) across stages.

    Gauges are point-in-time and per-stage, so they do not merge;
    histograms merge exactly (shared bucket edges are part of the
    data), giving fleet-wide latency distributions.
    """
    from repro.core.stats import Histogram

    total = NetStats()
    for part in parts:
        snapshot: StatsSnapshot = part.snapshot()
        for name, value in snapshot.as_dict().items():
            total.bump(name, value)
        for name, histogram in part.histograms().items():
            # Copy via the dict round trip so the merged total never
            # aliases (and later mutates) a stage's own histogram.
            total.install_histogram(name, Histogram.from_dict(histogram.as_dict()))
    return total
