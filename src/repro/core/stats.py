"""Kernel instrumentation: counters, gauges and histograms.

The paper's quantitative claims are about *counts*: invocations per
datum, Ejects per pipeline, process switches saved.  The kernel feeds a
:class:`KernelStats` instance, and benchmarks snapshot/diff it around a
measured region.

Beyond the monotone counters the seed shipped with, stats now carry
two more instrument kinds the observability layer exposes
(:mod:`repro.obs.registry` renders all three as Prometheus text and
JSON):

- **gauges** — point-in-time values that go up and down (credit-window
  occupancy, queue depths);
- **histograms** — fixed-bucket distributions (frame latency, per-hop
  service time), cheap to merge across stages because the bucket
  edges are part of the data.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Sequence

#: Default bucket upper bounds for latency-style histograms, in
#: milliseconds.  Roughly logarithmic from 50µs to 2.5s; everything
#: above the last edge lands in the implicit +Inf bucket.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class Histogram:
    """A fixed-bucket histogram (Prometheus semantics).

    ``bounds`` are the inclusive upper edges of each bucket; one extra
    implicit bucket catches everything above the last edge.  Counts
    are cumulative only at exposition time — internally each bucket
    holds its own tally so merges are plain elementwise sums.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS) -> None:
        edges = tuple(float(edge) for edge in bounds)
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"bucket edges must be strictly increasing: {edges}")
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)  # + the +Inf bucket
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the ``q``-th observation).

        Returns ``0.0`` on an empty histogram; observations above the
        last edge report the last edge (the +Inf bucket has no upper
        bound to return).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = max(1, round(q * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]  # pragma: no cover - unreachable

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bucket edges must match)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form (exact round trip via :meth:`from_dict`)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Histogram":
        """Rebuild from :meth:`as_dict` output (validating shape)."""
        bounds = data.get("bounds")
        counts = data.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            raise ValueError(f"malformed histogram payload: {data!r}")
        histogram = cls(bounds)
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"histogram counts length {len(counts)} does not match "
                f"{len(bounds)} bucket edges"
            )
        histogram.counts = [_as_count(value) for value in counts]
        histogram.total = sum(histogram.counts)
        histogram.sum = float(data.get("sum", 0.0))
        return histogram

    def __repr__(self) -> str:
        return f"Histogram(n={self.total}, sum={self.sum:g})"


def _as_count(value: Any) -> int:
    """Validate one bucket count: a non-negative integral number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"histogram count must be a number, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"histogram count must be integral, got {value!r}")
    count = int(value)
    if count < 0:
        raise ValueError(f"histogram count must be >= 0, got {count}")
    return count


@dataclass
class StatsSnapshot:
    """Immutable copy of the counters at one instant."""

    counters: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.counters.get(name, 0)

    def diff(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """Return this snapshot minus an earlier one, per counter."""
        names = set(self.counters) | set(earlier.counters)
        return StatsSnapshot(
            {name: self[name] - earlier[name] for name in sorted(names)}
        )

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (a copy) of the counters."""
        return dict(self.counters)


class KernelStats:
    """Counters, gauges and histograms maintained by the kernel and
    transports.

    Counter names used by the core (others may be added by subsystems):

    - ``invocations_sent`` — invocation messages handed to the transport;
    - ``replies_sent`` — reply messages handed to the transport;
    - ``local_messages`` / ``remote_messages`` — per transport hop kind;
    - ``bytes_transferred`` — modelled payload bytes moved.  The kernel
      estimates a message's size only when the transport charges for
      it, so the counter is present only in simulations whose
      :class:`~repro.core.transport.TransportCosts` set a bandwidth;
    - ``context_switches`` — process resumptions by the scheduler;
    - ``ejects_created`` — Ejects instantiated;
    - ``ejects_activated`` — passive Ejects reactivated by the kernel;
    - ``checkpoints`` — passive representations written;
    - ``events_processed`` — timed events popped by the scheduler.

    ``counters`` is the live name -> value table.  The scheduler and the
    transport, which count on every step and message, add to an entry
    in place (``stats.counters["context_switches"] += 1``);
    :meth:`bump` is the checked door for everyone else.
    """

    def __init__(self) -> None:
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- counters (monotone) --------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (which must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters are monotone; got {amount} for {name}")
        self.counters[name] += amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self.counters.get(name, 0)

    def snapshot(self) -> StatsSnapshot:
        """Copy all counters for later diffing."""
        return StatsSnapshot(dict(self.counters))

    def names(self) -> list[str]:
        """Sorted list of counters that have been bumped at least once."""
        return sorted(self.counters)

    # -- gauges (point-in-time, may go up and down) ----------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self._gauges[name] = float(value)

    def get_gauge(self, name: str, default: float = 0.0) -> float:
        """Current value of gauge ``name`` (``default`` if never set)."""
        return self._gauges.get(name, default)

    def gauges(self) -> dict[str, float]:
        """All gauges (a copy), by name."""
        return dict(self._gauges)

    # -- histograms ------------------------------------------------------

    def observe(
        self, name: str, value: float,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        """Record ``value`` into histogram ``name`` (created on first use
        with the given bucket ``bounds``)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        """The histogram called ``name``, or ``None`` if never observed."""
        return self._histograms.get(name)

    def install_histogram(self, name: str, histogram: Histogram) -> None:
        """Adopt ``histogram`` under ``name``, merging into any existing
        one (used when rebuilding stats from a dump)."""
        existing = self._histograms.get(name)
        if existing is None:
            self._histograms[name] = histogram
        else:
            existing.merge(histogram)

    def histograms(self) -> dict[str, Histogram]:
        """All histograms (a shallow copy), by name."""
        return dict(self._histograms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"KernelStats({inner})"
