"""Sample statistics, spans and the compare verdict.

Pure functions over plain numbers — nothing here imports ``repro`` — so
the self-tests can check them on hand-built inputs.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation between
    order statistics (the "inclusive" definition: q=0 is the minimum,
    q=1 the maximum)."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (the driver's definition); one value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def spread(summary: dict[str, float]) -> float:
    """IQR as a share of the median (0 when the median is 0)."""
    if not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


class SpanRecorder:
    """Spans around the calls the harness makes into each layer.

    Kept in memory, written out at exit.  Spans nest by call order (the
    harness has one driver, so a stack is enough); a disabled recorder
    costs one attribute test per ``span()``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self.sample: Any = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "id": index, "name": name, "sample": self.sample,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: Sequence[dict[str, Any]]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of its
    interval that its child spans cover (overlapping children are
    merged, children are clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def self_time_by_name(spans: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


# ---------------------------------------------------------------------------
# Comparing two runs of one metric.
# ---------------------------------------------------------------------------


def verdict(old: dict[str, float], new: dict[str, float],
            better: str, bound: float) -> str:
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved``.

    ``bound == 0`` marks an exact count: any difference is a verdict.
    Otherwise a run whose IQR is wider than the bound cannot resolve a
    change of that size, so the row is ``unresolved`` — unless every
    sample of one run beats every sample of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["median"] - old["median"])
    if bound == 0.0:
        if worsening == 0:
            return "unchanged"
        return "worse" if worsening > 0 else "better"
    base = abs(old["median"])
    if not base:
        return "unchanged" if not worsening else "unresolved"
    if max(spread(old), spread(new)) > bound:
        if better == "lower":
            if new["max"] < old["min"]:
                return "better"
            if new["min"] > old["max"]:
                return "worse"
        else:
            if new["min"] > old["max"]:
                return "better"
            if new["max"] < old["min"]:
                return "worse"
        return "unresolved"
    if worsening / base > bound:
        return "worse"
    if -worsening / base > bound:
        return "better"
    return "unchanged"
