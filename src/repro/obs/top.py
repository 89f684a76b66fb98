"""``eden-top``: live introspection of a running stage fleet.

Polls every stage's control port (``health`` + ``stats``) and renders
one row per stage: role, shard, uptime, request/reply counts, bytes
moved, credit-window occupancy, per-stage record throughput,
read-latency quantiles and the stage's CPU pin (``CPU`` — the planned core, suffixed ``?`` when the
pin did not take, e.g. off Linux).  A footer line aggregates the
fleet-wide frame-buffer pool hit rate when any stage exports
``bufpool_*`` gauges.  Point it at the ``fleet.json`` manifest
:func:`repro.net.launch.plan_linear_fleet` writes (``--fleet``), or at
explicit ``--stage host:port`` addresses.

``--once`` prints a single snapshot and exits — that mode is what the
tests drive; the default loops every ``--interval`` seconds until
interrupted.  Stages that have exited (connection refused) stay in the
table marked ``gone``, so a draining fleet is visible as it winds down.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.stats import Histogram
from repro.obs.control import ControlError, query

__all__ = ["StageRow", "gather_fleet", "render_fleet", "rows_payload", "main"]


@dataclass
class StageRow:
    """One stage's snapshot (or its absence) for the table."""

    label: str
    alive: bool = False
    role: str = "?"
    shard: str = "-"
    uptime_s: float = 0.0
    invocations: int = 0
    replies: int = 0
    bytes_moved: int = 0
    credit: str = "-"
    throughput: float | None = None
    read_p50_ms: float | None = None
    read_p95_ms: float | None = None
    #: Logical channels currently open (brokers and stage hosts).
    channels: str = "-"
    #: Stages hosted in-process (stage hosts only).
    hosted: str = "-"
    #: Planned CPU core ("3"), "3?" when the pin failed, "-" unpinned.
    cpu: str = "-"
    #: Flight recorder: "ful:12kB" / "dig:3kB" from the stage's
    #: ``health`` payload, "-" when recording is off.
    flight: str = "-"
    gauges: dict[str, float] = field(default_factory=dict)


def _row_from_payloads(
    label: str, health: dict[str, Any], stats: dict[str, Any]
) -> StageRow:
    counters = stats.get("counters", {})
    gauges = {str(k): float(v) for k, v in stats.get("gauges", {}).items()}
    row = StageRow(
        label=str(health.get("label", label)),
        alive=True,
        role=str(health.get("role", "?")),
        uptime_s=float(health.get("uptime_s", 0.0)),
        invocations=int(counters.get("invocations_sent", 0)),
        replies=int(counters.get("replies_sent", 0)),
        bytes_moved=(
            int(counters.get("bytes_sent", 0))
            + int(counters.get("bytes_received", 0))
        ),
        gauges=gauges,
    )
    if health.get("shard") is not None:
        row.shard = str(health["shard"])
    if "credit_available" in gauges and "credit_window" in gauges:
        row.credit = (
            f"{int(gauges['credit_available'])}/{int(gauges['credit_window'])}"
        )
    moved = max(
        int(counters.get("records_out", 0)), int(counters.get("records_in", 0))
    )
    if moved and row.uptime_s > 0:
        row.throughput = moved / row.uptime_s
    if health.get("channels_open") is not None:
        row.channels = str(int(health["channels_open"]))
    elif "mux_channels_open" in gauges:
        row.channels = str(int(gauges["mux_channels_open"]))
    if health.get("hosted") is not None:
        row.hosted = str(int(health["hosted"]))
    if health.get("cpu") is not None:
        row.cpu = str(int(health["cpu"]))
        if not health.get("pinned"):
            row.cpu += "?"
    flight = health.get("flight")
    if isinstance(flight, dict):
        row.flight = (
            f"{str(flight.get('mode', '?'))[:3]}:"
            f"{_si_bytes(int(flight.get('bytes', 0)))}"
        )
    histogram_data = stats.get("histograms", {}).get("read_rtt_ms")
    if isinstance(histogram_data, dict):
        try:
            histogram = Histogram.from_dict(histogram_data)
        except ValueError:
            histogram = None
        if histogram is not None and histogram.total:
            row.read_p50_ms = histogram.quantile(0.5)
            row.read_p95_ms = histogram.quantile(0.95)
    return row


def _si_bytes(count: int) -> str:
    """Compact byte count for the FLIGHT column (``824B``, ``3.2MB``)."""
    if count < 1024:
        return f"{count}B"
    if count < 1024 * 1024:
        return f"{count / 1024:.1f}kB"
    return f"{count / (1024 * 1024):.1f}MB"


def gather_fleet(
    targets: Sequence[tuple[str, str, int]], timeout: float = 2.0
) -> list[StageRow]:
    """Poll ``(label, host, port)`` control targets into table rows."""
    rows: list[StageRow] = []
    for label, host, port in targets:
        try:
            health = query(host, port, "health", timeout=timeout)
            stats = query(host, port, "stats", timeout=timeout)
        except ControlError:
            rows.append(StageRow(label=label, alive=False))
            continue
        rows.append(_row_from_payloads(label, health or {}, stats or {}))
    return rows


def render_fleet(rows: Sequence[StageRow]) -> str:
    """The fleet table as text (pure, so tests can assert on it)."""
    headers = ("STAGE", "ROLE", "SHARD", "UP", "INVOKES", "REPLIES", "BYTES",
               "CREDIT", "TPUT rec/s", "READ p50/p95",
               "CHAN", "HOST", "CPU", "FLIGHT")
    table: list[tuple[str, ...]] = [headers]
    for row in rows:
        if not row.alive:
            table.append((row.label, "gone") + ("-",) * (len(headers) - 2))
            continue
        latency = "-"
        if row.read_p50_ms is not None:
            latency = f"{row.read_p50_ms:g}/{row.read_p95_ms:g}ms"
        throughput = "-"
        if row.throughput is not None:
            throughput = f"{row.throughput:.1f}"
        table.append((
            row.label, row.role, row.shard, f"{row.uptime_s:.1f}s",
            str(row.invocations), str(row.replies), str(row.bytes_moved),
            row.credit, throughput, latency,
            row.channels, row.hosted, row.cpu, row.flight,
        ))
    widths = [
        max(len(line[column]) for line in table)
        for column in range(len(headers))
    ]
    rendered = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    ]
    footer = _pool_footer(rows)
    if footer:
        rendered.append(footer)
    return "\n".join(rendered)


def rows_payload(rows: Sequence[StageRow]) -> list[dict[str, Any]]:
    """The snapshot as JSON-safe dicts (``eden-top --json``'s output).

    One dict per stage, every :class:`StageRow` field included — the
    scripting surface mirrors the table exactly.
    """
    return [dataclasses.asdict(row) for row in rows]


def _pool_footer(rows: Sequence[StageRow]) -> str | None:
    """Fleet-wide frame-buffer pool line, or ``None`` without gauges."""
    hits = sum(row.gauges.get("bufpool_hits", 0.0) for row in rows)
    misses = sum(row.gauges.get("bufpool_misses", 0.0) for row in rows)
    if not hits and not misses:
        return None
    rate = hits / (hits + misses)
    return (f"bufpool: {rate:.0%} hit rate "
            f"({int(hits)} hits / {int(misses)} misses)")


def _targets_from_args(options: argparse.Namespace) -> list[tuple[str, str, int]]:
    targets: list[tuple[str, str, int]] = []
    if options.fleet:
        with open(options.fleet, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        host = manifest.get("host", "127.0.0.1")
        for stage in manifest.get("stages", []):
            port = stage.get("control_port")
            if port is None:
                continue
            label = f"{stage.get('role', '?')}#{stage.get('serial', '?')}"
            if stage.get("shard") is not None:
                label = f"s{stage['shard']}:{label}"
            targets.append((label, host, int(port)))
    for spec in options.stage or []:
        host, _sep, port = spec.rpartition(":")
        targets.append((spec, host or "127.0.0.1", int(port)))
    return targets


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="eden-top",
        description="Live table of a running eden-stage fleet.",
    )
    parser.add_argument("--fleet", default=None, metavar="FLEET_JSON",
                        help="fleet manifest written by plan_linear_fleet(control=True)")
    parser.add_argument("--stage", action="append", default=None,
                        metavar="HOST:PORT", help="explicit control address")
    parser.add_argument("--interval", type=float, default=1.0)
    parser.add_argument("--timeout", type=float, default=2.0)
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="one machine-readable snapshot (implies --once)")
    options = parser.parse_args(argv)
    targets = _targets_from_args(options)
    if not targets:
        parser.error("no control targets: give --fleet or --stage")
    if options.as_json:
        rows = gather_fleet(targets, timeout=options.timeout)
        print(json.dumps(rows_payload(rows), indent=2, sort_keys=True))
        return 0
    try:
        while True:
            rows = gather_fleet(targets, timeout=options.timeout)
            print(render_fleet(rows))
            if options.once:
                return 0
            print()
            time.sleep(max(0.1, options.interval))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
