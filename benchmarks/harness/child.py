"""One workload in one fresh interpreter.

``run.py`` starts this module's :func:`main` in a child process per
workload (sim throughput decays over back-to-back runs in one process,
and ``peak_rss_mb`` must be per workload).  The child measures, checks
every output, and writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from typing import Any, Sequence

import ladder
from spec import (
    BY_NAME,
    FILTERS,
    LADDER_RECORDS,
    LADDER_REPS,
    METRICS,
    MIN_SAMPLES,
    SETUP_SAMPLES,
    Workload,
)
from stats import SpanRecorder, quantile, self_time_by_name, summarize
from workloads import make_records, predicted, run_sample


class Run:
    """The samples of one child run and what they add up to."""

    def __init__(self, workload: Workload, seed: int, quick: bool,
                 workdir: str, tamper_how: str | None) -> None:
        self.workload = workload
        self.n = workload.quick_n if quick else workload.n
        self.quick = quick
        self.workdir = workdir
        self.tamper_how = tamper_how
        self.records = make_records(seed, self.n)
        self.prediction = predicted(workload, self.records)
        self.spans = SpanRecorder(enabled=False)
        self.values: dict[str, list[float]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.counts: set[int] = set()
        self.port_retries = 0
        #: Names of the metrics this workload defines.
        self.defined = {name for name, metric in METRICS.items()
                        if workload.name in metric.workloads}
        self._serial = 0

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def sample(self, label: str, records: Sequence[str] | None = None,
               filters: int | None = None, keep: bool = True,
               ) -> dict[str, Any]:
        """Run one sample; unless it is a warm-up (``keep=False``) book
        its failures and its invocation count."""
        records = self.records if records is None else records
        self._serial += 1
        self.spans.sample = label
        with self.spans.span("harness.sample"):
            sample = run_sample(
                self.workload, list(records),
                os.path.join(self.workdir, f"sample-{self._serial}"),
                self.spans, filters=filters, tamper_how=self.tamper_how,
            )
        if not keep:
            return sample
        self.attempted += sample["attempted"]
        self.failed += sample["failed"]
        if "error" in sample:
            self.errors.append(f"{label}: {sample['error']}")
        elif sample["failed"]:
            self.errors.append(
                f"{label}: {sample['failed']} record(s) missing, duplicated "
                "or out of order against the reference")
        if sample.get("restarts"):
            self.errors.append(f"{label}: {sample['restarts']} restart(s)")
        return sample

    def book_counts(self, sample: dict[str, Any]) -> None:
        """Metrics read off a full-size sample's counters."""
        n = self.n
        self.port_retries += sample["port_retries"]
        self.counts.add(sample["invocations_sent"])
        self.add("invocations_per_record", sample["invocations_sent"] / n)
        if self.workload.wire:
            self.add("wire_bytes_per_record", sample["bytes_sent"] / n)

    def book_latency(self, sample: dict[str, Any]) -> None:
        """Invocation latency quantiles of one untraced sample, from the
        raw call-to-return deltas (the first call is the set-up)."""
        if "invoke_p50_ms" in self.defined:
            invokes = sample["latencies"][1:]
            self.add("invoke_p50_ms", quantile(invokes, 0.50) * 1e3)
            self.add("invoke_p99_ms", quantile(invokes, 0.99) * 1e3)

    def check_counts(self) -> None:
        """The paper's counts are the invariant: they repeat exactly and,
        where the cost model predicts them, equal the prediction."""
        if len(self.counts) > 1:
            self.errors.append(
                f"invocation count varies across samples: "
                f"{sorted(self.counts)}")
        if self.prediction is not None and self.counts - {self.prediction}:
            self.errors.append(
                f"invocations {sorted(self.counts)} != predicted "
                f"{self.prediction}")

    def result(self, **extra: Any) -> dict[str, Any]:
        self.check_counts()
        self.add("failed_share", self.failed / max(1, self.attempted))
        metrics = {}
        for name, values in self.values.items():
            metrics[name] = {**summarize(values), "unit": METRICS[name].unit}
        return {
            "workload": self.workload.name, "n": self.n,
            "metrics": metrics, "correct": not self.errors,
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "port_retries": self.port_retries,
            **extra,
        }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0


def measure(run: Run, seconds: float) -> dict[str, Any]:
    """The untraced run: one warm-up, then timed samples until the time
    is used and at least MIN_SAMPLES are in hand."""
    workload, n = run.workload, run.n
    began = time.perf_counter()
    if not run.quick:
        run.sample("warm-up", keep=False)
    if workload.spawned:
        # Set-up is the same front-door call on one record, on samples
        # of its own.
        for index in range(1 if run.quick else SETUP_SAMPLES):
            sample = run.sample(f"setup-{index}", run.records[:1])
            if "error" not in sample:
                run.add("setup_s", sample["wall"])
    minimum = 2 if run.quick else MIN_SAMPLES
    taken = 0
    sampling = time.perf_counter()

    def another_fits() -> bool:
        now = time.perf_counter()
        return now - began + (now - sampling) / taken < seconds

    while taken < minimum or (not run.quick and another_fits()):
        sample = run.sample(f"timed-{taken}")
        taken += 1
        if "error" in sample:
            continue
        run.book_counts(sample)
        run.add("records_per_s", n / sample["wall"])
        run.add("cpu_us_per_record", sample["cpu"] * 1e6 / n)
        if not workload.spawned:
            run.add("setup_s", sample["setup"])
        run.book_latency(sample)
    run.add("peak_rss_mb", peak_rss_mb())
    return run.result(samples=taken,
                      elapsed_s=time.perf_counter() - began)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values: Sequence[float]) -> float:
    return summarize(values)["median"]


def trace(run: Run, trace_file: str) -> dict[str, Any]:
    """The traced run: untraced baseline samples, the same samples with
    spans on, then the layer ladder.  It takes the samples it needs, not
    ``--seconds``: a few seconds, 13 on ``diamond_tcp``."""
    workload, n = run.workload, run.n
    began = time.perf_counter()
    repeats = 1 if run.quick else (2 if workload.spawned else 3)
    if not run.quick:
        run.sample("warm-up", keep=False)

    plain = []
    for index in range(repeats):
        sample = run.sample(f"untraced-{index}")
        if "error" not in sample:
            plain.append(sample)
            run.book_latency(sample)
    if not plain:
        return run.result(samples=0, elapsed_s=time.perf_counter() - began)
    wall = _median([sample["wall"] for sample in plain])

    run.spans = SpanRecorder(enabled=True)
    traced = []
    for index in range(repeats):
        sample = run.sample(f"traced-{index}")
        if "error" not in sample:
            traced.append(sample)
            run.add("trace.overhead_share", sample["wall"] / wall - 1.0)
    for sample in plain + traced:
        run.book_counts(sample)
        _book_counters(run, sample)

    rows, detail = _ladder(run, plain + traced, wall, repeats)
    for name, values in rows.items():
        for value in values:
            run.add(name, value)

    medians = {name: _median(values) for name, values in run.values.items()}
    medians.update({name: _median(values) for name, values in detail.items()
                    if isinstance(values, list)})
    setup_us = _median([sample["setup"] for sample in plain]) * 1e6 / n
    budget = budget_rows(workload, medians, setup_us, n)
    total = sum(micros for _label, micros in budget)
    target = wall * 1e6 / n
    run.add("budget.sum_us_per_record", total)
    run.add("budget.gap_share", 1.0 - total / target)

    spans = run.spans.spans
    origin = spans[0]["start"]
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "n": n,
            "self_time_s_by_name": self_time_by_name(spans),
            "ladder": detail,
            "spans": [{**span, "start": span["start"] - origin,
                       "end": span["end"] - origin} for span in spans],
        }, handle)
    return run.result(
        samples=len(plain) + len(traced),
        elapsed_s=time.perf_counter() - began,
        budget=[list(row) for row in budget], budget_target_us=target,
    )


def _book_counters(run: Run, sample: dict[str, Any]) -> None:
    """Per-layer metrics read off one real sample's public counters."""
    workload, n = run.workload, run.n
    if workload.wire:
        frames = sample["frames_sent"]
        run.add("net.framing.frames_per_record", frames / n)
        run.add("net.framing.bytes_per_frame",
                _share(sample["bytes_sent"], frames))
        bursts = (sample["sendmsg_writes"] + sample["coalesced_writes"]
                  + sample["sendmsg_partial_writes"])
        run.add("net.vectored.sendmsg_share",
                _share(sample["sendmsg_writes"], bursts))
    if workload.in_loop:
        run.add("net.bufpool.hit_rate", _share(
            sample["pool_hits"], sample["pool_hits"] + sample["pool_misses"]))
    if "net.launch.restarts" in run.defined:
        run.add("net.launch.restarts", sample["restarts"])
    if workload.runtime == "sim":
        run.add("core.context_switches_per_record",
                sample["kernel"]["context_switches"] / n)
        run.add("core.events_per_record",
                sample["kernel"]["events_processed"] / n)


def _ladder(run: Run, samples: Sequence[dict[str, Any]], wall: float,
            repeats: int) -> tuple[ladder.Rows, dict[str, Any]]:
    """The layer ladder on a prefix of the workload's own records, plus
    the rows that compare it with the real samples."""
    workload, n = run.workload, run.n
    reps = 2 if run.quick else LADDER_REPS
    ladder_dir = os.path.join(run.workdir, "ladder")
    os.makedirs(ladder_dir, exist_ok=True)
    prefix = run.records[:LADDER_RECORDS]
    detail: dict[str, Any] = {}
    rows: ladder.Rows = {}
    if workload.in_loop:
        rows["net.launch.plan_ms"] = [
            (span["end"] - span["start"]) * 1e3 for span in run.spans.spans
            if span["name"] == "net.launch.plan_linear_fleet"]
        # One more filter, untraced: the marginal cost of a whole hop.
        run.spans.enabled = False
        extra = [run.sample(f"extra-filter-{index}",
                            filters=FILTERS + 1)
                 for index in range(repeats)]
        run.spans.enabled = True
        rows["net.stage.hop_us_per_record"] = [
            (sample["wall"] - wall) * 1e6 / n
            for sample in extra if "error" not in sample]
    if workload.wire:
        wire, detail = ladder.wire_rows(workload, prefix, ladder_dir,
                                        run.spans, reps)
        rows.update(wire)
    if workload.runtime != "sim":
        rows["aio.stage_us_per_record"] = ladder.stage_row(
            workload, prefix, run.spans, reps)
    if workload.kind == "graph":
        graph, graph_detail = ladder.graph_rows(
            workload, run.records, ladder_dir, run.spans, reps,
            spawn_reps=1 if run.quick else 2,
            run_wall=_median([sample["run_wall"] for sample in samples]))
        rows.update(graph)
        detail.update(graph_detail)
        # Sum over segments of the gap between the invocations a segment
        # used and the summed predictions of its edges: must be 0.
        used = samples[0]["segment_invocations"]
        predicted_by = graph_detail["predicted_by_segment"]
        edge_error = sum(abs(used.get(name, 0) - predicted_by.get(name, 0))
                         for name in used.keys() | predicted_by.keys())
        rows["analysis.cost_model.edge_error"] = [edge_error]
        if edge_error:
            run.errors.append(
                f"per-segment invocations {used} differ from the summed "
                f"edge predictions {predicted_by}")
    if workload.kind == "hosted":
        spawn = ladder.hosted_spawn(workload, run.records, ladder_dir,
                                    run.spans, 1 if run.quick else 3)
        rows["broker.spawn_s"] = spawn
        rows["broker.relay_us_per_invocation"] = [
            (sample["wall"] - _median(spawn)) * 1e6
            / sample["invocations_sent"] for sample in samples]
    return rows, detail


def budget_rows(workload: Workload, m: dict[str, float], setup_us: float,
                n: int) -> list[tuple[str, float]]:
    """The disjoint µs/record rows whose sum should meet the workload's
    end-to-end µs/record."""
    def row(name: str, scale: float = 1.0, label: str | None = None):
        return (label or name, m.get(name, 0.0) * scale)

    per_ms, per_s = 1e3 / n, 1e6 / n
    protocol_self = row("protocol_self_us_per_record",
                        label="net.protocol self (hop - framing - socket)")
    stage = row("aio.stage_us_per_record")
    wire = [
        row("net.framing.encode_us_per_record"),
        row("net.framing.decode_us_per_record"),
        row("socket_us_per_record",
            label="loopback socket (net.vectored exchange)"),
        protocol_self, stage,
    ]
    if workload.in_loop:
        return [("set-up (listen, connect back-off, hello)", setup_us)] + wire
    if workload.kind == "hosted":
        # The mux row already holds the codec and the socket.
        return [row("broker.spawn_s", per_s),
                row("mux_us_per_record",
                    label="net.mux relay (2 crossings per frame)"),
                protocol_self, stage]
    build = row("api.graph.build_ms", per_ms)
    route = row("api.graph.route_us_per_record")
    if workload.runtime == "tcp":
        return [build, row("net.launch.plan_ms", per_ms),
                row("net.launch.spawn_s", per_s), route] + wire
    overhead = row("api.execute.overhead_us_per_record")
    if workload.runtime == "sim":
        return [build, row("transput.compose_ms", per_ms),
                row("core_run_us_per_record", label="core kernel.run"),
                route, overhead]
    return [build, row("aio.segment_us_per_record"), route, overhead]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="harness-child")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--tamper", default=None)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--out", required=True)
    options = parser.parse_args(argv)
    run = Run(BY_NAME[options.workload], options.seed, options.quick,
              options.workdir, options.tamper)
    if options.trace:
        result = trace(run, options.trace_file)
    else:
        result = measure(run, options.seconds)
    result["seed"] = options.seed
    with open(options.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0
