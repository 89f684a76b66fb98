"""T15 — fleet density: hundreds of stages hosted in one process.

The hosted placement's whole claim is that pipeline length and process
count are decoupled: one ``eden-broker`` daemon plus one ``eden-host``
process carry a 500-stage pipeline that the per-process placement
would run as 500 interpreters.  This benchmark stands that fleet up
for real — broker and host are separate OS processes under the
ordinary :class:`FleetSupervisor` — and measures what density costs:
wall-clock to drain the stream, aggregate link deliveries per second,
and the broker's registration latency quantiles from the hosts'
``broker_register_ms`` histograms.

Acceptance (ISSUE T15): >= 500 stages hosted in a single ``eden-host``
process, with exactly-once delivery verified by the actual
``eden-trace --verify-once`` CLI over the host's span log (tracing and
resume are on, so every hosted reader leaves sequence evidence).
"""

import os
import time

from repro.core.stats import Histogram
from repro.devices import random_lines
from repro.net.launch import IDENTITY, run_fleet
from repro.obs.trace_cli import main as trace_main
from repro.broker.launch import plan_hosted_fleet
from repro.transput import FlowPolicy

from conftest import publish

QUICK = os.environ.get("EDEN_BENCH_QUICK") == "1"
CORES = os.cpu_count() or 1

#: Pipeline length including source and sink; the acceptance bar is
#: 500 stages in one host process (quick mode keeps CI honest at a
#: size it can afford).
N_STAGES = 80 if QUICK else 500
N_ITEMS = 8 if QUICK else 32

#: Modest batching: the point is stage density, not wire throughput,
#: but strict one-READ-at-a-time alternation across 499 links would
#: measure only protocol round trips.
FLOW = FlowPolicy(batch=8, pipeline_depth=4)


def host_the_fleet(workdir):
    plans = plan_hosted_fleet(
        "readonly", [IDENTITY] * (N_STAGES - 2), workdir,
        source_items=random_lines(count=N_ITEMS, seed=13),
        flow=FLOW, trace=True, resume=True,
        connect_deadline=60.0,
    )
    # One broker daemon + one host process, however long the pipeline.
    assert [plan.role for plan in plans] == ["broker", "host"]
    started = time.perf_counter()
    result = run_fleet(plans, timeout=600.0)
    elapsed = time.perf_counter() - started
    assert len(result.output) == N_ITEMS
    return elapsed, result


def register_quantiles(result):
    merged = None
    for stage in result.stats:
        data = stage.get("histograms", {}).get("broker_register_ms")
        if not data:
            continue
        histogram = Histogram.from_dict(data)
        if merged is None:
            merged = histogram
        else:
            merged.merge(histogram)
    assert merged is not None and merged.total >= N_STAGES
    return merged.quantile(0.5), merged.quantile(0.99)


def test_bench_fleet_density(benchmark, tmp_path):
    elapsed, result = benchmark.pedantic(
        host_the_fleet, args=(str(tmp_path),), rounds=1
    )

    host_stats = [s for s in result.stats if s.get("role") == "host"]
    broker_stats = [s for s in result.stats if s.get("role") == "broker"]
    assert len(host_stats) == 1, "density means ONE host process"
    stages_hosted = host_stats[0]["hosted"]
    assert stages_hosted == N_STAGES

    # The acceptance gate, through the real CLI: every hosted reader's
    # accepted slices must tile [0, N_ITEMS) exactly — no datum lost
    # or duplicated anywhere along the 499 links.
    assert result.trace_files
    assert trace_main([*result.trace_files,
                       "--verify-once", str(N_ITEMS)]) == 0

    # Aggregate work: every link delivers the full stream once.
    links = N_STAGES - 1
    deliveries = N_ITEMS * links
    relayed = broker_stats[0]["counters"].get("relayed_frames", 0)
    spliced = host_stats[0]["counters"]["mux_frames_spliced"]
    p50, p99 = register_quantiles(result)

    publish(
        "fleet_density",
        ["stages hosted", "processes", "links", "elapsed s",
         "deliveries/s", "register p50 ms", "register p99 ms",
         "spliced frames"],
        [[stages_hosted, 2, links, f"{elapsed:.2f}",
          f"{deliveries / elapsed:.0f}", f"{p50:.2f}", f"{p99:.2f}",
          spliced]],
        title=(
            f"T15: {stages_hosted}-stage pipeline hosted by one "
            f"eden-broker + one eden-host process "
            f"({'quick' if QUICK else 'full'} mode, {CORES} core(s)); "
            f"{N_ITEMS} records end to end, exactly-once verified via "
            f"eden-trace --verify-once"
        ),
        stages_hosted=stages_hosted,
        processes=2,
        items=N_ITEMS,
        exactly_once_verified=True,
        cpu_cores=CORES,
        quick=QUICK,
    )

    assert stages_hosted >= (80 if QUICK else 500)
    # Every link's stream was spliced inside the host: at least one
    # DATA frame per batch per link (plus READs, ENDs and handshakes on
    # top), and the broker, which issued every link, relayed none.
    assert spliced >= links * (N_ITEMS // FLOW.batch)
    assert relayed == 0
