"""T13 — the fast data plane: binary framing, pipelined reads, shards.

Measures steady-state single-link TCP throughput for the PR's data
plane (binary codec + batched, pipelined reads) against the original
JSON request/response baseline, plus the in-process runtimes for
context, and the sharded fleet's scaling curve.

Throughput is *marginal*: each configuration is timed at two stream
lengths and the rate is ``(m2 - m1) / (t2 - t1)``, which cancels the
fixed fleet-spawn cost (about a second of Python interpreter startup
per stage) that would otherwise swamp the fast configurations.
Latency quantiles come from the stages' ``read_rtt_ms`` histograms,
bytes/datum from the wire counters.

Acceptance (ISSUE T13): the fast plane must beat the JSON baseline by
>= 3x (>= 1.5x in ``EDEN_BENCH_QUICK=1`` mode, where streams are short
and CI machines noisy).  Shard scaling is asserted near-linear only
when the machine actually has the cores to show it; the measured curve
is committed either way — on a single-core container the fleet is
CPU-bound and extra shards only add process overhead, which is itself
worth having on record.
"""

import os
import time
import warnings

from repro.api import Pipeline
from repro.core.stats import Histogram
from repro.devices import random_lines
from repro.net.launch import IDENTITY, plan_linear_fleet, run_fleet
from repro.transput import FlowPolicy

from conftest import publish

QUICK = os.environ.get("EDEN_BENCH_QUICK") == "1"
CORES = os.cpu_count() or 1
MIN_SPEEDUP = 1.5 if QUICK else 3.0

#: Shard scaling is only a *scaling* measurement when the machine has
#: a core per shard; below that the curve measures contention, not the
#: data plane, and must be committed as such.
SHARD_CURVE_VALID = CORES >= 4

#: (short, long) stream lengths for the two-point marginal measurement.
BASE_POINTS = (300, 1200) if QUICK else (1000, 5000)
FAST_POINTS = (500, 2500) if QUICK else (2000, 20000)
INPROC_ITEMS = 1200 if QUICK else 5000
SHARD_POINTS = (200, 1000) if QUICK else (500, 6000)
SHARD_COUNTS = (1, 2, 4)

#: The PR's data plane: negotiated binary codec, batched reads, eight
#: READs in flight.  The baseline is plan_linear_fleet's defaults — JSON,
#: batch=1, strict request/response alternation (the PR-4 runtime).
FAST_FLOW = FlowPolicy(batch=32, pipeline_depth=8)


def timed_fleet(workdir, count, codec, flow):
    plans = plan_linear_fleet(
        "readonly", [IDENTITY], workdir,
        source_items=random_lines(count=count, seed=11), codec=codec,
        flow=flow,
    )
    started = time.perf_counter()
    result = run_fleet(plans, timeout=600.0)
    elapsed = time.perf_counter() - started
    assert len(result.output) == count
    return elapsed, result


def read_quantiles(result):
    merged = None
    for stage in result.stats:
        data = stage.get("histograms", {}).get("read_rtt_ms")
        if not data:
            continue
        histogram = Histogram.from_dict(data)
        if merged is None:
            merged = histogram
        else:
            merged.merge(histogram)
    if merged is None or not merged.total:
        return None, None
    return merged.quantile(0.5), merged.quantile(0.99)


def measure_tcp(workdir, codec, flow, points):
    small, large = points
    # min-of-two per point, as measure_shards does: spawn-time noise
    # is one-sided, so the minimum is the stable estimator.
    t_small = min(
        timed_fleet(f"{workdir}/m{small}-r{i}", small, codec, flow)[0]
        for i in (1, 2)
    )
    timed = [
        timed_fleet(f"{workdir}/m{large}-r{i}", large, codec, flow)
        for i in (1, 2)
    ]
    t_large, result = min(timed, key=lambda pair: pair[0])
    throughput = (large - small) / max(0.02, t_large - t_small)
    p50, p99 = read_quantiles(result)
    return {
        "throughput": throughput,
        "p50_ms": p50,
        "p99_ms": p99,
        "bytes_per_datum": result.totals.get("bytes_sent") / large,
    }


def measure_inproc(runtime):
    items = [f"datum-{i:06d}" for i in range(INPROC_ITEMS)]
    pipeline = Pipeline([IDENTITY], source=items)
    started = time.perf_counter()
    result = pipeline.run(runtime=runtime)
    elapsed = time.perf_counter() - started
    assert len(result.output) == INPROC_ITEMS
    return {"throughput": INPROC_ITEMS / elapsed,
            "p50_ms": None, "p99_ms": None, "bytes_per_datum": 0.0}


def measure_shards(workdir, shards, points):
    small, large = points

    def one(count):
        items = [f"datum-{i:06d}" for i in range(count)]
        started = time.perf_counter()
        result = Pipeline([IDENTITY], source=items, shards=shards).run(
            runtime="tcp",
            workdir=f"{workdir}/s{shards}-m{count}",
            timeout=600.0, codec="binary", batch=8, pipeline_depth=4,
        )
        elapsed = time.perf_counter() - started
        assert sorted(result.output) == sorted(items)
        return elapsed

    # min-of-two per point: spawn-time noise is one-sided, so the
    # minimum is the stable estimator of the true cost.
    t_small = min(one(small), one(small))
    t_large = min(one(large), one(large))
    return (large - small) / max(0.02, t_large - t_small)


def sweep(workdir):
    matrix = {
        ("sim", "-"): measure_inproc("sim"),
        ("aio", "-"): measure_inproc("aio"),
        ("tcp", "json"): measure_tcp(
            f"{workdir}/json", "json", None, BASE_POINTS),
        ("tcp", "binary"): measure_tcp(
            f"{workdir}/binary", "binary", None, BASE_POINTS),
        ("tcp", "binary+pipelined"): measure_tcp(
            f"{workdir}/fast", "binary", FAST_FLOW, FAST_POINTS),
    }
    scaling = {
        shards: measure_shards(f"{workdir}/shards", shards, SHARD_POINTS)
        for shards in SHARD_COUNTS
    }
    return matrix, scaling


def test_bench_dataplane(benchmark, tmp_path):
    matrix, scaling = benchmark.pedantic(sweep, args=(str(tmp_path),),
                                         rounds=1)

    def fmt(value, pattern="{:.2f}"):
        return "-" if value is None else pattern.format(value)

    rows = [
        [runtime, codec, f"{m['throughput']:.0f}", fmt(m["p50_ms"]),
         fmt(m["p99_ms"]), f"{m['bytes_per_datum']:.1f}"]
        for (runtime, codec), m in matrix.items()
    ]
    shard_rows = [
        [shards, f"{tput:.0f}", f"{tput / scaling[1]:.2f}x"]
        for shards, tput in scaling.items()
    ]

    json_tput = matrix[("tcp", "json")]["throughput"]
    fast_tput = matrix[("tcp", "binary+pipelined")]["throughput"]
    speedup = fast_tput / json_tput

    publish(
        "dataplane",
        ["runtime", "codec", "records/s", "p50 ms", "p99 ms", "bytes/datum"],
        rows,
        title=(
            "T13: steady-state data-plane throughput, one identity filter "
            f"({'quick' if QUICK else 'full'} mode, {CORES} core(s)); "
            f"fast plane = binary codec, batch={FAST_FLOW.batch}, "
            f"depth={FAST_FLOW.effective_pipeline_depth()}"
        ),
        speedup_vs_json=round(speedup, 2),
        shard_scaling={
            "headers": ["shards", "records/s", "scaling"],
            "rows": shard_rows,
            "valid": SHARD_CURVE_VALID,
            "note": None if SHARD_CURVE_VALID else (
                f"measured on {CORES} core(s): shards contend for CPU, so "
                f"this curve records process overhead, not shard scaling"
            ),
        },
        shard_curve_valid=SHARD_CURVE_VALID,
        cpu_cores=CORES,
        quick=QUICK,
    )

    # The acceptance gate: the fast plane beats the JSON baseline.
    assert speedup >= MIN_SPEEDUP, (
        f"binary+pipelined={fast_tput:.0f} rec/s is only {speedup:.2f}x "
        f"the JSON baseline ({json_tput:.0f} rec/s); need {MIN_SPEEDUP}x"
    )
    # The binary codec moves fewer bytes per record at identical flow.
    assert (matrix[("tcp", "binary")]["bytes_per_datum"]
            < matrix[("tcp", "json")]["bytes_per_datum"])
    # Near-linear shard scaling needs the cores to run shards on; on
    # smaller machines the curve is committed — flagged invalid — and
    # the assertion is skipped with a visible warning, so a 4-shard
    # regression on real hardware still fails while a 1-core container
    # cannot bake a misleading sub-1x "baseline" into the gate.
    if SHARD_CURVE_VALID:
        assert scaling[4] >= 2.0 * scaling[1], scaling
    else:
        warnings.warn(
            f"shard-scaling assertion skipped: {CORES} core(s) < "
            f"{max(SHARD_COUNTS)} shards, curve committed with "
            f"shard_curve_valid=false",
            stacklevel=1,
        )
