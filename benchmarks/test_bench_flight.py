"""T16 — flight-recorder overhead on the fast data plane.

Runs the T13 binary+pipelined configuration (binary codec, batch=32,
eight READs in flight) three times: recorder off, recorder in digest
mode (CRC-32 per frame), recorder in full mode (complete wire bytes
per frame).  Throughput is the same two-point marginal measurement
T13 uses, so fleet-spawn cost cancels; capture volume is read back
from the segment files each run leaves behind.

Acceptance (ISSUE PR-8): digest mode — the always-on production
setting — must cost <= 5 % of the fleet's run time.  Two numbers are
committed per mode:

* **recorder share** (gated): the recorder's self-timed seconds —
  every ``FlightRecorder.record()`` call accumulates into the
  ``flight_record_ms`` gauge, clock reads included — summed across
  the fleet's stages, as a fraction of the run's marginal wall time.
  Direct attribution is immune to the run-to-run scheduling noise of
  a shared runner, which on this hardware swings end-to-end wall
  time by more than the effect being measured.
* **wall overhead** (informational): the classic differential — the
  mode's marginal throughput vs. recorder-off, paired within each
  repetition, median across repetitions.  Committed so drift shows
  up in review, but too noisy on a shared 1-core runner to gate a
  single-digit percentage.

Full mode is measured and committed for the record but not gated: it
exists for replay fidelity, not for hot paths.  In
``EDEN_BENCH_QUICK=1`` mode the streams are short enough that the
handshake frames weigh disproportionately, so the gate loosens.
"""

import os
import pathlib
import time

from repro.core.stats import Histogram
from repro.devices import random_lines
from repro.net.launch import IDENTITY, plan_linear_fleet, run_fleet
from repro.transput import FlowPolicy

from conftest import publish

QUICK = os.environ.get("EDEN_BENCH_QUICK") == "1"
CORES = os.cpu_count() or 1

#: Digest-mode gate on the recorder's attributed share of run time.
#: The real 5 % gate needs full-length streams; quick mode's marginal
#: wall times span well under a second, so its gate only catches
#: catastrophic regressions (a sync flush per frame, an extra copy on
#: the read path).
MAX_DIGEST_OVERHEAD = 0.25 if QUICK else 0.05

#: (short, long) stream lengths.  Longer than T13's fast-plane points
#: on purpose: an overhead ratio needs the marginal time itself to be
#: well clear of scheduler noise, and this data plane streams T13's
#: 20k records in ~0.3 s.
POINTS = (1000, 10000) if QUICK else (5000, 100000)

#: Repetitions per point; overheads pair within a repetition and the
#: median across repetitions is the estimator.
REPS = 2 if QUICK else 5

#: The T13 fast plane this PR's recorder must not slow down.
FAST_FLOW = FlowPolicy(batch=32, pipeline_depth=8)


def timed_fleet(workdir, count, flight_dir, flight_mode):
    plans = plan_linear_fleet(
        "readonly", [IDENTITY], workdir,
        source_items=random_lines(count=count, seed=11), codec="binary",
        flow=FAST_FLOW, flight_dir=flight_dir,
        flight_mode=flight_mode or "full",
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


def recorder_seconds(result):
    """Self-timed seconds spent in record() across the fleet's stages."""
    return sum(
        stage.get("gauges", {}).get("flight_record_ms", 0.0)
        for stage in result.stats
    ) / 1000.0


def capture_bytes(flight_dir):
    """On-disk capture volume one run produced (0 when recording off)."""
    if flight_dir is None:
        return 0
    return sum(
        path.stat().st_size
        for path in pathlib.Path(flight_dir).rglob("seg-*.efl")
    )


MODES = ("off", "digest", "full")


def median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def sweep(workdir):
    """Marginal throughput per recorder mode, drift-compensated.

    Two defences against ambient noise on a shared 1-core runner.
    First, modes interleave within every repetition (off, digest,
    full, off, ...), and the overhead ratio is computed *per
    repetition* from runs seconds apart, so slow drift — CI
    neighbours, page-cache warming — hits every mode in a pair alike
    instead of biasing whichever happens to measure first.  Second,
    the median over repetitions is the estimator: a single stalled
    run shifts one repetition's ratio, not the verdict.  Fleet-spawn
    cost still cancels through the two-point marginal, as in T13.
    """
    small, large = POINTS
    # One untimed warmup fleet: the very first spawn pays cold
    # imports and page-cache misses.
    timed_fleet(f"{workdir}/warmup", small, None, None)

    def one(mode, count, rep):
        run_dir = f"{workdir}/{mode}-m{count}-r{rep}"
        flight_dir = None if mode == "off" else f"{run_dir}/flight"
        elapsed, result = timed_fleet(
            run_dir, count, flight_dir, None if mode == "off" else mode
        )
        return elapsed, result, flight_dir

    t_small = {mode: [] for mode in MODES}
    rec_small = {mode: [] for mode in MODES}
    for rep in range(REPS):
        for mode in MODES:
            elapsed, result, _ = one(mode, small, rep)
            t_small[mode].append(elapsed)
            rec_small[mode].append(recorder_seconds(result))
    spawn_floor = {mode: min(t_small[mode]) for mode in MODES}
    rec_floor = {mode: median(rec_small[mode]) for mode in MODES}

    throughput = {mode: [] for mode in MODES}
    share = {mode: [] for mode in MODES}
    last = {}
    for rep in range(REPS):
        for mode in MODES:
            t_large, result, flight_dir = one(mode, large, rep)
            marginal = max(0.02, t_large - spawn_floor[mode])
            throughput[mode].append((large - small) / marginal)
            share[mode].append(
                max(0.0, recorder_seconds(result) - rec_floor[mode])
                / marginal
            )
            last[mode] = (result, flight_dir)

    matrix = {}
    for mode in MODES:
        result, flight_dir = last[mode]
        p50, p99 = read_quantiles(result)
        matrix[mode] = {
            "throughput": median(throughput[mode]),
            # The gated number: record()'s own clock, marginal over
            # the short point, as a share of marginal run time.
            "record_share": (
                None if mode == "off" else median(share[mode])
            ),
            # Paired per repetition, then the median: robust to any
            # single run landing on a noisy stretch — but still only
            # informational on a shared runner.
            "wall_overhead": None if mode == "off" else median([
                1.0 - pair / base
                for pair, base in zip(throughput[mode], throughput["off"])
            ]),
            "p50_ms": p50,
            "p99_ms": p99,
            "capture_bytes_per_datum": capture_bytes(flight_dir) / large,
        }
    return matrix


def test_bench_flight(benchmark, tmp_path):
    matrix = benchmark.pedantic(sweep, args=(str(tmp_path),), rounds=1)

    def fmt(value, pattern="{:.2f}"):
        return "-" if value is None else pattern.format(value)

    shares = {
        mode: matrix[mode]["record_share"] for mode in ("digest", "full")
    }
    walls = {
        mode: matrix[mode]["wall_overhead"] for mode in ("digest", "full")
    }
    rows = [
        [mode, f"{m['throughput']:.0f}", fmt(m["p50_ms"]), fmt(m["p99_ms"]),
         f"{m['capture_bytes_per_datum']:.1f}",
         "-" if mode == "off" else f"{shares[mode] * 100.0:.2f}%",
         "-" if mode == "off" else f"{walls[mode] * 100.0:+.1f}%"]
        for mode, m in matrix.items()
    ]
    publish(
        "flight",
        ["recorder", "records/s", "p50 ms", "p99 ms",
         "capture bytes/datum", "recorder share", "wall overhead"],
        rows,
        title=(
            "T16: flight-recorder overhead on the T13 binary+pipelined "
            f"path ({'quick' if QUICK else 'full'} mode, {CORES} core(s)); "
            f"batch={FAST_FLOW.batch}, "
            f"depth={FAST_FLOW.effective_pipeline_depth()}"
        ),
        digest_record_share=round(shares["digest"], 4),
        full_record_share=round(shares["full"], 4),
        digest_wall_overhead=round(walls["digest"], 4),
        full_wall_overhead=round(walls["full"], 4),
        max_digest_overhead=MAX_DIGEST_OVERHEAD,
        cpu_cores=CORES,
        quick=QUICK,
    )

    # The acceptance gate: digest capture is cheap enough to leave on.
    assert shares["digest"] <= MAX_DIGEST_OVERHEAD, (
        f"digest-mode recording consumed {shares['digest']:.2%} of the "
        f"fleet's marginal run time; the gate is {MAX_DIGEST_OVERHEAD:.0%}"
    )
    # Both modes actually captured frames (the runs were recorded).
    assert matrix["digest"]["capture_bytes_per_datum"] > 0
    assert matrix["full"]["capture_bytes_per_datum"] > 0
    # Digest records are fixed-size stubs; full records carry payloads.
    assert (matrix["digest"]["capture_bytes_per_datum"]
            < matrix["full"]["capture_bytes_per_datum"])
