"""T11 — observability must be free when it is off.

The span/trace instrumentation added for ``repro.obs`` puts a trace
point on every invocation, delivery and reply of the simulated kernel.
They must cost (next to) nothing while tracing is disabled: this guard
measures the same pipeline against a do-nothing tracer stub — the
closest runnable stand-in for "instrumentation compiled out" — and
fails if the real disabled :class:`~repro.core.tracing.Tracer` adds 2%
or more.

What the stub can and cannot see.  The per-invocation trace points
test ``tracer.enabled`` *at the call site*, so with tracing off neither
the real tracer nor the stub is called there and no detail is packed:
both sides pay the same attribute test, and the guard reads ~0% by
construction.  It used to be blind the other way round — ``emit`` was
called unconditionally and the stub paid the same keyword packing as
the real tracer, so that cost was invisible too; it is now gone, and
``tests/core/test_call_budget.py`` is the gate that keeps it gone.
What the stub still catches is a per-invocation ``emit`` added
*without* the call-site test (the real ``emit`` then runs its own
``enabled`` check on every call and the stub does not), and any work a
disabled ``Tracer.emit`` itself grows.  The rare trace points (spawn,
exit, create, checkpoint, crash) call ``emit`` directly and rely on
that check.

The enabled-tracing and span-tracing timings are recorded alongside
(in ``BENCH_obs_latency.json``) for information; they are allowed to
cost whatever they cost.
"""

from __future__ import annotations

import time

from repro.core.kernel import Kernel
from repro.transput.filterbase import identity_transducer
from repro.transput.pipeline import compose_segment

from conftest import publish

N_FILTERS = 3
ITEMS = [f"rec-{index}" for index in range(400)]
REPEATS = 7
MAX_OVERHEAD_PCT = 2.0


class _NoopTracer:
    """Tracing 'compiled out': emit does not even test a flag."""

    enabled = False

    def emit(self, *_args, **_kwargs) -> None:
        return


def _run_once(trace: bool = False, spans: bool = False,
              stub: bool = False) -> None:
    kernel = Kernel(trace=trace, spans=spans)
    if stub:
        kernel.tracer = _NoopTracer()
    pipeline = compose_segment(
        kernel, "readonly", ITEMS,
        [identity_transducer(f"f{index}") for index in range(N_FILTERS)],
    )
    pipeline.run_to_completion()


def _best_of(repeats: int, **kwargs: bool) -> float:
    """Minimum wall time over ``repeats`` runs (noise-floor estimator)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _run_once(**kwargs)
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_obs_overhead(benchmark):
    baseline = _best_of(REPEATS, stub=True)
    disabled = benchmark.pedantic(
        lambda: _best_of(REPEATS), rounds=1
    )
    overhead_pct = (disabled - baseline) / baseline * 100.0
    if overhead_pct >= MAX_OVERHEAD_PCT:
        # One remeasure before failing: a 2% bound on two ~matched
        # timings is within scheduler-noise reach on a loaded box.
        baseline = _best_of(REPEATS, stub=True)
        disabled = _best_of(REPEATS)
        overhead_pct = (disabled - baseline) / baseline * 100.0

    traced = _best_of(3, trace=True)
    spanned = _best_of(3, trace=True, spans=True)

    publish(
        "obs_latency",
        ["configuration", "best-of runtime (s)", "vs no-op stub"],
        [
            ["no-op tracer stub", f"{baseline:.4f}", "1.00x"],
            ["disabled Tracer (default)", f"{disabled:.4f}",
             f"{disabled / baseline:.3f}x"],
            ["tracing enabled", f"{traced:.4f}", f"{traced / baseline:.3f}x"],
            ["tracing + spans", f"{spanned:.4f}",
             f"{spanned / baseline:.3f}x"],
        ],
        title=(
            f"T11: kernel instrumentation overhead (readonly, n={N_FILTERS}, "
            f"m={len(ITEMS)}, best of {REPEATS}); disabled tracing must add "
            f"< {MAX_OVERHEAD_PCT:.0f}%"
        ),
        overhead_pct=round(overhead_pct, 3),
        limit_pct=MAX_OVERHEAD_PCT,
    )
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"disabled tracing adds {overhead_pct:.2f}% "
        f"(limit {MAX_OVERHEAD_PCT}%)"
    )
