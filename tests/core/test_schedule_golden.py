"""Golden schedules: the simulator's whole observable behaviour, pinned.

Every schedule, counter, virtual time and trace line of the simulated
kernel must survive any change to its step path.  Each case below runs
one small pipeline under ``Kernel(trace=True, spans=True)`` and checks
the SHA-256 of the rendered trace together with the counters a
schedule change would move first.  The literals were generated at
commit 1fa38ef — the parent of the one-frame step path — by running
this file as a script (``PYTHONPATH=src python
tests/core/test_schedule_golden.py``), and were identical across
interpreters, so span ids are deterministic too.

``Graph.run(runtime="sim")`` builds its own untraced kernels, so the
benchmark harness's diamond is pinned through ``GraphResult.stats``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import GraphBuilder
from repro.core.kernel import Kernel
from repro.transput.filterbase import identity_transducer
from repro.transput.flow import FlowPolicy
from repro.transput.pipeline import compose_segment

ITEMS = [f"rec-{index:02d}" for index in range(23)]
FLOWS = {
    "default": FlowPolicy(),
    "batch4": FlowPolicy(batch=4),
    "lookahead4": FlowPolicy(lookahead=4),
}

#: (discipline, flow) -> (sha256 of tracer.format(), trace events,
#: invocations_sent, context_switches, events_processed, makespan).
GOLDEN = {
    ("readonly", "default"): (
        "4f71dd6b9c02707372d3cbfd59dc82f01c043d61f9c588d60fc924a5637bbf34",
        297, 72, 220, 144, 144.0,
    ),
    ("readonly", "batch4"): (
        "d88d13b0b8534db41dbe41129bf0260e4302942cc1fce96d47c700dbb8659353",
        93, 21, 67, 42, 42.0,
    ),
    ("readonly", "lookahead4"): (
        "adbccba6f7409ce831711f85db7682ea3578dc98245c5db5f652af7b124cf59f",
        301, 72, 416, 144, 50.0,
    ),
    ("writeonly", "default"): (
        "6b83a8a2b174d9a59305d547042cf03abfe09d0f6c5d62a362f53fe5e4ec17b4",
        301, 72, 368, 144, 50.0,
    ),
    ("writeonly", "batch4"): (
        "aa08b31722827fb7de88e2e29462c55d83924ff4c7bdfd89159faaeda87ac4cc",
        97, 21, 184, 42, 20.0,
    ),
    ("writeonly", "lookahead4"): (
        "6b83a8a2b174d9a59305d547042cf03abfe09d0f6c5d62a362f53fe5e4ec17b4",
        301, 72, 368, 144, 50.0,
    ),
    ("conventional", "default"): (
        "3d2158a0b248f258b236de3c771e8983d0ecc2aff5959ba6306e3e7ca2b2f376",
        594, 144, 439, 288, 98.0,
    ),
    ("conventional", "batch4"): (
        "ca3b4898888e5d873f506ff9557a4fedb0fc9ccfbc9b10ed66ec15a283eee2ea",
        186, 42, 133, 84, 32.0,
    ),
    ("conventional", "lookahead4"): (
        "3d2158a0b248f258b236de3c771e8983d0ecc2aff5959ba6306e3e7ca2b2f376",
        594, 144, 439, 288, 98.0,
    ),
}


def fingerprint(discipline: str, flow: str) -> tuple:
    kernel = Kernel(trace=True, spans=True)
    pipeline = compose_segment(
        kernel, discipline, ITEMS,
        [identity_transducer("f0"), identity_transducer("f1")],
        flow=FLOWS[flow],
    )
    assert pipeline.run_to_completion() == ITEMS
    stats = pipeline.completion_stats
    digest = hashlib.sha256(kernel.tracer.format().encode("utf-8"))
    return (
        digest.hexdigest(),
        len(kernel.tracer.events),
        stats["invocations_sent"],
        stats["context_switches"],
        stats["events_processed"],
        pipeline.virtual_makespan,
    )


@pytest.mark.parametrize("discipline, flow", sorted(GOLDEN))
def test_schedule_is_byte_identical(discipline, flow):
    assert fingerprint(discipline, flow) == GOLDEN[discipline, flow]


def test_harness_diamond_counts():
    """The ``diamond_sim`` workload of benchmarks/harness at N = 1 000."""
    identity = "repro.filters:identity"
    records = [f"record-{index:06d}" for index in range(1_000)]
    graph = (
        GraphBuilder(source=records, discipline="readonly",
                     flow=FlowPolicy(batch=1), name="diamond")
        .chain(identity)
        .scatter([identity], [identity], policy="hash")
        .gather()
        .chain(identity)
        .build()
    )
    result = graph.run(runtime="sim")
    assert sorted(result.output) == records
    counters = result.stats["counters"]
    assert result.invocations == counters["invocations_sent"] == 6_008
    assert counters["context_switches"] == 18_036
    assert counters["events_processed"] == 12_016


if __name__ == "__main__":  # regenerate the GOLDEN literals
    for discipline in ("readonly", "writeonly", "conventional"):
        for flow in FLOWS:
            print(f"    ({discipline!r}, {flow!r}): "
                  f"{fingerprint(discipline, flow)!r},")
