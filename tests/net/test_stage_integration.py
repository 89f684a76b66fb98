"""End-to-end: real pipelines across OS processes over localhost TCP.

The acceptance bar for the net runtime: a source → 3 filters → sink
pipeline spread over separate processes must (a) produce byte-identical
output to the simulator for the same seed, and (b) measure exactly the
paper's invocation formulas on the wire — ``(n+1)(m+1)`` for the
asymmetric disciplines (claim C1), ``(2n+2)(m+1)`` for the
conventional emulation (claim C2's other half).
"""

import json

import pytest

from repro.analysis import predicted_invocations
from repro.core import Kernel
from repro.devices import random_lines
from repro.filters import grep, unique_adjacent, upper_case
from repro.net.launch import IDENTITY, plan_linear_fleet, run_fleet
from repro.transput import FlowPolicy, compose_segment

N_FILTERS = 3
ITEMS = 12
SEED = 7

FILTER_SPECS = [
    ("repro.filters:grep", ["stream"]),
    ("repro.filters:upper_case", []),
    ("repro.filters:unique_adjacent", []),
]


def simulator_output(discipline: str) -> list[str]:
    kernel = Kernel(seed=0)
    pipeline = compose_segment(
        kernel,
        discipline,
        random_lines(count=ITEMS, seed=SEED),
        [grep("stream"), upper_case(), unique_adjacent()],
    )
    return [str(line) for line in pipeline.run_to_completion()]


@pytest.mark.parametrize("discipline", ["readonly", "writeonly"])
def test_tcp_pipeline_matches_simulator_byte_for_byte(tmp_path, discipline):
    plans = plan_linear_fleet(
        discipline,
        FILTER_SPECS,
        str(tmp_path),
        source_items=random_lines(count=ITEMS, seed=SEED),
    )
    assert len(plans) == N_FILTERS + 2  # source + 3 filters + sink
    result = run_fleet(plans, timeout=60)
    expected = simulator_output(discipline)
    wire_bytes = "\n".join(result.output).encode()
    simulated_bytes = "\n".join(expected).encode()
    assert wire_bytes == simulated_bytes


@pytest.mark.parametrize("discipline,processes", [
    ("readonly", N_FILTERS + 2),
    ("writeonly", N_FILTERS + 2),
    ("conventional", 2 * N_FILTERS + 3),  # + a pipe process per pair
])
def test_wire_invocations_match_paper_formula(tmp_path, discipline, processes):
    """Identity pipeline so every hop moves exactly m records."""
    plans = plan_linear_fleet(
        discipline,
        [IDENTITY] * N_FILTERS,
        str(tmp_path),
        source_items=list(range(ITEMS)),
    )
    assert len(plans) == processes
    result = run_fleet(plans, timeout=60)
    assert result.output == list(range(ITEMS))
    assert result.invocations == predicted_invocations(
        discipline, N_FILTERS, ITEMS
    )


def test_readonly_halves_conventional_on_the_wire(tmp_path):
    """Claim C1 measured end-to-end on real sockets: the ratio is 1/2."""
    readonly = run_fleet(plan_linear_fleet(
        "readonly", [IDENTITY] * 2, str(tmp_path / "ro"),
        source_items=list(range(6)),
    ), timeout=60)
    conventional = run_fleet(plan_linear_fleet(
        "conventional", [IDENTITY] * 2, str(tmp_path / "cv"),
        source_items=list(range(6)),
    ), timeout=60)
    assert readonly.invocations * 2 == conventional.invocations


def test_batching_divides_wire_invocations(tmp_path):
    batched = run_fleet(plan_linear_fleet(
        "readonly", [IDENTITY], str(tmp_path),
        source_items=list(range(8)),
        flow=FlowPolicy(batch=4),
    ), timeout=60)
    assert batched.output == list(range(8))
    assert batched.invocations == predicted_invocations("readonly", 1, 8, batch=4)


def test_lookahead_prefetch_preserves_output(tmp_path):
    """The eager knob (T4) on real sockets: same records, same order."""
    eager = run_fleet(plan_linear_fleet(
        "readonly", FILTER_SPECS, str(tmp_path),
        source_items=random_lines(count=ITEMS, seed=SEED),
        flow=FlowPolicy.eager(lookahead=4),
    ), timeout=60)
    assert eager.output == simulator_output("readonly")


def test_writeonly_credit_window_bounds_frames(tmp_path):
    """inbox_capacity=1 forces one record per WRITE frame end-to-end."""
    lazy = run_fleet(plan_linear_fleet(
        "writeonly", [IDENTITY], str(tmp_path),
        source_items=list(range(5)),
        flow=FlowPolicy(batch=5, inbox_capacity=1),
    ), timeout=60)
    assert lazy.output == list(range(5))
    # batch=5 would send one frame per hop, but the credit window of 1
    # chops it into 5; two hops -> 10 WRITE frames.
    assert lazy.totals.get("write_frames_sent") == 10


def test_stats_files_are_kernelstats_shaped(tmp_path):
    plans = plan_linear_fleet(
        "readonly", [IDENTITY], str(tmp_path), source_items=["only"],
    )
    result = run_fleet(plans, timeout=60)
    assert [stage["role"] for stage in result.stats] == [
        "source", "filter", "sink",
    ]
    for stage in result.stats:
        counters = stage["counters"]
        assert all(isinstance(value, int) for value in counters.values())
        json.dumps(counters)  # snapshot-compatible, serializable
