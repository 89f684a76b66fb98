"""T10 — C1/C2 on real sockets: the wire runtime's frame counts.

The simulator proves the formulas in virtual time; this bench proves
them on localhost TCP with one OS process per stage.  For n identity
filters moving m records, the asymmetric disciplines must measure
exactly ``(n+1)(m+1)`` request frames on the wire, and the
conventional emulation — every pipe its own process — exactly
``(2n+2)(m+1)``: the paper's ratio of one half, with real `sendmsg`
traffic instead of simulated invocations.

The batched rows pin the push side of the same law: with
``FlowPolicy(batch=b)`` a write-only chain must measure exactly
``(n+1)(ceil(m/b)+1)`` — one WRITE per ``b`` records on *every* hop,
filters included — as the simulator and the cost model count it.

The lookahead rows pin C5's knob to the same count: a read-only chain
with ``lookahead=k`` buffers k records ahead with one READ in flight,
so it measures ``(n+1)(ceil(m/b)+1)`` too — not the k − 1 extra
READ/END pairs per hop it measured while lookahead pipelined READs.
"""

from repro.analysis import predicted_invocations
from repro.net.launch import IDENTITY, plan_linear_fleet, run_fleet
from repro.transput.flow import FlowPolicy

from conftest import publish

LENGTHS = (1, 2, 3)
ITEMS = 10
BATCHES = (4, 32)
BATCHED_ITEMS = 100  # a short last batch at 32
#: (lookahead, batch) of the read-only lookahead rows, n = 2.
LOOKAHEADS = ((32, 1), (8, 4))


def sweep(workdir):
    rows = []
    for n_filters in LENGTHS:
        measured = {}
        for discipline in ("readonly", "writeonly", "conventional"):
            plans = plan_linear_fleet(
                discipline, [IDENTITY] * n_filters,
                f"{workdir}/{discipline}-{n_filters}",
                source_items=list(range(ITEMS)),
            )
            result = run_fleet(plans, timeout=60)
            measured[discipline] = (result.invocations, len(plans))
        rows.append((n_filters, measured))
    return rows


def batched_push_sweep(workdir):
    rows = []
    for batch in BATCHES:
        for n_filters in LENGTHS:
            plans = plan_linear_fleet(
                "writeonly", [IDENTITY] * n_filters,
                f"{workdir}/writeonly-b{batch}-{n_filters}",
                source_items=list(range(BATCHED_ITEMS)),
                flow=FlowPolicy(batch=batch),
            )
            result = run_fleet(plans, timeout=60)
            rows.append((batch, n_filters, result.invocations))
    return rows


def lookahead_sweep(workdir):
    rows = []
    for lookahead, batch in LOOKAHEADS:
        plans = plan_linear_fleet(
            "readonly", [IDENTITY] * 2,
            f"{workdir}/readonly-k{lookahead}-b{batch}",
            source_items=list(range(BATCHED_ITEMS)),
            flow=FlowPolicy(lookahead=lookahead, batch=batch),
        )
        result = run_fleet(plans, timeout=60)
        rows.append((lookahead, batch, 2, result.invocations))
    return rows


def test_bench_wire_counts(benchmark, tmp_path):
    rows = benchmark.pedantic(sweep, args=(str(tmp_path),), rounds=1)
    batched_rows = batched_push_sweep(str(tmp_path))
    lookahead_rows = lookahead_sweep(str(tmp_path))

    table_rows = []
    for n_filters, measured in rows:
        for discipline, (invocations, _processes) in measured.items():
            assert invocations == predicted_invocations(
                discipline, n_filters, ITEMS
            ), (discipline, n_filters)
        readonly, ro_procs = measured["readonly"]
        writeonly, _ = measured["writeonly"]
        conventional, cv_procs = measured["conventional"]
        assert readonly * 2 == conventional
        assert writeonly == readonly
        table_rows.append([
            n_filters, ro_procs, readonly, cv_procs, conventional,
            f"{readonly / conventional:.2f}",
        ])

    publish(
        "t10_wire_counts",
        ["n filters", "RO procs", "RO requests", "CV procs",
         "CV requests", "ratio"],
        table_rows,
        title=f"T10: on-wire request frames to move m={ITEMS} records over "
              "TCP (paper: n+1 vs 2n+2 per datum; measured exactly)",
    )

    for batch, n_filters, invocations in batched_rows:
        assert invocations == predicted_invocations(
            "writeonly", n_filters, BATCHED_ITEMS, batch
        ), (batch, n_filters)
    publish(
        "t10_wire_counts_batched",
        ["batch", "n filters", "WO requests"],
        [list(row) for row in batched_rows],
        title=f"T10: write-only request frames to move m={BATCHED_ITEMS} "
              "records at batch b (model: (n+1)(ceil(m/b)+1); measured "
              "exactly)",
    )

    for _lookahead, batch, n_filters, invocations in lookahead_rows:
        assert invocations == predicted_invocations(
            "readonly", n_filters, BATCHED_ITEMS, batch
        ), (_lookahead, batch)
    publish(
        "t10_wire_counts_lookahead",
        ["lookahead", "batch", "n filters", "RO requests"],
        [list(row) for row in lookahead_rows],
        title=f"T10: read-only request frames to move m={BATCHED_ITEMS} "
              "records with lookahead k (model: (n+1)(ceil(m/b)+1), one "
              "READ in flight; measured exactly)",
    )
