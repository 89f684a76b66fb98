#!/usr/bin/env python3
"""Dataflow graphs: scatter/gather and broadcast/merge on all runtimes.

The linear examples drive :class:`repro.api.Pipeline`; this one builds
real DAGs with :class:`repro.api.GraphBuilder` — the executable form
of paper claim C3 (fan-in and fan-out are symmetric under the
asymmetric discipline, and channel identifiers restore fan-out).

Two topologies:

- a **diamond** — strip whitespace, then scatter the stream across
  two parallel branches by content hash, gather it back, number the
  lines;
- a **fan** — broadcast the whole stream to an upper-casing branch and
  a line-reversing branch, merge their outputs round-robin.

(The per-edge predictions assume record-preserving stages — the same
assumption the linear C1/C2 model makes — so the filters here are
one-record-in, one-record-out.)

Each runs on the simulator and on asyncio (swap in ``runtime="tcp"``
for one OS process per filter), prints the outputs, and checks the
measured invocation total against the per-edge analytic prediction
from :func:`repro.analysis.predict_graph_invocations` — the C1/C2
economics, hop by hop, on a non-linear topology.

Run: ``PYTHONPATH=src python examples/graph_pipeline.py``
"""

from repro.analysis import predict_graph_invocations
from repro.api import GraphBuilder

LINES = [
    "streams are pipes",
    "C a commented-out line",
    "streams of record",
    "the asymmetric stream discipline",
    "C another comment",
    "one stream to gather them",
]


def diamond():
    """strip -> scatter(hash) -> [upper | reverse] -> gather -> number."""
    return (
        GraphBuilder(source=LINES, discipline="readonly", name="diamond")
        .chain("repro.filters:strip_whitespace")
        .scatter(
            ["repro.filters:upper_case"],
            ["repro.filters:reverse_line"],
            policy="hash",
        )
        .gather()
        .chain("repro.filters:number_lines")
        .build()
    )


def fan():
    """broadcast -> [upper | reverse] -> merge (round-robin)."""
    return (
        GraphBuilder(source=LINES, discipline="readonly", name="fan")
        .broadcast(
            ["repro.filters:upper_case"],
            ["repro.filters:reverse_line"],
        )
        .merge()
        .build()
    )


def show(graph):
    predictions = predict_graph_invocations(graph)
    predicted = sum(p.invocations for p in predictions)
    print(f"== {graph.name}: {len(graph.nodes)} nodes, "
          f"{len(graph.edges)} edges ==")
    for p in predictions:
        print(f"   edge {p.src:>11} -> {p.dst:<11} {p.records:>2} records "
              f"-> {p.invocations:>2} invocations predicted")

    results = {runtime: graph.run(runtime=runtime)
               for runtime in ("sim", "aio")}
    for runtime, result in results.items():
        assert result.invocations == predicted, (runtime, result.invocations)
        print(f"   {runtime}: {result.invocations} invocations "
              f"(= predicted), per segment {result.segment_invocations}")
    assert results["sim"].output == results["aio"].output
    print("   output:")
    for line in results["sim"].output:
        print(f"     {line!r}")
    print()


def main():
    show(diamond())
    show(fan())
    print("identical records and exactly-predicted per-edge invocation")
    print("counts on both in-process runtimes; runtime='tcp' runs the")
    print("same graphs as one OS process per filter.")


if __name__ == "__main__":
    main()
