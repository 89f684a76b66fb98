#!/usr/bin/env python3
"""The distributed pipeline, for real: OS processes on localhost TCP.

``examples/distributed_pipeline.py`` spreads a pipeline over *simulated*
nodes and predicts the costs; this is its twin on real sockets, driven
through the one :class:`repro.api.Pipeline` facade.  Every stage
between the ends — each filter and (for the conventional emulation)
every pipe — is a separate ``eden-stage`` process; the source and sink
run in this script's own event loop.  All of them speak the framed wire
protocol of :mod:`repro.net`, and the run prints the measured on-wire
request count next to the paper's closed-form prediction:

- read-only / write-only: ``(n+1)(m+1)`` requests (claim C1);
- conventional (a pipe process between every adjacent pair): ``(2n+2)
  (m+1)`` — twice the traffic, and ``2n+1`` stage processes instead
  of ``n``.

It then re-runs the read-only pipeline with real filters on *both*
runtimes — ``runtime="tcp"`` and ``runtime="sim"`` — and checks the
records coming out of the TCP sink equal the simulator's output for
the same seed.
"""

import tempfile

from repro.analysis import predicted_invocations
from repro.api import Pipeline
from repro.devices import random_lines

N_FILTERS = 3
ITEMS = 10
SEED = 7

IDENTITY = "repro.transput:identity_transducer"

FILTER_SPECS = [
    ("repro.filters:grep", ["stream"]),
    ("repro.filters:upper_case", []),
    ("repro.filters:unique_adjacent", []),
]


def measure(discipline: str, workdir: str) -> None:
    result = Pipeline(
        [IDENTITY] * N_FILTERS,
        discipline=discipline,
        source=[str(i) for i in range(ITEMS)],
    ).run(runtime="tcp", workdir=workdir, timeout=60)
    predicted = predicted_invocations(discipline, N_FILTERS, ITEMS)
    verdict = "exact" if result.invocations == predicted else "MISMATCH"
    print(
        f"{discipline:14s} "
        f"on-wire requests={result.invocations:4d} "
        f"paper predicts={predicted:4d}  [{verdict}]"
    )


def main() -> None:
    print(
        f"moving m={ITEMS} records through n={N_FILTERS} identity filters, "
        "one OS process per filter or pipe:\n"
    )
    with tempfile.TemporaryDirectory() as workdir:
        for discipline in ("readonly", "writeonly", "conventional"):
            measure(discipline, f"{workdir}/{discipline}")

        print("\nreal filters (grep | upper | uniq), read-only over TCP:")
        pipeline = Pipeline(
            FILTER_SPECS,
            discipline="readonly",
            source=random_lines(count=ITEMS, seed=SEED),
        )
        tcp = pipeline.run(runtime="tcp", workdir=f"{workdir}/real",
                           timeout=60)
        simulated = pipeline.run(runtime="sim")

        match = tcp.output == simulated.output
        for line in tcp.output:
            print("  ", line)
        print(
            f"\nTCP output == simulator output for seed {SEED}: {match}"
        )
        counters = tcp.stats.get("counters", {})
        print(
            f"wire totals: {counters.get('frames_sent')} frames, "
            f"{counters.get('bytes_sent')} bytes, "
            f"{counters.get('invocations_sent')} requests, "
            f"{counters.get('replies_sent')} replies"
        )
        if not match:
            raise SystemExit("output mismatch between TCP and simulator")


if __name__ == "__main__":
    main()
