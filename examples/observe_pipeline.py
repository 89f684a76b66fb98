#!/usr/bin/env python3
"""Observe a live TCP fleet, then prove C1 span-by-span.

The tour of :mod:`repro.obs` on real sockets:

1. plan a read-only 3-filter identity pipeline with tracing *and* a
   control port on every stage (``trace=True, control=True``);
2. launch it, and while it runs poll the control ports for a live
   ``eden-top``-style snapshot (CTRL frames bypass the counted
   connection, so watching costs zero invocations);
3. merge the per-stage span logs with clock-skew correction and verify
   the paper's claim C1 *structurally*: every datum's trace is one
   causal chain of exactly n+1 Read spans, rooted at the sink — demand
   pulls, so causality starts where the data ends up;
4. print the slowest datum's critical path, hop by hop.
"""

import tempfile
import threading
import time

from repro.devices import random_lines
from repro.net.launch import IDENTITY, plan_linear_fleet, run_fleet
from repro.obs.control import ControlError
from repro.obs.merge import load_span_log, merge_span_logs, verify_invocation_chains
from repro.obs.top import gather_fleet, render_fleet

N_FILTERS = 3
ITEMS = 400


def watch_live(plans, runner: threading.Thread) -> int:
    """Poll the control ports while the fleet runs; return snapshots."""
    stages = [
        (f"{plan.role}#{index}", "127.0.0.1", plan.control_port)
        for index, plan in enumerate(plans)
    ]
    snapshots = 0
    while runner.is_alive():
        rows = gather_fleet(stages, timeout=0.5)
        if any(row.alive for row in rows):
            snapshots += 1
            print(render_fleet(rows))
            print()
        time.sleep(0.2)
    return snapshots


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        plans = plan_linear_fleet(
            "readonly", [IDENTITY] * N_FILTERS, workdir,
            source_items=random_lines(count=ITEMS), trace=True, control=True,
        )
        print(f"launching {len(plans)} stages (read-only, n={N_FILTERS}, "
              f"m={ITEMS})...\n")

        fleet: dict = {}
        runner = threading.Thread(
            target=lambda: fleet.update(result=run_fleet(plans, timeout=120))
        )
        runner.start()

        # A couple of live snapshots while the fleet is busy.
        try:
            if watch_live(plans, runner) == 0:
                print("(fleet drained before a snapshot landed)\n")
        except (ControlError, OSError):
            pass
        runner.join()
        result = fleet["result"]

        trees = merge_span_logs(
            [load_span_log(path) for path in result.trace_files]
        )
        report = verify_invocation_chains(trees, "readonly", N_FILTERS, ITEMS)
        print(report.summary())

        slowest = max(trees, key=lambda tree: tree.end_to_end)
        print(f"\nslowest datum ({slowest.trace}, "
              f"{slowest.end_to_end * 1000:.3f}ms end-to-end):")
        origin = slowest.start
        for record in slowest.critical_path():
            print(f"  {record.stage:<24} {record.op:<5} "
                  f"+{(record.start - origin) * 1000:7.3f}ms  "
                  f"dur {record.duration * 1000:7.3f}ms")
        roots = {tree.roots[0].stage for tree in trees}
        print(f"\nevery trace roots at: {sorted(roots)} — the sink pulls.")


if __name__ == "__main__":
    main()
