#!/usr/bin/env python3
"""Check benchmarks/tables.txt against a fresh run of the sim benchmarks.

The simulator is deterministic, so the tables the fourteen
simulated-kernel benchmarks print (invocation counts, Eject counts,
process switches, virtual makespans) must reproduce digit for digit.
Run from anywhere::

    python tools/check_tables.py

It runs those benchmark files once with timing disabled (about 3 s),
keeps the table lines of their output, and compares them with the
table lines of ``benchmarks/tables.txt``; any difference is printed as
a unified diff and the exit status is 1.  After a deliberate change,
replace the differing rows in ``tables.txt`` with the ``+`` lines.
"""

from __future__ import annotations

import difflib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLES = ROOT / "benchmarks" / "tables.txt"

#: The benchmarks whose every printed digit comes from the simulator.
SIM_BENCHMARKS = (
    "bandwidth", "bootstrap_fs", "buffering", "channel_security",
    "context_switches", "eject_counts", "fan_duality", "fig1_unix_pipeline",
    "fig2_readonly_pipeline", "fig3_writeonly_reports",
    "fig4_readonly_channels", "invocation_counts", "pipeline_latency",
    "secondary_output_ablation",
)

#: pytest's own lines: progress dots and the closing summary.
_PYTEST_NOISE = re.compile(r"\.+|\d+ passed.* in [\d.]+s.*")


def table_lines(text: str) -> list[str]:
    """The lines of ``text`` that belong to a result table."""
    lines = (line.rstrip() for line in text.splitlines())
    return [line for line in lines if line and not _PYTEST_NOISE.fullmatch(line)]


def fresh_output() -> str:
    """What the sim benchmarks print now (raises if any of them fails)."""
    paths = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--benchmark-disable", "-q", "-s",
         "-p", "no:cacheprovider",
         *(f"benchmarks/test_bench_{name}.py" for name in SIM_BENCHMARKS)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": paths},
        capture_output=True, text=True, timeout=600,
    )
    if run.returncode != 0:
        raise RuntimeError(
            f"the sim benchmarks failed (exit {run.returncode}):\n"
            f"{run.stdout}{run.stderr}"
        )
    return run.stdout


def differences() -> list[str]:
    """Unified-diff lines between tables.txt and a fresh run (empty = same)."""
    return list(difflib.unified_diff(
        table_lines(TABLES.read_text(encoding="utf-8")),
        table_lines(fresh_output()),
        "benchmarks/tables.txt", "fresh run", lineterm="",
    ))


def main() -> int:
    diff = differences()
    if diff:
        print("\n".join(diff))
        print(f"\n{TABLES.relative_to(ROOT)} is stale: the simulator's "
              "tables moved", file=sys.stderr)
        return 1
    print(f"{TABLES.relative_to(ROOT)}: {len(SIM_BENCHMARKS)} benchmark "
          "files reproduce digit for digit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
