#!/usr/bin/env python3
"""The benchmark harness: one command, seven workloads, a layer budget.

::

    python3 benchmarks/harness/run.py --seed 11            # every workload
    python3 benchmarks/harness/run.py --seed 11 --trace    # per-layer run
    python3 benchmarks/harness/run.py --compare -2 -1      # two history lines
    python3 benchmarks/harness/run.py --workload pull_rtt --seed 3 \\
        --seconds 10 --trace 0                             # the driver's form

Every workload runs in a fresh child interpreter under a deadline; the
parent prints every metric by name and unit with median, quartiles and
sample count, and exits non-zero on any correctness failure.  With
``--workload`` the last line of standard output is the one JSON object
the builder contract asks for.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: The program under test is built from source in the checkout: the
#: package is pure Python, so "building" is putting src/ on the path.
sys.path[:0] = [HERE, SRC]

import report  # noqa: E402 — needs the path set above
from spec import WORKLOADS  # noqa: E402

#: A child that has not finished by then is killed with its whole
#: process group (the contract allows a run 180 s).
CHILD_DEADLINE_S = 170.0
WORK = os.path.join(report.RESULTS, "work")


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload: str, options: argparse.Namespace) -> dict | None:
    """Measure one workload in a fresh interpreter; None if it died.

    The child leads its own process group, so a timed-out sample takes
    its stage processes down with it; its work directory goes either way.
    """
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(options.seed),
        "--seconds", str(options.seconds), "--trace", str(options.trace),
        "--workdir", workdir, "--out", out,
        "--trace-file",
        os.path.join(report.RESULTS, f"trace-{workload}.json"),
    ]
    if options.quick:
        command.append("--quick")
    if options.tamper:
        command += ["--tamper", options.tamper]
    child = subprocess.Popen(command, stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Stage processes a failed sample left behind share the group.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    try:
        if code is None:
            print(f"{workload}: no result within {CHILD_DEADLINE_S:.0f}s; "
                  "killed", file=sys.stderr)
            return None
        if code != 0:
            print(f"{workload}: child exited with {code}", file=sys.stderr)
            return None
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def contract_line(result: dict, listed: list[dict]) -> str:
    """The driver's JSON object: every listed metric, by median; a layer
    the workload does not execute does no work, so it reports 0."""
    metrics = {}
    for entry in listed:
        summary = result["metrics"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": summary["median"] if summary else 0.0,
            "unit": entry["unit"],
        }
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload and end with the contract's "
                             "JSON line (default: run all seven)")
    parser.add_argument("--seed", type=int, default=11,
                        help="the records are generated from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time one workload measures for "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="the separate traced run: per-layer metrics, "
                             "span files, budget.md")
    parser.add_argument("--quick", action="store_true",
                        help="tiny N, two samples: a smoke test, not a result")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two history.jsonl lines (index or "
                             "commit prefix)")
    parser.add_argument("--tamper", choices=("drop", "dup", "swap"),
                        help="self-test hook: break every output this way")
    if argv is None:
        argv = sys.argv[1:]
    if "--child" in argv:
        import child

        return child.main([arg for arg in argv if arg != "--child"])
    options = parser.parse_args(argv)
    if options.compare:
        return 1 if report.compare(*options.compare) else 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    listed = contract()
    if options.seconds is None:
        options.seconds = float(listed["run_seconds"])

    env = report.environment(options.seed, options.seconds)
    mode = "traced" if options.trace else "tracing off"
    report.print_header(env, mode + (", quick" if options.quick else ""))
    sys.stdout.flush()
    results = []
    failed = False
    for name in [options.workload] if options.workload else names:
        result = run_child(name, options)
        if result is None:
            failed = True
            continue
        report.print_workload(result)
        sys.stdout.flush()
        failed = failed or not result["correct"]
        results.append(result)

    full = options.workload is None and not options.quick \
        and not options.tamper and len(results) == len(names)
    if full and options.trace:
        report.write_budget(env, results)
        print(f"\nwrote {os.path.relpath(report.BUDGET, ROOT)} and "
              f"{len(results)} trace files")
    elif full:
        report.append_history(env, results)
        print(f"\nappended one line to "
              f"{os.path.relpath(report.HISTORY, ROOT)}")
    if options.workload and results:
        key = "per_layer" if options.trace else "end_to_end"
        print(contract_line(results[0], listed[key]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
