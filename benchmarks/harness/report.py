"""Printing, the committed trajectory, the budget file, ``--compare``.

Nothing here imports ``repro``; it only formats what the children
measured.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from typing import Any, Sequence

from spec import BY_NAME, END_TO_END, GAP_LIMIT, METRICS, WORKLOADS
from stats import spread, verdict

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
HISTORY = os.path.join(RESULTS, "history.jsonl")
BUDGET = os.path.join(RESULTS, "budget.md")


def commit_id() -> str:
    """Short HEAD, ``+dirty`` with uncommitted changes, ``unknown``
    outside a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", HERE, *args], capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(seed: int, seconds: float) -> dict[str, Any]:
    return {
        "commit": commit_id(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "seconds": seconds,
        "loadavg": list(os.getloadavg()),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def print_header(env: dict[str, Any], mode: str) -> None:
    load = ", ".join(f"{value:.2f}" for value in env["loadavg"])
    print(f"# asymmetric-stream benchmark harness ({mode})")
    print(f"# commit {env['commit']}  seed {env['seed']}  "
          f"python {env['python']}  cores available {env['cores']}  "
          f"load average {load}")
    print("# closed loop, one driver: one process, one thread, one driver "
          "connection per workload; identity stages")
    print("# TCP traffic crosses the host's loopback interface "
          "(127.0.0.1), not a real link")


def _number(value: float) -> str:
    return f"{value:.6g}"


def print_workload(result: dict[str, Any]) -> None:
    """Every metric by name and unit: median, quartiles, IQR, count."""
    name = result["workload"]
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"\n== {name}  N={result['n']}  samples={result['samples']}  "
          f"{result['elapsed_s']:.1f}s  {status} ==")
    print(f"   why: {BY_NAME[name].why}")
    for error in result["errors"]:
        print(f"   ERROR {error}")
    if result["port_retries"]:
        print(f"   note: {result['port_retries']} sample(s) planned again "
              "after a listening-port clash")
    order = [metric.name for metric in METRICS.values()]
    for metric_name in sorted(result["metrics"], key=order.index):
        summary = result["metrics"][metric_name]
        bound = METRICS[metric_name].bound
        share = spread(summary)
        flag = "  noisy" if bound and share > bound else ""
        print(f"   {metric_name:<40} {_number(summary['median']):>12} "
              f"{summary['unit']:<10} q1 {_number(summary['q1'])}  "
              f"q3 {_number(summary['q3'])}  IQR {100 * share:.1f}%  "
              f"n={summary['n']}{flag}")


# ---------------------------------------------------------------------------
# The trajectory.
# ---------------------------------------------------------------------------


def append_history(env: dict[str, Any],
                   results: Sequence[dict[str, Any]]) -> None:
    """One line per full untraced run: the environment and every
    metric's median / quartiles / extremes / sample count."""
    line = dict(env)
    line["workloads"] = {
        result["workload"]: {"n": result["n"], "correct": result["correct"],
                             "metrics": result["metrics"]}
        for result in results
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def load_history() -> list[dict[str, Any]]:
    try:
        with open(HISTORY, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except OSError:
        return []


def select(history: Sequence[dict[str, Any]], selector: str) -> dict[str, Any]:
    """A history line by index (``-1`` is the latest) or commit prefix
    (the latest line of that commit)."""
    try:
        return history[int(selector)]
    except ValueError:
        pass
    except IndexError:
        raise SystemExit(f"history has no line {selector}") from None
    for line in reversed(history):
        if line["commit"].startswith(selector):
            return line
    raise SystemExit(f"history has no line of commit {selector!r}")


def compare(old_selector: str, new_selector: str) -> int:
    """Per workload and end-to-end metric, in its own row: ``better`` /
    ``worse`` / ``unchanged`` / ``unresolved``.  Returns the number of
    ``worse`` rows."""
    history = load_history()
    old, new = select(history, old_selector), select(history, new_selector)
    for tag, line in (("A", old), ("B", new)):
        print(f"# {tag}: commit {line['commit']}  seed {line['seed']}  "
              f"cores {line['cores']}  python {line['python']}  "
              f"{line['date']}")
    print(f"{'workload':<14} {'metric':<24} {'A':>12} {'B':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    worse = 0
    for workload in WORKLOADS:
        before = old["workloads"].get(workload.name)
        after = new["workloads"].get(workload.name)
        if before is None or after is None:
            continue
        for metric in END_TO_END:
            a = before["metrics"].get(metric.name)
            b = after["metrics"].get(metric.name)
            if a is None or b is None:
                continue
            outcome = verdict(a, b, metric.better, metric.bound)
            worse += outcome == "worse"
            change = (b["median"] - a["median"]) / a["median"] \
                if a["median"] else 0.0
            print(f"{workload.name:<14} {metric.name:<24} "
                  f"{_number(a['median']):>12} {_number(b['median']):>12} "
                  f"{100 * change:>+7.1f}% {100 * metric.bound:>5.0f}%  "
                  f"{outcome}")
    return worse


# ---------------------------------------------------------------------------
# The budget file.
# ---------------------------------------------------------------------------


def _gap_note(gap: float) -> str:
    if gap > GAP_LIMIT:
        return "unmeasured layer"
    if gap < -GAP_LIMIT:
        return "rows overlap"
    return "within limit"


def write_budget(env: dict[str, Any],
                 results: Sequence[dict[str, Any]]) -> None:
    """One µs/record table per workload, ending in the sum and the gap."""
    lines = [
        "# Layer budget",
        "",
        "Regenerated by `run.py --trace`; do not edit.  Rows are µs per "
        "record of the",
        "workload, summed over every instance of the layer, from the "
        "layer ladder",
        "(README.md, \"Per-layer metrics\").  `budget.gap_share` is the "
        "share of the",
        "end-to-end µs/record the rows do not explain; above "
        f"{GAP_LIMIT:.2f} it names an",
        f"unmeasured layer, below -{GAP_LIMIT:.2f} rows that overlap in the "
        "real run.",
        "",
        f"commit {env['commit']}, seed {env['seed']}, {env['cores']} cores, "
        f"python {env['python']}, {env['date']}",
    ]
    for result in results:
        target = result.get("budget_target_us")
        if not target:
            continue
        metrics = result["metrics"]
        total = metrics["budget.sum_us_per_record"]["median"]
        gap = metrics["budget.gap_share"]["median"]
        lines += ["", f"## {result['workload']} (N={result['n']})", "",
                  "| layer row | µs/record | share |", "|---|---:|---:|"]
        for label, micros in result["budget"]:
            lines.append(f"| {label} | {micros:.3f} | "
                         f"{100 * micros / target:.1f}% |")
        lines += [
            f"| **budget.sum_us_per_record** | **{total:.3f}** | "
            f"{100 * total / target:.1f}% |",
            f"| end to end (10^6 / records_per_s) | {target:.3f} | 100.0% |",
            f"| **budget.gap_share** | **{gap:.3f}** | "
            f"{_gap_note(gap)} |",
        ]
    os.makedirs(RESULTS, exist_ok=True)
    with open(BUDGET, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
