"""The harness end to end on tiny inputs: names, emission, correctness."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from spec import END_TO_END, METRICS, PER_LAYER, WORKLOADS
from workloads import count_failures, diamond_failures

HARNESS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(HARNESS))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(HARNESS, "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )


def emitted(stdout):
    """``{workload: {metric names printed under it}}`` of a run's tables."""
    sections, current = {}, None
    for line in stdout.splitlines():
        header = re.match(r"== (\S+) ", line)
        if header:
            current = sections.setdefault(header.group(1), set())
        elif current is not None and line.startswith("   "):
            word = line.split()[0]
            if word in METRICS:
                current.add(word)
    return sections


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_matches_the_harness_tables(contract):
    assert contract["paths"] == ["benchmarks/harness"]
    assert [w["name"] for w in contract["workloads"]] \
        == [w.name for w in WORKLOADS]
    bounded = {m.name: m for m in END_TO_END}
    for entry in contract["end_to_end"]:
        metric = bounded[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) \
            == (metric.unit, metric.better, metric.bound)
        assert set(metric.workloads) == {w.name for w in WORKLOADS}
    assert "setup_s" in {entry["name"] for entry in contract["end_to_end"]}
    listed = {e["name"] for e in contract["end_to_end"] + contract["per_layer"]}
    assert listed == {m.name for m in END_TO_END + PER_LAYER}
    for entry in contract["per_layer"]:
        assert entry["unit"] == METRICS[entry["name"]].unit
    names = [w["name"] for w in contract["workloads"]] + sorted(listed)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_quick_run_emits_every_workload_and_metric(contract):
    started = time.monotonic()
    untraced = run("--quick", "--seed", "5")
    traced = run("--quick", "--seed", "5", "--trace")
    elapsed = time.monotonic() - started
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert "loopback" in untraced.stdout and "cores available" in untraced.stdout
    plain, layered = emitted(untraced.stdout), emitted(traced.stdout)
    workloads = [w["name"] for w in contract["workloads"]]
    assert sorted(plain) == sorted(layered) == sorted(workloads)
    for metric in END_TO_END + PER_LAYER:
        sections = plain if metric in END_TO_END else layered
        for workload in metric.workloads:
            assert metric.name in sections[workload], (metric.name, workload)
    # A smoke test has to stay one: tiny N, well under a minute.
    assert elapsed < 60, f"--quick took {elapsed:.0f}s"


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_workload_ends_with_the_contract_line(contract, trace, key):
    done = run("--quick", "--workload", "diamond_aio", "--seed", "3",
               "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {entry["name"] for entry in contract[key]}
    for entry in contract[key]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", ["pull_rtt", "diamond_aio"])
@pytest.mark.parametrize("how", ["drop", "dup", "swap"])
def test_a_broken_output_fails_the_run(workload, how):
    done = run("--quick", "--workload", workload, "--seed", "3",
               "--tamper", how)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    share = re.search(r"failed_share\s+(\S+)", done.stdout)
    assert share and float(share.group(1)) > 0


def test_count_failures_counts_each_kind_once():
    expected = list("abcdefgh")
    assert count_failures(expected, expected) == 0
    assert count_failures(list("abcefgh"), expected) == 1       # dropped d
    assert count_failures(list("abcddefgh"), expected) == 1     # duplicated d
    assert count_failures(list("abdcefgh"), expected) == 1      # c after d
    assert count_failures(list("abcdefgx"), expected) == 2      # h lost, x new
    assert count_failures([], expected) == len(expected)


def test_diamond_failures_checks_multiset_branch_order_and_gather():
    records = list("abcdef")
    branches = [list("ace"), list("bdf")]
    assert diamond_failures(list("acebdf"), branches, records) == 0
    assert diamond_failures(list("acebd"), branches, records) > 0
    assert diamond_failures(list("acebdf"), [list("aec"), list("bdf")],
                            records) > 0
    assert diamond_failures(list("bdface"), branches, records) > 0
