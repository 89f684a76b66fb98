"""A forked stage looks like a fresh interpreter to the code it runs.

A fleet's zygote is a fork of the driver (:mod:`repro.net.zygote`), so
everything the driver holds — sockets, signal handlers, a blocked
signal mask, a replaced ``sys.stdout``, unflushed text, a current event
loop — is in it unless the fork puts it away.  Each test here gives the
driver one of those, runs a process fleet (the diamond) and a hosted
one, and reads what the stages saw from their output
(:mod:`tests.net.fork_probe`).
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import subprocess
import sys

import pytest

import repro
from repro.api import GraphBuilder, Pipeline
from tests.net.fork_probe import reports

IDENTITY = "repro.transput:identity_transducer"
PROBE = "tests.net.fork_probe:fork_tag"
ITEMS = [f"item-{i:02d}" for i in range(12)]
PACKAGE_ROOT = str(pathlib.Path(repro.__file__).resolve().parents[1])


def run(placement, workdir, stage=PROBE):
    """The records out of a fleet of ``stage`` filters on ``placement``:
    the diamond's four processes, or a broker and one host."""
    if placement == "process":
        graph = (GraphBuilder(source=ITEMS, discipline="readonly")
                 .chain(stage)
                 .scatter([stage], [stage])
                 .gather()
                 .chain(stage)
                 .build())
        output = graph.run(runtime="tcp", workdir=str(workdir)).output
        return sorted(output)
    return Pipeline([stage, stage], source=ITEMS, placement="hosted").run(
        runtime="tcp", workdir=str(workdir)).output


def seen(output):
    """Every report of every record, checking each record got three
    (diamond) or two (hosted) and is otherwise intact."""
    assert [record.split("@")[0] for record in output] == ITEMS
    found = [report for record in output for report in reports(record)]
    assert len(found) in (2 * len(ITEMS), 3 * len(ITEMS))
    return found


PLACEMENTS = pytest.mark.parametrize("placement", ["process", "hosted"])


@PLACEMENTS
def test_a_driver_socket_is_open_in_no_stage(tmp_path, placement):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        held = os.readlink(f"/proc/self/fd/{listener.fileno()}")
        found = seen(run(placement, tmp_path))
    assert all(held not in report["sockets"] for report in found)
    # Each stage holds sockets of its own, so the probe does see them.
    assert all(report["sockets"] for report in found)


@PLACEMENTS
def test_no_socket_is_held_by_two_processes(tmp_path, placement):
    # The driver binds every forked process's listener before it forks
    # the zygote; once a process is forked, only it holds its listener:
    # not the driver, not the zygote, not a sibling.
    found = seen(run(placement, tmp_path))
    for report in found:
        others = report["others"]
        driver = set(others.pop(report["driver"]))
        for pid, sockets in [(report["pid"], report["sockets"]),
                             *others.items()]:
            assert not driver & set(sockets), pid
        for pid, sockets in others.items():
            assert not set(report["sockets"]) & set(sockets), (
                report["pid"], pid)
    owners: dict[str, int] = {}
    for report in found:
        for held in report["sockets"]:
            assert owners.setdefault(held, report["pid"]) == report["pid"]


@PLACEMENTS
def test_signal_handling_is_a_fresh_interpreters(tmp_path, placement):
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGUSR2])
    try:
        found = seen(run(placement, tmp_path))
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGUSR2])
        signal.signal(signal.SIGTERM, previous)
    # Every stage, zygote and broker ignores SIGPIPE and blocks
    # nothing; no stage runs the driver's SIGTERM handler.
    assert all(all(report["sigpipe_ignored"]) for report in found)
    assert all(set(report["blocked"]) == {0} for report in found)
    assert {report["sigterm"] for report in found} == {"SIG_DFL"}
    if placement == "hosted":  # the host, the zygote and the broker
        assert all(len(report["blocked"]) == 3 for report in found)


def test_a_replaced_stdout_still_carries_a_hosted_sinks_records(
        tmp_path, capsys):
    print("the driver's own line")
    for placement in ("process", "hosted"):
        assert sorted(run(placement, tmp_path / placement, IDENTITY)) == ITEMS
    assert capsys.readouterr().out == "the driver's own line\n"


DRIVER = '''\
import asyncio, json, sys
from repro.api import GraphBuilder, Pipeline

IDENTITY = "repro.transput:identity_transducer"
ITEMS = [f"item-{i:02d}" for i in range(12)]
graph = (GraphBuilder(source=ITEMS, discipline="readonly").chain(IDENTITY)
         .scatter([IDENTITY], [IDENTITY]).gather().chain(IDENTITY).build())
workdir, runs, current_loop = sys.argv[1], int(sys.argv[2]), sys.argv[3]
# stdout is a pipe, so this stays in the buffer until something flushes.
print("unflushed text", end=" ")
correct = []
for attempt in range(runs):
    if current_loop == "loop":
        # Held by the policy alone, on the lowest free descriptors.
        asyncio.set_event_loop(asyncio.new_event_loop())
    process = graph.run(runtime="tcp", workdir=f"{workdir}/p{attempt}").output
    hosted = Pipeline([IDENTITY] * 2, source=ITEMS, placement="hosted").run(
        runtime="tcp", workdir=f"{workdir}/h{attempt}").output
    correct += [sorted(process) == ITEMS, hosted == ITEMS]
print(json.dumps(correct))
'''


def drive(workdir, runs, current_loop):
    """Run the diamond and a hosted pipeline ``runs`` times from a
    driver script whose stdout is a buffered pipe; check that every
    run was right, that nothing was said on stderr, and that the text
    the driver left unflushed was written once, by the driver, and
    never into a zygote's reports (which the driver would fail to
    read) or a stage's logs."""
    environ = {name: value for name, value in os.environ.items()
               if name != "PYTHONUNBUFFERED"}
    environ["PYTHONPATH"] = PACKAGE_ROOT
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, str(workdir), str(runs), current_loop],
        capture_output=True, text=True, timeout=120, env=environ)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"unflushed text [{', '.join(['true'] * 2 * runs)}]\n"
    for log in workdir.rglob("*.log"):
        assert "unflushed" not in log.read_text(), log


def test_text_the_driver_left_unflushed_appears_once(tmp_path):
    drive(tmp_path, 1, "none")


def test_a_driver_holding_a_current_event_loop_runs_ten_times(tmp_path):
    drive(tmp_path, 10, "loop")
